"""Tests for data partitioning across ranks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.partition import (
    block_partition,
    check_pool_offsets,
    partition_indices,
    partition_pool,
    pool_offsets,
)
from tests.conftest import make_fisher_dataset


class TestBlockPartition:
    def test_covers_range_without_overlap(self):
        slices = block_partition(10, 3)
        indices = np.concatenate([np.arange(s.start, s.stop) for s in slices])
        np.testing.assert_array_equal(indices, np.arange(10))

    def test_sizes_differ_by_at_most_one(self):
        slices = block_partition(11, 4)
        sizes = [s.stop - s.start for s in slices]
        assert max(sizes) - min(sizes) <= 1

    def test_more_parts_than_items_gives_empty_slices(self):
        slices = block_partition(2, 5)
        sizes = [s.stop - s.start for s in slices]
        assert sum(sizes) == 2
        assert sizes.count(0) == 3

    def test_single_part(self):
        assert block_partition(7, 1) == [slice(0, 7)]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            block_partition(-1, 2)
        with pytest.raises(ValueError):
            block_partition(5, 0)


class TestPartitionIndices:
    def test_matches_block_partition(self):
        parts = partition_indices(9, 2)
        np.testing.assert_array_equal(parts[0], np.arange(5))
        np.testing.assert_array_equal(parts[1], np.arange(5, 9))


class TestPartitionPool:
    def test_shards_cover_pool_in_order(self):
        dataset = make_fisher_dataset(seed=0, num_pool=23)
        shards = partition_pool(dataset, 4)
        assert sum(s.num_pool for s in shards) == 23
        reassembled = np.concatenate([s.pool_features for s in shards])
        np.testing.assert_array_equal(reassembled, dataset.pool_features)

    def test_labeled_set_replicated(self):
        dataset = make_fisher_dataset(seed=1, num_pool=12)
        shards = partition_pool(dataset, 3)
        for shard in shards:
            np.testing.assert_array_equal(shard.labeled_features, dataset.labeled_features)

    def test_too_many_ranks_rejected(self):
        dataset = make_fisher_dataset(seed=2, num_pool=5)
        with pytest.raises(ValueError):
            partition_pool(dataset, 6)


class TestExplicitOffsets:
    """Shard-aware scatter: a sharded store's ownership table overrides the
    balanced default split."""

    def test_partition_follows_explicit_boundaries(self):
        dataset = make_fisher_dataset(seed=3, num_pool=10)
        offsets = np.array([0, 7, 10])
        shards = partition_pool(dataset, 2, offsets=offsets)
        assert [s.num_pool for s in shards] == [7, 3]
        np.testing.assert_array_equal(shards[0].pool_features, dataset.pool_features[:7])
        np.testing.assert_array_equal(shards[1].pool_features, dataset.pool_features[7:])

    def test_pool_offsets_passthrough_and_default(self):
        np.testing.assert_array_equal(pool_offsets(10, 2), [0, 5, 10])
        np.testing.assert_array_equal(pool_offsets(10, 2, np.array([0, 3, 10])), [0, 3, 10])

    def test_invalid_offsets_rejected(self):
        for bad in ([1, 5, 10], [0, 5, 9], [0, 5, 5, 10], [0, 6, 4, 10]):
            with pytest.raises(ValueError):
                check_pool_offsets(np.asarray(bad), 10, len(bad) - 1)

    def test_wrong_rank_count_rejected(self):
        with pytest.raises(ValueError):
            check_pool_offsets(np.array([0, 5, 10]), 10, 3)


@settings(max_examples=30, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=200),
    parts=st.integers(min_value=1, max_value=16),
)
def test_property_block_partition_is_a_partition(total, parts):
    slices = block_partition(total, parts)
    assert len(slices) == parts
    covered = []
    for s in slices:
        assert 0 <= s.start <= s.stop <= total
        covered.extend(range(s.start, s.stop))
    assert covered == list(range(total))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
    corruption=st.sampled_from(["none", "first", "last", "decrease", "length"]),
    data=st.data(),
)
def test_property_shard_tables(sizes, corruption, data):
    """``check_pool_offsets`` accepts exactly the strictly increasing tables
    that run from 0 to n with ``p + 1`` entries, and ``partition_pool`` splits
    the pool along an accepted table, in order.

    The table is the running sum of drawn per-rank sizes (an empty shard
    included), then perhaps corrupted: a wrong first or last entry, a
    decrease, or a wrong length.
    """

    num_ranks, total = len(sizes), sum(sizes)
    table = [0, *np.cumsum(sizes).tolist()]
    if corruption == "first":
        table[0] = data.draw(st.sampled_from([-2, -1, 1, 2]), label="first")
    elif corruption == "last":
        table[-1] += data.draw(st.sampled_from([-2, -1, 1, 2]), label="last")
    elif corruption == "decrease":
        at = data.draw(st.integers(1, num_ranks), label="at")
        table[at] = table[at - 1] - data.draw(st.integers(1, 3), label="drop")
    elif corruption == "length":
        at = data.draw(st.integers(0, len(table)), label="at")
        if data.draw(st.booleans(), label="insert"):
            table.insert(at, data.draw(st.integers(0, total), label="entry"))
        else:
            del table[min(at, len(table) - 1)]

    valid = (
        len(table) == num_ranks + 1
        and table[0] == 0
        and table[-1] == total
        and all(later > earlier for earlier, later in zip(table, table[1:]))
    )
    if not valid:
        with pytest.raises(ValueError):
            check_pool_offsets(np.asarray(table), total, num_ranks)
        return

    assert check_pool_offsets(np.asarray(table), total, num_ranks).tolist() == table
    dataset = make_fisher_dataset(seed=total, num_pool=total, num_labeled=2, dimension=2, num_classes=2)
    shards = partition_pool(dataset, num_ranks, offsets=np.asarray(table))
    assert [shard.num_pool for shard in shards] == sizes
    np.testing.assert_array_equal(
        np.concatenate([shard.pool_features for shard in shards]), dataset.pool_features
    )
    np.testing.assert_array_equal(
        np.concatenate([shard.pool_probabilities for shard in shards]),
        dataset.pool_probabilities,
    )
