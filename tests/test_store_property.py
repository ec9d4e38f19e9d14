"""Property: store id maps survive any interleaving of growth and labeling.

Random sequences of ``extend``, ``label`` and ``provide_labels`` run on a
:class:`DensePointStore` and a :class:`MmapPointStore` side by side with a
plain-list model: a list of feature rows, a list of labels, the sorted pool
ids and the labeled ids in acquisition order.  After every step both stores
must agree with the model on ``pool_ids``, ``labeled_ids``,
``features_host`` and ``labels_host``.  At the end the mmap store is
reopened from its file with :meth:`MmapPointStore.from_file` and, after
``restore_membership``, must still agree.

A :class:`ShardedPointStore` cannot grow, so it runs the ``label`` and
``provide_labels`` steps alone, refuses every ``extend``, and after each
step must also partition its pool view by owning shard.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import DensePointStore, MmapPointStore, ShardedPointStore

NUM_CLASSES = 4
DIMENSION = 3


class _ListModel:
    """The store contract over Python lists."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, num_initial: int):
        self.features = [row.copy() for row in features]
        self.labels = [int(y) for y in labels]
        self.pool = list(range(num_initial, len(self.labels)))
        self.labeled = list(range(num_initial))

    def extend(self, features: np.ndarray, labels: np.ndarray) -> list:
        start = len(self.labels)
        self.features.extend(row.copy() for row in features)
        self.labels.extend(int(y) for y in labels)
        new_ids = list(range(start, len(self.labels)))
        self.pool.extend(new_ids)
        return new_ids

    def label(self, positions: list) -> tuple:
        ids = [self.pool[p] for p in positions]
        for i in ids:
            self.pool.remove(i)
        self.labeled.extend(ids)
        return ids, [self.labels[i] for i in ids]

    def provide_labels(self, ids: list, labels: list) -> None:
        for i, y in zip(ids, labels):
            self.labels[i] = int(y)


def _assert_matches(store, model: _ListModel) -> None:
    np.testing.assert_array_equal(store.pool_ids, model.pool)
    np.testing.assert_array_equal(store.labeled_ids, model.labeled)
    all_ids = np.arange(len(model.labels), dtype=np.int64)
    expected = np.asarray(model.features)
    np.testing.assert_array_equal(store.features_host(all_ids), expected)
    np.testing.assert_array_equal(store.features_host(store.pool_ids), expected[model.pool])
    np.testing.assert_array_equal(store.labels_host(all_ids), model.labels)
    np.testing.assert_array_equal(
        store.labels_host(store.labeled_ids), np.asarray(model.labels)[model.labeled]
    )


def _rows(rng: np.random.Generator, count: int, dtype) -> tuple:
    features = rng.standard_normal((count, DIMENSION)).astype(dtype)
    labels = rng.integers(0, NUM_CLASSES, size=count).astype(np.int64)
    return features, labels


def _step(op: str, op_rng: np.random.Generator, data, model: _ListModel, stores, dtype) -> None:
    """Apply one ``extend``/``label``/``provide_labels`` step to the model and every store."""

    if op == "extend":
        new_f, new_y = _rows(op_rng, int(op_rng.integers(1, 4)), dtype)
        new_ids = model.extend(new_f, new_y)
        for store in stores:
            np.testing.assert_array_equal(store.extend(new_f, new_y), new_ids)
    elif op == "label":
        if not model.pool:
            return
        positions = data.draw(
            st.lists(
                st.integers(0, len(model.pool) - 1),
                min_size=1,
                max_size=min(3, len(model.pool)),
                unique=True,
            )
        )
        ids, revealed = model.label(positions)
        for store in stores:
            got_ids, got_labels = store.label(np.asarray(positions))
            np.testing.assert_array_equal(got_ids, ids)
            np.testing.assert_array_equal(got_labels, revealed)
    else:
        total = len(model.labels)
        count = int(op_rng.integers(1, total + 1))
        ids = op_rng.choice(total, size=count, replace=False)
        answers = op_rng.integers(0, NUM_CLASSES, size=count)
        model.provide_labels(ids.tolist(), answers.tolist())
        for store in stores:
            store.provide_labels(ids, answers)


def _operations(kinds: list):
    return st.lists(
        st.tuples(st.sampled_from(kinds), st.integers(0, 2**16)), min_size=1, max_size=8
    )


operations = _operations(["extend", "label", "provide_labels"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    num_initial=st.integers(0, 3),
    pool_size=st.integers(1, 6),
    dtype=st.sampled_from([np.float32, np.float64]),
    chunk_rows=st.integers(1, 4),
    ops=operations,
    data=st.data(),
)
def test_interleaved_extend_label_provide_labels(
    num_initial, pool_size, dtype, chunk_rows, ops, data
):
    rng = np.random.default_rng(0)
    features, labels = _rows(rng, num_initial + pool_size, dtype)
    model = _ListModel(features, labels, num_initial)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pool.npy")
        stores = [
            DensePointStore(
                features[:num_initial],
                labels[:num_initial],
                features[num_initial:],
                labels[num_initial:],
            ),
            MmapPointStore.from_arrays(
                features, labels, num_initial, path=path, chunk_rows=chunk_rows
            ),
        ]
        for store in stores:
            _assert_matches(store, model)

        for op, seed in ops:
            _step(op, np.random.default_rng(seed), data, model, stores, dtype)
            for store in stores:
                _assert_matches(store, model)

        history = stores[1].labeled_ids
        del stores
        reopened = MmapPointStore.from_file(path, chunk_rows=chunk_rows)
        reopened.restore_membership(history)
        _assert_matches(reopened, model)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    num_initial=st.integers(0, 3),
    pool_size=st.integers(1, 8),
    ops=_operations(["extend", "label", "provide_labels"]),
    data=st.data(),
)
def test_sharded_store_interleaved_label_provide_labels(num_initial, pool_size, ops, data):
    num_shards = data.draw(st.integers(1, min(3, pool_size)))
    rng = np.random.default_rng(1)
    features, labels = _rows(rng, num_initial + pool_size, np.float64)
    model = _ListModel(features, labels, num_initial)
    store = ShardedPointStore(
        features[:num_initial],
        labels[:num_initial],
        features[num_initial:],
        labels[num_initial:],
        num_shards=num_shards,
    )
    _assert_matches(store, model)
    for op, seed in ops:
        op_rng = np.random.default_rng(seed)
        if op == "extend":
            with pytest.raises(ValueError, match="cannot grow"):
                store.extend(*_rows(op_rng, 1, np.float64))
            continue
        _step(op, op_rng, data, model, [store], np.float64)
        _assert_matches(store, model)
        offsets = store.pool_shard_offsets()
        assert offsets[0] == 0 and offsets[-1] == len(model.pool)
        for shard in range(num_shards):
            lo, hi = store.shard_id_range(shard)
            np.testing.assert_array_equal(
                store.pool_ids[offsets[shard]:offsets[shard + 1]],
                [i for i in model.pool if lo <= i < hi],
            )
