"""Data partitioning across ranks.

The parallel implementation "evenly distribut[es] ``h_i`` and ``x_i`` of n
points in ``X_u`` across p GPUs" (§ III-C).  The labeled set ``X_o`` is tiny
(one or two points per class) and is replicated on every rank.  The ROUND
step additionally distributes the ``c`` class blocks across ranks for the
eigenvalue computation (Line 9 of Algorithm 3).

Partition indices are host-side bookkeeping (plain int64 arrays); the shard
*data* itself stays on the active array backend — slicing a backend array
with a contiguous ``slice`` never leaves backend storage.
"""

from __future__ import annotations

from typing import List

import numpy as np  # host-side index bookkeeping only

from repro.core.spmd import block_partition
from repro.fisher.operators import FisherDataset
from repro.utils.validation import require

__all__ = [
    "block_partition",
    "check_pool_offsets",
    "partition_indices",
    "partition_pool",
    "pool_offsets",
]


def partition_indices(total: int, num_parts: int) -> List[np.ndarray]:
    """Index arrays corresponding to :func:`block_partition`."""

    return [np.arange(s.start, s.stop, dtype=np.int64) for s in block_partition(total, num_parts)]


def pool_offsets(total: int, num_ranks: int, offsets: np.ndarray = None) -> np.ndarray:
    """Global start offset of every rank's pool shard (length ``num_ranks + 1``).

    ``offsets[r] : offsets[r + 1]`` is rank ``r``'s contiguous slice of the
    global pool; every rank of an SPMD solver holds the full offset table so
    it can translate an ``argmax_allreduce`` winner's (owner, local index)
    pair into a global pool index.  When an explicit ``offsets`` table is
    given (a sharded pool store's ownership boundaries), it is validated and
    returned in place of the balanced default.
    """

    if offsets is not None:
        return check_pool_offsets(offsets, total, num_ranks)
    sizes = [sl.stop - sl.start for sl in block_partition(total, num_ranks)]
    return np.cumsum([0] + sizes, dtype=np.int64)


def check_pool_offsets(offsets, total: int, num_ranks: int) -> np.ndarray:
    """Validate an explicit shard-boundary table for a pool of ``total`` points.

    The table must cover the pool exactly (``offsets[0] == 0``,
    ``offsets[-1] == total``) with one non-empty slice per rank (strictly
    increasing entries) — the distributed solvers score every shard locally
    before the global argmax, so a rank cannot own zero candidates.
    """

    offsets = np.asarray(offsets, dtype=np.int64).ravel()
    require(
        offsets.shape[0] == num_ranks + 1,
        f"offsets must have num_ranks + 1 = {num_ranks + 1} entries, got {offsets.shape[0]}",
    )
    require(int(offsets[0]) == 0, "offsets must start at 0")
    require(int(offsets[-1]) == total, f"offsets must end at the pool size {total}")
    require(
        bool(np.all(np.diff(offsets) > 0)),
        "every rank's shard must be non-empty (offsets strictly increasing)",
    )
    return offsets


def partition_pool(
    dataset: FisherDataset, num_ranks: int, *, offsets: np.ndarray = None
) -> List[FisherDataset]:
    """Split the pool of a :class:`FisherDataset` across ranks.

    Every shard keeps the full labeled set (replication) and a contiguous
    slice of the pool.  Shards must be non-empty: the pool is required to
    have at least one point per rank, which matches the paper's weak/strong
    scaling regimes (tens of thousands of points per GPU).

    ``offsets`` overrides the balanced default split with explicit shard
    boundaries — the shard-aware scatter of a
    :class:`~repro.engine.ShardedPointStore` session, whose pool view is
    grouped by owning shard and must be split along ownership lines rather
    than re-balanced.
    """

    require(num_ranks > 0, "num_ranks must be positive")
    require(
        dataset.num_pool >= num_ranks,
        f"pool of {dataset.num_pool} points cannot be split over {num_ranks} ranks",
    )
    if offsets is not None:
        offsets = check_pool_offsets(offsets, dataset.num_pool, num_ranks)
        slices = [slice(int(offsets[r]), int(offsets[r + 1])) for r in range(num_ranks)]
    else:
        slices = block_partition(dataset.num_pool, num_ranks)
    shards = []
    for sl in slices:
        shards.append(
            FisherDataset(
                pool_features=dataset.pool_features[sl],
                pool_probabilities=dataset.pool_probabilities[sl],
                labeled_features=dataset.labeled_features,
                labeled_probabilities=dataset.labeled_probabilities,
            )
        )
    return shards
