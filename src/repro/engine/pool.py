"""Stable-id point storage with mask-based pool membership.

The legacy driver re-materialized the experiment state every round:
``concatenate`` for the growing labeled set and a boolean-mask copy for the
shrinking pool.  The **pool store** layer replaces that churn with one
master array and bookkeeping over **stable global point ids**:

* every point (initially labeled + pool) gets an id ``0..N-1`` once;
* pool membership is a boolean mask over ids — labeling flips bits, nothing
  is copied or reindexed;
* the labeled set is an id list in acquisition order, so views reproduce the
  legacy concatenation order bit-for-bit;
* :meth:`PoolStore.extend` grows the pool between rounds under fresh ids
  (the pool-refresh setting of Pinsler et al.).

:class:`PoolStore` is the protocol the session engine programs against —
stable ids, mask membership, host views, :meth:`~PoolStore.label`, growth,
and the shard offsets a session queries without probing — with all of the
shared bookkeeping implemented once.  Three implementations ship with the
engine:

* :class:`DensePointStore` (this module) — one monolithic host master
  array, the pre-refactor behavior bit-for-bit;
* :class:`~repro.engine.stores.ShardedPointStore` — the pool id range is
  partitioned into per-rank contiguous shards with per-shard masks, feeding
  the distributed solvers' shard-aware scatter;
* :class:`~repro.engine.stores.MmapPointStore` — the master lives on disk.

Host views are materialized on demand (a gather per round — the classifier
is a host-side model), but the master array is allocated once per growth
of the store (exactly once for a fixed pool).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend import get_backend
from repro.utils.validation import require

__all__ = ["PoolStore", "DensePointStore"]


def _to_host(a) -> np.ndarray:
    """Return ``a`` as a host ndarray (no copy when it already is one)."""

    if isinstance(a, np.ndarray):
        return a
    return get_backend().to_numpy(a)


class PoolStore:
    """Master point arrays plus pool/labeled membership over stable ids.

    This base class implements the full store contract — subclasses
    specialize *where* the points live (one dense block, per-rank shards, a
    file on disk), not *what* the session engine can ask of them.  The
    contract every implementation preserves:

    * **Stable global ids** — a point's id never changes once assigned, no
      matter how the pool shrinks (labeling) or grows (:meth:`extend`).
    * **Mask membership** — :attr:`in_pool` is a boolean mask over ids;
      :meth:`label` flips bits and appends to the acquisition-ordered
      labeled id list.
    * **Host views** — ``*_host`` methods gather host ndarrays for the
      host-side classifier and the solvers, in pool order / acquisition
      order.
    * **Session queries** — :attr:`num_shards` and
      :meth:`pool_shard_offsets` answer ``None`` here; the sharded store
      overrides them.

    Parameters
    ----------
    initial_features / initial_labels:
        The initially labeled points; they receive ids ``0..m0-1`` and start
        in the labeled set.
    pool_features / pool_labels:
        The unlabeled pool; ids ``m0..N-1``, all initially in the pool.
        ``pool_labels`` plays the oracle and is only revealed by
        :meth:`label`.
    """

    #: Store flavor, written into checkpoints and checked on resume.
    kind: str = "dense"
    #: Pool shard count of a sharded store; ``None`` for an unsharded pool.
    num_shards: Optional[int] = None

    def __init__(self, initial_features, initial_labels, pool_features, pool_labels):
        init_f = _to_host(initial_features)
        pool_f = _to_host(pool_features)
        require(init_f.ndim == 2 and pool_f.ndim == 2, "features must be 2-D")
        require(init_f.shape[1] == pool_f.shape[1], "feature dimensions must match")
        self.features: np.ndarray = self._build_master(init_f, pool_f)
        self.labels: np.ndarray = np.concatenate(
            [np.asarray(_to_host(initial_labels), dtype=np.int64),
             np.asarray(_to_host(pool_labels), dtype=np.int64)],
            axis=0,
        )
        require(self.features.shape[0] == self.labels.shape[0], "features and labels must align")
        self._init_bookkeeping(int(init_f.shape[0]))

    def _build_master(self, init_f: np.ndarray, pool_f: np.ndarray) -> np.ndarray:
        """Materialize the master feature array (hook for out-of-core stores).

        The base implementation is the one-dense-host-block layout every
        in-memory store uses; :class:`~repro.engine.stores.MmapPointStore`
        overrides it to stream both blocks into a disk-backed memmap without
        ever holding the concatenation in RAM.
        """

        return np.concatenate([init_f, pool_f], axis=0)

    def _init_bookkeeping(self, num_initial: int) -> None:
        """Initialize membership/caches over already-set master arrays.

        Factored out of ``__init__`` so alternate constructors
        (``MmapPointStore.from_file`` reopening an existing master) can skip
        the array-building half and still get identical bookkeeping.
        """

        self.num_initial = int(num_initial)
        self.total_points = int(self.features.shape[0])
        self.in_pool = np.zeros(self.total_points, dtype=bool)
        self.in_pool[self.num_initial:] = True
        self._labeled_ids = list(range(self.num_initial))
        self._pool_ids_cache: Optional[np.ndarray] = None

    @classmethod
    def from_problem(cls, problem, **kwargs) -> "PoolStore":
        """Build a store from an :class:`~repro.active.ActiveLearningProblem`."""

        return cls(
            problem.initial_features,
            problem.initial_labels,
            problem.pool_features,
            problem.pool_labels,
            **kwargs,
        )

    @classmethod
    def factory(cls, **kwargs):
        """A ``problem -> store`` callable for ``SessionConfig.store``.

        Binds constructor keywords now, defers array wiring to the session:
        ``SessionConfig(store=ShardedPointStore.factory(num_shards=4))``.
        """

        def build(problem) -> "PoolStore":
            return cls.from_problem(problem, **kwargs)

        return build

    # ------------------------------------------------------------------ #
    # sizes / id views
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        return int(self.features.shape[1])

    @property
    def pool_size(self) -> int:
        return int(self.in_pool.sum())

    @property
    def num_labeled(self) -> int:
        return len(self._labeled_ids)

    @property
    def pool_ids(self) -> np.ndarray:
        """Sorted global ids of the current pool (cached between labelings)."""

        if self._pool_ids_cache is None:
            self._pool_ids_cache = np.flatnonzero(self.in_pool).astype(np.int64)
        return self._pool_ids_cache

    @property
    def labeled_ids(self) -> np.ndarray:
        """Global ids of the labeled set in acquisition order."""

        return np.asarray(self._labeled_ids, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # host views (for the host-side classifier and legacy-compatible paths)
    # ------------------------------------------------------------------ #
    def features_host(self, ids: np.ndarray) -> np.ndarray:
        """Host features for arbitrary global ``ids`` (gather from the master)."""

        return self.features[np.asarray(ids, dtype=np.int64)]

    def labels_host(self, ids: np.ndarray) -> np.ndarray:
        """Host labels for arbitrary global ``ids``."""

        return self.labels[np.asarray(ids, dtype=np.int64)]

    def pool_features_host(self) -> np.ndarray:
        return self.features_host(self.pool_ids)

    def pool_labels_host(self) -> np.ndarray:
        return self.labels_host(self.pool_ids)

    def labeled_features_host(self) -> np.ndarray:
        return self.features_host(self.labeled_ids)

    def labeled_labels_host(self) -> np.ndarray:
        return self.labels_host(self.labeled_ids)

    # ------------------------------------------------------------------ #
    # session queries (answered by the stores they concern)
    # ------------------------------------------------------------------ #
    def pool_shard_offsets(self) -> Optional[np.ndarray]:
        """Pool-view partition by owning shard; ``None`` for an unsharded pool."""

        return None

    # ------------------------------------------------------------------ #
    # growth
    # ------------------------------------------------------------------ #
    def _check_extension(self, features, labels) -> tuple:
        """Validate an :meth:`extend` batch; return it as host ``(features, labels)``."""

        new_f = _to_host(features)
        new_y = np.asarray(_to_host(labels), dtype=np.int64).ravel()
        require(new_f.ndim == 2, "features must be 2-D")
        require(new_f.shape[0] > 0, "extend requires at least one point")
        require(int(new_f.shape[1]) == self.dimension, "feature dimensions must match")
        require(int(new_f.shape[0]) == int(new_y.shape[0]), "features and labels must align")
        return new_f, new_y

    def extend(self, features, labels) -> np.ndarray:
        """Append new unlabeled points to the pool; return their global ids.

        The new points get fresh ids past the current range; ids assigned
        before never change, so selections, labeled history and any per-id
        strategy state stay valid.  ``labels`` join the hidden oracle side
        of the store — they are only revealed when :meth:`label` selects the
        points.
        """

        new_f, new_y = self._check_extension(features, labels)
        old_total = self.total_points
        self.features = np.concatenate([self.features, new_f], axis=0)
        self.labels = np.concatenate([self.labels, new_y], axis=0)
        self.total_points = int(self.features.shape[0])
        self.in_pool = np.concatenate([self.in_pool, np.ones(int(new_f.shape[0]), dtype=bool)])
        self._pool_ids_cache = None
        return np.arange(old_total, self.total_points, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # labeling
    # ------------------------------------------------------------------ #
    def provide_labels(self, ids: np.ndarray, labels: np.ndarray) -> None:
        """Overwrite the oracle labels of global ``ids`` with external answers.

        The serving path: a remote labeler answers a
        :class:`~repro.engine.session.QueryProposal`, and the session writes
        those answers into the label master *before* :meth:`label` reveals
        them — so retraining, pool accuracy and checkpoints all see the
        external labels.  Benchmarks and tests, whose stores are built with
        synthetic oracle columns, never need this.
        """

        ids = np.asarray(ids, dtype=np.int64).ravel()
        provided = np.asarray(labels, dtype=np.int64).ravel()
        require(ids.size == provided.size, "one label per id is required")
        require(
            bool(ids.size == 0 or (int(ids.min()) >= 0 and int(ids.max()) < self.total_points)),
            "label id out of range for this store",
        )
        self.labels[ids] = provided

    def label(self, pool_indices: np.ndarray):
        """Reveal the labels of pool-view rows ``pool_indices``.

        ``pool_indices`` are positions in the *current* pool view (what a
        :class:`~repro.baselines.SelectionStrategy` returns), in selection
        order; the points move from the pool to the labeled set in that
        order.  Returns ``(global_ids, labels)``.
        """

        pool_ids = self.pool_ids
        indices = np.asarray(pool_indices, dtype=np.int64).ravel()
        require(indices.size > 0, "at least one point must be labeled")
        require(
            bool(np.all((indices >= 0) & (indices < pool_ids.size))),
            "pool index out of range",
        )
        require(np.unique(indices).size == indices.size, "duplicate pool indices")
        global_ids = pool_ids[indices]
        self.in_pool[global_ids] = False
        self._labeled_ids.extend(int(g) for g in global_ids)
        self._pool_ids_cache = None
        return global_ids, self.labels[global_ids]

    def restore_membership(self, labeled_ids: np.ndarray) -> None:
        """Reset pool/labeled membership to a checkpointed acquisition history.

        ``labeled_ids`` is the complete labeled id list in acquisition order,
        starting with the initial block ``0..m0-1`` (how every session
        begins); all other ids return to the pool.  Used by
        ``ActiveSession.resume`` — membership is pure bookkeeping over the
        master arrays, so restoring it is exact regardless of store flavor
        (sharded masks are views into :attr:`in_pool`, pool growth is
        replayed before this call).
        """

        ids = np.asarray(labeled_ids, dtype=np.int64).ravel()
        require(ids.size >= self.num_initial, "labeled history is shorter than the initial block")
        require(
            bool(np.array_equal(ids[: self.num_initial], np.arange(self.num_initial))),
            "labeled history must start with the initial block in id order",
        )
        require(np.unique(ids).size == ids.size, "duplicate ids in the labeled history")
        acquired = ids[self.num_initial:]
        require(
            bool(
                acquired.size == 0
                or (int(acquired.min()) >= self.num_initial and int(acquired.max()) < self.total_points)
            ),
            "labeled id out of range for this store",
        )
        self.in_pool[:] = True
        self.in_pool[: self.num_initial] = False
        self.in_pool[acquired] = False
        self._labeled_ids = [int(i) for i in ids]
        self._pool_ids_cache = None


class DensePointStore(PoolStore):
    """The monolithic in-memory store: one dense host master array.

    This is the pre-refactor single-array behavior bit-for-bit (the
    legacy-equivalence suite pins it against the frozen pre-session driver
    for every strategy), and it grows in RAM through :meth:`extend`; the
    base class implements everything, this subclass only fixes the ``kind``
    tag.
    """

    kind = "dense"

