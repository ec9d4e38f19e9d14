"""Sharded and out-of-core pool stores.

Two :class:`~repro.engine.pool.PoolStore` implementations for the layouts
the dense store cannot express:

* :class:`ShardedPointStore` — the pool's global id range is partitioned
  into ``num_shards`` **contiguous per-rank shards** (the § III-C layout:
  "evenly distribut[e] h_i and x_i of n points in X_u across p GPUs").  Pool
  membership is tracked per shard (each shard's mask is a view into the
  global mask), and :meth:`ShardedPointStore.pool_shard_offsets` exposes
  the current pool-view partition so a ``SessionConfig.parallel_ranks``
  session scatters each rank its own shard (see
  ``partition_pool(offsets=...)``) instead of re-splitting a freshly
  assembled full pool every round.  Shard ownership is fixed at
  construction, so a sharded pool cannot grow.
* :class:`MmapPointStore` — the master lives **on disk** as an
  ``np.memmap``: host views gather chunk-wise, and
  :meth:`MmapPointStore.stream_round_scores` streams the whole pool through
  ``fused_round_scores`` one block at a time so peak resident memory is
  O(chunk) instead of O(pool).  The file is self-describing (``.npy``
  format plus label/meta sidecars), so :meth:`MmapPointStore.from_file`
  reopens it after a process restart; :meth:`MmapPointStore.extend` grows
  it through an atomic spill of the master file.

Both preserve the base-class contract, so strategies and solvers run
unchanged on top of them; every store selects identically to
:class:`~repro.engine.pool.DensePointStore` on the same pool (test-pinned).
"""

from __future__ import annotations

import json
import os
import tempfile
import weakref
from typing import Optional

import numpy as np

from repro.backend import COMPUTE_DTYPE, get_backend
from repro.engine.pool import PoolStore, _to_host
from repro.parallel.partition import block_partition
from repro.utils.validation import require

__all__ = [
    "MmapPointStore",
    "ShardedPointStore",
]


class ShardedPointStore(PoolStore):
    """Pool store with per-rank contiguous id shards.

    The pool id range ``m0..N-1`` is split into ``num_shards`` contiguous,
    balanced ranges (via :func:`repro.parallel.partition.block_partition`,
    the same rule the distributed solvers use).  Shard ownership is an *id*
    property: it never changes as points are labeled, so a rank sees a
    consistent subset of ids across every round of a session.

    Parameters
    ----------
    initial_features / initial_labels / pool_features / pool_labels:
        As for :class:`~repro.engine.pool.PoolStore`; the initial labeled
        block is replicated (owned by no shard), exactly like the labeled
        set in the distributed solvers.
    num_shards:
        Number of pool shards; each must be non-empty at construction.
    """

    kind = "sharded"

    def __init__(
        self,
        initial_features,
        initial_labels,
        pool_features,
        pool_labels,
        *,
        num_shards: int,
    ):
        super().__init__(initial_features, initial_labels, pool_features, pool_labels)
        require(num_shards > 0, "num_shards must be positive")
        pool_total = self.total_points - self.num_initial
        require(
            pool_total >= num_shards,
            f"pool of {pool_total} points cannot be split over {num_shards} shards",
        )
        self.num_shards = int(num_shards)
        # Global-id boundaries: the initial labeled block, then one
        # contiguous pool range per shard.
        bounds = [0, self.num_initial]
        for sl in block_partition(pool_total, self.num_shards):
            bounds.append(self.num_initial + sl.stop)
        self._id_bounds = np.asarray(bounds, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # shard views
    # ------------------------------------------------------------------ #
    def shard_id_range(self, shard: int) -> tuple:
        """Global id range ``[lo, hi)`` owned by ``shard``."""

        require(0 <= shard < self.num_shards, "shard index out of range")
        return int(self._id_bounds[shard + 1]), int(self._id_bounds[shard + 2])

    def shard_mask(self, shard: int) -> np.ndarray:
        """Pool-membership mask of ``shard`` (a live view into the global mask)."""

        lo, hi = self.shard_id_range(shard)
        return self.in_pool[lo:hi]

    def shard_pool_ids(self, shard: int) -> np.ndarray:
        """Global ids of ``shard``'s points still in the pool (sorted)."""

        lo, _ = self.shard_id_range(shard)
        return lo + np.flatnonzero(self.shard_mask(shard)).astype(np.int64)

    def shard_pool_sizes(self) -> np.ndarray:
        """Current pool count per shard."""

        return np.asarray(
            [int(self.shard_mask(r).sum()) for r in range(self.num_shards)], dtype=np.int64
        )

    def pool_shard_offsets(self) -> np.ndarray:
        """Pool-*view* partition boundaries by owning shard (length ``num_shards + 1``).

        Shard id ranges are ascending and the pool view is sorted by id, so
        the view is already grouped by owner: rows
        ``offsets[r] : offsets[r + 1]`` of this round's pool belong to shard
        ``r``.  This is the partition a ``parallel_ranks`` session hands the
        distributed solvers (``partition_pool(offsets=...)``) so the scatter
        follows store ownership instead of re-balancing every round.
        """

        return np.cumsum(np.concatenate([[0], self.shard_pool_sizes()]), dtype=np.int64)

    def extend(self, features, labels) -> np.ndarray:
        """Refuse growth: shard ownership is fixed at construction.

        Appended ids would fall outside every shard's id range, so the
        per-shard masks and scatter offsets could not cover them.
        """

        raise ValueError("a sharded store cannot grow: shard ownership is fixed at construction")


def _unlink_quiet(paths) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass


class MmapPointStore(PoolStore):
    """Out-of-core pool store: the master array is a disk-backed ``np.memmap``.

    The feature master is written chunk-wise into an ``.npy``-format file at
    construction and memory-mapped thereafter, so a pool far larger than
    host RAM still constructs and serves views — the OS pages rows in on
    access and can reclaim them under pressure.  Labels and membership stay
    resident (they are O(N), not O(N·d)), persisted in sidecar files
    (``<path>.labels.npy``, ``<path>.meta.json``) so the store survives a
    process restart via :meth:`from_file`.

    Host views gather in ``chunk_rows`` blocks.  The full-pool scoring path
    never densifies the pool: :meth:`stream_round_scores` (and the mapped
    master behind it,
    :meth:`mapped_compute_features`) streams blocks from disk through
    ``fused_round_scores``, keeping peak resident memory O(chunk).

    Parameters
    ----------
    path:
        Backing file for the master.  ``None`` (default) creates a temp file
        that is removed when the store is garbage-collected; an explicit
        path persists and enables :meth:`from_file` reopening.
    chunk_rows:
        Row block size for chunked gathers, spills and streamed scoring.
    advise_dontneed:
        When true, gathers and streamed scoring drop the mapped pages from
        the process after use (``madvise(MADV_DONTNEED)``), bounding RSS at
        the cost of re-faulting pages on the next pass.
    """

    kind = "mmap"

    def __init__(
        self,
        initial_features,
        initial_labels,
        pool_features,
        pool_labels,
        *,
        path: Optional[str] = None,
        chunk_rows: int = 2048,
        advise_dontneed: bool = False,
    ):
        require(chunk_rows > 0, "chunk_rows must be positive")
        self._chunk_rows = int(chunk_rows)
        self.advise_dontneed = bool(advise_dontneed)
        self._owns_file = path is None
        self._path = self._new_temp_path() if path is None else os.fspath(path)
        self._mapped_compute: Optional[np.memmap] = None
        self._finalizer = None
        super().__init__(initial_features, initial_labels, pool_features, pool_labels)
        self._write_sidecars()
        if self._owns_file:
            self._finalizer = weakref.finalize(self, _unlink_quiet, self._cleanup_paths())

    # ------------------------------------------------------------------ #
    # construction / persistence
    # ------------------------------------------------------------------ #
    @staticmethod
    def _new_temp_path() -> str:
        fd, path = tempfile.mkstemp(prefix="repro_pool_", suffix=".npy")
        os.close(fd)
        return path

    @property
    def path(self) -> str:
        """Backing file of the feature master."""

        return self._path

    def _labels_path(self) -> str:
        return self._path + ".labels.npy"

    def _meta_path(self) -> str:
        return self._path + ".meta.json"

    def _mapped_path(self) -> str:
        return self._path + ".f64.npy"

    def _cleanup_paths(self) -> tuple:
        return (
            self._path,
            self._labels_path(),
            self._meta_path(),
            self._mapped_path(),
            self._path + ".grow.tmp",
            self._mapped_path() + ".tmp",
        )

    def _build_master(self, init_f: np.ndarray, pool_f: np.ndarray) -> np.ndarray:
        # Same dtype rule as np.concatenate, so values round-trip through the
        # file bit-identically to the dense store's in-memory master.
        dtype = np.result_type(init_f.dtype, pool_f.dtype)
        total = int(init_f.shape[0]) + int(pool_f.shape[0])
        master = np.lib.format.open_memmap(
            self._path, mode="w+", dtype=dtype, shape=(total, int(init_f.shape[1]))
        )
        row = 0
        for block in (init_f, pool_f):
            rows = int(block.shape[0])
            for lo in range(0, rows, self._chunk_rows):
                hi = min(lo + self._chunk_rows, rows)
                master[row + lo:row + hi] = block[lo:hi]
            row += rows
        master.flush()
        return master

    def _write_sidecars(self) -> None:
        np.save(self._labels_path(), self.labels)
        tmp = self._meta_path() + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "format": 1,
                    "num_initial": int(self.num_initial),
                    "total_points": int(self.total_points),
                },
                fh,
            )
        os.replace(tmp, self._meta_path())

    @classmethod
    def from_arrays(
        cls,
        features,
        labels,
        num_initial: int,
        *,
        path: Optional[str] = None,
        chunk_rows: int = 2048,
        advise_dontneed: bool = False,
    ) -> "MmapPointStore":
        """Build a store from one ``(features, labels)`` block.

        The first ``num_initial`` rows form the initially labeled block; the
        rest become the pool.  The blocks are passed as views, so the master
        spill is the only full copy made.
        """

        f = _to_host(features)
        y = _to_host(labels)
        require(f.ndim == 2, "features must be 2-D")
        require(0 <= int(num_initial) <= int(f.shape[0]), "num_initial out of range")
        m0 = int(num_initial)
        return cls(
            f[:m0],
            y[:m0],
            f[m0:],
            y[m0:],
            path=path,
            chunk_rows=chunk_rows,
            advise_dontneed=advise_dontneed,
        )

    @classmethod
    def from_blocks(
        cls,
        blocks,
        num_rows: int,
        *,
        num_initial: int = 0,
        path: Optional[str] = None,
        chunk_rows: int = 2048,
        advise_dontneed: bool = False,
    ) -> "MmapPointStore":
        """Build a store from an iterator of ``(features, labels)`` blocks.

        The fully out-of-core constructor: each block is written into the
        master file as it is produced and (with ``advise_dontneed``) its
        pages dropped immediately, so peak resident memory is one block —
        the master never exists in RAM even transiently, unlike
        :meth:`from_arrays`.  ``num_rows`` fixes the total up front (the
        ``.npy`` header needs the final shape); the blocks must cover it
        exactly.  The first ``num_initial`` rows form the initially labeled
        block.
        """

        require(chunk_rows > 0, "chunk_rows must be positive")
        require(int(num_rows) >= 0, "num_rows must be non-negative")
        require(0 <= int(num_initial) <= int(num_rows), "num_initial out of range")
        store = cls.__new__(cls)
        store._chunk_rows = int(chunk_rows)
        store.advise_dontneed = bool(advise_dontneed)
        store._owns_file = path is None
        store._path = cls._new_temp_path() if path is None else os.fspath(path)
        store._mapped_compute = None
        store._finalizer = None

        label_parts = []
        row = 0
        for feats, labs in blocks:
            f = _to_host(feats)
            require(f.ndim == 2, "feature blocks must be 2-D")
            if row == 0:
                store.features = np.lib.format.open_memmap(
                    store._path, mode="w+", dtype=f.dtype, shape=(int(num_rows), int(f.shape[1]))
                )
            rows = int(f.shape[0])
            require(row + rows <= int(num_rows), "blocks exceed num_rows")
            store.features[row:row + rows] = f
            label_parts.append(np.asarray(_to_host(labs), dtype=np.int64))
            row += rows
            if store.advise_dontneed:
                store.release_mapped_pages()
        require(row == int(num_rows), "blocks must cover exactly num_rows rows")
        if row == 0:  # degenerate empty store still needs a mapped master
            store.features = np.lib.format.open_memmap(
                store._path, mode="w+", dtype=np.float64, shape=(0, 0)
            )
        store.features.flush()
        store.labels = (
            np.concatenate(label_parts, axis=0) if label_parts else np.zeros(0, dtype=np.int64)
        )
        require(
            int(store.labels.shape[0]) == int(num_rows), "label blocks must cover num_rows rows"
        )
        store._init_bookkeeping(int(num_initial))
        store._write_sidecars()
        if store._owns_file:
            store._finalizer = weakref.finalize(store, _unlink_quiet, store._cleanup_paths())
        return store

    @classmethod
    def from_file(
        cls,
        path,
        *,
        mode: str = "r+",
        chunk_rows: int = 2048,
        advise_dontneed: bool = False,
    ) -> "MmapPointStore":
        """Reopen a persisted store (e.g. after a process restart).

        Maps the existing master file and reads the label/meta sidecars; no
        feature data is copied.  Membership starts fresh (everything past
        the initial block in the pool) — pair with
        :meth:`~repro.engine.pool.PoolStore.restore_membership` or
        ``ActiveSession.resume`` to recover an acquisition history.
        """

        require(chunk_rows > 0, "chunk_rows must be positive")
        store = cls.__new__(cls)
        store._chunk_rows = int(chunk_rows)
        store.advise_dontneed = bool(advise_dontneed)
        store._owns_file = False
        store._path = os.fspath(path)
        store._mapped_compute = None
        store._finalizer = None
        store.features = np.load(store._path, mmap_mode=mode)
        require(store.features.ndim == 2, "mapped master must be 2-D")
        with open(store._meta_path(), encoding="utf-8") as fh:
            meta = json.load(fh)
        store.labels = np.load(store._labels_path())
        require(
            int(store.labels.shape[0]) == int(store.features.shape[0]),
            "label sidecar does not match the mapped master",
        )
        store._init_bookkeeping(int(meta["num_initial"]))
        return store

    # ------------------------------------------------------------------ #
    # chunked host views
    # ------------------------------------------------------------------ #
    def features_host(self, ids: np.ndarray) -> np.ndarray:
        """Host features for ``ids``, gathered from disk in ``chunk_rows`` blocks."""

        ids_arr = np.asarray(ids, dtype=np.int64)
        if ids_arr.ndim != 1:
            return np.asarray(self.features[ids_arr])
        out = np.empty((int(ids_arr.shape[0]), self.dimension), dtype=self.features.dtype)
        for lo in range(0, int(ids_arr.shape[0]), self._chunk_rows):
            hi = min(lo + self._chunk_rows, int(ids_arr.shape[0]))
            out[lo:hi] = self.features[ids_arr[lo:hi]]
        if self.advise_dontneed:
            self.release_mapped_pages()
        return out

    # ------------------------------------------------------------------ #
    # streamed full-pool scoring
    # ------------------------------------------------------------------ #
    def mapped_compute_features(self) -> np.memmap:
        """Compute-dtype view of **all** rows as a read-only memmap.

        When storage is already compute dtype the master file itself is
        remapped read-only; otherwise a compute-dtype sidecar is spilled
        chunk-wise next to the master (once per growth epoch) and mapped.
        Slices of the result feed straight into ``fused_round_scores`` — its
        ``score_chunk_size`` loop then streams the pool from disk without a
        resident copy.
        """

        if self._mapped_compute is not None:
            return self._mapped_compute
        if self.features.dtype == np.dtype(COMPUTE_DTYPE):
            self._mapped_compute = np.load(self._path, mmap_mode="r")
            return self._mapped_compute
        tmp = self._mapped_path() + ".tmp"
        sidecar = np.lib.format.open_memmap(
            tmp, mode="w+", dtype=COMPUTE_DTYPE, shape=(self.total_points, self.dimension)
        )
        for lo in range(0, self.total_points, self._chunk_rows):
            hi = min(lo + self._chunk_rows, self.total_points)
            sidecar[lo:hi] = self.features[lo:hi]
        sidecar.flush()
        del sidecar
        os.replace(tmp, self._mapped_path())
        self._mapped_compute = np.load(self._mapped_path(), mmap_mode="r")
        return self._mapped_compute

    def release_mapped_pages(self) -> None:
        """Drop the mapped masters' resident pages (``madvise(MADV_DONTNEED)``).

        Dirty master pages are flushed first; the data stays intact on disk
        and re-faults on the next access.  A no-op on platforms without
        ``madvise``.
        """

        import mmap as _mmap

        if isinstance(self.features, np.memmap):
            self.features.flush()
        for arr in (self.features, self._mapped_compute):
            raw = getattr(arr, "_mmap", None)
            if raw is None:
                continue
            try:
                raw.madvise(_mmap.MADV_DONTNEED)
            except (AttributeError, ValueError, OSError):  # pragma: no cover
                pass

    def stream_round_scores(
        self, a_inverse, middle, gammas, eta: float, *, block_rows: Optional[int] = None, out=None
    ) -> np.ndarray:
        """Prop. 4 ROUND scores for **every** stored point, streamed from disk.

        Equivalent to one ``fused_round_scores`` call over a resident
        promoted master with ``chunk_size=block_rows``, but each block is
        materialized from the mapped master, scored, written into the host
        result, and (with ``advise_dontneed``) dropped from RSS — peak
        resident memory is O(block · d), not O(pool · d).
        """

        from repro.linalg.sherman_morrison import fused_round_scores

        backend = get_backend()
        X = self.mapped_compute_features()
        n = int(X.shape[0])
        block = self._chunk_rows if block_rows is None else int(block_rows)
        require(block > 0, "block_rows must be positive")
        gam = np.asarray(_to_host(gammas))
        require(int(gam.shape[0]) == n, "gammas must cover every stored point")
        scores = np.empty(n, dtype=COMPUTE_DTYPE) if out is None else out
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            chunk = fused_round_scores(
                a_inverse,
                middle,
                backend.ascompute(np.asarray(X[lo:hi])),
                backend.ascompute(gam[lo:hi]),
                eta,
            )
            scores[lo:hi] = backend.to_numpy(chunk)
            if self.advise_dontneed:
                self.release_mapped_pages()
        return scores

    def provide_labels(self, ids, labels) -> None:
        # Externally supplied labels must survive a process restart the same
        # way extend()-appended rows do: refresh the label sidecar so
        # from_file() reopens the answered labels, not the stale oracle
        # column.
        super().provide_labels(ids, labels)
        self._write_sidecars()

    # ------------------------------------------------------------------ #
    # atomic spill growth
    # ------------------------------------------------------------------ #
    def extend(self, features, labels) -> np.ndarray:
        """Append new unlabeled points via an atomic spill of the master file.

        The grown master is written chunk-wise to ``<path>.grow.tmp`` and
        swapped in with ``os.replace`` — a crash mid-spill leaves the old
        master intact.  New rows are cast to the existing storage dtype.
        Returns the appended points' global ids.
        """

        new_f, new_y = self._check_extension(features, labels)
        old_total = self.total_points
        added = int(new_f.shape[0])
        tmp = self._path + ".grow.tmp"
        grown = np.lib.format.open_memmap(
            tmp, mode="w+", dtype=self.features.dtype, shape=(old_total + added, self.dimension)
        )
        for lo in range(0, old_total, self._chunk_rows):
            hi = min(lo + self._chunk_rows, old_total)
            grown[lo:hi] = self.features[lo:hi]
        for lo in range(0, added, self._chunk_rows):
            hi = min(lo + self._chunk_rows, added)
            grown[old_total + lo:old_total + hi] = new_f[lo:hi]
        grown.flush()
        del grown
        os.replace(tmp, self._path)
        self.features = np.load(self._path, mmap_mode="r+")
        self.labels = np.concatenate([self.labels, new_y], axis=0)
        self.total_points = old_total + added
        self.in_pool = np.concatenate([self.in_pool, np.ones(added, dtype=bool)])
        self._invalidate_compute()
        self._write_sidecars()
        return np.arange(old_total, self.total_points, dtype=np.int64)

    def _invalidate_compute(self) -> None:
        """Drop the pool-id cache and the compute-dtype sidecar after growth."""

        self._pool_ids_cache = None
        self._mapped_compute = None
        if self.features.dtype != np.dtype(COMPUTE_DTYPE):
            try:
                os.unlink(self._mapped_path())
            except OSError:
                pass
