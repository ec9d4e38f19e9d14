"""MPI-like collectives over two interchangeable transports.

The paper's code calls ``MPI_Allreduce``, ``MPI_Allgather`` and ``MPI_Bcast``
through mpi4py on GPU buffers.  This module provides the same collectives
behind one :class:`Comm` protocol with two implementations:

* :class:`SimulatedComm` — every rank is a thread of one process.  Ranks
  rendezvous at a :class:`threading.Barrier`, post their contribution into a
  shared slot table, and each computes the combined result locally.  Under
  the torch backend the per-rank buffers stay tensors end to end, matching
  how the real code keeps buffers on-GPU and lets CUDA-aware MPI reduce them.
* :class:`SharedMemoryComm` — every rank is a real OS process (spawned by
  :mod:`repro.parallel.launcher`).  Contributions travel through a
  ``multiprocessing.shared_memory`` segment carved into one slot per rank;
  a ``multiprocessing.Barrier`` plus per-slot sequence numbers and collective
  tags implement the post → combine → release protocol and catch ranks that
  diverge from the SPMD program (a rank calling ``allreduce`` while another
  calls ``bcast`` raises :class:`CommProtocolError` instead of deadlocking
  or silently mixing payloads).

Two things are preserved exactly across transports:

1. the numerical semantics — contributions are always combined **in rank
   order** (stack, then reduce along the rank axis), so for a fixed rank
   count the simulated and real transports produce identical reductions up
   to the floating-point differences of running in separate processes, and
   ``argmax_allreduce`` resolves ties to the **lowest rank** exactly as
   MPI's ``MAXLOC`` guarantees;
2. the communication pattern — every collective is recorded in a
   :class:`CommunicationLog` with its message size, with identical
   byte-accounting formulas in both transports, so the analytic cost model
   (§ III-C, Table IV) applies to simulated and real runs alike and the two
   logs can be compared byte for byte.

Logging convention: one record per collective, not one per rank.  The
simulated transport shares a single log across ranks and lets rank 0 record;
the real transport has each rank record into its private log — every rank's
log is then identical, and the launcher reports rank 0's as *the* log of the
run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.backend import Array, get_backend
from repro.utils.validation import require

__all__ = [
    "Comm",
    "CommAbortedError",
    "CommError",
    "CommProtocolError",
    "CommunicationLog",
    "SharedMemoryComm",
    "SimulatedComm",
    "create_communicators",
]


class CommError(RuntimeError):
    """Base of all communicator failures, carrying structured context.

    Recovery code dispatches on the *fields* — ``rank`` (the rank that
    raised), ``sequence`` (its collective call counter), ``collective`` (the
    collective's name) and ``tag`` (its wire code) — never on message text,
    which exists only for humans.  Every field is ``None`` when the failure
    happened outside a collective (e.g. a barrier abort before the first
    call).
    """

    def __init__(
        self,
        message: str,
        *,
        rank: Optional[int] = None,
        sequence: Optional[int] = None,
        tag: Optional[int] = None,
        collective: Optional[str] = None,
    ):
        super().__init__(message)
        self.rank = None if rank is None else int(rank)
        self.sequence = None if sequence is None else int(sequence)
        self.tag = None if tag is None else int(tag)
        self.collective = collective

    def __str__(self) -> str:
        base = super().__str__()
        fields = [
            ("rank", self.rank),
            ("collective", self.collective),
            ("sequence", self.sequence),
            ("tag", self.tag),
        ]
        rendered = " ".join(f"{name}={value}" for name, value in fields if value is not None)
        return f"{base} [{rendered}]" if rendered else base


class CommProtocolError(CommError):
    """Ranks diverged from the SPMD program (mismatched collective or payload)."""


class CommAbortedError(CommError):
    """The communicator was torn down (peer failure or barrier timeout)."""


@dataclass
class CommunicationLog:
    """Per-collective call counts and message volumes (bytes).

    Counts are incremented once per collective (not once per rank), matching
    how the cost model charges a single collective time to the whole machine.
    """

    calls: Dict[str, int] = field(default_factory=dict)
    bytes_moved: Dict[str, int] = field(default_factory=dict)

    def record(self, name: str, message_bytes: int) -> None:
        require(message_bytes >= 0, "message size must be non-negative")
        self.calls[name] = self.calls.get(name, 0) + 1
        self.bytes_moved[name] = self.bytes_moved.get(name, 0) + int(message_bytes)

    def total_calls(self) -> int:
        return int(sum(self.calls.values()))

    def total_bytes(self) -> int:
        return int(sum(self.bytes_moved.values()))

    def merge(self, other: "CommunicationLog") -> "CommunicationLog":
        merged = CommunicationLog(dict(self.calls), dict(self.bytes_moved))
        for key, value in other.calls.items():
            merged.calls[key] = merged.calls.get(key, 0) + value
        for key, value in other.bytes_moved.items():
            merged.bytes_moved[key] = merged.bytes_moved.get(key, 0) + value
        return merged

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        return {"calls": dict(self.calls), "bytes": dict(self.bytes_moved)}


@runtime_checkable
class Comm(Protocol):
    """Transport-agnostic communicator handle held by one rank.

    The distributed solvers (:func:`~repro.parallel.distributed_relax.relax_rank_main`,
    :func:`~repro.parallel.distributed_round.round_rank_main`) are written
    against this protocol only, so the same SPMD body runs over threads
    (:class:`SimulatedComm`) and real processes (:class:`SharedMemoryComm`).
    ``attempt`` is the zero-based launch attempt of the
    :func:`~repro.parallel.launcher.run_spmd` call that created the handle,
    which attempt-gated fault plans read.
    """

    rank: int
    attempt: int

    @property
    def size(self) -> int: ...

    @property
    def log(self) -> CommunicationLog: ...

    def allreduce(self, value: Array, op: str = "sum") -> Array: ...

    def allgather(self, value: Array) -> Array: ...

    def bcast(self, value: Optional[Array] = None, root: int = 0) -> Array: ...

    def argmax_allreduce(self, value: float, index: int) -> Tuple[int, int, float]: ...

    def barrier(self) -> None: ...


# --------------------------------------------------------------------- #
# shared reduction semantics (used by both transports)
# --------------------------------------------------------------------- #
def _reduce_in_rank_order(xp, arrays: Sequence[Array], op: str) -> Array:
    """Stack per-rank contributions in rank order and reduce along that axis."""

    shapes = {tuple(a.shape) for a in arrays}
    require(len(shapes) == 1, "allreduce contributions must share a shape")
    stacked = xp.stack(list(arrays), axis=0)
    if op == "sum":
        return xp.sum(stacked, axis=0)
    if op == "max":
        return xp.max(stacked, axis=0)
    if op == "min":
        return xp.min(stacked, axis=0)
    raise ValueError(f"unsupported allreduce op '{op}'")


def _maxloc(values: Sequence[float]) -> int:
    """Owner rank of the global maximum, ties resolved to the lowest rank.

    MPI's ``MAXLOC`` reduction is defined to return the *smallest* index among
    equal maxima; relying on a backend ``argmax`` instead would let torch (whose
    tie behavior is unspecified) select different points than NumPy.
    """

    best = max(values)
    for rank, value in enumerate(values):
        if value == best:
            return rank
    return 0  # pragma: no cover - values is non-empty, loop always returns


def _argmax_traffic_bytes(size: int) -> int:
    """Bytes of one MAXLOC allreduce: a float64 value + int64 index per rank."""

    return size * (np.dtype(np.float64).itemsize + np.dtype(np.int64).itemsize)


class _CollectiveBody:
    """Shared bodies of the five collectives, over transport hooks.

    The byte-for-byte parity of the two transports' communication logs is a
    structural property, not a convention: both inherit these bodies and only
    provide the exchange/representation hooks —

    * ``_exchange(tag, payload)`` — post, rendezvous, return all posts;
    * ``_finish()`` — second rendezvous (peers are done reading);
    * ``_prepare(value)`` — local value → posted contribution;
    * ``_ns()`` — array namespace the combine runs in;
    * ``_nbytes(arr)`` — byte footprint of one contribution;
    * ``_record(name, n)`` — log one collective (once per call, not per rank);
    * ``_emit(result)`` — combined result → caller-facing array;
    * ``_prepare_pair(v, i)`` / ``_post_pair(p)`` — MAXLOC pair codec.
    """

    rank: int

    @property
    def size(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def allreduce(self, value: Array, op: str = "sum") -> Array:
        """Combine per-rank arrays with ``sum``/``max``/``min`` (``MPI_Allreduce``)."""

        contribution = self._prepare(value)
        posts = self._exchange("allreduce", contribution)
        result = _reduce_in_rank_order(self._ns(), posts, op)
        self._record("allreduce", self._nbytes(contribution))
        self._finish()
        return self._emit(result)

    def allgather(self, value: Array) -> Array:
        """Concatenate per-rank arrays along axis 0 in rank order (``MPI_Allgather``)."""

        contribution = self._prepare(value)
        posts = self._exchange("allgather", contribution)
        result = self._ns().concatenate(posts, axis=0)
        self._record("allgather", int(sum(self._nbytes(a) for a in posts)))
        self._finish()
        return self._emit(result)

    def bcast(self, value: Optional[Array] = None, root: int = 0) -> Array:
        """Broadcast ``value`` from ``root`` to all ranks (``MPI_Bcast``)."""

        require(0 <= root < self.size, "bcast root out of range")
        contribution = None
        if self.rank == root:
            require(value is not None, "bcast root must provide a value")
            contribution = self._prepare(value)
        posts = self._exchange("bcast", contribution)
        result = posts[root]
        require(result is not None, "bcast root posted no value")
        self._record("bcast", self._nbytes(result))
        self._finish()
        return self._emit(result)

    def argmax_allreduce(self, value: float, index: int) -> Tuple[int, int, float]:
        """Global argmax over per-rank ``(value, index)`` pairs.

        Mirrors the ``MPI_Allreduce`` with ``MAXLOC`` semantics the ROUND step
        uses to find the point with the maximum objective across GPUs
        (§ III-C).  Returns ``(owner_rank, owner_local_index, value)`` with
        ties on the value resolved to the lowest rank, as MAXLOC prescribes.
        """

        posts = self._exchange("argmax_allreduce", self._prepare_pair(value, index))
        pairs = [self._post_pair(post) for post in posts]
        owner = _maxloc([pair[0] for pair in pairs])
        self._record("allreduce", _argmax_traffic_bytes(self.size))
        self._finish()
        return owner, int(pairs[owner][1]), float(pairs[owner][0])

    def barrier(self) -> None:
        """Synchronize all ranks without moving data."""

        self._exchange("barrier", None)
        self._finish()


# --------------------------------------------------------------------- #
# simulated transport: ranks are threads of one process
# --------------------------------------------------------------------- #
class _SharedState:
    """Rendezvous state shared by the rank handles of one simulated communicator."""

    def __init__(self, size: int, timeout: Optional[float] = None):
        self.size = size
        self.timeout = timeout
        self.log = CommunicationLog()
        self.barrier = threading.Barrier(size)
        self.slots: List[Optional[tuple]] = [None] * size


class SimulatedComm(_CollectiveBody):
    """One rank of an in-process communicator (threads as ranks).

    All handles created by :func:`create_communicators` share one
    :class:`_SharedState`.  A collective is a two-phase rendezvous: every rank
    posts ``(sequence, tag, payload)`` into its slot and waits at the shared
    barrier; each rank then reads all slots, validates that every peer posted
    the same collective with the same sequence number, combines the
    contributions in rank order, and waits at the barrier again before the
    slots are reused.  With ``size == 1`` every collective degenerates to the
    identity, so a single rank can run the SPMD body without threads.
    """

    def __init__(self, rank: int, state: _SharedState, *, attempt: int = 0):
        require(0 <= rank < state.size, "rank out of range")
        self.rank = int(rank)
        self.attempt = int(attempt)
        self._state = state
        self._seq = 0
        self._inflight: Optional[str] = None

    # ------------------------------------------------------------------ #
    # size / identity
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return self._state.size

    @property
    def log(self) -> CommunicationLog:
        return self._state.log

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulatedComm(rank={self.rank}, size={self.size})"

    # ------------------------------------------------------------------ #
    # rendezvous machinery
    # ------------------------------------------------------------------ #
    def abort(self) -> None:
        """Break the shared barrier so peer ranks stop waiting (error path)."""

        self._state.barrier.abort()

    def _wait(self) -> None:
        # The timeout guards against collective-count divergence (a peer rank
        # returned from its SPMD body while this rank still waits for it):
        # threading.Barrier.wait(timeout) breaks the barrier for everyone, so
        # the hang surfaces as CommAbortedError instead of a frozen run —
        # the same guarantee the shared-memory transport's barrier gives.
        try:
            self._state.barrier.wait(self._state.timeout)
        except threading.BrokenBarrierError as exc:
            raise CommAbortedError(
                f"rank {self.rank}: communicator aborted (a peer rank failed, "
                "or a collective went unmatched past the timeout)",
                rank=self.rank,
                sequence=self._seq if self._inflight is not None else None,
                tag=_TAG_CODES.get(self._inflight) if self._inflight is not None else None,
                collective=self._inflight,
            ) from exc

    def _exchange(self, tag: str, payload) -> List:
        """Post ``payload``, rendezvous, and return all per-rank payloads."""

        self._seq += 1
        self._inflight = tag
        state = self._state
        state.slots[self.rank] = (self._seq, tag, payload)
        self._wait()
        posts = list(state.slots)
        for rank, post in enumerate(posts):
            require(post is not None, f"rank {rank} posted nothing")
            seq, peer_tag, _ = post
            if seq != self._seq or peer_tag != tag:
                raise CommProtocolError(
                    f"rank {self.rank} called {tag}#{self._seq} but rank {rank} "
                    f"posted {peer_tag}#{seq} — ranks diverged from the SPMD program",
                    rank=self.rank,
                    sequence=self._seq,
                    tag=_TAG_CODES.get(tag),
                    collective=tag,
                )
        return [post[2] for post in posts]

    def _finish(self) -> None:
        """Second rendezvous phase: all ranks are done reading the slots."""

        self._wait()

    def _record(self, name: str, message_bytes: int) -> None:
        if self.rank == 0:
            self._state.log.record(name, message_bytes)

    # ------------------------------------------------------------------ #
    # _CollectiveBody hooks: backend arrays end to end, shared log
    # ------------------------------------------------------------------ #
    def _prepare(self, value: Array) -> Array:
        return get_backend().xp.asarray(value)

    def _ns(self):
        return get_backend().xp

    def _nbytes(self, arr: Array) -> int:
        return get_backend().nbytes(arr)

    def _emit(self, result: Array) -> Array:
        return result

    def _prepare_pair(self, value: float, index: int) -> tuple:
        return (float(value), int(index))

    def _post_pair(self, post: tuple) -> tuple:
        return post


def create_communicators(
    size: int, *, timeout: Optional[float] = None, attempt: int = 0
) -> List[SimulatedComm]:
    """Create the ``size`` rank handles of one simulated communicator.

    The handles share one rendezvous state and one :class:`CommunicationLog`;
    each must be driven by its own thread (or, for ``size == 1``, the calling
    thread) — :func:`repro.parallel.launcher.run_spmd` does exactly that.
    ``timeout`` bounds every barrier wait (``None`` waits forever): a rank
    whose peers never post the matching collective raises
    :class:`CommAbortedError` after ``timeout`` seconds instead of hanging.
    ``attempt`` is the launch attempt every handle reports.
    """

    require(size > 0, "communicator size must be positive")
    state = _SharedState(size, timeout=timeout)
    return [SimulatedComm(rank, state, attempt=attempt) for rank in range(size)]


# --------------------------------------------------------------------- #
# real transport: ranks are OS processes over a shared-memory segment
# --------------------------------------------------------------------- #
#: dtype wire codes for slot headers (fixed order — part of the protocol).
_DTYPE_CODES: Dict[str, int] = {"float64": 0, "float32": 1, "int64": 2, "int32": 3, "bool": 4}
_CODE_DTYPES: Dict[int, np.dtype] = {c: np.dtype(n) for n, c in _DTYPE_CODES.items()}

_TAG_CODES: Dict[str, int] = {
    "allreduce": 1,
    "allgather": 2,
    "bcast": 3,
    "argmax_allreduce": 4,
    "barrier": 5,
}

#: slot header: seq, tag, dtype, ndim, shape[0..3] — eight little-endian uint64.
_HEADER_WORDS = 8
_HEADER_BYTES = _HEADER_WORDS * 8
_MAX_DIMS = 4
#: ``ndim`` sentinel for "this rank posted no payload" (bcast non-roots).
_NO_PAYLOAD = 0xFF


class SharedMemoryComm(_CollectiveBody):
    """One rank of a real multiprocess communicator.

    The launcher allocates one ``multiprocessing.shared_memory`` segment of
    ``size`` slots (each ``_HEADER_BYTES + capacity_bytes`` long) plus a
    ``multiprocessing.Barrier``, spawns ``size`` processes, and hands every
    process the pieces to attach this handle.  A collective follows the same
    two-phase protocol as :class:`SimulatedComm` — post, rendezvous, combine,
    rendezvous — with the slot table living in shared memory:

    1. the rank writes its slot header (monotonic sequence number, collective
       tag, dtype code, shape) and copies its payload behind it;
    2. ``barrier.wait(timeout)`` — every rank has posted;
    3. the rank reads all slots, validates every peer posted the same
       ``(sequence, tag)`` (divergent ranks raise :class:`CommProtocolError`
       instead of reducing garbage), and combines the payloads in rank order;
    4. ``barrier.wait(timeout)`` — every rank has read; slots may be reused.

    Payloads cross the wire as C-contiguous little-endian NumPy arrays;
    backend arrays are converted on post and reconstructed with the active
    backend on return, so the SPMD solver bodies stay backend-agnostic.
    Each rank keeps a private :class:`CommunicationLog` with the exact
    byte-accounting of the simulated transport; the logs of all ranks are
    identical by construction.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        shm_name: str,
        barrier,
        capacity_bytes: int,
        *,
        timeout: float = 120.0,
        attempt: int = 0,
    ):
        from multiprocessing import shared_memory

        require(size > 0, "communicator size must be positive")
        require(0 <= rank < size, "rank out of range")
        require(capacity_bytes > 0, "slot capacity must be positive")
        self.rank = int(rank)
        self.attempt = int(attempt)
        self._size = int(size)
        self._capacity = int(capacity_bytes)
        self._slot_bytes = _HEADER_BYTES + self._capacity
        self._barrier = barrier
        self._timeout = float(timeout)
        self._log = CommunicationLog()
        self._seq = 0
        self._inflight: Optional[str] = None
        self._shm = shared_memory.SharedMemory(name=shm_name)
        require(
            self._shm.size >= self._size * self._slot_bytes,
            "shared-memory segment is smaller than size * slot_bytes",
        )

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return self._size

    @property
    def log(self) -> CommunicationLog:
        return self._log

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedMemoryComm(rank={self.rank}, size={self.size})"

    def close(self) -> None:
        """Detach from the shared segment (the launcher owns unlinking)."""

        self._shm.close()

    # ------------------------------------------------------------------ #
    # slot I/O
    # ------------------------------------------------------------------ #
    def _header(self, rank: int) -> np.ndarray:
        offset = rank * self._slot_bytes
        return np.ndarray((_HEADER_WORDS,), dtype=np.uint64, buffer=self._shm.buf, offset=offset)

    def _post(self, tag: str, arr: Optional[np.ndarray]) -> None:
        header = self._header(self.rank)
        header[0] = self._seq
        header[1] = _TAG_CODES[tag]
        if arr is None:
            header[2] = 0
            header[3] = _NO_PAYLOAD
            header[4:] = 0
            return
        require(arr.ndim <= _MAX_DIMS, f"payloads are limited to {_MAX_DIMS} dimensions")
        require(
            arr.nbytes <= self._capacity,
            f"payload of {arr.nbytes} bytes exceeds the slot capacity of "
            f"{self._capacity} bytes — raise max_message_bytes on the launcher",
        )
        dtype_code = _DTYPE_CODES.get(arr.dtype.name)
        require(dtype_code is not None, f"unsupported wire dtype {arr.dtype}")
        header[2] = dtype_code
        header[3] = arr.ndim
        header[4:] = 0
        header[4 : 4 + arr.ndim] = arr.shape
        if arr.nbytes:
            view = np.ndarray(
                arr.shape,
                dtype=arr.dtype,
                buffer=self._shm.buf,
                offset=self.rank * self._slot_bytes + _HEADER_BYTES,
            )
            view[...] = arr

    def _read(self, rank: int, tag: str) -> Optional[np.ndarray]:
        header = self._header(rank)
        if int(header[0]) != self._seq or int(header[1]) != _TAG_CODES[tag]:
            raise CommProtocolError(
                f"rank {self.rank} called {tag}#{self._seq} but rank {rank}'s slot holds "
                f"sequence {int(header[0])} tag {int(header[1])} — ranks diverged from "
                "the SPMD program",
                rank=self.rank,
                sequence=self._seq,
                tag=_TAG_CODES[tag],
                collective=tag,
            )
        ndim = int(header[3])
        if ndim == _NO_PAYLOAD:
            return None
        dtype = _CODE_DTYPES[int(header[2])]
        shape = tuple(int(s) for s in header[4 : 4 + ndim])
        view = np.ndarray(
            shape, dtype=dtype, buffer=self._shm.buf, offset=rank * self._slot_bytes + _HEADER_BYTES
        )
        return np.array(view, copy=True)

    def _wait(self) -> None:
        # multiprocessing.Barrier raises the threading module's
        # BrokenBarrierError on abort/timeout.
        try:
            self._barrier.wait(self._timeout)
        except threading.BrokenBarrierError as exc:
            raise CommAbortedError(
                f"rank {self.rank}: barrier broken (peer failure or >{self._timeout}s timeout)",
                rank=self.rank,
                sequence=self._seq if self._inflight is not None else None,
                tag=_TAG_CODES.get(self._inflight) if self._inflight is not None else None,
                collective=self._inflight,
            ) from exc

    def _exchange(self, tag: str, arr: Optional[np.ndarray]) -> List[Optional[np.ndarray]]:
        self._seq += 1
        self._inflight = tag
        self._post(tag, arr)
        self._wait()
        posts = [self._read(rank, tag) for rank in range(self._size)]
        return posts

    # ------------------------------------------------------------------ #
    # _CollectiveBody hooks: host arrays on the wire, private per-rank log
    # ------------------------------------------------------------------ #
    def _prepare(self, value: Array) -> np.ndarray:
        return np.ascontiguousarray(get_backend().to_numpy(value))

    def _ns(self):
        return np

    def _nbytes(self, arr: np.ndarray) -> int:
        return int(arr.nbytes)

    def _record(self, name: str, message_bytes: int) -> None:
        self._log.record(name, message_bytes)

    def _emit(self, result: np.ndarray) -> Array:
        return get_backend().asarray(result)

    def _finish(self) -> None:
        self._wait()

    def _prepare_pair(self, value: float, index: int) -> np.ndarray:
        return np.array([float(value), float(index)], dtype=np.float64)

    def _post_pair(self, post: np.ndarray) -> tuple:
        return (float(post[0]), int(post[1]))
