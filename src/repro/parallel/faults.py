"""Deterministic fault injection for the SPMD transports.

A fleet that serves millions of users will lose ranks — processes are OOM
killed, nodes reboot, networks partition.  Reproducing those failures in CI
without real hardware needs a harness that makes a *chosen* rank fail at a
*chosen* point of the collective schedule, identically on every run:

* :class:`FaultPlan` — the declarative description of one injected fault:
  which rank, at which collective call, in which mode (``kill`` the rank,
  ``delay`` it, or ``drop`` the collective), optionally restricted to one
  collective name and one launch attempt.
* :class:`FaultInjectingComm` — a :class:`~repro.parallel.comm.Comm` wrapper
  that counts this rank's collective calls and fires the plan at the
  trigger.  It wraps *any* transport (``SimulatedComm`` and
  ``SharedMemoryComm`` alike), so every failure mode runs under threads in
  tier-1 CI and under real OS processes in the chaos lane.
* :class:`FaultInjectingEntry` — a picklable entry-point wrapper for
  :func:`~repro.parallel.launcher.run_spmd`, so the spawn transport can ship
  the plan into rank processes.

Failure semantics by mode:

``kill``
    Raises :class:`InjectedFaultError` (a
    :class:`~repro.parallel.launcher.RankFailedError`) from inside the rank
    body, exactly where a hard crash would unwind.  The launcher's normal
    error path takes over: peers abort at the barrier with
    ``CommAbortedError`` and the root cause propagates to the caller.
``delay``
    Sleeps ``delay_seconds`` before the collective proceeds — a straggler,
    not a failure.  The run completes with identical results; only timing
    changes.
``drop``
    Skips the collective on the planned rank and returns its *local*
    contribution (a self-echo), modelling a lost message.  The dropped rank
    immediately falls one collective behind its peers, so the next
    mismatched rendezvous raises ``CommProtocolError`` / ``CommAbortedError``
    deterministically instead of reducing garbage.

Plans gated on ``attempt`` model *transient* faults: with
``FaultPlan(..., attempt=0)`` the fault fires on the first launch only, so
``run_spmd(..., max_retries=1)`` fails once, relaunches, and succeeds — the
recovery path the session-level ``repartition_retry`` policy builds on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.backend import Array
from repro.parallel.comm import Comm, CommunicationLog, _TAG_CODES
from repro.parallel.launcher import RankFailedError
from repro.utils.validation import require

__all__ = [
    "FAULT_MODES",
    "FaultInjectingComm",
    "FaultInjectingEntry",
    "FaultPlan",
    "InjectedFaultError",
]

FAULT_MODES = ("kill", "delay", "drop")


class InjectedFaultError(RankFailedError):
    """A :class:`FaultPlan` fired in ``kill`` mode on this rank.

    Subclasses :class:`~repro.parallel.launcher.RankFailedError`, so every
    recovery path (launcher retry, session ``repartition_retry``) treats an
    injected death exactly like a real one — that equivalence is the point
    of the harness.
    """


@dataclass(frozen=True)
class FaultPlan:
    """One reproducible fault: ``rank`` fails at its ``at_call``-th collective.

    Parameters
    ----------
    rank:
        The rank the fault fires on.  A plan naming a rank outside the
        communicator is inert — deliberately, so a recovery policy that
        re-runs with fewer ranks neutralizes a plan that killed the last one.
    at_call:
        1-based count of *matching* collective calls on ``rank`` before the
        fault fires (``collective=None`` counts every collective).
    mode:
        ``"kill"``, ``"delay"`` or ``"drop"`` (see module docstring).
    collective:
        Restrict counting to one collective name (``"allreduce"``,
        ``"allgather"``, ``"bcast"``, ``"argmax_allreduce"``, ``"barrier"``);
        ``None`` counts them all.
    delay_seconds:
        Straggler sleep for ``mode="delay"``.
    attempt:
        Fire only on this zero-based :func:`run_spmd` launch attempt, read
        from the wrapped communicator's ``attempt`` (transient fault);
        ``None`` fires on every attempt (permanent fault).
    """

    rank: int
    at_call: int = 1
    mode: str = "kill"
    collective: Optional[str] = None
    delay_seconds: float = 0.05
    attempt: Optional[int] = None

    def __post_init__(self) -> None:
        require(self.rank >= 0, "fault plan rank must be non-negative")
        require(self.at_call >= 1, "at_call is a 1-based collective count")
        require(self.mode in FAULT_MODES, f"mode must be one of {FAULT_MODES}")
        require(
            self.collective is None or self.collective in _TAG_CODES,
            f"collective must be one of {tuple(_TAG_CODES)} or None",
        )
        require(self.delay_seconds >= 0, "delay_seconds must be non-negative")
        require(self.attempt is None or self.attempt >= 0, "attempt is zero-based")

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "at_call": self.at_call,
            "mode": self.mode,
            "collective": self.collective,
            "delay_seconds": self.delay_seconds,
            "attempt": self.attempt,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(**payload)


class FaultInjectingComm:
    """A :class:`Comm` that fires a :class:`FaultPlan` at the planned call.

    Pure delegation apart from the injection check, so the byte-accounting,
    reduction semantics and communication log of the wrapped transport are
    untouched — a run whose plan never fires is indistinguishable from an
    unwrapped run.
    """

    def __init__(self, inner: Comm, plan: FaultPlan):
        self._inner = inner
        self._plan = plan
        self._matching_calls = 0
        self.rank = inner.rank
        self.attempt = inner.attempt

    @property
    def size(self) -> int:
        return self._inner.size

    @property
    def log(self) -> CommunicationLog:
        return self._inner.log

    def abort(self) -> None:
        aborter = getattr(self._inner, "abort", None)
        if aborter is not None:
            aborter()

    def close(self) -> None:
        closer = getattr(self._inner, "close", None)
        if closer is not None:
            closer()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultInjectingComm({self._inner!r}, plan={self._plan})"

    # ------------------------------------------------------------------ #
    def _should_drop(self, collective: str) -> bool:
        """Count a matching call; fire the plan at the trigger.

        Returns True when the collective must be dropped; raises for
        ``kill``; sleeps for ``delay``.
        """

        plan = self._plan
        if self.rank != plan.rank:
            return False
        if plan.collective is not None and collective != plan.collective:
            return False
        if plan.attempt is not None and self.attempt != plan.attempt:
            return False
        self._matching_calls += 1
        if self._matching_calls != plan.at_call:
            return False
        if plan.mode == "kill":
            raise InjectedFaultError(
                self.rank,
                f"injected fault: killed at {collective} call #{plan.at_call}",
                sequence=self._matching_calls,
                tag=_TAG_CODES.get(collective),
                collective=collective,
            )
        if plan.mode == "delay":
            time.sleep(plan.delay_seconds)
            return False
        return True

    # ------------------------------------------------------------------ #
    # the five collectives
    # ------------------------------------------------------------------ #
    def allreduce(self, value: Array, op: str = "sum") -> Array:
        if self._should_drop("allreduce"):
            return value
        return self._inner.allreduce(value, op)

    def allgather(self, value: Array) -> Array:
        if self._should_drop("allgather"):
            return value
        return self._inner.allgather(value)

    def bcast(self, value: Optional[Array] = None, root: int = 0) -> Array:
        if self._should_drop("bcast"):
            return value
        return self._inner.bcast(value, root)

    def argmax_allreduce(self, value: float, index: int) -> Tuple[int, int, float]:
        if self._should_drop("argmax_allreduce"):
            return self.rank, int(index), float(value)
        return self._inner.argmax_allreduce(value, index)

    def barrier(self) -> None:
        if self._should_drop("barrier"):
            return
        self._inner.barrier()


class FaultInjectingEntry:
    """Picklable wrapper: run ``entry`` with its comm wrapped for injection.

    ``run_spmd``'s spawn transport pickles the entry point into rank
    processes, so this is a module-level class holding only picklable state
    (the entry function and the frozen plan) rather than a closure.
    """

    def __init__(self, entry, plan: FaultPlan):
        self.entry = entry
        self.plan = plan

    def __call__(self, comm: Comm, args: Any) -> Any:
        return self.entry(FaultInjectingComm(comm, self.plan), args)
