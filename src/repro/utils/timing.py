"""Lightweight timers for the performance experiments.

The paper's single-GPU (Fig. 5) and scaling (Figs. 6-7) studies break the
RELAX and ROUND solves into named components (preconditioner setup, CG,
gradient, eigenvalues, objective, MPI communication, other).  The
:class:`TimingBreakdown` here accumulates wall-clock time per component so
the benchmark harness can print the same rows the paper plots.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

__all__ = ["Timer", "TimingBreakdown", "timed_region"]


@dataclass
class Timer:
    """A resettable stopwatch accumulating elapsed seconds."""

    elapsed: float = 0.0
    _started: float | None = None

    def start(self) -> "Timer":
        if self._started is not None:
            raise RuntimeError("Timer already running")
        self._started = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started is None:
            raise RuntimeError("Timer not running")
        self.elapsed += time.perf_counter() - self._started
        self._started = None
        return self.elapsed

    def reset(self) -> None:
        self.elapsed = 0.0
        self._started = None

    @contextmanager
    def measure(self) -> Iterator["Timer"]:
        self.start()
        try:
            yield self
        finally:
            self.stop()


@dataclass
class TimingBreakdown:
    """Accumulates wall-clock time under named components.

    The component names mirror the legend labels of Figs. 5-7 in the paper:
    ``"setup_preconditioner"``, ``"cg"``, ``"gradient"``, ``"communication"``,
    ``"eigenvalues"``, ``"objective"`` and ``"other"``.  Time spent inside
    :meth:`excluded` (a collective of an SPMD solver) counts toward no
    component, even when an enclosing :meth:`region` is open.
    """

    components: Dict[str, float] = field(default_factory=dict)
    _excluded: float = field(default=0.0, repr=False, compare=False)

    def add(self, name: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("elapsed time must be non-negative")
        self.components[name] = self.components.get(name, 0.0) + seconds

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        excluded_before = self._excluded
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start - (self._excluded - excluded_before)
            self.add(name, max(elapsed, 0.0))

    @contextmanager
    def excluded(self) -> Iterator[None]:
        """Keep the enclosed span out of every region open around it."""

        start = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - start

    def total(self) -> float:
        return float(sum(self.components.values()))

    def get(self, name: str) -> float:
        return float(self.components.get(name, 0.0))

    def merge(self, other: "TimingBreakdown") -> "TimingBreakdown":
        merged = TimingBreakdown(dict(self.components))
        for key, value in other.components.items():
            merged.add(key, value)
        return merged

    def as_dict(self) -> Dict[str, float]:
        return dict(self.components)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v:.4f}s" for k, v in sorted(self.components.items()))
        return f"TimingBreakdown({parts}, total={self.total():.4f}s)"


@contextmanager
def timed_region(breakdown: TimingBreakdown | None, name: str) -> Iterator[None]:
    """Time a region into ``breakdown`` if provided, else run untimed.

    Solver inner loops accept an optional breakdown; passing ``None`` keeps
    the hot path free of bookkeeping overhead.
    """

    if breakdown is None:
        yield
        return
    with breakdown.region(name):
        yield
