"""The one-rank communicator: serial solvers as the ``p = 1`` SPMD case.

§ III-C writes Algorithms 2 and 3 as SPMD programs over ``p`` ranks.  The
solver loops in :mod:`repro.core.approx_relax` and
:mod:`repro.core.approx_round` are those programs, written against the
collectives they call.  The serial solvers pass :data:`ONE_RANK`, whose
collectives return their input; the rank programs of :mod:`repro.parallel`
pass a real :class:`~repro.parallel.comm.Comm`.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.utils.validation import require

__all__ = ["ONE_RANK", "OneRank", "block_partition"]


class OneRank:
    """A communicator of one rank: every collective returns its input."""

    rank = 0
    size = 1

    def allreduce(self, value, op: str = "sum"):
        return value

    def bcast(self, value=None, root: int = 0):
        return value

    def allgather(self, value):
        return value

    def argmax_allreduce(self, value: float, index: int) -> Tuple[int, int, float]:
        return 0, int(index), float(value)


#: The communicator the serial solvers run their loops with.
ONE_RANK = OneRank()


def block_partition(total: int, num_parts: int) -> List[slice]:
    """Contiguous, balanced partition of ``range(total)`` into ``num_parts`` slices.

    Sizes differ by at most one; empty slices are allowed when
    ``num_parts > total`` (a rank can own zero class blocks, as happens for
    CIFAR-10's 10 classes on 12 GPUs).
    """

    require(total >= 0, "total must be non-negative")
    require(num_parts > 0, "num_parts must be positive")
    base = total // num_parts
    remainder = total % num_parts
    slices = []
    start = 0
    for part in range(num_parts):
        size = base + (1 if part < remainder else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices
