"""Stateful selection engine: cross-round state for active-learning runs.

The paper's experiments run FIRAL for many consecutive rounds over the same
pool; this package makes the *round loop* a first-class object instead of a
script that rebuilds everything each round.  :class:`ActiveSession` owns the
run's state — stable point ids with mask-based pool membership
(:class:`PoolStore`), the RNG stream, and strategy state such as a reused
η — and threads it to strategies through the lifecycle protocol of
:mod:`repro.baselines.base`.  Each round's selection is Algorithm 2 as
written: ``H_o`` under the current classifier, RELAX from the uniform
point.  The legacy :func:`repro.active.run_active_learning` API is a thin
wrapper over a session and reproduces its historical results
bit-identically on the NumPy backend.

Point storage is **pluggable** behind the :class:`PoolStore` protocol
(stable global ids, mask membership, host views, ``label()``, and
``extend()`` for pool-replenishment workloads):
:class:`DensePointStore` is the monolithic in-memory store (the historical
single-array behavior, bit-identical and test-pinned),
:class:`ShardedPointStore` partitions the pool id range into per-rank
contiguous shards feeding the distributed solvers' shard-aware scatter, and
:class:`MmapPointStore` keeps the master on disk (chunked gathers,
streamed scoring) for pools larger than host RAM — none of which
require strategy or solver changes (``SessionConfig.store`` selects the
implementation).  A serving workload holds one long-lived session per model.

Candidate scoring is likewise pluggable: a
:class:`CandidateFilter` (``SessionConfig.prefilter``) restricts each
round's pool view to a candidate subset *before* the exact solvers run —
random subsampling, k-means diversity quotas, or a cheap-score top-k
shortlist — cutting the O(n)-per-round RELAX/ROUND cost to the keep ratio
(see :mod:`repro.engine.prefilter` and ``benchmarks/bench_prefilter.py``).
"""

from repro.engine.pool import DensePointStore, PoolStore
from repro.engine.prefilter import (
    CandidateFilter,
    DiversityFilter,
    RandomSubsampleFilter,
    TopKScoreFilter,
    make_prefilter,
)
from repro.engine.session import ActiveSession, QueryProposal, SessionConfig
from repro.engine.stores import MmapPointStore, ShardedPointStore

#: The curated public surface of the engine layer.
__all__ = [
    "ActiveSession",
    "SessionConfig",
    "QueryProposal",
    "PoolStore",
    "DensePointStore",
    "MmapPointStore",
    "ShardedPointStore",
    "CandidateFilter",
    "RandomSubsampleFilter",
    "DiversityFilter",
    "TopKScoreFilter",
    "make_prefilter",
]

