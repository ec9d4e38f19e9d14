"""Candidate prefilters: sublinear scoring for large pools.

Every exact FIRAL round scores the *entire* pool with the fused Prop.-4
kernel, and RELAX mirror descent carries all ``n`` pool points through its
CG solves — at million-point pools that O(n)-per-step cost is the binding
one.  A **candidate prefilter** cuts it by mapping each round's pool to a
restricted candidate set *before* the exact solvers run: the session engine
evaluates the filter once per round, threads the surviving ids through
:attr:`repro.baselines.SelectionContext.candidate_ids`, and every strategy —
FIRAL (RELAX, the § IV-A η grid and ROUND all operate on the restricted
:class:`~repro.fisher.FisherDataset`) as well as the entropy / k-means /
random baselines — scores only the candidates, mapping its selection back to
stable pool ids.

Three filters ship here:

* :class:`RandomSubsampleFilter` — keep a per-round uniform subsample (the
  ``random_n`` candidate-sampling pattern of mclearn's ``active_learner``),
  drawn from the session's RNG spine so runs stay reproducible;
* :class:`DiversityFilter` — cluster the pool with the
  :func:`repro.baselines.kmeans` machinery and keep per-cluster quotas of
  centroid-nearest points, so the candidate set preserves the pool's
  geometric spread (the representative-subset construction of Pinsler et
  al.'s sparse-subset batch selection);
* :class:`TopKScoreFilter` — a cheap per-point gamma/leverage proxy (the
  trace of the point's block Fisher Hessian, computed from the same
  ``X``/``gammas`` inputs a :class:`~repro.core.approx_round.RoundPrecompute`
  promotes) evaluated in one vectorized pass, keeping the top scorers.

The shared contract, implemented once in :class:`CandidateFilter`:

* the keep count per segment is ``max(ceil(keep_ratio · n), min(n, budget))``
  — a filter can never starve the round's budget;
* **keep-everything settings are the identity**: when the resolved keep count
  covers the whole segment the filter returns every position *without
  consuming the RNG*, so a ``keep_ratio=1.0`` session is bit-identical to an
  unfiltered one (test-pinned for all five strategies, serial and
  multi-rank);
* **sharded pools filter per shard**: when the round's
  :attr:`~repro.baselines.SelectionContext.shard_offsets` are present, the
  filter runs independently on each shard's segment of the pool view, so
  every rank keeps its quota of candidates and the candidate view stays
  grouped by owning shard — the multi-rank scatter follows the same
  ownership boundaries it would without filtering.

The accuracy-vs-speed trade is *measured*, not assumed:
``benchmarks/bench_prefilter.py`` sweeps keep-ratio × filter kind and
commits the frontier as ``BENCH_prefilter_frontier.json``.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

import numpy as np

from repro.baselines.kmeans import _pairwise_sq_distances, kmeans
from repro.models.softmax import reduced_probabilities
from repro.utils.random import as_generator
from repro.utils.validation import require

__all__ = [
    "CandidateFilter",
    "RandomSubsampleFilter",
    "DiversityFilter",
    "TopKScoreFilter",
    "make_prefilter",
    "PREFILTER_KINDS",
]


class CandidateFilter(abc.ABC):
    """Protocol for per-round candidate restriction.

    Subclasses implement :meth:`_filter_segment` over one contiguous segment
    of the pool view; the base class owns everything shape-related — the
    keep-count floors, the per-shard segmentation, keep-everything
    short-circuiting, output validation and the mapping to stable global
    ids — so every implementation automatically honors the session contract.

    Parameters
    ----------
    keep_ratio:
        Fraction of each segment to keep, in ``(0, 1]``.  The resolved count
        is floored at the round's budget (a filter can never make the round
        infeasible) and ``1.0`` short-circuits to the identity without
        consuming the RNG.
    """

    #: Filter kind, recorded in session checkpoints (:meth:`fingerprint`).
    name: str = "prefilter"

    def __init__(self, keep_ratio: float):
        require(0.0 < keep_ratio <= 1.0, "keep_ratio must be in (0, 1]")
        self.keep_ratio = float(keep_ratio)

    def fingerprint(self) -> dict:
        """The kind and every constructor parameter, JSON-safe.

        A session checkpoint records it and resume refuses a filter whose
        fingerprint differs, since any parameter changes the candidate set.
        A subclass with more constructor parameters adds them here.
        """

        return {"kind": self.name, "keep_ratio": self.keep_ratio}

    # ------------------------------------------------------------------ #
    # shared machinery
    # ------------------------------------------------------------------ #
    def keep_count(self, segment_size: int, budget: int) -> int:
        """Resolved keep count for one segment: ratio-scaled, budget-floored."""

        keep = int(math.ceil(self.keep_ratio * segment_size))
        return min(max(keep, min(segment_size, budget), 1), segment_size)

    def select_candidates(self, context, rng) -> np.ndarray:
        """Map one round's :class:`~repro.baselines.SelectionContext` to
        candidate pool ids.

        Returns the sorted stable global ids of the surviving candidates (a
        subset of ``context.pool_ids``).  When ``context.shard_offsets`` is
        present the filter runs per shard segment, so each shard keeps its
        own quota and the candidate view stays grouped by owner.
        """

        require(
            context.pool_ids is not None,
            "candidate prefilters need stable pool ids (session-engine contexts)",
        )
        gen = as_generator(rng)
        n = int(context.pool_features.shape[0])
        bounds = (
            np.asarray([0, n], dtype=np.int64)
            if context.shard_offsets is None
            else np.asarray(context.shard_offsets, dtype=np.int64)
        )
        pieces = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            lo, hi = int(lo), int(hi)
            if hi == lo:  # a shard that ran dry contributes no candidates
                continue
            segment = hi - lo
            keep = self.keep_count(segment, context.budget)
            if keep >= segment:
                # Keep-everything: the identity, with no RNG consumption, so
                # ratio-1.0 sessions stay bit-identical to unfiltered ones.
                local = np.arange(segment, dtype=np.int64)
            else:
                local = np.asarray(
                    self._filter_segment(
                        context.pool_features[lo:hi],
                        context.pool_probabilities[lo:hi],
                        keep,
                        gen,
                    ),
                    dtype=np.int64,
                ).ravel()
                require(
                    local.size == keep,
                    f"'{self.name}' prefilter returned {local.size} candidates, expected {keep}",
                )
                require(
                    bool(np.all((local >= 0) & (local < segment))),
                    f"'{self.name}' prefilter returned out-of-segment positions",
                )
                require(
                    np.unique(local).size == local.size,
                    f"'{self.name}' prefilter returned duplicate positions",
                )
                local = np.sort(local)
            pieces.append(lo + local)
        positions = (
            np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        )
        require(positions.size >= context.budget, "prefilter kept fewer candidates than the budget")
        return np.asarray(context.pool_ids, dtype=np.int64)[positions]

    @abc.abstractmethod
    def _filter_segment(self, features, probabilities, keep: int, rng) -> np.ndarray:
        """Return ``keep`` distinct positions into one pool-view segment.

        ``features`` / ``probabilities`` are the segment's rows of the pool
        view; ``keep < len(features)`` is guaranteed (keep-everything never
        reaches here).  Order is irrelevant — the base class sorts.
        """


class RandomSubsampleFilter(CandidateFilter):
    """Uniform per-round subsampling (mclearn's ``random_n`` pattern).

    The cheapest filter: O(keep) per round, no feature access.  Statistically
    it is an unbiased restriction of the pool — every point is a candidate
    with equal probability each round, so across rounds the whole pool stays
    reachable (the importance-weighting view of UPAL with uniform weights).
    """

    name = "random"

    def _filter_segment(self, features, probabilities, keep: int, rng) -> np.ndarray:
        return rng.choice(int(features.shape[0]), size=keep, replace=False)


class DiversityFilter(CandidateFilter):
    """Keep per-cluster quotas of centroid-nearest points.

    Clusters each segment with the from-scratch Lloyd's implementation of
    :mod:`repro.baselines.kmeans` and keeps, from every cluster, a quota of
    its centroid-nearest members proportional to the cluster's size (largest
    remainder apportionment, capped at the cluster's population).  The
    candidate set therefore preserves the pool's geometric spread instead of
    thinning dense regions uniformly.

    Parameters
    ----------
    keep_ratio:
        As for :class:`CandidateFilter`.
    num_clusters:
        Cluster count per segment (capped at the segment's size and at the
        keep count).  Small values keep the filter cheap: the Lloyd cost is
        ``O(n · num_clusters · d · max_iterations)``, far below the
        ``O(b n c d^2)`` exact scoring it displaces.
    max_iterations:
        Lloyd iteration cap for the filter's clustering pass.
    """

    name = "diversity"

    def __init__(self, keep_ratio: float, *, num_clusters: int = 16, max_iterations: int = 10):
        super().__init__(keep_ratio)
        require(num_clusters > 0, "num_clusters must be positive")
        require(max_iterations > 0, "max_iterations must be positive")
        self.num_clusters = int(num_clusters)
        self.max_iterations = int(max_iterations)

    def fingerprint(self) -> dict:
        return {
            **super().fingerprint(),
            "num_clusters": self.num_clusters,
            "max_iterations": self.max_iterations,
        }

    def _filter_segment(self, features, probabilities, keep: int, rng) -> np.ndarray:
        X = np.asarray(features, dtype=np.float64)
        n = X.shape[0]
        k = min(self.num_clusters, n, keep)
        result = kmeans(X, k, rng=rng, max_iterations=self.max_iterations)
        distances = _pairwise_sq_distances(X, result.centroids)
        sizes = np.bincount(result.labels, minlength=k)

        # Largest-remainder apportionment of `keep` over clusters, capped at
        # each cluster's population (sum(sizes) = n > keep, so it terminates).
        raw = keep * sizes / n
        quotas = np.minimum(np.floor(raw).astype(np.int64), sizes)
        order = np.argsort(-(raw - np.floor(raw)), kind="stable")
        remaining = keep - int(quotas.sum())
        while remaining > 0:
            for j in order:
                if remaining == 0:
                    break
                if quotas[j] < sizes[j]:
                    quotas[j] += 1
                    remaining -= 1

        picks = []
        for j in range(k):
            if quotas[j] == 0:
                continue
            members = np.flatnonzero(result.labels == j)
            nearest = np.argsort(distances[members, j], kind="stable")[: quotas[j]]
            picks.append(members[nearest])
        return np.concatenate(picks)


class TopKScoreFilter(CandidateFilter):
    """Cheap-score shortlist: top-``k`` by a gamma/leverage proxy.

    The proxy is the trace of each point's block Fisher Hessian,

        s_i = sum_k gamma_ik · ||x_i||^2,   gamma_ik = h_i^k (1 - h_i^k)

    — exactly the ``gammas`` a :class:`~repro.core.approx_round.RoundPrecompute`
    promotes for the Prop.-4 kernel contracted with the points' squared
    leverage, computed in one vectorized pass over the segment.  Points whose
    rank-one updates can barely move any ``B_t`` score near zero and are
    dropped before the exact solvers ever see them.  Deterministic: the RNG
    is never consumed.
    """

    name = "topk"

    def _filter_segment(self, features, probabilities, keep: int, rng) -> np.ndarray:
        X = np.asarray(features, dtype=np.float64)
        reduced = reduced_probabilities(np.asarray(probabilities, dtype=np.float64))
        gammas = reduced * (1.0 - reduced)
        scores = gammas.sum(axis=1) * np.einsum("nd,nd->n", X, X)
        return np.argsort(-scores, kind="stable")[:keep]


#: CLI-facing filter kinds (``make_prefilter``, ``--prefilter`` flags).
PREFILTER_KINDS = ("random", "diversity", "topk")


def make_prefilter(kind: Optional[str], keep_ratio: float, **kwargs) -> Optional[CandidateFilter]:
    """Build a filter by kind name (``None``/``"none"`` → no filtering)."""

    if kind is None or kind == "none":
        return None
    require(kind in PREFILTER_KINDS, f"unknown prefilter '{kind}'; use one of {PREFILTER_KINDS}")
    cls = {
        "random": RandomSubsampleFilter,
        "diversity": DiversityFilter,
        "topk": TopKScoreFilter,
    }[kind]
    return cls(keep_ratio, **kwargs)
