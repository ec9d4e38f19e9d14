"""Common interface and lifecycle protocol for batch selection strategies.

The active-learning drivers (the legacy :func:`repro.active.run_active_learning`
wrapper and the stateful :class:`repro.engine.ActiveSession`) treat every
method — Random, K-Means, Entropy, Exact-FIRAL, Approx-FIRAL — as a
:class:`SelectionStrategy`: given the current pool, the current classifier's
probabilities and the labeling budget, return the indices to label next.

Strategies additionally participate in a **session lifecycle** so that
methods with cross-round state (FIRAL's reused η, importance-weighted
pools) can persist it through a run:

* :meth:`SelectionStrategy.begin_session` — called once before the first
  round with a :class:`SessionInfo` carrying the session's requests to the
  strategy;
* :meth:`SelectionStrategy.select` — called once per round with a
  :class:`SelectionContext`, which carries the round's shapes and budget;
* :meth:`SelectionStrategy.observe_labels` — called after each round's oracle
  reveal with a :class:`LabelObservation`;
* :meth:`SelectionStrategy.state_dict` / :meth:`~SelectionStrategy.load_state_dict`
  — the cross-round state a checkpoint carries.

Every hook but ``select`` has a no-op default, so a stateless strategy
implements ``select`` alone.  The session engine accepts only
:class:`SelectionStrategy` subclasses.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.fisher.operators import FisherDataset
from repro.utils.random import as_generator
from repro.utils.validation import check_features, check_probabilities, require

__all__ = [
    "SelectionContext",
    "SelectionStrategy",
    "SessionInfo",
    "LabelObservation",
    "FIRALStrategy",
]


@dataclass
class SessionInfo:
    """The session's requests to a strategy, handed over at ``begin_session``.

    Shapes and the budget are not here: each round's
    :class:`SelectionContext` carries them.

    Attributes
    ----------
    reuse_eta:
        Whether the session asks FIRAL-style strategies to reuse the previous
        round's winning FTRL learning rate η instead of re-running the § IV-A
        grid search every round (see ``SessionConfig.reuse_eta``).
    parallel_ranks:
        When set, the session asks FIRAL-style strategies to execute their
        selection step (RELAX + ROUND) across this many ranks of the
        distributed solvers (see ``SessionConfig.parallel_ranks``).
        Strategies without a distributed formulation ignore it.
    parallel_transport:
        Transport for ``parallel_ranks``: ``"simulated"`` (threads) or
        ``"shared_memory"`` (real spawned OS processes).
    on_rank_failure:
        Session policy when a multi-rank selection loses a rank
        (``SessionConfig.on_rank_failure``): ``"abort"`` propagates the
        failure, ``"repartition_retry"`` asks FIRAL-style strategies to
        re-partition the pool over fewer ranks and re-run the round.
        Strategies without a distributed formulation ignore it.
    fault_plan:
        Optional :class:`~repro.parallel.faults.FaultPlan` the session
        injects into every multi-rank launch (chaos testing); ``None`` in
        production.
    """

    reuse_eta: bool = False
    parallel_ranks: Optional[int] = None
    parallel_transport: str = "simulated"
    on_rank_failure: str = "abort"
    fault_plan: Optional[object] = None


@dataclass
class LabelObservation:
    """What the oracle revealed after one round's selection.

    Attributes
    ----------
    round_index:
        0-based index of the round that just finished.
    pool_indices:
        The selected indices *as returned by the strategy* — positions in the
        pool view that round's :class:`SelectionContext` exposed.
    global_ids:
        Stable point ids of the same selection (ids never shift as the pool
        shrinks; see :class:`repro.engine.PoolStore`).  Empty when the
        driver does not track global ids.
    labels:
        The revealed labels, aligned with ``pool_indices``.
    """

    round_index: int
    pool_indices: np.ndarray
    global_ids: np.ndarray
    labels: np.ndarray


@dataclass
class SelectionContext:
    """Everything a selection strategy may consult in one round.

    Attributes
    ----------
    pool_features:
        Unlabeled candidate features ``X_u``, shape ``(n, d)``.
    pool_probabilities:
        Current classifier probabilities on the pool, shape ``(n, c)``.
    labeled_features:
        Already-labeled features ``X_o``, shape ``(m, d)``.
    labeled_probabilities:
        Current classifier probabilities on the labeled points, ``(m, c)``.
    budget:
        Number of points ``b`` to pick this round.
    rng:
        Generator for stochastic strategies (Random, K-Means init).
    pool_ids:
        Optional stable global ids of the pool rows (session engine only).
        ``pool_ids[i]`` identifies ``pool_features[i]`` across rounds even as
        the pool shrinks; stateful strategies use it to carry per-point state
        forward.
    round_index:
        Optional 0-based round counter (session engine only).
    shard_offsets:
        Optional pool-view partition boundaries by owning shard (length
        ``num_shards + 1``), present when the session's store is sharded.
        Rows ``shard_offsets[r] : shard_offsets[r + 1]`` of the pool view
        belong to shard ``r``; multi-rank FIRAL selection scatters along
        these boundaries instead of re-balancing the pool every round.
    candidate_ids:
        Optional sorted stable ids of this round's **candidate set** — the
        subset of ``pool_ids`` that survived the session's
        :class:`~repro.engine.prefilter.CandidateFilter`.  When present,
        strategies must score only the candidate rows
        (:meth:`candidate_positions` gives their pool-view positions) and
        still return *pool-view* indices, mapping candidate-local results
        back through those positions.  ``None`` means every pool row is a
        candidate (the exact path).
    """

    pool_features: np.ndarray
    pool_probabilities: np.ndarray
    labeled_features: np.ndarray
    labeled_probabilities: np.ndarray
    budget: int
    rng: np.random.Generator
    pool_ids: Optional[np.ndarray] = None
    round_index: Optional[int] = None
    shard_offsets: Optional[np.ndarray] = None
    candidate_ids: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.pool_features = check_features(self.pool_features, "pool_features")
        self.pool_probabilities = check_probabilities(self.pool_probabilities, name="pool_probabilities")
        self.labeled_features = check_features(self.labeled_features, "labeled_features")
        self.labeled_probabilities = check_probabilities(
            self.labeled_probabilities, name="labeled_probabilities"
        )
        require(self.budget > 0, "budget must be positive")
        require(
            self.budget <= self.pool_features.shape[0],
            "budget exceeds the number of pool points",
        )
        self.rng = as_generator(self.rng)
        if self.pool_ids is not None:
            self.pool_ids = np.asarray(self.pool_ids, dtype=np.int64).ravel()
            require(
                self.pool_ids.shape[0] == self.pool_features.shape[0],
                "pool_ids must have one id per pool point",
            )
        if self.shard_offsets is not None:
            self.shard_offsets = np.asarray(self.shard_offsets, dtype=np.int64).ravel()
            require(self.shard_offsets.shape[0] >= 2, "shard_offsets needs at least one shard")
            require(
                int(self.shard_offsets[0]) == 0
                and int(self.shard_offsets[-1]) == self.pool_features.shape[0]
                and bool(np.all(np.diff(self.shard_offsets) >= 0)),
                "shard_offsets must partition the pool view",
            )
        self._candidate_positions: Optional[np.ndarray] = None
        if self.candidate_ids is not None:
            require(
                self.pool_ids is not None,
                "candidate_ids requires pool_ids (session-engine contexts)",
            )
            require(
                bool(np.all(np.diff(self.pool_ids) > 0)),
                "candidate_ids requires sorted pool_ids (the position mapping "
                "uses binary search)",
            )
            self.candidate_ids = np.asarray(self.candidate_ids, dtype=np.int64).ravel()
            require(
                self.candidate_ids.size >= self.budget,
                "candidate set is smaller than the budget",
            )
            require(
                self.candidate_ids.size <= self.pool_ids.size,
                "candidate set is larger than the pool",
            )
            require(
                bool(np.all(np.diff(self.candidate_ids) > 0)),
                "candidate_ids must be sorted and unique",
            )
            positions = np.searchsorted(self.pool_ids, self.candidate_ids)
            require(
                bool(np.all(positions < self.pool_ids.size))
                and bool(np.all(self.pool_ids[positions] == self.candidate_ids)),
                "candidate_ids must be a subset of pool_ids",
            )
            self._candidate_positions = positions

    def candidate_positions(self) -> Optional[np.ndarray]:
        """Pool-view row positions of the candidate set (``None`` when unfiltered).

        Positions are sorted ascending (candidate ids are sorted and pool ids
        are kept sorted by the session engine), so for any candidate-local
        index array ``local``, ``positions[local]`` maps it back to pool-view
        indices while preserving relative order.
        """

        return self._candidate_positions

    def fisher_dataset(self) -> FisherDataset:
        """Bundle the context into the Fisher container FIRAL consumes.

        The full ``(n, c)`` probability matrices are converted to the
        paper's reduced ``(n, c-1)`` parameterization (Eq. 1), which removes
        the softmax null space and keeps ``Sigma_z`` well conditioned; when
        :attr:`candidate_ids` is present, only the candidate rows enter the
        pool side, so RELAX, the η grid search and ROUND all run on the
        restricted dataset and their indices are candidate-local.
        """

        from repro.models.softmax import reduced_probabilities

        pool_features = self.pool_features
        pool_probabilities = self.pool_probabilities
        if self._candidate_positions is not None:
            from repro.backend import get_backend

            idx = get_backend().from_host(self._candidate_positions)
            pool_features = pool_features[idx]
            pool_probabilities = pool_probabilities[idx]
        return FisherDataset(
            pool_features=pool_features,
            pool_probabilities=reduced_probabilities(pool_probabilities),
            labeled_features=self.labeled_features,
            labeled_probabilities=reduced_probabilities(self.labeled_probabilities),
        )


class SelectionStrategy(abc.ABC):
    """Base class for batch selection methods.

    Subclasses implement :meth:`select`; the lifecycle hooks
    :meth:`begin_session` / :meth:`observe_labels` default to no-ops so
    stateless strategies need not know sessions exist.
    """

    #: human-readable method name used in result tables / plots
    name: str = "strategy"

    #: whether repeated trials with different seeds give different selections
    is_stochastic: bool = False

    def begin_session(self, info: SessionInfo) -> None:
        """Lifecycle hook: a multi-round session is starting (no-op default)."""

    @abc.abstractmethod
    def select(self, context: SelectionContext) -> np.ndarray:
        """Return ``budget`` distinct pool indices to label next."""

    def observe_labels(self, observation: LabelObservation) -> None:
        """Lifecycle hook: the oracle revealed a round's labels (no-op default)."""

    def state_dict(self) -> dict:
        """JSON-serializable cross-round state for session checkpointing.

        Stateless strategies return ``{}`` (the default); stateful ones
        return everything :meth:`load_state_dict` needs to resume
        bit-identically mid-session.
        """

        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore cross-round state saved by :meth:`state_dict` (no-op default)."""

    def _validate_selection(self, indices: np.ndarray, context: SelectionContext) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64).ravel()
        require(indices.size == context.budget, "strategy returned the wrong number of indices")
        require(np.unique(indices).size == indices.size, "strategy returned duplicate indices")
        require(
            bool(np.all((indices >= 0) & (indices < context.pool_features.shape[0]))),
            "strategy returned out-of-range indices",
        )
        return indices


class FIRALStrategy(SelectionStrategy):
    """Adapter exposing ``ExactFIRAL`` / ``ApproxFIRAL`` as a strategy.

    The adapter is lifecycle-aware and reads its configuration once, from
    the :class:`SessionInfo` handed to :meth:`begin_session`; a bare
    ``select`` call outside any session runs serially and searches η every
    round.  Every round's RELAX starts from the uniform point, as
    Algorithm 2 prescribes.  The one piece of cross-round state is
    **η reuse** (``SessionInfo.reuse_eta``): the § IV-A grid search re-runs
    the ROUND solver for every candidate η *every round*, yet the winning η
    is a property of the problem scale and is stable across rounds; after
    the first round's full search, subsequent rounds reuse the winner (one
    ROUND solve instead of ``len(eta_grid)``).

    **Multi-rank execution** (``SessionInfo.parallel_ranks``): when the
    wrapped selector is an :class:`~repro.core.firal.ApproxFIRAL`, its
    RELAX + ROUND solves are routed through
    :class:`~repro.parallel.firal.DistributedApproxFIRAL` over that many
    ranks of ``SessionInfo.parallel_transport`` — threads (``"simulated"``)
    or real spawned OS processes (``"shared_memory"``), with
    ``SessionInfo.fault_plan`` injected into every launch.  Each rank runs
    the serial solvers' own loops over its pool shard, so one rank selects
    exactly what the serial selector does.  The wrapped selector's
    ``relax_config`` is normalized to ``track_objective="none"``, a fixed
    iteration budget, to keep the parallel sessions' probe stream (see
    :mod:`repro.parallel.firal`); Exact-FIRAL has no distributed
    formulation and is rejected at :meth:`begin_session`.  Under ``on_rank_failure="repartition_retry"`` a
    multi-rank round that loses a rank is re-run over the survivors: the
    pool is re-partitioned with the balanced split (the same fallback a
    dried-up shard takes) and the round replays deterministically — FIRAL's
    selection consumes no session RNG and is rank-count invariant, so the
    recovered round selects exactly what the failed one would have.
    Subsequent rounds stay at the reduced rank count (the dead rank does not
    come back); each recovery is appended to :attr:`recovery_events`.

    Under a **prefiltered session** (``SessionConfig.prefilter``) the round's
    :attr:`SelectionContext.candidate_ids` restricts the Fisher dataset to
    the candidate rows, so RELAX, the η grid search and ROUND all run at
    candidate scale; the solver's candidate-local selection is mapped back to
    pool-view indices, and shard scatter boundaries are translated to the
    candidate view.

    Parameters
    ----------
    selector:
        An object with a ``select(dataset, budget) -> SelectionResult``
        method and a ``name`` attribute (both FIRAL classes qualify).
    """

    is_stochastic = False

    def __init__(self, selector):
        require(hasattr(selector, "select"), "selector must expose a select() method")
        self.selector = selector
        self.name = getattr(selector, "name", "firal")
        self.last_result = None
        #: One dict per recovered rank failure (round-robin diagnostics):
        #: ``{"error", "failed_rank", "collective", "retry_ranks"}``.
        self.recovery_events: list = []
        self._info: Optional[SessionInfo] = None
        #: The multi-rank twin of ``selector``; ``None`` when selection is serial.
        self._distributed_selector = None
        self._previous_eta: Optional[float] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def begin_session(self, info: SessionInfo) -> None:
        self._info = info
        self._previous_eta = None
        self.last_result = None
        self.recovery_events = []
        # Built here, so a selector that cannot run distributed fails at
        # session start rather than in round N.
        self._distributed_selector = (
            None
            if info.parallel_ranks is None
            else self._build_distributed_selector(info.parallel_ranks)
        )

    def _build_distributed_selector(self, ranks: int):
        from repro.core.firal import ApproxFIRAL
        from repro.parallel.firal import DistributedApproxFIRAL

        require(
            isinstance(self.selector, ApproxFIRAL),
            "parallel_ranks requires an ApproxFIRAL selector — Exact-FIRAL has no "
            "distributed formulation (Table II restricts it to small problems)",
        )
        return DistributedApproxFIRAL(
            self.selector.relax_config,
            self.selector.round_config,
            num_ranks=int(ranks),
            transport=self._info.parallel_transport,
            fault_plan=self._info.fault_plan,
        )

    def _effective_selector(self):
        """The distributed selector when the session runs multi-rank, else the wrapped one."""

        if self._distributed_selector is None:
            return self.selector
        return self._distributed_selector

    def _select_with_recovery(self, selector, dataset, context: SelectionContext, kwargs):
        """Run the solver, re-partitioning over fewer ranks on rank failure.

        Deterministic by construction: FIRAL's selection step consumes no
        session RNG (RELAX probes come from ``RelaxConfig.seed``) and the
        distributed solvers are rank-count invariant (pinned by the parallel
        test suite), so replaying the round on the surviving ranks under the
        balanced split selects exactly the points the failed launch would
        have.  Ranks are retired one at a time — a fault plan pinned to a
        retired rank becomes inert, which is precisely how a real dead node
        behaves — until the round completes or one rank remains and still
        fails (then the last error propagates).
        """

        from repro.parallel.comm import CommError

        try:
            return selector.select(dataset, context.budget, **kwargs)
        except CommError as exc:
            if self._distributed_selector is None or self._info.on_rank_failure != "repartition_retry":
                raise
            last_error: CommError = exc
            ranks = self._distributed_selector.num_ranks
            while ranks > 1:
                ranks -= 1
                # A fresh selector carries no shard boundaries: the failed
                # launch's assumed the old rank count, and the survivors take
                # the balanced re-split (the same fallback an empty shard
                # takes).
                recovery = self._build_distributed_selector(ranks)
                try:
                    result = recovery.select(dataset, context.budget, **kwargs)
                except CommError as retry_error:
                    last_error = retry_error
                    continue
                self.recovery_events.append(
                    {
                        "round_index": context.round_index,
                        "error": type(last_error).__name__,
                        "failed_rank": last_error.rank,
                        "collective": last_error.collective,
                        "retry_ranks": ranks,
                    }
                )
                # The session continues degraded on the survivors.
                self._distributed_selector = recovery
                return result
            raise last_error

    # ------------------------------------------------------------------ #
    def select(self, context: SelectionContext) -> np.ndarray:
        dataset = context.fisher_dataset()
        candidate_positions = context.candidate_positions()
        reuse_eta = self._info is not None and self._info.reuse_eta
        kwargs = {}
        if reuse_eta and self._previous_eta is not None:
            kwargs["eta"] = self._previous_eta
        selector = self._effective_selector()
        if self._distributed_selector is not None:
            # Shard-aware scatter: a sharded store's session publishes the
            # round's ownership boundaries; the distributed selector splits
            # along them (None restores the balanced default).  Refreshed
            # every round — labeling shrinks shards unevenly, and a shard
            # that ran completely dry cannot be a rank (every rank must hold
            # at least one candidate for the local argmax), so the round
            # falls back to the balanced split until the pool is replenished.
            offsets = context.shard_offsets
            if offsets is not None and candidate_positions is not None:
                # The solvers see the candidate view, so the scatter
                # boundaries must be candidate-local.  Prefilters keep
                # candidates grouped by owning shard, so each pool-view
                # boundary maps to the count of candidates before it.
                offsets = np.searchsorted(candidate_positions, offsets)
            if offsets is not None and bool(np.any(np.diff(offsets) == 0)):
                offsets = None
            selector.partition_offsets = offsets
        result = self._select_with_recovery(selector, dataset, context, kwargs)
        self.last_result = result
        if reuse_eta:
            self._previous_eta = float(result.round.eta)
        selected = np.asarray(result.selected_indices, dtype=np.int64).ravel()
        if candidate_positions is not None:
            # The solvers returned candidate-local indices; map them back to
            # pool-view positions before validating against the full pool.
            selected = candidate_positions[selected]
        return self._validate_selection(selected, context)

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Cross-round state a checkpoint must carry to resume bit-identically.

        The reused η is the only state that changes which points later
        rounds select; diagnostics (``last_result``, ``recovery_events``)
        are deliberately not checkpointed.
        """

        state: dict = {}
        if self._previous_eta is not None:
            state["previous_eta"] = float(self._previous_eta)
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore checkpointed state — a *full* restore, not a merge.

        Keys absent from ``state`` reset the corresponding field: the
        session engine rolls a live strategy back to a pre-proposal
        boundary with this hook (``ActiveSession.invalidate_proposal``), so
        state acquired after the snapshot must not survive the load.
        """

        if state.get("previous_eta") is not None:
            self._previous_eta = float(state["previous_eta"])
        else:
            self._previous_eta = None
