"""Stateful active-learning session engine.

:class:`ActiveSession` owns the experiment state for an entire multi-round
run — the protocol of § IV-A (Figs. 2–3), but with the cross-round redundancy
of the legacy driver removed:

* points live in a pluggable :class:`~repro.engine.pool.PoolStore` with
  stable global ids and mask-based pool membership — no per-round
  ``concatenate`` / boolean-copy churn.  The default
  :class:`~repro.engine.pool.DensePointStore` is the historical behavior;
  ``SessionConfig.store`` swaps in a
  :class:`~repro.engine.stores.ShardedPointStore` (per-rank id shards
  feeding the multi-rank scatter) or a
  :class:`~repro.engine.stores.MmapPointStore` (master on disk) without
  touching strategies or solvers, and :meth:`ActiveSession.extend_pool`
  replenishes an unsharded pool between rounds;
* the § IV-A η grid search can reuse the previous round's winner instead
  of re-running every ROUND solve (threaded through the strategy lifecycle
  protocol of :mod:`repro.baselines.base`).

Every round runs Algorithm 2 as written: ``H_o`` is recomputed under the
current classifier and RELAX starts from the uniform point.  All mechanisms
are **opt-in** through :class:`SessionConfig`.  With the default
configuration the session reproduces the legacy
:func:`repro.active.run_active_learning` loop bit-identically on the NumPy
backend (test-pinned in ``tests/test_engine_session.py``) — the legacy
function is now a thin wrapper over this class.

The half-round protocol
-----------------------
A selection round decomposes into two halves with a natural wait in the
middle: the engine *proposes* a query set, an oracle labels it (a human, a
remote service, or the prefilled synthetic labels), and the engine
*observes* the labels.  :meth:`ActiveSession.propose` runs the first half
and returns a :class:`QueryProposal`; :meth:`ActiveSession.observe`
consumes the pending proposal — with the store's built-in oracle labels by
default, or with externally supplied ones — and completes the round.
:meth:`ActiveSession.step` is kept as the bit-identical composition of the
two (``propose(); observe()``), so synchronous drivers are untouched while
a serving layer (:mod:`repro.serve`) can hold a proposal open for as long
as a remote labeler needs.

The round state
---------------
What :meth:`ActiveSession.propose` changes before a round commits is one
immutable :class:`RoundState`: the RNG bit-generator state (the prefilter
and stochastic strategies draw from it) and the strategy's
``state_dict()``.  ``propose()`` captures it on entry and keeps it with
the pending proposal.  A ``propose()`` that raises restores it, so a
retry — synchronous or eager — selects what an uninterrupted run
selects.  :meth:`ActiveSession.invalidate_proposal` restores it.  A
checkpoint writes it (plus a ``pending_proposal`` marker while a proposal
is open) and :meth:`ActiveSession.resume` restores it, surfacing the
marker as :attr:`ActiveSession.invalidated_proposal` — the proposal is
invalidated, never silently dropped, and re-calling :meth:`propose`
replays it bit-identically (unless the pool was extended first, in which
case the replay legitimately sees the new points).

Eager proposal pipelining
-------------------------
In a live labeling loop the wall-clock between ``observe()`` committing one
round and the client requesting the next proposal is dead time — the
seconds-to-minutes a human or model labeler is busy elsewhere — while the
next ``propose()`` pays the full η-search + ROUND selection cost on the
client's critical path.  :meth:`ActiveSession.prefetch_proposal` hides that
latency: called at a round boundary with an executor, it kicks off the
*exact* :meth:`propose` computation on a background thread, and the next
:meth:`propose` call joins and **adopts** the precomputed
:class:`QueryProposal` instead of recomputing — near-zero client-observed
latency once the background selection has landed.  Because the background
job *is* the synchronous ``propose()`` body, run from the same round state
(and restoring it on failure), the adopted proposal is **bit-identical** to
what a synchronous ``propose()`` would have returned (test-pinned for every
strategy in ``tests/test_engine_prefetch.py``).

The prefetch is speculative, so every state change that could invalidate
it cancels it transparently rather than serving a stale proposal:
:meth:`extend_pool` joins the job and restores its round state before
growing the pool; :meth:`invalidate_proposal` claims and discards the
prefetched proposal; :meth:`checkpoint` quiesces the job and writes it like
any open proposal, so it restores *invalidated-and-surfaced*.
An unclaimed prefetch is invisible to the protocol: ``pending_proposal``
stays ``None`` and ``observe()`` still demands a surfaced proposal.  The
session remains externally single-threaded — callers (the serving layer's
per-session lock) must not run session methods concurrently; the prefetch
handshake is the one sanctioned background mutation, and it is always
joined before any other state moves.

Numerics of the opt-in modes
----------------------------
``reuse_eta`` skips the η grid after round 1, so later rounds run with the
first winner rather than a per-round re-search (η is a property of the
problem scale and is stable in practice; the benchmark records both
accuracy curves).  It is off by default, with the measurement documented
in ``benchmarks/bench_active_rounds.py``.
"""

from __future__ import annotations

import copy
import pathlib
import time
from concurrent import futures
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from repro.active.problem import ActiveLearningProblem
from repro.active.results import ExperimentResult, RoundRecord
from repro.baselines.base import (
    LabelObservation,
    SelectionContext,
    SelectionStrategy,
    SessionInfo,
    check_selection,
)
from repro.engine.pool import DensePointStore, PoolStore
from repro.engine.prefilter import CandidateFilter
from repro.models.logistic_regression import LogisticRegressionClassifier
from repro.models.metrics import accuracy, class_balanced_accuracy
from repro.utils.io import atomic_write_json, read_json
from repro.utils.random import as_generator
from repro.utils.validation import check_features, check_labels, check_positive_int, require

__all__ = ["SessionConfig", "ActiveSession", "QueryProposal"]

#: Transports :class:`SessionConfig.parallel_transport` accepts (see
#: :mod:`repro.parallel.launcher`).
VALID_TRANSPORTS = ("simulated", "shared_memory")


@dataclass(frozen=True)
class QueryProposal:
    """One proposed query set — the first half of a selection round.

    Returned by :meth:`ActiveSession.propose` and held open until
    :meth:`ActiveSession.observe` completes the round.  The proposal is a
    value object: mutating the session (extending the pool, observing) while
    it is pending is either forbidden or invalidates it explicitly.

    Attributes
    ----------
    round_index:
        0-based index of the round this proposal belongs to (the round is
        not counted complete until ``observe``).
    pool_indices:
        The strategy's selection as positions in the round's full pool view,
        in selection order (under a prefilter, the strategy's
        candidate-local answer mapped back).
    global_ids:
        Stable point ids of the same selection (what an external labeler
        should key its labels by).
    num_labeled:
        Labeled-set size at proposal time (before these points are labeled).
    budget:
        Number of points proposed (``len(global_ids)``).
    setup_seconds / selection_seconds:
        The round's driver-side setup cost and the strategy's ``select``
        wall clock, carried into the eventual
        :class:`~repro.active.results.RoundRecord`.
    """

    round_index: int
    pool_indices: np.ndarray
    global_ids: np.ndarray
    num_labeled: int
    budget: int
    setup_seconds: float
    selection_seconds: float


@dataclass
class SessionConfig:
    """Cross-round optimization switches for :class:`ActiveSession`.

    Parameters
    ----------
    reuse_eta:
        Ask FIRAL-style strategies (via ``SessionInfo.reuse_eta``) to reuse
        the previous round's winning FTRL learning rate η instead of
        re-running the § IV-A grid search every round — one ROUND solve per
        round instead of ``len(eta_grid)`` after the first.
    parallel_ranks:
        Run FIRAL-style strategies' selection step (RELAX + ROUND) across
        this many ranks of the distributed solvers every round.  With
        ``parallel_transport="shared_memory"`` each rank is a real spawned
        OS process holding one pool shard, communicating over
        ``multiprocessing.shared_memory`` — the whole session's selection
        work executes across processes while the engine, oracle loop and
        classifier stay in this one.  The multi-rank selector runs RELAX
        with a fixed iteration budget (``track_objective="none"``; see
        :mod:`repro.parallel.firal`), so configure the serial comparison the
        same way when pinning equivalence.  Non-FIRAL strategies ignore the
        request.
    parallel_transport:
        ``"simulated"`` (ranks as threads, default) or ``"shared_memory"``
        (ranks as real OS processes); only read when ``parallel_ranks``
        is set.
    store:
        Which :class:`~repro.engine.PoolStore` implementation holds the
        session's points.  ``None`` (default) builds a
        :class:`~repro.engine.DensePointStore` — the historical, test-pinned
        behavior.  Otherwise a factory ``problem -> PoolStore`` (e.g.
        ``ShardedPointStore.factory(num_shards=4)`` or
        ``MmapPointStore.factory(chunk_rows=4096)``) or an already-built
        store instance matching the problem.  Strategies and solvers are
        store-agnostic; a sharded store additionally routes the
        ``parallel_ranks`` scatter along its shard ownership, and cannot
        grow through :meth:`ActiveSession.extend_pool`.
    prefilter:
        Optional :class:`~repro.engine.prefilter.CandidateFilter` evaluated
        once per round on the full pool view *before* the strategy.  The
        session hands the strategy a context holding only the surviving
        candidate rows and maps its answer back to the full view, so FIRAL's
        RELAX / η grid / ROUND — and every baseline — score
        ``keep_ratio · n`` points instead of ``n`` without knowing a filter
        ran.  The filter's RNG draws come off the session's single stream,
        first in each round, so runs stay reproducible; with keep-everything
        settings (``keep_ratio=1.0``) no draws are consumed and the session
        is bit-identical to an unfiltered one (test-pinned).
        Any ``keep_ratio < 1`` is an approximation — the frontier is measured
        in ``benchmarks/bench_prefilter.py``.  ``None`` (default) scores the
        whole pool.
    on_rank_failure:
        What a multi-rank selection should do when a rank dies mid-round
        (a :class:`~repro.parallel.comm.CommError` escapes the launcher).
        ``"abort"`` (default) propagates the failure; ``"repartition_retry"``
        asks FIRAL-style strategies to re-partition the pool across the
        surviving ranks and deterministically re-run the round (see
        ``FIRALStrategy`` and the README's *Fault tolerance* section).
        Forwarded via ``SessionInfo``; non-parallel strategies ignore it.
    fault_plan:
        Optional :class:`~repro.parallel.faults.FaultPlan` injected into the
        strategy's distributed selection — CI and benchmarks use this to
        rehearse rank failures reproducibly.  Requires ``parallel_ranks``.
    checkpoint_every:
        Write a crash-safe session checkpoint (atomic JSON via
        :meth:`ActiveSession.checkpoint`) after every this-many completed
        rounds of :meth:`ActiveSession.run`.  Requires ``checkpoint_path``.
        ``None`` (default) never checkpoints automatically.  Lower cadence
        costs less I/O per round but re-runs more rounds after a crash; the
        tradeoff is measured in ``benchmarks/bench_fault_recovery.py``.
    checkpoint_path:
        Where the automatic checkpoint is written (a single file,
        overwritten atomically each time).  Also the default target of an
        explicit :meth:`ActiveSession.checkpoint` call.
    """

    reuse_eta: bool = False
    parallel_ranks: Optional[int] = None
    parallel_transport: str = "simulated"
    store: Optional[Union[PoolStore, Callable[[ActiveLearningProblem], PoolStore]]] = None
    prefilter: Optional[CandidateFilter] = None
    on_rank_failure: str = "abort"
    fault_plan: Optional[object] = None
    checkpoint_every: Optional[int] = None
    checkpoint_path: Optional[Union[str, pathlib.Path]] = None

    def validate(self) -> "SessionConfig":
        """Check every field value and cross-field requirement in one place.

        :class:`ActiveSession` calls this at construction (the checks used to
        be scattered across ``__init__`` / store building / strategy start);
        it can also be called directly to vet a config before a session —
        e.g. by a serving layer at admission time, before any expensive
        session state exists.  Every rejection is a ``ValueError`` naming the
        offending field.  Returns ``self`` so call sites can chain.
        """

        if self.parallel_ranks is not None:
            check_positive_int(self.parallel_ranks, "SessionConfig.parallel_ranks")
            require(
                self.parallel_transport in VALID_TRANSPORTS,
                f"SessionConfig.parallel_transport must be one of {VALID_TRANSPORTS} "
                f"(got {self.parallel_transport!r})",
            )
        if self.prefilter is not None:
            require(
                isinstance(self.prefilter, CandidateFilter),
                "SessionConfig.prefilter must implement "
                "CandidateFilter.select_candidates(context, rng) by subclassing "
                f"CandidateFilter (got {type(self.prefilter).__name__!r})",
            )
        require(
            self.on_rank_failure in ("abort", "repartition_retry"),
            "SessionConfig.on_rank_failure must be 'abort' or 'repartition_retry' "
            f"(got {self.on_rank_failure!r})",
        )
        if self.fault_plan is not None:
            require(
                self.parallel_ranks is not None,
                "SessionConfig.fault_plan requires parallel_ranks",
            )
        if self.checkpoint_every is not None:
            check_positive_int(self.checkpoint_every, "SessionConfig.checkpoint_every")
            require(
                self.checkpoint_path is not None,
                "SessionConfig.checkpoint_every requires checkpoint_path",
            )
        return self


def _json_safe(value):
    """``value`` with NumPy arrays turned into lists, through nested dicts."""

    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def _bit_generator_types() -> dict:
    return {kind.__name__: kind for kind in np.random.BitGenerator.__subclasses__()}


_REQUIRED = object()


def _checkpoint_field(section: dict, key: str, path: str, kinds: tuple, default=_REQUIRED):
    """``section[key]``, refused with a ``ValueError`` naming ``path`` unless
    it is an instance of ``kinds`` (a ``bool`` passes only where ``kinds``
    lists it).  A missing key returns ``default`` when one is given."""

    if key not in section:
        require(default is not _REQUIRED, f"corrupt session checkpoint: {path} is missing")
        return default
    value = section[key]
    require(
        isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool)),
        f"corrupt session checkpoint: {path} must be "
        f"{' or '.join(kind.__name__ for kind in kinds)} (got {type(value).__name__})",
    )
    return value


def _checkpoint_ids(section: dict, key: str, path: str) -> np.ndarray:
    """A checkpointed id list as ``int64``; anything but a list of integers
    is a ``ValueError`` naming ``path``."""

    ids = _checkpoint_field(section, key, path, (list,))
    require(
        all(isinstance(i, int) and not isinstance(i, bool) for i in ids),
        f"corrupt session checkpoint: {path} must hold integers",
    )
    return np.asarray(ids, dtype=np.int64)


@dataclass(frozen=True)
class RoundState:
    """What :meth:`ActiveSession.propose` changes before the round commits.

    See the module docstring's *round state* section for where it is
    captured and restored.  The fields have the layout of the checkpoint
    sections :meth:`to_json` writes; :meth:`capture` keeps NumPy copies in
    them and leaves the conversion to lists to :meth:`to_json`.
    """

    rng_state: dict
    strategy_state: dict

    @classmethod
    def capture(cls, session: "ActiveSession") -> "RoundState":
        return cls(
            rng_state=copy.deepcopy(session.rng.bit_generator.state),
            strategy_state=session.strategy.state_dict(),
        )

    def restore(self, session: "ActiveSession") -> None:
        """Put ``session`` back into this state.

        The RNG state is set in place, so a caller-supplied ``Generator``
        follows the session; only a state saved from a different
        bit-generator type gets a fresh generator of that type.  A state
        read from a checkpoint was checked by :meth:`from_json`.
        """

        name = self.rng_state["bit_generator"]
        bit_generator = session.rng.bit_generator
        if type(bit_generator).__name__ != name:
            bit_generator = _bit_generator_types()[name]()
            session.rng = np.random.Generator(bit_generator)
        bit_generator.state = self.rng_state
        session.strategy.load_state_dict(self.strategy_state)

    def to_json(self) -> dict:
        return {
            "rng_state": _json_safe(self.rng_state),
            # Format 1 has a Fisher section; no session mode fills it.
            "fisher": None,
            "strategy": {"state": self.strategy_state},
        }

    @classmethod
    def from_json(cls, payload: dict) -> "RoundState":
        """Read the :meth:`to_json` sections back out of a checkpoint payload.

        Each section is checked before anything is called: a missing or
        mistyped field, a name that is not a NumPy bit generator, or a state
        that bit generator refuses is a ``ValueError`` naming the field.
        """

        rng_state = _checkpoint_field(payload, "rng_state", "rng_state", (dict,))
        name = rng_state.get("bit_generator")
        bit_generators = _bit_generator_types()
        require(
            isinstance(name, str) and name in bit_generators,
            f"rng_state.bit_generator must name a numpy.random.BitGenerator subclass (got {name!r})",
        )
        _checkpoint_field(rng_state, "state", "rng_state.state", (dict,))
        try:
            bit_generators[name]().state = rng_state
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"corrupt session checkpoint: rng_state is not a {name} state ({exc!r})"
            ) from exc
        strategy = _checkpoint_field(payload, "strategy", "strategy", (dict,), default={})
        return cls(
            rng_state=rng_state,
            strategy_state=_checkpoint_field(strategy, "state", "strategy.state", (dict,), default={}),
        )


class ActiveSession:
    """One active-learning run with state persisted across rounds.

    Parameters
    ----------
    problem:
        The dataset triple (initial labeled / pool / evaluation).
    strategy:
        Batch selection method: an instance of a
        :class:`~repro.baselines.SelectionStrategy` subclass.  Anything else
        is refused with a ``ValueError``.
    budget_per_round:
        Points labeled per round (``b``).
    num_rounds:
        Planned number of rounds.  Optional — the session can also be driven
        open-endedly with :meth:`step` — but when given it is validated
        against the pool size upfront.
    classifier:
        Optional pre-configured classifier; defaults to an L2-regularized
        multinomial logistic regression, fixed across rounds as in the paper.
    seed:
        Seed for the strategy's RNG stream (one stream for the whole run,
        exactly as the legacy driver used it).
    config:
        Cross-round optimization switches; defaults to the legacy-equivalent
        configuration.
    """

    def __init__(
        self,
        problem: ActiveLearningProblem,
        strategy,
        *,
        budget_per_round: int,
        num_rounds: Optional[int] = None,
        classifier: Optional[LogisticRegressionClassifier] = None,
        seed=0,
        config: Optional[SessionConfig] = None,
    ):
        self.budget_per_round = check_positive_int(budget_per_round, "budget_per_round")
        self.planned_rounds = (
            None if num_rounds is None else check_positive_int(num_rounds, "num_rounds")
        )
        if self.planned_rounds is not None:
            require(
                self.planned_rounds * self.budget_per_round <= problem.pool_size,
                "total budget exceeds the pool size",
            )
        require(
            isinstance(strategy, SelectionStrategy),
            "strategy must be a SelectionStrategy subclass instance "
            f"(got {type(strategy).__name__!r})",
        )
        self.problem = problem
        self.config = (config or SessionConfig()).validate()
        self.store = self._build_store(problem, self.config)
        self.strategy = strategy
        self.classifier = (
            classifier
            if classifier is not None
            else LogisticRegressionClassifier(problem.num_classes)
        )
        self.rng = as_generator(seed)
        self.round_index = 0
        self.result = ExperimentResult(
            strategy_name=self.strategy.name, dataset_name=problem.name
        )
        self._initial_recorded = False
        self._pending: Optional[dict] = None
        #: The in-flight eager prefetch's ``Future`` — see
        #: :meth:`prefetch_proposal` and the module docstring.
        self._prefetch = None
        #: Monotonic eager-pipeline counters (surfaced by the serving layer).
        self.prefetch_stats: dict = {"scheduled": 0, "adopted": 0, "discarded": 0}
        #: Whether the most recent :meth:`propose` adopted a prefetched
        #: proposal (``True``) or computed synchronously (``False``).
        self.last_propose_prefetched = False
        #: Set by :meth:`resume` when the checkpoint carried a pending
        #: proposal: ``{"round_index", "global_ids", "num_labeled"}``.  The
        #: proposal itself is invalidated — call :meth:`propose` to replay it.
        self.invalidated_proposal: Optional[dict] = None

        num_shards = self.store.num_shards
        if num_shards is not None and self.config.parallel_ranks is not None:
            require(
                int(num_shards) == int(self.config.parallel_ranks),
                "a sharded store must have one shard per parallel rank",
            )
        self.strategy.begin_session(
            SessionInfo(
                reuse_eta=self.config.reuse_eta,
                parallel_ranks=self.config.parallel_ranks,
                parallel_transport=self.config.parallel_transport,
                on_rank_failure=self.config.on_rank_failure,
                fault_plan=self.config.fault_plan,
            )
        )
        self._base_total = self.store.total_points
        self._fit()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _build_store(problem: ActiveLearningProblem, config: SessionConfig) -> PoolStore:
        """Resolve ``SessionConfig.store`` into a live :class:`PoolStore`."""

        hook = config.store
        if hook is None:
            return DensePointStore.from_problem(problem)
        if isinstance(hook, PoolStore):
            store = hook
        else:
            store = hook(problem)
            require(
                isinstance(store, PoolStore),
                "SessionConfig.store factory must return a PoolStore",
            )
        require(store.dimension == problem.dimension, "store dimension must match the problem")
        require(
            store.num_initial == problem.initial_size
            and store.total_points >= problem.initial_size + problem.pool_size,
            "store must hold the problem's initial and pool points",
        )
        return store

    def _fit(self) -> None:
        self.classifier.fit(
            self.store.labeled_features_host(), self.store.labeled_labels_host()
        )

    def _evaluate(self, setup_seconds: float, selection_seconds: float) -> RoundRecord:
        pool_ids = self.store.pool_ids
        if pool_ids.size > 0:
            pool_acc = accuracy(
                self.store.pool_labels_host(),
                self.classifier.predict(self.store.pool_features_host()),
            )
        else:
            pool_acc = 1.0
        eval_pred = self.classifier.predict(self.problem.eval_features)
        return RoundRecord(
            num_labeled=self.store.num_labeled,
            pool_accuracy=pool_acc,
            eval_accuracy=accuracy(self.problem.eval_labels, eval_pred),
            balanced_eval_accuracy=class_balanced_accuracy(
                self.problem.eval_labels, eval_pred, self.problem.num_classes
            ),
            selection_seconds=selection_seconds,
            setup_seconds=setup_seconds,
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def pool_size(self) -> int:
        return self.store.pool_size

    @property
    def num_labeled(self) -> int:
        return self.store.num_labeled

    def record_initial(self) -> RoundRecord:
        """Record the accuracy of the classifier trained only on the initial set.

        The leftmost point of the Fig. 2 curves; call at most once, before
        the first :meth:`step`.
        """

        require(not self._initial_recorded, "initial record already taken")
        require(self.round_index == 0, "initial record must precede the first round")
        record = self._evaluate(0.0, 0.0)
        self.result.records.append(record)
        self._initial_recorded = True
        return record

    def extend_pool(self, features, labels) -> np.ndarray:
        """Replenish the pool between rounds.

        Appends new unlabeled points to the session's store under fresh
        stable ids (:meth:`PoolStore.extend`) — the pool-refresh round
        boundary of streaming active learning.  Existing ids never move, so
        the labeled history, the recorded curve and any per-id strategy
        state stay valid.  Returns the new points' global ids.

        The batch is validated first — finite floating features and labels
        in ``[0, num_classes)`` — because a point that enters the pool stays
        there until it is labeled: a bad row would fail every later round.
        A sharded store refuses to grow.

        An in-flight eager prefetch is **cancelled** (joined and rolled back
        to the round boundary): the precomputed proposal never saw the new
        points, so serving it would be stale — the next :meth:`propose`
        recomputes over the grown pool.
        """

        check_features(features, "extend_pool features")
        check_labels(labels, self.problem.num_classes, "extend_pool labels")
        self._discard_prefetch()
        require(
            self._pending is None,
            "cannot extend the pool while a proposal is pending — "
            "observe() or invalidate_proposal() first",
        )
        return self.store.extend(features, labels)

    # ------------------------------------------------------------------ #
    # the half-round protocol: propose / observe (step composes the two)
    # ------------------------------------------------------------------ #
    @property
    def pending_proposal(self) -> Optional[QueryProposal]:
        """The open :class:`QueryProposal`, or ``None`` at a round boundary.

        An **unclaimed prefetch** does not count: until :meth:`propose`
        adopts it, the eager proposal has not been surfaced to any client,
        so the protocol still reads as "at a round boundary".
        """

        if self._prefetch is not None:
            return None
        return None if self._pending is None else self._pending["proposal"]

    @property
    def prefetch_pending(self) -> bool:
        """Whether an eager prefetch is scheduled and not yet adopted."""

        return self._prefetch is not None

    @property
    def prefetch_future(self):
        """The in-flight prefetch's ``Future``, or ``None``.

        A serving layer can *wait* on this (e.g. from an event loop)
        instead of dispatching :meth:`propose` to a worker that would
        block joining it — joining from outside keeps worker slots free
        under saturation.  Waiting is observation only: the prefetch stays
        unclaimed (and any failure stays stashed) until :meth:`propose`
        adopts it.
        """

        return self._prefetch

    def _join_prefetch(self) -> bool:
        """Wait for the in-flight prefetch; keep it only if it landed a proposal.

        A failed job restored the round state itself and a cancelled one
        never ran, so a dropped prefetch leaves the session at the boundary.
        """

        future = self._prefetch
        if future is not None:
            futures.wait([future])
            if future.cancelled() or future.exception() is not None:
                self._prefetch = None
        return self._prefetch is not None

    def _claim_prefetch(self) -> bool:
        """Join the in-flight prefetch and clear it; whether it landed a proposal."""

        landed = self._join_prefetch()
        self._prefetch = None
        return landed

    def invalidate_proposal(self) -> QueryProposal:
        """Discard the pending proposal and roll back to the round boundary.

        The serving layer's escape hatch: a labeler that disappears
        mid-round must not wedge the session.  The proposal's
        :class:`RoundState` is restored, so the next :meth:`propose` replays
        the round bit-identically (or legitimately differently, if
        :meth:`extend_pool` ran in between).  Returns the discarded proposal
        so callers can log it — an invalidation is always explicit, never a
        silent drop.

        An in-flight eager prefetch counts: the call joins it, claims its
        proposal and discards that — the "cancel the speculative work"
        path of the pipelining contract.
        """

        self._claim_prefetch()
        require(self._pending is not None, "no pending proposal to invalidate")
        pending, self._pending = self._pending, None
        pending["round_state"].restore(self)
        return pending["proposal"]

    def propose(self) -> QueryProposal:
        """Run the first half of a round: assemble the view, select a query set.

        Holds the proposal open (:attr:`pending_proposal`) until
        :meth:`observe` supplies labels or :meth:`invalidate_proposal`
        discards it; proposing again while one is open is an error, as is
        extending the pool.  Exactly the pre-selection half of the historic
        ``step()`` — :meth:`step` is now literally ``propose(); observe()``.
        If selection raises, the round state is restored before the error
        propagates, so the session stays at the round boundary.

        When an eager prefetch is in flight (:meth:`prefetch_proposal`),
        this call joins it and **adopts** its precomputed proposal —
        bit-identical to the synchronous computation, near-zero latency once
        the background selection has landed.  A prefetch that *failed* in
        the background left the session at the round boundary, so the
        synchronous recompute below deterministically re-raises the same
        error the caller would have seen in sync mode.
        """

        self.last_propose_prefetched = self._claim_prefetch()
        if self.last_propose_prefetched:
            self.prefetch_stats["adopted"] += 1
            return self._pending["proposal"]
        return self._propose_now()

    def prefetch_proposal(self, executor) -> bool:
        """Kick off the next round's :meth:`propose` on ``executor`` eagerly.

        Call at a round boundary (typically right after :meth:`observe`)
        with any ``concurrent.futures``-style executor; the next
        :meth:`propose` adopts the precomputed proposal instead of paying
        the selection latency.  Returns ``False`` without scheduling when
        the session cannot run another round (pool exhausted, or the
        planned round count is complete) — prefetching then would only
        manufacture a doomed proposal.

        The background job is the synchronous ``propose()`` body: it
        mutates the live session exactly as ``propose()`` would, and on
        failure restores the round state and stays claimable, so the
        eventual ``propose()`` re-raises deterministically.  All other
        session methods join the job before touching state (see the module
        docstring) — callers must still serialize session access
        externally.
        """

        # The prefetch guard must run first: the background job surfaces
        # its result into ``_pending`` the moment it lands, so with an
        # unclaimed prefetch either guard could be the one that trips —
        # and the unclaimed prefetch is protocol-invisible, so the error
        # must name it, not the not-yet-adopted proposal it produced.
        require(self._prefetch is None, "a prefetch is already in flight")
        require(
            self._pending is None,
            "a proposal is already pending — observe() or invalidate_proposal() first",
        )
        if self.budget_per_round > self.store.pool_size:
            return False
        if self.planned_rounds is not None and self.round_index >= self.planned_rounds:
            return False
        self.prefetch_stats["scheduled"] += 1
        self._prefetch = executor.submit(self._propose_now)
        return True

    def _discard_prefetch(self) -> None:
        """Cancel an eager prefetch: join it, roll back to the round boundary.

        The transparent-invalidation half of the pipelining contract —
        :meth:`extend_pool` (and anything else that changes what the next
        round should see) calls this first, so a stale eager proposal is
        never served.
        """

        if self._claim_prefetch():
            self.prefetch_stats["discarded"] += 1
            self.invalidate_proposal()

    def _propose_now(self) -> QueryProposal:
        """The synchronous :meth:`propose` body (also the prefetch job)."""

        require(
            self._pending is None,
            "a proposal is already pending — observe() or invalidate_proposal() first",
        )
        require(
            self.budget_per_round <= self.store.pool_size,
            "budget exceeds the remaining pool",
        )
        round_state = RoundState.capture(self)
        try:
            proposal = self._select_round()
        except BaseException:
            round_state.restore(self)
            raise
        self._pending = {"proposal": proposal, "round_state": round_state}
        return proposal

    def _select_round(self) -> QueryProposal:
        """Assemble the round view, restrict it to the candidates, select.

        Under a prefilter the strategy sees only the candidate rows, and its
        answer is mapped back to full-view positions here, so no strategy
        handles filtering.
        """

        setup_start = time.perf_counter()
        pool_ids = self.store.pool_ids
        pool_features = self.store.pool_features_host()
        pool_probabilities = self.classifier.predict_proba(pool_features)
        labeled_features = self.store.labeled_features_host()
        labeled_probabilities = self.classifier.predict_proba(labeled_features)
        # A sharded store publishes the round's ownership boundaries so
        # multi-rank selection scatters along them; other stores answer None.
        shard_offsets = self.store.pool_shard_offsets()
        context = SelectionContext(
            pool_features=pool_features,
            pool_probabilities=pool_probabilities,
            labeled_features=labeled_features,
            labeled_probabilities=labeled_probabilities,
            budget=self.budget_per_round,
            rng=self.rng,
            round_index=self.round_index,
            shard_offsets=shard_offsets,
        )
        positions = None
        if self.config.prefilter is not None:
            positions = self._run_prefilter(context)
            context = replace(
                context,
                pool_features=pool_features[positions],
                pool_probabilities=pool_probabilities[positions],
                # Filters keep candidates grouped by owning shard, so each
                # boundary maps to the count of candidates before it.
                shard_offsets=(
                    None if shard_offsets is None else np.searchsorted(positions, shard_offsets)
                ),
            )
        setup_seconds = time.perf_counter() - setup_start

        start = time.perf_counter()
        answer = self.strategy.select(context)
        selection_seconds = time.perf_counter() - start

        selected = check_selection(
            answer,
            self.budget_per_round,
            context.pool_features.shape[0],
            f"strategy {self.strategy.name!r}",
        )
        if positions is not None:
            selected = positions[selected]
        return QueryProposal(
            round_index=self.round_index,
            pool_indices=selected,
            global_ids=pool_ids[selected],
            num_labeled=self.store.num_labeled,
            budget=int(selected.size),
            setup_seconds=setup_seconds,
            selection_seconds=selection_seconds,
        )

    def _run_prefilter(self, context: SelectionContext) -> np.ndarray:
        """Run the prefilter on the full view and check its answer.

        Its RNG draws come first on the session's single stream, before the
        strategy's, so runs stay reproducible (keep-everything settings
        consume no draws at all — the bit-identity contract).
        """

        prefilter = self.config.prefilter
        positions = np.asarray(prefilter.select_candidates(context, self.rng))
        who = f"prefilter {prefilter.name!r}"
        require(
            positions.ndim == 1 and np.issubdtype(positions.dtype, np.integer),
            f"{who} must return a 1-D integer position array "
            f"(got dtype {positions.dtype}, shape {positions.shape})",
        )
        require(
            positions.size >= self.budget_per_round,
            f"{who} kept {positions.size} candidates, fewer than the budget "
            f"of {self.budget_per_round}",
        )
        require(
            bool(np.all(np.diff(positions) > 0)),
            f"{who} must return sorted, unique positions",
        )
        size = context.pool_features.shape[0]
        require(
            0 <= positions[0] and positions[-1] < size,
            f"{who} returned positions outside the pool view [0, {size})",
        )
        return positions

    def observe(self, labels=None) -> RoundRecord:
        """Complete the pending round: reveal labels, retrain, record.

        With ``labels=None`` the store's built-in oracle column answers —
        the historic ``step()`` behavior, bit-identical.  A serving workload
        passes the external labeler's answers instead (aligned with the
        pending proposal's ``global_ids`` order); they are written into the
        store's label master before membership flips, so every later view
        (retraining, pool accuracy, checkpoints) sees them.
        """

        # An unclaimed prefetch has not been surfaced to any client, so the
        # protocol view is "no proposal open" — the caller must propose()
        # (adopting the prefetch) before it can observe.
        require(self._prefetch is None, "no pending proposal — call propose() first")
        require(self._pending is not None, "no pending proposal — call propose() first")
        proposal: QueryProposal = self._pending["proposal"]
        selected = proposal.pool_indices
        if labels is not None:
            # Validate before anything changes: a float, 2-D, string or bool
            # label array must not be coerced into class indices.
            check_labels(labels, name="observe labels")
            provided = np.asarray(labels, dtype=np.int64)
            require(
                provided.size == proposal.budget,
                f"observe() got {provided.size} labels for a proposal of "
                f"{proposal.budget} points",
            )
            require(
                bool(np.all((provided >= 0) & (provided < self.problem.num_classes))),
                f"labels must lie in [0, {self.problem.num_classes})",
            )
            self.store.provide_labels(proposal.global_ids, provided)

        # Oracle labeling: flip membership bits, reveal labels.
        global_ids, revealed = self.store.label(selected)
        self.strategy.observe_labels(
            LabelObservation(
                round_index=proposal.round_index,
                pool_indices=selected,
                global_ids=global_ids,
                labels=revealed,
            )
        )

        self._fit()
        record = self._evaluate(proposal.setup_seconds, proposal.selection_seconds)
        self.result.records.append(record)
        self.round_index += 1
        self._pending = None
        return record

    def step(self) -> RoundRecord:
        """Run one full selection round: select, reveal labels, retrain, record.

        A thin composition of :meth:`propose` and :meth:`observe` — the two
        halves are the old monolithic body split at the labeling boundary,
        so this is bit-identical to the pre-split ``step()`` (test-pinned
        for every strategy in ``tests/test_engine_propose_observe.py``).
        """

        self.propose()
        return self.observe()

    def run(
        self, num_rounds: Optional[int] = None, *, record_initial: bool = True
    ) -> ExperimentResult:
        """Run ``num_rounds`` rounds (default: the planned count) and return the curve."""

        rounds = num_rounds if num_rounds is not None else self.planned_rounds
        require(rounds is not None, "num_rounds must be given here or at construction")
        rounds = check_positive_int(rounds, "num_rounds")
        require(
            rounds * self.budget_per_round <= self.store.pool_size,
            "total budget exceeds the pool size",
        )
        if record_initial and not self._initial_recorded and self.round_index == 0:
            self.record_initial()
        cadence = self.config.checkpoint_every
        for _ in range(rounds):
            self.step()
            if cadence is not None and self.round_index % cadence == 0:
                self.checkpoint()
        return self.result

    # ------------------------------------------------------------------ #
    # crash-safe checkpointing
    # ------------------------------------------------------------------ #
    #: Bumped whenever the checkpoint payload layout changes incompatibly.
    CHECKPOINT_FORMAT_VERSION = 1

    def _config_fingerprint(self) -> dict:
        """The config switches a resumed session must match to stay bit-identical."""

        cfg = self.config
        return {
            # Format-1 fields of removed modes: resume refuses a checkpoint with one on.
            "incremental_fisher": False,
            "relax_warm_start": False,
            "reuse_eta": bool(cfg.reuse_eta),
            "parallel_ranks": None if cfg.parallel_ranks is None else int(cfg.parallel_ranks),
            "parallel_transport": cfg.parallel_transport,
            "fisher_refresh_every": None,
            "prefilter": None if cfg.prefilter is None else cfg.prefilter.fingerprint(),
        }

    def checkpoint_payload(self) -> dict:
        """Capture the full resumable session state as a JSON-safe dict.

        The in-memory half of :meth:`checkpoint` — pure state serialization,
        no I/O — so a serving layer can snapshot a session under its lock
        and hand the payload to :meth:`write_checkpoint` on a slow disk
        *without* holding the session (or an event loop) hostage.

        An **in-flight eager prefetch is quiesced first** (joined, left
        claimable): the payload then carries the proposal's round state plus
        the ``pending_proposal`` marker, exactly like a checkpoint taken
        while a client holds a proposal open — on :meth:`resume` the eager
        proposal restores invalidated-and-surfaced, never silently dropped.
        """

        self._join_prefetch()
        store_section = {
            "kind": self.store.kind,
            "total_points": int(self.store.total_points),
            "num_initial": int(self.store.num_initial),
            "labeled_ids": [int(i) for i in self.store.labeled_ids],
        }
        if self.store.total_points > self._base_total:
            # Pool growth: save the appended rows so resume can
            # replay them under the same ids before restoring membership.
            extension = np.arange(self._base_total, self.store.total_points, dtype=np.int64)
            store_section["extension_features"] = self.store.features_host(extension).tolist()
            store_section["extension_labels"] = self.store.labels_host(extension).tolist()
        # An open proposal is written as the round state it was proposed
        # from plus a marker, not as resumable state: resume() invalidates it
        # and the caller re-proposes.
        pending = self._pending
        round_state = RoundState.capture(self) if pending is None else pending["round_state"]
        payload = {
            "format_version": self.CHECKPOINT_FORMAT_VERSION,
            "round_index": int(self.round_index),
            "budget_per_round": int(self.budget_per_round),
            "planned_rounds": self.planned_rounds,
            "initial_recorded": bool(self._initial_recorded),
            "result": self.result.to_dict(),
            "config": self._config_fingerprint(),
            "store": store_section,
            **round_state.to_json(),
        }
        payload["strategy"]["name"] = self.strategy.name
        if pending is not None:
            proposal: QueryProposal = pending["proposal"]
            payload["pending_proposal"] = {
                "round_index": int(proposal.round_index),
                "global_ids": [int(i) for i in proposal.global_ids],
                "num_labeled": int(proposal.num_labeled),
            }
        return payload

    @staticmethod
    def write_checkpoint(payload: dict, path) -> pathlib.Path:
        """Write a :meth:`checkpoint_payload` dict to ``path`` atomically.

        The I/O half of :meth:`checkpoint`; a static method on purpose — the
        payload is self-contained, so the write can run on any thread after
        the capturing session has moved on.
        """

        return atomic_write_json(path, payload)

    def checkpoint(self, path=None) -> pathlib.Path:
        """Write the full mid-run session state to ``path`` atomically.

        The checkpoint captures everything :meth:`resume` needs to continue
        the run **bit-identically**: the round index, the accuracy curve so
        far, the labeled-id acquisition history (plus any streamed pool
        extension rows) and the :class:`RoundState`.  Floats survive the
        JSON round trip exactly (``repr`` shortest round-trip), and the write
        goes through a temp file + ``os.replace``, so a crash mid-write
        leaves the previous checkpoint intact rather than a truncated file.

        Checkpointing **while a proposal is pending** is allowed: the
        payload then carries the proposal's round state plus a
        ``pending_proposal`` marker, which :meth:`resume` surfaces as
        :attr:`invalidated_proposal`.  Composed as :meth:`checkpoint_payload`
        (capture) + :meth:`write_checkpoint` (I/O) so callers with latency
        budgets can run the two halves on different threads.
        """

        target = path if path is not None else self.config.checkpoint_path
        require(
            target is not None,
            "no checkpoint target: pass a path or set SessionConfig.checkpoint_path",
        )
        return self.write_checkpoint(self.checkpoint_payload(), target)

    @classmethod
    def resume(
        cls,
        path,
        problem: ActiveLearningProblem,
        strategy,
        *,
        classifier: Optional[LogisticRegressionClassifier] = None,
        config: Optional[SessionConfig] = None,
    ) -> "ActiveSession":
        """Rebuild a session from a :meth:`checkpoint` file and continue it.

        ``problem``, ``strategy``, ``classifier`` and ``config`` must be
        constructed exactly as for the original session — the checkpoint
        holds the run *state*, not the experiment definition.  The config
        switches that affect selection are fingerprinted in the checkpoint
        and validated here; a corrupt or truncated file fails loudly
        (``ValueError``) instead of resuming from garbage.  The resumed
        session's remaining rounds are bit-identical to the uninterrupted
        run (test-pinned for every shipped strategy in
        ``tests/test_engine_checkpoint.py``).
        """

        payload = read_json(path, description="session checkpoint")
        require(isinstance(payload, dict), "corrupt session checkpoint: not a JSON object")
        require(
            payload.get("format_version") == cls.CHECKPOINT_FORMAT_VERSION,
            f"unsupported checkpoint format version {payload.get('format_version')!r}",
        )
        # Every section is read and checked before the session exists, so a
        # corrupt file calls no strategy hook.
        budget_per_round = _checkpoint_field(payload, "budget_per_round", "budget_per_round", (int,))
        planned_rounds = _checkpoint_field(
            payload, "planned_rounds", "planned_rounds", (int, type(None))
        )
        round_index = _checkpoint_field(payload, "round_index", "round_index", (int,))
        initial_recorded = _checkpoint_field(payload, "initial_recorded", "initial_recorded", (bool,))
        saved_config = _checkpoint_field(payload, "config", "config", (dict,))
        store_section = _checkpoint_field(payload, "store", "store", (dict,))
        # Format-1 checkpoints of a grown in-RAM pool may say "streaming";
        # that pool is held by the dense store.
        saved_kind = _checkpoint_field(store_section, "kind", "store.kind", (str,))
        saved_kind = "dense" if saved_kind == "streaming" else saved_kind
        total_points = _checkpoint_field(store_section, "total_points", "store.total_points", (int,))
        labeled_ids = _checkpoint_ids(store_section, "labeled_ids", "store.labeled_ids")
        extension_features, extension_labels = (
            _checkpoint_field(store_section, key, f"store.{key}", (list,), default=None)
            for key in ("extension_features", "extension_labels")
        )
        try:
            result = ExperimentResult.from_dict(
                _checkpoint_field(payload, "result", "result", (dict,))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"corrupt session checkpoint: result is malformed ({exc!r})") from exc
        round_state = RoundState.from_json(payload)
        pending_section = _checkpoint_field(
            payload, "pending_proposal", "pending_proposal", (dict, type(None)), default=None
        )
        invalidated = None
        if pending_section is not None:
            invalidated = {
                key: _checkpoint_field(pending_section, key, f"pending_proposal.{key}", (int,))
                for key in ("round_index", "num_labeled")
            }
            invalidated["global_ids"] = _checkpoint_ids(
                pending_section, "global_ids", "pending_proposal.global_ids"
            )

        session = cls(
            problem,
            strategy,
            budget_per_round=budget_per_round,
            num_rounds=planned_rounds,
            classifier=classifier,
            config=config,
        )
        current_config = session._config_fingerprint()
        for key, value in current_config.items():
            require(
                saved_config.get(key) == value,
                f"checkpoint was written with {key}={saved_config.get(key)!r}, "
                f"but this session has {key}={value!r}",
            )
        require(
            session.store.kind == saved_kind,
            f"checkpoint was written with a '{saved_kind}' store, "
            f"but this session has a '{session.store.kind}' store",
        )
        if total_points > session.store.total_points:
            require(
                extension_features is not None and extension_labels is not None,
                "checkpoint grew the pool but carries no extension rows",
            )
            session.extend_pool(
                np.asarray(extension_features, dtype=np.float64),
                np.asarray(extension_labels, dtype=np.int64),
            )
        require(
            session.store.total_points == total_points,
            "store size mismatch after replaying checkpointed pool growth",
        )
        session.store.restore_membership(labeled_ids)
        session.round_index = round_index
        session._initial_recorded = initial_recorded
        session.result = result
        session._fit()
        strategy_name = payload.get("strategy", {}).get("name")
        require(
            strategy_name == session.strategy.name,
            f"checkpoint was written by strategy {strategy_name!r}, "
            f"but this session runs {session.strategy.name!r}",
        )
        round_state.restore(session)
        # A checkpoint taken mid-proposal holds the proposal's round state,
        # so the proposal is *invalidated* — surfaced here, never silently
        # dropped — and the caller re-proposes: bit-identical to the original
        # when the pool is unchanged, legitimately different after
        # extend_pool.
        session.invalidated_proposal = invalidated
        return session
