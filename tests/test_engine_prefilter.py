"""Candidate-prefilter suite: identity pinning, determinism, shard routing.

The contract of the prefilter stage (``SessionConfig.prefilter``):

* **keep-everything settings are the identity** — a filter with
  ``keep_ratio=1.0`` (or ``num_clusters = n``) consumes no RNG draws and the
  session is bit-identical to an unfiltered one, for all five strategies,
  serial and ``parallel_ranks=2`` on both transports;
* **determinism** — the same seed yields the same candidate set;
* **sharded pools filter per shard** — each shard keeps its own quota and
  candidates stay grouped by owning shard, preserving the multi-rank
  offsets contract;
* **strategies see only their candidates** — the session hands every
  strategy a context holding just the round's candidate rows and maps the
  answer back itself, so even a strategy that ignores filtering cannot
  propose a point outside the candidate set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import FIRALStrategy, SelectionContext, SelectionStrategy
from repro.baselines.entropy import EntropyStrategy, predictive_entropy
from repro.baselines.kmeans import KMeansStrategy
from repro.baselines.random_sampling import RandomStrategy
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import ApproxFIRAL, ExactFIRAL
from repro.engine import (
    ActiveSession,
    DiversityFilter,
    RandomSubsampleFilter,
    SessionConfig,
    ShardedPointStore,
    TopKScoreFilter,
    make_prefilter,
)
from repro.engine.prefilter import CandidateFilter
from repro.utils.random import as_generator

from test_engine_session import _small_problem


def _approx_firal_strategy():
    return FIRALStrategy(
        ApproxFIRAL(RelaxConfig(max_iterations=6, seed=0), RoundConfig(eta=1.0))
    )


def _exact_firal_strategy():
    return FIRALStrategy(
        ExactFIRAL(RelaxConfig(max_iterations=4, track_objective="exact"), RoundConfig(eta=1.0))
    )


def _parallel_capable_strategy():
    return FIRALStrategy(
        ApproxFIRAL(
            RelaxConfig(max_iterations=4, track_objective="none", seed=0),
            RoundConfig(eta=1.0),
        )
    )


STRATEGY_FACTORIES = {
    "random": RandomStrategy,
    "entropy": EntropyStrategy,
    "kmeans": KMeansStrategy,
    "approx-firal": _approx_firal_strategy,
    "exact-firal": _exact_firal_strategy,
}

#: keep-everything variants of every filter: ratio 1.0 and (for the
#: clustering filter) k = n — both must short-circuit to the identity.
IDENTITY_FILTERS = {
    "random-1.0": lambda: RandomSubsampleFilter(1.0),
    "diversity-1.0": lambda: DiversityFilter(1.0),
    "diversity-k=n": lambda: DiversityFilter(1.0, num_clusters=60),
    "topk-1.0": lambda: TopKScoreFilter(1.0),
}


@pytest.fixture(scope="module")
def problem():
    return _small_problem(seed=0)


def _run(problem, strategy, config, *, seed=7, rounds=3, budget=4):
    session = ActiveSession(
        problem, strategy, budget_per_round=budget, num_rounds=rounds, seed=seed, config=config
    )
    result = session.run()
    return (
        [record.eval_accuracy for record in result.records],
        session.store.labeled_ids.copy(),
    )


def _context(problem, *, budget=4, seed=3, shard_offsets=None):
    """A standalone full-view selection context over the problem's pool."""

    rng = np.random.default_rng(seed)
    n = problem.pool_features.shape[0]
    c = problem.num_classes
    pool_probs = rng.dirichlet(np.ones(c), size=n)
    labeled_probs = rng.dirichlet(np.ones(c), size=problem.initial_size)
    return SelectionContext(
        pool_features=problem.pool_features,
        pool_probabilities=pool_probs,
        labeled_features=problem.initial_features,
        labeled_probabilities=labeled_probs,
        budget=budget,
        rng=rng,
        shard_offsets=shard_offsets,
    )


class _CandidateBlind(SelectionStrategy):
    """Always answers the first ``budget`` rows of whatever view it gets."""

    name = "candidate-blind"

    def select(self, context):
        return np.arange(context.budget)


class _FixedCandidates(RandomSubsampleFilter):
    """Answers every round with the same positions."""

    name = "fixed"

    def __init__(self, positions):
        super().__init__(0.5)
        self.positions = np.asarray(positions)

    def select_candidates(self, context, rng):
        return self.positions


def _record_contexts(strategy):
    """Keep every context the session hands ``strategy``."""

    contexts = []
    select = strategy.select

    def recording(context):
        contexts.append(context)
        return select(context)

    strategy.select = recording
    return contexts


def _session(problem, strategy, prefilter, *, budget=4, seed=3):
    return ActiveSession(
        problem,
        strategy,
        budget_per_round=budget,
        num_rounds=1,
        seed=seed,
        config=SessionConfig(prefilter=prefilter),
    )


# --------------------------------------------------------------------- #
# Filter units
# --------------------------------------------------------------------- #
class TestFilterUnits:
    @pytest.mark.parametrize("ratio", [0.0, -0.1, 1.5, True, np.True_, "0.5"])
    def test_keep_ratio_validated(self, ratio):
        with pytest.raises(ValueError, match="keep_ratio"):
            RandomSubsampleFilter(ratio)

    @pytest.mark.parametrize("ratio", [np.float32(0.5), np.float64(1.0), 1])
    def test_keep_ratio_accepts_numbers(self, ratio):
        assert RandomSubsampleFilter(ratio).keep_ratio == float(ratio)

    @pytest.mark.parametrize("field", ["num_clusters", "max_iterations"])
    @pytest.mark.parametrize("value", [1.5, True, "2", 0])
    def test_diversity_counts_validated(self, field, value):
        """Counts are checked, not truncated: 1.5 and True used to become 1."""

        with pytest.raises(ValueError, match=f"DiversityFilter.{field}"):
            DiversityFilter(0.5, **{field: value})

    def test_diversity_counts_accept_numpy_integers(self):
        f = DiversityFilter(0.5, num_clusters=np.int64(4), max_iterations=np.int32(3))
        assert (f.num_clusters, f.max_iterations) == (4, 3)

    def test_keep_count_floors(self):
        f = RandomSubsampleFilter(0.1)
        # ratio-scaled, but never below the budget (when the segment has it)
        assert f.keep_count(100, 4) == 10
        assert f.keep_count(100, 25) == 25
        # tiny segments: floored at min(segment, budget), capped at segment
        assert f.keep_count(3, 4) == 3
        assert f.keep_count(1, 4) == 1

    @pytest.mark.parametrize("kind", ["random", "diversity", "topk"])
    def test_candidates_sorted_unique_subset(self, problem, kind):
        context = _context(problem)
        positions = make_prefilter(kind, 0.3).select_candidates(context, np.random.default_rng(0))
        assert positions.size >= context.budget
        assert bool(np.all(np.diff(positions) > 0))
        assert 0 <= positions[0] and positions[-1] < context.pool_features.shape[0]

    @pytest.mark.parametrize("kind", ["random", "diversity", "topk"])
    def test_same_seed_same_candidates(self, problem, kind):
        context = _context(problem)
        a = make_prefilter(kind, 0.3).select_candidates(context, np.random.default_rng(11))
        b = make_prefilter(kind, 0.3).select_candidates(context, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_topk_is_deterministic_without_rng(self, problem):
        """The cheap-score shortlist never consumes the RNG stream."""

        context = _context(problem)
        rng = as_generator(5)
        before = rng.bit_generator.state
        ids = TopKScoreFilter(0.3).select_candidates(context, rng)
        assert rng.bit_generator.state == before
        other = TopKScoreFilter(0.3).select_candidates(context, np.random.default_rng(99))
        np.testing.assert_array_equal(ids, other)

    @pytest.mark.parametrize("name", sorted(IDENTITY_FILTERS))
    def test_keep_everything_consumes_no_rng(self, problem, name):
        context = _context(problem)
        rng = as_generator(5)
        before = rng.bit_generator.state
        positions = IDENTITY_FILTERS[name]().select_candidates(context, rng)
        assert rng.bit_generator.state == before
        np.testing.assert_array_equal(positions, np.arange(context.pool_features.shape[0]))

    def test_topk_ranks_by_gamma_leverage(self):
        """Big-norm uncertain points outrank small-norm confident ones."""

        rng = np.random.default_rng(0)
        n, d = 40, 3
        X = rng.standard_normal((n, d))
        probs = np.full((n, 2), 0.5)
        # make one point hugely informative and one nearly useless
        X[7] *= 50.0
        probs[13] = (1.0 - 1e-9, 1e-9)
        keep = 10
        positions = TopKScoreFilter(0.25)._filter_segment(X, probs, keep, rng)
        assert 7 in positions
        assert 13 not in positions

    def test_diversity_covers_clusters(self):
        """Every sizable cluster contributes candidates (quota > 0)."""

        rng = np.random.default_rng(1)
        centers = np.asarray([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0], [50.0, 50.0]])
        X = np.concatenate([c + 0.1 * rng.standard_normal((25, 2)) for c in centers])
        probs = np.full((X.shape[0], 2), 0.5)
        f = DiversityFilter(0.2, num_clusters=4)
        positions = f._filter_segment(X, probs, 20, rng)
        blocks = positions // 25  # ground-truth cluster of each candidate
        assert set(blocks.tolist()) == {0, 1, 2, 3}

    def test_misbehaving_filter_rejected(self, problem):
        class BadCount(CandidateFilter):
            name = "bad"

            def _filter_segment(self, features, probabilities, keep, rng):
                return np.arange(keep + 1)

        class Duplicates(CandidateFilter):
            name = "dupes"

            def _filter_segment(self, features, probabilities, keep, rng):
                return np.zeros(keep, dtype=np.int64)

        with pytest.raises(ValueError, match="expected"):
            BadCount(0.3).select_candidates(_context(problem), np.random.default_rng(0))
        with pytest.raises(ValueError, match="duplicate"):
            Duplicates(0.3).select_candidates(_context(problem), np.random.default_rng(0))

    def test_make_prefilter_kinds(self):
        assert make_prefilter(None, 0.5) is None
        assert make_prefilter("none", 0.5) is None
        assert isinstance(make_prefilter("random", 0.5), RandomSubsampleFilter)
        assert isinstance(make_prefilter("diversity", 0.5), DiversityFilter)
        assert isinstance(make_prefilter("topk", 0.5), TopKScoreFilter)
        with pytest.raises(ValueError, match="unknown prefilter"):
            make_prefilter("sieve", 0.5)


# --------------------------------------------------------------------- #
# The session's candidate view
# --------------------------------------------------------------------- #
class TestContextCandidates:
    def test_positions_map_back_to_ids(self, problem):
        positions = np.asarray([0, 3, 17, 41])
        session = _session(problem, _CandidateBlind(), _FixedCandidates(positions))
        pool_ids = session.store.pool_ids
        proposal = session.propose()
        # The blind strategy answers local rows 0..3: every candidate.
        np.testing.assert_array_equal(proposal.pool_indices, positions)
        np.testing.assert_array_equal(proposal.global_ids, pool_ids[positions])

    def test_fisher_dataset_is_candidate_scale(self, problem):
        strategy = _approx_firal_strategy()
        contexts = _record_contexts(strategy)
        _session(problem, strategy, _FixedCandidates(np.arange(10))).propose()
        dataset = contexts[0].fisher_dataset()
        assert dataset.pool_features.shape[0] == 10
        assert dataset.pool_probabilities.shape == (10, problem.num_classes - 1)

    def test_candidate_ids_validated(self, problem):
        """A filter's bad answer is refused at propose(), naming the filter,
        and the session stays at the round boundary."""

        n = problem.pool_features.shape[0]
        cases = [
            ([5, 3, 8, 9], "sorted"),
            ([0, 1, 1, 2], "unique"),
            ([1, 2, 3, n], "outside the pool view"),
            ([-1, 2, 3, 4], "outside the pool view"),
            ([1, 2, 3], "fewer than the budget"),
            ([0.0, 1.0, 2.0, 3.0], "integer"),
        ]
        for positions, match in cases:
            session = _session(problem, RandomStrategy(), _FixedCandidates(positions))
            before = session.rng.bit_generator.state
            with pytest.raises(ValueError, match=match) as raised:
                session.propose()
            assert "prefilter 'fixed'" in str(raised.value)
            assert session.pending_proposal is None
            assert session.rng.bit_generator.state == before


class TestStrategiesSeeOnlyCandidates:
    """Every shipped strategy, and one that ignores filtering, sees a context
    of exactly the round's candidates and proposes only among them."""

    @pytest.mark.parametrize("store", ["dense", "sharded-2"])
    @pytest.mark.parametrize("kind", ["random", "diversity", "topk"])
    @pytest.mark.parametrize("strategy_name", [*sorted(STRATEGY_FACTORIES), "candidate-blind"])
    def test_proposals_inside_round_candidates(self, problem, strategy_name, kind, store):
        candidates = []
        base = type(make_prefilter(kind, 0.4))

        class Recording(base):
            def select_candidates(self, context, rng):
                positions = super().select_candidates(context, rng)
                candidates.append(positions)
                return positions

        strategy = (
            _CandidateBlind()
            if strategy_name == "candidate-blind"
            else STRATEGY_FACTORIES[strategy_name]()
        )
        contexts = _record_contexts(strategy)
        config = SessionConfig(prefilter=Recording(0.4))
        if store == "sharded-2":
            config.store = ShardedPointStore.factory(num_shards=2)
            # Exact-FIRAL has no distributed formulation.
            config.parallel_ranks = None if strategy_name == "exact-firal" else 2
        session = ActiveSession(
            problem, strategy, budget_per_round=4, num_rounds=2, seed=7, config=config
        )
        for round_index in range(2):
            pool_size = session.pool_size
            proposal = session.propose()
            round_candidates = candidates[round_index]
            assert round_candidates.size < pool_size
            assert contexts[round_index].pool_features.shape[0] == round_candidates.size
            assert np.isin(proposal.pool_indices, round_candidates).all()
            session.observe()


# --------------------------------------------------------------------- #
# Identity pinning: keep-everything == unfiltered, bit for bit
# --------------------------------------------------------------------- #
class TestIdentityPinning:
    _reference = {}

    def _unfiltered(self, problem, strategy_name):
        if strategy_name not in self._reference:
            self._reference[strategy_name] = _run(
                problem, STRATEGY_FACTORIES[strategy_name](), SessionConfig()
            )
        return self._reference[strategy_name]

    @pytest.mark.parametrize("filter_name", sorted(IDENTITY_FILTERS))
    @pytest.mark.parametrize("strategy_name", sorted(STRATEGY_FACTORIES))
    def test_serial_identity(self, problem, strategy_name, filter_name):
        base_curve, base_ids = self._unfiltered(problem, strategy_name)
        curve, ids = _run(
            problem,
            STRATEGY_FACTORIES[strategy_name](),
            SessionConfig(prefilter=IDENTITY_FILTERS[filter_name]()),
        )
        assert curve == base_curve
        np.testing.assert_array_equal(ids, base_ids)

    def test_reuse_eta_identity(self, problem):
        """Keep-everything is also the identity with η reuse on."""

        base = _run(problem, _approx_firal_strategy(), SessionConfig(reuse_eta=True))
        filtered = _run(
            problem,
            _approx_firal_strategy(),
            SessionConfig(reuse_eta=True, prefilter=RandomSubsampleFilter(1.0)),
        )
        assert filtered[0] == base[0]
        np.testing.assert_array_equal(filtered[1], base[1])

    @pytest.mark.parametrize("filter_name", sorted(IDENTITY_FILTERS))
    def test_simulated_parallel_identity(self, problem, filter_name):
        base = _run(problem, _parallel_capable_strategy(), SessionConfig(), seed=0)
        filtered = _run(
            problem,
            _parallel_capable_strategy(),
            SessionConfig(parallel_ranks=2, prefilter=IDENTITY_FILTERS[filter_name]()),
            seed=0,
        )
        assert filtered[0] == base[0]
        np.testing.assert_array_equal(filtered[1], base[1])

    @pytest.mark.multiprocess
    def test_shared_memory_parallel_identity(self, problem):
        """Keep-everything over real OS-process ranks == unfiltered serial."""

        base = _run(problem, _parallel_capable_strategy(), SessionConfig(), seed=0)
        filtered = _run(
            problem,
            _parallel_capable_strategy(),
            SessionConfig(
                parallel_ranks=2,
                parallel_transport="shared_memory",
                prefilter=RandomSubsampleFilter(1.0),
            ),
            seed=0,
        )
        assert filtered[0] == base[0]
        np.testing.assert_array_equal(filtered[1], base[1])


# --------------------------------------------------------------------- #
# Filtered sessions: determinism and behavior
# --------------------------------------------------------------------- #
class TestFilteredSessions:
    @pytest.mark.parametrize("kind", ["random", "diversity", "topk"])
    def test_same_seed_same_session(self, problem, kind):
        a = _run(problem, _approx_firal_strategy(), SessionConfig(prefilter=make_prefilter(kind, 0.4)))
        b = _run(problem, _approx_firal_strategy(), SessionConfig(prefilter=make_prefilter(kind, 0.4)))
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("strategy_name", sorted(STRATEGY_FACTORIES))
    def test_filtered_session_runs_for_every_strategy(self, problem, strategy_name):
        curve, ids = _run(
            problem,
            STRATEGY_FACTORIES[strategy_name](),
            SessionConfig(prefilter=make_prefilter("random", 0.4)),
        )
        assert len(curve) == 4  # initial + 3 rounds
        assert np.unique(ids).size == ids.size

    def test_prefilter_config_validated(self, problem):
        with pytest.raises(ValueError, match="select_candidates"):
            ActiveSession(
                problem,
                RandomStrategy(),
                budget_per_round=4,
                num_rounds=2,
                seed=0,
                config=SessionConfig(prefilter=object()),
            )


# --------------------------------------------------------------------- #
# Baselines under a prefiltered session
# --------------------------------------------------------------------- #
class TestBaselineRouting:
    def test_entropy_scores_candidates_only(self, problem):
        positions = np.asarray([2, 9, 21, 33, 47, 55])
        session = _session(problem, EntropyStrategy(), _FixedCandidates(positions))
        probabilities = session.classifier.predict_proba(session.store.pool_features_host())
        proposal = session.propose()
        # exactly the top-entropy candidates, mapped back to the pool view
        entropy = predictive_entropy(probabilities[positions])
        expected = positions[np.argsort(-entropy, kind="stable")[: proposal.budget]]
        np.testing.assert_array_equal(proposal.pool_indices, expected)

    @pytest.mark.parametrize("factory", [RandomStrategy, KMeansStrategy])
    def test_stochastic_baselines_stay_inside_candidates(self, problem, factory):
        positions = np.asarray([1, 4, 8, 15, 16, 23, 42, 52])
        proposal = _session(problem, factory(), _FixedCandidates(positions)).propose()
        assert np.isin(proposal.pool_indices, positions).all()
        assert np.unique(proposal.pool_indices).size == proposal.budget

    def test_firal_selects_inside_candidates(self, problem):
        positions = np.arange(0, 60, 3)
        proposal = _session(problem, _approx_firal_strategy(), _FixedCandidates(positions)).propose()
        assert np.isin(proposal.pool_indices, positions).all()


# --------------------------------------------------------------------- #
# Sharded stores: per-shard filtering, offsets contract
# --------------------------------------------------------------------- #
class TestShardedFiltering:
    def test_filters_each_shard_segment(self, problem):
        n = problem.pool_features.shape[0]
        offsets = np.asarray([0, n // 3, n], dtype=np.int64)
        context = _context(problem, shard_offsets=offsets)
        f = RandomSubsampleFilter(0.5)
        positions = f.select_candidates(context, np.random.default_rng(0))
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            in_shard = int(np.count_nonzero((positions >= lo) & (positions < hi)))
            assert in_shard == f.keep_count(int(hi - lo), context.budget)

    def test_empty_shard_contributes_nothing(self, problem):
        n = problem.pool_features.shape[0]
        offsets = np.asarray([0, 0, n], dtype=np.int64)  # first shard ran dry
        context = _context(problem, shard_offsets=offsets)
        positions = RandomSubsampleFilter(0.5).select_candidates(context, np.random.default_rng(0))
        assert positions.size == RandomSubsampleFilter(0.5).keep_count(n, context.budget)

    def test_sharded_session_keep_everything_matches_dense_serial(self, problem):
        base = _run(problem, _parallel_capable_strategy(), SessionConfig(), seed=0)
        sharded = _run(
            problem,
            _parallel_capable_strategy(),
            SessionConfig(
                store=ShardedPointStore.factory(num_shards=2),
                parallel_ranks=2,
                prefilter=RandomSubsampleFilter(1.0),
            ),
            seed=0,
        )
        assert sharded[0] == base[0]
        np.testing.assert_array_equal(sharded[1], base[1])

    def test_sharded_session_filters_and_selects_validly(self, problem):
        """A genuinely thinned sharded multi-rank session completes: every
        rank holds its per-shard candidate quota and selections are valid."""

        captured = []

        class Recording(RandomSubsampleFilter):
            def select_candidates(self, context, rng):
                positions = super().select_candidates(context, rng)
                captured.append((context.shard_offsets.copy(), positions))
                return positions

        curve, labeled = _run(
            problem,
            _parallel_capable_strategy(),
            SessionConfig(
                store=ShardedPointStore.factory(num_shards=2),
                parallel_ranks=2,
                prefilter=Recording(0.5),
            ),
            seed=0,
        )
        assert len(curve) == 4
        assert np.unique(labeled).size == labeled.size
        assert len(captured) == 3  # one filter evaluation per round
        for offsets, positions in captured:
            assert len(offsets) == 3
            for lo, hi in zip(offsets[:-1], offsets[1:]):
                # every rank's shard contributed candidates (offsets contract)
                assert int(np.count_nonzero((positions >= lo) & (positions < hi))) > 0
