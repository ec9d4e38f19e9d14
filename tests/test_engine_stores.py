"""Pluggable pool stores: protocol, sharded scatter, streaming replenishment.

The contract of the store refactor:

* ``DensePointStore`` **is** the historical ``PointStore`` (true alias) and
  a session configured with it explicitly selects bit-identically to the
  default session for every strategy (the default session itself is pinned
  against the frozen pre-refactor driver in ``test_engine_session.py``);
* a ``ShardedPointStore`` session with ``parallel_ranks`` selects
  identically to the dense serial run — the scatter follows shard ownership
  but the algorithm is partition-invariant;
* a ``StreamingPointStore`` session runs end-to-end with between-round
  replenishment: ids stay stable across ``extend()``, replenished points
  are selectable, and FIRAL's RELAX warm start falls back to a cold start
  when unseen ids appear;
* the in-rank η grid search (``distributed_round_search``) matches the
  serial ``select_eta`` winner inside a single SPMD launch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_backend
from repro.baselines.base import FIRALStrategy, SelectionContext, SelectionStrategy, SessionInfo
from repro.baselines.random_sampling import RandomStrategy
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.eta_selection import select_eta
from repro.core.approx_round import approx_round
from repro.core.approx_relax import approx_relax
from repro.core.firal import ApproxFIRAL
from repro.engine import ActiveSession, SessionConfig
from repro.engine.pool import DensePointStore, PoolStore
from repro.engine.stores import ShardedPointStore, StreamingPointStore
from repro.fisher.hessian import block_diagonal_of_sum
from repro.models.softmax import reduced_probabilities
from repro.parallel.distributed_round import distributed_round_search
from repro.parallel.firal import DistributedApproxFIRAL

from test_engine_session import (
    STRATEGY_FACTORIES,
    _approx_firal_strategy,
    _small_problem,
)


@pytest.fixture(scope="module")
def problem():
    return _small_problem(seed=0)


@pytest.fixture(scope="module")
def eta_search_inputs(problem):
    """One (dataset, z*) pair shared by every grid-search equivalence test."""

    return _relax_dataset(problem)


def _parallel_strategy(eta_grid=None):
    """ApproxFIRAL under the distributed solvers' configuration contract."""

    round_config = RoundConfig(eta=1.0) if eta_grid is None else RoundConfig(eta_grid=eta_grid)
    return FIRALStrategy(
        ApproxFIRAL(RelaxConfig(max_iterations=4, track_objective="none", seed=0), round_config)
    )


def _run(problem, strategy, config=None, num_rounds=3, seed=0):
    session = ActiveSession(
        problem, strategy, budget_per_round=4, num_rounds=num_rounds, seed=seed, config=config
    )
    result = session.run()
    return session, [r.eval_accuracy for r in result.records]


# --------------------------------------------------------------------- #
# protocol / dense store
# --------------------------------------------------------------------- #
class TestPoolStoreProtocol:
    def test_point_store_is_deprecated_dense_alias(self):
        with pytest.warns(DeprecationWarning, match="DensePointStore"):
            from repro.engine.pool import PointStore
        assert PointStore is DensePointStore
        assert issubclass(DensePointStore, PoolStore)
        assert DensePointStore.kind == "dense"
        assert ShardedPointStore.kind == "sharded"
        assert StreamingPointStore.kind == "streaming"

    def test_factory_binds_kwargs(self, problem):
        build = ShardedPointStore.factory(num_shards=3)
        store = build(problem)
        assert isinstance(store, ShardedPointStore)
        assert store.num_shards == 3
        assert store.total_points == problem.initial_size + problem.pool_size

    def test_session_accepts_instance_and_factory(self, problem):
        by_factory = ActiveSession(
            problem,
            RandomStrategy(),
            budget_per_round=4,
            num_rounds=1,
            seed=0,
            config=SessionConfig(store=StreamingPointStore.from_problem),
        )
        assert isinstance(by_factory.store, StreamingPointStore)
        instance = DensePointStore.from_problem(problem)
        by_instance = ActiveSession(
            problem,
            RandomStrategy(),
            budget_per_round=4,
            num_rounds=1,
            seed=0,
            config=SessionConfig(store=instance),
        )
        assert by_instance.store is instance

    def test_mismatched_instance_rejected(self, problem):
        other = DensePointStore.from_problem(_small_problem(seed=1, dimension=7))
        with pytest.raises(ValueError):
            ActiveSession(
                problem,
                RandomStrategy(),
                budget_per_round=4,
                num_rounds=1,
                seed=0,
                config=SessionConfig(store=other),
            )

    @pytest.mark.parametrize("name", sorted(STRATEGY_FACTORIES))
    def test_explicit_dense_store_bit_identical(self, problem, name):
        """SessionConfig(store=DensePointStore...) == default session, all strategies."""

        factory = STRATEGY_FACTORIES[name]
        default_session, default_curve = _run(problem, factory(), num_rounds=2)
        dense_session, dense_curve = _run(
            problem,
            factory(),
            config=SessionConfig(store=DensePointStore.from_problem),
            num_rounds=2,
        )
        assert dense_curve == default_curve
        np.testing.assert_array_equal(
            dense_session.store.labeled_ids, default_session.store.labeled_ids
        )


# --------------------------------------------------------------------- #
# sharded store
# --------------------------------------------------------------------- #
class TestShardedPointStore:
    def _store(self, num_shards=2):
        rng = np.random.default_rng(0)
        return ShardedPointStore(
            rng.standard_normal((3, 4)),
            np.array([0, 1, 2]),
            rng.standard_normal((10, 4)),
            np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0]),
            num_shards=num_shards,
        )

    def test_shard_bookkeeping(self):
        store = self._store(num_shards=3)
        # Pool ids 3..12 split 4/3/3 over three contiguous shards.
        assert store.shard_id_range(0) == (3, 7)
        assert store.shard_id_range(1) == (7, 10)
        assert store.shard_id_range(2) == (10, 13)
        np.testing.assert_array_equal(store.shard_pool_sizes(), [4, 3, 3])
        np.testing.assert_array_equal(store.pool_shard_offsets(), [0, 4, 7, 10])
        np.testing.assert_array_equal(store.shard_pool_ids(1), [7, 8, 9])

    def test_label_updates_shard_masks(self):
        store = self._store(num_shards=2)
        # Pool view rows 0 and 7 are ids 3 (shard 0) and 10 (shard 1).
        store.label(np.array([0, 7]))
        np.testing.assert_array_equal(store.shard_pool_sizes(), [4, 4])
        assert not store.in_pool[3] and not store.in_pool[10]
        np.testing.assert_array_equal(store.pool_shard_offsets(), [0, 4, 8])
        # Shard masks are live views into the global mask.
        assert not store.shard_mask(0)[0]

    def test_compute_features_matches_host(self):
        store = self._store(num_shards=3)
        store.label(np.array([1, 5]))
        backend = get_backend()
        for ids in (store.pool_ids, store.labeled_ids, np.array([12, 0, 7, 4])):
            view = backend.to_numpy(store.compute_features(ids))
            np.testing.assert_array_equal(view, store.features[ids].astype(np.float64))

    def test_shard_compute_features_matches_host(self):
        store = self._store(num_shards=2)
        store.label(np.array([2]))
        backend = get_backend()
        for shard in range(2):
            view = backend.to_numpy(store.shard_compute_features(shard))
            np.testing.assert_array_equal(
                view, store.features[store.shard_pool_ids(shard)].astype(np.float64)
            )

    def test_too_many_shards_rejected(self):
        with pytest.raises(ValueError):
            self._store(num_shards=11)

    def test_shard_count_must_match_parallel_ranks(self, problem):
        with pytest.raises(ValueError, match="one shard per parallel rank"):
            ActiveSession(
                problem,
                _parallel_strategy(),
                budget_per_round=4,
                num_rounds=2,
                seed=0,
                config=SessionConfig(
                    store=ShardedPointStore.factory(num_shards=3), parallel_ranks=2
                ),
            )

    def test_sharded_parallel_session_matches_dense_serial(self, problem):
        """The acceptance pin: shard-aware scatter changes nothing selected."""

        serial_session, serial_curve = _run(problem, _parallel_strategy())
        sharded_session, sharded_curve = _run(
            problem,
            _parallel_strategy(),
            config=SessionConfig(
                store=ShardedPointStore.factory(num_shards=2), parallel_ranks=2
            ),
        )
        assert sharded_curve == serial_curve
        np.testing.assert_array_equal(
            sharded_session.store.labeled_ids, serial_session.store.labeled_ids
        )

    def test_sharded_session_with_eta_grid_matches_dense_serial(self, problem):
        """Same pin through the in-rank η grid search path."""

        grid = (0.5, 1.0, 2.0)
        serial_session, serial_curve = _run(problem, _parallel_strategy(eta_grid=grid), num_rounds=2)
        sharded_session, sharded_curve = _run(
            problem,
            _parallel_strategy(eta_grid=grid),
            config=SessionConfig(
                store=ShardedPointStore.factory(num_shards=2), parallel_ranks=2
            ),
            num_rounds=2,
        )
        assert sharded_curve == serial_curve
        np.testing.assert_array_equal(
            sharded_session.store.labeled_ids, serial_session.store.labeled_ids
        )

    def test_empty_shard_falls_back_to_balanced_split(self, problem):
        """A shard that ran dry cannot be a rank; the round re-balances
        instead of crashing the session."""

        strategy = FIRALStrategy(
            ApproxFIRAL(
                RelaxConfig(max_iterations=2, track_objective="none", seed=0),
                RoundConfig(eta=1.0),
            )
        )
        strategy.begin_session(
            SessionInfo(
                num_classes=problem.num_classes,
                dimension=problem.dimension,
                budget_per_round=2,
                pool_size=8,
                parallel_ranks=2,
            )
        )
        rng = np.random.default_rng(0)
        n = 8
        context = SelectionContext(
            pool_features=problem.pool_features[:n],
            pool_probabilities=rng.dirichlet(np.ones(problem.num_classes), size=n),
            labeled_features=problem.initial_features,
            labeled_probabilities=rng.dirichlet(
                np.ones(problem.num_classes), size=problem.initial_size
            ),
            budget=2,
            rng=rng,
            pool_ids=np.arange(n, dtype=np.int64),
            shard_offsets=np.array([0, 0, n]),  # shard 0 exhausted
        )
        selected = strategy.select(context)
        assert selected.size == 2
        assert strategy._effective_selector().partition_offsets is None

    @pytest.mark.multiprocess
    def test_sharded_shared_memory_session_matches_dense_serial(self, problem):
        """Each spawned rank receives its own shard; selections stay serial."""

        serial_session, serial_curve = _run(problem, _parallel_strategy(), num_rounds=2)
        sharded_session, sharded_curve = _run(
            problem,
            _parallel_strategy(),
            config=SessionConfig(
                store=ShardedPointStore.factory(num_shards=2),
                parallel_ranks=2,
                parallel_transport="shared_memory",
            ),
            num_rounds=2,
        )
        assert sharded_curve == serial_curve
        np.testing.assert_array_equal(
            sharded_session.store.labeled_ids, serial_session.store.labeled_ids
        )


# --------------------------------------------------------------------- #
# streaming store
# --------------------------------------------------------------------- #
class _TailStrategy(SelectionStrategy):
    """Deterministically selects the *last* rows of the pool view — under a
    streaming store these are the most recently replenished points."""

    name = "tail"

    def select(self, context: SelectionContext) -> np.ndarray:
        n = context.pool_features.shape[0]
        return self._validate_selection(np.arange(n - context.budget, n), context)


class TestStreamingPointStore:
    def _store(self):
        rng = np.random.default_rng(3)
        return StreamingPointStore(
            rng.standard_normal((2, 5)),
            np.array([0, 1]),
            rng.standard_normal((6, 5)),
            np.array([0, 1, 0, 1, 0, 1]),
        )

    def test_extend_assigns_fresh_ids_and_keeps_old_ones(self):
        store = self._store()
        store.label(np.array([1]))  # id 3 leaves the pool
        labeled_before = store.labeled_ids.copy()
        pool_before = store.pool_ids.copy()
        rng = np.random.default_rng(7)
        new_f = rng.standard_normal((4, 5))
        new_ids = store.extend(new_f, np.array([1, 0, 1, 0]))
        np.testing.assert_array_equal(new_ids, [8, 9, 10, 11])
        # Pre-extend bookkeeping is untouched; new ids join the pool.
        np.testing.assert_array_equal(store.labeled_ids, labeled_before)
        np.testing.assert_array_equal(store.pool_ids, np.concatenate([pool_before, new_ids]))
        assert store.total_points == 12 and store.pool_size == 9
        np.testing.assert_array_equal(store.features[new_ids], new_f)

    def test_compute_master_invalidated_on_extend(self):
        store = self._store()
        backend = get_backend()
        before = backend.to_numpy(store.compute_features(store.pool_ids))
        np.testing.assert_array_equal(before, store.pool_features_host().astype(np.float64))
        store.extend(np.ones((2, 5)), np.array([0, 1]))
        after = backend.to_numpy(store.compute_features(store.pool_ids))
        np.testing.assert_array_equal(after, store.pool_features_host().astype(np.float64))
        assert after.shape[0] == before.shape[0] + 2

    def test_extend_validates_inputs(self):
        store = self._store()
        with pytest.raises(ValueError):
            store.extend(np.ones((0, 5)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            store.extend(np.ones((2, 4)), np.array([0, 1]))
        with pytest.raises(ValueError):
            store.extend(np.ones((2, 5)), np.array([0]))

    def test_extend_pool_requires_streaming_store(self, problem):
        session = ActiveSession(problem, RandomStrategy(), budget_per_round=4, seed=0)
        with pytest.raises(ValueError, match="cannot grow"):
            session.extend_pool(np.ones((2, problem.dimension)), np.array([0, 1]))

    def test_streaming_without_extend_matches_dense(self, problem):
        """On a fixed pool the streaming store is just a dense store."""

        for factory in (RandomStrategy, _approx_firal_strategy):
            dense_session, dense_curve = _run(problem, factory(), num_rounds=2)
            streaming_session, streaming_curve = _run(
                problem,
                factory(),
                config=SessionConfig(store=StreamingPointStore.from_problem),
                num_rounds=2,
            )
            assert streaming_curve == dense_curve
            np.testing.assert_array_equal(
                streaming_session.store.labeled_ids, dense_session.store.labeled_ids
            )

    def test_replenished_points_are_selectable(self, problem):
        session = ActiveSession(
            problem,
            _TailStrategy(),
            budget_per_round=4,
            seed=0,
            config=SessionConfig(store=StreamingPointStore.from_problem),
        )
        session.step()
        rng = np.random.default_rng(11)
        new_f = rng.standard_normal((6, problem.dimension))
        new_y = rng.integers(0, problem.num_classes, 6)
        new_ids = session.extend_pool(new_f, new_y)
        record = session.step()
        # The tail strategy must have picked replenished points, and the
        # oracle must reveal the labels that were streamed in with them.
        picked = session.store.labeled_ids[-4:]
        np.testing.assert_array_equal(picked, new_ids[-4:])
        np.testing.assert_array_equal(
            session.store.labeled_labels_host()[-4:], new_y[-4:]
        )
        assert record.num_labeled == problem.initial_size + 8

    def test_streaming_firal_session_end_to_end(self, problem):
        """A FIRAL session keeps selecting across replenishment rounds."""

        strategy = _approx_firal_strategy()
        session = ActiveSession(
            problem,
            strategy,
            budget_per_round=4,
            seed=0,
            config=SessionConfig(
                store=StreamingPointStore.from_problem, relax_warm_start=True
            ),
        )
        rng = np.random.default_rng(13)
        for _ in range(3):
            session.step()
            session.extend_pool(
                rng.standard_normal((5, problem.dimension)),
                rng.integers(0, problem.num_classes, 5),
            )
        gids = session.store.labeled_ids
        assert np.unique(gids).size == gids.size
        assert session.store.pool_size == problem.pool_size - 12 + 15

    def test_warm_start_cold_falls_back_on_unseen_ids(self):
        """FIRAL's previous-z* restriction bails out when the pool gained ids."""

        strategy = FIRALStrategy(
            ApproxFIRAL(RelaxConfig(max_iterations=2, seed=0), RoundConfig(eta=1.0))
        )
        strategy.begin_session(
            SessionInfo(
                num_classes=3, dimension=3, budget_per_round=1, pool_size=4, relax_warm_start=True
            )
        )
        prev_ids = np.array([3, 4, 5, 6], dtype=np.int64)
        strategy._previous = (prev_ids, np.full(4, 0.25))
        rng = np.random.default_rng(0)

        def context_for(pool_ids):
            n = pool_ids.size
            return SelectionContext(
                pool_features=rng.standard_normal((n, 3)),
                pool_probabilities=np.full((n, 2), 0.5),
                labeled_features=rng.standard_normal((2, 3)),
                labeled_probabilities=np.full((2, 2), 0.5),
                budget=1,
                rng=rng,
                pool_ids=pool_ids,
            )

        # Shrunken pool (labeling only): the surviving weights are reused.
        surviving = strategy._warm_start_weights(context_for(np.array([3, 5], dtype=np.int64)))
        np.testing.assert_allclose(surviving, [0.25, 0.25])
        # Replenished pool (ids 7, 9 unseen): cold start.
        assert strategy._warm_start_weights(
            context_for(np.array([3, 5, 7, 9], dtype=np.int64))
        ) is None


# --------------------------------------------------------------------- #
# in-rank η grid search
# --------------------------------------------------------------------- #
def _relax_dataset(problem, budget=6):
    # budget >= d so the selected batch's block Hessians can reach full rank
    # and the min-eigenvalue score is a real number rather than rank-deficiency
    # noise at machine epsilon.
    """A (dataset, z*) pair shared by the serial and distributed searches."""

    from repro.fisher.operators import FisherDataset

    rng = np.random.default_rng(0)
    clf_features = problem.initial_features
    n = problem.pool_size
    pool_probs = rng.dirichlet(np.ones(problem.num_classes), size=n)
    labeled_probs = rng.dirichlet(np.ones(problem.num_classes), size=clf_features.shape[0])
    dataset = FisherDataset(
        pool_features=problem.pool_features,
        pool_probabilities=reduced_probabilities(pool_probs),
        labeled_features=clf_features,
        labeled_probabilities=reduced_probabilities(labeled_probs),
    )
    relax = approx_relax(dataset, budget, RelaxConfig(max_iterations=3, track_objective="none", seed=0))
    return dataset, relax.weights


class TestInRankEtaGridSearch:
    GRID = (0.5, 1.0, 2.0)

    def _serial(self, dataset, weights, budget=6):
        config = RoundConfig(eta_grid=self.GRID)
        return select_eta(
            approx_round, dataset, weights, budget, eta_grid=self.GRID, config=config
        )

    @pytest.mark.parametrize("num_ranks", [1, 2, 3])
    def test_matches_serial_select_eta(self, eta_search_inputs, num_ranks):
        dataset, weights = eta_search_inputs
        serial_result, serial_score = self._serial(dataset, weights)
        result, score = distributed_round_search(
            dataset,
            weights,
            6,
            eta_grid=self.GRID,
            num_ranks=num_ranks,
            config=RoundConfig(eta_grid=self.GRID),
        )
        backend = get_backend()
        np.testing.assert_array_equal(
            result.selected_indices, backend.to_numpy(serial_result.selected_indices)
        )
        assert result.eta == serial_result.eta
        np.testing.assert_allclose(score, serial_score, rtol=1e-10)
        assert result.eta_score is not None

    @pytest.mark.multiprocess
    def test_matches_serial_over_processes(self, eta_search_inputs):
        dataset, weights = eta_search_inputs
        serial_result, _ = self._serial(dataset, weights)
        result, _ = distributed_round_search(
            dataset,
            weights,
            6,
            eta_grid=self.GRID,
            num_ranks=2,
            config=RoundConfig(eta_grid=self.GRID),
            transport="shared_memory",
        )
        backend = get_backend()
        np.testing.assert_array_equal(
            result.selected_indices, backend.to_numpy(serial_result.selected_indices)
        )
        assert result.eta == serial_result.eta

    def test_single_launch_for_whole_grid(self, eta_search_inputs, monkeypatch):
        """The grid must not spawn one SPMD launch per trial any more."""

        import sys

        # The package __init__ re-exports the driver *function* under the
        # submodule's name, so reach the module through sys.modules.
        distributed_round_module = sys.modules["repro.parallel.distributed_round"]
        dataset, weights = eta_search_inputs
        calls = []
        real_run_spmd = distributed_round_module.run_spmd

        def counting_run_spmd(entry, rank_args, **kwargs):
            calls.append(entry.__name__)
            return real_run_spmd(entry, rank_args, **kwargs)

        monkeypatch.setattr(distributed_round_module, "run_spmd", counting_run_spmd)
        selector = DistributedApproxFIRAL(
            RelaxConfig(max_iterations=3, seed=0),
            RoundConfig(eta_grid=self.GRID),
            num_ranks=2,
        )
        selector._round_search(dataset, get_backend().ascompute(weights), 6)
        assert calls == ["round_search_rank_main"]


# --------------------------------------------------------------------- #
# bounded-staleness incremental Fisher
# --------------------------------------------------------------------- #
class TestFisherRefresh:
    def test_refresh_every_round_matches_exact_mode(self, problem):
        """K=1 re-freezes under the current classifier every round, which is
        exactly what the non-incremental path computes — selections must be
        bit-identical."""

        exact_session, exact_curve = _run(problem, _approx_firal_strategy(), num_rounds=3)
        refreshed_session, refreshed_curve = _run(
            problem,
            _approx_firal_strategy(),
            config=SessionConfig(incremental_fisher=True, fisher_refresh_every=1),
            num_rounds=3,
        )
        assert refreshed_curve == exact_curve
        np.testing.assert_array_equal(
            refreshed_session.store.labeled_ids, exact_session.store.labeled_ids
        )

    def test_refresh_rebuilds_under_current_classifier(self, problem):
        session = ActiveSession(
            problem,
            _approx_firal_strategy(),
            budget_per_round=4,
            num_rounds=4,
            seed=0,
            config=SessionConfig(incremental_fisher=True, fisher_refresh_every=2),
        )
        session.step()
        session.step()  # round_index is now 2; the next step refreshes first
        stale = session._frozen_probs.copy()
        fresh = session.classifier.predict_proba(session.store.labeled_features_host())
        # Two rounds of classifier evolution produced real drift to repair.
        assert not np.array_equal(stale, fresh)

        session._refresh_fisher_accumulator()
        np.testing.assert_array_equal(session._frozen_probs, fresh)
        backend = get_backend()
        rebuilt = block_diagonal_of_sum(
            session.store.labeled_features_host(), reduced_probabilities(fresh)
        )
        np.testing.assert_allclose(
            backend.to_numpy(session._accumulator.blocks),
            backend.to_numpy(rebuilt.blocks),
            rtol=1e-12,
        )
        assert session._accumulator.num_points == session.store.num_labeled

    def test_refresh_cadence(self, problem, monkeypatch):
        """step() triggers the rebuild exactly every K rounds, never at round 0."""

        session = ActiveSession(
            problem,
            _approx_firal_strategy(),
            budget_per_round=4,
            num_rounds=5,
            seed=0,
            config=SessionConfig(incremental_fisher=True, fisher_refresh_every=2),
        )
        refreshes = []
        real_refresh = session._refresh_fisher_accumulator

        def counting_refresh():
            refreshes.append(session.round_index)
            real_refresh()

        monkeypatch.setattr(session, "_refresh_fisher_accumulator", counting_refresh)
        session.run(5, record_initial=False)
        assert refreshes == [2, 4]

    def test_validation(self, problem):
        with pytest.raises(ValueError):
            ActiveSession(
                problem,
                RandomStrategy(),
                budget_per_round=4,
                seed=0,
                config=SessionConfig(incremental_fisher=True, fisher_refresh_every=0),
            )
        with pytest.raises(ValueError, match="incremental_fisher"):
            ActiveSession(
                problem,
                RandomStrategy(),
                budget_per_round=4,
                seed=0,
                config=SessionConfig(fisher_refresh_every=2),
            )
