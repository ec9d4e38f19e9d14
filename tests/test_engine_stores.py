"""Pluggable pool stores: protocol, sharded scatter, streaming replenishment.

The contract of the store refactor:

* a session configured with ``DensePointStore`` explicitly selects
  bit-identically to the default session for every strategy (the default
  session itself is pinned against the frozen pre-refactor loop in
  ``test_engine_session.py``);
* a ``ShardedPointStore`` session with ``parallel_ranks`` selects
  identically to the dense serial run — the scatter follows shard ownership
  but the algorithm is partition-invariant — and refuses to grow;
* a session whose pool is replenished between rounds (``extend_pool``) runs
  end-to-end: ids stay stable across ``extend()``, replenished points are
  selectable, malformed batches are rejected before they reach the pool,
  and a FIRAL session keeps selecting across replenishment rounds;
* every flavor (dense, sharded, mmap) answers host views, ``label()``,
  ``provide_labels()`` and ``restore_membership()`` from the arrays it was
  built from;
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
from repro.engine.pool import DensePointStore
from repro.engine.stores import MmapPointStore, ShardedPointStore
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
            config=SessionConfig(store=ShardedPointStore.factory(num_shards=2)),
        )
        assert isinstance(by_factory.store, ShardedPointStore)
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

    def test_sharded_store_cannot_grow(self, problem):
        session = ActiveSession(
            problem,
            RandomStrategy(),
            budget_per_round=4,
            seed=0,
            config=SessionConfig(store=ShardedPointStore.factory(num_shards=2)),
        )
        with pytest.raises(ValueError, match="cannot grow"):
            session.extend_pool(np.ones((2, problem.dimension)), np.array([0, 1]))

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
        """Shard offsets reach the multi-rank selector; a shard that ran dry
        cannot be a rank, so that round re-balances instead of crashing the
        session."""

        strategy = FIRALStrategy(
            ApproxFIRAL(
                RelaxConfig(max_iterations=2, track_objective="none", seed=0),
                RoundConfig(eta=1.0),
            )
        )
        strategy.begin_session(SessionInfo(parallel_ranks=2))
        rng = np.random.default_rng(0)
        n = 8
        pool_probabilities = rng.dirichlet(np.ones(problem.num_classes), size=n)
        labeled_probabilities = rng.dirichlet(
            np.ones(problem.num_classes), size=problem.initial_size
        )

        def select(shard_offsets):
            context = SelectionContext(
                pool_features=problem.pool_features[:n],
                pool_probabilities=pool_probabilities,
                labeled_features=problem.initial_features,
                labeled_probabilities=labeled_probabilities,
                budget=2,
                rng=rng,
                pool_ids=np.arange(n, dtype=np.int64),
                shard_offsets=shard_offsets,
            )
            return strategy.select(context)

        assert select(np.array([0, 4, n])).size == 2
        np.testing.assert_array_equal(
            strategy._effective_selector().partition_offsets, [0, 4, n]
        )
        assert select(np.array([0, 0, n])).size == 2  # shard 0 exhausted
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
# every store flavor: host views and membership
# --------------------------------------------------------------------- #
def _flavor_arrays():
    rng = np.random.default_rng(5)
    return (
        rng.standard_normal((3, 4)),
        np.array([0, 1, 2]),
        rng.standard_normal((12, 4)),
        rng.integers(0, 3, size=12),
    )


def _from_blocks(init_f, init_y, pool_f, pool_y):
    blocks = [(init_f, init_y), (pool_f[:7], pool_y[:7]), (pool_f[7:], pool_y[7:])]
    return MmapPointStore.from_blocks(
        iter(blocks), len(init_y) + len(pool_y), num_initial=len(init_y), chunk_rows=5
    )


STORE_FLAVORS = {
    "dense": lambda arrays: DensePointStore(*arrays),
    "sharded-2": lambda arrays: ShardedPointStore(*arrays, num_shards=2),
    "sharded-3": lambda arrays: ShardedPointStore(*arrays, num_shards=3),
    "mmap": lambda arrays: MmapPointStore(*arrays, chunk_rows=5),
    "mmap-from-blocks": lambda arrays: _from_blocks(*arrays),
}
FLAVORS = pytest.mark.parametrize("flavor", sorted(STORE_FLAVORS))


class TestEveryStoreFlavor:
    """Each flavor serves the base-class contract from its own layout: host
    gathers, labeling, external labels and membership replay agree with
    the plain arrays the store was built from."""

    def _store(self, flavor):
        arrays = _flavor_arrays()
        features = np.concatenate([arrays[0], arrays[2]])
        labels = np.concatenate([arrays[1], arrays[3]])
        return STORE_FLAVORS[flavor](arrays), features, labels

    @FLAVORS
    def test_host_views_follow_labeling(self, flavor):
        store, features, labels = self._store(flavor)
        pool = list(range(3, 15))
        acquired = []
        for rows in ([5, 0, 9], [2]):
            ids = [pool[r] for r in rows]
            got_ids, got_labels = store.label(np.array(rows))
            np.testing.assert_array_equal(got_ids, ids)
            np.testing.assert_array_equal(got_labels, labels[ids])
            pool = [i for i in pool if i not in ids]
            acquired += ids
            labeled = [0, 1, 2] + acquired
            np.testing.assert_array_equal(store.pool_ids, pool)
            np.testing.assert_array_equal(store.labeled_ids, labeled)
            assert store.pool_size == len(pool) and store.num_labeled == len(labeled)
            np.testing.assert_array_equal(store.pool_features_host(), features[pool])
            np.testing.assert_array_equal(store.pool_labels_host(), labels[pool])
            np.testing.assert_array_equal(store.labeled_features_host(), features[labeled])
            np.testing.assert_array_equal(store.labeled_labels_host(), labels[labeled])
            offsets = store.pool_shard_offsets()
            if offsets is not None:
                assert offsets[0] == 0 and offsets[-1] == len(pool)
                for shard in range(store.num_shards):
                    lo, hi = store.shard_id_range(shard)
                    owned = store.pool_ids[offsets[shard]:offsets[shard + 1]]
                    assert np.all((owned >= lo) & (owned < hi))

    @FLAVORS
    def test_provide_labels_reach_label_and_reject_bad_ids(self, flavor):
        store, _, labels = self._store(flavor)
        store.provide_labels(np.array([4, 10]), np.array([2, 1]))
        expected = labels.copy()
        expected[[4, 10]] = [2, 1]
        np.testing.assert_array_equal(store.labels_host(np.arange(15)), expected)
        with pytest.raises(ValueError, match="out of range"):
            store.provide_labels(np.array([15]), np.array([0]))
        with pytest.raises(ValueError, match="one label per id"):
            store.provide_labels(np.array([4, 5]), np.array([0]))
        np.testing.assert_array_equal(store.labels_host(np.arange(15)), expected)
        # Pool rows 1 and 7 are ids 4 and 10: label() reveals the answers.
        _, revealed = store.label(np.array([1, 7]))
        np.testing.assert_array_equal(revealed, [2, 1])

    @FLAVORS
    def test_restore_membership_replays_history(self, flavor):
        store, _, _ = self._store(flavor)
        store.label(np.array([6, 1]))
        store.label(np.array([0]))
        history = store.labeled_ids
        fresh, _, _ = self._store(flavor)
        fresh.restore_membership(history)
        np.testing.assert_array_equal(fresh.labeled_ids, history)
        np.testing.assert_array_equal(fresh.pool_ids, store.pool_ids)
        np.testing.assert_array_equal(fresh.pool_features_host(), store.pool_features_host())
        offsets = store.pool_shard_offsets()
        if offsets is not None:
            np.testing.assert_array_equal(fresh.pool_shard_offsets(), offsets)
        for bad in ([1, 2, 5], [0, 1, 2, 5, 5], [0, 1, 2, 15]):
            with pytest.raises(ValueError):
                fresh.restore_membership(np.array(bad))


# --------------------------------------------------------------------- #
# pool replenishment (the streaming scenario)
# --------------------------------------------------------------------- #
class _TailStrategy(SelectionStrategy):
    """Deterministically selects the *last* rows of the pool view — in a
    replenished pool these are the most recently appended points."""

    name = "tail"

    def select(self, context: SelectionContext) -> np.ndarray:
        n = context.pool_features.shape[0]
        return self._validate_selection(np.arange(n - context.budget, n), context)


class TestStreamingPointStore:
    def _store(self):
        rng = np.random.default_rng(3)
        return DensePointStore(
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

    def test_extend_validates_inputs(self):
        store = self._store()
        with pytest.raises(ValueError):
            store.extend(np.ones((0, 5)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            store.extend(np.ones((2, 4)), np.array([0, 1]))
        with pytest.raises(ValueError):
            store.extend(np.ones((2, 5)), np.array([0]))

    @pytest.mark.parametrize("bad", ["nan", "inf", "label_c", "label_negative"])
    def test_extend_pool_rejects_bad_input(self, problem, bad):
        """A bad row never enters the pool, so the session keeps stepping."""

        session = ActiveSession(problem, RandomStrategy(), budget_per_round=4, seed=0)
        session.step()
        total_before = session.store.total_points
        rng = np.random.default_rng(5)
        new_f = rng.standard_normal((3, problem.dimension))
        new_y = np.array([0, 1, 2])
        c = problem.num_classes
        if bad == "nan":
            new_f[1, 0] = np.nan
            message = "extend_pool features contains NaN or Inf values"
        elif bad == "inf":
            new_f[2, 1] = np.inf
            message = "extend_pool features contains NaN or Inf values"
        elif bad == "label_c":
            new_y[0] = c
            message = f"extend_pool labels contains class index {c} >= num_classes={c}"
        else:
            new_y[2] = -1
            message = "extend_pool labels contains negative class indices"
        with pytest.raises(ValueError, match=message):
            session.extend_pool(new_f, new_y)
        assert session.store.total_points == total_before
        session.step()
        session.step()

    def test_replenished_points_are_selectable(self, problem):
        session = ActiveSession(problem, _TailStrategy(), budget_per_round=4, seed=0)
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
