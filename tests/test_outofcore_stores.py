"""Out-of-core pool store: bit-identity with dense, persistence, streaming.

The ISSUE-8 contract of :class:`repro.engine.MmapPointStore`:

* an mmap-backed session selects **bit-identically** to the dense serial
  run for every strategy — serially, under ``parallel_ranks=2`` on both
  transports, and with a candidate prefilter in front;
* host views, ``label()`` and checkpoint/resume behave exactly like
  ``DensePointStore``, including after a simulated process restart
  (:meth:`MmapPointStore.from_file` reopening the master from disk);
* :meth:`stream_round_scores` equals one resident ``fused_round_scores``
  pass bit-for-bit.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import ApproxFIRAL
from repro.baselines.base import FIRALStrategy
from repro.engine import ActiveSession, SessionConfig
from repro.engine.pool import DensePointStore
from repro.engine.prefilter import make_prefilter
from repro.engine.stores import MmapPointStore
from repro.fisher.hessian import block_diagonal_of_sum, point_block_coefficients
from repro.linalg.sherman_morrison import fused_round_scores

from test_engine_session import STRATEGY_FACTORIES, _small_problem


@pytest.fixture(scope="module")
def problem():
    return _small_problem(seed=0)


def _firal_parallel_strategy():
    return FIRALStrategy(
        ApproxFIRAL(
            RelaxConfig(max_iterations=4, track_objective="none", seed=0), RoundConfig(eta=1.0)
        )
    )


def _run(problem, strategy, config=None, num_rounds=2, seed=0):
    session = ActiveSession(
        problem, strategy, budget_per_round=4, num_rounds=num_rounds, seed=seed, config=config
    )
    result = session.run()
    return session, [r.eval_accuracy for r in result.records]


def _make_store(n=40, d=6, m0=4, seed=0, **kwargs) -> MmapPointStore:
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    labels = rng.integers(0, 3, size=n).astype(np.int64)
    return MmapPointStore.from_arrays(features, labels, m0, **kwargs), features, labels


# --------------------------------------------------------------------- #
# selection bit-identity
# --------------------------------------------------------------------- #
class TestMmapSelectionParity:
    @pytest.mark.parametrize("name", sorted(STRATEGY_FACTORIES))
    def test_serial_sessions_bit_identical_to_dense(self, problem, name):
        factory = STRATEGY_FACTORIES[name]
        dense_session, dense_curve = _run(problem, factory())
        mmap_session, mmap_curve = _run(
            problem, factory(), config=SessionConfig(store=MmapPointStore.from_problem)
        )
        assert mmap_session.store.kind == "mmap"
        assert mmap_curve == dense_curve
        np.testing.assert_array_equal(
            mmap_session.store.labeled_ids, dense_session.store.labeled_ids
        )

    @pytest.mark.parametrize("name", sorted(STRATEGY_FACTORIES))
    def test_small_chunks_do_not_change_selections(self, problem, name):
        """Chunked gathers at a tiny chunk_rows still reproduce dense exactly."""

        factory = STRATEGY_FACTORIES[name]
        dense_session, dense_curve = _run(problem, factory())
        mmap_session, mmap_curve = _run(
            problem,
            factory(),
            config=SessionConfig(store=MmapPointStore.factory(chunk_rows=7)),
        )
        assert mmap_curve == dense_curve
        np.testing.assert_array_equal(
            mmap_session.store.labeled_ids, dense_session.store.labeled_ids
        )

    def test_parallel_ranks_simulated_matches_dense_serial(self, problem):
        serial_session, serial_curve = _run(problem, _firal_parallel_strategy())
        mmap_session, mmap_curve = _run(
            problem,
            _firal_parallel_strategy(),
            config=SessionConfig(store=MmapPointStore.from_problem, parallel_ranks=2),
        )
        assert mmap_curve == serial_curve
        np.testing.assert_array_equal(
            mmap_session.store.labeled_ids, serial_session.store.labeled_ids
        )

    @pytest.mark.multiprocess
    def test_parallel_ranks_shared_memory_matches_dense_serial(self, problem):
        serial_session, serial_curve = _run(problem, _firal_parallel_strategy())
        mmap_session, mmap_curve = _run(
            problem,
            _firal_parallel_strategy(),
            config=SessionConfig(
                store=MmapPointStore.from_problem,
                parallel_ranks=2,
                parallel_transport="shared_memory",
            ),
        )
        assert mmap_curve == serial_curve
        np.testing.assert_array_equal(
            mmap_session.store.labeled_ids, serial_session.store.labeled_ids
        )

    def test_prefilter_candidates_match_dense(self, problem):
        """PR-6 prefilter pipeline sees identical candidate ids over mmap."""

        def config(store):
            return SessionConfig(store=store, prefilter=make_prefilter("random", 0.5))

        dense_session, dense_curve = _run(
            problem, _firal_parallel_strategy(), config=config(DensePointStore.from_problem)
        )
        mmap_session, mmap_curve = _run(
            problem, _firal_parallel_strategy(), config=config(MmapPointStore.from_problem)
        )
        assert mmap_curve == dense_curve
        np.testing.assert_array_equal(
            mmap_session.store.labeled_ids, dense_session.store.labeled_ids
        )


# --------------------------------------------------------------------- #
# store views / persistence property test
# --------------------------------------------------------------------- #
class TestMmapStoreViews:
    def test_views_match_dense_bit_for_bit(self):
        """Host view and label() agree with DensePointStore."""

        rng = np.random.default_rng(3)
        n, d, m0 = 50, 5, 6
        features = rng.standard_normal((n, d))
        labels = rng.integers(0, 4, size=n).astype(np.int64)
        dense = DensePointStore(features[:m0], labels[:m0], features[m0:], labels[m0:])
        mmapd = MmapPointStore.from_arrays(features, labels, m0, chunk_rows=8)

        for _ in range(4):
            np.testing.assert_array_equal(mmapd.pool_ids, dense.pool_ids)
            np.testing.assert_array_equal(mmapd.labeled_ids, dense.labeled_ids)
            np.testing.assert_array_equal(
                mmapd.features_host(mmapd.pool_ids), dense.features_host(dense.pool_ids)
            )
            dense_gids, dense_labels = dense.label([1, 3])
            mmap_gids, mmap_labels = mmapd.label([1, 3])
            np.testing.assert_array_equal(mmap_gids, dense_gids)
            np.testing.assert_array_equal(mmap_labels, dense_labels)

    def test_restart_via_from_file_is_bit_identical(self, tmp_path):
        """Reopening the persisted master reproduces views and membership."""

        path = os.fspath(tmp_path / "pool.npy")
        rng = np.random.default_rng(0)
        features = rng.standard_normal((40, 6))
        labels = rng.integers(0, 3, size=40).astype(np.int64)
        store = MmapPointStore.from_arrays(features, labels, 4, path=path, chunk_rows=8)
        labeled_gids, _ = store.label([0, 5, 9])
        history = store.labeled_ids
        membership = store.in_pool.copy()
        pool_view = store.features_host(store.pool_ids)
        del store
        gc.collect()  # the explicit-path store must NOT unlink its file

        reopened = MmapPointStore.from_file(path, chunk_rows=8)
        reopened.restore_membership(history)
        np.testing.assert_array_equal(reopened.labeled_ids[4:], labeled_gids)
        np.testing.assert_array_equal(reopened.in_pool, membership)
        np.testing.assert_array_equal(reopened.features_host(reopened.pool_ids), pool_view)
        np.testing.assert_array_equal(reopened.labels, labels)

    def test_checkpoint_resume_bit_identical(self, problem, tmp_path):
        """A checkpointed mmap session resumes exactly like a dense one (PR 7)."""

        factory = STRATEGY_FACTORIES["approx-firal"]
        make_config = lambda: SessionConfig(store=MmapPointStore.from_problem)  # noqa: E731
        full = ActiveSession(
            problem, factory(), budget_per_round=4, num_rounds=4, seed=0, config=make_config()
        )
        full.run()

        first = ActiveSession(
            problem, factory(), budget_per_round=4, num_rounds=4, seed=0, config=make_config()
        )
        first.run(2)
        ckpt = first.checkpoint(tmp_path / "session.json")
        resumed = ActiveSession.resume(ckpt, problem, factory(), config=make_config())
        resumed.run(2, record_initial=False)
        np.testing.assert_array_equal(full.store.labeled_ids, resumed.store.labeled_ids)
        assert [r.eval_accuracy for r in full.result.records[-2:]] == [
            r.eval_accuracy for r in resumed.result.records[-2:]
        ]

    def test_extend_spills_atomically_and_matches_dense(self):
        rng = np.random.default_rng(5)
        store, features, labels = _make_store(n=30, d=4, m0=3, chunk_rows=8)
        extra_f = rng.standard_normal((11, 4))
        extra_y = rng.integers(0, 3, size=11).astype(np.int64)
        new_ids = store.extend(extra_f, extra_y)
        np.testing.assert_array_equal(new_ids, np.arange(30, 41))
        np.testing.assert_array_equal(
            store.features_host(new_ids), extra_f.astype(store.features.dtype)
        )
        np.testing.assert_array_equal(np.asarray(store.features[:30]), features)
        assert not os.path.exists(store.path + ".grow.tmp")

    def test_rejected_extend_leaves_persisted_store_intact(self, tmp_path):
        """A batch that fails validation never reaches the master or its sidecars."""

        path = os.fspath(tmp_path / "pool.npy")
        store, features, labels = _make_store(n=20, d=4, m0=3, chunk_rows=8, path=path)
        for bad_f, bad_y in (
            (np.ones((0, 4)), np.zeros(0, dtype=np.int64)),
            (np.ones((2, 5)), np.array([0, 1])),
            (np.ones((2, 4)), np.array([0])),
        ):
            with pytest.raises(ValueError):
                store.extend(bad_f, bad_y)
        assert store.total_points == 20
        assert not os.path.exists(path + ".grow.tmp")
        reopened = MmapPointStore.from_file(path, chunk_rows=8)
        np.testing.assert_array_equal(np.asarray(reopened.features), features)
        np.testing.assert_array_equal(reopened.labels, labels)
        np.testing.assert_array_equal(reopened.pool_ids, np.arange(3, 20))

    def test_from_blocks_matches_from_arrays(self):
        rng = np.random.default_rng(9)
        features = rng.standard_normal((25, 4))
        labels = rng.integers(0, 3, size=25).astype(np.int64)
        whole = MmapPointStore.from_arrays(features, labels, 5, chunk_rows=8)

        def blocks():
            for lo in range(0, 25, 7):
                hi = min(lo + 7, 25)
                yield features[lo:hi], labels[lo:hi]

        streamed = MmapPointStore.from_blocks(blocks(), 25, num_initial=5, chunk_rows=8)
        np.testing.assert_array_equal(np.asarray(streamed.features), np.asarray(whole.features))
        np.testing.assert_array_equal(streamed.labels, whole.labels)
        np.testing.assert_array_equal(streamed.pool_ids, whole.pool_ids)
        with pytest.raises(ValueError):
            MmapPointStore.from_blocks(blocks(), 30, num_initial=5)


# --------------------------------------------------------------------- #
# streamed scoring
# --------------------------------------------------------------------- #
class TestStreamRoundScores:
    def test_equals_resident_fused_round_scores(self):
        rng = np.random.default_rng(11)
        n, d, c = 60, 5, 3
        store, features, _ = _make_store(n=n, d=d, m0=0, seed=11, chunk_rows=16)
        probs = rng.dirichlet(np.ones(c + 1), size=n)[:, :c]
        gammas = point_block_coefficients(probs)
        sigma = block_diagonal_of_sum(features, probs).add_identity(1.0)
        a_inverse = sigma.inverse()

        resident = np.asarray(
            fused_round_scores(
                a_inverse,
                sigma,
                np.ascontiguousarray(features, dtype=np.float64),
                np.ascontiguousarray(gammas, dtype=np.float64),
                0.5,
            )
        )
        streamed = store.stream_round_scores(a_inverse, sigma, gammas, 0.5, block_rows=16)
        np.testing.assert_array_equal(streamed, resident)

    def test_gamma_shape_validated(self):
        store, features, _ = _make_store(n=20, d=4, m0=0, seed=2)
        with pytest.raises(ValueError, match="every stored point"):
            store.stream_round_scores(None, None, np.zeros((3, 2)), 1.0)

