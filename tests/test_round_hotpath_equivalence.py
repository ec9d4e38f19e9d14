"""Equivalence guarantees for the fused/amortized ROUND and RELAX hot paths.

The hot-path rework (fused shared-contraction scoring, chunked candidate
streaming, the η-grid precompute context) is a pure performance change: on
the NumPy backend the *selected indices* must be bit-identical to the
pre-optimization formulation.  These tests pin that:

* the fused kernel against a straight re-implementation of the original
  two-pass einsum scoring (a bilinear and a quadratic form per block),
* chunked scoring and precompute-threaded grid search against their
  unchunked / per-trial-rebuild counterparts,
* the RELAX CG solves, which start cold, against a repeat of the same run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_backend
from repro.core.approx_relax import approx_relax
from repro.core.approx_round import RoundPrecompute, approx_round
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.eta_selection import select_eta
from repro.core.exact_round import ExactRoundPrecompute, exact_round
from repro.fisher.hessian import weighted_block_diagonal
from repro.linalg.sherman_morrison import fused_round_scores
from tests.conftest import make_fisher_dataset


@pytest.fixture
def dataset():
    return make_fisher_dataset(seed=42, num_pool=60, num_labeled=10, dimension=5, num_classes=4)


@pytest.fixture
def z_relaxed(dataset):
    rng = np.random.default_rng(7)
    z = rng.uniform(0, 1, size=dataset.num_pool)
    return 8.0 * z / z.sum()


def reference_scores(bt_inv, sigma_star, X, gammas, eta):
    """The pre-fusion two-pass formulation of the Proposition-4 objective.

    The original two-pass scoring, its einsums inlined: one pass for the
    bilinear numerator ``x^T B_k^{-1} Sigma_*,k B_k^{-1} x`` and an
    independent pass for the Sherman–Morrison denominator's quadratic form
    ``x^T B_k^{-1} x`` (the ``X B^{-1}`` contraction evaluated twice).
    """

    backend = get_backend()
    Y = backend.einsum("kde,ne->nkd", bt_inv.blocks, X, optimize=True)
    numerator = backend.ascompute(
        backend.einsum("nkd,kde,nke->nk", Y, sigma_star.blocks, Y, optimize=True)
    )
    quad = backend.ascompute(backend.einsum("nd,kde,ne->nk", X, bt_inv.blocks, X, optimize=True))
    denominator = 1.0 + eta * gammas * quad
    return backend.einsum("nk,nk->n", gammas, numerator / denominator)


class TestFusedScoring:
    def _state(self, dataset, z_relaxed):
        pre = RoundPrecompute.build(dataset, z_relaxed)
        bt_inv = (pre.sigma_star * np.sqrt(dataset.joint_dimension)).inverse()
        return pre, bt_inv

    def test_matches_pre_fusion_formulation(self, dataset, z_relaxed):
        pre, bt_inv = self._state(dataset, z_relaxed)
        eta = 1.3
        fused = fused_round_scores(bt_inv, pre.sigma_star, pre.X, pre.gammas, eta)
        reference = reference_scores(bt_inv, pre.sigma_star, pre.X, pre.gammas, eta)
        np.testing.assert_allclose(fused, reference, rtol=1e-12)
        # Selection is an argmax over the scores: same winner.
        assert int(np.argmax(fused)) == int(np.argmax(reference))

    @pytest.mark.parametrize("chunk_size", [1, 7, 59, 60, 1000])
    def test_chunked_scoring_equivalent(self, dataset, z_relaxed, chunk_size):
        """Chunked scores agree to solver precision and pick the same winner.

        (Raw scores are not bit-equal across chunk sizes: BLAS GEMM tiling
        depends on the row count, shifting summation order by ~1 ULP.  The
        *selection* — what the satellite pins — is the argmax, and the
        end-to-end index equality is covered by TestChunkedRoundSelection.)
        """

        pre, bt_inv = self._state(dataset, z_relaxed)
        full = fused_round_scores(bt_inv, pre.sigma_star, pre.X, pre.gammas, 1.0)
        chunked = fused_round_scores(
            bt_inv, pre.sigma_star, pre.X, pre.gammas, 1.0, chunk_size=chunk_size
        )
        np.testing.assert_allclose(np.asarray(full), np.asarray(chunked), rtol=1e-13)
        assert int(np.argmax(full)) == int(np.argmax(chunked))

    def test_workspace_reuse_bit_identical(self, dataset, z_relaxed):
        pre, bt_inv = self._state(dataset, z_relaxed)
        plain = fused_round_scores(bt_inv, pre.sigma_star, pre.X, pre.gammas, 1.0)
        reused = fused_round_scores(
            bt_inv, pre.sigma_star, pre.X, pre.gammas, 1.0, workspace=pre.workspace
        )
        again = fused_round_scores(
            bt_inv, pre.sigma_star, pre.X, pre.gammas, 1.0, workspace=pre.workspace
        )
        np.testing.assert_array_equal(np.asarray(plain), np.asarray(reused))
        np.testing.assert_array_equal(np.asarray(plain), np.asarray(again))


class TestChunkedRoundSelection:
    @pytest.mark.parametrize("chunk_size", [1, 13, 64])
    def test_selected_indices_bit_identical(self, dataset, z_relaxed, chunk_size):
        base = approx_round(dataset, z_relaxed, budget=6, eta=1.0)
        chunked = approx_round(
            dataset, z_relaxed, budget=6, eta=1.0,
            config=RoundConfig(eta=1.0, score_chunk_size=chunk_size),
        )
        np.testing.assert_array_equal(base.selected_indices, chunked.selected_indices)

    @pytest.mark.parametrize("chunk_size", [0, -1, 0.5, 13.7, True, "2"])
    def test_invalid_chunk_size_rejected(self, chunk_size):
        """Non-positive, fractional, bool and string chunk sizes fail fast
        instead of silently truncating in the chunking arithmetic."""

        with pytest.raises(ValueError, match="score_chunk_size"):
            RoundConfig(score_chunk_size=chunk_size)

    def test_integral_float_chunk_size_accepted(self):
        # 13.0 == 13: integral-valued floats are unambiguous, so they pass.
        cfg = RoundConfig(score_chunk_size=13.0)
        assert int(cfg.score_chunk_size) == 13


class TestPrecomputeThreading:
    def test_shared_precompute_matches_per_trial_rebuild(self, dataset, z_relaxed):
        """The hoisted η grid must select exactly what per-trial rebuilds select."""

        grid = (0.5, 1.0, 4.0)
        cfg = RoundConfig()
        hoisted = select_eta(
            approx_round, dataset, z_relaxed, budget=5, eta_grid=grid, config=cfg
        )
        # Per-trial rebuild: call the solver directly for each η (each call
        # builds and discards its own precompute), then apply the same rule,
        # scoring each batch from the dataset's rows.
        def batch_score(selected):
            return weighted_block_diagonal(
                dataset.pool_features[selected], dataset.pool_probabilities[selected]
            ).min_eigenvalue()

        per_trial = {
            eta: approx_round(dataset, z_relaxed, 5, eta, cfg) for eta in grid
        }
        best_eta = max(grid, key=lambda e: batch_score(per_trial[e].selected_indices))
        np.testing.assert_array_equal(
            hoisted.selected_indices, per_trial[best_eta].selected_indices
        )
        assert hoisted.eta == best_eta
        assert hoisted.eta_score == pytest.approx(
            batch_score(per_trial[best_eta].selected_indices)
        )

    def test_explicit_precompute_reuse(self, dataset, z_relaxed):
        cfg = RoundConfig()
        pre = RoundPrecompute.build(dataset, z_relaxed)
        direct = approx_round(dataset, z_relaxed, 4, 1.0, cfg)
        threaded = approx_round(dataset, z_relaxed, 4, 1.0, cfg, precompute=pre)
        threaded_again = approx_round(dataset, z_relaxed, 4, 1.0, cfg, precompute=pre)
        np.testing.assert_array_equal(direct.selected_indices, threaded.selected_indices)
        np.testing.assert_array_equal(direct.selected_indices, threaded_again.selected_indices)

    def test_mismatched_precompute_rejected(self, dataset, z_relaxed):
        other = make_fisher_dataset(seed=9, num_pool=13, num_labeled=6, dimension=5, num_classes=4)
        pre = RoundPrecompute.build(other, np.full(13, 0.3))
        with pytest.raises(ValueError):
            approx_round(dataset, z_relaxed, 3, 1.0, RoundConfig(), precompute=pre)

    def test_stale_precompute_for_different_weights_rejected(self, dataset, z_relaxed):
        """Same pool, different RELAX output: the context must not be silently
        reused (sigma_star would correspond to the stale weights)."""

        pre = RoundPrecompute.build(dataset, z_relaxed)
        other_z = np.roll(np.asarray(z_relaxed), 1)
        with pytest.raises(ValueError):
            approx_round(dataset, other_z, 3, 1.0, RoundConfig(), precompute=pre)
        exact_pre = ExactRoundPrecompute.build(dataset, z_relaxed)
        with pytest.raises(ValueError):
            exact_round(dataset, other_z, 3, 1.0, RoundConfig(), precompute=exact_pre)

    def test_exact_round_precompute_matches(self):
        tiny = make_fisher_dataset(seed=3, num_pool=14, num_labeled=6, dimension=3, num_classes=3)
        rng = np.random.default_rng(1)
        z = rng.uniform(0, 1, size=14)
        z = 4.0 * z / z.sum()
        cfg = RoundConfig()
        pre = ExactRoundPrecompute.build(tiny, z)
        direct = exact_round(tiny, z, 3, 1.0, cfg)
        threaded = exact_round(tiny, z, 3, 1.0, cfg, precompute=pre)
        np.testing.assert_array_equal(direct.selected_indices, threaded.selected_indices)

    def test_exact_round_grid_search_uses_precompute(self):
        tiny = make_fisher_dataset(seed=4, num_pool=12, num_labeled=6, dimension=3, num_classes=3)
        rng = np.random.default_rng(2)
        z = rng.uniform(0, 1, size=12)
        z = 3.0 * z / z.sum()
        result = select_eta(exact_round, tiny, z, budget=3, eta_grid=(0.5, 2.0))
        assert result.eta in (0.5, 2.0)
        assert np.isfinite(result.eta_score)


class TestWarmStartCG:
    def test_warm_start_off_by_default(self, dataset):
        """Fresh per-iteration Rademacher probes decorrelate consecutive
        right-hand sides, so every RELAX CG solve starts from zero and the
        default trajectory is cold-started and bit-reproducible."""

        config = RelaxConfig(max_iterations=8, track_objective="none", seed=0)
        cold = approx_relax(dataset, budget=6, config=config)
        again = approx_relax(dataset, budget=6, config=config)
        assert len(cold.cg_iteration_history) == cold.iterations
        assert sum(cold.cg_iteration_history) == cold.cg_iterations
        assert list(again.cg_iteration_history) == list(cold.cg_iteration_history)
        np.testing.assert_array_equal(again.weights, cold.weights)
