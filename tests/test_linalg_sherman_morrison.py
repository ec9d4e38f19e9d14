"""Tests for Proposition 4's closed-form ROUND score (Lemma 3, Eq. 17)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import get_backend
from repro.linalg.block_diag import BlockDiagonalMatrix
from repro.linalg.sherman_morrison import fused_round_scores


def random_spd_blocks(rng, c, d):
    A = rng.standard_normal((c, d, d))
    return np.einsum("kij,klj->kil", A, A) + np.eye(d)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def promoted_scores(a_inverse, middle, X, gammas, eta):
    """:func:`fused_round_scores` on inputs promoted to the compute dtype."""

    backend = get_backend()
    return fused_round_scores(
        a_inverse, middle, backend.ascompute(X), backend.ascompute(gammas), eta
    )


class TestQuadraticForms:
    def test_matches_explicit_formula(self, rng):
        """Eq. 17 objective computed by the fused kernel equals an explicit loop."""

        c, d, n = 3, 4, 6
        eta = 0.7
        bt = BlockDiagonalMatrix(random_spd_blocks(rng, c, d))
        sigma = BlockDiagonalMatrix(random_spd_blocks(rng, c, d))
        bt_inv, sigma_inv = bt.inverse(), sigma.inverse()
        X = rng.standard_normal((n, d))
        gammas = rng.uniform(0.0, 0.25, size=(n, c))

        scores = promoted_scores(bt_inv, sigma_inv, X, gammas, eta)

        expected = np.zeros(n)
        for i in range(n):
            for k in range(c):
                binv = np.linalg.inv(bt.blocks[k])
                sinv = np.linalg.inv(sigma.blocks[k])
                numer = X[i] @ binv @ sinv @ binv @ X[i]
                denom = 1.0 + eta * gammas[i, k] * (X[i] @ binv @ X[i])
                expected[i] += gammas[i, k] * numer / denom
        np.testing.assert_allclose(scores, expected, rtol=1e-6)

    def test_invalid_eta_rejected(self, rng):
        bt = BlockDiagonalMatrix(random_spd_blocks(rng, 2, 3)).inverse()
        sigma = BlockDiagonalMatrix(random_spd_blocks(rng, 2, 3)).inverse()
        with pytest.raises(ValueError):
            promoted_scores(bt, sigma, np.zeros((2, 3)), np.zeros((2, 2)), eta=0.0)

    def test_gamma_shape_mismatch_rejected(self, rng):
        bt = BlockDiagonalMatrix(random_spd_blocks(rng, 2, 3)).inverse()
        sigma = BlockDiagonalMatrix(random_spd_blocks(rng, 2, 3)).inverse()
        with pytest.raises(ValueError):
            promoted_scores(bt, sigma, np.zeros((2, 3)), np.zeros((2, 3)), eta=1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=12),
    c=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=1, max_value=5),
    dtype=st.sampled_from([np.float32, np.float64]),
    eta=st.sampled_from([0.1, 0.5, 1.0, 2.0, 8.0]),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_property_fused_scores_match_dense_ftrl_objective(n, c, d, dtype, eta, seed, data):
    """Prop. 4 against Eq. 18 with no Sherman–Morrison: each fused score is
    ``(Tr[B⁻¹Σ*] − Tr[(B + η·diag(γ_i)⊗x_i x_iᵀ)⁻¹Σ*]) / η``, evaluated with a
    dense ``dc × dc`` inverse per candidate."""

    chunk_size = data.draw(st.one_of(st.none(), st.integers(1, n)), label="chunk_size")
    rng = np.random.default_rng(seed)
    B = BlockDiagonalMatrix(random_spd_blocks(rng, c, d))
    sigma = BlockDiagonalMatrix(random_spd_blocks(rng, c, d))
    X = rng.standard_normal((n, d)).astype(dtype)
    gammas = rng.uniform(0.0, 0.25, size=(n, c)).astype(dtype)
    backend = get_backend()
    scores = backend.to_numpy(
        fused_round_scores(
            B.inverse(),
            sigma,
            backend.ascompute(X),
            backend.ascompute(gammas),
            eta,
            chunk_size=chunk_size,
        )
    )

    B_dense, sigma_dense = B.to_dense(), sigma.to_dense()
    before = np.trace(np.linalg.inv(B_dense) @ sigma_dense)
    eps = np.finfo(scores.dtype).eps
    for i in range(n):
        x, gamma = X[i].astype(np.float64), gammas[i].astype(np.float64)
        updated = B_dense + eta * np.kron(np.diag(gamma), np.outer(x, x))
        after = np.trace(np.linalg.inv(updated) @ sigma_dense)
        # The reference is a difference of two traces, each off by about
        # cond · eps of its own magnitude through the dense inverse.
        cond = max(np.linalg.cond(B_dense), np.linalg.cond(updated))
        tolerance = 8 * cond * eps * (abs(before) + abs(after)) / eta
        assert abs(scores[i] - (before - after) / eta) <= tolerance
