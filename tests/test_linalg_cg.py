"""Tests for the preconditioned conjugate-gradient solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.block_diag import BlockDiagonalMatrix
from repro.linalg.cg import conjugate_gradient


def random_spd(rng, dim, condition=10.0):
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigenvalues = np.linspace(1.0, condition, dim)
    return (Q * eigenvalues) @ Q.T


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestBasicSolves:
    def test_single_rhs_matches_direct(self, rng):
        A = random_spd(rng, 20)
        b = rng.standard_normal(20)
        result = conjugate_gradient(lambda v: A @ v, b, rtol=1e-10, max_iterations=200)
        np.testing.assert_allclose(result.solution, np.linalg.solve(A, b), rtol=1e-6, atol=1e-8)
        assert result.converged

    def test_multiple_rhs(self, rng):
        A = random_spd(rng, 15)
        B = rng.standard_normal((15, 4))
        result = conjugate_gradient(lambda v: A @ v, B, rtol=1e-10, max_iterations=200)
        np.testing.assert_allclose(result.solution, np.linalg.solve(A, B), rtol=1e-6, atol=1e-8)
        assert result.residual_norms.shape == (4,)

    def test_identity_converges_in_one_iteration(self, rng):
        b = rng.standard_normal(10)
        result = conjugate_gradient(lambda v: v, b, rtol=1e-12)
        assert result.iterations <= 1
        np.testing.assert_allclose(result.solution, b, rtol=1e-10)

    def test_zero_rhs_gives_zero_solution(self):
        result = conjugate_gradient(lambda v: 2.0 * v, np.zeros(5), rtol=1e-8)
        np.testing.assert_array_equal(result.solution, np.zeros(5))
        assert result.converged

    def test_max_iterations_respected(self, rng):
        A = random_spd(rng, 30, condition=1e4)
        b = rng.standard_normal(30)
        result = conjugate_gradient(lambda v: A @ v, b, rtol=1e-14, max_iterations=2)
        assert result.iterations == 2
        assert not result.converged

    def test_history_recorded_and_decreasing_overall(self, rng):
        A = random_spd(rng, 25)
        b = rng.standard_normal(25)
        result = conjugate_gradient(lambda v: A @ v, b, rtol=1e-10, record_history=True)
        assert len(result.residual_history) == result.iterations + 1
        assert result.residual_history[-1] < result.residual_history[0]

    def test_history_disabled(self, rng):
        A = random_spd(rng, 10)
        b = rng.standard_normal(10)
        result = conjugate_gradient(lambda v: A @ v, b, record_history=False)
        assert result.residual_history == []

    @pytest.mark.parametrize(
        "dtype, solve_dtype",
        [(np.int64, np.float64), (np.bool_, np.float64), (np.float32, np.float32)],
    )
    def test_rhs_dtype_sets_the_solve_dtype(self, dtype, solve_dtype):
        """A floating rhs keeps its dtype; an integer or bool one solves in
        float64.  Casting the iterates back to int64 used to truncate every
        search direction: 1000 iterations, x = 0, not converged."""

        A = np.diag([2.0, 3.0, 4.0])
        seen = []

        def matvec(v):
            seen.append(v.dtype)
            return A @ v

        result = conjugate_gradient(matvec, np.array([1, 1, 1], dtype=dtype), rtol=1e-6)
        assert result.converged and result.iterations <= 5
        assert result.solution.dtype == solve_dtype
        assert set(seen) == {np.dtype(solve_dtype)}
        np.testing.assert_allclose(result.solution, [1 / 2, 1 / 3, 1 / 4], rtol=1e-6)

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            conjugate_gradient(lambda v: v, np.ones(3), rtol=-1.0)


class TestPreconditioning:
    def test_preconditioner_reduces_iterations(self, rng):
        """The paper's Fig. 1: block-Jacobi preconditioning cuts CG iterations."""

        c, d = 4, 10
        blocks = []
        for k in range(c):
            blocks.append(random_spd(rng, d, condition=5.0) * (10.0 ** k))
        A_bd = BlockDiagonalMatrix(np.stack(blocks))
        dense = A_bd.to_dense() + 0.05 * random_spd(rng, c * d, condition=2.0)
        precond = BlockDiagonalMatrix.from_dense(dense, num_blocks=c).inverse()

        b = rng.standard_normal(c * d)
        plain = conjugate_gradient(lambda v: dense @ v, b, rtol=1e-8, max_iterations=2000)
        preconditioned = conjugate_gradient(
            lambda v: dense @ v, b, preconditioner=precond.matvec, rtol=1e-8, max_iterations=2000
        )
        assert preconditioned.converged
        assert preconditioned.iterations < plain.iterations
        np.testing.assert_allclose(
            preconditioned.solution, np.linalg.solve(dense, b), rtol=1e-4, atol=1e-6
        )

    def test_exact_preconditioner_converges_immediately(self, rng):
        A = random_spd(rng, 12, condition=1e3)
        A_inv = np.linalg.inv(A)
        b = rng.standard_normal(12)
        result = conjugate_gradient(
            lambda v: A @ v, b, preconditioner=lambda v: A_inv @ v, rtol=1e-10
        )
        assert result.iterations <= 3


@settings(max_examples=15, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=20),
    num_rhs=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_cg_solves_spd_systems(dim, num_rhs, seed):
    """CG converges to the direct solution on random SPD systems."""

    rng = np.random.default_rng(seed)
    A = random_spd(rng, dim, condition=50.0)
    B = rng.standard_normal((dim, num_rhs))
    result = conjugate_gradient(lambda v: A @ v, B, rtol=1e-12, max_iterations=10 * dim)
    np.testing.assert_allclose(result.solution, np.linalg.solve(A, B), rtol=1e-5, atol=1e-6)
