"""Tests for the block-diagonal matrix type (Definition 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.block_diag import BlockDiagonalMatrix


def random_spd_blocks(rng, c, d):
    A = rng.standard_normal((c, d, d))
    return np.einsum("kij,klj->kil", A, A) + 0.5 * np.eye(d)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestConstruction:
    def test_from_dense_extracts_blocks(self, rng):
        dense = rng.standard_normal((6, 6))
        bd = BlockDiagonalMatrix.from_dense(dense, num_blocks=3)
        np.testing.assert_allclose(bd.blocks[1], dense[2:4, 2:4])

    def test_from_dense_rejects_indivisible(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            BlockDiagonalMatrix.from_dense(rng.standard_normal((7, 7)), num_blocks=3)

    def test_rejects_non_square_blocks(self):
        with pytest.raises(ValueError):
            BlockDiagonalMatrix(np.zeros((2, 3, 4)))


class TestAlgebra:
    def test_add_and_scale(self, rng):
        a = BlockDiagonalMatrix(random_spd_blocks(rng, 2, 3))
        b = BlockDiagonalMatrix(random_spd_blocks(rng, 2, 3))
        np.testing.assert_allclose((a + b).to_dense(), a.to_dense() + b.to_dense())
        np.testing.assert_allclose((2.5 * a).to_dense(), 2.5 * a.to_dense())

    def test_add_identity(self, rng):
        a = BlockDiagonalMatrix(random_spd_blocks(rng, 2, 3))
        np.testing.assert_allclose(
            a.add_identity(1.5).to_dense(), a.to_dense() + 1.5 * np.eye(6)
        )

    def test_incompatible_shapes_rejected(self, rng):
        a = BlockDiagonalMatrix(random_spd_blocks(rng, 2, 3))
        b = BlockDiagonalMatrix(random_spd_blocks(rng, 3, 3))
        with pytest.raises(ValueError):
            _ = a + b


class TestMatvecAndSolve:
    def test_matvec_matches_dense_single_vector(self, rng):
        a = BlockDiagonalMatrix(random_spd_blocks(rng, 3, 4))
        v = rng.standard_normal(12)
        np.testing.assert_allclose(a.matvec(v), a.to_dense() @ v, rtol=1e-12)

    def test_matvec_matches_dense_multiple_rhs(self, rng):
        a = BlockDiagonalMatrix(random_spd_blocks(rng, 3, 4))
        V = rng.standard_normal((12, 5))
        np.testing.assert_allclose(a.matvec(V), a.to_dense() @ V, rtol=1e-12)

    def test_matvec_rejects_wrong_length(self, rng):
        a = BlockDiagonalMatrix(random_spd_blocks(rng, 3, 4))
        with pytest.raises(ValueError):
            a.matvec(np.zeros(11))

    def test_inverse_matches_dense(self, rng):
        a = BlockDiagonalMatrix(random_spd_blocks(rng, 2, 3))
        np.testing.assert_allclose(
            a.inverse().to_dense(), np.linalg.inv(a.to_dense()), rtol=1e-6, atol=1e-8
        )


class TestReductions:
    def test_eigenvalues_match_dense(self, rng):
        a = BlockDiagonalMatrix(random_spd_blocks(rng, 3, 4))
        np.testing.assert_allclose(
            np.sort(a.eigenvalues().ravel()),
            np.sort(np.linalg.eigvalsh(a.to_dense())),
            rtol=1e-8,
        )

    def test_min_eigenvalue(self, rng):
        a = BlockDiagonalMatrix(random_spd_blocks(rng, 3, 4))
        assert a.min_eigenvalue() == pytest.approx(
            float(np.linalg.eigvalsh(a.to_dense()).min()), rel=1e-8
        )


@settings(max_examples=20, deadline=None)
@given(
    c=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_from_dense_roundtrip(c, d, seed):
    """Extracting the block diagonal of a block-diagonal matrix is the identity."""

    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((c, d, d))
    bd = BlockDiagonalMatrix(blocks)
    roundtrip = BlockDiagonalMatrix.from_dense(bd.to_dense(), num_blocks=c)
    np.testing.assert_allclose(roundtrip.blocks, blocks, rtol=1e-12, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    c=st.integers(min_value=1, max_value=3),
    d=st.integers(min_value=1, max_value=4),
    s=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_matvec_linearity(c, d, s, seed):
    """A(x + 2y) == Ax + 2Ay for the block matvec."""

    rng = np.random.default_rng(seed)
    a = BlockDiagonalMatrix(rng.standard_normal((c, d, d)))
    x = rng.standard_normal((c * d, s))
    y = rng.standard_normal((c * d, s))
    np.testing.assert_allclose(
        a.matvec(x + 2.0 * y), a.matvec(x) + 2.0 * a.matvec(y), rtol=1e-9, atol=1e-9
    )
