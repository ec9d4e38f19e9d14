"""Tests for the matrix-free Hessian matvec (Lemma 2) and the gradient kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fisher.hessian import point_hessian_dense, sum_hessian_dense
from repro.fisher.matvec import (
    hessian_sum_matvec,
    probe_hessian_quadratic_forms,
    single_point_hessian_matvec,
)
from tests.conftest import random_probabilities


@pytest.fixture
def rng():
    return np.random.default_rng(4)


class TestSinglePointMatvec:
    def test_matches_dense_single_vector(self, rng):
        x = rng.standard_normal(5)
        h = random_probabilities(rng, 1, 4)[0]
        v = rng.standard_normal(20)
        np.testing.assert_allclose(
            single_point_hessian_matvec(x, h, v), point_hessian_dense(x, h) @ v, rtol=1e-10
        )

    def test_matches_dense_multiple_probes(self, rng):
        x = rng.standard_normal(3)
        h = random_probabilities(rng, 1, 5)[0]
        V = rng.standard_normal((15, 4))
        np.testing.assert_allclose(
            single_point_hessian_matvec(x, h, V), point_hessian_dense(x, h) @ V, rtol=1e-10
        )

    def test_wrong_probe_length_rejected(self, rng):
        x = rng.standard_normal(3)
        h = random_probabilities(rng, 1, 2)[0]
        with pytest.raises(ValueError):
            single_point_hessian_matvec(x, h, np.zeros(7))


class TestSumMatvec:
    def test_matches_dense_sum(self, rng):
        X = rng.standard_normal((10, 4))
        H = random_probabilities(rng, 10, 3)
        V = rng.standard_normal((12, 5))
        np.testing.assert_allclose(
            hessian_sum_matvec(X, H, V), sum_hessian_dense(X, H) @ V, rtol=1e-8, atol=1e-9
        )

    def test_matches_dense_weighted_sum(self, rng):
        X = rng.standard_normal((8, 3))
        H = random_probabilities(rng, 8, 4)
        w = rng.uniform(0, 2, size=8)
        v = rng.standard_normal(12)
        np.testing.assert_allclose(
            hessian_sum_matvec(X, H, v, weights=w),
            sum_hessian_dense(X, H, weights=w) @ v,
            rtol=1e-8,
            atol=1e-9,
        )

    def test_single_vector_output_is_1d(self, rng):
        X = rng.standard_normal((5, 3))
        H = random_probabilities(rng, 5, 2)
        out = hessian_sum_matvec(X, H, rng.standard_normal(6))
        assert out.ndim == 1

    def test_linearity_in_probes(self, rng):
        X = rng.standard_normal((6, 3))
        H = random_probabilities(rng, 6, 3)
        v1 = rng.standard_normal(9)
        v2 = rng.standard_normal(9)
        np.testing.assert_allclose(
            hessian_sum_matvec(X, H, v1 + 3.0 * v2),
            hessian_sum_matvec(X, H, v1) + 3.0 * hessian_sum_matvec(X, H, v2),
            rtol=1e-8,
            atol=1e-9,
        )

    def test_result_is_symmetric_operator(self, rng):
        """u^T (H v) == v^T (H u) since the Hessian sum is symmetric."""

        X = rng.standard_normal((7, 4))
        H = random_probabilities(rng, 7, 3)
        u = rng.standard_normal(12)
        v = rng.standard_normal(12)
        lhs = float(u @ hessian_sum_matvec(X, H, v))
        rhs = float(v @ hessian_sum_matvec(X, H, u))
        assert lhs == pytest.approx(rhs, rel=1e-8)

    @pytest.mark.parametrize(
        "dtype, out_dtype",
        [(np.int64, np.float64), (np.bool_, np.float64), (np.float32, np.float32)],
    )
    def test_probe_dtype_sets_the_result_dtype(self, rng, dtype, out_dtype):
        """A floating probe keeps its dtype; an integer or bool one gives
        float64.  The result used to be cast back to int64 (all zeros)."""

        X = rng.standard_normal((6, 3))
        # Reduced (c - 1 column) probabilities: the all-ones probe is not in
        # the null space the full simplex gives every H_i.
        H = random_probabilities(rng, 6, 5)[:, :4]
        out = hessian_sum_matvec(X, H, np.ones(12, dtype=dtype))
        assert out.dtype == out_dtype
        expected = sum_hessian_dense(X, H) @ np.ones(12)
        assert np.abs(expected).min() > 1e-3
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_weight_shape_mismatch_rejected(self, rng):
        X = rng.standard_normal((4, 2))
        H = random_probabilities(rng, 4, 2)
        with pytest.raises(ValueError):
            hessian_sum_matvec(X, H, np.zeros(4), weights=np.ones(3))


class TestProbeQuadraticForms:
    def test_matches_dense_computation(self, rng):
        """(1/s) sum_j v_j^T H_i w_j computed by the einsum kernel equals the
        dense per-point evaluation — this is the Line 9 gradient of Algorithm 2."""

        n, d, c, s = 7, 4, 3, 5
        X = rng.standard_normal((n, d))
        H = random_probabilities(rng, n, c)
        V = rng.standard_normal((d * c, s))
        W = rng.standard_normal((d * c, s))
        result = probe_hessian_quadratic_forms(X, H, V, W)

        expected = np.zeros(n)
        for i in range(n):
            Hi = point_hessian_dense(X[i], H[i])
            expected[i] = np.mean([V[:, j] @ Hi @ W[:, j] for j in range(s)])
        np.testing.assert_allclose(result, expected, rtol=1e-8, atol=1e-10)

    def test_mismatched_probe_shapes_rejected(self, rng):
        X = rng.standard_normal((3, 2))
        H = random_probabilities(rng, 3, 2)
        with pytest.raises(ValueError):
            probe_hessian_quadratic_forms(X, H, np.zeros((4, 2)), np.zeros((4, 3)))


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=6),
    c=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_lemma2_matvec_equals_dense(d, c, seed):
    """Lemma 2 is an exact identity, not an approximation."""

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d)
    h = random_probabilities(rng, 1, c)[0]
    v = rng.standard_normal(d * c)
    np.testing.assert_allclose(
        single_point_hessian_matvec(x, h, v),
        point_hessian_dense(x, h) @ v,
        rtol=1e-8,
        atol=1e-9,
    )
