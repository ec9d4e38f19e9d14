"""Tests for the FTRL ν solver (Newton's method on ``phi(nu)^{-1/2}``).

The reference is a textbook bisection kept here, sharing no code with
:func:`find_ftrl_nu`.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.linalg import bisection
from repro.linalg.bisection import find_ftrl_nu


def phi(nu: float, lam: np.ndarray) -> float:
    return float(np.sum(1.0 / (nu + lam) ** 2))


def bisection_nu(lam) -> float:
    """Textbook bisection for ``phi(nu) = 1``, run until the bracket stops shrinking.

    ``phi(1 - min lam) >= 1`` (one term is 1) and ``phi(sqrt(m) - min lam) <= 1``
    (every term is at most ``1/m``), so the root lies between them.
    """

    lam = np.clip(np.asarray(lam, dtype=np.float64).ravel(), 0.0, None)
    lo, hi = 1.0 - lam.min(), math.sqrt(lam.size) - lam.min()
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if phi(mid, lam) > 1.0:
            lo = mid
        else:
            hi = mid


class TestFindFtrlNu:
    def test_zero_eigenvalues_give_sqrt_m(self):
        """With H = 0 the equation sum (nu)^{-2} = m/nu^2 = 1 gives nu = sqrt(m),
        matching the paper's initialization A_1 = sqrt(dc) I."""

        for m in (1, 4, 9, 36):
            nu = find_ftrl_nu(np.zeros(m))
            assert nu == pytest.approx(np.sqrt(m), rel=1e-8)

    def test_solution_satisfies_equation(self):
        rng = np.random.default_rng(0)
        lam = rng.uniform(0.0, 5.0, size=24)
        nu = find_ftrl_nu(lam)
        assert float(np.sum(1.0 / (nu + lam) ** 2)) == pytest.approx(1.0, abs=1e-8)

    def test_large_eigenvalues_give_negative_shift(self):
        """When all eigenvalues are huge, the root can be below zero but the
        shifted values stay positive."""

        lam = np.full(10, 100.0)
        nu = find_ftrl_nu(lam)
        assert float(np.sum(1.0 / (nu + lam) ** 2)) == pytest.approx(1.0, abs=1e-8)
        assert np.all(nu + lam > 0)

    def test_matrix_shaped_input_is_flattened(self):
        lam = np.ones((3, 4))
        nu = find_ftrl_nu(lam)
        assert float(np.sum(1.0 / (nu + lam) ** 2)) == pytest.approx(1.0, abs=1e-8)

    def test_negative_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            find_ftrl_nu(np.array([-1.0, 2.0]))

    def test_tiny_negative_roundoff_tolerated(self):
        nu = find_ftrl_nu(np.array([-1e-12, 1.0, 2.0]))
        assert np.isfinite(nu)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            find_ftrl_nu(np.array([]))

    def test_large_equal_eigenvalues_warning_free(self):
        """The negative-shift regime at 1e5: the root is ``sqrt(10) - 1e5``,
        found without a division by zero and to the precision ν carries."""

        lam = np.full(10, 1e5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nu = find_ftrl_nu(lam)
            assert abs(phi(nu, lam) - 1.0) <= 1e-10
        assert nu == pytest.approx(math.sqrt(10) - 1e5, rel=1e-15)

    def test_step_cap_raises(self, monkeypatch):
        """A spectrum that needs more steps than the cap is an error, never a
        silently returned iterate."""

        monkeypatch.setattr(bisection, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            find_ftrl_nu(np.array([0.0, 5.0, 9.0]))

    def test_trace_normalization_of_ftrl_matrix(self):
        """Building A_{t+1} = V (nu I + Lambda) V^T indeed gives Trace(A^{-2}) = 1."""

        rng = np.random.default_rng(1)
        M = rng.standard_normal((12, 12))
        M = M @ M.T
        lam, V = np.linalg.eigh(M)
        nu = find_ftrl_nu(lam)
        A = (V * (nu + lam)) @ V.T
        assert float(np.trace(np.linalg.inv(A @ A))) == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=60),
    scale=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_nu_satisfies_equation(size, scale, seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, scale + 1e-6, size=size)
    nu = find_ftrl_nu(lam)
    assert float(np.sum(1.0 / (nu + lam) ** 2)) == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    size=st.integers(min_value=1, max_value=60),
    log_scale=st.floats(min_value=-3.0, max_value=8.0),
    regime=st.sampled_from(["uniform", "skewed", "shifted", "zero"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
@example(size=1, log_scale=8.0, regime="shifted", seed=0)
@example(size=1, log_scale=0.0, regime="zero", seed=0)
def test_property_nu_matches_bisection(size, log_scale, regime, seed):
    """Newton's ν agrees with bisection to 1e-8 relative to ``max(|nu|, 1)``
    (every ``nu + lambda_j`` is at least 1 at the root), over spread,
    clustered-near-zero, all-large (the root is negative) and all-zero
    spectra, one eigenvalue included."""

    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    lam = {
        "uniform": lambda: rng.uniform(0.0, scale, size=size),
        "skewed": lambda: scale * rng.random(size) ** 4,
        "shifted": lambda: scale + rng.uniform(0.0, scale, size=size),
        "zero": lambda: np.zeros(size),
    }[regime]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nu = find_ftrl_nu(lam)
    expected = bisection_nu(lam)
    assert abs(nu - expected) <= 1e-8 * max(abs(expected), 1.0)
    assert np.all(nu + lam >= 1.0 - 1e-12 * max(abs(nu), 1.0))
    if regime == "zero":
        assert nu == pytest.approx(math.sqrt(size), rel=1e-15)
