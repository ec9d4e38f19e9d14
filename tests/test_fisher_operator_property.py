"""The prepared Lemma-2 operator against dense references, for any shape.

:class:`~repro.fisher.matvec.HessianSumOperator` runs RELAX's matvecs and its
Line-9 gradient as a fixed sequence of matrix products over buffers in a
chosen layout.  Whatever the shape, dtype or weights, it must equal the
dense Hessian sum of Eq. 3 applied to the probes, and the public entry
points that share it must agree with it bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fisher import FisherDataset
from repro.fisher.hessian import point_hessian_dense, sum_hessian_dense
from repro.fisher.matvec import (
    HessianSumOperator,
    hessian_sum_matvec,
    probe_hessian_quadratic_forms,
)
from tests.conftest import random_probabilities

problems = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "num_points": st.integers(1, 40),
        "dimension": st.integers(1, 8),
        "num_classes": st.integers(1, 6),
        "num_probes": st.integers(1, 5),
        "vector": st.booleans(),
        "dtype": st.sampled_from([np.float32, np.float64]),
    }
)


def assert_close(actual, expected):
    scale = 1.0 + float(np.abs(expected).max(initial=0.0))
    np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-11 * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problems)
def test_operator_matches_dense_and_entry_points(p):
    rng = np.random.default_rng(p["seed"])
    n, d, c = p["num_points"], p["dimension"], p["num_classes"]
    # Reduced (c of c + 1 classes) probabilities, the parameterization sessions use.
    X = rng.standard_normal((n, d)).astype(p["dtype"])
    H = random_probabilities(rng, n, c + 1)[:, :c].astype(p["dtype"])
    shape = (d * c,) if p["vector"] else (d * c, p["num_probes"])
    V = rng.standard_normal(shape)
    W = rng.standard_normal(shape)
    weights = rng.uniform(0.0, 2.0, size=n)
    weights[rng.random(n) < 0.3] = 0.0

    operator = HessianSumOperator(X, H)
    applied = operator.matvec(V, weights)
    assert applied.shape == V.shape
    assert_close(applied, sum_hessian_dense(X, H, weights=weights) @ V)
    assert_close(operator.matvec(V), sum_hessian_dense(X, H) @ V)

    V2, W2 = V.reshape(d * c, -1), W.reshape(d * c, -1)
    dense_forms = [
        np.mean([V2[:, j] @ point_hessian_dense(X[i], H[i]) @ W2[:, j] for j in range(V2.shape[1])])
        for i in range(n)
    ]
    forms = operator.probe_quadratic_forms(V, W)
    assert forms.shape == (n,)
    assert_close(forms, np.array(dense_forms))

    dataset = FisherDataset(
        pool_features=X,
        pool_probabilities=H,
        labeled_features=X[:1],
        labeled_probabilities=H[:1],
    )
    np.testing.assert_array_equal(hessian_sum_matvec(X, H, V, weights=weights), applied)
    np.testing.assert_array_equal(dataset.pool_hessian_matvec(V, weights), applied)
    np.testing.assert_array_equal(probe_hessian_quadratic_forms(X, H, V, W), forms)
    np.testing.assert_array_equal(dataset.pool_operator.probe_quadratic_forms(V, W), forms)
