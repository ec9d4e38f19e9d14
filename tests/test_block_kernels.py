"""The block-diagonal GEMM kernels against their references, for any shape.

``B(·)`` is assembled with one GEMM per class
(:func:`repro.fisher.hessian.coefficient_blocks`) and the preconditioner is
applied with one batched ``matmul`` (:meth:`BlockDiagonalMatrix.matvec`).
Both replaced einsums whose summation order differs, so the einsums stay
here as references next to the dense Definition-1 forms, compared within a
tolerance fixed from the dtype and the sum length before any comparison:
each entry may differ by that tolerance times the sum of the absolute
values of its terms.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx_round import RoundPrecompute
from repro.core.exact_round import ExactRoundPrecompute
from repro.fisher import FisherDataset
from repro.fisher.hessian import block_diagonal_of_sum, sum_hessian_dense, weighted_block_diagonal
from repro.linalg.block_diag import BlockDiagonalMatrix
from tests.conftest import random_probabilities

problems = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "num_points": st.integers(1, 40),
        "dimension": st.integers(1, 8),
        "num_classes": st.integers(1, 6),
        "num_probes": st.integers(1, 5),
        "vector": st.booleans(),
        "weights": st.sampled_from(["none", "zero", "positive", "mixed"]),
        "dtype": st.sampled_from([np.float32, np.float64]),
    }
)


def tolerance(dtype, terms: int) -> float:
    """Relative bound for a float64 sum of ``terms`` products stored in ``dtype``.

    Two float64 summations of ``terms`` products (kernel and reference) may
    each be off by ``terms * eps64`` of their absolute sum; storing or
    computing in ``dtype`` adds a few of its own ulps.
    """

    return 2 * (terms + 2) * np.finfo(np.float64).eps + 4 * np.finfo(dtype).eps


def assert_within(actual, expected, bound, tol):
    error = np.abs(np.asarray(actual, dtype=np.float64) - np.asarray(expected, dtype=np.float64))
    assert np.all(error <= tol * bound), float(np.max(error - tol * bound))


def _weights(rng, kind, n):
    if kind == "none":
        return None
    if kind == "zero":
        return np.zeros(n)
    weights = rng.uniform(0.1, 2.0, size=n)
    if kind == "mixed":
        weights[rng.random(n) < 0.4] = 0.0
    return weights


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problems)
def test_block_diagonal_matches_dense_and_einsum(p):
    rng = np.random.default_rng(p["seed"])
    n, d, c, dtype = p["num_points"], p["dimension"], p["num_classes"], p["dtype"]
    X = rng.standard_normal((n, d)).astype(dtype)
    H = random_probabilities(rng, n, c + 1)[:, :c].astype(dtype)
    weights = _weights(rng, p["weights"], n)
    w = np.ones(n) if weights is None else weights

    blocks = weighted_block_diagonal(X, H, weights, dtype=dtype)
    assert blocks.blocks.shape == (c, d, d) and blocks.blocks.dtype == dtype

    X64 = X.astype(np.float64)
    # Sum of |terms| per entry: covers both h (1 - h) and the dense h - h^2.
    H64 = H.astype(np.float64)
    terms = np.abs(w)[:, None] * (H64 + H64 * H64)
    bound = np.einsum("ik,id,ie->kde", terms, np.abs(X64), np.abs(X64))
    tol = tolerance(dtype, n)

    dense = BlockDiagonalMatrix.from_dense(sum_hessian_dense(X, H, weights=weights), c)
    assert_within(blocks.blocks, dense.blocks, bound, tol)

    # Float32 inputs are promoted before h (1 - h) is formed, as the dense
    # form promotes them, so a float64 result meets the float64 bound.
    X32, H32 = X.astype(np.float32), H.astype(np.float32)
    X32_64, H32_64 = X32.astype(np.float64), H32.astype(np.float64)
    terms32 = np.abs(w)[:, None] * (H32_64 + H32_64 * H32_64)
    bound32 = np.einsum("ik,id,ie->kde", terms32, np.abs(X32_64), np.abs(X32_64))
    dense32 = BlockDiagonalMatrix.from_dense(sum_hessian_dense(X32, H32, weights=weights), c)
    assert_within(
        weighted_block_diagonal(X32, H32, weights).blocks,
        dense32.blocks,
        bound32,
        tolerance(np.float64, n),
    )

    # The einsum this kernel replaced, on the same coefficients.
    coeff = H64 * (1.0 - H64)
    if weights is not None:
        coeff = coeff * weights[:, None]
    reference = np.einsum("ik,id,ie->kde", coeff, X64, X64, optimize=True)
    assert_within(blocks.blocks, reference, bound, tol)

    # Every entry point shares the one kernel, bit for bit.
    np.testing.assert_array_equal(
        block_diagonal_of_sum(X, H, weights, dtype=dtype).blocks, blocks.blocks
    )
    dataset = FisherDataset(
        pool_features=X, pool_probabilities=H, labeled_features=X[:1], labeled_probabilities=H[:1]
    )
    np.testing.assert_array_equal(
        dataset.pool_block_diagonal(weights).blocks,
        weighted_block_diagonal(X, H, weights).blocks,
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problems)
def test_matvec_matches_dense_and_einsum(p):
    rng = np.random.default_rng(p["seed"])
    d, c, dtype = p["dimension"], p["num_classes"], p["dtype"]
    A = BlockDiagonalMatrix(rng.standard_normal((c, d, d)).astype(dtype), copy=False)
    shape = (d * c,) if p["vector"] else (d * c, p["num_probes"])
    V = rng.standard_normal(shape).astype(dtype)

    applied = A.matvec(V)
    assert applied.shape == V.shape and applied.dtype == dtype

    dense = A.to_dense().astype(np.float64)
    V64 = V.astype(np.float64)
    bound = np.abs(dense) @ np.abs(V64)
    tol = tolerance(dtype, d)
    assert_within(applied, dense @ V64, bound, tol)

    # The einsum this apply replaced.
    Vb = V.reshape(c, d, -1)
    reference = np.einsum("kij,kjs->kis", A.blocks, Vb).reshape(V.shape)
    assert_within(applied, reference, bound, tol)


def test_batch_scores_share_the_kernel():
    """Both ROUND precomputes' η scores assemble with the kernel."""

    rng = np.random.default_rng(5)
    n, d, c = 30, 4, 3
    dataset = FisherDataset(
        pool_features=rng.standard_normal((n, d)),
        pool_probabilities=random_probabilities(rng, n, c),
        labeled_features=rng.standard_normal((6, d)),
        labeled_probabilities=random_probabilities(rng, 6, c),
    )
    z = np.full(n, 4.0 / n)
    selected = np.array([3, 17, 8, 25])
    expected = weighted_block_diagonal(
        dataset.pool_features[selected], dataset.pool_probabilities[selected]
    ).min_eigenvalue()
    assert RoundPrecompute.build(dataset, z).score(selected) == expected
    assert ExactRoundPrecompute.build(dataset, z).score(selected) == expected


def test_assembly_scratch_is_order_n_d():
    """One ``B(·)`` at (n, c, d) = (4000, 64, 16) peaks below 8 MiB.

    Only the call's own allocations count: each ``(n, c)`` coefficient array
    is 2 MiB and one scaled ``(d, n)`` copy of ``X`` 0.5 MiB, while a
    ``(c, n, d)`` temporary alone would be 31 MiB.
    """

    rng = np.random.default_rng(0)
    n, c, d = 4000, 64, 16
    X = rng.standard_normal((n, d))
    H = random_probabilities(rng, n, c + 1)[:, :c]
    weights = rng.uniform(0.0, 1.0, size=n)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        weighted_block_diagonal(X, H, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
