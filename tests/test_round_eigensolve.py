"""Line 9 of Algorithm 3: the whitened block eigensolve, and its call structure.

``generalized_block_eigenvalues(A, block_whitener(S))`` is checked against
SciPy's generalized eigensolver (``dsygvd`` per block), a reference sharing
no code with it.  Both compute in float64 from the same stored values, and
both reduce through a Cholesky factor of ``S``, so each may be off by about
``d * eps64 * cond(S)`` times the block's largest eigenvalue; the tolerance
is fixed from ``d`` and ``cond(S)`` (measured on the stored ``S``) before
the function runs.  The storage dtype bounds the condition number a draw can
hold: a float32 ``S`` stays positive definite only while
``cond(S) < 1 / (2 d eps32)``.

The structural pin counts the backend's linear-algebra calls per rank: one
whitening per η search, one batched ``eigvalsh`` per greedy step plus one
per scored trial, and no generalized eigensolver.
"""

from __future__ import annotations

import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

from repro.backend import NumpyBackend, use_backend
from repro.core.approx_round import (
    RoundPrecompute,
    approx_round,
    block_whitener,
    generalized_block_eigenvalues,
)
from repro.core.config import RoundConfig
from repro.core.eta_selection import select_eta
from repro.parallel.distributed_round import distributed_round
from tests.conftest import make_fisher_dataset

EPS64 = np.finfo(np.float64).eps


def spd_blocks(rng, c: int, d: int, cond: float, dtype) -> np.ndarray:
    """Random SPD blocks with eigenvalues spread geometrically over ``[1, cond]``."""

    q, _ = np.linalg.qr(rng.standard_normal((c, d, d)))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    return (scale * np.einsum("kij,j,klj->kil", q, np.geomspace(1.0, cond, d), q)).astype(dtype)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    num_classes=st.integers(1, 5),
    dimension=st.integers(1, 8),
    log_cond=st.floats(0.0, 8.0),
    rank=st.integers(0, 8),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_property_whitened_eigenvalues_match_scipy(seed, num_classes, dimension, log_cond, rank, dtype):
    rng = np.random.default_rng(seed)
    c, d = num_classes, dimension
    cond = min(10.0**log_cond, 1.0 / (2 * d * np.finfo(dtype).eps))
    S = spd_blocks(rng, c, d, cond, dtype)
    # PSD like ROUND's accumulated Hessians, possibly rank deficient.
    G = rng.standard_normal((c, d, min(rank, d)))
    A = (10.0 ** rng.uniform(-3.0, 3.0) * (G @ np.swapaxes(G, 1, 2))).astype(dtype)

    S64, A64 = S.astype(np.float64), A.astype(np.float64)
    tolerances = [8 * d * EPS64 * np.linalg.cond(S64[k]) for k in range(c)]

    whitener = block_whitener(S)
    assert whitener.dtype == np.float64 and whitener.shape == (c, d, d)
    got = generalized_block_eigenvalues(A, whitener)
    assert got.dtype == np.float64 and got.shape == (c, d)
    for k in range(c):
        expected = sla.eigh(A64[k], S64[k], eigvals_only=True)
        scale = max(float(np.abs(expected).max()), np.finfo(np.float64).tiny)
        assert np.abs(got[k] - expected).max() <= tolerances[k] * scale


def test_whitener_rejects_indefinite_blocks():
    blocks = np.stack([np.eye(3), np.diag([1.0, -1.0, 1.0])])
    with pytest.raises(np.linalg.LinAlgError):
        block_whitener(blocks)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_precompute_whitens_its_own_class_blocks_in_float64(dtype):
    dataset = make_fisher_dataset(seed=3, num_pool=20, dimension=4, num_classes=3, dtype=dtype)
    precompute = RoundPrecompute.build(dataset, np.full(20, 0.25))
    assert precompute.whitener.dtype == np.float64
    np.testing.assert_array_equal(precompute.whitener, block_whitener(precompute.sigma_star.blocks))


class CountingBackend(NumpyBackend):
    """NumPy backend that counts its factorization and eigensolver calls per thread."""

    name = "counting-numpy"

    def __init__(self):
        self.calls = Counter()
        self._lock = threading.Lock()

    def _count(self, op):
        with self._lock:
            self.calls[(threading.get_ident(), op)] += 1

    def cholesky(self, a, out_dtype=None):
        self._count("cholesky")
        return super().cholesky(a, out_dtype=out_dtype)

    def eigvalsh(self, a):
        self._count("eigvalsh")
        return super().eigvalsh(a)

    def eigh(self, a):
        self._count("eigh")
        return super().eigh(a)

    def per_thread(self):
        threads = sorted({ident for ident, _ in self.calls})
        return [{op: self.calls[(ident, op)] for op in ("cholesky", "eigvalsh", "eigh")} for ident in threads]


@pytest.mark.parametrize("grid", [(1.0,), (0.5, 1.0, 2.0)])
@pytest.mark.parametrize("num_ranks", [1, 2])
def test_one_whitening_per_search_and_one_eigvalsh_per_step(num_ranks, grid):
    budget = 4
    dataset = make_fisher_dataset(seed=5, num_pool=24, num_labeled=6, dimension=4, num_classes=3)
    z = np.full(dataset.num_pool, budget / dataset.num_pool)
    backend = CountingBackend()
    assert not hasattr(backend, "eigh_generalized")
    with use_backend(backend):
        if num_ranks == 1:
            select_eta(approx_round, dataset, z, budget, eta_grid=grid, config=RoundConfig())
        else:
            distributed_round(dataset, z, budget, eta_grid=grid, num_ranks=num_ranks)
    scored = len(grid) if len(grid) > 1 else 0
    expected = {"cholesky": 1, "eigvalsh": len(grid) * budget + scored, "eigh": 0}
    assert backend.per_thread() == [expected] * num_ranks
