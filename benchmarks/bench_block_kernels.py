"""The block-diagonal kernels of RELAX and ROUND against the forms they replaced.

Five kernels carry the per-step algebra of Approx-FIRAL:

* ``B(·)`` — ``B_k = sum_i w_i h_i^k (1 - h_i^k) x_i x_i^T`` (Eq. 14), the
  preconditioner assembly of every RELAX step and the η score of every ROUND
  trial, now one GEMM per class
  (:func:`repro.fisher.hessian.weighted_block_diagonal`);
* the apply ``A v`` of a block-diagonal matrix to ``s`` right-hand sides,
  the preconditioner of every CG step, now one batched ``matmul``
  (:meth:`repro.linalg.BlockDiagonalMatrix.matvec`);
* ``Sigma_z V`` (row ``sigma``), the operator of every CG step, now one
  prepared Lemma-2 apply over the pool rows and the labeled rows together
  (:class:`repro.fisher.SigmaOperator`), with ``m ≈ n / 12`` labeled rows;
* Line 9 of Algorithm 3 (row ``eig``), the generalized eigenvalues of every
  ROUND step's accumulated Hessian ``A`` (here ``B(H_o)``) with respect to
  ``Sigma_*``, now one batched ``eigvalsh`` of ``W A W^T``
  (:func:`repro.core.approx_round.generalized_block_eigenvalues`), with the
  whitener ``W`` built once outside the timed calls, as
  :class:`~repro.core.approx_round.RoundPrecompute` builds it;
* Line 10 (row ``nu``), the FTRL constant ν from that step's ``m = c·d``
  eigenvalues, now Newton's method
  (:func:`repro.linalg.bisection.find_ftrl_nu`).

The replaced forms are kept here as the reference: the einsums for the
first two; for ``Sigma_z V`` the two Lemma-2 calls each CG step used to
make, one over the z-weighted pool (``T *= h`` then ``T *= w``) and one over
the labeled rows, each projecting into a fresh buffer; for Line 9 one LAPACK
``dsygvd`` call per class block (SciPy's ``get_lapack_funcs``), each
re-factoring ``Sigma_*``; for Line 10 a bisection with the replaced solver's
stopping rule (``|phi - 1|`` or the bracket below 1e-10).  Both ``Sigma_z``
forms start from compute-dtype rows prepared once, as RELAX's do.  The
prepared apply's weights are folded in and its scratch laid out once per
mirror-descent step (by the preparation and the warm-up call), outside the
timed calls and the ``tracemalloc`` peak, as a CG solve's ~35 applies
amortize them.  The inputs take the solver's dtypes: features and
probabilities in the storage dtype (the payload's ``dtype``), which every
form promotes to the compute dtype as RELAX does, and the weights, the
blocks applied and the right-hand sides in the compute dtype
(``apply_dtype``), as the CG solve's are.  For each shape the script times
both forms after one warm-up call each, alternating them call by call for
``REPEATS`` rounds and swapping which goes first every round, so host noise
lands on both; it reports each form's median, the speedup, the largest
difference relative to the reference's largest entry (for ``nu``, relative
to ``max(|nu|, 1)``), and the ``tracemalloc`` peak of one call of each form:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/bench_block_kernels.py
    PYTHONPATH=src python benchmarks/bench_block_kernels.py --tiny --label ci

The full run writes ``benchmarks/results/BENCH_block_kernels.json``;
``--tiny`` runs seconds-scale shapes and writes ``BENCH_block_kernels_tiny``
(plus ``_<label>``), so a smoke run never overwrites the committed payload.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import time
import tracemalloc

import numpy as np
from scipy.linalg import get_lapack_funcs

from repro.backend import COMPUTE_DTYPE, default_dtype, get_backend
from repro.core.approx_round import block_whitener, generalized_block_eigenvalues
from repro.core.config import SIGMA_REGULARIZATION
from repro.fisher import FisherDataset, SigmaOperator
from repro.fisher.hessian import weighted_block_diagonal
from repro.linalg.bisection import find_ftrl_nu
from repro.linalg.block_diag import BlockDiagonalMatrix

from _utils import bench_payload, random_probabilities, write_bench_json

#: (n, c, d): the paper's reference shape (cifar10, c=10, d=20) and two
#: class counts of the large-c regime; s right-hand sides per apply.
SHAPES = ((300, 10, 20), (600, 50, 50), (1212, 100, 100))
TINY_SHAPES = ((60, 4, 8), (150, 10, 12))
NUM_RHS = 10
#: Labeled rows per pool row in the ``Sigma_z`` row.
LABELED_FRACTION = 1 / 12
#: Timed calls per form and shape, after one warm-up call; the two forms
#: alternate, each going first in half of the rounds.
REPEATS = 10

#: dsygvd, the LAPACK routine behind ``scipy.linalg.eigh(a, b, eigvals_only=True)``.
_SYGVD = get_lapack_funcs("sygvd", dtype=np.float64)


def einsum_block_diagonal(X: np.ndarray, H: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The replaced ``B(·)`` kernel: promotion, then one three-operand einsum.

    ``h (1 - h)`` is formed after the promotion, as ``weighted_block_diagonal``
    forms it, so the two differ only by their summation order.
    """

    H64 = H.astype(COMPUTE_DTYPE)
    coeff = H64 * (1.0 - H64) * weights[:, None]
    X64 = X.astype(COMPUTE_DTYPE)
    return np.einsum("ik,id,ie->kde", coeff, X64, X64, optimize=True)


def einsum_apply(blocks: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The replaced preconditioner apply: ``einsum("kij,kjs->kis")``."""

    c, d = blocks.shape[:2]
    return np.einsum("kij,kjs->kis", blocks, V.reshape(c, d, -1)).reshape(c * d, -1)


def lemma2_call(X: np.ndarray, XT: np.ndarray, H: np.ndarray, V: np.ndarray, weights=None) -> np.ndarray:
    """One call of the replaced Lemma-2 kernel: a fresh projection buffer, and
    the weights multiplied in after ``h``."""

    n, d = X.shape
    c, s = H.shape[1], V.shape[1]
    slices = np.transpose(V.reshape(c, d, s), (0, 2, 1)).reshape(c * s, d)
    T = np.matmul(slices, XT).reshape(c, s, n)
    a = np.matmul(H.reshape(n, 1, c), np.transpose(T, (2, 0, 1))).reshape(n, s)
    T -= np.transpose(a, (1, 0))
    T *= np.transpose(H, (1, 0))[:, None, :]
    if weights is not None:
        T *= weights
    out = np.matmul(XT, np.transpose(T.reshape(c * s, n), (1, 0)))
    return np.transpose(out.reshape(d, c, s), (1, 0, 2)).reshape(d * c, s)


def two_call_sigma(pool: tuple, labeled: tuple, V: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The replaced ``Sigma_z V`` partial: ``H_z V`` and ``H_o V``, two calls, summed."""

    return lemma2_call(*pool, V, weights) + lemma2_call(*labeled, V)


def sygvd_eigenvalues(a_blocks: np.ndarray, s_blocks: np.ndarray) -> np.ndarray:
    """The replaced Line 9: both inputs symmetrized, then one ``dsygvd`` call
    per block, each factoring its ``S_k`` again."""

    a = 0.5 * (a_blocks + np.swapaxes(a_blocks, -1, -2))
    s = 0.5 * (s_blocks + np.swapaxes(s_blocks, -1, -2))
    if not (np.isfinite(a).all() and np.isfinite(s).all()):
        raise ValueError("array must not contain infs or NaNs")
    out = np.empty(a.shape[:2])
    for k in range(a.shape[0]):
        w, _, info = _SYGVD(a[k], s[k], itype=1, jobz="N", uplo="L")
        if info != 0:
            raise np.linalg.LinAlgError(f"dsygvd failed on block {k} (info={info})")
        out[k] = w
    return out


def bisection_nu(eigenvalues: np.ndarray, tolerance: float = 1e-10) -> float:
    """The replaced Line 10: bisection for ``sum_j (nu + lambda_j)^-2 = 1``
    on ``[1 - min lambda, sqrt(m) - min lambda]``, stopped at ``|phi - 1|`` or a
    relative bracket below ``tolerance``."""

    lam = np.clip(eigenvalues.ravel(), 0.0, None)
    lo, hi = 1.0 - lam.min(), math.sqrt(lam.size) - lam.min()
    while True:
        mid = 0.5 * (lo + hi)
        excess = float(np.sum(1.0 / (mid + lam) ** 2)) - 1.0
        if abs(excess) <= tolerance or hi - lo <= tolerance * max(1.0, abs(mid)):
            return mid
        if excess > 0.0:
            lo = mid
        else:
            hi = mid


def interleaved_median_seconds(reference_fn, kernel_fn) -> tuple:
    """Each form's median seconds per call, the two alternated call by call."""

    forms = (reference_fn, kernel_fn)
    samples = ([], [])
    for fn in forms:
        fn()
    for round_index in range(REPEATS):
        for which in (0, 1) if round_index % 2 == 0 else (1, 0):
            start = time.perf_counter()
            forms[which]()
            samples[which].append(time.perf_counter() - start)
    return statistics.median(samples[0]), statistics.median(samples[1])


def traced_peak_bytes(fn) -> int:
    """``tracemalloc`` peak of one call, inputs excluded."""

    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        return int(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def compare(reference_fn, kernel_fn, *, scale=None) -> dict:
    """Time and check one kernel against its reference; differences are taken
    relative to ``scale``, by default the reference's largest entry."""

    reference = np.asarray(reference_fn())
    result = np.asarray(get_backend().to_numpy(kernel_fn())).reshape(reference.shape)
    reference_s, kernel_s = interleaved_median_seconds(reference_fn, kernel_fn)
    scale = np.max(np.abs(reference)) if scale is None else scale
    return {
        "reference_ms": 1e3 * reference_s,
        "kernel_ms": 1e3 * kernel_s,
        "speedup": reference_s / kernel_s,
        "max_rel_diff": float(np.max(np.abs(result - reference)) / scale),
        "reference_peak_bytes": traced_peak_bytes(reference_fn),
        "kernel_peak_bytes": traced_peak_bytes(kernel_fn),
    }


def compare_sigma(X: np.ndarray, H: np.ndarray, weights: np.ndarray, V: np.ndarray, m: int) -> dict:
    """``Sigma_z V`` over the first ``n - m`` rows as the pool and the last ``m``
    as the labeled set: the two-call reference against one prepared apply."""

    n = X.shape[0] - m
    dataset = FisherDataset(
        pool_features=X[:n], pool_probabilities=H[:n], labeled_features=X[n:], labeled_probabilities=H[n:]
    )
    X64, H64 = X.astype(COMPUTE_DTYPE), H.astype(COMPUTE_DTYPE)
    pool = (X64[:n], np.transpose(X64[:n]), H64[:n])
    labeled = (X64[n:], np.transpose(X64[n:]), H64[n:])
    prepared = SigmaOperator(dataset).prepare(weights[:n])
    return compare(lambda: two_call_sigma(pool, labeled, V, weights[:n]), lambda: prepared.matvec(V))


def run_shape(n: int, c: int, d: int, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    m = max(1, round(n * LABELED_FRACTION))
    X = rng.standard_normal((n + m, d)).astype(default_dtype())
    H = random_probabilities(rng, n + m, c).astype(default_dtype())
    weights = rng.uniform(0.0, 1.0, size=n + m).astype(COMPUTE_DTYPE)
    V = rng.standard_normal((c * d, NUM_RHS)).astype(COMPUTE_DTYPE)
    blocks = einsum_block_diagonal(X[:n], H[:n], weights[:n])
    matrix = BlockDiagonalMatrix(blocks)
    # Line 9's operands: Sigma_* over the pool and the labeled rows, and B(H_o)
    # as the accumulated Hessian; Line 10's eigenvalues are their pencil's.
    labeled = weighted_block_diagonal(X[n:], H[n:]).blocks
    sigma_star = BlockDiagonalMatrix(blocks + labeled).add_identity(SIGMA_REGULARIZATION).blocks
    whitener = block_whitener(sigma_star)
    eigenvalues = sygvd_eigenvalues(labeled, sigma_star)
    nu = bisection_nu(eigenvalues)
    return {
        "n": n,
        "m": m,
        "c": c,
        "d": d,
        "s": NUM_RHS,
        "assembly": compare(
            lambda: einsum_block_diagonal(X[:n], H[:n], weights[:n]),
            lambda: weighted_block_diagonal(X[:n], H[:n], weights[:n]).blocks,
        ),
        "apply": compare(lambda: einsum_apply(blocks, V), lambda: matrix.matvec(V)),
        "sigma": compare_sigma(X, H, weights, V, m),
        "eig": compare(
            lambda: sygvd_eigenvalues(labeled, sigma_star),
            lambda: generalized_block_eigenvalues(labeled, whitener),
        ),
        "nu": compare(
            lambda: bisection_nu(eigenvalues),
            lambda: find_ftrl_nu(eigenvalues),
            scale=max(abs(nu), 1.0),
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--tiny", action="store_true", help="CI-smoke shapes (seconds)")
    parser.add_argument("--label", default=None, help="suffix for the BENCH json filename")
    args = parser.parse_args()

    start = time.perf_counter()
    rows = [run_shape(n, c, d) for n, c, d in (TINY_SHAPES if args.tiny else SHAPES)]
    wall = time.perf_counter() - start

    # Reference: the einsum (assembly, apply), the two Lemma-2 calls (sigma),
    # the dsygvd loop (eig) or the bisection (nu).
    print(f"{'kernel':<9} {'(n, c, d)':>16} {'ref ms':>9} {'kernel ms':>10} {'speedup':>8} "
          f"{'max rel diff':>13} {'ref peak':>10} {'kernel peak':>12}")
    for row in rows:
        for kernel in ("assembly", "apply", "sigma", "eig", "nu"):
            r = row[kernel]
            print(
                f"{kernel:<9} {str((row['n'], row['c'], row['d'])):>16} {r['reference_ms']:9.3f} "
                f"{r['kernel_ms']:10.3f} {r['speedup']:7.2f}x {r['max_rel_diff']:13.1e} "
                f"{r['reference_peak_bytes'] / 2**20:7.2f}MiB {r['kernel_peak_bytes'] / 2**20:9.2f}MiB"
            )

    name = "block_kernels" + ("_tiny" if args.tiny else "") + (f"_{args.label}" if args.label else "")
    payload = bench_payload(
        "block_kernels",
        wall_clock_seconds=wall,
        repeats=REPEATS,
        apply_dtype=np.dtype(COMPUTE_DTYPE).name,
        openblas_num_threads=os.environ.get("OPENBLAS_NUM_THREADS"),
        shapes=rows,
    )
    print(f"wrote {write_bench_json(name, payload)}")


if __name__ == "__main__":
    main()
