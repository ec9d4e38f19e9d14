"""RELAX's CG kernels against the forms they replaced.

Three kernels carry the per-step algebra of Approx-FIRAL:

* ``B(·)`` — ``B_k = sum_i w_i h_i^k (1 - h_i^k) x_i x_i^T`` (Eq. 14), the
  preconditioner assembly of every RELAX step and the η score of every ROUND
  trial, now one GEMM per class
  (:func:`repro.fisher.hessian.weighted_block_diagonal`);
* the apply ``A v`` of a block-diagonal matrix to ``s`` right-hand sides,
  the preconditioner of every CG step, now one batched ``matmul``
  (:meth:`repro.linalg.BlockDiagonalMatrix.matvec`);
* ``Sigma_z V`` (row ``sigma``), the operator of every CG step, now one
  prepared Lemma-2 apply over the pool rows and the labeled rows together
  (:class:`repro.fisher.SigmaOperator`), with ``m ≈ n / 12`` labeled rows.

The replaced forms are kept here as the reference: the einsums for the
first two, and for ``Sigma_z V`` the two Lemma-2 calls each CG step used to
make, one over the z-weighted pool (``T *= h`` then ``T *= w``) and one over
the labeled rows, each projecting into a fresh buffer.  Both ``Sigma_z``
forms start from compute-dtype rows prepared once, as RELAX's do.  The
prepared apply's weights are folded in and its scratch laid out once per
mirror-descent step (by the preparation and the warm-up call), outside the
timed calls and the ``tracemalloc`` peak, as a CG solve's ~35 applies
amortize them.  The inputs take the solver's dtypes: features and
probabilities in the storage dtype (the payload's ``dtype``), which every
form promotes to the compute dtype as RELAX does, and the weights, the
blocks applied and the right-hand sides in the compute dtype
(``apply_dtype``), as the CG solve's are.  For each shape the script times
both forms (median of ``REPEATS`` calls after one warm-up call), reports the
speedup, the largest difference relative to the reference's largest entry,
and the ``tracemalloc`` peak of one call of each form:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/bench_block_kernels.py
    PYTHONPATH=src python benchmarks/bench_block_kernels.py --tiny --label ci

The full run writes ``benchmarks/results/BENCH_block_kernels.json``;
``--tiny`` runs seconds-scale shapes and writes ``BENCH_block_kernels_tiny``
(plus ``_<label>``), so a smoke run never overwrites the committed payload.
"""

from __future__ import annotations

import argparse
import os
import statistics
import time
import tracemalloc

import numpy as np

from repro.backend import COMPUTE_DTYPE, default_dtype, get_backend
from repro.fisher import FisherDataset, SigmaOperator
from repro.fisher.hessian import weighted_block_diagonal
from repro.linalg.block_diag import BlockDiagonalMatrix

from _utils import bench_payload, random_probabilities, write_bench_json

#: (n, c, d): the paper's reference shape (cifar10, c=10, d=20) and two
#: class counts of the large-c regime; s right-hand sides per apply.
SHAPES = ((300, 10, 20), (600, 50, 50), (1212, 100, 100))
TINY_SHAPES = ((60, 4, 8), (150, 10, 12))
NUM_RHS = 10
#: Labeled rows per pool row in the ``Sigma_z`` row.
LABELED_FRACTION = 1 / 12
#: Timed calls per form and shape, after one warm-up call.
REPEATS = 5


def einsum_block_diagonal(X: np.ndarray, H: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The replaced ``B(·)`` kernel: promotion, then one three-operand einsum."""

    coeff = (H * (1.0 - H)).astype(COMPUTE_DTYPE) * weights[:, None]
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


def median_seconds(fn) -> float:
    fn()
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def traced_peak_bytes(fn) -> int:
    """``tracemalloc`` peak of one call, inputs excluded."""

    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        return int(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def compare(reference_fn, kernel_fn) -> dict:
    reference = np.asarray(reference_fn())
    result = np.asarray(get_backend().to_numpy(kernel_fn())).reshape(reference.shape)
    reference_s = median_seconds(reference_fn)
    kernel_s = median_seconds(kernel_fn)
    return {
        "reference_ms": 1e3 * reference_s,
        "kernel_ms": 1e3 * kernel_s,
        "speedup": reference_s / kernel_s,
        "max_rel_diff": float(np.max(np.abs(result - reference)) / np.max(np.abs(reference))),
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
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--tiny", action="store_true", help="CI-smoke shapes (seconds)")
    parser.add_argument("--label", default=None, help="suffix for the BENCH json filename")
    args = parser.parse_args()

    start = time.perf_counter()
    rows = [run_shape(n, c, d) for n, c, d in (TINY_SHAPES if args.tiny else SHAPES)]
    wall = time.perf_counter() - start

    # Reference: the einsum (assembly, apply) or the two Lemma-2 calls (sigma).
    print(f"{'kernel':<9} {'(n, c, d)':>16} {'ref ms':>9} {'kernel ms':>10} {'speedup':>8} "
          f"{'max rel diff':>13} {'ref peak':>10} {'kernel peak':>12}")
    for row in rows:
        for kernel in ("assembly", "apply", "sigma"):
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
