"""Block-diagonal kernels: the GEMM forms against the einsums they replaced.

Two kernels carry the block-diagonal algebra of Approx-FIRAL:

* ``B(·)`` — ``B_k = sum_i w_i h_i^k (1 - h_i^k) x_i x_i^T`` (Eq. 14), the
  preconditioner assembly of every RELAX step and the η score of every ROUND
  trial, now one GEMM per class
  (:func:`repro.fisher.hessian.weighted_block_diagonal`);
* the apply ``A v`` of a block-diagonal matrix to ``s`` right-hand sides,
  the preconditioner of every CG step, now one batched ``matmul``
  (:meth:`repro.linalg.BlockDiagonalMatrix.matvec`).

The einsums they replaced are kept here as the reference.  The inputs take
the solver's dtypes: features and probabilities in the storage dtype (the
payload's ``dtype``), which both forms of ``B(·)`` promote to the compute
dtype as RELAX does, and the weights, the blocks applied and the right-hand
sides in the compute dtype (``apply_dtype``), as the CG preconditioner's
are.  For each shape the script times both forms (median of ``REPEATS``
calls after one warm-up call), reports the speedup, the largest difference
relative to the reference's largest entry, and the ``tracemalloc`` peak of
one call of each form:

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
from repro.fisher.hessian import weighted_block_diagonal
from repro.linalg.block_diag import BlockDiagonalMatrix

from _utils import bench_payload, random_probabilities, write_bench_json

#: (n, c, d): the paper's reference shape (cifar10, c=10, d=20) and two
#: class counts of the large-c regime; s right-hand sides per apply.
SHAPES = ((300, 10, 20), (600, 50, 50), (1212, 100, 100))
TINY_SHAPES = ((60, 4, 8), (150, 10, 12))
NUM_RHS = 10
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
    einsum_s = median_seconds(reference_fn)
    gemm_s = median_seconds(kernel_fn)
    return {
        "einsum_ms": 1e3 * einsum_s,
        "gemm_ms": 1e3 * gemm_s,
        "speedup": einsum_s / gemm_s,
        "max_rel_diff": float(np.max(np.abs(result - reference)) / np.max(np.abs(reference))),
        "einsum_peak_bytes": traced_peak_bytes(reference_fn),
        "gemm_peak_bytes": traced_peak_bytes(kernel_fn),
    }


def run_shape(n: int, c: int, d: int, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)).astype(default_dtype())
    H = random_probabilities(rng, n, c).astype(default_dtype())
    weights = rng.uniform(0.0, 1.0, size=n).astype(COMPUTE_DTYPE)
    V = rng.standard_normal((c * d, NUM_RHS)).astype(COMPUTE_DTYPE)
    blocks = einsum_block_diagonal(X, H, weights)
    matrix = BlockDiagonalMatrix(blocks)
    return {
        "n": n,
        "c": c,
        "d": d,
        "s": NUM_RHS,
        "assembly": compare(
            lambda: einsum_block_diagonal(X, H, weights),
            lambda: weighted_block_diagonal(X, H, weights).blocks,
        ),
        "apply": compare(lambda: einsum_apply(blocks, V), lambda: matrix.matvec(V)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--tiny", action="store_true", help="CI-smoke shapes (seconds)")
    parser.add_argument("--label", default=None, help="suffix for the BENCH json filename")
    args = parser.parse_args()

    start = time.perf_counter()
    rows = [run_shape(n, c, d) for n, c, d in (TINY_SHAPES if args.tiny else SHAPES)]
    wall = time.perf_counter() - start

    print(f"{'kernel':<9} {'(n, c, d)':>16} {'einsum ms':>11} {'GEMM ms':>10} {'speedup':>8} "
          f"{'max rel diff':>13} {'einsum peak':>12} {'GEMM peak':>10}")
    for row in rows:
        for kernel in ("assembly", "apply"):
            r = row[kernel]
            print(
                f"{kernel:<9} {str((row['n'], row['c'], row['d'])):>16} {r['einsum_ms']:11.3f} "
                f"{r['gemm_ms']:10.3f} {r['speedup']:7.1f}x {r['max_rel_diff']:13.1e} "
                f"{r['einsum_peak_bytes'] / 2**20:9.2f}MiB {r['gemm_peak_bytes'] / 2**20:7.2f}MiB"
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
