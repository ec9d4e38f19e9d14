"""ROUND hot-path reference benchmark: full η-grid solve at a fixed shape.

The ISSUE-2 acceptance shape — ``n=5000, c=10, d=64, b=50`` with the full
default η grid — exercises exactly the path the fused-scoring /
hoisted-precompute work targets: 7 η trials × 50 selection steps, each step
dominated by the ``O(n c d^2)`` Proposition-4 scoring contraction.

Run as a script (not under pytest — the reference shape takes minutes on the
exact pre-optimization code):

    PYTHONPATH=src python benchmarks/bench_round_hotpath.py --label after
    PYTHONPATH=src python benchmarks/bench_round_hotpath.py --tiny

``--label X`` writes ``benchmarks/results/BENCH_round_hotpath_X.json``; two
labelled payloads (e.g. ``before``/``after`` captured on either side of a
change) are diffed with ``benchmarks/compare.py``.  The payload embeds the
selected indices so the diff can also verify the optimization did not change
*what* is selected, only how fast.  ``--tiny`` switches to a seconds-scale
shape for CI smoke runs.
"""

from __future__ import annotations

import argparse
import time

from repro.backend import get_backend
from repro.core.approx_round import approx_round
from repro.core.config import RoundConfig
from repro.core.eta_selection import default_eta_grid, select_eta

from _utils import bench_payload, make_random_fisher_dataset, write_bench_json

# The ISSUE-2 reference shape: n=5000, c=10, d=64, b=50, full η grid.
REFERENCE_SHAPE = {"n": 5000, "c": 10, "d": 64, "budget": 50}
TINY_SHAPE = {"n": 400, "c": 4, "d": 16, "budget": 8}


def run(shape: dict, *, seed: int = 0, chunk_size: int | None = None) -> dict:
    """Time ``select_eta`` over ``approx_round`` at ``shape``; return the payload."""

    backend = get_backend()
    dataset = make_random_fisher_dataset(shape["n"], shape["d"], shape["c"], seed=seed)
    budget = shape["budget"]
    # The benchmark isolates the ROUND phase, so z* is a fixed uniform vector
    # (sum z = b) rather than the output of a RELAX solve.
    z_relaxed = backend.full((shape["n"],), budget / shape["n"])
    grid = default_eta_grid(dataset.joint_dimension)
    config = RoundConfig(score_chunk_size=chunk_size) if chunk_size is not None else None

    start = time.perf_counter()
    result, score = select_eta(
        approx_round, dataset, z_relaxed, budget, eta_grid=grid, config=config
    )
    round_seconds = time.perf_counter() - start

    return bench_payload(
        "round_hotpath",
        wall_clock_seconds=round_seconds,
        shape=shape,
        eta_grid=[float(e) for e in grid],
        round_seconds=round_seconds,
        selected_indices=[int(i) for i in backend.to_numpy(result.selected_indices)],
        selected_eta=float(result.eta),
        eta_score=float(score),
        score_chunk_size=chunk_size,
        # Every trial's regions plus the batch scoring (select_eta sums the grid).
        grid_timings=result.timings.as_dict(),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", default=None, help="suffix for the BENCH json filename")
    parser.add_argument("--tiny", action="store_true", help="CI-smoke shape (seconds, not minutes)")
    parser.add_argument("--chunk-size", type=int, default=None, help="RoundConfig.score_chunk_size")
    args = parser.parse_args()

    shape = TINY_SHAPE if args.tiny else REFERENCE_SHAPE
    payload = run(shape, chunk_size=args.chunk_size)
    name = "round_hotpath"
    if args.tiny:
        name += "_tiny"
    if args.label:
        name += f"_{args.label}"
    path = write_bench_json(name, payload)
    print(f"wrote {path}")
    print(
        f"round phase: {payload['round_seconds']:.2f}s "
        f"(eta={payload['selected_eta']}, first indices {payload['selected_indices'][:5]})"
    )


if __name__ == "__main__":
    main()
