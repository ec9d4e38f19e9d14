"""Simulated vs. real-transport benchmark for the distributed solvers.

Runs the distributed RELAX and ROUND solvers at 1/2/4 ranks over both
transports — ``simulated`` (ranks as threads of this process) and
``shared_memory`` (ranks as real spawned OS processes communicating through
``multiprocessing.shared_memory``) — and records, per (step, ranks,
transport):

* wall-clock seconds of the whole solve (for the real transport this
  includes process spawn + interpreter/import cost, reported separately as
  the 1-rank baseline makes it visible),
* max-over-ranks compute seconds per component,
* the ``CommunicationLog`` traffic (calls + bytes per collective).

Correctness is asserted, not assumed: every configuration's ROUND selection
must equal the serial solver's and every transport's byte log must equal the
simulated one.  The payload embeds the serial selection so
``benchmarks/compare.py`` can diff two payloads and flag a selection change.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_multiprocess.py --label local
    PYTHONPATH=src python benchmarks/bench_multiprocess.py --tiny --ranks 1 2

``--tiny`` switches to a seconds-scale shape for the CI ``multiprocess``
job's 2-rank smoke run.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.backend import get_backend
from repro.core.approx_relax import approx_relax
from repro.core.approx_round import approx_round
from repro.core.config import RelaxConfig
from repro.parallel.distributed_relax import distributed_relax
from repro.parallel.distributed_round import distributed_round

from _utils import bench_payload, make_random_fisher_dataset, write_bench_json

REFERENCE_SHAPE = {"n": 4000, "c": 8, "d": 32, "budget": 16, "relax_iterations": 4}
TINY_SHAPE = {"n": 240, "c": 4, "d": 8, "budget": 5, "relax_iterations": 2}
TRANSPORTS = ("simulated", "shared_memory")


def _measure_round(dataset, z_relaxed, shape, rank_counts):
    backend = get_backend()
    serial = approx_round(dataset, z_relaxed, shape["budget"], 1.0)
    serial_indices = [int(i) for i in backend.to_numpy(serial.selected_indices)]
    series = []
    for num_ranks in rank_counts:
        for transport in TRANSPORTS:
            start = time.perf_counter()
            result = distributed_round(
                dataset, z_relaxed, shape["budget"], eta_grid=(1.0,), num_ranks=num_ranks,
                transport=transport,
            )
            seconds = time.perf_counter() - start
            indices = [int(i) for i in result.selected_indices]
            assert indices == serial_indices, (
                f"round selection diverged from serial at p={num_ranks}, {transport}"
            )
            series.append(
                {
                    "step": "round",
                    "num_ranks": num_ranks,
                    "transport": transport,
                    "wall_clock_seconds": seconds,
                    "max_rank_compute_seconds": {
                        name: result.max_rank_seconds(name) for name in result.per_rank_seconds
                    },
                    "comm": result.comm_log.as_dict(),
                    "total_bytes": result.comm_log.total_bytes(),
                    "matches_serial": True,
                }
            )
            print(
                f"round p={num_ranks} {transport:<13s} {seconds:8.3f}s "
                f"bytes={result.comm_log.total_bytes()}"
            )
    return serial_indices, series


def _measure_relax(dataset, shape, rank_counts):
    config = RelaxConfig(
        max_iterations=shape["relax_iterations"], track_objective="none", seed=0
    )
    serial = approx_relax(dataset, shape["budget"], config)
    reference = np.asarray(get_backend().to_numpy(serial.weights), dtype=np.float64)
    series = []
    for num_ranks in rank_counts:
        for transport in TRANSPORTS:
            start = time.perf_counter()
            result = distributed_relax(
                dataset, shape["budget"], num_ranks=num_ranks, config=config, transport=transport
            )
            seconds = time.perf_counter() - start
            weights = np.asarray(get_backend().to_numpy(result.weights), dtype=np.float64)
            deviation = float(np.max(np.abs(weights - reference)))
            series.append(
                {
                    "step": "relax",
                    "num_ranks": num_ranks,
                    "transport": transport,
                    "wall_clock_seconds": seconds,
                    "max_rank_compute_seconds": {
                        name: result.max_rank_seconds(name) for name in result.per_rank_seconds
                    },
                    "comm": result.comm_log.as_dict(),
                    "total_bytes": result.comm_log.total_bytes(),
                    "max_abs_deviation_from_serial": deviation,
                }
            )
            print(
                f"relax p={num_ranks} {transport:<13s} {seconds:8.3f}s "
                f"bytes={result.comm_log.total_bytes()} |Δz|={deviation:.2e}"
            )
    return series


def _assert_transport_byte_parity(series):
    """Simulated and real logs must agree byte for byte at every rank count."""

    by_key = {(row["step"], row["num_ranks"], row["transport"]): row["comm"] for row in series}
    for (step, ranks, transport), comm in by_key.items():
        if transport != "simulated":
            continue
        real = by_key.get((step, ranks, "shared_memory"))
        assert real == comm, f"{step} p={ranks}: real-transport traffic diverged from simulated"


def run(shape: dict, rank_counts, *, seed: int = 0) -> dict:
    backend = get_backend()
    dataset = make_random_fisher_dataset(shape["n"], shape["d"], shape["c"], seed=seed)
    z_relaxed = backend.full((shape["n"],), shape["budget"] / shape["n"])

    start = time.perf_counter()
    serial_indices, round_series = _measure_round(dataset, z_relaxed, shape, rank_counts)
    relax_series = _measure_relax(dataset, shape, rank_counts)
    wall = time.perf_counter() - start
    series = round_series + relax_series
    _assert_transport_byte_parity(series)

    return bench_payload(
        "multiprocess",
        wall_clock_seconds=wall,
        shape=shape,
        rank_counts=list(rank_counts),
        transports=list(TRANSPORTS),
        selected_indices=serial_indices,
        series=series,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", default=None, help="suffix for the BENCH json filename")
    parser.add_argument("--tiny", action="store_true", help="CI-smoke shape (seconds, not minutes)")
    parser.add_argument(
        "--ranks", type=int, nargs="+", default=None, help="rank counts (default: 1 2 4)"
    )
    args = parser.parse_args()

    shape = TINY_SHAPE if args.tiny else REFERENCE_SHAPE
    rank_counts = args.ranks if args.ranks else [1, 2, 4]
    payload = run(shape, rank_counts)
    name = "multiprocess"
    if args.tiny:
        name += "_tiny"
    if args.label:
        name += f"_{args.label}"
    path = write_bench_json(name, payload)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
