"""Cost of the fault-tolerance layer: recovery, retry, and checkpointing.

Three scenarios over the same multi-round FIRAL session shape, so the
overhead of surviving a failure is attributable line by line:

* **clean** — a 2-rank parallel session with no fault: the baseline
  per-round wall clock.
* **rank death** — the same session with a :class:`~repro.parallel.FaultPlan`
  killing the last rank mid-selection of round 1, recovered by
  ``on_rank_failure="repartition_retry"``: the failed round pays the partial
  wasted launch plus a full re-run on the surviving ranks, and every later
  round runs degraded (fewer ranks).  Selections are bit-identical to the
  clean run (test-pinned in ``tests/test_engine_checkpoint.py``), so the
  entire delta is overhead, not drift.  The overhead factor can dip *below*
  1 at small problem scale: degraded rounds run on one rank, and a 1-rank
  launch (inline, no barrier) is cheaper than a 2-rank simulated-transport
  launch — the factor isolates failure cost only once per-rank compute
  dominates coordination.
* **checkpoint + resume** — the clean session with
  ``SessionConfig(checkpoint_every=1)``, then a crash after round
  ``rounds // 2`` simulated by abandoning the session and resuming from the
  checkpoint file: measures the per-round checkpoint write, the checkpoint
  size, and the one-time resume (rebuild + state restore) cost.

A fourth series times the launcher-level transient-fault path in isolation
(``run_spmd(..., max_retries=1)`` with an attempt-0-gated kill): the price
of one failed launch + relaunch for a small SPMD program.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py
    PYTHONPATH=src python benchmarks/bench_fault_recovery.py --tiny --label tiny
"""

from __future__ import annotations

import argparse
import tempfile
import time
import pathlib

import numpy as np

from repro.baselines.base import FIRALStrategy
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import ApproxFIRAL
from repro.datasets.registry import build_problem
from repro.engine.session import ActiveSession, SessionConfig
from repro.parallel import FaultInjectingEntry, FaultPlan
from repro.parallel.launcher import run_spmd

from _utils import bench_payload, write_bench_json

REFERENCE_SHAPE = {"dataset": "cifar10", "scale": 0.15, "rounds": 6, "budget": 10}
TINY_SHAPE = {"dataset": "cifar10", "scale": 0.05, "rounds": 3, "budget": 5}

RANKS = 2


def make_strategy() -> FIRALStrategy:
    # track_objective="none" matches the distributed solver's fixed-iteration
    # schedule, so clean and recovered runs select identical points.
    return FIRALStrategy(
        ApproxFIRAL(
            RelaxConfig(max_iterations=20, seed=0, track_objective="none"),
            RoundConfig(),
        )
    )


def _run_session(problem, shape, config):
    strategy = make_strategy()
    session = ActiveSession(
        problem,
        strategy,
        budget_per_round=shape["budget"],
        num_rounds=shape["rounds"],
        seed=0,
        config=config,
    )
    round_seconds = []
    start = time.perf_counter()
    for _ in range(shape["rounds"]):
        t0 = time.perf_counter()
        session.step()
        round_seconds.append(time.perf_counter() - t0)
    total = time.perf_counter() - start
    return session, strategy, round_seconds, total


def clean_scenario(problem, shape) -> dict:
    _, _, round_seconds, total = _run_session(
        problem, shape, SessionConfig(parallel_ranks=RANKS)
    )
    return {"round_seconds": round_seconds, "total_seconds": total}


def rank_death_scenario(problem, shape) -> dict:
    plan = FaultPlan(rank=RANKS - 1, at_call=2, mode="kill", collective="allreduce")
    session, strategy, round_seconds, total = _run_session(
        problem,
        shape,
        SessionConfig(
            parallel_ranks=RANKS,
            on_rank_failure="repartition_retry",
            fault_plan=plan,
        ),
    )
    return {
        "fault_plan": plan.to_dict(),
        "round_seconds": round_seconds,
        "total_seconds": total,
        "recovery_events": strategy.recovery_events,
        "selected_global_ids": [int(g) for g in session.store.labeled_ids[-shape["budget"]:]],
    }


def checkpoint_scenario(problem, shape, workdir: pathlib.Path) -> dict:
    path = workdir / "session_checkpoint.json"
    crash_after = max(shape["rounds"] // 2, 1)
    config = SessionConfig(
        parallel_ranks=RANKS, checkpoint_every=1, checkpoint_path=path
    )
    first = ActiveSession(
        problem,
        make_strategy(),
        budget_per_round=shape["budget"],
        num_rounds=shape["rounds"],
        seed=0,
        config=config,
    )
    checkpoint_seconds = []
    for _ in range(crash_after):
        first.step()
        t0 = time.perf_counter()
        first.checkpoint()
        checkpoint_seconds.append(time.perf_counter() - t0)
    # "Crash": abandon `first`; everything the resumed session knows comes
    # from the checkpoint file.
    t0 = time.perf_counter()
    resumed = ActiveSession.resume(
        path,
        problem,
        make_strategy(),
        config=SessionConfig(parallel_ranks=RANKS, checkpoint_every=1, checkpoint_path=path),
    )
    resume_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    resumed.run(shape["rounds"] - crash_after, record_initial=False)
    finish_seconds = time.perf_counter() - t0
    return {
        "crash_after_round": crash_after,
        "checkpoint_seconds": checkpoint_seconds,
        "mean_checkpoint_seconds": sum(checkpoint_seconds) / len(checkpoint_seconds),
        "checkpoint_bytes": path.stat().st_size,
        "resume_seconds": resume_seconds,
        "finish_seconds": finish_seconds,
        "final_eval_accuracy": resumed.result.records[-1].eval_accuracy,
    }


def _spmd_program(comm, arg):
    total = comm.allreduce(np.asarray(arg, dtype=np.float64))
    comm.barrier()
    return float(np.sum(total))


def launcher_retry_series(repeats: int = 5) -> dict:
    """Failed launch + relaunch vs a clean launch, launcher-level only."""

    args = [[1.0] * 64, [2.0] * 64]
    clean_seconds, retry_seconds = [], []
    plan = FaultPlan(rank=1, mode="kill", attempt=0)
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_spmd(_spmd_program, args)
        clean_seconds.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_spmd(
            FaultInjectingEntry(_spmd_program, plan),
            args,
            max_retries=1,
            retry_backoff=0.0,
        )
        retry_seconds.append(time.perf_counter() - t0)
    mean = lambda xs: sum(xs) / len(xs)  # noqa: E731 - tiny local reduction
    return {
        "repeats": repeats,
        "clean_seconds": clean_seconds,
        "failed_plus_relaunch_seconds": retry_seconds,
        "relaunch_overhead_factor": mean(retry_seconds) / max(mean(clean_seconds), 1e-12),
    }


def run(shape: dict) -> dict:
    problem = build_problem(shape["dataset"], scale=shape["scale"], seed=0)
    start = time.perf_counter()
    clean = clean_scenario(problem, shape)
    death = rank_death_scenario(problem, shape)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = checkpoint_scenario(problem, shape, pathlib.Path(tmp))
    launcher = launcher_retry_series()
    wall = time.perf_counter() - start
    return bench_payload(
        "fault_recovery",
        wall_clock_seconds=wall,
        shape=shape,
        ranks=RANKS,
        pool_size=problem.pool_size,
        dimension=problem.dimension,
        num_classes=problem.num_classes,
        clean=clean,
        rank_death=death,
        recovery_overhead_factor=death["total_seconds"] / max(clean["total_seconds"], 1e-12),
        checkpoint_resume=ckpt,
        launcher_retry=launcher,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", default=None, help="suffix for the BENCH json filename")
    parser.add_argument("--tiny", action="store_true", help="CI-smoke shape (seconds, not minutes)")
    args = parser.parse_args()

    payload = run(TINY_SHAPE if args.tiny else REFERENCE_SHAPE)
    name = "fault_recovery" + (f"_{args.label}" if args.label else "")
    path = write_bench_json(name, payload)
    print(f"wrote {path}")
    print(
        f"clean {payload['clean']['total_seconds']:.2f}s vs rank-death "
        f"{payload['rank_death']['total_seconds']:.2f}s "
        f"({payload['recovery_overhead_factor']:.2f}x); "
        f"checkpoint {payload['checkpoint_resume']['mean_checkpoint_seconds'] * 1e3:.1f}ms/round "
        f"({payload['checkpoint_resume']['checkpoint_bytes']} bytes), "
        f"resume {payload['checkpoint_resume']['resume_seconds']:.2f}s"
    )


if __name__ == "__main__":
    main()
