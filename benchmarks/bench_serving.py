"""Serving-layer load benchmark: multi-tenant throughput and propose latency.

The ISSUE-9 acceptance benchmark.  ``repro.serve`` puts the session engine
behind an asyncio service — per-session locks, a bounded worker pool for the
CPU-heavy η-search/ROUND halves, admission control — and this benchmark
measures what that costs and buys under load:

* **per-level load test** — at each concurrency level (1 / 8 / 32 tenant
  sessions by default) every tenant runs its full lifecycle (open, then
  ``rounds`` propose/observe round trips, then close) through one shared
  :class:`~repro.serve.SessionManager`; the payload records sessions/sec,
  rounds/sec, and client-observed propose latency (p50/p90/p99 — queueing on
  the worker pool included, exactly what a labeler would feel);
* **serving overhead** — the concurrency-1 level is directly comparable to
  the same session driven without the service (also recorded, as
  ``direct_baseline``), so the async/locking/executor tax is a number, not a
  guess;
* the ``stats`` counters (admission rejections, checkpoints, eager
  scheduling/hits) are carried so a payload documents *how* the
  service ran, not just how fast;
* **labeler think-time** (``--think-time``, PR 10) — each tenant idles that
  long before requesting the next proposal, modeling the post-commit gap
  while a human or model labeler reviews results between batches.  Under
  ``--pipeline eager`` the service precomputes the next proposal during
  that gap, so client-observed propose latency collapses from the full
  η-search/ROUND cost to a queue round-trip; ``--frontier`` sweeps
  think-time × {sync, eager} and writes the eager-vs-sync frontier payload
  (``BENCH_serving_pipeline.json``).  Every level also records the
  queue depth sampled at each propose dispatch (``manager.inflight``).

Run as a script:

    PYTHONPATH=src python benchmarks/bench_serving.py --label local   # committed payload
    PYTHONPATH=src python benchmarks/bench_serving.py --tiny          # CI smoke
    PYTHONPATH=src python benchmarks/bench_serving.py --frontier      # pipeline frontier
"""

from __future__ import annotations

import argparse
import asyncio
import time

import numpy as np

from repro.baselines.base import FIRALStrategy
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import ApproxFIRAL
from repro.datasets.registry import build_problem
from repro.engine.session import ActiveSession
from repro.serve import ServeConfig, SessionManager, SessionSpec

from _utils import bench_payload, write_bench_json

#: The serving shape: the paper's selector (Approx-FIRAL with the § IV-A η
#: grid) on a small CIFAR-10 slice — per-round cost is real solver work
#: (RELAX + η grid + ROUND), so worker-pool scheduling is measured against
#: meaningful compute, while one round stays fast enough that 32 tenants
#: finish in minutes.
SHAPE = {"dataset": "cifar10", "scale": 0.1, "rounds": 3, "budget": 5}
TINY_SHAPE = {"dataset": "cifar10", "scale": 0.05, "rounds": 2, "budget": 5}

CONCURRENCY_LEVELS = (1, 8, 32)
TINY_LEVELS = (1, 4)


def make_strategy() -> FIRALStrategy:
    return FIRALStrategy(
        ApproxFIRAL(
            RelaxConfig(max_iterations=10, seed=0), RoundConfig()
        )
    )


def make_spec(problem, shape: dict, seed: int) -> SessionSpec:
    return SessionSpec(
        problem=problem,
        strategy_factory=make_strategy,
        budget_per_round=shape["budget"],
        num_rounds=shape["rounds"],
        seed=seed,
    )


def percentiles(samples) -> dict:
    values = np.asarray(samples, dtype=np.float64)
    return {
        "count": int(values.size),
        "mean": float(values.mean()),
        "p50": float(np.percentile(values, 50)),
        "p90": float(np.percentile(values, 90)),
        "p99": float(np.percentile(values, 99)),
        "max": float(values.max()),
    }


def run_direct_baseline(problem, shape: dict) -> dict:
    """One session driven without the service — the overhead reference."""

    session = ActiveSession(
        problem,
        make_strategy(),
        budget_per_round=shape["budget"],
        num_rounds=shape["rounds"],
        seed=0,
    )
    propose_latency = []
    start = time.perf_counter()
    for _ in range(shape["rounds"]):
        tick = time.perf_counter()
        session.propose()
        propose_latency.append(time.perf_counter() - tick)
        session.observe()
    wall = time.perf_counter() - start
    return {
        "wall_clock_seconds": wall,
        "rounds_per_second": shape["rounds"] / wall,
        "propose_latency_seconds": percentiles(propose_latency),
    }


async def run_level(
    problem,
    shape: dict,
    concurrency: int,
    serve_config: ServeConfig,
    *,
    think_time: float = 0.0,
    pipeline: str = "sync",
) -> dict:
    """Full lifecycles for ``concurrency`` tenants through one manager.

    ``think_time`` is the labeler's idle gap before each proposal request —
    the window an eager pipeline uses to precompute the selection.  The
    sleep sits *before* ``propose`` (after the previous ``observe``
    committed): selection for round *t+1* depends on round *t*'s labels, so
    the post-commit gap is the only legally overlappable dead time.
    """

    manager = SessionManager(serve_config)
    propose_latency = []
    observe_latency = []
    queue_depth = []

    async def tenant(index: int) -> None:
        session_id = f"tenant-{index}"
        await manager.open_session(
            session_id, make_spec(problem, shape, seed=index), pipeline=pipeline
        )
        for _ in range(shape["rounds"]):
            if think_time > 0.0:
                await asyncio.sleep(think_time)
            queue_depth.append(manager.inflight)
            tick = time.perf_counter()
            await manager.propose(session_id)
            propose_latency.append(time.perf_counter() - tick)
            tick = time.perf_counter()
            await manager.observe(session_id)
            observe_latency.append(time.perf_counter() - tick)
        await manager.close_session(session_id, checkpoint=False)

    start = time.perf_counter()
    try:
        await asyncio.gather(*(tenant(i) for i in range(concurrency)))
        wall = time.perf_counter() - start
    finally:
        await manager.aclose(checkpoint=False)
    total_rounds = concurrency * shape["rounds"]
    stats = dict(manager.stats)
    return {
        "concurrency": concurrency,
        "pipeline": pipeline,
        "think_time_seconds": float(think_time),
        "wall_clock_seconds": wall,
        "sessions_per_second": concurrency / wall,
        "rounds_per_second": total_rounds / wall,
        "propose_latency_seconds": percentiles(propose_latency),
        "observe_latency_seconds": percentiles(observe_latency),
        "queue_depth": percentiles(queue_depth),
        "eager_hit_rate": stats["eager_hits"] / max(stats["proposals"], 1),
        "stats": stats,
    }


def run(
    shape: dict,
    levels,
    *,
    workers: int,
    think_time: float = 0.0,
    pipeline: str = "sync",
) -> dict:
    problem = build_problem(shape["dataset"], scale=shape["scale"], seed=0)
    serve_config = ServeConfig(max_sessions=max(levels) + 1, max_workers=workers)
    direct = run_direct_baseline(problem, shape)
    level_results = [
        asyncio.run(
            run_level(
                problem,
                shape,
                concurrency,
                serve_config,
                think_time=think_time,
                pipeline=pipeline,
            )
        )
        for concurrency in levels
    ]
    single = level_results[0]
    return {
        "shape": dict(shape),
        "pool_size": problem.pool_size,
        "workers": workers,
        "think_time_seconds": float(think_time),
        "pipeline": pipeline,
        "direct_baseline": direct,
        "levels": level_results,
        # The async/locking/executor tax at concurrency 1 — the honest
        # measure of what wrapping the engine in a service costs one tenant.
        "serving_overhead_vs_direct": single["wall_clock_seconds"]
        / max(direct["wall_clock_seconds"], 1e-12),
    }


def run_frontier(shape: dict, levels, *, workers: int, repeats: int = 3) -> dict:
    """The eager-vs-sync frontier: propose latency across labeler think-times.

    Think-times are anchored to the measured direct per-round selection cost
    (0 / 1x / 1.5x / 2x the direct propose p50): at think-time ≥ selection
    time an eager session's background proposal lands before the client
    asks, so its propose p50 collapses to a queue round-trip, while at
    think-time 0 eager must cost no throughput vs sync — both claims are
    recorded per point.  (The exact-1x point sits on the transition: with
    zero margin the prefetch races the client, so the collapse is partial —
    kept in the sweep because the boundary is the interesting part.)

    Each point runs ``repeats`` times and keeps the best run by wall
    clock: single samples of second-scale event-loop runs carry 5-10%
    scheduler noise, which is the same order as the think-time-0
    sync/eager gap under measurement.
    """

    problem = build_problem(shape["dataset"], scale=shape["scale"], seed=0)
    direct = run_direct_baseline(problem, shape)
    selection_p50 = direct["propose_latency_seconds"]["p50"]
    think_times = [
        0.0,
        round(selection_p50, 4),
        round(1.5 * selection_p50, 4),
        round(2.0 * selection_p50, 4),
    ]
    serve_config = ServeConfig(max_sessions=max(levels) + 1, max_workers=workers)

    # Warm caches / thread pools before timing anything.
    asyncio.run(run_level(problem, shape, min(levels), serve_config))

    points = []
    for concurrency in levels:
        for think_time in think_times:
            for pipeline in ("sync", "eager"):
                runs = [
                    asyncio.run(
                        run_level(
                            problem,
                            shape,
                            concurrency,
                            serve_config,
                            think_time=think_time,
                            pipeline=pipeline,
                        )
                    )
                    for _ in range(max(1, repeats))
                ]
                points.append(min(runs, key=lambda r: r["wall_clock_seconds"]))

    def pick(concurrency: int, think_time: float, pipeline: str) -> dict:
        return next(
            p
            for p in points
            if p["concurrency"] == concurrency
            and p["think_time_seconds"] == think_time
            and p["pipeline"] == pipeline
        )

    frontier = []
    for concurrency in levels:
        for think_time in think_times:
            sync_point = pick(concurrency, think_time, "sync")
            eager_point = pick(concurrency, think_time, "eager")
            frontier.append(
                {
                    "concurrency": concurrency,
                    "think_time_seconds": think_time,
                    "sync_propose_p50": sync_point["propose_latency_seconds"]["p50"],
                    "eager_propose_p50": eager_point["propose_latency_seconds"]["p50"],
                    "propose_p50_speedup": sync_point["propose_latency_seconds"]["p50"]
                    / max(eager_point["propose_latency_seconds"]["p50"], 1e-12),
                    "sync_sessions_per_second": sync_point["sessions_per_second"],
                    "eager_sessions_per_second": eager_point["sessions_per_second"],
                    "eager_hit_rate": eager_point["eager_hit_rate"],
                }
            )
    return {
        "shape": dict(shape),
        "pool_size": problem.pool_size,
        "workers": workers,
        "direct_baseline": direct,
        "selection_p50_seconds": selection_p50,
        "think_times_seconds": think_times,
        "levels": points,
        "frontier": frontier,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--tiny", action="store_true", help="CI-smoke shape (seconds, not minutes)")
    parser.add_argument("--label", default=None, help="suffix for the BENCH json filename")
    parser.add_argument("--workers", type=int, default=4, help="worker-pool size")
    parser.add_argument(
        "--levels",
        type=int,
        nargs="+",
        default=None,
        help="concurrency levels to sweep (default: 1 8 32, tiny: 1 4)",
    )
    parser.add_argument(
        "--think-time",
        type=float,
        default=0.0,
        help="labeler idle gap (seconds) before each proposal request",
    )
    parser.add_argument(
        "--pipeline",
        choices=("sync", "eager"),
        default="sync",
        help="proposal pipelining mode for the served sessions",
    )
    parser.add_argument(
        "--frontier",
        action="store_true",
        help="sweep think-time x {sync, eager} and write the pipeline frontier payload",
    )
    args = parser.parse_args()

    shape = TINY_SHAPE if args.tiny else SHAPE
    if args.levels:
        levels = tuple(args.levels)
    elif args.frontier:
        # The frontier measures latency hiding, not pool saturation: modest
        # concurrency so prefetches actually fit in the worker pool.
        levels = (1,) if args.tiny else (1, 4)
    else:
        levels = TINY_LEVELS if args.tiny else CONCURRENCY_LEVELS

    start = time.perf_counter()
    if args.frontier:
        results = run_frontier(shape, levels, workers=args.workers)
    else:
        results = run(
            shape,
            levels,
            workers=args.workers,
            think_time=args.think_time,
            pipeline=args.pipeline,
        )
    total = time.perf_counter() - start

    bench = "serving_pipeline" if args.frontier else "serving"
    payload = bench_payload(bench, wall_clock_seconds=total, **results)
    name = bench
    if args.tiny:
        name += "_tiny"
    if args.label:
        name += f"_{args.label}"
    path = write_bench_json(name, payload)
    print(f"wrote {path}")
    direct = results["direct_baseline"]
    print(
        f"direct baseline: {direct['wall_clock_seconds']:.3f}s, "
        f"p50 propose {direct['propose_latency_seconds']['p50'] * 1e3:.1f}ms"
    )
    if args.frontier:
        for point in results["frontier"]:
            print(
                f"concurrency {point['concurrency']:>3} "
                f"think {point['think_time_seconds'] * 1e3:7.1f}ms: "
                f"propose p50 sync {point['sync_propose_p50'] * 1e3:7.1f}ms "
                f"eager {point['eager_propose_p50'] * 1e3:7.1f}ms "
                f"({point['propose_p50_speedup']:.1f}x), "
                f"sessions/s sync {point['sync_sessions_per_second']:.2f} "
                f"eager {point['eager_sessions_per_second']:.2f}"
            )
        return
    print(f"serving overhead at concurrency 1: {results['serving_overhead_vs_direct']:.2f}x")
    for level in results["levels"]:
        latency = level["propose_latency_seconds"]
        print(
            f"concurrency {level['concurrency']:>3}: "
            f"{level['sessions_per_second']:.2f} sessions/s, "
            f"{level['rounds_per_second']:.2f} rounds/s, "
            f"propose p50 {latency['p50'] * 1e3:.1f}ms "
            f"p99 {latency['p99'] * 1e3:.1f}ms, "
            f"queue depth p99 {level['queue_depth']['p99']:.0f}"
        )


if __name__ == "__main__":
    main()
