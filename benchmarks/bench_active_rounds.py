"""Per-round wall clock of a multi-round active-learning run.

The ISSUE-3 acceptance benchmark: run the Fig.-2 protocol for 10 consecutive
FIRAL rounds and measure what each round costs under

* the **legacy** driver path (``run_active_learning`` with the default,
  bit-identical-to-history ``SessionConfig``): every round recomputes pool
  *and* labeled probabilities, re-runs the full § IV-A η grid search
  (``len(eta_grid)`` ROUND solves), and RELAX restarts from the uniform
  simplex point; versus
* the **session** engine with η reuse (``SessionConfig(reuse_eta=True)``):
  the previous round's winning η is reused (one ROUND solve per round after
  the first).

Both paths run Algorithm 2 as written every round: ``H_o`` under the
current classifier, RELAX from the uniform point.

``--store`` picks the session's pool store or scenario: ``dense`` (default),
``streaming`` (the pool-replenishment scenario on a dense store: a fraction
of the pool is held back and streamed in between rounds via
``ActiveSession.extend_pool``), ``sharded`` (a ``ShardedPointStore`` with
2-rank multi-rank selection scattered along shard ownership) or ``mmap``
(an out-of-core ``MmapPointStore``).

``--prefilter {none,random,diversity,topk}`` + ``--prefilter-keep`` put a
candidate prefilter (``SessionConfig.prefilter``) in front of every round's
selection, so the exact solvers score only ``keep · n`` candidates — the
measured keep-ratio frontier lives in ``bench_prefilter.py``.

Run as a script:

    PYTHONPATH=src python benchmarks/bench_active_rounds.py --mode legacy  --label before
    PYTHONPATH=src python benchmarks/bench_active_rounds.py --mode session --label after
    PYTHONPATH=src python benchmarks/bench_active_rounds.py --store streaming --label streaming
    python benchmarks/compare.py results/BENCH_active_rounds_before.json \
                                 results/BENCH_active_rounds_after.json

The payload records per-round ``setup_seconds`` / ``selection_seconds``
(see :class:`repro.active.results.RoundRecord`), the accuracy curve and the
selected global ids, so a diff shows not just *how fast* but also how much
the opt-in approximations (documented in ``repro.engine.session``) moved the
selections.  ``--tiny`` switches to a seconds-scale shape for CI smoke runs.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.active.problem import ActiveLearningProblem
from repro.baselines.base import FIRALStrategy
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import ApproxFIRAL
from repro.datasets.registry import build_problem
from repro.engine.prefilter import PREFILTER_KINDS, make_prefilter
from repro.engine.session import ActiveSession, SessionConfig
from repro.engine.stores import MmapPointStore, ShardedPointStore
from repro.parallel import FaultPlan

from _utils import bench_payload, write_bench_json

#: Fraction of the pool visible at session start under ``--store streaming``;
#: the remainder is streamed back in between rounds.
STREAMING_INITIAL_FRACTION = 0.6
#: Ranks (= store shards) under ``--store sharded``.
SHARDED_RANKS = 2

REFERENCE_SHAPE = {"dataset": "cifar10", "scale": 0.25, "rounds": 10, "budget": 10}
TINY_SHAPE = {"dataset": "cifar10", "scale": 0.05, "rounds": 4, "budget": 5}


def make_strategy(relax_iterations: int = 20) -> FIRALStrategy:
    """Approx-FIRAL in the § IV-A configuration: η grid-searched per round.

    The grid is exactly the per-round redundancy the session's ``reuse_eta``
    removes, so the benchmark keeps it enabled rather than pinning η."""

    return FIRALStrategy(
        ApproxFIRAL(
            RelaxConfig(max_iterations=relax_iterations, seed=0),
            RoundConfig(),
        )
    )


def _streaming_split(problem: ActiveLearningProblem, rounds: int):
    """Hold back a tail of the pool; return (reduced problem, per-boundary chunks).

    A session of ``rounds`` rounds has ``rounds - 1`` between-round
    boundaries, so the held-back tail is split into exactly that many chunks
    — every held point re-enters the pool before the final round.
    """

    visible = int(problem.pool_size * STREAMING_INITIAL_FRACTION)
    visible = max(visible, rounds * 1)  # never smaller than one point per round
    if rounds == 1:
        visible = problem.pool_size  # no boundary to stream at; hold nothing back
    reduced = ActiveLearningProblem(
        initial_features=problem.initial_features,
        initial_labels=problem.initial_labels,
        pool_features=problem.pool_features[:visible],
        pool_labels=problem.pool_labels[:visible],
        eval_features=problem.eval_features,
        eval_labels=problem.eval_labels,
        num_classes=problem.num_classes,
        name=problem.name,
    )
    held_f = problem.pool_features[visible:]
    held_y = problem.pool_labels[visible:]
    num_chunks = max(rounds - 1, 1)  # rounds == 1 makes one empty, never-fed chunk
    bounds = np.linspace(0, held_f.shape[0], num_chunks + 1).astype(int)
    chunks = [
        (held_f[bounds[r] : bounds[r + 1]], held_y[bounds[r] : bounds[r + 1]])
        for r in range(num_chunks)
    ]
    return reduced, chunks


def run(
    shape: dict,
    mode: str,
    *,
    store: str = "dense",
    seed: int = 0,
    prefilter: str = "none",
    prefilter_keep: float = 0.25,
    inject_fault: bool = False,
) -> dict:
    problem = build_problem(shape["dataset"], scale=shape["scale"], seed=seed)
    config = SessionConfig(reuse_eta=True) if mode == "session" else SessionConfig()
    chunks = None
    extra = {}
    config.prefilter = make_prefilter(prefilter, prefilter_keep)
    if config.prefilter is not None:
        extra["prefilter"] = {"kind": prefilter, "keep_ratio": prefilter_keep}
    if store == "streaming":
        problem, chunks = _streaming_split(problem, shape["rounds"])
        extra["streaming"] = {
            "initial_pool": problem.pool_size,
            "replenished": int(sum(c[0].shape[0] for c in chunks)),
        }
    elif store == "sharded":
        config.store = ShardedPointStore.factory(num_shards=SHARDED_RANKS)
        config.parallel_ranks = SHARDED_RANKS
        extra["sharded"] = {
            "num_shards": SHARDED_RANKS,
            "transport": config.parallel_transport,
        }
    elif store == "mmap":
        # Out-of-core master: selections are pinned bit-identical to dense
        # (see tests/test_outofcore_stores.py); bench_outofcore.py isolates
        # the peak-RSS story.
        config.store = MmapPointStore.factory()
        extra["mmap"] = {"chunk_rows": 2048}
    if inject_fault:
        # Kill the last rank mid-selection of round 1 and recover by
        # re-partitioning over the survivors — the measured end-to-end cost
        # of one rank death (bench_fault_recovery.py isolates the pieces).
        config.parallel_ranks = config.parallel_ranks or SHARDED_RANKS
        config.on_rank_failure = "repartition_retry"
        config.fault_plan = FaultPlan(
            rank=config.parallel_ranks - 1, at_call=2, mode="kill", collective="allreduce"
        )
        extra["fault"] = config.fault_plan.to_dict()
    strategy = make_strategy()
    session = ActiveSession(
        problem,
        strategy,
        budget_per_round=shape["budget"],
        num_rounds=shape["rounds"],
        seed=seed,
        config=config,
    )

    round_seconds = []
    start = time.perf_counter()
    for r in range(shape["rounds"]):
        t0 = time.perf_counter()
        if chunks is not None and r > 0 and chunks[r - 1][0].shape[0] > 0:
            # Replenish at the round boundary, as a streaming feed would.
            session.extend_pool(*chunks[r - 1])
        session.step()
        round_seconds.append(time.perf_counter() - t0)
    total_seconds = time.perf_counter() - start

    if inject_fault:
        extra["recovery_events"] = list(getattr(strategy, "recovery_events", []))
    records = session.result.records
    return bench_payload(
        "active_rounds",
        wall_clock_seconds=total_seconds,
        mode=mode,
        shape=shape,
        store=store,
        pool_size=problem.pool_size,
        dimension=problem.dimension,
        num_classes=problem.num_classes,
        round_seconds=round_seconds,
        mean_round_seconds=total_seconds / shape["rounds"],
        setup_seconds=[r.setup_seconds for r in records],
        selection_seconds=[r.selection_seconds for r in records],
        eval_accuracy=[r.eval_accuracy for r in records],
        final_eval_accuracy=records[-1].eval_accuracy,
        selected_global_ids=[int(g) for g in session.store.labeled_ids[problem.initial_size:]],
        session_config={"reuse_eta": config.reuse_eta},
        **extra,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--mode",
        choices=("legacy", "session"),
        default="session",
        help="legacy = default (bit-identical) config; session = SessionConfig(reuse_eta=True)",
    )
    parser.add_argument("--label", default=None, help="suffix for the BENCH json filename")
    parser.add_argument("--tiny", action="store_true", help="CI-smoke shape (seconds, not minutes)")
    parser.add_argument(
        "--store",
        choices=("dense", "streaming", "sharded", "mmap"),
        default="dense",
        help="pool store backing the session (streaming replenishes a dense pool between rounds; "
        "sharded scatters 2-rank selection along shard ownership; mmap keeps the "
        "feature master on disk)",
    )
    parser.add_argument(
        "--prefilter",
        choices=("none",) + PREFILTER_KINDS,
        default="none",
        help="candidate prefilter evaluated before each round's selection "
        "(see benchmarks/bench_prefilter.py for the measured frontier)",
    )
    parser.add_argument(
        "--prefilter-keep",
        type=float,
        default=0.25,
        help="fraction of the pool kept as candidates when --prefilter is set",
    )
    parser.add_argument(
        "--inject-fault",
        action="store_true",
        help="kill the last rank mid-selection of round 1 and recover via "
        "on_rank_failure='repartition_retry' (forces 2-rank selection when "
        "no parallel store is configured)",
    )
    args = parser.parse_args()

    shape = TINY_SHAPE if args.tiny else REFERENCE_SHAPE
    payload = run(
        shape,
        args.mode,
        store=args.store,
        prefilter=args.prefilter,
        prefilter_keep=args.prefilter_keep,
        inject_fault=args.inject_fault,
    )
    name = "active_rounds"
    if args.tiny:
        name += "_tiny"
    if args.inject_fault:
        name += "_faulty"
    name += f"_{args.label}" if args.label else f"_{args.mode}"
    path = write_bench_json(name, payload)
    print(f"wrote {path}")
    print(
        f"{args.mode}/{args.store}: {payload['wall_clock_seconds']:.2f}s total, "
        f"{payload['mean_round_seconds']:.3f}s/round "
        f"(final eval acc {payload['final_eval_accuracy']:.4f})"
    )


if __name__ == "__main__":
    main()
