"""A labeling client against the multi-tenant session service.

The classic active-learning driver loop — submit the unlabeled pool,
receive a query set, post labels, repeat — run against ``repro.serve``
instead of a local session object.  Three acts:

* **multi-tenant loop**: two tenants (Approx-FIRAL and an entropy baseline)
  interleave propose/observe rounds through one :class:`SessionManager`;
  the service orders each tenant's rounds with a per-session lock and runs
  the solver halves on its worker pool, and the curves are bit-identical to
  the same sessions run directly;
* **crash recovery**: the service "crashes" while a proposal is open; on
  restart, ``restore_on_open`` resumes the tenant from its checkpoint at
  the pre-proposal boundary and surfaces the invalidated proposal in the
  open-info payload — the client simply re-proposes;
* **eager pipelining**: the same tenant re-run with ``pipeline="eager"`` —
  while the "labeler" thinks, the service precomputes the next proposal,
  so the client-observed propose latency collapses to a queue round-trip
  (printed side by side with the sync latencies, selections identical);
* **the HTTP front**: the same loop through ``repro.serve.HttpFrontend``
  over a real socket, with the same JSON payloads.

Labels come from the proposal's features here (a stand-in "labeler" reusing
the oracle); a real deployment would show ``proposal["features"]`` to a
human or a model and post whatever comes back.

Run with:

    PYTHONPATH=src python examples/serving_client.py
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import tempfile
import time

from repro import ApproxFIRAL, RelaxConfig, RoundConfig, build_problem
from repro.baselines import EntropyStrategy, FIRALStrategy
from repro.serve import (
    AsyncSessionClient,
    HttpFrontend,
    ServeConfig,
    SessionManager,
    SessionSpec,
)

ROUNDS = 3
BUDGET = 10


def make_firal() -> FIRALStrategy:
    return FIRALStrategy(
        ApproxFIRAL(RelaxConfig(max_iterations=10, seed=0), RoundConfig())
    )


def make_spec(problem, strategy_factory, seed) -> SessionSpec:
    return SessionSpec(
        problem=problem,
        strategy_factory=strategy_factory,
        budget_per_round=BUDGET,
        num_rounds=ROUNDS,
        seed=seed,
    )


def oracle_labeler(problem):
    """Stand-in labeler: answers a proposal with the oracle's labels."""

    def label(proposal: dict):
        # Pool point global ids are initial_size + original pool row.
        rows = [gid - problem.initial_size for gid in proposal["global_ids"]]
        return [int(problem.pool_labels[r]) for r in rows]

    return label


async def run_rounds(client: AsyncSessionClient, session_id: str, labeler, rounds=ROUNDS):
    for _ in range(rounds):
        proposal = await client.propose(session_id)
        record = await client.observe(session_id, labels=labeler(proposal))
        print(
            f"  [{session_id}] round {proposal['round_index']}: "
            f"{record['num_labeled']:.0f} labeled, "
            f"eval acc {record['eval_accuracy']:.4f}"
        )


async def timed_rounds(client: AsyncSessionClient, session_id: str, labeler, think_time):
    """Rounds with a thinking labeler; returns per-round propose latency."""

    latencies, selections = [], []
    for _ in range(ROUNDS):
        await asyncio.sleep(think_time)  # the labeler reviews, the service works
        tick = time.perf_counter()
        proposal = await client.propose(session_id)
        latencies.append(time.perf_counter() - tick)
        selections.extend(proposal["global_ids"])
        await client.observe(session_id, labels=labeler(proposal))
    return latencies, selections


async def main() -> None:
    problem = build_problem("cifar10", scale=0.05, seed=0)
    print(problem.summary())
    labeler = oracle_labeler(problem)
    checkpoint_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-serve-"))

    config = ServeConfig(
        max_sessions=8,
        max_workers=2,
        checkpoint_dir=checkpoint_dir,
        restore_on_open=True,
    )

    print("\n== two tenants, interleaved through one service ==")
    manager = SessionManager(config)
    client = AsyncSessionClient(manager)
    await client.open("firal", make_spec(problem, make_firal, seed=0))
    await client.open("entropy", make_spec(problem, EntropyStrategy, seed=1))
    await asyncio.gather(
        run_rounds(client, "firal", labeler),
        run_rounds(client, "entropy", labeler),
    )
    print(f"  service stats: {manager.stats}")

    print("\n== crash with an open proposal, then recover ==")
    await client.open("fragile", make_spec(problem, make_firal, seed=2))
    await client.propose("fragile")          # the labeler goes dark...
    await manager.aclose()                   # ...and the service dies

    manager = SessionManager(config)         # restart
    client = AsyncSessionClient(manager)
    info = await client.open("fragile", make_spec(problem, make_firal, seed=2))
    discarded = info["invalidated_proposal"]
    print(
        f"  restored at round {info['round_index']}; invalidated proposal "
        f"for round {discarded['round_index']} ({len(discarded['global_ids'])} points)"
    )
    await run_rounds(client, "fragile", labeler)  # re-propose replays the round
    await manager.aclose()

    print("\n== eager pipelining: think-time hides selection latency ==")
    manager = SessionManager(ServeConfig(max_sessions=8, max_workers=2))
    client = AsyncSessionClient(manager)
    think_time = 0.6  # a (fast) labeler reviewing between batches
    await client.open("sync-labeler", make_spec(problem, make_firal, seed=4))
    sync_lat, sync_sel = await timed_rounds(client, "sync-labeler", labeler, think_time)
    await client.open(
        "eager-labeler", make_spec(problem, make_firal, seed=4), pipeline="eager"
    )
    eager_lat, eager_sel = await timed_rounds(client, "eager-labeler", labeler, think_time)
    assert eager_sel == sync_sel, "eager mode must select identically"
    for round_index, (sync_ms, eager_ms) in enumerate(zip(sync_lat, eager_lat)):
        print(
            f"  round {round_index}: propose latency sync {sync_ms * 1e3:7.1f}ms"
            f"  eager {eager_ms * 1e3:6.1f}ms"
        )
    print(
        f"  identical selections, {manager.stats['eager_hits']}/{ROUNDS} eager hits — "
        "the labeler's think-time paid for the selection"
    )
    await manager.aclose(checkpoint=False)

    print("\n== the same loop over the HTTP front ==")
    manager = SessionManager(ServeConfig(max_sessions=8, max_workers=2))
    front = HttpFrontend(manager, specs={"firal": make_spec(problem, make_firal, seed=3)})
    host, port = await front.start()
    print(f"  listening on {host}:{port}")

    async def post(path, body):
        reader, writer = await asyncio.open_connection(host, port)
        payload = json.dumps(body).encode()
        writer.write(
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        return json.loads(raw.split(b"\r\n\r\n", 1)[1])

    await post("/sessions/wire/open", {"spec": "firal"})
    for _ in range(ROUNDS):
        proposal = await post("/sessions/wire/propose", {})
        record = await post("/sessions/wire/observe", {"labels": labeler(proposal)})
        print(
            f"  [wire] round {proposal['round_index']}: "
            f"eval acc {record['eval_accuracy']:.4f}"
        )
    await post("/sessions/wire/close", {"checkpoint": False})
    await front.stop()
    await manager.aclose(checkpoint=False)


if __name__ == "__main__":
    asyncio.run(main())
