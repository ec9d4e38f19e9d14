"""The ``served`` workload: a stdlib HTTP server process and its load client.

The server (``python served.py --serve ...``, started by the client) puts a
:class:`repro.serve.SessionManager` behind :class:`repro.serve.HttpFrontend`
with one registered session spec per session of the run, prints its port,
and serves until SIGTERM; then it writes a report (serving counters, its own
peak RSS and, when traced, its spans) for the client to read.

The client is one asyncio process driving ``tenants`` closed-loop tenants,
one request each at a time, so at most that many connections are open at
once.  The tenants run session pairs back to back and answer each proposal
at once with oracle labels looked up in an identically generated problem:
the labeler is a program with no think time, so every propose waits for its
selection and nothing is hidden behind a sleep.  After the measured phase,
the first pair's selections must equal an in-process direct replay of their
specs (the serving layer's bit-identity contract).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro.datasets.registry import build_problem
from repro.engine.session import ActiveSession
from repro.serve import HttpFrontend, ServeConfig, SessionManager, SessionSpec

from spans import Tracer
from workloads import (
    FIXED_CG_ITERATIONS, SETUPS, Outcome, check_ids, instrument_session, make_strategy, measure_setups,
    peak_rss_mb, sessions_for,
)

#: Prefix of the spec names the server registers, one spec per session.
SPEC_PREFIX = "cifar10-b5-"
#: Seconds a single HTTP request may take before it counts as failed.
REQUEST_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ServedShape:
    dataset: str
    scale: float
    budget: int
    rounds: int  # rounds per session
    tenants: int
    session_s: float  # seconds per session pair on the sizing box (workloads.Shape)


SERVED_SHAPES = {
    "full": ServedShape("cifar10", 0.1, 5, 5, 2, session_s=6.5),
    "tiny": ServedShape("cifar10", 0.05, 5, 2, 2, session_s=1.0),
}


def strategy():
    """The selector every served session uses, with fixed solver work (``workloads.Shape.cg_iterations``)."""

    return make_strategy(FIXED_CG_ITERATIONS)


def spec_name(tenant: int, pair: int) -> str:
    return f"{SPEC_PREFIX}{tenant}-{pair}"


def session_problem(shape: ServedShape, seed: int, tenant: int, pair: int):
    """The problem of tenant ``tenant``'s session in pair ``pair``; the server
    and the client build the same one."""

    return build_problem(
        shape.dataset, scale=shape.scale, seed=np.random.SeedSequence([seed, tenant, pair])
    )


# --------------------------------------------------------------------------- #
# server process
# --------------------------------------------------------------------------- #
def serve_main(args) -> None:
    shape = SERVED_SHAPES["tiny" if args.tiny else "full"]
    # One spec per session of the run: a pair's two sessions, and every pair,
    # select on problems of their own.
    specs = {
        spec_name(t, n): SessionSpec(
            problem=session_problem(shape, args.seed, t, n), strategy_factory=strategy,
            budget_per_round=shape.budget, num_rounds=shape.rounds, seed=args.seed,
        )
        for n in range(args.pairs)
        for t in range(shape.tenants)
    }
    manager = SessionManager(
        ServeConfig(
            max_workers=2, pipeline="eager", checkpoint_policy="round",
            checkpoint_dir=tempfile.mkdtemp(prefix="checkpoints-"),
        )
    )
    tracer = Tracer(id_prefix="server-") if args.trace else None
    if tracer is not None:
        instrument_manager(tracer, manager)
    frontend = HttpFrontend(manager, specs)

    async def main() -> None:
        _, port = await frontend.start()
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        print(port, flush=True)
        await stop.wait()
        await frontend.stop()
        await manager.aclose(checkpoint=False)

    asyncio.run(main())
    report = {
        "stats": dict(manager.stats),
        "peak_rss_mb": peak_rss_mb(),
        "spans": [] if tracer is None else tracer.spans,
    }
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def instrument_manager(tracer, manager) -> None:
    """Wrap the manager's public coroutines and every session it builds."""

    def request_id(session_id, *_):
        try:
            round_index = manager.session_info(session_id)["round_index"]
        except Exception:  # the request itself will report the missing session
            round_index = "?"
        return f"served/{session_id}/{round_index}"

    tracer.wrap_async(
        manager, "propose", "serve.propose", request_id,
        counters=lambda: {"queue_depth": manager.inflight},
    )
    tracer.wrap_async(manager, "observe", "serve.observe", request_id)
    inner_open = manager.open_session

    async def open_session(session_id, spec, **kwargs):
        label = f"served/{session_id}"

        def build():
            session = SessionSpec.build(spec)
            instrument_session(tracer, session, label)
            trace_id = lambda *_: f"{label}/{session.round_index}"  # noqa: E731
            tracer.wrap(session, "propose", "session.propose", trace_id)
            tracer.wrap(session, "observe", "session.observe", trace_id)
            return session

        traced = SessionSpec(**{f: getattr(spec, f) for f in spec.__dataclass_fields__})
        traced.build = build
        return await inner_open(session_id, traced, **kwargs)

    manager.open_session = open_session

    def checkpoint_id(payload, path):
        return f"served/{os.path.splitext(os.path.basename(path))[0]}/{payload['round_index'] - 1}"

    # A static method: the manager calls it on the class, so the class attribute is wrapped.
    tracer.wrap(ActiveSession, "write_checkpoint", "serve.checkpoint_write", checkpoint_id)
    ActiveSession.write_checkpoint = staticmethod(ActiveSession.write_checkpoint)


# --------------------------------------------------------------------------- #
# client side
# --------------------------------------------------------------------------- #
def spawn_server(seed: int, pairs: int, report: str, trace: bool, tiny: bool):
    """Start the server and wait until it answers ``/healthz``; returns (proc, port)."""

    cmd = [
        sys.executable, os.path.abspath(__file__), "--serve", "--seed", str(seed),
        "--pairs", str(pairs), "--report", report,
    ]
    if trace:
        cmd.append("--trace")
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=os.environ.copy())
    line = proc.stdout.readline()
    if not line.strip():
        stop_server(proc)
        raise RuntimeError("server exited before binding a port")
    port = int(line)
    status, _ = asyncio.run(request(port, "GET", "/healthz"))
    if status != 200:
        stop_server(proc)
        raise RuntimeError(f"server health check returned {status}")
    return proc, port


def stop_server(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


async def request(port: int, method: str, path: str, body=None):
    """One HTTP/1.1 request on its own connection; returns (status, json body)."""

    async def roundtrip():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            data = json.dumps(body or {}).encode()
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + data)
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        status_line, _, rest = raw.partition(b"\r\n")
        _, _, payload = rest.partition(b"\r\n\r\n")
        return int(status_line.split(b" ", 2)[1]), json.loads(payload or b"{}")

    return await asyncio.wait_for(roundtrip(), REQUEST_TIMEOUT_S)


def run_served(seed: int, seconds: float, tracer, tiny: bool, specs=None):
    """Run the served workload; ``specs`` (one spec name per tenant, used for
    every pair) overrides the registered names.

    Set-up is spawning a fresh server until it answers ``/healthz``, done
    :data:`~workloads.SETUPS` times, half before and half after the measured
    phase; a server of its own serves the run.  A session pair (one session
    per tenant, in lock-step) plays the role of a direct session.
    """

    shape = SERVED_SHAPES["tiny" if tiny else "full"]
    out = Outcome()
    pairs = sessions_for(shape.session_s, seconds)
    problems = [[session_problem(shape, seed, t, n) for t in range(shape.tenants)] for n in range(pairs)]
    names = [specs or [spec_name(t, n) for t in range(shape.tenants)] for n in range(pairs)]
    report_path = os.path.join(tempfile.gettempdir(), "server-report.json")

    def set_up() -> float:
        tick = time.perf_counter()
        proc, _ = spawn_server(seed, pairs, report_path + ".setup", False, tiny)
        elapsed = time.perf_counter() - tick
        stop_server(proc)
        return elapsed

    measure_setups(out, set_up, SETUPS // 2)
    proc, port = spawn_server(seed, pairs, report_path, tracer is not None, tiny)
    try:
        asyncio.run(_drive(port, shape, out, problems, names))
    finally:
        stop_server(proc)
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    out.peak_rss_mb = float(report["peak_rss_mb"])
    stats = report["stats"]
    measure_setups(out, set_up, SETUPS - SETUPS // 2)

    # The serving bit-identity contract, checked outside the timed phase on
    # the first pair (replaying every session would double the run).
    for t, problem in enumerate(problems[0]):
        direct = ActiveSession(
            problem, strategy(), budget_per_round=shape.budget, num_rounds=shape.rounds, seed=seed
        )
        replay = []
        for _ in range(shape.rounds):
            replay.append([int(i) for i in direct.propose().global_ids])
            direct.observe()
        served = out.selections.get(f"t{t}-0")
        if served is not None and served != replay[: len(served)]:
            out.fail(f"served session t{t}-0 differs from the direct replay")
    if tracer is not None:
        tracer.spans.extend(report["spans"])
        out.extra["serve"] = serve_breakdown(out, tracer.spans, stats)
    out.extra["stats"] = stats
    return out


async def _drive(port, shape, out, problems, names):
    """Run the session pairs (``problems[n][t]`` is the problem of tenant
    ``t``'s session in pair ``n``), stopping at the first failed one.

    Tenants run their sessions in lock-step: each round, all tenants
    propose concurrently, then the host probe is read, then they observe
    concurrently, so every run sees the same overlap of the two tenants'
    selections."""

    async def call(method, path, body=None):
        out.attempted += 1
        try:
            status, payload = await request(port, method, path, body)
        except Exception as exc:  # timeouts and broken connections count as failures
            out.fail(f"{method} {path}: {type(exc).__name__}: {exc}")
            return None
        if status != 200:
            out.fail(f"{method} {path}: HTTP {status} {payload.get('error', '')}")
            return None
        return payload

    async def propose(t: int, sid: str, r: int, in_pool: np.ndarray):
        """Propose and check the proposal; returns ``(ids, sample)``, or None on failure."""

        tick = time.perf_counter()
        proposal = await call("POST", f"/sessions/{sid}/propose")
        sample = {"session": f"t{t}", "sid": sid, "round": r, "propose_s": time.perf_counter() - tick}
        if proposal is None:
            return None
        ids = np.asarray(proposal["global_ids"], dtype=np.int64)
        problem = check_ids(ids, shape.budget, in_pool, np.flatnonzero(~in_pool))
        if problem is not None:
            out.fail(f"served/{sid}/{r}: {problem}")
            return None
        out.selections.setdefault(sid, []).append([int(i) for i in ids])
        sample["setup_s"] = float(proposal["setup_seconds"])
        sample["select_s"] = float(proposal["selection_seconds"])
        sample["wall_s"] = time.perf_counter() - tick
        return ids, sample

    async def observe(sid: str, ids: np.ndarray, sample: dict, in_pool: np.ndarray, oracle: np.ndarray):
        """Answer a proposal with oracle labels; returns the round record, or None on failure."""

        tick = time.perf_counter()
        record = await call("POST", f"/sessions/{sid}/observe", {"labels": oracle[ids].tolist()})
        sample["observe_s"] = time.perf_counter() - tick
        if record is None:
            return None
        in_pool[ids] = False
        sample["wall_s"] += time.perf_counter() - tick
        out.rounds.append(sample)
        return record

    async def timed(*calls):
        tick = time.perf_counter()
        results = await asyncio.gather(*calls)
        return results, time.perf_counter() - tick

    for n, pair in enumerate(problems):
        # Oracle labels are looked up by global id: initial points, then the pool.
        oracles = [np.concatenate([prob.initial_labels, prob.pool_labels]) for prob in pair]
        sids = [f"t{t}-{n}" for t in range(shape.tenants)]
        opened, open_s = await timed(
            *(call("POST", f"/sessions/{sid}/open", {"spec": name}) for sid, name in zip(sids, names[n]))
        )
        pools = {}
        for sid, info, problem in zip(sids, opened, pair):
            if info is not None:
                pools[sid] = np.ones(problem.initial_size + problem.pool_size, dtype=bool)
                pools[sid][:problem.initial_size] = False
        committed, factor, parts = False, 1.0, []
        if len(pools) == len(sids):
            for r in range(shape.rounds):
                proposals, propose_s = await timed(
                    *(propose(t, sid, r, pools[sid]) for t, sid in enumerate(sids))
                )
                # Both proposals are out and no selection is running: the
                # server is idle while the probe is read.
                factor = out.probe.factor()
                if r == 0:
                    parts.append((open_s, factor))
                if any(p is None for p in proposals):
                    break
                for (_, sample) in proposals:
                    sample["host_factor"] = factor
                records, observe_s = await timed(*(
                    observe(sid, ids, sample, pools[sid], oracles[t])
                    for t, (sid, (ids, sample)) in enumerate(zip(sids, proposals))
                ))
                parts.append((propose_s + observe_s, factor))
                if any(rec is None for rec in records):
                    break
            else:
                committed = True
                for sid, rec in zip(sids, records):
                    out.final_accuracy[sid] = float(rec["balanced_eval_accuracy"])
        _, close_s = await timed(
            *(call("POST", f"/sessions/{sid}/close", {"checkpoint": False}) for sid in pools)
        )
        out.add_session(f"pair{n}", parts + [(close_s, factor)])
        if not committed:
            return  # a failed session makes the run incorrect; stop measuring


def serve_breakdown(out, spans, stats) -> dict:
    """Split each client-observed propose into HTTP, serving overhead and session time.

    Client samples and server spans of one request share the trace id
    ``served/<session>/<round>``.
    """

    server = {(s["name"], s["trace_id"]): s for s in spans if s["name"] in ("serve.propose", "session.propose")}
    http, queue, depth = [], [], []
    for r in out.rounds:
        tid = f"served/{r['sid']}/{r['round']}"
        manager, session = server.get(("serve.propose", tid)), server.get(("session.propose", tid))
        if manager is None or session is None:
            continue
        manager_s = manager["end"] - manager["start"]
        http.append(r["propose_s"] - manager_s)
        queue.append(manager_s - (session["end"] - session["start"]))
        depth.append(manager["queue_depth"])
    writes = [s["end"] - s["start"] for s in spans if s["name"] == "serve.checkpoint_write"]

    def p50(values):
        return statistics.median(values) if values else 0.0

    return {
        "http_s.p50": p50(http),
        "queue_wait_s.p50": p50(queue),
        "select_s.p50": p50([r["select_s"] for r in out.rounds]),
        "observe_s.p50": p50([r["observe_s"] for r in out.rounds]),
        "queue_depth.p50": p50(depth),
        "eager_hit_ratio": stats["eager_hits"] / max(stats["proposals"], 1),
        "checkpoints": stats["checkpoints"],
        "checkpoint_write_s.p50": p50(writes),
        "unattributed_s": sum(r["wall_s"] - r["propose_s"] - r["observe_s"] for r in out.rounds),
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="served workload: server process")
    parser.add_argument("--serve", action="store_true", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    serve_main(parser.parse_args())
