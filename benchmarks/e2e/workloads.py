"""Workload definitions, the direct closed loop, and metric derivation.

Each workload runs in its own process (``run.py`` spawns it) as a closed
loop from one load process: the next call is issued only after the previous
one returned.  A run

* **runs a fixed number of whole sessions**, :func:`sessions_for` of
  ``--seconds``: as many as take about that long on the box the benchmark
  was sized on, and
* **sets up** :data:`SETUPS` times, half before and half after those
  sessions, so that the samples see the host at two moments: each set-up
  imports the program in a fresh interpreter, builds the inputs from
  ``--seed`` and opens the first session (``setup_s`` is the median).

The work of a run is therefore fixed by ``--seed`` and ``--seconds`` alone,
never by how fast the host happens to be, and accuracy and the selection
digest cover every session of the run.

Every proposal is checked (``budget`` distinct ids, all in the pool, none
labeled before); a violated check, an exception, a non-200 response or a
timeout counts as one failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.active.problem import ActiveLearningProblem
from repro.baselines.base import FIRALStrategy
from repro.core.config import RelaxConfig
from repro.core.firal import ApproxFIRAL
from repro.datasets.registry import build_problem
from repro.engine.session import ActiveSession, SessionConfig
from repro.engine.stores import ShardedPointStore

from spans import Tracer

HERE = Path(__file__).resolve().parent

#: Set-ups per run, half before and half after the sessions; ``setup_s`` is
#: their median.
SETUPS = 6

#: Mirror-descent iterations per RELAX solve.  The § IV-A default (100) makes
#: one round at these shapes take 0.3-3.5 s with CG counts that vary 20x from
#: round to round, so a run would hold too few rounds for a steady median;
#: 10 is the serving benchmark's precedent (``bench_serving.py``).  A change
#: to how fast mirror descent converges is therefore a blind spot (README).
RELAX_ITERATIONS = 10

#: Iterations per CG solve where a workload fixes them (``Shape.cg_iterations``):
#: near the stopping rule's mean at these shapes (16 for cifar10, 22 for
#: imb-cifar10 @ 0.1).
FIXED_CG_ITERATIONS = 20


def make_strategy(cg_iterations: Optional[int] = None) -> FIRALStrategy:
    """The paper's selector with the § IV-A η grid and a bounded RELAX.

    With ``cg_iterations``, every CG solve runs exactly that many iterations
    and mirror descent never stops early, so a round's solver work is the same
    for every problem.
    """

    if cg_iterations is None:
        config = RelaxConfig(max_iterations=RELAX_ITERATIONS)
    else:
        config = RelaxConfig(
            max_iterations=RELAX_ITERATIONS, objective_tolerance=0.0,
            cg_tolerance=1e-12, cg_max_iterations=cg_iterations,
        )
    return FIRALStrategy(ApproxFIRAL(config))


@dataclass(frozen=True)
class Shape:
    """Inputs of one direct workload."""

    dataset: str
    scale: float
    budget: int
    rounds: int  # rounds per session
    # Seconds one session took on the 2-vCPU box the benchmark was sized on;
    # sizes the fixed number of sessions in a run (sessions_for).
    session_s: float
    parallel_ranks: Optional[int] = None
    # CG iterations per solve, fixed (make_strategy); None keeps the solver's
    # stopping rule.  A workload that measures a layer other than the solver
    # fixes them: a problem's CG count varies by 13-22% between problems,
    # which otherwise swamps the layer the workload is for (README).
    cg_iterations: Optional[int] = None


DIRECT_SHAPES: Dict[str, Dict[str, Shape]] = {
    "ref": {
        "full": Shape("cifar10", 0.1, 10, 3, session_s=1.6),
        "tiny": Shape("cifar10", 0.05, 10, 2, session_s=1.0),
    },
    "imb-2rank": {
        "full": Shape(
            "imb-cifar10", 0.1, 10, 3, session_s=4.4, parallel_ranks=2,
            cg_iterations=FIXED_CG_ITERATIONS,
        ),
        "tiny": Shape(
            "imb-cifar10", 0.05, 10, 2, session_s=1.0, parallel_ranks=2,
            cg_iterations=FIXED_CG_ITERATIONS,
        ),
    },
}


def sessions_for(session_s: float, seconds: float) -> int:
    """Sessions in a run of ``seconds``: fixed by the arguments, not by host speed."""

    return max(1, round(seconds / session_s))


#: Seconds the probe kernel takes on the sizing box when nothing contends
#: for it (its 1st percentile over 3000 readings: 8.9 ms).
NOMINAL_PROBE_S = 0.009


class HostProbe:
    """Host speed, read on a fixed kernel between measured intervals.

    The box this benchmark was sized on runs the same code up to 2x slower
    for minutes at a time (README, "Steadiness"), so raw wall times of runs a
    few minutes apart differ by more than any bound worth having.  The probe
    kernel is a frozen copy of the solver's inner step (a multinomial Fisher
    matvec at the workloads' shapes, 300 times), written here so that no
    change to the program changes it.  :meth:`factor` reads it once and
    returns ``NOMINAL_PROBE_S`` over the mean of this and the previous
    reading; multiplied by the wall time of an interval between the two
    readings, it gives the time that interval would have taken at the host's
    nominal speed.  Readings are taken only while the program is idle, on
    the one CPU the workload runs on (``run.py`` pins it).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((300, 20))
        self._p = rng.dirichlet(np.ones(10), size=300)
        self._v = rng.standard_normal((20, 10))
        self.readings: List[float] = []
        self._last = self._read()

    def _read(self) -> float:
        x, p, v = self._x, self._p, self._v
        tick = time.perf_counter()
        for _ in range(300):
            xv = x @ v
            v = x.T @ (p * xv - p * (p * xv).sum(1, keepdims=True)) / 300 + 1e-3 * v
            v = v / np.linalg.norm(v)
        seconds = time.perf_counter() - tick
        self.readings.append(seconds)
        return seconds

    def factor(self) -> float:
        """Read the probe; the factor for the interval since the previous reading."""

        now = self._read()
        factor = NOMINAL_PROBE_S / (0.5 * (self._last + now))
        self._last = now
        return factor


class Outcome:
    """Samples and failure accounting of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.rounds: List[dict] = []
        self.selections: Dict[str, List[List[int]]] = {}
        self.final_accuracy: Dict[str, float] = {}
        #: Set-up seconds, raw and host-normalized (:class:`HostProbe`).
        self.setup_raw: List[float] = []
        self.setup_samples: List[float] = []
        #: ``{session: seconds}``, raw and host-normalized; a session's wall
        #: covers its open (except the first session's, opened during set-up)
        #: and its rounds, never a probe reading.
        self.session_walls_raw: Dict[str, float] = {}
        self.session_walls: Dict[str, float] = {}
        self.probe = HostProbe()
        self.peak_rss_mb = 0.0
        self.extra: dict = {}

    def add_setup(self, raw: float, factor: float) -> None:
        self.setup_raw.append(raw)
        self.setup_samples.append(raw * factor)

    def add_session(self, name: str, parts) -> None:
        """Record a session's wall from ``(seconds, host factor)`` parts."""

        parts = list(parts)
        self.session_walls_raw[name] = sum(s for s, _ in parts)
        self.session_walls[name] = sum(s * f for s, f in parts)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def selection_sha256(self) -> str:
        chosen = [self.selections[s] for s in sorted(self.selections)]
        return hashlib.sha256(json.dumps(chosen).encode()).hexdigest()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_ids(ids, budget: int, in_pool: np.ndarray, labeled) -> Optional[str]:
    """The proposal invariant; returns a message when it is violated."""

    ids = np.asarray(ids, dtype=np.int64)
    if ids.size != budget:
        return f"proposal has {ids.size} ids, expected {budget}"
    if np.unique(ids).size != ids.size:
        return "proposal repeats an id"
    if ids.min() < 0 or ids.max() >= in_pool.size or not bool(in_pool[ids].all()):
        return "proposal names an id outside the pool"
    if bool(np.isin(ids, labeled).any()):
        return "proposal names an id labeled before"
    return None


def rounds_per_s(out: Outcome) -> float:
    """Committed rounds over the summed (host-normalized) wall of the sessions that held them."""

    return len(out.rounds) / sum(out.session_walls.values())


# --------------------------------------------------------------------------- #
# instrumentation from outside (traced runs only)
# --------------------------------------------------------------------------- #
def _rows(args, result) -> dict:
    return {"rows": int(len(args[0]))}


def instrument_session(tracer: Tracer, session: ActiveSession, label: str) -> None:
    """Wrap the public methods of the objects a session was built from."""

    def trace_id(*_):
        return f"{label}/{session.round_index}"

    clf = session.classifier
    # predict() calls predict_proba() on the instance, so a predict span
    # holds a nested predict_proba span; metrics count only the outer one.
    tracer.wrap(clf, "predict", "models.predict", trace_id, counters=_rows)
    tracer.wrap(clf, "predict_proba", "models.predict_proba", trace_id, counters=_rows)
    tracer.wrap(clf, "fit", "models.fit", trace_id, counters=_rows)
    # Every host view (pool, labeled, by id) gathers through features_host.
    tracer.wrap(session.store, "features_host", "stores.gather", trace_id, counters=_rows)
    strategy = session.strategy

    def solver_spans(span: dict, result) -> None:
        add_solver_spans(tracer, span, strategy)

    tracer.wrap(strategy, "select", "strategy.select", trace_id, after=solver_spans)


def add_solver_spans(tracer: Tracer, span: dict, strategy: FIRALStrategy) -> None:
    """Lay the solver's own component timings out under ``strategy.select``.

    Serial results carry ``TimingBreakdown``\\ s; distributed results carry
    per-rank seconds, whose max over ranks is the component's compute time,
    and the rest of the call is rank launch plus collectives.
    """

    relax, rnd = strategy.last_result.relax, strategy.last_result.round
    round_config = strategy.selector.round_config
    wall = span["end"] - span["start"]
    if hasattr(relax, "per_rank_seconds"):
        parts = [(f"relax.{n}", relax.max_rank_seconds(n)) for n in sorted(relax.per_rank_seconds)]
        parts.append(("round.eta_search", rnd.compute_seconds()))
        compute = sum(s for _, s in parts)
        parts.append(("parallel.launch_comm", max(0.0, wall - compute)))
        per_rank = sum(np.asarray(v, dtype=np.float64) for v in relax.per_rank_seconds.values())
        per_rank = per_rank + sum(np.asarray(v, dtype=np.float64) for v in rnd.per_rank_seconds.values())
        span["parallel_compute_s"] = compute
        span["rank_imbalance"] = float(per_rank.max() / max(per_rank.min(), 1e-12))
        span["collective_calls"] = relax.comm_log.total_calls() + rnd.comm_log.total_calls()
        span["collective_bytes"] = relax.comm_log.total_bytes() + rnd.comm_log.total_bytes()
    else:
        parts = [(f"relax.{n}", s) for n, s in sorted(relax.timings.components.items())]
        parts.append(("round.eta_search", max(0.0, wall - relax.timings.total())))
    span["iterations"] = int(relax.iterations)
    span["cg_iterations"] = int(relax.cg_iterations)
    span["trials"] = 1 if round_config.eta is not None else len(tuple(round_config.eta_grid))
    cursor = span["start"]
    for name, seconds in parts:
        tracer.add(name, span["trace_id"], cursor, cursor + seconds, span["id"])
        cursor += seconds


# --------------------------------------------------------------------------- #
# direct workloads
# --------------------------------------------------------------------------- #
class DirectInputs:
    """Problems and session factory of one direct workload, built from a seed."""

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.seed = seed

    def problem(self, k: int) -> ActiveLearningProblem:
        """Session ``k``'s problem."""

        shape = self.shape
        return build_problem(shape.dataset, scale=shape.scale, seed=np.random.SeedSequence([self.seed, k]))

    def set_up(self) -> float:
        """One timed set-up: a fresh interpreter's imports, then input
        generation and the first session's construction; returns seconds."""

        imported = import_seconds()
        tick = time.perf_counter()
        self.open(self.problem(0))
        return imported + time.perf_counter() - tick

    def open(self, problem: ActiveLearningProblem) -> ActiveSession:
        shape = self.shape
        # Ranks run on the default simulated transport (threads): the
        # shared_memory transport writes its segments to /dev/shm, outside
        # the checkout, and its per-round process launches spread too widely
        # to hold a bound (README, finding 3).
        config = SessionConfig(
            parallel_ranks=shape.parallel_ranks,
            store=(
                None if shape.parallel_ranks is None
                else ShardedPointStore.factory(num_shards=shape.parallel_ranks)
            ),
        )
        return ActiveSession(
            problem, make_strategy(shape.cg_iterations), budget_per_round=shape.budget,
            num_rounds=shape.rounds, seed=self.seed, config=config,
        )


def run_direct(workload: str, seed: int, seconds: float, tracer: Optional[Tracer], tiny: bool) -> Outcome:
    shape = DIRECT_SHAPES[workload]["tiny" if tiny else "full"]
    out = Outcome()
    span = tracer.span if tracer is not None else _no_span
    inputs = DirectInputs(shape, seed)
    measure_setups(out, inputs.set_up, SETUPS // 2)
    for k in range(sessions_for(shape.session_s, seconds)):
        label = f"{workload}/{k}"
        # Input generation is the benchmark's work, not the program's: it
        # stays outside the measured session time.
        problem = inputs.problem(k)
        tick = time.perf_counter()
        with span("session.open", f"{label}/0"):
            session = inputs.open(problem)
        if tracer is not None:
            instrument_session(tracer, session, label)
        opened = time.perf_counter() - tick
        done = _direct_session(session, shape, out, str(k), span, label)
        rounds = [r for r in out.rounds if r["session"] == str(k)]
        # The open shares the first round's probe readings.
        out.add_session(
            str(k), [(opened, rounds[0]["host_factor"] if rounds else 1.0)]
            + [(r["wall_s"], r["host_factor"]) for r in rounds]
        )
        if not done:
            break  # a failed session makes the run incorrect; stop measuring
        out.final_accuracy[str(k)] = float(session.result.records[-1].balanced_eval_accuracy)
        session = None
    measure_setups(out, inputs.set_up, SETUPS - SETUPS // 2)
    out.peak_rss_mb = peak_rss_mb()
    return out


def measure_setups(out: Outcome, set_up, count: int) -> None:
    """Time ``count`` set-ups; ``set_up()`` does one and returns its seconds."""

    for _ in range(count):
        out.probe.factor()
        raw = set_up()
        out.add_setup(raw, out.probe.factor())


def import_seconds() -> float:
    """Wall time for a fresh interpreter to import everything a workload imports."""

    tick = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import served"], cwd=HERE, check=True)
    return time.perf_counter() - tick


@contextlib.contextmanager
def _no_span(name, trace_id):
    yield None


def _direct_session(session, shape: Shape, out: Outcome, name: str, span, label) -> bool:
    """Run one session's rounds, recording its selections under ``name``;
    returns whether every round committed."""

    chosen = out.selections.setdefault(name, [])
    for r in range(shape.rounds):
        tid = f"{label}/{r}"
        sample = {"session": name, "round": r}
        with span("round", tid):
            out.attempted += 1
            tick = time.perf_counter()
            try:
                with span("session.propose", tid):
                    proposal = session.propose()
            except Exception as exc:  # a failed call is counted, and ends the session
                out.fail(f"{tid} propose: {type(exc).__name__}: {exc}")
                return False
            sample["propose_s"] = time.perf_counter() - tick
            problem = check_ids(
                proposal.global_ids, shape.budget, session.store.in_pool, session.store.labeled_ids
            )
            if problem is not None:
                out.fail(f"{tid}: {problem}")
                return False
            chosen.append([int(i) for i in proposal.global_ids])
            out.attempted += 1
            tock = time.perf_counter()
            try:
                with span("session.observe", tid):
                    session.observe()
            except Exception as exc:
                out.fail(f"{tid} observe: {type(exc).__name__}: {exc}")
                return False
            sample["observe_s"] = time.perf_counter() - tock
            sample["wall_s"] = time.perf_counter() - tick
        # Read while the program is idle, between this round and the next.
        sample["host_factor"] = out.probe.factor()
        sample["setup_s"] = float(proposal.setup_seconds)
        sample["select_s"] = float(proposal.selection_seconds)
        # The solver's own count, a public result field: it tells input
        # variance (work) apart from host variance (time per unit of work).
        sample["cg_iterations"] = int(session.strategy.last_result.relax.cg_iterations)
        out.rounds.append(sample)
    return True


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
def end_to_end(out: Outcome) -> dict:
    """The user-facing metrics (untraced runs)."""

    accuracy = list(out.final_accuracy.values())
    return {
        "setup_s": statistics.median(out.setup_samples),
        "rounds_per_s": rounds_per_s(out),
        "propose_s.p50": statistics.median(r["propose_s"] * r["host_factor"] for r in out.rounds),
        # A failed session leaves no accuracy; the run is incorrect then anyway.
        "final_balanced_acc": statistics.mean(accuracy) if accuracy else 0.0,
        "peak_rss_mb": out.peak_rss_mb,
    }


def per_layer(out: Outcome, spans: List[dict]) -> dict:
    """Per-layer metrics from the traced run: seconds and counts per committed round."""

    n = max(len(out.rounds), 1)
    by_id = {s["id"]: s for s in spans}

    def total(name: str, key: Optional[str] = None) -> float:
        """Duration (or counter ``key``) summed over ``name`` spans, outer calls only."""

        value = 0.0
        for s in spans:
            if s["name"] != name:
                continue
            parent = by_id.get(s["parent"])
            if parent is not None and parent["name"].split(".")[0] == name.split(".")[0]:
                continue  # nested in a call of the same layer (predict -> predict_proba)
            value += (s["end"] - s["start"]) if key is None else s.get(key, 0)
        return value

    def rounds_sum(key: str) -> float:
        return sum(r[key] for r in out.rounds)

    serve = out.extra.get("serve", {})
    wall = rounds_sum("wall_s") or 1e-12
    if serve:
        unattributed = serve["unattributed_s"]
        observe = total("session.observe")
    else:
        observe = rounds_sum("observe_s")
        unattributed = wall - sum(rounds_sum(k) for k in ("setup_s", "select_s", "observe_s"))
    selects = [s for s in spans if s["name"] == "strategy.select"]
    return {
        "session.setup_s": rounds_sum("setup_s") / n,
        "session.select_s": rounds_sum("select_s") / n,
        "session.observe_s": observe / n,
        "session.unattributed_s": unattributed / n,
        "models.predict_proba_s": total("models.predict_proba") / n,
        "models.predict_s": total("models.predict") / n,
        "models.fit_s": total("models.fit") / n,
        "models.rows_predicted": (total("models.predict_proba", "rows") + total("models.predict", "rows")) / n,
        "stores.gather_s": total("stores.gather") / n,
        "stores.rows_gathered": total("stores.gather", "rows") / n,
        "relax.setup_preconditioner_s": total("relax.setup_preconditioner") / n,
        "relax.cg_s": total("relax.cg") / n,
        "relax.gradient_s": total("relax.gradient") / n,
        "relax.objective_s": total("relax.objective") / n,
        "relax.other_s": total("relax.other") / n,
        "relax.iterations": total("strategy.select", "iterations") / n,
        "relax.cg_iterations": total("strategy.select", "cg_iterations") / n,
        "round.eta_search_s": total("round.eta_search") / n,
        "round.trials": total("strategy.select", "trials") / n,
        "parallel.compute_s": total("strategy.select", "parallel_compute_s") / n,
        "parallel.launch_comm_s": total("parallel.launch_comm") / n,
        "parallel.rank_imbalance": (
            statistics.median(s.get("rank_imbalance", 1.0) for s in selects) if selects else 1.0
        ),
        "parallel.collective_calls": total("strategy.select", "collective_calls") / n,
        "parallel.collective_bytes": total("strategy.select", "collective_bytes") / n,
        "serve.http_s.p50": serve.get("http_s.p50", 0.0),
        "serve.queue_wait_s.p50": serve.get("queue_wait_s.p50", 0.0),
        "serve.select_s.p50": serve.get("select_s.p50", 0.0),
        "serve.observe_s.p50": serve.get("observe_s.p50", 0.0),
        "serve.queue_depth.p50": serve.get("queue_depth.p50", 0.0),
        "serve.eager_hit_ratio": serve.get("eager_hit_ratio", 0.0),
        "serve.checkpoints": serve.get("checkpoints", 0) / n,
        "serve.checkpoint_write_s.p50": serve.get("checkpoint_write_s.p50", 0.0),
        "trace.rounds_per_s": rounds_per_s(out),
        "trace.unattributed_frac": unattributed / wall,
    }
