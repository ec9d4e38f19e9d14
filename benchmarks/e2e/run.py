"""Canonical end-to-end benchmark: three workloads, one command.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N] [--repeat R]
                                  [--seconds S] [--trace 0|1] [--out FILE] [--tiny]

Each workload runs in a fresh subprocess with a hard timeout (a rank that
dies while bootstrapping must not hang the run).  Every metric is printed as
``workload  name  value  unit``; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the ``end_to_end`` list of ``BENCHMARK.json``,
with ``--trace 1`` the ``per_layer`` list, measured by wrappers installed
around calls into the program (spans go to ``<out>.trace.jsonl``).  The exit
code is 0 only when every workload ran and every check passed.

``--repeat R`` runs each workload with seeds ``N .. N+R-1`` and prints
medians.  ``--out`` writes the full payload: git SHA, ``nproc``, NumPy/BLAS
configuration, seed, per-round samples and set-up samples of every run.
See ``README.md`` beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("ref", "imb-2rank", "served")
#: Everything a run writes (temp files, checkpoints, server reports) stays here.
WORK_DIR = ROOT / ".e2e_work"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, help="default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds seed..seed+repeat-1")
    # The command line in BENCHMARK.json is run as
    # ``<command> --workload W --seed N --seconds S --trace 0|1``, so both
    # options take a value; without --seconds, run_seconds of BENCHMARK.json
    # applies (1 under --tiny).
    parser.add_argument("--seconds", type=float, help="measured seconds per workload run")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1), help="1: per-layer metrics")
    parser.add_argument("--out", help="write the full JSON payload here")
    parser.add_argument("--tiny", action="store_true", help="small shapes for smoke tests")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
# workload process
# --------------------------------------------------------------------------- #
def child_main(args) -> int:
    # The whole workload, with the processes it starts, runs on one CPU, the
    # one the host probe reads.  Its threads (ranks of the simulated
    # transport, serving workers) hold the interpreter lock for most of their
    # work, so a second vCPU gained nothing on the sizing box: 2-rank rounds
    # took 1.6 s spread over two vCPUs and 1.2 s on one.  Spread over two,
    # every rendezvous also waited on the slower vCPU's scheduling, which a
    # one-CPU probe cannot see (README, "Steadiness").
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from served import run_served
    from spans import Tracer, layer_self_times, write_jsonl
    from workloads import end_to_end, per_layer, run_direct

    tracer = Tracer() if args.trace else None
    if args.child == "served":
        out = run_served(args.seed, args.seconds, tracer, args.tiny)
    else:
        out = run_direct(args.child, args.seed, args.seconds, tracer, args.tiny)
    spans = [] if tracer is None else tracer.spans
    # Per-round samples as columns, times to the microsecond, to keep payloads small.
    rounds = {
        key: [round(row[key], 6) if isinstance(row[key], float) else row[key] for row in out.rounds]
        for key in (out.rounds[0] if out.rounds else ())
    }
    result = {
        "workload": args.child,
        "seed": args.seed,
        "attempted": out.attempted,
        "failed": out.failed,
        "failed_frac": out.failed / max(out.attempted, 1),
        "errors": out.errors,
        "selection_sha256": out.selection_sha256(),
        "end_to_end": end_to_end(out) if out.rounds else {},
        "per_layer": per_layer(out, spans) if tracer is not None and out.rounds else {},
        "layer_self_s": layer_self_times(spans),
        "samples": {
            "setup_s": out.setup_samples,
            "setup_raw_s": out.setup_raw,
            "session_walls": out.session_walls,
            "session_walls_raw": out.session_walls_raw,
            "probe_s": [round(s, 6) for s in out.probe.readings],
            "rounds": rounds,
            "final_balanced_acc": out.final_accuracy,
        },
        "detail": out.extra,
        "numpy": np.__version__,
        "blas": {
            key: value
            for key, value in np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}).items()
            if key in ("name", "version", "openblas configuration")  # not the wheel's build paths
        },
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer is not None:
        write_jsonl(args.result + ".trace.jsonl", spans)
    return 0


# --------------------------------------------------------------------------- #
# orchestration
# --------------------------------------------------------------------------- #
def run_workload(name: str, args, seed: int, seconds: float):
    """Run one workload in its own process group; returns (result, spans) or (None, [])."""

    work = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    env = dict(os.environ, TMPDIR=str(work), **blas_threads())
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(args.trace), "--result", str(result_path),
    ]
    if args.tiny:
        cmd.append("--tiny")
    timeout = 60 + 3 * seconds
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
        print(f"{name}: timed out after {timeout:.0f} s", file=sys.stderr)
    finally:
        # The whole group: rank processes and the served server die with it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    try:
        if code != 0:
            print(f"{name}: workload process exited with {code}", file=sys.stderr)
            return None, []
        result = json.loads(result_path.read_text())
        trace_path = Path(str(result_path) + ".trace.jsonl")
        spans = trace_path.read_text().splitlines() if trace_path.exists() else []
        return result, spans
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()


def blas_threads() -> dict:
    """BLAS thread counts for the workload processes: 1 unless the caller set them.

    With two vCPUs, two BLAS threads per process made the serial solver ~10%
    slower and its run-to-run spread 3x wider, and two ranks of two threads
    each oversubscribe the cores (README, finding 1).
    """

    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {name: os.environ.get(name, "1") for name in names}


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        # Measure this checkout's code, never some other installed copy.
        print(f"no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else (1.0 if args.tiny else spec["run_seconds"])
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = args.workload or list(WORKLOADS)
    payload = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "repeat": args.repeat,
        "seconds": seconds,
        "trace": bool(args.trace),
        "tiny": bool(args.tiny),
        "env": blas_threads(),
        "workloads": {},
    }
    all_spans = []
    # Seeds outermost: a slow spell of the machine then touches every
    # workload a little instead of one workload's whole set.
    for seed in range(args.seed, args.seed + args.repeat):
        for name in names:
            result, spans = run_workload(name, args, seed, seconds)
            if result is None:
                return 2
            payload["workloads"].setdefault(name, []).append(result)
            all_spans.extend(spans)

    metrics = {}
    for name, results in payload["workloads"].items():
        for entry in listed:
            # A run that failed before committing a round has no metrics to add.
            values = [r["per_layer" if args.trace else "end_to_end"][entry["name"]]
                      for r in results if r["per_layer" if args.trace else "end_to_end"]]
            if not values:
                continue
            value = statistics.median(values)
            line = f"{name:10s} {entry['name']:30s} {value:14.6g} {entry['unit']}"
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f"   (median of {len(values)}, IQR/median {(q3 - q1) / value if value else 0:.2%})"
            print(line)
            key = entry["name"] if len(names) == 1 else f"{name}/{entry['name']}"
            metrics[key] = {"value": value, "unit": entry["unit"]}
        for r in results:
            print(f"{name:10s} {'selection_sha256':30s} {r['selection_sha256']}  seed {r['seed']}")
            for error in r["errors"]:
                print(f"{name:10s} FAILED {error}")
    runs = [r for results in payload["workloads"].values() for r in results]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.out:
        for r in runs:
            payload["numpy"], payload["blas"] = r.pop("numpy"), r.pop("blas")
        Path(args.out).write_text(json.dumps(payload) + "\n")
        if args.trace:
            Path(args.out + ".trace.jsonl").write_text("".join(s + "\n" for s in all_spans))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
