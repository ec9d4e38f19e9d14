"""Compare two sets of end-to-end benchmark payloads.

    python3 benchmarks/e2e/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

Set A is the base (the parent commit), set B the change.  Each payload is a
``run.py --out`` file; the runs of all files on one side are pooled per
workload and paired with the other side's runs by seed.  For every workload
and every ``end_to_end`` metric of ``BENCHMARK.json`` it prints both sides'
median and quartiles, the ratio B/A with its base, and a verdict:

* ``unresolved`` — either side's spread (IQR / median) exceeds the bound and
  the two sides overlap (some B run lies between A runs);
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — at least :data:`MIN_PAIRS` same-seed pairs, B wins at least
  9 in 10 of them, and the medians differ by more than A's own IQR;
* ``within bound`` — otherwise.

``final_balanced_acc`` is deterministic per seed, so it is judged on
same-seed differences instead: ``worse`` when their median loses more than
:data:`ACCURACY_ABS_BOUND` (absolute), ``better`` when it gains more than
that over at least :data:`MIN_PAIRS` pairs.  Sets without a common seed
fall back to the rules above, with the bound of ``BENCHMARK.json``.

Per-layer metrics (traced payloads) have no bound and are printed with their
ratio only.  A changed ``selection_sha256`` for the same workload and seed is
flagged separately.  Comparing an untraced set A with a traced set B of the
same code also prints the tracing overhead on ``rounds_per_s``.  The exit
code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Same-seed pairs needed before a change may be called ``better``.
MIN_PAIRS = 10
#: Largest same-seed accuracy loss that is still ``within bound``.
ACCURACY_ABS_BOUND = 0.005
PAIRED_METRICS = ("final_balanced_acc",)


def load_runs(paths):
    """``{workload: [run, ...]}`` pooled over payload files."""

    runs = {}
    for path in paths:
        payload = json.loads(Path(path).read_text())
        for name, results in payload["workloads"].items():
            runs.setdefault(name, []).extend(results)
    return runs


def by_seed(runs, section: str, metric: str) -> dict:
    """``{seed: value}`` of one metric; a seed run more than once gives its median."""

    values = {}
    for r in runs:
        if r[section]:
            values.setdefault(r["seed"], []).append(r[section][metric])
    return {seed: statistics.median(v) for seed, v in values.items()}


def quartiles(values):
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """Verdict on one metric; ``a`` and ``b`` map seed to value."""

    sign = 1.0 if better == "higher" else -1.0
    va, vb = list(a.values()), list(b.values())
    med_a, med_b = statistics.median(va), statistics.median(vb)
    # Sets that do not overlap are resolved whatever their spread.
    separated = min(vb) > max(va) or max(vb) < min(va)
    if not separated and (spread(va) > bound or spread(vb) > bound):
        return "unresolved"
    if sign * (med_a - med_b) / abs(med_a) > bound:
        return "worse"
    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    q1, _, q3 = quartiles(va)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3 - q1:
        return "better"
    return "within bound"


def paired_verdict(a: dict, b: dict, bound: float, better: str):
    """Verdict on a metric that is deterministic per seed; returns (verdict, note)."""

    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (b[s] - a[s]) for s in a if s in b]
    if not diffs:
        return verdict(a, b, bound, better), f"no common seed: medians, bound {bound:.0%}"
    gain = statistics.median(diffs)
    if gain < -ACCURACY_ABS_BOUND:
        v = "worse"
    elif gain > ACCURACY_ABS_BOUND and len(diffs) >= MIN_PAIRS:
        v = "better"
    else:
        v = "within bound"
    return v, f"median same-seed change {sign * gain:+.4f} over {len(diffs)} seeds, bound {ACCURACY_ABS_BOUND} abs"


def row(label, a, b, extra=""):
    qa, qb = quartiles(a), quartiles(b)
    ratio = qb[1] / qa[1] if qa[1] else float("nan")
    return (
        f"  {label:30s} A {qa[1]:11.5g} [{qa[0]:.5g}, {qa[2]:.5g}] n={len(a):<3d}"
        f" B {qb[1]:11.5g} [{qb[0]:.5g}, {qb[2]:.5g}] n={len(b):<3d}"
        f" B/A {ratio:7.4f} (base {qa[1]:.5g}){extra}"
    )


def compare(side_a, side_b, spec) -> int:
    runs_a, runs_b = load_runs(side_a), load_runs(side_b)
    worse = 0
    for name in [w for w in runs_a if w in runs_b]:
        print(f"{name}:")
        a_runs, b_runs = runs_a[name], runs_b[name]
        for entry in spec["end_to_end"]:
            a = by_seed(a_runs, "end_to_end", entry["name"])
            b = by_seed(b_runs, "end_to_end", entry["name"])
            if not (a and b):
                continue
            if entry["name"] in PAIRED_METRICS:
                v, note = paired_verdict(a, b, entry["bound"], entry["better"])
            else:
                v, note = verdict(a, b, entry["bound"], entry["better"]), f"bound {entry['bound']:.0%}"
            worse += v == "worse"
            print(row(entry["name"], a.values(), b.values(), f"  {v} ({note})"))
        for entry in spec["per_layer"]:
            a = by_seed(a_runs, "per_layer", entry["name"])
            b = by_seed(b_runs, "per_layer", entry["name"])
            if a and b:
                print(row(entry["name"], a.values(), b.values()))
        a = {r["seed"]: r["end_to_end"]["rounds_per_s"] for r in a_runs if r["end_to_end"] and not r["per_layer"]}
        b = {r["seed"]: r["per_layer"]["trace.rounds_per_s"] for r in b_runs if r["per_layer"]}
        if a and b:
            # Same-seed pairs cancel the spread between problems; medians otherwise.
            paired = [b[s] / a[s] for s in a if s in b]
            if paired:
                ratio, basis = statistics.median(paired), f"median of {len(paired)} same-seed pairs"
            else:
                ratio, basis = statistics.median(b.values()) / statistics.median(a.values()), "ratio of medians"
            print(
                f"  tracing overhead on rounds_per_s: {1.0 - ratio:+.2%} ({basis}; "
                f"base {statistics.median(a.values()):.5g})"
            )
        digests_a = {r["seed"]: r["selection_sha256"] for r in a_runs}
        changed = sorted({r["seed"] for r in b_runs
                          if r["seed"] in digests_a and digests_a[r["seed"]] != r["selection_sha256"]})
        if changed:
            print(f"  selection_sha256 CHANGED for seeds {changed}")
        failed = sum(r["failed"] for r in a_runs + b_runs)
        if failed:
            print(f"  {failed} failed operations across these runs")
    return 1 if worse else 0


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__.split("\n\n", 2)[1], file=sys.stderr)
        return 2
    cut = argv.index("--")
    side_a, side_b = argv[:cut], argv[cut + 1:]
    if not side_a or not side_b:
        print("need at least one payload on each side of --", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(side_a, side_b, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
