"""Diff two ``BENCH_*.json`` payloads (before/after a performance change).

Usage::

    python benchmarks/compare.py results/BENCH_round_hotpath_before.json \
                                 results/BENCH_round_hotpath_after.json

Payloads are only comparable when they describe the same benchmark run under
the same array backend and storage dtype — a speedup from switching
``REPRO_BACKEND`` or the dtype must never be mistaken for an algorithmic win,
so mismatches are a hard error.  The tool reports:

* per-field speedups for every timing scalar present in both payloads,
* a per-component breakdown when both carry a timing dict (e.g. the
  ``grid_timings`` regions ``score`` / ``update_accumulated`` /
  ``refresh_inverse`` of the ROUND hot-path benchmark),
* whether ``selected_indices`` (when present) are identical — an
  optimization that changes *what* is selected is flagged with a non-zero
  exit code, not celebrated as a speedup.

Exit status: 0 on a clean comparison, 1 when selections or shapes diverge,
2 when the payloads are not comparable at all.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict

#: Scalar fields whose values are seconds (lower is better → report speedup).
TIMING_FIELDS = (
    "wall_clock_seconds",
    "round_seconds",
    "relax_seconds",
)

#: Scalar fields whose values are bytes (lower is better → report shrink
#: factor).  ``peak_rss_bytes`` is stamped into every payload by
#: ``bench_payload``; memory-focused benchmarks add ``heap_peak_bytes``.
MEMORY_FIELDS = (
    "peak_rss_bytes",
    "heap_peak_bytes",
)

#: Fields that must match for two payloads to be comparable at all.
IDENTITY_FIELDS = ("bench", "backend", "dtype")

#: Fields that must match for the numbers to measure the same computation.
#: (``score_chunk_size`` is deliberately absent: chunking changes memory, not
#: selections, so chunked-vs-unchunked payloads are comparable — the
#: selected-indices check below still guards the equivalence.)
CONSISTENCY_FIELDS = ("shape", "eta_grid")


def load(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def fail(message: str, code: int) -> "NoReturn":  # noqa: F821 - py<3.11 typing
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def compare_timing_dicts(before: Dict[str, float], after: Dict[str, float], indent: str = "  ") -> None:
    components = sorted(set(before) | set(after))
    width = max((len(c) for c in components), default=0)
    for name in components:
        b = before.get(name)
        a = after.get(name)
        if b is None or a is None:
            print(f"{indent}{name:<{width}}  only in {'after' if b is None else 'before'}")
            continue
        ratio = f"{b / a:6.2f}x" if a > 0 else "   inf "
        print(f"{indent}{name:<{width}}  {b:10.4f}s -> {a:10.4f}s   {ratio}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("before", type=pathlib.Path, help="baseline BENCH_*.json")
    parser.add_argument("after", type=pathlib.Path, help="candidate BENCH_*.json")
    args = parser.parse_args()

    before = load(args.before)
    after = load(args.after)

    for field in IDENTITY_FIELDS:
        if before.get(field) != after.get(field):
            fail(
                f"payloads are not comparable: {field} differs "
                f"({before.get(field)!r} vs {after.get(field)!r})",
                2,
            )
    status = 0
    for field in CONSISTENCY_FIELDS:
        if field in before and field in after and before[field] != after[field]:
            print(f"warning: {field} differs ({before[field]!r} vs {after[field]!r})")
            status = 1

    print(
        f"bench={before['bench']} backend={before['backend']} dtype={before['dtype']}  "
        f"({args.before.name} -> {args.after.name})"
    )

    for field in TIMING_FIELDS:
        b, a = before.get(field), after.get(field)
        if isinstance(b, (int, float)) and isinstance(a, (int, float)) and a > 0:
            print(f"{field}: {b:.3f}s -> {a:.3f}s  ({b / a:.2f}x)")

    for field in MEMORY_FIELDS:
        b, a = before.get(field), after.get(field)
        if isinstance(b, (int, float)) and isinstance(a, (int, float)) and a > 0:
            mb = 1024 * 1024
            print(f"{field}: {b / mb:.1f}MB -> {a / mb:.1f}MB  ({b / a:.2f}x)")

    timing_dicts = [
        key
        for key in sorted(set(before) & set(after))
        if isinstance(before[key], dict)
        and isinstance(after[key], dict)
        and key not in CONSISTENCY_FIELDS
        and all(isinstance(v, (int, float)) for v in {**before[key], **after[key]}.values())
    ]
    for key in timing_dicts:
        print(f"{key}:")
        compare_timing_dicts(before[key], after[key])

    if "selected_indices" in before and "selected_indices" in after:
        if before["selected_indices"] == after["selected_indices"]:
            print(f"selected_indices: identical ({len(before['selected_indices'])} points)")
        else:
            diverge = next(
                i
                for i, (x, y) in enumerate(zip(before["selected_indices"], after["selected_indices"]))
                if x != y
            ) if len(before["selected_indices"]) == len(after["selected_indices"]) else "length"
            print(f"selected_indices: DIVERGED (first mismatch at position {diverge})")
            status = 1

    return status


if __name__ == "__main__":
    raise SystemExit(main())
