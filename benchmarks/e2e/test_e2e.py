"""Tests of the end-to-end benchmark itself.

Not part of the tier-1 suite; run explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They run the ``--tiny`` shapes of all workloads once untraced and once
traced (each set must finish in under 90 s), then check the payloads.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_tiny(out: Path, *extra):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--tiny", "--out", str(out), *extra],
        capture_output=True, text=True, timeout=300,
    )
    return proc, time.perf_counter() - start, json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return run_tiny(tmp_path_factory.mktemp("untraced") / "payload.json")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_tiny(tmp_path_factory.mktemp("traced") / "payload.json", "--trace", "1")


@pytest.mark.parametrize("fixture", ["untraced", "traced"])
def test_tiny_set_passes_within_90_seconds(fixture, request):
    proc, elapsed, payload = request.getfixturevalue(fixture)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 90
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(payload["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("fixture,key,listed", [
    ("untraced", "end_to_end", "end_to_end"),
    ("traced", "per_layer", "per_layer"),
])
def test_every_listed_metric_is_emitted_for_every_workload(fixture, key, listed, request):
    proc, _, payload = request.getfixturevalue(fixture)
    printed = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for workload, runs in payload["workloads"].items():
        for entry in SPEC[listed]:
            value = runs[0][key][entry["name"]]
            assert math.isfinite(value), (workload, entry["name"])
            if listed == "end_to_end":
                assert value > 0, (workload, entry["name"])
            assert printed[f"{workload}/{entry['name']}"]["unit"] == entry["unit"]


def test_names_use_only_allowed_characters(untraced, traced):
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for _, _, payload in (untraced, traced):
        for runs in payload["workloads"].values():
            for name in list(runs[0]["end_to_end"]) + list(runs[0]["per_layer"]):
                assert NAME.match(name), name


def test_traced_and_untraced_runs_select_identically(untraced, traced):
    for workload in WORKLOADS:
        plain = untraced[2]["workloads"][workload][0]["selection_sha256"]
        assert traced[2]["workloads"][workload][0]["selection_sha256"] == plain, workload


def test_compare_of_a_payload_against_itself_reports_no_regression(untraced, tmp_path):
    payload = untraced[2]
    path = tmp_path / "a.json"
    path.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(path), "--", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " worse " not in proc.stdout and "CHANGED" not in proc.stdout
    assert proc.stdout.count("B/A  1.0000") >= len(WORKLOADS) * len(SPEC["end_to_end"])


def test_compare_needs_ten_same_seed_pairs_to_call_a_change_better():
    sys.path.insert(0, str(HERE))
    import compare

    # One run a side: a 1% gain is not evidence.
    assert compare.verdict({0: 1.00}, {0: 1.01}, 0.15, "higher") == "within bound"
    # Ten seeds, B ahead on every one by more than A's IQR.
    a = {s: 1.0 + 0.001 * s for s in range(10)}
    assert compare.verdict(a, {s: v * 1.05 for s, v in a.items()}, 0.15, "higher") == "better"
    # The same values under other seeds pair with nothing.
    shifted = {s + 100: v * 1.05 for s, v in a.items()}
    assert compare.verdict(a, shifted, 0.15, "higher") == "within bound"
    assert compare.verdict(a, {s: v * 0.8 for s, v in a.items()}, 0.15, "higher") == "worse"
    # Overlapping sets wider than the bound cannot be judged.
    wide = {s: 1.0 + 0.1 * s for s in range(10)}
    assert compare.verdict(wide, wide, 0.15, "lower") == "unresolved"


def test_compare_judges_accuracy_on_same_seed_differences():
    sys.path.insert(0, str(HERE))
    import compare

    a = {s: 0.80 + 0.02 * s for s in range(10)}
    # A 1-point loss on every seed is well inside the spread between seeds,
    # but not inside the absolute same-seed bound.
    assert compare.paired_verdict(a, {s: v - 0.01 for s, v in a.items()}, 0.05, "higher")[0] == "worse"
    assert compare.paired_verdict(a, {s: v - 0.002 for s, v in a.items()}, 0.05, "higher")[0] == "within bound"
    # Without a common seed only the medians can be compared, against the relative bound.
    a = {s: 0.90 + 0.001 * s for s in range(10)}
    shifted = {s + 100: v - 0.01 for s, v in a.items()}
    assert compare.paired_verdict(a, shifted, 0.05, "higher")[0] == "within bound"
    shifted = {s + 100: v - 0.1 for s, v in a.items()}
    assert compare.paired_verdict(a, shifted, 0.05, "higher")[0] == "worse"


def test_single_workload_result_line_names_metrics_plainly():
    """One workload with ``--trace 0``: the result line names the metrics plainly."""

    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--tiny", "--workload", "ref",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for entry in SPEC["end_to_end"]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_unregistered_spec_is_counted_as_failed_not_raised(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    import served

    tenants = served.SERVED_SHAPES["tiny"].tenants
    out = served.run_served(0, 0.5, None, True, specs=["no-such-spec"] * tenants)
    assert out.failed == tenants and out.attempted == tenants
    assert all("HTTP 404" in error for error in out.errors)
    assert out.rounds == []


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--tiny", "--workload", "ref"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
