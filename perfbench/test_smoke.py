"""Smoke test of the benchmark at tiny sizes (under a minute on two cores).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit for
every workload, that span self times are non-negative and sum to no more
than the wall time they were taken in, that no solve fails, that the traced
run's digest equals the untraced one, that another seed gives other
instances which still pass, and that the benchmark refuses to run without
the sources.
"""

from __future__ import annotations

import csv
import gzip
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = {ln.split(" ", 2)[1]: json.loads(ln.split(" ", 2)[2])
            for ln in lines if ln.startswith("info ")}
    return json.loads(lines[-1]), info


def check_metrics(result, info, listed):
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert info["failed_ratio"] == 0.0
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def span_self_times(path):
    spans = defaultdict(list)
    with gzip.open(ROOT / path, "rt") as fh:
        for phase, name, start, end, parent in csv.reader(fh):
            spans[phase].append((int(start) / 1e9, int(end) / 1e9, int(parent)))
    out = {}
    for phase, rows in spans.items():
        covered = [0.0] * len(rows)
        for start, end, parent in rows:
            if parent >= 0:
                covered[parent] += end - start
        out[phase] = [(end - start) - child for (start, end, _), child in zip(rows, covered)]
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    plain, plain_info = run(workload, 3, 0)
    check_metrics(plain, plain_info, SPEC["end_to_end"])

    traced, traced_info = run(workload, 3, 1)
    check_metrics(traced, traced_info, SPEC["per_layer"])
    assert traced_info["digests_match"] is True
    assert traced_info["digest"] == plain_info["digest"]
    self_times = span_self_times(traced_info["spans_file"])
    for phase, wall in (("setup", "setup_wall_s"), ("traced", "traced_wall_s")):
        assert min(self_times[phase]) >= -1e-8  # rounding to whole nanoseconds
        assert sum(self_times[phase]) <= traced_info[wall]

    other, other_info = run(workload, 4, 0)
    assert other["correct"] is True and other["failed"] == 0
    assert other_info["digest"] != plain_info["digest"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cone-exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
