"""The committed performance trajectory.

BENCH_<workload>.json, at the repository root, holds one list per workload
of BENCHMARK.json: entries copied from perfbench/run.py's untraced results
(perfbench/out/<workload>.full.s<seed>.t0.json), each with its metrics,
correct, failed and provenance, git_commit filled in, and the date of the
run.  A change that reports a perf figure appends its parent's entry and its
own, measured in one host session.
"""

import json
from datetime import date
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def test_one_trajectory_per_workload():
    assert sorted(p.name for p in ROOT.glob("BENCH_*.json")) == sorted(
        f"BENCH_{w}.json" for w in WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trajectory_entries_are_correct_runs_in_date_order(workload):
    entries = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert entries
    for entry in entries:
        provenance = entry["provenance"]
        assert (provenance["workload"], provenance["trace"]) == (workload, 0)
        assert provenance["git_commit"]
        assert entry["correct"] is True and entry["failed"] == 0
        assert entry["metrics"]
        for name, metric in entry["metrics"].items():
            assert UNITS.get(name) == metric["unit"], name
    dates = [date.fromisoformat(entry["date"]) for entry in entries]
    assert dates == sorted(dates)
