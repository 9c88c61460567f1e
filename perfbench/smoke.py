"""Smoke test of the benchmark itself, at tiny size; it takes under a minute.

    python3 perfbench/smoke.py

For every workload it checks that one seed gives identical inputs and two
seeds different ones; that untraced and traced runs end with the result line
the driver reads, with exactly the metric names and units BENCHMARK.json
lists; that two traced runs at one seed repeat every count exactly; and that
traced and untraced runs produce the same reports.  Last, it checks that the
benchmark fails, without a result line, in a directory holding only
BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
    return line


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in workloads.WORKLOADS:
        one = workloads.generate(w, 1, "tiny").digest
        assert one == workloads.generate(w, 1, "tiny").digest, f"{w}: seed 1 not repeatable"
        assert one != workloads.generate(w, 2, "tiny").digest, f"{w}: seeds 1 and 2 agree"
        hashes, counts = [], []
        for trace in (0, 1, 1):
            line = result_line(run(w, trace))
            got = {n: m["unit"] for n, m in line["metrics"].items()}
            assert got == want[trace], f"{w} trace {trace}: {got} != {want[trace]}"
            saved = json.loads((OUT / f"{w}.tiny.s1.t{trace}.json").read_text())
            hashes.append(saved["report_hash"])
            if trace:
                counts.append({n: v["value"] for n, v in line["metrics"].items()
                               if v["unit"] != "s"})
        assert len(set(hashes)) == 1, f"{w}: reports differ between runs"
        assert counts[0] == counts[1], f"{w}: counts differ between traced runs"
        print(f"ok {w}")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(workloads.WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "ran without the program"
    assert '"metrics"' not in proc.stdout, "printed a result without the program"
    print("ok bare directory fails")


if __name__ == "__main__":
    main()
