"""polysmash benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload smash-corpus --seed 7 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
run makes its inputs from --seed, sets up the program several times, then
repeats whole passes over the workload's cases until --seconds is used up.

The host's speed drifts by up to 2x over seconds to minutes (a shared
virtual CPU), and a fixed pure-Python loop slows by about the same factor
as the program does.  So the run times that loop, calibrate(), every 0.1 s,
between calls and, by a timer signal, inside them, and reports every time in
reference seconds: measured seconds x CAL_REF_S / calibrate()'s time over
the same span.  A reference second is a second at the host's full speed; the
raw seconds are kept in the result file.

Untraced (--trace 0), each case's time is the median of its repeats.  The
run reports wall_s (one pass: the sum over cases), case_p50_s, case_tail_s
(the highest percentile with ten cases beyond it), setup_s (median of the
set-ups, spread over the run) and peak_rss_mb.  Traced (--trace 1), spans
are recorded around the calls into each layer (see spans.py) and the run
reports the per-layer metrics: times as the median over passes, counts from
the last pass.

Every output is checked: reports must pass all their checks, SNF factors
must agree with an independent rank and determinant, and the digest of
every output must repeat across the passes of a run and across runs of one
program at one seed.  The last line of stdout is a JSON object with
correct, attempted, failed and metrics; the full result, with provenance,
goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END = {
    "wall_s": "s",
    "case_p50_s": "s",
    "case_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 3  # before the first pass; one more follows every pass
# calibrate()'s time at the host's full speed: 1.18 ms measured on a 2-vCPU
# Intel Xeon (Sapphire Rapids) KVM guest under CPython 3.11.7.
CAL_REF_S = 1.2e-3
CAL_EVERY_S = 0.1
MODULES = ("cli", "exactlin", "geomjoin", "chains", "smashmodel", "complexes", "report")


def calibrate():
    """Fixed work mixing sparse dict updates, big ints and Fractions."""
    rows = {i: {(i * 7 + j) % 61: j - 30 for j in range(20)} for i in range(60)}
    acc = 0
    for i in range(59):
        s = rows[i + 1]
        for j, v in rows[i].items():
            w = s.get(j, 0) + 3 * v
            if w:
                s[j] = w
            acc += w
    x = Fraction(0)
    for i in range(1, 100):
        x += Fraction(i, i + 1) * Fraction(3, i + 2)
    return sorted(rows[59].items()), acc, x


class Speed:
    """Converts measured seconds into reference seconds.

    calibrate() is timed at most every CAL_EVERY_S seconds between calls
    and, with a timer signal, every CAL_EVERY_S seconds inside a timed call,
    so that a call lasting seconds is scaled by the speed it actually ran
    at.  The calibrations inside a call are subtracted from its time.
    """

    def __init__(self, inside=True):
        self.samples = []
        self.last = float("-inf")
        self.inside = inside
        self.during = []  # calibrate() times taken inside the current call
        if inside:
            signal.signal(signal.SIGALRM, self._on_timer)

    def _sample(self):
        t0 = perf_counter()
        calibrate()
        dt = perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_timer(self, signum, frame):
        self.during.append(self._sample())

    def tick(self, force=False):
        """Current calibrate() time: median of the last three samples."""
        if force or perf_counter() - self.last >= CAL_EVERY_S:
            self._sample()
            self.last = perf_counter()
        return statistics.median(self.samples[-3:])

    def timed(self, fn, *args):
        """(result, measured seconds, reference seconds)."""
        c0 = self.tick()
        self.during = []
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            if self.inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
            dt = perf_counter() - t0 - sum(self.during)
        c1 = self.tick()
        # calibrate()'s time is inversely proportional to the speed, so the
        # mean speed over the call is the mean of the reciprocals
        cals = [c0, c1] + self.during
        return result, dt, dt * statistics.mean(CAL_REF_S / c for c in cals)


def per_layer_units():
    units = {}
    for name in spans.layer_metrics(spans.Recorder()):
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        elif name.endswith("_digits"):
            units[name] = "digits"
        else:
            units[name] = "count"
    units["trace.wall_s"] = "s"
    return units


def import_program():
    names = ["polysmash"] + [f"polysmash.{m}" for m in MODULES]
    mods = {n.rpartition(".")[2]: importlib.import_module(n) for n in names}
    where = Path(mods["polysmash"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"polysmash imported from {where}, not from {SRC}")
    return SimpleNamespace(**mods)


def fresh_setup(inputs, workdir):
    """Import polysmash and parse the inputs, from scratch.

    The modules already loaded are put back afterwards, so the cases keep
    using one copy of the program.
    """
    saved = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "polysmash"}
    for k in saved:
        del sys.modules[k]
    try:
        workloads.setup(import_program(), inputs, workdir)
    finally:
        for k in [k for k in sys.modules if k.split(".")[0] == "polysmash"]:
            del sys.modules[k]
        sys.modules.update(saved)


def program_digest():
    h = hashlib.sha256()
    for p in sorted((SRC / "polysmash").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


def tail(values):
    """Highest percentile leaving at least ten cases beyond it: (value, pct, beyond)."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


class Run:
    def __init__(self, cases, trace, mods, speed):
        self.cases = cases
        self.trace = trace
        self.mods = mods
        self.speed = speed
        self.raw = [[] for _ in cases]  # measured seconds per repeat
        self.times = [[] for _ in cases]  # reference seconds per repeat
        self.first = [None] * len(cases)  # digest of the first output
        self.failures = {}  # case index -> list of messages
        self.attempted = 0
        self.failed = 0
        self.to_audit = []  # (case index, first output), audited after timing
        self.layers = []  # per pass, traced only
        self.last_spans = []

    def fail(self, i, msg):
        self.failed += 1
        msgs = self.failures.setdefault(i, [])
        if len(msgs) < 3:
            msgs.append(msg)

    def one(self, i, case, rec):
        """Run case i once, time it, check the output."""
        self.attempted += 1
        # every case starts from an empty young generation, so the
        # collections inside it fall at the same points in every repeat
        gc.collect()
        try:
            if rec is None:
                out, dt, ref = self.speed.timed(case.run)
            else:
                rec.case = case.name
                (out, _), dt, ref = self.speed.timed(rec.span, "case", case.run)
                rec.scale[case.name] = ref / dt if dt else 1.0
        except Exception:
            self.fail(i, traceback.format_exc(limit=3))
            return
        self.raw[i].append(dt)
        self.times[i].append(ref)
        digest, err = case.check(out)
        if self.first[i] is None:
            self.first[i] = digest
            if err is None and case.audit is not None:
                self.to_audit.append((i, out))
        elif digest != self.first[i]:
            err = "output differs from the first pass"
        if err is not None:
            self.fail(i, err)

    def audit(self):
        for i, out in self.to_audit:
            err = self.cases[i].audit(out)
            if err is not None:
                self.fail(i, err)

    def one_pass(self):
        if not self.trace:
            for i, case in enumerate(self.cases):
                self.one(i, case, None)
            return
        rec = spans.Recorder()
        with spans.installed(rec, self.mods):
            for i, case in enumerate(self.cases):
                self.one(i, case, rec)
        self.layers.append(spans.layer_metrics(rec))
        self.last_spans = rec.dump()


def cross_run_check(key, prog, digests):
    """Compare case digests with earlier runs of this program at this seed."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    entry = known.get(key)
    if entry is None or entry["program"] != prog:
        known[key] = {"program": prog, "cases": digests}
        store.write_text(json.dumps(known, indent=1, sort_keys=True))
        return []
    return [n for n, d in digests.items() if entry["cases"].get(n, d) != d]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke test's inputs")
    args = ap.parse_args(argv)

    if not (SRC / "polysmash" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'polysmash'}; run from a polysmash checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    mods = import_program()

    inputs = workloads.generate(args.workload, args.seed, args.size)
    tag = f"{args.workload}.{args.size}.s{args.seed}"
    workdir = OUT / "inputs" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, text in inputs.files.items():
        (workdir / name).write_text(text)

    cases = workloads.setup(mods, inputs, workdir)
    # timer calibrations would land inside spans, so traced runs scale
    # by the calibrations between calls only
    speed = Speed(inside=not args.trace)
    setup_times, setup_raw = [], []

    def one_setup():
        speed.tick(force=True)
        _, dt, ref = speed.timed(fresh_setup, inputs, workdir)
        setup_raw.append(dt)
        setup_times.append(ref)

    for _ in range(SETUP_REPEATS):
        one_setup()
    run = Run(cases, args.trace, mods, speed)
    # the program, the inputs and the benchmark's own objects stay out of
    # the collector's way, as they would in a process that ran one case
    gc.collect()
    gc.freeze()
    start = perf_counter()
    passes = 0
    while True:
        t0 = perf_counter()
        run.one_pass()
        passes += 1
        last = perf_counter() - t0
        if not args.trace:
            one_setup()
        if perf_counter() - start + last > args.seconds:
            break
    measured = perf_counter() - start
    run.audit()

    best = [statistics.median(ts) if ts else 0.0 for ts in run.times]
    tail_value, tail_pct, beyond = tail(best)
    prog = program_digest()
    digests = {c.name: d for c, d in zip(cases, run.first) if d is not None}
    drift = cross_run_check(tag, prog, digests)
    for name in drift:
        i = next(i for i, c in enumerate(cases) if c.name == name)
        for _ in range(passes):
            run.fail(i, "output differs from an earlier run of this program at this seed")
    report_hash = hashlib.sha256(json.dumps(run.first).encode()).hexdigest()

    if args.trace:
        values = {}
        for name in run.layers[0]:
            series = [p[name] for p in run.layers]
            values[name] = statistics.median(series) if name.endswith("_s") else series[-1]
        values["trace.wall_s"] = sum(best)
        units = per_layer_units()
        counts_repeat = all(
            p[n] == run.layers[-1][n] for p in run.layers for n in p if not n.endswith("_s")
        )
    else:
        values = {
            "wall_s": sum(best),
            "case_p50_s": statistics.median(best),
            "case_tail_s": tail_value,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel": getattr(mods.polysmash, "KERNEL", None),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "program_digest": prog,
        "input_digest": inputs.digest,
    }
    result = {
        "provenance": provenance,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / run.attempted,
        "metrics": metrics,
        "cases": len(cases),
        "passes": passes,
        "measured_s": measured,
        "case_tail": {"percentile": tail_pct, "cases_beyond": beyond, "of": len(cases)},
        "setup_s": {"reference": setup_times, "measured": setup_raw},
        "calibrate_s": {"reference": CAL_REF_S, "median": statistics.median(speed.samples),
                        "samples": len(speed.samples)},
        "report_hash": report_hash,
        "case_times_s": {c.name: {"reference": ts, "measured": raw}
                         for c, ts, raw in zip(cases, run.times, run.raw)},
        "failures": {cases[i].name: msgs for i, msgs in run.failures.items()},
    }
    untraced = OUT / f"{tag}.t0.json"
    if args.trace and untraced.exists():
        base = json.loads(untraced.read_text())
        same = ("program_digest", "input_digest")
        if all(base["provenance"][k] == provenance[k] for k in same):
            result["trace_overhead_s"] = values["trace.wall_s"] - base["metrics"]["wall_s"]["value"]
    if args.trace:
        result["counts_repeat_across_passes"] = counts_repeat
        result["spans_last_pass"] = run.last_spans
    out_file = OUT / f"{tag}.t{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1))

    for k, v in provenance.items():
        print(f"# {k}: {v}")
    print(f"# cases {len(cases)}, passes {passes}, measured {measured:.1f} s, "
          f"report hash {report_hash[:16]}")
    print(f"# fail_ratio {run.failed}/{run.attempted}")
    if not args.trace:
        print(f"# case_tail_s is p{tail_pct:.1f}: {beyond} of {len(cases)} cases beyond it")
    if "trace_overhead_s" in result:
        print(f"# tracing overhead: trace.wall_s - wall_s = {result['trace_overhead_s']:.4g} s")
    for name, msgs in result["failures"].items():
        print(f"# FAILED {name}: {msgs[0].strip().splitlines()[-1]}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
