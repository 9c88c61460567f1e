"""Compare two benchmark results written by run.py.

    python3 perfbench/compare.py perfbench/out/A.json perfbench/out/B.json

Prints each metric of both results and the change from the first.  Refuses
(exit 2) to compare results of different workloads, sizes or trace modes,
or results measured with different SNF kernels: the compiled kernel is about
twice as fast as the pure one, so mixing them would fake a change.  At one
seed the report hashes must match (exit 1 otherwise): a speed-up must leave
every report unchanged.
"""

import json
import sys


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(open(p).read()) for p in argv)
    pa, pb = a["provenance"], b["provenance"]
    for key in ("kernel", "workload", "size", "trace"):
        if pa[key] != pb[key]:
            print(f"refused: {key} differs ({pa[key]!r} vs {pb[key]!r})", file=sys.stderr)
            return 2
    print(f"{pa['workload']} ({pa['size']}, trace {pa['trace']}, kernel {pa['kernel']}): "
          f"seed {pa['seed']} at {pa['git_commit'] or pa['program_digest'][:12]} vs "
          f"seed {pb['seed']} at {pb['git_commit'] or pb['program_digest'][:12]}")
    for name, m in a["metrics"].items():
        va, vb = m["value"], b["metrics"][name]["value"]
        change = f"{(vb - va) / va:+.1%}" if va else "n/a"
        print(f"  {name:32s} {va:12.6g} {vb:12.6g} {m['unit']:6s} {change}")
    for r in (a, b):
        if not r["correct"]:
            print(f"  seed {r['provenance']['seed']}: {r['failed']} of {r['attempted']} failed")
    if pa["seed"] == pb["seed"]:
        same = a["report_hash"] == b["report_hash"]
        print("  reports identical" if same else "  REPORTS DIFFER")
        return 0 if same else 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
