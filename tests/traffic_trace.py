"""Line trace of the CLI: the library statements that no command executes.

Runs each command's standard invocations in process under sys.settrace --
gen, verify main, verify geometry, verify all, smash on both paths,
homology, and double --i and --j -- on a seeded gen corpus and the
projective plane, as text and as JSON input.  It then prints the functions
of src/polysmash that no invocation called, and the statement lines of the
called ones that none executed, grouped into ranges.  A statement line is
one that starts bytecode in the compiled module.  The AST scan in
test_public_names.py matches names; this trace shows what runs.

Run from the repository root (about half a minute: tracing slows every
line):

    PYTHONPATH=src python3 tests/traffic_trace.py

It exits 1 if an invocation fails, and 0 otherwise.  pytest does not
collect it.
"""

import contextlib
import dis
import io
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polysmash"

# the projective plane, kept here: conftest would import the library before
# the trace starts, and its module-level lines would read as unexecuted
RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 6), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def invocations(tmp):
    """The argvs, each a command as a user runs it, on files under tmp."""
    corpus = str(tmp / "corpus")
    txt = tmp / "rp2.txt"
    txt.write_text("\n".join(" ".join(map(str, f)) for f in RP2_FACETS) + "\n")
    js = tmp / "rp2.json"
    js.write_text('{"m": 6, "facets": %s}\n' % [list(f) for f in RP2_FACETS])
    rp2, rp2j = str(txt), str(js)
    return [
        ["gen", "--m", "6", "--max-dim", "3", "--density", "1/2", "--seed", "7",
         "--count", "10", "--out", corpus],
        ["verify", "main", corpus, "--jmax", "3"],
        ["verify", "main", corpus, "--jmax", "3", "--json"],
        ["verify", "main", rp2j, "--j", "1,0,2,0,0,1"],
        ["verify", "geometry", "--m", "3", "--k", "2"],
        ["verify", "geometry", "--m", "4", "--k", "1", "--json"],
        ["verify", "geometry", "--m", "2", "--k", "5"],
        ["verify", "all", rp2, "--jmax", "1", "--m", "2", "--k", "1", "--grid", "2"],
        ["smash", rp2, "--j", "1,1,0,0,0,0"],
        ["smash", rp2j, "--j", "1,0,2,0,0,1", "--path", "reduction", "--json"],
        ["smash", rp2, "--path", "direct", "--json"],
        ["homology", rp2],
        ["homology", rp2j, "--json"],
        ["double", rp2, "--i", "2"],
        ["double", rp2, "--i", "1", "--json"],
        ["double", rp2j, "--j", "1,0,2,0,0,1"],
        ["double", rp2, "--j", "2,1,0,0,0,1", "--json"],
    ]


def starts(code):
    """The lines at which code's own bytecode starts a statement."""
    return {line for _, line in dis.findlinestarts(code) if line}


def units(path):
    """(name, first line, lines) per named code object of the module at path:
    the module, each class body and each def, with the lines of the
    comprehensions and lambdas inside it."""
    out = []

    def walk(code, owner):
        named = not code.co_name.startswith("<") or owner is None
        if named:
            owner = [getattr(code, "co_qualname", code.co_name), code.co_firstlineno, set()]
            out.append(owner)
        owner[2] |= starts(code)
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                walk(const, owner)

    walk(compile(path.read_text(), str(path), "exec"), None)
    return out


def run(argvs):
    """Run each argv under the trace: (lines hit per file, code objects
    entered as (file, first line), failures)."""
    files = {str(p) for p in SRC.glob("*.py")}
    hit = {f: set() for f in files}
    entered = set()

    def local(frame, event, arg):
        hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in hit:
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        return local(frame, event, arg)

    failures = []
    sys.settrace(call)
    try:
        from polysmash.cli import main  # module-level code runs traced

        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = main(argv)
            if code != 0:
                failures.append((argv, code, out.getvalue()[-500:]))
    finally:
        sys.settrace(None)
    return hit, entered, failures


def ranges(lines):
    """Sorted lines as 'a-b' and 'a' runs of consecutive numbers."""
    out, lines = [], sorted(lines)
    for i, n in enumerate(lines):
        if i and n == lines[i - 1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(f"{a}-{b}" if a < b else f"{a}" for a, b in out)


def report(hit, entered):
    total = executed = 0
    for path in sorted(SRC.glob("*.py")):
        f = str(path)
        never, missed = [], []
        for name, first, lines in units(path):
            total += len(lines)
            done = lines & hit[f]
            executed += len(done)
            if name != "<module>" and (f, first) not in entered:
                never.append(f"  {first}: {name} (never called, {len(lines)} lines)")
            elif lines - done:
                missed.append(f"  {name}: lines {ranges(lines - done)}")
        if never or missed:
            print(f"{path.name}")
            print("\n".join(never + missed))
    print(f"{executed} of {total} statement lines executed")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        argvs = invocations(Path(tmp))
        hit, entered, failures = run(argvs)
    for argv, code, tail in failures:
        print(f"FAILED (exit {code}): polysmash {' '.join(argv)}\n{tail}")
    print(f"{len(argvs)} invocations traced")
    report(hit, entered)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
