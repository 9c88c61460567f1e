"""Line trace of the CLI: the library statements that no command executes.

Runs each command's standard invocations in process under sys.settrace --
gen, verify main, verify geometry, verify all, smash on both paths,
homology, and double --i and --j -- on a seeded gen corpus and the
projective plane, as text and as JSON input.  It then prints the functions
of src/polysmash that no invocation called, and the statement lines of the
called ones that none executed, grouped into ranges.  A statement line is
one that starts bytecode in the compiled module.  Each instruction of the
library's frames is traced too (frame.f_trace_opcodes), and the last list
holds the executed lines with an instruction that never ran: an arm of a
conditional expression, an and/or operand, a chained comparison cut short,
a comprehension or lambda body never run.  Instructions reached only by an
exception are left out.  The AST scan in test_public_names.py matches
names; this trace shows what runs.

Run from the repository root (about 40 s: tracing slows every line and
instruction):

    PYTHONPATH=src python3 tests/traffic_trace.py

It exits 1 if an invocation fails, and 0 otherwise.  pytest does not
collect it.
"""

import contextlib
import dis
import io
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polysmash"
JUMPS = set(dis.hasjrel) | set(dis.hasjabs)
STOPS = {"RETURN_VALUE", "RAISE_VARARGS", "RERAISE", "JUMP_FORWARD", "JUMP_BACKWARD",
         "JUMP_BACKWARD_NO_INTERRUPT", "JUMP_ABSOLUTE"}

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


def key(code):
    """A code object's identity across compilations of one source file."""
    return (code.co_filename, code.co_firstlineno,
            getattr(code, "co_qualname", code.co_name), code.co_code)


def units(path):
    """(name, first line, lines, code objects) per named code object of the
    module at path: the module, each class body and each def, with the
    lines and code objects of the comprehensions and lambdas inside it."""
    out = []

    def walk(code, owner):
        named = not code.co_name.startswith("<") or owner is None
        if named:
            owner = [getattr(code, "co_qualname", code.co_name), code.co_firstlineno,
                     set(), []]
            out.append(owner)
        owner[2] |= starts(code)
        owner[3].append(code)
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                walk(const, owner)

    walk(compile(path.read_text(), str(path), "exec"), None)
    return out


def run(argvs):
    """Run each argv under the trace: (lines hit per file, code objects
    entered as (file, first line), offsets run per code object key,
    failures)."""
    files = {str(p) for p in SRC.glob("*.py")}
    hit = {f: set() for f in files}
    entered = set()
    ran = defaultdict(set)

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in hit:
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        lines, offsets = hit[code.co_filename], ran[code]

        def local(frame, event, arg):
            if event == "opcode":
                offsets.add(frame.f_lasti)
            else:
                lines.add(frame.f_lineno)
            return local

        frame.f_trace_opcodes = True
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
    return hit, entered, {key(code): offsets for code, offsets in ran.items()}, failures


def ranges(lines):
    """Sorted lines as 'a-b' and 'a' runs of consecutive numbers."""
    out, lines = [], sorted(lines)
    for i, n in enumerate(lines):
        if i and n == lines[i - 1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(f"{a}-{b}" if a < b else f"{a}" for a, b in out)


def unran(code, ran, executed):
    """The executed lines holding an instruction of code that never ran.
    Skipped, as no opcode event reports them: the prologue up to the first
    RESUME, which runs before the frame is traced; each RESUME, which
    raises a call event instead; and the instruction after an
    EXTENDED_ARG, which runs with it.  Exception handlers, which no jump
    reaches, are skipped too."""
    instructions = list(dis.get_instructions(code))
    flow = normal_flow(instructions)
    done = ran.get(key(code), ())
    lines, line, prev, resumed = set(), None, None, False
    for ins in instructions:
        line = ins.starts_line or line
        if ins.opname == "RESUME":
            resumed = True
        elif (resumed and ins.offset in flow and ins.offset not in done and line in executed
              and prev.opname != "EXTENDED_ARG"):
            lines.add(line)
        prev = ins
    return lines


def normal_flow(instructions):
    """The offsets reachable from the first instruction by falling through
    and jumping, without an exception."""
    at = {ins.offset: i for i, ins in enumerate(instructions)}
    seen, todo = set(), [0]
    while todo:
        i = todo.pop()
        if i >= len(instructions) or instructions[i].offset in seen:
            continue
        ins = instructions[i]
        seen.add(ins.offset)
        if ins.opcode in JUMPS:
            todo.append(at[ins.argval])
        if ins.opname not in STOPS:
            todo.append(i + 1)
    return seen


def report(hit, entered, ran):
    total = executed = 0
    partial = []
    for path in sorted(SRC.glob("*.py")):
        f = str(path)
        never, missed = [], []
        for name, first, lines, codes in units(path):
            called = name == "<module>" or (f, first) in entered
            arms = set().union(*(unran(c, ran, hit[f]) for c in codes)) if called else ()
            if arms:
                partial.append(f"  {path.name} {name}: lines {ranges(arms)}")
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
    print("executed lines holding bytecode that never ran:")
    print("\n".join(partial))
    print(f"{len(partial)} functions have such lines")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        argvs = invocations(Path(tmp))
        hit, entered, ran, failures = run(argvs)
    for argv, code, tail in failures:
        print(f"FAILED (exit {code}): polysmash {' '.join(argv)}\n{tail}")
    print(f"{len(argvs)} invocations traced")
    report(hit, entered, ran)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
