"""Executed bytecode of one hopf-calc invocation, per function and per phase.

    python tools/bytecount.py [--top N] verify radford
    python tools/bytecount.py cohomology radford --max-degree 3

Runs `hopfcalc.cli.run` on the given arguments in this process, with
`sys.settrace` opcode events on, and prints the number of bytecode
instructions executed: in total, per phase (`build`, `graded`,
`cohomology`, each `suite.<name>`, and `cli` for the rest: parsing the
command line and rendering the reports) and for the N functions
(default 25) that executed the most, each counted in its own frame, so a
list comprehension or generator is a function of its own.  The import of
`hopfcalc.cli` is not counted; its stdout and stderr are discarded.

A count has no timing noise: the same source under the same Python
version executes the same bytecode on any host, however loaded, so a
performance change can state the work it removes next to its timings.
The script re-runs itself with PYTHONHASHSEED=0 so that no hash order
moves a count.  The counts in the repository's documents were taken with
Python 3.11.7; another version compiles to other bytecode.  Tracing
slows a run by well over an order of magnitude: a traced `verify radford`
takes about 3 s.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _trace_run(argv):
    """(exit status, instructions per code object, instructions per phase)."""
    sys.path.insert(0, str(ROOT / "src"))
    from hopfcalc import cli, examples

    per_code, per_phase = Counter(), Counter()
    phase = ["cli"]
    marks = [0]  # instructions executed when the phase began

    def enter(name):
        total = sum(per_code.values())
        per_phase[phase[0]] += total - marks[0]
        phase[0], marks[0] = name, total

    def in_phase(name, fn):
        def run(*args):
            enter(name)
            try:
                return fn(*args)
            finally:
                enter("cli")

        return run

    for spec in examples.EXAMPLES.values():
        factory = spec["suites"]
        spec["suites"] = lambda params, factory=factory: [
            (name, in_phase(f"suite.{name}", fn)) for name, fn in factory(params)
        ]
        for name in ("build", "graded"):
            if name in spec:
                spec[name] = in_phase(name, spec[name])
    cli.cohomology_dims = in_phase("cohomology", cli.cohomology_dims)

    def count(frame, event, arg):
        if event == "opcode":
            per_code[frame.f_code] += 1
        return count

    def call(frame, event, arg):
        if frame.f_code.co_filename == __file__:
            return None  # this script's own frames are not counted
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return count

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(call)
        try:
            status = cli.run(argv)
        finally:
            sys.settrace(None)
    enter("cli")
    return status, per_code, per_phase


def _name(code) -> str:
    path = pathlib.Path(code.co_filename)
    where = path.relative_to(ROOT / "src").as_posix() if path.is_relative_to(ROOT / "src") else path.name
    return f"{where}:{code.co_qualname}"


def main(args) -> int:
    top = 25
    if args[:1] == ["--top"]:
        top, args = int(args[1]), args[2:]
    if not args:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    status, per_code, per_phase = _trace_run([str(ROOT / a) if a.startswith("sample-data/") else a for a in args])
    total = sum(per_code.values())
    print(f"{' '.join(args)}: exit status {status}, {total:,} instructions executed (Python {sys.version.split()[0]})")
    print("\nper phase:")
    for name, n in per_phase.items():
        if n:
            print(f"{n:>12,} {n / total:6.1%}  {name}")
    per_function = Counter()
    for code, n in per_code.items():
        per_function[_name(code)] += n
    print(f"\nper function, top {top}:")
    for name, n in per_function.most_common(top):
        print(f"{n:>12,} {n / total:6.1%}  {name}")
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main(sys.argv[1:]))
