# Frozen copy of `_parser` and `_params_of` from src/hopfcalc/cli.py at commit 64c32074b370c763236074ce0776e56a9e86e58a: the reference for the command-line oracle test in tests/test_cli.py.
"""The argparse command line that `hopfcalc.cli` parsed with before its
flag table.  `_parser()` reads the registry as the CLI does, so the two
parsers offer the same examples."""

from __future__ import annotations

import argparse

from hopfcalc.cli import MAX_DEGREE
from hopfcalc.examples import EXAMPLES


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopf-calc",
        description="exact verification of crossed product calculi and their bundle structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-examples", help="registry names and parameter schemas")

    def add_common(p, examples):
        p.add_argument("example", choices=sorted(examples))
        p.add_argument("--r", type=int, default=2)
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--q-power", dest="q_power", type=int, default=1)
        p.add_argument("--M", type=int, default=8, help="angle denominator / deformation order")
        p.add_argument("--ideal", choices=["zero", "full"], default="zero")
        p.add_argument("--window", type=int, default=4)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--file", type=str, default=None)
        p.add_argument("--ideal-file", dest="ideal_file", type=str, default=None)

    verify = sub.add_parser("verify", help="run the verification suites of an example")
    add_common(verify, EXAMPLES)
    verify.add_argument("--suite", type=str, default=None, help="run a single named suite")

    cohomology = sub.add_parser("cohomology", help="exact de Rham dimensions of an example")
    add_common(cohomology, [name for name, spec in EXAMPLES.items() if "graded" in spec])
    cohomology.add_argument("--max-degree", dest="max_degree", type=int, default=MAX_DEGREE)
    return parser


def _params_of(args) -> dict:
    params = {
        "r": args.r,
        "n": args.n,
        "q_power": args.q_power,
        "M": args.M,
        "ideal": args.ideal,
        "window": args.window,
        "seed": args.seed,
    }
    if args.file is not None:
        params["file"] = args.file
    if args.ideal_file is not None:
        params["ideal_file"] = args.ideal_file
    if getattr(args, "max_degree", None) is not None:
        params["max_degree"] = args.max_degree
    return params
