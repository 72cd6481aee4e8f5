"""Command line runner: example registry, verification suites and
cohomology, emitting one canonical JSON document on stdout and a short
human summary on stderr.

Exit status: 0 when no check failed, 1 on check failures, 2 on usage
errors.  An error names its stage: `error: params:` for refused
parameters, `error: build:` when the instance cannot be built, and
`error: suite:<name>:` when a suite cannot run.  `cohomology` builds
before anything runs, and `verify user-hopf` reads its files before any
suite; `verify radford`, `torus` and `smash-demo` build their instance
inside their first suite, so their build errors name that suite.
"""

from __future__ import annotations

import argparse
import sys

from hopfcalc.examples import EXAMPLES, NoGradedCalculus, cohomology_dims
from hopfcalc.report import FAIL, render_json

SCHEMA = 1
MAX_DEGREE = 2


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


def run(argv=None) -> int:
    """Entry point returning the exit status; JSON goes to stdout."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "list-examples":
        payload = {
            "schema": SCHEMA,
            "command": "list-examples",
            "examples": [
                {
                    "name": name,
                    "description": spec["description"],
                    "params": spec["params"] | ({"max-degree": f"int (default {MAX_DEGREE})"} if "graded" in spec else {}),
                }
                for name, spec in sorted(EXAMPLES.items())
            ],
        }
        sys.stdout.write(render_json(payload))
        sys.stderr.write(f"{len(EXAMPLES)} examples registered\n")
        return 0

    params = _params_of(args)
    example = args.example
    try:
        if args.command == "cohomology" and args.max_degree < 0:
            raise ValueError(f"--max-degree must be at least 0, got {args.max_degree}")
        EXAMPLES[example]["validate"](params)
    except ValueError as err:
        sys.stderr.write(f"error: params: {err}\n")
        return 2

    if args.command == "cohomology":
        payload = {"schema": SCHEMA, "command": "cohomology", "example": example, "params": params}
        try:
            dims, window = cohomology_dims(example, params)
        except NoGradedCalculus as obstructed:
            # no graded calculus to take cohomology of: reported, as verify reports it
            payload["obstruction"] = str(obstructed)
            sys.stdout.write(render_json(payload))
            sys.stderr.write(f"cohomology: {obstructed}\n")
            return 0
        except ValueError as err:
            sys.stderr.write(f"error: build: {err}\n")
            return 2
        payload["dims"] = {f"H{i}": d for i, d in enumerate(dims)}
        if window is not None:
            payload["window"] = window
            payload["note"] = "dimensions computed on the stated window only"
        sys.stdout.write(render_json(payload))
        sys.stderr.write(
            "cohomology "
            + " ".join(f"H{i}={d}" for i, d in enumerate(dims))
            + (f" (window {window})" if window is not None else "")
            + "\n"
        )
        return 0

    # verify
    try:
        suites = EXAMPLES[example]["suites"](params)
    except ValueError as err:
        sys.stderr.write(f"error: build: {err}\n")
        return 2
    wanted = getattr(args, "suite", None)
    if wanted is not None:
        suites = [(name, fn) for name, fn in suites if name == wanted]
        if not suites:
            sys.stderr.write(f"error: unknown suite {wanted!r} for example {example!r}\n")
            return 2

    reports = []
    counts: dict[str, int] = {}
    for name, fn in suites:
        try:
            report = fn()
        except ValueError as err:
            sys.stderr.write(f"error: suite:{name}: {err}\n")
            return 2
        reports.append({"example": example, "suite": name} | report.as_dict())
        for check in report.checks:
            counts[check.status] = counts.get(check.status, 0) + 1
        sys.stderr.write(
            f"{example}:{name}: "
            + ("ok" if report.ok else "FAILED")
            + f" ({len(report.checks)} checks)\n"
        )

    failed = counts.get(FAIL, 0)
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "example": example,
        "params": params,
        "reports": reports,
        "summary": counts,
        "ok": failed == 0,
    }
    sys.stdout.write(render_json(payload))
    sys.stderr.write(("all checks passed" if failed == 0 else f"{failed} checks FAILED") + "\n")
    return 0 if failed == 0 else 1


def main():  # pragma: no cover - console entry point
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
