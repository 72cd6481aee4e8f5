"""Command line runner: example registry, verification suites and
cohomology, emitting one canonical JSON document on stdout and a short
human summary on stderr.

`COMMANDS` declares each flag once, with its `params` key, type and
default.  A flag goes before or after the example, as `--flag value` or
`--flag=value`, written in full; its last repeat wins.  `-h` or `--help`
anywhere prints the usage on stdout and exits 0.

Exit status: 0 when no check failed, 1 on check failures, 2 on usage
errors.  Both commands run in three stages: the parameters are checked,
then the example's instance is built, then each suite or the cohomology
reads that instance.  An error names its stage: `error: params:` for a
command line that `COMMANDS` refuses, refused parameters or an unknown
suite, `error: build:` when the instance cannot be built, and
`error: suite:<name>:` when a suite cannot run.
"""

from __future__ import annotations

import re
import sys

from hopfcalc.examples import EXAMPLES, NoGradedCalculus, cohomology_dims
from hopfcalc.report import FAIL, render_json

SCHEMA = 1
MAX_DEGREE = 2

# flag -> (params key, int, str or a tuple of choices, default); a flag whose
# default is None enters params only when it is given
_FLAGS = {
    "--r": ("r", int, 2),
    "--n": ("n", int, 2),
    "--q-power": ("q_power", int, 1),
    "--M": ("M", int, 8),
    "--ideal": ("ideal", ("zero", "full"), "zero"),
    "--window": ("window", int, 4),
    "--seed": ("seed", int, 0),
    "--file": ("file", str, None),
    "--ideal-file": ("ideal_file", str, None),
}
COMMANDS = {
    "list-examples": {},
    "verify": _FLAGS | {"--suite": ("suite", str, None)},
    "cohomology": _FLAGS | {"--max-degree": ("max_degree", int, MAX_DEGREE)},
}


def _choose(what: str, value: str | None, choices) -> str:
    if value not in choices:
        given = "missing" if value is None else f"invalid choice {value!r}"
        raise ValueError(f"{what}: {given} (choose from {', '.join(choices)})")
    return value


def _is_flag(token: str, flags: dict) -> bool:
    """A declared flag, alone or as `flag=value`, or any other dash word
    that is not a negative number and holds no space; everything else is a
    value or a positional, as argparse reads them."""
    return token.partition("=")[0] in flags or (
        token[:1] == "-" and token != "-" and " " not in token and not re.fullmatch(r"-\d+|-\d*\.\d+", token)
    )


def _parse(argv: list) -> tuple[str, str | None, dict, str | None]:
    """(command, example, params, suite) of a command line; a ValueError for
    anything that `COMMANDS` does not declare."""
    command = _choose("command", argv[0] if argv else None, COMMANDS)
    flags = COMMANDS[command]
    values = {key: default for key, kind, default in flags.values()}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not _is_flag(token, flags):
            positionals.append(token)
            continue
        flag, eq, text = token.partition("=")
        if flag not in flags:
            raise ValueError(f"{flag}: unknown flag for {command}")
        if not eq:
            text = next(tokens, None)
            if text is None or _is_flag(text, flags):
                raise ValueError(f"{flag}: expected a value")
        key, kind, _ = flags[flag]
        if isinstance(kind, tuple):
            values[key] = _choose(flag, text, kind)
        else:
            try:
                values[key] = kind(text)
            except ValueError:
                raise ValueError(f"{flag}: invalid {kind.__name__} value {text!r}") from None
    example = None
    if flags:
        offered = sorted(name for name, spec in EXAMPLES.items() if command == "verify" or "graded" in spec)
        example = _choose("example", positionals.pop(0) if positionals else None, offered)
    if positionals:
        raise ValueError(f"unexpected argument {positionals[0]!r}")
    suite = values.pop("suite", None)
    return command, example, {key: value for key, value in values.items() if value is not None}, suite


def _usage() -> str:
    return "usage: hopf-calc list-examples\n" + "".join(
        f"       hopf-calc {command} EXAMPLE"
        + "".join(f" [{flag} {'|'.join(kind) if isinstance(kind, tuple) else kind.__name__.upper()}]" for flag, (_, kind, _) in flags.items())
        + "\n"
        for command, flags in COMMANDS.items()
        if flags
    )


def _list_examples() -> int:
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


def run(argv=None) -> int:
    """Entry point returning the exit status; JSON goes to stdout."""
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_usage())
        return 0
    try:
        command, example, params, wanted = _parse(argv)
        if command == "list-examples":
            return _list_examples()
        spec = EXAMPLES[example]
        if command == "cohomology" and params["max_degree"] < 0:
            raise ValueError(f"--max-degree must be at least 0, got {params['max_degree']}")
        spec["validate"](params)
        suites = spec["suites"](params) if command == "verify" else []
        if wanted is not None:
            suites = [(name, fn) for name, fn in suites if name == wanted]
            if not suites:
                raise ValueError(f"unknown suite {wanted!r} for example {example!r}")
    except ValueError as err:
        sys.stderr.write(f"error: params: {err}\n")
        return 2

    payload = {"schema": SCHEMA, "command": command, "example": example, "params": params}
    try:
        instance = spec["build"](params)
        dc = spec["graded"](instance) if command == "cohomology" else None
    except NoGradedCalculus as obstructed:
        # no graded calculus to take cohomology of: reported, as verify reports it
        payload["obstruction"] = str(obstructed)
        sys.stdout.write(render_json(payload))
        sys.stderr.write(f"cohomology: {obstructed}\n")
        return 0
    except ValueError as err:
        sys.stderr.write(f"error: build: {err}\n")
        return 2

    if command == "cohomology":
        dims, window = cohomology_dims(dc, params)
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

    reports = []
    counts: dict[str, int] = {}
    for name, fn in suites:
        try:
            report = fn(instance)
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
    payload |= {"reports": reports, "summary": counts, "ok": failed == 0}
    sys.stdout.write(render_json(payload))
    sys.stderr.write(("all checks passed" if failed == 0 else f"{failed} checks FAILED") + "\n")
    return 0 if failed == 0 else 1


def main():  # pragma: no cover - console entry point
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
