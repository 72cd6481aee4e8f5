"""Command line runner: example registry, verification suites and
cohomology, emitting one canonical JSON document on stdout and a short
human summary on stderr.

`COMMANDS` declares each flag once, with its `params` key, type and
default.  A flag goes before or after the example, as `--flag value` or
`--flag=value`, written in full; its last repeat wins.  `-h` or `--help`
anywhere prints the usage on stdout and exits 0.

Exit status: 0 when no check failed, 1 on check failures, 2 on usage or
output errors.  A check item whose value lies outside the span it is
solved in (`NoSolution` in `CheckReport.sweep`) is a failed check, with
exit 1, not an `error: suite:` with exit 2.  Both commands run in three
stages: the parameters are checked, then the example's instance is built,
then each suite or the cohomology reads that instance.  A builder runs
only the checks whose failure refuses the instance (`CheckReport.require`)
and keeps their report; every other check of what it built is a suite's.
An error names its stage: `error: params:` for a command line that
`COMMANDS` refuses, refused parameters or an unknown suite, `error: build:`
when the instance cannot be built, `error: suite:<name>:` when a suite
cannot run, and `error: output:` when stdout refuses the document, which
is written and flushed before `run` returns, so that nothing is left for
shut-down to write.  A stderr that refuses a line is closed (`_say`):
stdout and the status stay as they were.

Process lifecycle: importing this module freezes the heap (`gc.freeze`).
Every object alive then, the interpreter's, `site`'s and hopfcalc's
modules, lives until the process exits, so no collection in the run or at
shut-down need traverse or free it.  The freeze is here and not in
`hopfcalc`, whose importers keep their own heap, nor in `run`, which tests
call many times in one process and whose instances must be freed.
"""

from __future__ import annotations

import gc
import re
import sys

from hopfcalc.examples import EXAMPLES, NoGradedCalculus, cohomology_dims
from hopfcalc.report import FAIL, render_json

# every object alive now lives until the process exits: frozen, it is left
# out of each collection, the run's and shut-down's, and the OS takes it back
gc.freeze()

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


def _close(stream) -> None:
    """Close a stream that refused a write, which shut-down would fail to flush again."""
    try:
        stream.close()
    except OSError:
        pass


def _say(text: str) -> None:
    """text to stderr unless it is closed; a stderr that refuses text is closed."""
    if not sys.stderr.closed:
        try:
            sys.stderr.write(text)
            sys.stderr.flush()
        except OSError:
            _close(sys.stderr)


def _emit(text: str, note: str, status: int) -> int:
    """status, after text goes to stdout, flushed so that no write is left
    for shut-down, and note to stderr; 2, after one `error: output:` line,
    when stdout refuses text."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as err:
        _say(f"error: output: {err.strerror}\n")
        _close(sys.stdout)
        return 2
    _say(note)
    return status


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
    return _emit(render_json(payload), f"{len(EXAMPLES)} examples registered\n", 0)


def run(argv=None) -> int:
    """Entry point returning the exit status; JSON goes to stdout."""
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        return _emit(_usage(), "", 0)
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
        _say(f"error: params: {err}\n")
        return 2

    payload = {"schema": SCHEMA, "command": command, "example": example, "params": params}
    try:
        instance = spec["build"](params)
        dc = spec["graded"](instance) if command == "cohomology" else None
    except NoGradedCalculus as obstructed:
        # no graded calculus to take cohomology of: reported, as verify reports it
        payload["obstruction"] = str(obstructed)
        return _emit(render_json(payload), f"cohomology: {obstructed}\n", 0)
    except ValueError as err:
        _say(f"error: build: {err}\n")
        return 2

    if command == "cohomology":
        dims, window = cohomology_dims(dc, params)
        payload["dims"] = {f"H{i}": d for i, d in enumerate(dims)}
        if window is not None:
            payload["window"] = window
            payload["note"] = "dimensions computed on the stated window only"
        line = " ".join(f"H{i}={d}" for i, d in enumerate(dims)) + (f" (window {window})" if window is not None else "")
        return _emit(render_json(payload), f"cohomology {line}\n", 0)

    reports = []
    counts: dict[str, int] = {}
    for name, fn in suites:
        try:
            report = fn(instance)
        except ValueError as err:
            _say(f"error: suite:{name}: {err}\n")
            return 2
        reports.append({"example": example, "suite": name} | report.as_dict())
        for check in report.checks:
            counts[check.status] = counts.get(check.status, 0) + 1
        _say(
            f"{example}:{name}: "
            + ("ok" if report.ok else "FAILED")
            + f" ({len(report.checks)} checks)\n"
        )

    failed = counts.get(FAIL, 0)
    payload |= {"reports": reports, "summary": counts, "ok": failed == 0}
    line = "all checks passed" if failed == 0 else f"{failed} checks FAILED"
    return _emit(render_json(payload), line + "\n", 0 if failed == 0 else 1)


def main():  # pragma: no cover - console entry point
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
