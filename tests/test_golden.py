"""Canonical reports compared byte for byte with committed golden files.

Each file under tests/golden/ holds the exit status and the exact stdout of
one `hopf-calc` invocation.  Arguments under `sample-data/` are passed as
absolute paths and the absolute directory is written back as `sample-data`
in the output, so the bytes do not depend on the checkout location.
"""

import hashlib
import json
import os

import pytest

from hopfcalc import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
DATA = os.path.join(ROOT, "sample-data")
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")

INVOCATIONS = {
    "verify-radford": "verify radford",
    "cohomology-radford": "cohomology radford --max-degree 3",
    "verify-group-c2-zero": "verify group-c2 --ideal zero",
    "verify-group-c2-full": "verify group-c2 --ideal full",
    "cohomology-group-c2": "cohomology group-c2 --ideal zero --max-degree 1",
    "verify-user-hopf": "verify user-hopf --file sample-data/c4.hopf --ideal-file sample-data/c4-ideal.txt",
    "verify-torus": "verify torus --M 8 --window 2",
    "verify-smash-demo": "verify smash-demo --window 2",
    "cohomology-torus": "cohomology torus --window 2",
}


def run_invocation(command: str, capsys) -> tuple[int, bytes]:
    argv = [os.path.join(ROOT, a) if a.startswith("sample-data/") else a for a in command.split()]
    capsys.readouterr()
    status = cli.run(argv)
    out = capsys.readouterr().out
    return status, out.replace(json.dumps(DATA)[1:-1], "sample-data").encode()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_golden_report(name, capsys):
    with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as handle:
        want = handle.read()
    status, got = run_invocation(INVOCATIONS[name], capsys)
    assert status == 0
    assert got == want


def test_every_benchmark_output_is_pinned_by_a_golden():
    # perfbench/reference.json pins the exit status and stdout sha256 of the
    # benchmark invocations; each must be the golden of the same invocation,
    # so a change to those outputs fails here too
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    golden_of = {command: name for name, command in INVOCATIONS.items()}
    assert reference and set(reference) <= set(golden_of)
    for command, pinned in reference.items():
        with open(os.path.join(GOLDEN, f"{golden_of[command]}.json"), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert (pinned["status"], pinned["sha256"]) == (0, digest), command
