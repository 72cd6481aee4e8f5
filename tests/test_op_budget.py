"""Operation counts of one in-process invocation against fixed budgets.

A count has no timing noise: the same invocation makes the same scalar
products and the same `linalg.linear` calls under every PYTHONHASHSEED, and
a second run in the same process makes as many as the first.  A change that
lowers a count lowers its budget here in the same commit; a change that
raises one states why.
"""

import importlib
import json
import pathlib
import pkgutil
from collections import Counter

import pytest

import hopfcalc
from hopfcalc.cli import run
from hopfcalc.linalg import linear
from hopfcalc.scalars import CycScalar

ROOT = pathlib.Path(__file__).resolve().parents[1]
# invocation -> budget, with every perfbench/reference.json invocation among
# them; the counts were the same under PYTHONHASHSEED 0, 1 and 17
BUDGETS = {
    "verify radford": {"products": 11_626, "linear": 8_694},
    "cohomology radford --max-degree 3": {"products": 1_245, "linear": 1_314},
    "verify user-hopf --file sample-data/c4.hopf --ideal-file sample-data/c4-ideal.txt": {"products": 575, "linear": 328},
    "verify group-c2 --ideal zero": {"products": 175, "linear": 153},
    "verify group-c2 --ideal full": {"products": 52, "linear": 63},
    "cohomology group-c2 --ideal zero --max-degree 1": {"products": 75, "linear": 10},
    "verify torus --M 8 --window 2": {"products": 83_595, "linear": 31_622},
    "verify smash-demo --window 2": {"products": 85_992, "linear": 49_626},
}
MODULES = [importlib.import_module(f"hopfcalc.{info.name}") for info in pkgutil.iter_modules(hopfcalc.__path__)]


def _assert_within_budget(monkeypatch, command):
    counts = Counter()
    mul = CycScalar.__mul__

    def counted_mul(a, b):
        counts["products"] += 1
        return mul(a, b)

    def counted_linear(*args):
        counts["linear"] += 1
        return linear(*args)

    monkeypatch.setattr(CycScalar, "__mul__", counted_mul)
    for module in MODULES:
        if getattr(module, "linear", None) is linear:
            monkeypatch.setattr(module, "linear", counted_linear)
    assert run([str(ROOT / word) if word.startswith("sample-data/") else word for word in command.split()]) == 0
    budget = BUDGETS[command]
    assert counts["products"] <= budget["products"]
    assert counts["linear"] <= budget["linear"]


def test_verify_radford_stays_within_its_operation_budget(monkeypatch, capsys):
    _assert_within_budget(monkeypatch, "verify radford")


@pytest.mark.parametrize(
    "command",
    [
        "cohomology radford --max-degree 3",
        "verify user-hopf --file sample-data/c4.hopf --ideal-file sample-data/c4-ideal.txt",
        "verify group-c2 --ideal zero",
        "verify group-c2 --ideal full",
        "cohomology group-c2 --ideal zero --max-degree 1",
    ],
)
def test_benchmarked_invocations_stay_within_their_operation_budgets(monkeypatch, capsys, command):
    _assert_within_budget(monkeypatch, command)


def test_every_benchmarked_invocation_has_a_budget():
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    assert set(reference) <= set(BUDGETS)


@pytest.mark.parametrize("command", ["verify torus --M 8 --window 2", "verify smash-demo --window 2"])
def test_windowed_examples_stay_within_their_operation_budgets(monkeypatch, capsys, command):
    _assert_within_budget(monkeypatch, command)
