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
    # the balanced tensors of the Hopf-Galois and derivative suites act
    # through `linalg.linear`, so the derivative's two actions count as
    # calls; their relations are summed with no product by one
    "verify radford": {"products": 6_834, "linear": 3_270},
    # the graded laws proved from generators: a fall back to the full
    # sweeps of a passing run makes 6,769 products
    "verify radford --suite higher-forms": {"products": 4_057, "linear": 1_554},
    # a bundle suite builds the vertical map and runs the checks it prints,
    # and no other suite's: the bijection runs no connection.* sweep
    "verify radford --suite bijection": {"products": 1_611, "linear": 1_131},
    "cohomology radford --max-degree 3": {"products": 1_015, "linear": 658},
    "verify user-hopf --file sample-data/c4.hopf --ideal-file sample-data/c4-ideal.txt": {"products": 567, "linear": 288},
    "verify group-c2 --ideal zero": {"products": 171, "linear": 93},
    "verify group-c2 --ideal full": {"products": 52, "linear": 39},
    "cohomology group-c2 --ideal zero --max-degree 1": {"products": 73, "linear": 10},
    "verify torus --M 8 --window 2": {"products": 71_897, "linear": 18_477},
    # the connection suite runs no vertical.* or maurer-cartan.* sweep
    "verify torus --M 8 --window 2 --suite connection": {"products": 42_482, "linear": 11_116},
    "verify smash-demo --window 2": {"products": 79_500, "linear": 36_966},
    # the torus build alone: a check of the built instance that moves back
    # into a builder shows here
    "cohomology torus": {"products": 50_401, "linear": 19_229},
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


def test_radford_higher_forms_stay_within_the_budget_of_their_generator_proof(monkeypatch, capsys):
    _assert_within_budget(monkeypatch, "verify radford --suite higher-forms")


@pytest.mark.parametrize(
    "command", ["verify radford --suite bijection", "verify torus --M 8 --window 2 --suite connection"]
)
def test_a_bundle_suite_runs_only_the_checks_it_prints(monkeypatch, capsys, command):
    _assert_within_budget(monkeypatch, command)


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


@pytest.mark.parametrize(
    "command", ["verify torus --M 8 --window 2", "verify smash-demo --window 2", "cohomology torus"]
)
def test_windowed_examples_stay_within_their_operation_budgets(monkeypatch, capsys, command):
    _assert_within_budget(monkeypatch, command)
