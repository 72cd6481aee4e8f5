"""Operation counts of one in-process `verify radford` against fixed budgets.

A count has no timing noise: the same invocation makes the same scalar
products and the same `linalg.linear` calls under every PYTHONHASHSEED, and
a second run in the same process makes as many as the first.  A change that
lowers a count lowers its budget here in the same commit; a change that
raises one states why.
"""

import importlib
import pkgutil
from collections import Counter

import hopfcalc
from hopfcalc.cli import run
from hopfcalc.linalg import linear
from hopfcalc.scalars import CycScalar

BUDGET = {"products": 11_626, "linear": 8_694}
MODULES = [importlib.import_module(f"hopfcalc.{info.name}") for info in pkgutil.iter_modules(hopfcalc.__path__)]


def test_verify_radford_stays_within_its_operation_budget(monkeypatch, capsys):
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
    assert run(["verify", "radford"]) == 0
    assert counts["products"] <= BUDGET["products"]
    assert counts["linear"] <= BUDGET["linear"]
