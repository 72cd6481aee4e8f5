"""The generator certificate of `check_graded_dc` against the full sweeps.

On a finite algebra `wedge-assoc` and `graded-leibniz` are first proved
from the generators of `crossed_calc._wedge_generators`, and run in full
only where that proof fails.  Each case corrupts one memoised entry of the
wedge or of d, asserts that both verdicts and witnesses are those of the
per-item reference loops on the same corrupted maps, and restores the
entry, so one instance serves every case.
"""

from types import SimpleNamespace

import pytest
from linear_oracle import reference_graded_leibniz, reference_wedge_witness

import hopfcalc.crossed_calc
from hopfcalc.crossed_calc import _wedge_generators, check_graded_dc
from hopfcalc.examples import group_c2_instance, radford_calculus_instance
from hopfcalc.linalg import FreeVector, Subspace, linear
from hopfcalc.report import witness

DEGREES = range(3)
# every 9th wedge entry of radford's 704 of total degree at most two
STRIDE = 9


def _reference_verdicts(dc, assoc):
    leibniz = reference_graded_leibniz(dc)
    return [
        ("graded-leibniz", "pass", None) if leibniz is None else ("graded-leibniz", "fail", witness(*leibniz)),
        ("wedge-assoc", "pass", None) if assoc is None else ("wedge-assoc", "fail", assoc),
    ]


def _verdicts(dc):
    report = check_graded_dc(dc)
    return [(c.identity, c.status, c.witness) for c in report.checks if c.identity in ("graded-leibniz", "wedge-assoc")]


def _corruptions(dc, bases, stride):
    """(map, arguments, index added): every stride-th wedge entry of total
    degree at most two and every d entry, each with a basis index of the
    degree of its value, where that degree has one."""
    wedge_entries = [
        (n1, i, n2, j)
        for n1 in DEGREES
        for n2 in DEGREES
        if n1 + n2 <= 2 and bases[n1 + n2]
        for i in bases[n1]
        for j in bases[n2]
    ]
    for k, args in enumerate(wedge_entries[::stride]):
        target = bases[args[0] + args[2]]
        yield dc.wedge, args, target[k % len(target)]
    for k, args in enumerate((n, ix) for n in DEGREES if n + 1 <= 2 and bases[n + 1] for ix in bases[n]):
        target = bases[args[0] + 1]
        yield dc.d, args, target[k % len(target)]


@pytest.mark.parametrize(
    "build, stride",
    [(lambda: radford_calculus_instance(2, 2).higher, STRIDE), (lambda: group_c2_instance("zero").graded, 1)],
    ids=["radford", "group-c2"],
)
def test_the_certificate_gives_the_verdicts_and_witnesses_of_the_full_sweeps(build, stride):
    dc = build()
    bases = {n: dc.basis(n, None) for n in DEGREES}
    clean = reference_wedge_witness(dc, bases)
    assert _verdicts(dc) == _reference_verdicts(dc, clean) == [("graded-leibniz", "pass", None), ("wedge-assoc", "pass", None)]
    failures = 0
    for fn, args, extra in _corruptions(dc, bases, stride):
        good = fn(*args)
        fn.memo[args] = good + FreeVector.basis(extra)
        try:
            # a corrupted d leaves the wedge, and so its reference witness, as it was
            want = _reference_verdicts(dc, clean if fn is dc.d else reference_wedge_witness(dc, bases))
            assert _verdicts(dc) == want, (args, extra)
        finally:
            fn.memo[args] = good
        failures += any(status == "fail" for _, status, _ in want)
    # the corruptions reach the fallback sweeps, not only the proof
    assert failures > 0


def _generated_dims(dc, bases, gens):
    """The dimension, per degree, of the subalgebra generated by gens,
    grown by elimination until no product of a row and a generator is new."""
    top = max(bases)
    spans = {n: Subspace(FreeVector.basis(g) for g in gens[n]) for n in bases}
    grown = True
    while grown:
        grown = False
        for p in bases:
            for q in bases:
                if p + q > top:
                    continue
                for row in spans[p].basis():
                    for g in gens[q]:
                        grown |= spans[p + q].add(linear(dc.wedge, p, row, q, g))
    return [spans[n].dim for n in bases]


def test_radford_generators_span_every_degree():
    dc = radford_calculus_instance(2, 2).higher
    bases = {n: dc.basis(n, None) for n in DEGREES}
    gens = _wedge_generators(dc, bases)
    assert [len(gens[n]) for n in DEGREES] == [3, 2, 0]
    assert _generated_dims(dc, bases, gens) == [len(bases[n]) for n in DEGREES]


def test_a_word_of_several_terms_is_multiplied_in_every_term():
    """x x = y + z is a word of two terms whose product with x, y x + z x =
    z - z, is zero, so z is a generator; the leading term alone would give
    y x = z and leave z out."""
    y, z = FreeVector.basis("y"), FreeVector.basis("z")
    table = {("x", "x"): y + z, ("y", "x"): z, ("z", "x"): -z}

    def wedge(p, i, q, j):
        if i == "e" or j == "e":
            return FreeVector.basis(j if i == "e" else i)
        return table.get((i, j), FreeVector.zero())

    dc = SimpleNamespace(wedge=wedge)
    bases = {0: list("exyz")}
    gens = _wedge_generators(dc, bases)
    assert gens == {0: ["e", "x", "z"]}
    assert _generated_dims(dc, bases, gens) == [4]


def test_a_windowed_algebra_builds_no_certificate(monkeypatch, torus_calc_shared):
    def refuse(*args):
        raise AssertionError("a window is not closed under products")

    monkeypatch.setattr(hopfcalc.crossed_calc, "_wedge_generators", refuse)
    report = check_graded_dc(torus_calc_shared.higher, window=1)
    assert [c.status for c in report.checks] == ["window-verified"] * 4
