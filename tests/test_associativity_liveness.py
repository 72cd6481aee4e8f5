"""Every associativity identity can fail.

Each test builds a fresh instance, corrupts one entry of a memoised
structure map after construction (`linalg.memoise` keeps the table in
`fn.memo`, and every later call reads it), and asserts that the matching
check fails, or the crossed product probe raises, at the witness that the
per-triple reference loop gives on the same corrupted maps.
"""

import pytest
from conftest import corrupt, find_check
from linear_oracle import reference_first_non_associative

import hopfcalc.crossed
from hopfcalc.crossed import build_crossed_product
from hopfcalc.crossed_calc import check_graded_dc
from hopfcalc.examples import group_c2_instance, radford_calculus_instance, radford_instance
from hopfcalc.fodc import check_fodc
from hopfcalc.hopf import AlgebraPresentation, check_hopf_axioms
from hopfcalc.report import witness


def reference_witness(*sweep):
    hit = reference_first_non_associative(*sweep)
    return None if hit is None else witness(*hit)


def reference_wedge_witness(dc, bases):
    """The first failing triple of the per-triple loop over the degree
    blocks (p, q, r) of total degree at most two, in the sweep's order."""
    for p in range(3):
        for q in range(3):
            for r in range(3 - p - q):
                found = reference_witness(
                    bases[p],
                    bases[q],
                    bases[r],
                    lambda i, j: dc.wedge(p, i, q, j),
                    lambda t, k: dc.wedge(p + q, t, r, k),
                    lambda j, k: dc.wedge(q, j, r, k),
                    lambda i, t: dc.wedge(p, i, q + r, t),
                )
                if found is not None:
                    return found
    return None


# (n1, position in the degree-n1 basis, n2, position in the degree-n2 basis)
@pytest.mark.parametrize("n1, a, n2, b", [(0, 0, 0, 0), (0, 3, 1, 5), (1, 2, 0, 7), (1, 4, 1, 9), (0, 6, 2, 3), (2, 1, 0, 2)])
def test_a_corrupted_wedge_entry_fails_wedge_assoc_at_the_reference_witness(n1, a, n2, b):
    dc = radford_calculus_instance(2, 2).higher
    bases = {n: dc.basis(n, None) for n in range(3)}
    corrupt(dc.wedge, (n1, bases[n1][a], n2, bases[n2][b]), bases[n1 + n2][1])
    check = find_check(check_graded_dc(dc), "wedge-assoc")
    assert (check.status, check.witness) == ("fail", reference_wedge_witness(dc, bases))


# not g * g: any value X of it gives the associative algebra k[g]/(g^2 - X)
@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0)])
def test_a_corrupted_product_fails_algebra_assoc_at_the_reference_witness(i, j):
    h = group_c2_instance("zero").hopf
    basis = h.algebra.basis.enumerate()
    corrupt(h.algebra.mult, (basis[i], basis[j]), basis[0])
    check = find_check(check_hopf_axioms(h), "algebra.assoc")
    assert (check.status, check.witness) == ("fail", reference_witness(basis, basis, basis, *[h.algebra.mult] * 4))


def _bimodule_sweeps(f):
    a, forms, mult = f.algebra.basis.enumerate(), f.forms.enumerate(), f.algebra.mult
    return {
        "bimodule.left-assoc": (a, a, forms, mult, f.left_act, f.left_act, f.left_act),
        "bimodule.right-assoc": (forms, a, a, f.right_act, f.right_act, mult, f.right_act),
        "bimodule.compat": (a, forms, a, f.left_act, f.right_act, f.right_act, f.left_act),
    }


# an action enters two of the three bimodule identities
@pytest.mark.parametrize(
    "field, position, killed",
    [
        ("left_act", (0, 0), {"bimodule.left-assoc", "bimodule.compat"}),
        ("left_act", (1, 1), {"bimodule.left-assoc", "bimodule.compat"}),
        ("right_act", (0, 0), {"bimodule.right-assoc", "bimodule.compat"}),
        ("right_act", (1, 1), {"bimodule.right-assoc", "bimodule.compat"}),
    ],
)
def test_a_corrupted_action_fails_the_bimodule_laws_at_the_reference_witness(field, position, killed):
    f = group_c2_instance("zero").calc
    a, forms = f.algebra.basis.enumerate(), f.forms.enumerate()
    args = (a[position[0]], forms[position[1]]) if field == "left_act" else (forms[position[1]], a[position[0]])
    corrupt(getattr(f, field), args, forms[0])
    report = check_fodc(f)
    for identity, sweep in _bimodule_sweeps(f).items():
        want = reference_witness(*sweep)
        assert (want is not None) == (identity in killed)
        check = find_check(report, identity)
        assert (check.status, check.witness) == (("fail", want) if want else ("pass", None))


@pytest.mark.parametrize("i, j", [(0, 0), (1, 2), (5, 3), (7, 7)])
def test_a_corrupted_crossed_product_fails_the_probe_at_the_reference_witness(monkeypatch, i, j):
    inst = radford_instance(2, 2)
    built = []

    def corrupted(**fields):
        algebra = AlgebraPresentation(**fields)
        basis = algebra.basis.enumerate()
        corrupt(algebra.mult, (basis[i], basis[j]), basis[0])
        built.append(algebra)
        return algebra

    monkeypatch.setattr(hopfcalc.crossed, "AlgebraPresentation", corrupted)
    with pytest.raises(ValueError, match="not associative") as raised:
        build_crossed_product(inst.crossed.base, inst.crossed.hopf, inst.crossed.measure, inst.crossed.cocycle)
    algebra, = built
    probe = algebra.basis.enumerate()
    assert str(raised.value) == f"crossed product not associative at {reference_witness(probe, probe, probe, *[algebra.mult] * 4)}"
