"""Every twisted law swept by rows can fail, at the item its per-item sweep failed at.

Each test builds a fresh instance, corrupts one entry of a memoised
structure map (`conftest.corrupt`), and compares what the code under test
reports with the per-item references of `linear_oracle`, which evaluate
every law item by item in the order the sweeps ran before
`linalg.first_unequal`:
- the crossed product builder refuses with the first failed hypothesis,
  a law swept by rows failing at the reference's witness;
- the crossed calculus builder likewise, on the derived form action;
- the suite checks `first-order.*-action` and `derivative.sigma-*` fail at
  the reference's witness, or pass where it finds none.
The torus builders run on a window, where a corrupted action sends a form
outside the presented window and a row raises NoSolution.
"""

import pytest
from conftest import corrupt, find_check
from linear_oracle import (
    reference_first_order_actions,
    reference_sigma_laws,
    reference_twisted_calculus_laws,
    reference_twisted_module_laws,
)

import hopfcalc.fodc
import hopfcalc.linalg
from hopfcalc.crossed import build_crossed_product, check_twisted_module_algebra
from hopfcalc.crossed_calc import build_crossed_fodc, compare_first_order
from hopfcalc.examples import radford_calculus_instance, radford_instance, torus_calculus_instance
from hopfcalc.fodc import Fodc, TwistedCalculusAction, build_laurent_q_calculus, check_sigma_twisted_module_calculus
from hopfcalc.linalg import FreeVector, NoSolution, tensor_index
from hopfcalc.qpb import VComodule, covariant_derivative, vertical_map
from hopfcalc.scalars import root_of_unity


def expected_refusal(refusal, report, reference):
    """refusal naming the first failed check of report, where each law
    that reference holds takes the reference's verdict and witness."""
    for check in report.checks:
        failed, at = (reference[check.identity] is not None, reference[check.identity]) if check.identity in reference else (
            check.status == "fail", check.witness
        )
        if failed:
            return f"{refusal} {check.identity} at {at}"
    return None


def assert_rows_match(report, reference):
    """Each law of reference has in report the reference's verdict and witness."""
    for identity, at in reference.items():
        check = find_check(report, identity)
        assert (check.status == "fail", check.witness) == (at is not None, at), identity


# (map, positions of its two arguments, position of the added basis vector,
# a law swept by rows that fails); B is h1(i, j), H is g(0), g(1)
@pytest.mark.parametrize(
    "field, args, extra, killed",
    [
        ("act", (0, 1), 0, "measure.multiplicative"),
        ("act", (1, 3), 2, "twisted-module"),
        ("act", (1, 2), 1, "cocycle"),
        ("act", (0, 2), 1, "twisted-module"),  # refused by measure.unit-action first
        ("sigma", (0, 1), 3, "cocycle"),
        ("sigma_inv", (1, 1), 2, "twisted-module"),
    ],
)
def test_a_corrupted_measure_or_cocycle_is_refused_at_the_reference_witness(field, args, extra, killed):
    cp = radford_instance(2, 2).crossed
    b, h, m, s = cp.base, cp.hopf, cp.measure, cp.cocycle
    bs, hs = b.basis.enumerate(), h.algebra.basis.enumerate()
    if field == "act":
        corrupt(m.act, (hs[args[0]], bs[args[1]]), bs[extra])
    else:
        corrupt(getattr(s, field), (hs[args[0]], hs[args[1]]), bs[extra])
    reference = reference_twisted_module_laws(b, h, m, s)
    assert reference[killed] is not None
    report = check_twisted_module_algebra(b, h, m, s)
    assert_rows_match(report, reference)
    with pytest.raises(ValueError) as refused:
        build_crossed_product(b, h, m, s)
    assert str(refused.value) == expected_refusal("crossed product hypothesis failed:", report, reference)


def _calculus_refusal(cp, b_calc, h_calc, window=None, killed=None):
    action, report = check_sigma_twisted_module_calculus(b_calc, cp.hopf, cp.measure, cp.cocycle, window=window)
    reference = reference_twisted_calculus_laws(b_calc, cp.hopf, cp.measure, cp.cocycle, action, window)
    assert reference[killed] is not None
    assert_rows_match(report, reference)
    with pytest.raises(ValueError) as refused:
        build_crossed_fodc(cp, b_calc, h_calc, window=window)
    assert str(refused.value) == expected_refusal("hypothesis failed: twisted module calculus check", report, reference)


# (map, positions of its two arguments, position of the added form, a law
# swept by rows that fails); the forms are om(i, j), the base h1(i, j), and
# `act` is the derived form action, corrupted as it is built: no single
# entry of the base calculus or the measure reaches `comp`, which the
# derived action satisfies by its construction on presentations
@pytest.mark.parametrize(
    "field, args, extra, killed",
    [
        ("left_act", (1, 1), 0, "twisted-bimodule.sandwich"),
        ("left_act", (0, 0), 2, "twisted-bimodule.twist"),
        ("right_act", (0, 1), 0, "twisted-bimodule.sandwich"),
        ("right_act", (0, 0), 3, "twisted-bimodule.twist"),
        ("act", (1, 2), 1, "comp"),
        ("act", (0, 3), 0, "comp"),
    ],
)
def test_a_corrupted_base_calculus_is_refused_at_the_reference_witness(monkeypatch, field, args, extra, killed):
    rc = radford_calculus_instance(2, 2)
    cp, b_calc = rc.instance.crossed, rc.cf.b_calc
    bs, fs, hs = cp.base.basis.enumerate(), b_calc.forms.enumerate(), cp.hopf.algebra.basis.enumerate()
    if field == "left_act":
        corrupt(b_calc.left_act, (bs[args[0]], fs[args[1]]), fs[extra])
    elif field == "right_act":
        corrupt(b_calc.right_act, (fs[args[0]], bs[args[1]]), fs[extra])
    else:

        def corrupted(act):
            action = TwistedCalculusAction(act=act)
            corrupt(action.act, (hs[args[0]], fs[args[1]]), fs[extra])
            return action

        monkeypatch.setattr(hopfcalc.fodc, "TwistedCalculusAction", corrupted)
    _calculus_refusal(cp, b_calc, rc.cf.h_calc, killed=killed)


# a windowed build: the q-calculus of the Laurent polynomials on the torus
# base, whose left action w(1) dt(-1) is sent far outside the window; a row
# that meets it raises NoSolution, as the derived action is solved for on
# the window's presentations, and is run again item by item
@pytest.mark.parametrize("window", [1, 2])
def test_the_windowed_torus_calculus_is_refused_at_the_reference_witness(monkeypatch, window):
    cp = torus_calculus_instance(theta_order=8, window=3).cf.crossed
    laurent = build_laurent_q_calculus(root_of_unity(8))
    b_calc = Fodc(algebra=cp.base, forms=laurent.forms, d=laurent.d, left_act=laurent.left_act, right_act=laurent.right_act)
    corrupt(b_calc.left_act, (("w", 1), ("dt", -1)), ("dt", 40))
    unsolved = []

    def keyed_laws(row, zs, laws, ids):
        try:
            yield from rows(row, zs, laws, ids)
        except NoSolution:
            unsolved.append(row)
            raise

    rows = hopfcalc.linalg._keyed_laws
    monkeypatch.setattr(hopfcalc.linalg, "_keyed_laws", keyed_laws)
    _calculus_refusal(cp, b_calc, laurent, window, killed="twisted-bimodule.sandwich")
    assert unsolved


@pytest.mark.parametrize("window", [1, 2])
def test_the_windowed_torus_measure_is_refused_at_the_reference_witness(window):
    tc = torus_calculus_instance(theta_order=8, window=3)
    cp = tc.cf.crossed
    b, h, m, s = cp.base, cp.hopf, cp.measure, cp.cocycle
    bs, hs = b.basis.enumerate(window), h.algebra.basis.enumerate(window)
    corrupt(m.act, (hs[-1], bs[-1]), bs[0])
    reference = reference_twisted_module_laws(b, h, m, s, window)
    assert any(reference.values())
    report = check_twisted_module_algebra(b, h, m, s, window=window)
    assert_rows_match(report, reference)
    with pytest.raises(ValueError) as refused:
        build_crossed_product(b, h, m, s, window=window)
    assert str(refused.value) == expected_refusal("crossed product hypothesis failed:", report, reference)


# (action, position of the pair, position of the form, position of the added form)
@pytest.mark.parametrize("field, p, f, extra", [("left_act", 3, 5, 0), ("left_act", 0, 0, 9), ("right_act", 6, 2, 4)])
def test_a_corrupted_form_action_fails_the_first_order_comparison_at_the_reference_witness(field, p, f, extra):
    rc = radford_calculus_instance(2, 2)
    cf, dc = rc.cf, rc.higher
    pairs, forms = cf.crossed.algebra.basis.enumerate(), cf.forms.enumerate()
    args = (pairs[p], forms[f]) if field == "left_act" else (forms[f], pairs[p])
    corrupt(getattr(cf, field), args, forms[extra])
    reference = reference_first_order_actions(cf, dc)
    assert reference["first-order." + field.replace("_act", "-action")] is not None
    assert_rows_match(compare_first_order(cf, dc), reference)


def _bundle(rc):
    v = VComodule(
        labels=[("v", 0), ("v", 1)],
        coaction=lambda vx: FreeVector.basis(tensor_index(vx, ("g", 1 if vx[1] == 0 else 0))),
    )
    return covariant_derivative(vertical_map(rc.cf), v)


# (position in the base, position of the form, position of the added form);
# a wrong right action that stays among the forms passes every derivative
# check, so the corrupted map is the left action
@pytest.mark.parametrize("b, f, extra", [(0, 1, 0), (0, 0, 3), (2, 1, 3), (1, 3, 2)])
def test_a_corrupted_base_action_fails_the_braiding_laws_at_the_reference_witness(b, f, extra):
    rc = radford_calculus_instance(2, 2)
    b_calc = rc.cf.b_calc
    bs, fs = rc.instance.crossed.base.basis.enumerate(), b_calc.forms.enumerate()
    corrupt(b_calc.left_act, (bs[b], fs[f]), fs[extra])
    data = _bundle(rc)
    reference = reference_sigma_laws(rc.cf, data)
    assert all(reference.values())
    assert_rows_match(data.report, reference)
