import pytest
from conftest import find_check
from linear_oracle import reference_graded_leibniz

from hopfcalc.crossed import check_twisted_module_algebra
from hopfcalc.crossed_calc import (
    NotTruncatable,
    build_crossed_fodc,
    check_graded_dc,
    classify_smash,
    compare_first_order,
    de_rham_cohomology,
    hor,
    leibniz_defect,
    necessity_dsigma,
    truncate_dc_degree2,
    ver,
    verify_crossed_fodc,
)
from hopfcalc.examples import (
    group_c2_instance,
    radford_base_calculus,
    radford_calculus_instance,
    radford_injected_calculus,
    radford_instance,
    smash_demo_instance,
    torus_calculus_instance,
    torus_classical_calculus,
)
from hopfcalc.fodc import Fodc, check_fodc, check_sigma_twisted_module_calculus, zero_fodc
from hopfcalc.hopf import BasisFamily, build_cyclic_group_algebra
from hopfcalc.linalg import FreeVector, linear, tensor_index
from hopfcalc.report import witness
from hopfcalc.scalars import CycScalar, root_of_unity

E = FreeVector.basis


@pytest.fixture(scope="module")
def radford_calc(radford_calc_shared):
    return radford_calc_shared


@pytest.fixture(scope="module")
def torus_calc(torus_calc_shared):
    return torus_calc_shared


def test_crossed_fodc_requires_bicovariant_structure_calculus(radford_calc):
    cf = radford_calc.cf
    stripped = Fodc(
        algebra=cf.h_calc.algebra,
        forms=cf.h_calc.forms,
        left_act=cf.h_calc.left_act,
        right_act=cf.h_calc.right_act,
        d=cf.h_calc.d,
        hopf=cf.h_calc.hopf,
        right_coaction=cf.h_calc.right_coaction,
        left_coaction=None,
    )
    with pytest.raises(ValueError, match="bicovariant"):
        build_crossed_fodc(cf.crossed, cf.b_calc, stripped)


def test_crossed_differential_splits_into_both_summands(radford_calc):
    cf = radford_calc.cf
    got = cf.d(tensor_index(("h1", 0, 1), ("g", 1)))  # d(x (x) a-bar)
    expected = hor(E(("om", 0, 0)), E(("g", 1))) + ver(
        E(("h1", 0, 1)), E(("w1", 0, ("g", 1)))
    )
    assert got == expected


def test_radford_eight_term_expansion(radford_calc):
    """d of a generic element spreads over eight monomial terms: four
    horizontal from the base differential and four vertical from the
    group part.  Coefficients frozen from the defining displays."""
    cf = radford_calc.cf
    al, be, ga, de = (CycScalar.from_rational(v) for v in (2, 3, 5, 7))
    e_, f_ = (CycScalar.from_rational(v) for v in (11, 13))
    chi = (
        E(("h1", 0, 0)).scale(al)
        + E(("h1", 0, 1)).scale(be)
        + E(("h1", 1, 0)).scale(ga)
        + E(("h1", 1, 1)).scale(de)
    )
    group_part = E(("g", 0)).scale(e_) + E(("g", 1)).scale(f_)
    element = chi.tensor(group_part)
    got = linear(cf.d, element)
    w1 = ("w1", 0, ("g", 1))
    expected = (
        hor(E(("om", 0, 0)), E(("g", 0))).scale(be * e_)
        + hor(E(("om", 0, 0)), E(("g", 1))).scale(be * f_)
        + hor(E(("om", 1, 0)), E(("g", 0))).scale(de * e_)
        + hor(E(("om", 1, 0)), E(("g", 1))).scale(de * f_)
        + ver(E(("h1", 0, 0)), E(w1)).scale(al * f_)
        + ver(E(("h1", 0, 1)), E(w1)).scale(be * f_)
        + ver(E(("h1", 1, 0)), E(w1)).scale(ga * f_)
        + ver(E(("h1", 1, 1)), E(w1)).scale(de * f_)
    )
    assert got == expected
    assert len(got.terms) == 8


def test_verify_crossed_fodc_radford(radford_calc):
    report = verify_crossed_fodc(radford_calc.cf)
    assert report.ok
    assert all(c.status == "pass" for c in report.checks)
    names = [c.identity for c in report.checks]
    for needed in ("leibniz", "generation-horizontal", "generation-vertical", "d-colinear", "coaction-differentiable"):
        assert needed in names


def test_verify_crossed_fodc_torus(torus_calc):
    report = verify_crossed_fodc(torus_calc.cf, window=2)
    assert report.ok
    assert all(c.status == "window-verified" for c in report.checks)


def test_torus_left_action_display(torus_calc):
    """Left action on a vertical form: the measure factor, the cocycle
    factor at the shifted grade, and the translated form."""
    cf = torus_calc.cf
    inst = torus_calc.instance
    th = inst.torus.theta_root
    for l, k, m, n in [(0, 1, 2, 0), (1, -2, 1, 1), (2, 3, -1, -2), (0, -1, 0, 0)]:
        got = cf.left_act(tensor_index(("w", l), ("t", k)), ("ver", ("w", m), ("dt", n)))
        sigma = inst.crossed.cocycle.sigma(("t", k), ("t", n + 1))
        bpart = linear(inst.crossed.base.mult, ("w", l + m), sigma).scale(th ** (-k * m))
        expected = ver(bpart, E(("dt", k + n)))
        assert got == expected


def test_torus_right_action_display(torus_calc):
    cf = torus_calc.cf
    inst = torus_calc.instance
    th = inst.torus.theta_root
    q = torus_calc.cf.h_calc.right_act(("dt", 0), ("t", 1)).terms[("dt", 1)]
    for m, n, l, k in [(0, 0, 1, 1), (1, -1, 2, 0), (-2, 2, 0, -3)]:
        got = cf.right_act(("ver", ("w", m), ("dt", n)), tensor_index(("w", l), ("t", k)))
        sigma = inst.crossed.cocycle.sigma(("t", n + 1), ("t", k))
        bpart = linear(inst.crossed.base.mult, ("w", m + l), sigma).scale(th ** (-(n + 1) * l))
        expected = ver(bpart, E(("dt", k + n))).scale(q ** k)
        assert got == expected


def test_torus_form_coaction_grades_by_winding(torus_calc):
    cf = torus_calc.cf
    got = cf.right_coaction(("ver", ("w", 2), ("dt", 3)))
    assert got == E(tensor_index(("ver", ("w", 2), ("dt", 3)), ("t", 4)))


def test_necessity_torus_witness_at_opposite_windings(torus_calc):
    inst = torus_calc.instance
    calc, action = torus_classical_calculus(inst)
    defect = leibniz_defect(inst.crossed, calc, action, torus_calc.cf.h_calc, ("t", 1), ("t", -1))
    assert defect == hor(E(("dw", 0)), E(("t", 0)))
    report = necessity_dsigma(inst.crossed, calc, action, torus_calc.cf.h_calc, window=2)
    assert report.ok
    assert "Leibniz fails" in find_check(report, "necessity-witness").witness


def test_necessity_radford_witness_at_group_generator(radford_calc):
    inst = radford_calc.instance
    calc, action = radford_injected_calculus(inst)
    assert check_fodc(calc).ok
    defect = leibniz_defect(inst.crossed, calc, action, radford_calc.cf.h_calc, ("g", 1), ("g", 1))
    assert defect == hor(E(("omx", 0, 0)), E(("g", 0)))
    report = necessity_dsigma(inst.crossed, calc, action, radford_calc.cf.h_calc)
    assert report.ok
    assert "(g(1), g(1))" in find_check(report, "necessity-witness").witness


def test_necessity_vacuous_for_cocycle_killing_differential(radford_calc):
    inst = radford_calc.instance
    report = necessity_dsigma(
        inst.crossed, radford_calc.cf.b_calc, radford_calc.cf.b_action, radford_calc.cf.h_calc
    )
    assert report.ok
    assert "vacuous" in find_check(report, "necessity-witness").witness


def test_truncation_obstruction_vanishes_for_laurent_calculus(torus_calc):
    assert truncate_dc_degree2(torus_calc.cf.h_calc, window=2).max_degree == 1


def test_truncation_obstruction_vanishes_for_group_calculus():
    assert group_c2_instance("zero").graded.max_degree == 1


def test_zero_calculus_is_truncatable():
    h = build_cyclic_group_algebra(2)
    calc = zero_fodc(h.algebra)
    calc.hopf = h
    calc.right_coaction = lambda f: FreeVector.zero()
    calc.left_coaction = lambda f: FreeVector.zero()
    calc.algebra_coaction = h.comul
    assert truncate_dc_degree2(calc).max_degree == 1


@pytest.mark.parametrize(
    "build", [lambda: radford_calculus_instance(2, 2), lambda: torus_calculus_instance(theta_order=8, window=2)],
    ids=["radford", "torus-window-2"],
)
def test_higher_forms_rest_on_the_hypotheses_their_builders_checked(build):
    # build_higher_forms checks no base law of its own: d-equivariance of the
    # graded action is H-lin, d of the cocycle values is dsigma, and the
    # graded action is multiplicative by measure.multiplicative in degrees
    # (0, 0) and by the sandwich with a unit and measure.unit in (0, 1), (1, 0)
    cf = build().cf
    for report, identities in (
        (cf.hypotheses, ("H-lin", "dsigma", "twisted-bimodule.sandwich")),
        (cf.crossed.hypotheses, ("measure.unit", "measure.multiplicative")),
    ):
        for identity in identities:
            assert find_check(report, identity).status in ("pass", "window-verified"), identity


def test_higher_forms_pass_graded_checks(radford_calc):
    report = check_graded_dc(radford_calc.higher)
    assert report.ok
    assert all(c.status == "pass" for c in report.checks)


def test_higher_forms_pass_graded_checks_torus(torus_calc):
    report = check_graded_dc(torus_calc.higher, window=2)
    assert report.ok


def test_sign_in_degree_one_square(radford_calc):
    """The wedge of two mixed-degree generators carries the sign from
    commuting the structure leg past the base leg."""
    dc = radford_calc.higher
    ver_ix = ("gf", 0, ("h1", 0, 0), ("w1", 0, ("g", 0)))
    hor_ix = ("gf", 1, ("om", 0, 0), ("g", 0))
    left = dc.wedge(1, ver_ix, 1, hor_ix)
    assert not left.is_zero()
    # the only degree-2 component is base-degree 1: gamma legs commute with sign -1
    flipped = dc.wedge(1, hor_ix, 1, ver_ix)
    assert flipped.is_zero() or not (left == flipped)


def test_degree_zero_one_part_matches_first_order(radford_calc):
    report = compare_first_order(radford_calc.cf, radford_calc.higher)
    assert report.ok


def test_degree_zero_one_part_matches_first_order_torus(torus_calc):
    report = compare_first_order(torus_calc.cf, torus_calc.higher, window=2)
    assert report.ok


def test_torus_higher_forms_collapse_to_vertical(torus_calc):
    # zero base calculus: every positive degree is purely vertical
    basis2 = torus_calc.higher.basis(2, 2)
    assert basis2 == []  # structure calculus truncated above degree one
    basis1 = torus_calc.higher.basis(1, 1)
    assert all(ix[1] == 0 for ix in basis1)


def test_de_rham_c2_truncated():
    inst = group_c2_instance("zero")
    dims = de_rham_cohomology(inst.graded, 2)
    assert dims == [1, 1, 0]


def test_de_rham_c2_full_ideal_zero_calculus():
    inst = group_c2_instance("full")
    dims = de_rham_cohomology(inst.graded, 1)
    assert dims == [2, 0]


def test_de_rham_radford_crossed(radford_calc):
    # frozen from the first exact run; consistent with the product of the
    # component cohomologies (2,2) x (1,1)
    assert de_rham_cohomology(radford_calc.higher, 3) == [2, 4, 2, 0]


def test_smash_demo_classification_passes():
    demo = smash_demo_instance(8)
    report = classify_smash(demo.a_calc, demo.h_calc, demo.cleft, window=2, seed=7)
    assert report.ok
    for name in ("classification-(1)", "classification-(2)", "classification-(3)"):
        assert find_check(report, name).status == "window-verified"
    assert find_check(report, "torsion-free").status == "sampled"
    assert find_check(report, "comparison.intertwines-d").status == "window-verified"


def test_classify_smash_refuses_the_torus(torus_calc):
    demo = smash_demo_instance(8)
    with pytest.raises(ValueError, match="not a trivial extension"):
        classify_smash(demo.a_calc, torus_calc.cf.h_calc, torus_calc.instance.cleft, window=2)


def test_trivial_cocycle_crossed_calculus_reduces_to_smash_formulas():
    """With the trivial cocycle the assembled actions collapse to the
    plain semidirect formulas; the verifier checks this reduction."""
    from hopfcalc.crossed import Measure, build_crossed_product, trivial_cocycle
    from hopfcalc.fodc import IdealCalculusSpec, woronowicz_from_ideal
    from hopfcalc.hopf import AlgebraPresentation

    def ix(k):
        return ("y", k)

    def mult(i, j):
        k = i[1] + j[1]
        return E(ix(k)) if k < 2 else FreeVector.zero()

    b = AlgebraPresentation(
        basis=BasisFamily(indices=[ix(0), ix(1)]),
        mult=mult,
        unit=E(ix(0)),
    )
    h = build_cyclic_group_algebra(2)
    measure = Measure(
        act=lambda g, bb: E(bb, CycScalar.from_rational(-1 if (g[1] == 1 and bb[1] == 1) else 1))
    )
    smash = build_crossed_product(b, h, measure, trivial_cocycle(b, h))

    def dy_d(b_ix):
        return E(("dy", 0)) if b_ix[1] == 1 else FreeVector.zero()

    def truncated(n):
        return E(("dy", n)) if n < 2 else FreeVector.zero()

    def dy_right(f, a):
        # dy y = -y dy (forced by d(y^2) = 0); y dy y vanishes
        if a[1] == 0:
            return E(f)
        if f[1] == 0:
            return E(("dy", 1), CycScalar.from_rational(-1))
        return FreeVector.zero()

    b_calc = Fodc(
        algebra=b,
        forms=BasisFamily(indices=[("dy", 0), ("dy", 1)]),
        left_act=lambda a, f: truncated(a[1] + f[1]),
        right_act=dy_right,
        d=dy_d,
    )
    assert check_fodc(b_calc).ok
    h_calc = woronowicz_from_ideal(IdealCalculusSpec(hopf=h, ideal_gens=[]))
    cf = build_crossed_fodc(smash, b_calc, h_calc)
    report = verify_crossed_fodc(cf)
    assert report.ok
    assert find_check(report, "smash-reduction").status == "pass"


def test_wedge_sign_is_pinned_by_graded_leibniz(radford_calc):
    """Dropping the sign that commutes a structure leg past a base leg
    leaves d squared and associativity intact but breaks the graded
    Leibniz rule, so the checker genuinely pins the sign."""
    from hopfcalc.crossed_calc import GradedDc

    good = radford_calc.higher

    def unsigned_wedge(deg1, ix1, deg2, ix2):
        out = good.wedge(deg1, ix1, deg2, ix2)
        bdeg1 = 0 if deg1 == 0 else ix1[1]
        bdeg2 = 0 if deg2 == 0 else ix2[1]
        hdeg1 = deg1 - bdeg1
        if (hdeg1 * bdeg2) % 2 == 1:
            return out.scale(CycScalar.from_rational(-1))
        return out

    mutant = GradedDc(
        algebra=good.algebra,
        max_degree=good.max_degree,
        basis=good.basis,
        wedge=unsigned_wedge,
        d=good.d,
        hopf=good.hopf,
        right_coaction=good.right_coaction,
        left_coaction=good.left_coaction,
    )
    report = check_graded_dc(mutant)
    assert find_check(report, "graded-leibniz").status == "fail"
    assert find_check(report, "d-squared").status == "pass"
    assert find_check(report, "wedge-assoc").status == "pass"


def _replaced(good, **maps):
    """good with some of its maps replaced."""
    fields = {name: getattr(good, name) for name in type(good).__annotations__}
    return type(good)(**{**fields, **maps})


def _graded_verdicts(good, **maps):
    """(identity, status, witness) of check_graded_dc on good with some maps replaced."""
    report = check_graded_dc(_replaced(good, **maps))
    return [(c.identity, c.status, c.witness) for c in report.checks]


# A wedge entry of degree two doubled, a term of the differential dropped,
# and a degree-zero product with the unit doubled: three corrupted calculi.
WEDGE_ENTRY = (1, ("gf", 1, ("om", 0, 0), ("g", 0)), 1, ("gf", 0, ("h1", 0, 0), ("w1", 0, ("g", 1))))
D_ARGS = (0, ("@", ("h1", 0, 1), ("g", 1)))
UNIT_PRODUCT = (0, ("@", ("h1", 0, 0), ("g", 0)), 0, ("@", ("h1", 0, 1), ("g", 1)))


def _doubled_wedge_entry(good, args=WEDGE_ENTRY):
    def wedge(*at):
        out = good.wedge(*at)
        return out.scale(CycScalar.from_rational(2)) if at == args else out

    return {"wedge": wedge}


def _dropped_d_term(good):
    def d(*at):
        # drop the base-degree-one term of d(a), keeping its structure term
        out = good.d(*at)
        return FreeVector({k: c for k, c in out.terms.items() if k[1] == 0}) if at == D_ARGS else out

    return {"d": d}


def _doubled_unit_product(good):
    return _doubled_wedge_entry(good, UNIT_PRODUCT)


# Each sweep stops at its first failing item, so the witnesses below pin the
# order in which the sweeps enumerate their items, not only that they fail.


def test_corrupted_degree_two_wedge_entry_fails_associativity(radford_calc):
    good = radford_calc.higher
    assert not good.wedge(*WEDGE_ENTRY).is_zero()
    assert _graded_verdicts(good, **_doubled_wedge_entry(good)) == [
        ("d-squared", "pass", None),
        ("graded-leibniz", "fail", "(h1(0,1) (x) g(0)) ; gf(0,h1(0,0),w1(0,g(1)))"),
        ("wedge-assoc", "fail", "(h1(0,0) (x) g(1)) ; gf(1,om(0,0),g(0)) ; gf(0,h1(0,0),w1(0,g(1)))"),
        ("wedge-unit", "pass", None),
    ]


def test_corrupted_differential_fails_d_squared(radford_calc):
    good = radford_calc.higher
    assert len(good.d(*D_ARGS).terms) == 2
    assert _graded_verdicts(good, **_dropped_d_term(good)) == [
        ("d-squared", "fail", "(h1(0,1) (x) g(1))"),
        ("graded-leibniz", "fail", "(h1(0,0) (x) g(1)) ; (h1(0,1) (x) g(0))"),
        ("wedge-assoc", "pass", None),
        ("wedge-unit", "pass", None),
    ]


def test_corrupted_degree_zero_product_fails_wedge_unit(radford_calc):
    good = radford_calc.higher
    assert good.algebra.unit == E(UNIT_PRODUCT[1])
    assert _graded_verdicts(good, **_doubled_unit_product(good)) == [
        ("d-squared", "pass", None),
        ("graded-leibniz", "fail", "(h1(0,0) (x) g(0)) ; (h1(0,1) (x) g(1))"),
        ("wedge-assoc", "fail", "(h1(0,0) (x) g(0)) ; (h1(0,0) (x) g(0)) ; (h1(0,1) (x) g(1))"),
        ("wedge-unit", "fail", "(h1(0,1) (x) g(1))"),
    ]


def _leibniz_verdict(dc, window=None):
    check = find_check(check_graded_dc(dc, window), "graded-leibniz")
    return check.status, check.witness


@pytest.mark.parametrize("corruption", [None, _doubled_wedge_entry, _dropped_d_term, _doubled_unit_product])
def test_graded_leibniz_matches_the_per_item_loop_on_radford(radford_calc, corruption):
    good = radford_calc.higher
    dc = _replaced(good, **corruption(good)) if corruption else good
    hit = reference_graded_leibniz(dc)
    assert _leibniz_verdict(dc) == (("pass", None) if hit is None else ("fail", witness(*hit)))
    assert (hit is None) == (corruption is None)


def test_graded_leibniz_matches_the_per_item_loop_on_torus(torus_calc):
    dc = torus_calc.higher
    assert reference_graded_leibniz(dc, window=1) is None
    assert _leibniz_verdict(dc, window=1) == ("window-verified", None)


def test_truncation_raises_with_the_witness_the_instance_records():
    rc3 = radford_calculus_instance(3, 2)
    with pytest.raises(NotTruncatable) as raised:
        truncate_dc_degree2(rc3.cf.h_calc)
    assert raised.value.witness == rc3.truncation_witness
    assert rc3.truncation_witness in str(raised.value)
    assert issubclass(NotTruncatable, ValueError)


def test_three_fold_quotient_is_not_degree_two_truncatable():
    """With three group elements the quotient calculus has two classes and
    the antisymmetric cross terms survive, so no prolongation with
    vanishing degree two keeps the coproduct differentiable; the
    first-order pipeline still runs in full."""
    rc3 = radford_calculus_instance(3, 2)
    assert rc3.higher is None
    assert rc3.truncation_witness is not None
    assert verify_crossed_fodc(rc3.cf).ok
    # the necessity witness moves to the pair whose cocycle value is a^r
    inst = rc3.instance
    inj, inj_action = radford_injected_calculus(inst)
    defect = leibniz_defect(inst.crossed, inj, inj_action, rc3.cf.h_calc, ("g", 1), ("g", 2))
    assert defect == hor(E(("omx", 0, 0)), E(("g", 0)))
    vanishing = leibniz_defect(inst.crossed, inj, inj_action, rc3.cf.h_calc, ("g", 1), ("g", 1))
    assert vanishing.is_zero()


# -- hypothesis reports kept by the builders ---------------------------------

RADFORD_PARAMS = {"r": 2, "n": 2, "q_power": 1, "ideal": "zero"}


def test_hypothesis_suites_are_fresh_checks_of_the_same_instance():
    """Radford's twisted-module and twisted-calculus suites and torus's
    twisted-module suite return the reports that the builders kept; each
    equals, check for check, the check run again on the instance the
    suites verify, at its window."""
    from hopfcalc.examples import radford_suites, torus_suites

    rc = radford_calculus_instance(2, 2)
    suites = dict(radford_suites(RADFORD_PARAMS))
    cp = rc.instance.crossed
    fresh_module = check_twisted_module_algebra(cp.base, cp.hopf, cp.measure, cp.cocycle)
    _, fresh_calculus = check_sigma_twisted_module_calculus(rc.cf.b_calc, cp.hopf, cp.measure, cp.cocycle)
    for name, fresh in (("twisted-module", fresh_module), ("twisted-calculus", fresh_calculus)):
        got = suites[name](rc)
        assert got.checks
        assert got.as_dict() == fresh.as_dict()

    tc = torus_calculus_instance(8, 2)
    got = dict(torus_suites({"M": 8, "window": 2}))["twisted-module"](tc)
    cp = tc.instance.crossed
    assert got is cp.hypotheses
    assert got.checks
    assert got.as_dict() == check_twisted_module_algebra(cp.base, cp.hopf, cp.measure, cp.cocycle, window=2).as_dict()


def test_every_radford_suite_reports_the_same_when_run_twice():
    """A suite that returns a kept report must not extend it: the second
    run of every suite on the instance gives the report of the first."""
    from hopfcalc.examples import radford_suites

    rc = radford_calculus_instance(2, 2)
    suites = radford_suites(RADFORD_PARAMS)
    first = [(name, fn(rc).as_dict()) for name, fn in suites]
    assert first == [(name, fn(rc).as_dict()) for name, fn in suites]
