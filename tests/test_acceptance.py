"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every tolerance is zero: each assertion is a bit-exact comparison of
canonical forms over a cyclotomic field.  Run with ``pytest -s`` to see
one pass line per criterion.
"""

import json

import pytest
from conftest import find_check

from hopfcalc.cli import run as cli_run
from hopfcalc.crossed import check_hopf_galois
from hopfcalc.crossed_calc import (
    check_graded_dc,
    classify_smash,
    compare_first_order,
    de_rham_cohomology,
    hor,
    leibniz_defect,
    ver,
)
from hopfcalc.examples import (
    group_c2_instance,
    radford_calculus_instance,
    radford_injected_calculus,
    smash_demo_instance,
    torus_calculus_instance,
    torus_instance,
)
from hopfcalc.fodc import (
    Fodc,
    TwistedCalculusAction,
    sigma_forces_zero_differential,
)
from hopfcalc.hopf import BasisFamily, check_hopf_axioms
from hopfcalc.linalg import FreeVector, LinOp, tensor_index
from hopfcalc.qpb import (
    VComodule,
    canonical_connection,
    check_atiyah_exact,
    connection_form_bijection,
    covariant_derivative,
    tangent_and_fields,
    vertical_map,
)
from hopfcalc.scalars import CycScalar, root_of_unity

E = FreeVector.basis
WINDOW = 4


def passed(number, text):
    print(f"ACCEPTANCE PASS {number}: {text}")


@pytest.fixture(scope="module")
def radford(radford_calc_shared):
    rc = radford_calc_shared
    vd = vertical_map(rc.cf)
    return rc, vd


@pytest.fixture(scope="module")
def torus():
    return torus_calculus_instance(theta_order=8, window=WINDOW)


def test_criterion_01_radford_end_to_end(radford):
    rc, _ = radford
    inst = rc.instance

    report = check_hopf_axioms(inst.data.hopf)
    assert report.ok and all(c.status == "pass" for c in report.checks)

    # cocycle values: a^2 on the double generator, the unit elsewhere
    a_sq = E(("h1", 1, 0))
    one_b = inst.data.h1.unit
    for i in range(2):
        for j in range(2):
            expected = a_sq if i == j == 1 else one_b
            assert inst.crossed.cocycle.sigma(("g", i), ("g", j)) == expected

    from hopfcalc.crossed_calc import verify_crossed_fodc

    assert verify_crossed_fodc(rc.cf).ok

    al, be, ga, de = (CycScalar.from_rational(v) for v in (2, 3, 5, 7))
    e_, f_ = (CycScalar.from_rational(v) for v in (11, 13))
    chi = (
        E(("h1", 0, 0)).scale(al)
        + E(("h1", 0, 1)).scale(be)
        + E(("h1", 1, 0)).scale(ga)
        + E(("h1", 1, 1)).scale(de)
    )
    group_part = E(("g", 0)).scale(e_) + E(("g", 1)).scale(f_)
    got = rc.cf.d(chi.tensor(group_part))
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
    assert got == expected and len(got.terms) == 8
    passed(1, "Radford (2,2) end to end with the eight-term differential expansion")


def test_criterion_02_torus_closed_forms_and_forced_zero(torus):
    tc = torus
    inst = tc.instance
    th = inst.torus.theta_root
    assert th == root_of_unity(8)

    for k in range(-WINDOW, WINDOW + 1):
        for l in range(-WINDOW, WINDOW + 1):
            got = inst.crossed.measure.act(("t", k), ("w", l))
            assert got == E(("w", l), th ** (-k * l))

    for k in range(-WINDOW, WINDOW + 1):
        for s in range(-WINDOW, WINDOW + 1):
            got = inst.crossed.cocycle.sigma(("t", k), ("t", s))
            embedded = FreeVector.zero()
            for w_ix, c in got.terms.items():
                embedded = embedded + inst.torus.base_embed(w_ix).scale(c)
            assert embedded == inst.closed_sigma_in_total(k, s)

    sigma_values = [
        inst.crossed.cocycle.sigma(("t", k), ("t", s))
        for k in range(-WINDOW, WINDOW + 1)
        for s in range(-WINDOW, WINDOW + 1)
    ]
    report = sigma_forces_zero_differential(inst.crossed.base, sigma_values, window=WINDOW)
    assert report.ok
    passed(2, "torus measure and all four cocycle branches match; forced-zero argument executed to |l| <= 4")


def test_criterion_03_atiyah_exactness(radford, torus):
    rc, vd = radford
    report = check_atiyah_exact(vd, higher=rc.higher, h_graded=rc.h_graded)
    assert report.ok
    assert find_check(report, "atiyah.kernel-rank").witness == "kernel dim 8, horizontal dim 8"
    assert find_check(report, "atiyah.degree-2.kernel-is-wedge").status == "pass"

    tc = torus
    vd_t = vertical_map(tc.cf, window=3)
    report_t = check_atiyah_exact(vd_t, window=3)
    assert report_t.ok
    assert find_check(report_t, "atiyah.kernel-in-horizontal").status == "window-verified"
    assert find_check(report_t, "atiyah.horizontal-in-kernel").status == "window-verified"
    passed(3, "Atiyah exactness: exact ranks on Radford (incl. degree 2), double containment on the torus window")


def test_criterion_04_canonical_strong_connection(radford, torus):
    rc, vd = radford
    conn, report = canonical_connection(vd)
    assert report.ok
    assert find_check(report, "connection.splits-ver").status == "pass"
    assert find_check(report, "connection.strong").status == "pass"

    tc = torus
    vd_t = vertical_map(tc.cf, window=3)
    conn_t, report_t = canonical_connection(vd_t, window=3)
    assert report_t.ok
    passed(4, "canonical connection splits the vertical map and is strong, exactly")


def test_criterion_05_connection_form_bijection(radford):
    rc, vd = radford
    conn, _ = canonical_connection(vd)
    tangent, _, treport = tangent_and_fields(vd)
    assert treport.ok
    phi, forward = connection_form_bijection(vd, tangent, connection=conn)
    assert forward.ok
    assert find_check(forward, "roundtrip.connection").status == "pass"
    back, backward = connection_form_bijection(vd, tangent, form=phi)
    assert backward.ok
    assert find_check(backward, "roundtrip.form").status == "pass"
    for ix in vd.target_basis():
        assert back.c(E(ix)) == conn.c(E(ix))
    passed(5, "connection / connection-form round trips are exact identities on the full bases")


def test_criterion_06_covariant_derivative(radford):
    rc, vd = radford
    v = VComodule(
        labels=[("v", 0), ("v", 1)],
        coaction=lambda vx: E(tensor_index(vx, ("g", 1 if vx[1] == 0 else 0))),
    )
    data = covariant_derivative(vd, v)
    assert data.report.ok
    assert find_check(data.report, "derivative.left-leibniz").status == "pass"
    assert find_check(data.report, "derivative.right-leibniz").status == "pass"
    passed(6, "covariant derivative and its braiding satisfy both Leibniz laws on a 2-dim comodule")


def test_criterion_07_hopf_galois(radford):
    rc, _ = radford
    result = check_hopf_galois(rc.instance.crossed.comodule)
    assert result.report.ok
    assert result.bijective and result.rank == 16
    passed(7, "Galois map of the Radford crossed product is bijective with rank 16")


def test_criterion_08_necessity_witnesses(radford, torus):
    rc, _ = radford
    inst = rc.instance
    inj, inj_action = radford_injected_calculus(inst)
    defect = leibniz_defect(inst.crossed, inj, inj_action, rc.cf.h_calc, ("g", 1), ("g", 1))
    assert defect == hor(E(("omx", 0, 0)), E(("g", 0)))

    tc = torus
    th = tc.instance.torus.theta_root

    def dd(ix):
        l = ix[1]
        if l == 0:
            return FreeVector.zero()
        return FreeVector({("dw", l - 1): CycScalar.from_rational(l)})

    classical = Fodc(
        algebra=tc.instance.crossed.base,
        forms=BasisFamily(window_fn=lambda w: [("dw", k) for k in range(-w, w + 1)]),
        left_act=lambda a, f: E(("dw", a[1] + f[1])),
        right_act=lambda f, a: E(("dw", a[1] + f[1])),
        d=LinOp(dd),
    )
    action = TwistedCalculusAction(act=lambda t, f: E(f, th ** (-t[1] * (f[1] + 1))))
    defect_t = leibniz_defect(
        tc.instance.crossed, classical, action, tc.cf.h_calc, ("t", 1), ("t", -1)
    )
    assert defect_t == hor(E(("dw", 0)), E(("t", 0)))
    passed(8, "nonzero differentials of cocycle values produce concrete Leibniz failures at the stated pairs")


def test_criterion_09_higher_forms(radford):
    rc, _ = radford
    report = check_graded_dc(rc.higher)
    assert report.ok
    for name in ("d-squared", "graded-leibniz", "wedge-assoc"):
        assert find_check(report, name).status == "pass"
    comparison = compare_first_order(rc.cf, rc.higher)
    assert comparison.ok
    assert all(c.status == "pass" for c in comparison.checks)
    passed(9, "higher forms: d squared, graded Leibniz, associativity; degree <= 1 part equals the first-order maps")


def test_criterion_10_smash_classification(torus):
    demo = smash_demo_instance(8)
    result = classify_smash(demo.a_calc, demo.h_calc, demo.cleft, window=2, seed=7)
    assert result.ok
    for name in ("classification-(1)", "classification-(2)", "classification-(3)"):
        assert find_check(result.report, name).status == "window-verified"
    assert find_check(result.report, "comparison.intertwines-d").status == "window-verified"

    tc = torus
    with pytest.raises(ValueError, match="not a trivial extension"):
        classify_smash(demo.a_calc, tc.cf.h_calc, tc.instance.cleft, window=2)
    passed(10, "smash demo passes the three classification conditions; the torus is refused")


def test_criterion_11_desk_scale_cohomology():
    inst = group_c2_instance("zero")
    dims = de_rham_cohomology(inst.graded, 2)
    assert dims[0] == 1
    passed(11, "H0 of the order-two group calculus has dimension 1 by exact rank")


def test_criterion_12_deterministic_reports(capsys):
    argv = ["verify", "radford", "--r", "2", "--n", "2", "--ideal", "zero", "--seed", "7"]
    code1 = cli_run(argv)
    out1 = capsys.readouterr().out
    code2 = cli_run(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["ok"] is True
    passed(12, "two runs of the full Radford verification emit byte-identical reports")
