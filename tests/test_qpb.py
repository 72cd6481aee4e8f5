import pytest
from conftest import find_check

from hopfcalc.crossed import equivariant_section
from hopfcalc.crossed_calc import build_crossed_fodc, hor, ver
from hopfcalc.examples import (
    group_c2_instance,
    radford_calculus_instance,
    torus_calculus_instance,
)
from hopfcalc.fodc import Fodc, build_laurent_q_calculus, zero_fodc
from hopfcalc.hopf import BasisFamily
from hopfcalc.linalg import FreeVector, Subspace, tensor_index
from hopfcalc.qpb import (
    CoinvariantForms,
    Connection,
    VComodule,
    canonical_connection,
    check_atiyah_exact,
    coinvariant_forms,
    connection_form_bijection,
    covariant_derivative,
    tangent_and_fields,
    vertical_map,
)
from hopfcalc.scalars import CycScalar, root_of_unity

E = FreeVector.basis


@pytest.fixture(scope="module")
def radford(radford_calc_shared):
    rc = radford_calc_shared
    vd = vertical_map(rc.cf)
    return rc, vd


@pytest.fixture(scope="module")
def torus(torus_calc_shared):
    tc = torus_calc_shared
    vd = vertical_map(tc.cf, window=2)
    return tc, vd


def test_coinvariant_forms_of_group_calculus():
    inst = group_c2_instance("zero")
    coinv = coinvariant_forms(inst.calc)
    assert coinv.dim == 1
    assert coinv.report.ok
    # the surjection from the augmentation ideal hits the single coinvariant:
    # S(a) d(a) = -[a-1] (x) 1 on the shifted generator
    got = coinv.maurer_cartan(E(("g", 1)) - E(("g", 0)))
    lifted = coinv.lift(got)
    assert lifted == E(("w1", 0, ("g", 0)), CycScalar.from_rational(-1))


def test_coinvariant_forms_span_matches_quotient_dimension():
    # for the quotient construction the coinvariant forms biject with the
    # ideal quotient: compare ranks
    inst = group_c2_instance("zero")
    coinv = coinvariant_forms(inst.calc)
    assert find_check(coinv.report, "maurer-cartan.surjective").status == "pass"
    assert coinv.dim == 1  # dim of the augmentation quotient


def test_laurent_coinvariant_form(torus):
    tc, vd = torus
    assert vd.coinv.dim == 1
    only = vd.coinv.lift(E(("coh", 0)))
    assert only == E(("dt", -1))


def test_vertical_map_values(radford):
    rc, vd = radford
    # horizontal forms are killed
    for hx in (("g", 0), ("g", 1)):
        assert vd.ver(E(("hor", ("om", 0, 0), hx))).is_zero()
    # vertical forms land in the tensor target through the inverse pair
    got = vd.ver(E(("ver", ("h1", 0, 1), ("w1", 0, ("g", 1)))))
    assert not got.is_zero()
    assert vd.report.ok


def test_vertical_map_torus_shifts_the_grade(torus):
    tc, vd = torus
    got = vd.ver(E(("ver", ("w", 2), ("dt", 3))))
    assert got == E(tensor_index(tensor_index(("w", 2), ("t", 4)), ("coh", 0)))
    assert vd.report.ok
    assert all(c.status == "window-verified" for c in vd.report.checks)


def test_atiyah_exactness_radford_exact_ranks(radford):
    rc, vd = radford
    report = check_atiyah_exact(vd, higher=rc.higher, h_graded=rc.h_graded)
    assert report.ok
    assert "kernel dim 8, horizontal dim 8" in find_check(report, "atiyah.kernel-rank").witness
    assert find_check(report, "atiyah.degree-2.kernel-is-wedge").status == "pass"


def test_atiyah_exactness_torus_window(torus):
    tc, vd = torus
    report = check_atiyah_exact(vd, window=2)
    assert report.ok
    assert all(c.status == "window-verified" for c in report.checks)


def test_canonical_connection_radford(radford):
    rc, vd = radford
    conn, report = canonical_connection(vd)
    assert report.ok
    # c(1 (x) 1 (x) gamma) = 1 (x) gamma
    unit_pair = tensor_index(("h1", 0, 0), ("g", 0))
    got = conn.c(E(tensor_index(unit_pair, ("coh", 0))))
    assert got == ver(E(("h1", 0, 0)), vd.coinv.lift(E(("coh", 0))))


def test_canonical_connection_strong_identity(radford):
    rc, vd = radford
    conn, report = canonical_connection(vd)
    assert find_check(report, "connection.strong").status == "pass"
    # by hand: (Id - c ver) d(x (x) a) = d_B x (x) a
    d_val = rc.cf.d(tensor_index(("h1", 0, 1), ("g", 1)))
    got = d_val - conn.c(vd.ver(d_val))
    assert got == hor(E(("om", 0, 0)), E(("g", 1)))


def test_canonical_connection_torus(torus):
    tc, vd = torus
    conn, report = canonical_connection(vd, window=2)
    assert report.ok


def test_tangent_space_and_fields(radford):
    rc, vd = radford
    tangent, fields, report = tangent_and_fields(vd)
    assert report.ok
    assert len(tangent.labels) == 1
    only = fields[("tan", 0)]
    # vertical property and normalization
    assert only(E(("hor", ("om", 0, 0), ("g", 0)))).is_zero()
    lifted = ver(E(("h1", 0, 0)), vd.coinv.lift(E(("coh", 0))))
    assert only(lifted) == E(tensor_index(("h1", 0, 0), ("g", 0)))


def test_field_uniqueness_fails_without_the_lifted_coinvariant_forms(radford):
    # with no coinvariant labels only the horizontal forms remain, and they
    # span 8 of the 16 forms, so a field is no longer fixed by its values
    _, vd = radford
    fields = {name: getattr(vd, name) for name in type(vd).__annotations__}
    bare = type(vd)(**dict(fields, coinv=CoinvariantForms(vd.coinv.h_calc)))
    _, _, report = tangent_and_fields(bare)
    assert find_check(report, "field.unique").status == "fail"
    assert find_check(report, "field.unique").witness is not None
    assert report.checks[-1].identity == "field.unique"
    _, _, full = tangent_and_fields(vd)
    assert find_check(full, "field.unique").status == "pass"


def test_tangent_space_refused_when_coinvariants_grow(torus):
    tc, vd = torus
    from hopfcalc.qpb import VerticalData

    # a left coaction that makes every form coinvariant: the coinvariant
    # space then grows with the window and the dual basis must be refused
    h_calc = tc.cf.h_calc
    fat = Fodc(
        algebra=h_calc.algebra,
        forms=h_calc.forms,
        left_act=h_calc.left_act,
        right_act=h_calc.right_act,
        d=h_calc.d,
        hopf=h_calc.hopf,
        right_coaction=h_calc.right_coaction,
        left_coaction=lambda f: h_calc.hopf.algebra.unit.tensor(E(f)),
    )
    fat_coinv = coinvariant_forms(fat, window=2)
    assert fat_coinv.dim == 5
    vd_fat = VerticalData(cf=vd.cf, coinv=fat_coinv, ver=vd.ver, g=vd.g, report=vd.report)
    with pytest.raises(ValueError, match="grow"):
        tangent_and_fields(vd_fat, window=2)


def test_connection_form_bijection_roundtrips(radford):
    rc, vd = radford
    conn, _ = canonical_connection(vd)
    tangent, _, _ = tangent_and_fields(vd)
    phi, report = connection_form_bijection(vd, tangent, connection=conn)
    assert report.ok
    # canonical connection gives phi = sum x_j (x) (1 (x) x^j)
    assert phi.components[("tan", 0)] == ver(E(("h1", 0, 0)), vd.coinv.lift(E(("coh", 0))))
    back, report2 = connection_form_bijection(vd, tangent, form=phi)
    assert report2.ok
    for ix in vd.target_basis():
        assert back.c(E(ix)) == conn.c(E(ix))


def test_connection_form_bijection_rejects_invalid_input(radford):
    rc, vd = radford
    tangent, _, _ = tangent_and_fields(vd)
    broken = Connection(c=lambda v: FreeVector.zero())
    with pytest.raises(ValueError, match="fails"):
        connection_form_bijection(vd, tangent, connection=broken)


def test_covariant_derivative_two_dimensional_comodule(radford):
    rc, vd = radford
    V = VComodule(
        labels=[("v", 0), ("v", 1)],
        coaction=lambda v: E(tensor_index(v, ("g", 1 if v[1] == 0 else 0))),
    )
    data = covariant_derivative(vd, V)
    assert data.report.ok
    assert len(data.e_span.labels) == 8
    for name in (
        "derivative.left-leibniz",
        "derivative.right-leibniz",
        "derivative.sigma-bimodule",
        "derivative.sigma-unique",
        "derivative.via-connection",
    ):
        assert find_check(data.report, name).status == "pass"


def test_covariant_derivative_zero_base_calculus_gives_zero(radford):
    rc, vd = radford
    inst = rc.instance
    cf0 = build_crossed_fodc(inst.crossed, zero_fodc(inst.data.h1), rc.cf.h_calc)
    vd0 = vertical_map(cf0)
    V = VComodule(labels=[("v", 0)], coaction=lambda v: E(tensor_index(v, ("g", 0))))
    data = covariant_derivative(vd0, V)
    assert data.report.ok
    for el in data.e_span.labels:
        assert data.nabla(el).is_zero()


def test_equivariant_section_on_radford(radford):
    rc, vd = radford
    inst = rc.instance
    from hopfcalc.crossed import CleftData
    from hopfcalc.linalg import LinOp

    cleft = CleftData(
        total=inst.crossed.comodule,
        cleaving=LinOp(lambda g_ix: FreeVector.basis(tensor_index(("h1", 0, 0), g_ix))),
    )
    section, report = equivariant_section(cleft)
    assert report.ok
    assert all(c.status == "pass" for c in report.checks)


def test_equivariant_section_on_torus(torus):
    tc, vd = torus
    section, report = equivariant_section(tc.instance.cleft, window=2)
    assert report.ok


def test_atiyah_exactness_on_a_plain_smash_product():
    """Trivial cocycle case: the vertical sequence of the semidirect
    calculus on the sign action of the order-two group is exact."""
    from hopfcalc.crossed import Measure, build_crossed_product, trivial_cocycle
    from hopfcalc.fodc import IdealCalculusSpec, woronowicz_from_ideal
    from hopfcalc.hopf import AlgebraPresentation, build_cyclic_group_algebra
    from hopfcalc.linalg import LinOp

    def ix(k):
        return ("y", k)

    b = AlgebraPresentation(
        basis=BasisFamily(indices=[ix(0), ix(1)]),
        mult=lambda i, j: E(ix(i[1] + j[1])) if i[1] + j[1] < 2 else FreeVector.zero(),
        unit=E(ix(0)),
    )
    h = build_cyclic_group_algebra(2)
    measure = Measure(
        act=lambda g, bb: E(bb, CycScalar.from_rational(-1 if (g[1] == 1 and bb[1] == 1) else 1))
    )
    smash = build_crossed_product(b, h, measure, trivial_cocycle(b, h))

    def truncated(n):
        return E(("dy", n)) if n < 2 else FreeVector.zero()

    def dy_right(f, a):
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
        d=LinOp(lambda bx: E(("dy", 0)) if bx[1] == 1 else FreeVector.zero()),
    )
    h_calc = woronowicz_from_ideal(IdealCalculusSpec(hopf=h, ideal_gens=[]))
    cf = build_crossed_fodc(smash, b_calc, h_calc)
    vd = vertical_map(cf)
    report = check_atiyah_exact(vd)
    assert report.ok
    assert find_check(report, "atiyah.kernel-rank").witness == "kernel dim 4, horizontal dim 4"


def test_atiyah_degree_two_on_torus_window(torus):
    # the truncated structure calculus has no degree-two forms, so the
    # degree-two vertical sequence is the vacuous exact one on the window
    tc, vd = torus
    report = check_atiyah_exact(vd, higher=tc.higher, h_graded=tc.h_graded, window=2)
    assert report.ok
    assert "kernel dim 0, wedge dim 0" in find_check(report, "atiyah.degree-2.kernel-is-wedge").witness
