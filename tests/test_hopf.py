import pathlib

import pytest
from conftest import corrupt, find_check
from structure_text import render_structure_constants

from hopfcalc.hopf import (
    AlgebraPresentation,
    BasisFamily,
    NotInvertible,
    build_cyclic_group_algebra,
    build_laurent_hopf,
    build_radford,
    build_torus_comodule,
    check_comodule_algebra,
    check_hopf_axioms,
    convolution_inverse,
    monomial_unit,
    parse_basis_combination,
    parse_structure_constants,
    tensor_square_coalgebra,
    CoalgebraData,
)
from hopfcalc.linalg import FreeVector, LinOp, linear, tensor_index
from hopfcalc.scalars import CycScalar, root_of_unity

E = FreeVector.basis


def coalgebra_of(h):
    return CoalgebraData(comul=h.comul, counit=h.counit)


def test_group_algebra_c2():
    h = build_cyclic_group_algebra(2)
    assert len(h.algebra.basis.enumerate()) == 2
    assert h.antipode(("g", 1)) == E(("g", 1))
    assert check_hopf_axioms(h).ok


def test_group_algebra_c1_is_ground_field():
    h = build_cyclic_group_algebra(1)
    assert len(h.algebra.basis.enumerate()) == 1
    assert check_hopf_axioms(h).ok


def test_group_algebra_c4_counit_of_group_sum():
    h = build_cyclic_group_algebra(4)
    total = CycScalar.zero()
    for ix in h.algebra.basis.enumerate():
        total = total + h.counit(ix)
    assert total == 4
    assert h.algebra.mult(("g", 3), ("g", 2)) == E(("g", 1))
    assert h.antipode(("g", 1)) == E(("g", 3)) == h.antipode_inv(("g", 1))
    assert check_hopf_axioms(h).ok


def test_laurent_hopf():
    h = build_laurent_hopf()
    assert h.antipode(("t", 3)) == E(("t", -3))
    assert h.comul(("t", 0)) == E(tensor_index(("t", 0), ("t", 0)))
    assert h.algebra.mult(("t", 2), ("t", -2)) == h.algebra.unit
    report = check_hopf_axioms(h, window=3)
    assert report.ok
    assert find_check(report, "algebra.assoc").status == "window-verified"


def test_radford_basis_and_relations():
    q = root_of_unity(4)
    data = build_radford(2, 2, q)
    basis = data.hopf.algebra.basis.enumerate()
    assert len(basis) == 8
    assert data.hopf.counit(("ax", 0, 1)).is_zero()
    # x a = q a x as normal forms
    assert data.hopf.algebra.mult(("ax", 0, 1), ("ax", 1, 0)) == E(("ax", 1, 1), q)
    assert len(data.h1.basis.enumerate()) == 4


def test_radford_passes_all_hopf_axioms_exhaustively():
    data = build_radford(2, 2, root_of_unity(4))
    report = check_hopf_axioms(data.hopf)
    assert report.ok
    assert all(c.status == "pass" for c in report.checks)


def test_radford_with_identity_antipode_fails_at_x():
    data = build_radford(2, 2, root_of_unity(4))
    broken = data.hopf
    broken = type(broken)(
        algebra=broken.algebra,
        comul=broken.comul,
        counit=broken.counit,
        antipode=LinOp(lambda ix: E(ix), name="id"),
        antipode_inv=LinOp(lambda ix: E(ix), name="id"),
    )
    report = check_hopf_axioms(broken)
    bad = find_check(report, "hopf.antipode")
    assert bad.status == "fail"
    assert "ax(0,1)" in bad.witness


# k[C4] from sample-data: the unit u(0), g = u(1) and its inverse u(3)
ONE, G, G_INV = ("u", 0), ("u", 1), ("u", 3)


# One corrupted table entry breaks one side of a two-sided law at each basis
# element it reaches, while the other side holds there, so the law fails only
# if both sides are required:
# - 1 g != g, while g 1 = g;
# - the product g^-1 g breaks S(g) g at g, and g^-1 S(g^-1) at g^-1;
# - S^-1(g) breaks S^-1 S at g^-1, and S S^-1 at g.
@pytest.mark.parametrize(
    "identity, table, args, extra",
    [
        ("algebra.unit", lambda h: h.algebra.mult, (ONE, G), ONE),
        ("hopf.antipode", lambda h: h.algebra.mult, (G_INV, G), G),
        ("hopf.antipode-inverse", lambda h: h.antipode_inv.action, (G,), G),
    ],
)
def test_a_law_broken_on_one_side_only_fails(identity, table, args, extra):
    root = pathlib.Path(__file__).resolve().parents[1]
    h = parse_structure_constants((root / "sample-data" / "c4.hopf").read_text())
    corrupt(table(h), args, extra)
    check = find_check(check_hopf_axioms(h), identity)
    assert (check.status, check.witness) == ("fail", "u(1)")


def test_radford_rejects_non_primitive_root():
    with pytest.raises(ValueError):
        build_radford(2, 2, root_of_unity(4, 2))  # order 2, need order 4


def test_convolution_inverse_on_group_algebra_is_group_inverse():
    h = build_cyclic_group_algebra(4)
    identity = LinOp(lambda ix: E(ix))
    g = convolution_inverse(identity, coalgebra_of(h), h.algebra.basis.enumerate(), h.algebra)
    for k in range(4):
        assert g(("g", k)) == E(("g", (-k) % 4))


def test_convolution_inverse_zero_map_not_invertible():
    h = build_cyclic_group_algebra(2)
    zero = LinOp(lambda ix: FreeVector.zero())
    with pytest.raises(NotInvertible) as raised:
        convolution_inverse(zero, coalgebra_of(h), h.algebra.basis.enumerate(), h.algebra)
    assert raised.value.element == ("g", 0)
    assert issubclass(NotInvertible, ValueError)


def test_convolution_inverse_general_solver_on_radford():
    data = build_radford(2, 2, root_of_unity(4))
    h = data.hopf
    s = convolution_inverse(LinOp(lambda ix: E(ix)), coalgebra_of(h), h.algebra.basis.enumerate(), h.algebra)
    # the convolution inverse of the identity is the antipode
    for ix in h.algebra.basis.enumerate():
        assert s(ix) == h.antipode(ix)


def test_tensor_square_coalgebra_counit():
    h = build_cyclic_group_algebra(2)
    sq = tensor_square_coalgebra(h)
    ix = tensor_index(("g", 0), ("g", 1))
    assert sq.counit(ix).is_one()
    assert sq.comul(ix) == E(tensor_index(ix, ix))


def test_torus_comodule():
    theta = root_of_unity(8)
    torus = build_torus_comodule(theta)
    alg = torus.comodule.algebra
    # v u = e^{i theta} u v
    assert alg.mult(("uv", 0, 1), ("uv", 1, 0)) == E(("uv", 1, 1), theta)
    # rho(uv) = uv (x) 1
    uv = alg.mult(("uv", 1, 0), ("uv", 0, 1))
    assert linear(torus.comodule.coaction, uv) == uv.tensor(torus.comodule.hopf.algebra.unit)
    report = check_comodule_algebra(torus.comodule, window=3)
    assert report.ok
    assert find_check(report, "comodule.coinvariants").status == "window-verified"


def test_torus_coinvariant_powers_multiply_exactly():
    torus = build_torus_comodule(root_of_unity(8))
    for k in range(-3, 4):
        for l in range(-3, 4):
            lhs = linear(torus.comodule.algebra.mult, torus.base_embed(("w", k)), torus.base_embed(("w", l)))
            assert lhs == torus.base_embed(("w", k + l))


def test_torus_cleaving_inverse_via_solver():
    torus = build_torus_comodule(root_of_unity(8))
    g = convolution_inverse(
        torus.cleaving,
        coalgebra_of(torus.comodule.hopf),
        [("t", n) for n in range(-4, 5)],
        torus.comodule.algebra,
        window=4,
    )
    assert g(("t", 1)) == E(("uv", -1, 0))  # u^-1
    for n in range(-4, 5):
        assert g(("t", n)) == torus.cleaving_inv(("t", n))


def test_structure_constants_round_trip():
    h = build_cyclic_group_algebra(2)
    text = render_structure_constants(h, "k[C2]")
    back = parse_structure_constants(text)
    assert check_hopf_axioms(back).ok
    assert back.algebra.unit == E(("u", 0))
    assert render_structure_constants(back, "k[C2]") == text


def test_shipped_sample_data_is_the_rendered_c4():
    root = pathlib.Path(__file__).resolve().parents[1]
    text = (root / "sample-data" / "c4.hopf").read_text()
    assert render_structure_constants(build_cyclic_group_algebra(4), "k[C4]") == text


def test_structure_constants_radford_round_trip():
    data = build_radford(2, 2, root_of_unity(4))
    back = parse_structure_constants(render_structure_constants(data.hopf, "H(2,2,q)"))
    assert check_hopf_axioms(back).ok


def test_structure_constants_unknown_directive():
    with pytest.raises(ValueError, match="unknown directive"):
        parse_structure_constants("HOPF x\nDIM 1\nSCALAR_ORDER 1\nFROBENIUS 0 : 1\n")


def test_parse_basis_combination():
    basis = [("u", i) for i in range(4)]
    v = parse_basis_combination("1*0 - 1*1", basis, 1)
    assert v == E(("u", 0)) - E(("u", 1))
    w = parse_basis_combination("(1/2 + 3*z4^1)*2 + 3", basis, 4)
    expected = E(("u", 2)).scale(CycScalar.from_rational(1) / 2 + 3 * root_of_unity(4)) + E(("u", 3))
    assert w == expected
    with pytest.raises(ValueError, match="basis index 4 outside 0..3"):
        parse_basis_combination("1*0 - 1*4", basis, 4)
    with pytest.raises(ValueError, match=r"not in Q\(zeta_4\)"):
        parse_basis_combination("(z3)*1", basis, 4)
    assert parse_basis_combination("(z2)*1 + (1/3)*2", basis, 1) == E(("u", 2)).scale(
        CycScalar.from_rational(1) / 3
    ) - E(("u", 1))


def test_sweedler_computes_each_index_and_leg_count_once(monkeypatch):
    from hopfcalc.hopf import HopfData

    calls = []
    unmemoised = HopfData.sweedler

    def counted(self, ix, legs):
        calls.append((ix, legs))
        return unmemoised(self, ix, legs)

    monkeypatch.setattr(HopfData, "sweedler", counted)
    h = build_radford(2, 2, root_of_unity(4)).hopf
    keys = [(ix, legs) for ix in h.algebra.basis.enumerate() for legs in (2, 3)]
    for _ in range(3):
        for ix, legs in keys:
            assert h.sweedler(ix, legs) is h.sweedler(ix, legs)
    assert calls == keys


def test_spanned_family_is_finite_on_finite_parts():
    left = build_cyclic_group_algebra(2).algebra.basis
    right = build_cyclic_group_algebra(3).algebra.basis

    def pairs(w):
        return [tensor_index(i, j) for i in left.enumerate(w) for j in right.enumerate(w)]

    family = BasisFamily.spanned(pairs, left, right)
    assert family.is_finite
    assert family.indices == BasisFamily(indices=[tensor_index(i, j) for i in left.indices for j in right.indices]).indices
    assert family.enumerate() == family.enumerate(5) == family.indices


def test_spanned_family_keeps_the_window_enumeration_of_infinite_parts():
    finite = build_cyclic_group_algebra(2).algebra.basis
    laurent = build_laurent_hopf().algebra.basis

    def pairs(w):
        return [tensor_index(i, j) for i in finite.enumerate(w) for j in laurent.enumerate(w)]

    family = BasisFamily.spanned(pairs, finite, laurent)
    assert not family.is_finite
    assert family.enumerate(2) == BasisFamily(window_fn=pairs).enumerate(2)
    assert len(family.enumerate(2)) == 2 * 5
    with pytest.raises(ValueError):
        family.enumerate()


def test_coaction_legs_split_the_h_factor_in_order():
    data = build_radford(2, 2, root_of_unity(4))
    h = data.hopf
    for ix in h.algebra.basis.enumerate():
        value = h.comul(ix)
        for legs in (1, 2, 3):
            right, left = [], []
            for (_, first, second), c in value.terms.items():
                if legs == 1:
                    right.append((c, (first, second)))
                    left.append((c, (first, second)))
                    continue
                right.extend((c * c2, (first,) + tup) for c2, tup in h.sweedler(second, legs))
                left.extend((c * c2, tup + (second,)) for c2, tup in h.sweedler(first, legs))
            assert h.coaction_legs(value, legs) == right
            assert h.coaction_legs(value, legs, left=True) == left


@pytest.mark.parametrize("unit", [FreeVector.basis(("e", 0), 2), FreeVector.basis(("e", 0)) + FreeVector.basis(("e", 1))])
def test_only_a_basis_element_with_coefficient_one_is_a_monomial_unit(unit):
    algebra = AlgebraPresentation(basis=BasisFamily(indices=[("e", 0), ("e", 1)]), mult=None, unit=unit)
    with pytest.raises(ValueError, match="^base algebra needs a monomial unit$"):
        monomial_unit(algebra, "base algebra")
    algebra.unit = FreeVector.basis(("e", 1))
    assert monomial_unit(algebra, "base algebra") == ("e", 1)
