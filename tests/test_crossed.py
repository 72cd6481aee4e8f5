import pytest
from conftest import find_check

import hopfcalc.crossed
from hopfcalc.crossed import (
    CleftData,
    Cocycle,
    Measure,
    build_crossed_product,
    check_cleft_derivation,
    check_hopf_galois,
    check_twisted_module_algebra,
    cleft_to_crossed,
    trivial_cocycle,
)
from hopfcalc.examples import radford_instance, torus_calculus_instance, torus_instance
from hopfcalc.hopf import (
    AlgebraPresentation,
    BasisFamily,
    CoalgebraData,
    CoinvariantFamily,
    ComoduleAlgebra,
    build_cyclic_group_algebra,
    check_comodule_algebra,
    convolution_inverse,
)
from hopfcalc.linalg import FreeVector, first_non_associative, linear, tensor_index
from hopfcalc.report import CheckReport
from hopfcalc.scalars import CycScalar, root_of_unity

E = FreeVector.basis


def dual_numbers():
    """k[y]/(y^2) with the sign action of C2: a module algebra, no twist."""

    def ix(k):
        return ("y", k)

    def mult(i, j):
        k = i[1] + j[1]
        return E(ix(k)) if k < 2 else FreeVector.zero()

    return AlgebraPresentation(
        basis=BasisFamily(indices=[ix(0), ix(1)]),
        mult=mult,
        unit=E(ix(0)),
    )


def sign_measure():
    def act(g_ix, b_ix):
        sign = -1 if (g_ix[1] == 1 and b_ix[1] == 1) else 1
        return E(b_ix, CycScalar.from_rational(sign))

    return Measure(act=act)


def test_trivial_cocycle_module_algebra_passes():
    b = dual_numbers()
    h = build_cyclic_group_algebra(2)
    report = check_twisted_module_algebra(b, h, sign_measure(), trivial_cocycle(b, h))
    assert report.ok
    assert all(c.status == "pass" for c in report.checks)


def test_radford_twisted_module_algebra_passes_exhaustively():
    inst = radford_instance(2, 2)
    cp = inst.crossed
    report = check_twisted_module_algebra(cp.base, cp.hopf, cp.measure, cp.cocycle)
    assert report.ok


def test_broken_measure_is_refused_with_identity():
    b = dual_numbers()
    h = build_cyclic_group_algebra(2)
    bad = Measure(act=lambda g, bb: E(bb, CycScalar.from_rational(2)))
    with pytest.raises(ValueError, match="measure"):
        build_crossed_product(b, h, bad, trivial_cocycle(b, h))


def test_smash_product_multiplication_formula():
    b = dual_numbers()
    h = build_cyclic_group_algebra(2)
    smash = build_crossed_product(b, h, sign_measure(), trivial_cocycle(b, h))
    # (y (x) g) (y (x) 1) = y (g.y) (x) g = -y^2 (x) g = 0
    assert smash.algebra.mult(tensor_index(("y", 1), ("g", 1)), tensor_index(("y", 1), ("g", 0))).is_zero()
    # (1 (x) g)(y (x) 1) = (g.y) (x) g = -y (x) g
    got = smash.algebra.mult(tensor_index(("y", 0), ("g", 1)), tensor_index(("y", 1), ("g", 0)))
    assert got == E(tensor_index(("y", 1), ("g", 1)), CycScalar.from_rational(-1))


def test_radford_group_like_square_hits_the_cocycle():
    inst = radford_instance(2, 2)
    one_h1 = ("h1", 0, 0)
    got = inst.crossed.algebra.mult(
        tensor_index(one_h1, ("g", 1)), tensor_index(one_h1, ("g", 1))
    )
    assert got == E(tensor_index(("h1", 1, 0), ("g", 0)))  # a^2 (x) 1


def test_crossed_unit_is_neutral():
    inst = radford_instance(2, 2)
    for ix in inst.crossed.algebra.basis.enumerate():
        assert linear(inst.crossed.algebra.mult, ix, inst.crossed.algebra.unit) == E(ix)
        assert linear(inst.crossed.algebra.mult, inst.crossed.algebra.unit, ix) == E(ix)


def test_radford_crossed_product_is_isomorphic_to_the_full_hopf_algebra():
    """Independent oracle for the crossed multiplication: transport along
    b (x) g_i -> b a^i and compare against the normal-form product."""
    inst = radford_instance(2, 2)
    full = inst.data.hopf.algebra
    basis = inst.crossed.algebra.basis.enumerate()
    # bijectivity: the images of the 8 basis pairs span an 8-dim space
    from hopfcalc.linalg import Subspace

    assert Subspace([inst.to_full(E(ix)) for ix in basis]).dim == 8
    for i in basis:
        for j in basis:
            lhs = inst.to_full(inst.crossed.algebra.mult(i, j))
            rhs = linear(full.mult, inst.to_full(E(i)), inst.to_full(E(j)))
            assert lhs == rhs


def test_radford_crossed_comodule_and_coinvariants():
    inst = radford_instance(2, 2)
    report = check_comodule_algebra(inst.crossed.comodule)
    assert report.ok
    # the coinvariants, computed as the kernel of rho - id (x) 1, coincide with B (x) 1
    from hopfcalc.linalg import LinearSolver, Subspace

    m, unit_h = inst.crossed.comodule, inst.crossed.hopf.algebra.unit
    lhs = LinearSolver(lambda ix: m.coaction(ix) - E(ix).tensor(unit_h), m.algebra.basis.enumerate()).kernel()
    assert lhs.dim == 4
    rhs = Subspace(
        [E(b).tensor(inst.crossed.hopf.algebra.unit) for b in inst.data.h1.basis.enumerate()]
    )
    assert lhs == rhs


def test_canonical_cleaving_inverse_formula():
    """The convolution inverse of h -> 1 (x) h is
    sigma^-1(S(h_2) (x) h_3) (x) S(h_1), reproduced by the solver."""
    inst = radford_instance(2, 2)
    h = inst.crossed.hopf
    crossed_alg = inst.crossed.algebra

    got = convolution_inverse(
        lambda g_ix: FreeVector.basis(tensor_index(("h1", 0, 0), g_ix)),
        CoalgebraData(comul=h.comul, counit=h.counit),
        h.algebra.basis.enumerate(),
        crossed_alg,
    )
    for g_ix in h.algebra.basis.enumerate():
        expected = FreeVector.zero()
        for c, (h1, h2, h3) in h.sweedler(g_ix, 3):
            s_h1 = h.antipode(h1)
            s_h2 = h.antipode(h2)
            inv_part = linear(inst.crossed.cocycle.sigma_inv, s_h2, E(h3))
            expected = expected + inv_part.tensor(s_h1).scale(c)
        assert got(g_ix) == expected


def test_torus_cleft_derivation_matches_closed_forms_on_window(torus_calc_shared):
    inst = torus_calc_shared.instance
    torus = inst.torus
    for k in range(-3, 4):
        for l in range(-3, 4):
            derived = inst.crossed.measure.act(("t", k), ("w", l))
            assert derived == inst.closed_measure(k, l)
    for k in range(-3, 4):
        for s in range(-3, 4):
            got = inst.crossed.cocycle.sigma(("t", k), ("t", s))
            embedded = FreeVector.zero()
            for w_ix, c in got.terms.items():
                embedded = embedded + torus.base_embed(w_ix).scale(c)
            assert embedded == inst.closed_sigma_in_total(k, s)


def test_the_torus_associativity_probe_covers_its_whole_window(monkeypatch):
    # exact on the window: every element of it, not a stride through it
    swept = []

    def recording(xs, ys, zs, *maps):
        swept.append((xs, ys, zs))
        return first_non_associative(xs, ys, zs, *maps)

    monkeypatch.setattr(hopfcalc.crossed, "first_non_associative", recording)
    inst = torus_instance(8, 2)
    window = inst.crossed.algebra.basis.enumerate(hopfcalc.crossed._VERIFY_WINDOW)
    assert len(window) == 25
    assert swept == [(window, window, window)]


# a builder runs only the checks whose failure refuses what it builds; the
# derivation checks of the cleft construction belong to a suite, and every
# check ends in CheckReport.add
def test_building_the_torus_runs_no_derivation_check(monkeypatch):
    seen = []
    add = CheckReport.add

    def recording(report, identity, *args, **kwargs):
        seen.append(identity)
        return add(report, identity, *args, **kwargs)

    monkeypatch.setattr(CheckReport, "add", recording)
    torus_calculus_instance(8, 2)
    assert "twisted-module" in seen
    assert [i for i in seen if i.startswith(("theta.", "cleaving."))] == []


def test_torus_theta_is_an_isomorphism_on_window(torus_calc_shared):
    inst = torus_calc_shared.instance
    report = check_cleft_derivation(inst.cleft, inst.crossed, inst.theta, inst.theta_inv, window=3)
    assert report.ok
    for check in ("theta.left-inverse", "theta.right-inverse", "theta.algebra-map", "theta.colinear"):
        assert find_check(report, check).status == "window-verified"


def test_hopf_galois_on_radford_crossed_product():
    inst = radford_instance(2, 2)
    result = check_hopf_galois(inst.crossed.comodule)
    assert result.report.ok
    assert result.bijective
    assert result.rank == 16 and result.balanced_dim == 16 and result.target_dim == 16


def test_hopf_galois_fails_for_trivial_coaction():
    h = build_cyclic_group_algebra(2)
    b = dual_numbers()
    trivial = ComoduleAlgebra(
        algebra=b,
        hopf=h,
        coaction=lambda ix: E(ix).tensor(h.algebra.unit),
        coinvariants=CoinvariantFamily(algebra=b, embed=lambda ix: E(ix)),
    )
    result = check_hopf_galois(trivial)
    assert not result.bijective
    assert result.rank < result.target_dim


def test_hopf_galois_group_algebra_over_itself():
    h = build_cyclic_group_algebra(2)
    ground = AlgebraPresentation(
        basis=BasisFamily(indices=[("k", 0)]),
        mult=lambda i, j: E(("k", 0)),
        unit=E(("k", 0)),
    )
    m = ComoduleAlgebra(
        algebra=h.algebra,
        hopf=h,
        coaction=h.comul,
        coinvariants=CoinvariantFamily(algebra=ground, embed=lambda ix: h.algebra.unit),
    )
    result = check_hopf_galois(m)
    assert result.bijective and result.rank == 4


def test_canonical_cleaving_reproduces_the_input_measure(torus_calc_shared):
    """Deriving the measure from the canonical cleaving h -> 1 (x) h of a
    built crossed product gives back the measure it was built from."""
    inst = torus_calc_shared.instance
    crossed = inst.crossed
    h = crossed.hopf
    for k in range(-2, 3):
        for l in range(-2, 3):
            j_val = crossed.base.unit.tensor(E(("t", k)))
            j_inv_val = FreeVector.zero()
            for c, (h1, h2, h3) in h.sweedler(("t", k), 3):
                inv_part = linear(crossed.cocycle.sigma_inv, h.antipode(h2), h3)
                j_inv_val = j_inv_val + inv_part.tensor(h.antipode(h1)).scale(c)
            embedded = E(("w", l)).tensor(h.algebra.unit)
            derived = linear(crossed.algebra.mult, linear(crossed.algebra.mult, j_val, embedded), j_inv_val)
            expected = crossed.measure.act(("t", k), ("w", l)).tensor(h.algebra.unit)
            assert derived == expected


def test_canonical_cleaving_reproduces_the_input_cocycle(torus_calc_shared):
    inst = torus_calc_shared.instance
    crossed = inst.crossed
    h = crossed.hopf

    def canonical_j_inv(hx):
        out = FreeVector.zero()
        for c, (h1, h2, h3) in h.sweedler(hx, 3):
            inv_part = linear(crossed.cocycle.sigma_inv, h.antipode(h2), h3)
            out = out + inv_part.tensor(h.antipode(h1)).scale(c)
        return out

    for k in range(-2, 3):
        for s in range(-2, 3):
            j_k = crossed.base.unit.tensor(E(("t", k)))
            j_s = crossed.base.unit.tensor(E(("t", s)))
            derived = linear(crossed.algebra.mult, linear(crossed.algebra.mult, j_k, j_s), canonical_j_inv(("t", k + s)))
            expected = crossed.cocycle.sigma(("t", k), ("t", s)).tensor(h.algebra.unit)
            assert derived == expected


def test_other_primitive_root_gives_a_valid_instance():
    q = root_of_unity(4, 3)
    inst = radford_instance(2, 2, q)
    from hopfcalc.hopf import check_hopf_axioms

    assert check_hopf_axioms(inst.data.hopf).ok
    cp = inst.crossed
    report = check_twisted_module_algebra(cp.base, cp.hopf, cp.measure, cp.cocycle)
    assert report.ok


def test_crossed_decomposition_is_also_a_coalgebra_map():
    """The algebra isomorphism b (x) g_i -> b a^i also intertwines the
    tensor coalgebra structure of the decomposition with the coproduct
    of the big Hopf algebra, because the component is a Hopf subalgebra."""
    from hopfcalc.linalg import LinearSolver

    inst = radford_instance(2, 2)
    data = inst.data
    full = data.hopf
    h1_labels = data.h1.basis.enumerate()
    h1_solver = LinearSolver(data.h1_embed, h1_labels)

    def h1_comul(b_ix):
        """Coproduct of a component element, with both legs expressed in
        the component presentation."""
        out = FreeVector.zero()
        for pair_ix, c in linear(full.comul, data.h1_embed(b_ix)).terms.items():
            _, left, right = pair_ix
            lb = h1_solver.solve(FreeVector.basis(left))
            rb = h1_solver.solve(FreeVector.basis(right))
            assert not isinstance(lb, type(None))
            out = out + lb.tensor(rb).scale(c)
        return out

    def tensor_comul(pair_ix):
        _, b_ix, g_ix = pair_ix
        out = FreeVector.zero()
        for pp, c in h1_comul(b_ix).terms.items():
            _, b1, b2 = pp
            out = out + FreeVector.basis(
                tensor_index(tensor_index(b1, g_ix), tensor_index(b2, g_ix))
            ).scale(c)
        return out

    square = None
    for pair_ix in inst.crossed.algebra.basis.enumerate():
        lhs = linear(full.comul, inst.to_full(FreeVector.basis(pair_ix)))
        rhs = FreeVector.zero()
        for pp, c in tensor_comul(pair_ix).terms.items():
            _, left_pair, right_pair = pp
            rhs = rhs + inst.to_full(FreeVector.basis(left_pair)).tensor(
                inst.to_full(FreeVector.basis(right_pair))
            ).scale(c)
        assert lhs == rhs
