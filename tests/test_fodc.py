import pytest
from conftest import find_check

from hopfcalc.crossed import Measure, trivial_cocycle
from hopfcalc.examples import radford_base_calculus, radford_instance, torus_instance
from hopfcalc.fodc import (
    Fodc,
    IdealCalculusSpec,
    build_laurent_q_calculus,
    check_fodc,
    check_sigma_twisted_module_calculus,
    sigma_forces_zero_differential,
    woronowicz_from_ideal,
    zero_fodc,
)
from hopfcalc.hopf import (
    AlgebraPresentation,
    BasisFamily,
    build_cyclic_group_algebra,
    build_radford,
)
from hopfcalc.linalg import FreeVector, LinearSolver, Subspace, tensor_index
from hopfcalc.scalars import CycScalar, root_of_unity

E = FreeVector.basis


def c2_universal_ideal_calculus():
    h = build_cyclic_group_algebra(2)
    return h, woronowicz_from_ideal(IdealCalculusSpec(hopf=h, ideal_gens=[]))


def test_c2_zero_ideal_calculus():
    h, calc = c2_universal_ideal_calculus()
    # quotient of the augmentation ideal is one-dimensional: class of (g - 1)
    assert len(calc.forms.enumerate()) == 2
    # d(g) carries the class of (g - 1) tensored with g
    assert calc.d(("g", 1)) == E(("w1", 0, ("g", 1)))
    assert calc.d(("g", 0)).is_zero()
    report = check_fodc(calc)
    assert report.ok
    assert calc.bicovariant and calc.covariance_note == ""


def test_c2_zero_ideal_left_coaction_on_group_likes():
    _, calc = c2_universal_ideal_calculus()
    for hx in (("g", 0), ("g", 1)):
        form = ("w1", 0, hx)
        assert calc.left_coaction(form) == E(tensor_index(hx, form))


def test_c2_full_ideal_gives_zero_calculus():
    h = build_cyclic_group_algebra(2)
    gen = E(("g", 1)) - E(("g", 0))
    calc = woronowicz_from_ideal(IdealCalculusSpec(hopf=h, ideal_gens=[gen]))
    assert calc.forms.enumerate() == []
    assert check_fodc(calc).ok


def test_ideal_generator_outside_augmentation_ideal_is_an_error():
    h = build_cyclic_group_algebra(2)
    with pytest.raises(ValueError, match="counit"):
        woronowicz_from_ideal(IdealCalculusSpec(hopf=h, ideal_gens=[E(("g", 1))]))


def test_c2_differential_kernel_dimension():
    # frozen oracle: eliminating the 2x2 matrix of d by hand leaves rank 1
    h, calc = c2_universal_ideal_calculus()
    solver = LinearSolver(calc.d, h.algebra.basis.enumerate())
    kernel, image = solver.kernel(), Subspace(solver.vectors.values())
    assert kernel.dim == 1 and image.dim == 1
    assert kernel.contains(h.algebra.unit)


def test_taft_ideal_without_adjoint_stability_is_right_covariant_only():
    data = build_radford(1, 2, root_of_unity(2))
    calc = woronowicz_from_ideal(IdealCalculusSpec(hopf=data.hopf, ideal_gens=[E(("ax", 0, 1))]))
    assert calc.left_coaction is None
    assert "right-covariant-only" in calc.covariance_note
    assert check_fodc(calc).ok


def test_laurent_q_calculus_against_difference_quotient():
    q = root_of_unity(8)
    calc = build_laurent_q_calculus(q)
    one = CycScalar.one(8)
    # oracle: d f = (f(qt) - f(t)) / (t (q-1)) dt, evaluated on monomials
    for m in range(-4, 5):
        expected = ((q ** m - one) / (q - one))
        assert calc.d(("t", m)) == FreeVector({("dt", m - 1): expected})
    assert calc.d(("t", 2)) == E(("dt", 1), one + q)
    assert calc.d(("t", 0)).is_zero()


def test_laurent_q_calculus_coactions_and_axioms():
    calc = build_laurent_q_calculus(root_of_unity(8))
    assert calc.right_coaction(("dt", 3)) == E(tensor_index(("dt", 3), ("t", 4)))
    report = check_fodc(calc, window=3)
    assert report.ok
    assert all(c.status == "window-verified" for c in report.checks)


def test_laurent_q_calculus_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        build_laurent_q_calculus(CycScalar.one())
    with pytest.raises(ValueError):
        build_laurent_q_calculus(CycScalar.from_rational(-1))
    with pytest.raises(ValueError):
        build_laurent_q_calculus(CycScalar.zero(4))


def test_corrupted_right_action_fails_bimodule_law_with_witness():
    good = build_laurent_q_calculus(root_of_unity(8))
    q = root_of_unity(8)

    def bad_right(f_ix, a_ix):
        k = a_ix[1]
        return E(("dt", f_ix[1] + k), q ** (k * k))

    bad = Fodc(
        algebra=good.algebra,
        forms=good.forms,
        left_act=good.left_act,
        right_act=bad_right,
        d=good.d,
    )
    report = check_fodc(bad, window=2)
    failed = find_check(report, "bimodule.right-assoc")
    assert failed.status == "fail"
    assert failed.witness


def test_zero_calculus_passes_every_check():
    h = build_cyclic_group_algebra(2)
    report = check_fodc(zero_fodc(h.algebra))
    assert report.ok


def test_radford_base_calculus_is_a_twisted_module_calculus():
    inst = radford_instance(2, 2)
    calc = radford_base_calculus(inst)
    assert check_fodc(calc).ok
    action, report = check_sigma_twisted_module_calculus(
        calc, inst.crossed.hopf, inst.crossed.measure, inst.crossed.cocycle
    )
    assert report.ok
    # d kills the cocycle values because d(a^r) = 0
    assert find_check(report, "dsigma").status == "pass"
    # derived action is diagonal: g.(dx) = q^(M-1) dx on the generator form
    q = inst.data.q
    assert action.act(("g", 1), ("om", 0, 0)) == E(("om", 0, 0), q ** (inst.data.m - 1))


def test_zero_base_calculus_trivially_twisted():
    inst = radford_instance(2, 2)
    calc = zero_fodc(inst.data.h1)
    action, report = check_sigma_twisted_module_calculus(
        calc, inst.crossed.hopf, inst.crossed.measure, inst.crossed.cocycle
    )
    assert report.ok


def test_incompatible_action_data_is_an_error_with_conflicting_presentations():
    """On the truncated calculus of k[y]/(y^3), an action table mixing the
    unit into y is inconsistent across the two presentations of y dy."""

    def ix(k):
        return ("y", k)

    def mult(i, j):
        k = i[1] + j[1]
        return E(ix(k)) if k < 3 else FreeVector.zero()

    b = AlgebraPresentation(
        basis=BasisFamily(indices=[ix(0), ix(1), ix(2)]),
        mult=mult,
        unit=E(ix(0)),
    )
    h = build_cyclic_group_algebra(2)

    def act(g_ix, b_ix):
        if g_ix[1] == 0 or b_ix[1] == 0:
            return E(b_ix)
        if b_ix[1] == 1:
            return E(ix(0)) - E(ix(1))
        return E(ix(2))

    measure = Measure(act=act)

    def d_ix(b_ix):
        k = b_ix[1]
        if k == 0:
            return FreeVector.zero()
        return FreeVector({("dy", k - 1): CycScalar.from_rational(k)})

    def truncated(n):
        return E(("dy", n)) if n < 2 else FreeVector.zero()

    calc = Fodc(
        algebra=b,
        forms=BasisFamily(indices=[("dy", 0), ("dy", 1)]),
        left_act=lambda a, f: truncated(a[1] + f[1]),
        right_act=lambda f, a: truncated(a[1] + f[1]),
        d=d_ix,
    )
    assert check_fodc(calc).ok
    with pytest.raises(ValueError, match="not well-defined"):
        check_sigma_twisted_module_calculus(calc, h, measure, trivial_cocycle(b, h))


def test_torus_forced_zero_differential(torus_calc_shared):
    inst = torus_calc_shared.instance
    sigma_values = [
        inst.crossed.cocycle.sigma(("t", k), ("t", s))
        for k in range(-3, 4)
        for s in range(-3, 4)
    ]
    report = sigma_forces_zero_differential(inst.crossed.base, sigma_values, window=3)
    assert report.ok
    assert find_check(report, "sigma-forces-zero").status == "window-verified"


def test_forced_zero_needs_the_cocycle_relations(torus_calc_shared):
    # without the cocycle relations nothing forces the differentials to vanish
    inst = torus_calc_shared.instance
    report = sigma_forces_zero_differential(inst.crossed.base, [], window=2)
    assert not report.ok


def test_forced_zero_refuses_a_unit_outside_the_window():
    # the multiples e_p . rel . e_q by window elements hold the relation
    # itself and its one-sided multiples only when the unit is among them
    base = AlgebraPresentation(
        basis=BasisFamily(window_fn=lambda w: [("s", k) for k in range(1, w + 1)]),
        mult=lambda i, j: E(("s", i[1] + j[1])),
        unit=E(("s", 0)),
    )
    with pytest.raises(ValueError, match=r"needs the unit s\(0\) inside window 2"):
        sigma_forces_zero_differential(base, [], window=2)


def test_parse_ideal_generators_feeds_the_quotient():
    from hopfcalc.fodc import parse_ideal_generators

    h = build_cyclic_group_algebra(2)
    gens = parse_ideal_generators("# the full augmentation ideal\n1*1 - 1*0\n", h)
    calc = woronowicz_from_ideal(IdealCalculusSpec(hopf=h, ideal_gens=gens))
    assert calc.forms.enumerate() == []


def test_nonzero_base_differential_fails_dsigma_on_the_torus(torus_calc_shared):
    """A base calculus whose differential misses the cocycle values is
    rejected by the twisted-calculus checker at the dsigma identity."""
    inst = torus_calc_shared.instance

    def dd(ix):
        l = ix[1]
        if l == 0:
            return FreeVector.zero()
        return FreeVector({("dw", l - 1): CycScalar.from_rational(l)})

    classical = Fodc(
        algebra=inst.crossed.base,
        forms=BasisFamily(window_fn=lambda w: [("dw", n) for n in range(-w, w + 1)]),
        left_act=lambda a, f: E(("dw", a[1] + f[1])),
        right_act=lambda f, a: E(("dw", a[1] + f[1])),
        d=dd,
    )
    _, report = check_sigma_twisted_module_calculus(
        classical, inst.crossed.hopf, inst.crossed.measure, inst.crossed.cocycle, window=2
    )
    assert not report.ok
    assert find_check(report, "dsigma").status == "fail"


def test_taft_zero_ideal_calculus_is_bicovariant_and_valid():
    """Quotient calculus on a non-cocommutative Hopf algebra: the mixed
    coproduct of the nilpotent generator exercises the multi-leg paths of
    the coactions and the left-coaction formula."""
    data = build_radford(1, 2, root_of_unity(2))
    calc = woronowicz_from_ideal(IdealCalculusSpec(hopf=data.hopf, ideal_gens=[]))
    assert len(calc.forms.enumerate()) == 12  # (dim - 1) * dim
    assert calc.bicovariant
    report = check_fodc(calc)
    assert report.ok
    # the differential of the nilpotent generator lands on its own class
    # tensored with the group-like leg of its coproduct
    got = calc.d(("ax", 0, 1))
    assert len(got.terms) == 1
    ((_, p, hx),) = got.terms
    assert hx == ("ax", 1, 0)
