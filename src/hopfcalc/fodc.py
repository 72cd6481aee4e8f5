"""First order differential calculi and their checkers.

A calculus is a bimodule of 1-forms over an algebra with a Leibniz
differential that generates them.  The module provides the generic
checker, the quotient-by-ideal construction of covariant calculi on a
finite-dimensional Hopf algebra, the one-parameter calculus on Laurent
polynomials, and the compatibility layer that
turns a calculus on a twisted module algebra into data usable by the
crossed product construction.
"""

from __future__ import annotations

from typing import Callable, Optional

from hopfcalc.crossed import Cocycle, Measure
from hopfcalc.hopf import (
    AlgebraPresentation,
    BasisFamily,
    HopfData,
    WindowSolver,
    bicomodule,
    coassociative,
    colinear,
    counital,
    flipped,
    monomial_unit,
    tensor_mult,
)
from hopfcalc.linalg import (
    FreeVector,
    NoSolution,
    QuotientSpace,
    Subspace,
    combine,
    first_non_associative,
    format_index,
    linear,
    memoise,
    memoise_fields,
    record,
    sum_terms,
    tensor_index,
)
from hopfcalc.report import CheckReport, witness
from hopfcalc.scalars import CycScalar, multiplicative_order

Index = tuple
E = FreeVector.basis


@record
class Fodc:
    algebra: AlgebraPresentation
    forms: BasisFamily
    left_act: Callable[[Index, Index], FreeVector]
    right_act: Callable[[Index, Index], FreeVector]
    d: Callable[[Index], FreeVector]
    hopf: Optional[HopfData] = None
    right_coaction: Optional[Callable[[Index], FreeVector]] = None  # form -> form (x) H
    left_coaction: Optional[Callable[[Index], FreeVector]] = None   # form -> H (x) form
    algebra_coaction: Optional[Callable[[Index], FreeVector]] = None
    covariance_note: str = ""

    def __post_init__(self):
        memoise_fields(self, "left_act", "right_act", "d", "right_coaction", "left_coaction",
                       "algebra_coaction", "lambda_terms")

    @property
    def bicovariant(self) -> bool:
        return self.right_coaction is not None and self.left_coaction is not None

    def lambda_terms(self, form_ix: Index, h_legs: int):
        """Iterated left coaction: (coeff, (h_1, ..., h_legs, form)) tuples."""
        return self.hopf.coaction_legs(self.left_coaction(form_ix), h_legs, left=True)


def zero_fodc(algebra: AlgebraPresentation) -> Fodc:
    """The zero calculus: no forms, zero differential."""
    return Fodc(
        algebra=algebra,
        forms=BasisFamily(indices=[]),
        left_act=lambda a, f: FreeVector.zero(),
        right_act=lambda f, a: FreeVector.zero(),
        d=lambda ix: FreeVector.zero(),
    )


def leibniz(calc, mult):
    """Test of d(a b) == d(a) b + a d(b) at a pair (a, b) of basis items of
    the algebra whose product is mult, for a calculus calc with d and actions."""

    def test(pair):
        a, b = pair
        lhs = linear(calc.d, mult(a, b))
        rhs = linear(calc.right_act, calc.d(a), b) + linear(calc.left_act, a, calc.d(b))
        return lhs == rhs, (a, b)

    return test


def presentation_solver(f: Fodc, window: int | None) -> WindowSolver:
    """Forms as combinations of a d(a') over the pairs ("pr", a, a') of a
    window, widened while a form produced by an action falls outside it."""

    def present(pr_ix):
        _, a, b = pr_ix
        return linear(f.left_act, a, f.d(b))

    return WindowSolver(present, f.algebra.basis.pairs("pr"), window).named("present")


def check_fodc(f: Fodc, window: int | None = None) -> CheckReport:
    """Bimodule laws, Leibniz, surjectivity with witness, and (when
    coactions are present) colinearity of the differential and covariance
    of the actions."""
    alg = f.algebra
    report = CheckReport(windowed=not (alg.basis.is_finite and f.forms.is_finite))
    a_basis = alg.basis.enumerate(window)
    f_basis = f.forms.enumerate(window)

    for identity, *sweep in (
        ("bimodule.left-assoc", a_basis, a_basis, f_basis, alg.mult, f.left_act, f.left_act, f.left_act),
        ("bimodule.right-assoc", f_basis, a_basis, a_basis, f.right_act, f.right_act, alg.mult, f.right_act),
        ("bimodule.compat", a_basis, f_basis, a_basis, f.left_act, f.right_act, f.right_act, f.left_act),
    ):
        hit = first_non_associative(*sweep)
        report.record(identity, hit is None, hit and witness(*hit))

    def unit_acts(beta):
        ok = (
            linear(f.left_act, alg.unit, beta) == E(beta)
            and linear(f.right_act, beta, alg.unit) == E(beta)
        )
        return ok, (beta,)

    report.sweep("bimodule.unit", f_basis, unit_acts)

    report.sweep("leibniz", ((a, b) for a in a_basis for b in a_basis), leibniz(f, alg.mult))

    if f_basis:
        solver = presentation_solver(f, window)
        missing = None
        for beta in f_basis:
            try:
                solver.solve(E(beta))
            except NoSolution:
                missing = beta
                break
        report.record(
            "surjectivity",
            missing is None,
            witness=None if missing is None else f"form {format_index(missing)} unreachable",
        )
    else:
        report.record("surjectivity", True)

    # the left side is the right side of H^cop, read through flipped maps; a
    # calculus with a left coaction lives on H, whose left coaction is comul
    h = f.hopf
    sides = []
    if f.right_coaction is not None:
        sides.append(("right", f.right_coaction, f.algebra_coaction, h.comul))
    if f.left_coaction is not None:
        cop = flipped(h.comul)
        sides.append(("left", flipped(f.left_coaction), cop, cop))
    for side, rho, rho_a, comul in sides:
        report.sweep(f"covariance.{side}-comodule", f_basis, coassociative(rho, comul), counital(rho, h.counit))
        if rho_a is None:
            continue
        left_legs = tensor_mult(f.left_act, h.algebra.mult)
        right_legs = tensor_mult(f.right_act, h.algebra.mult)

        def actions(item):
            # rho(a . beta) = a_0 . beta_0 (x) a_1 beta_1, and alike for beta . a
            a, beta = item
            left = linear(rho, f.left_act(a, beta)) == linear(left_legs, rho_a(a), rho(beta))
            right = linear(rho, f.right_act(beta, a)) == linear(right_legs, rho(beta), rho_a(a))
            return left and right, item

        report.sweep(f"covariance.actions-{side}", ((a, beta) for a in a_basis for beta in f_basis), actions)
        report.sweep(f"covariance.d-{side}-colinear", a_basis, colinear(f.d, rho_a, rho))

    if f.bicovariant:
        report.sweep("covariance.bicomodule", f_basis, bicomodule(f.left_coaction, f.right_coaction))

    return report


# ---------------------------------------------------------------------------
# covariant calculus from an ideal in the augmentation ideal
# ---------------------------------------------------------------------------


@record
class IdealCalculusSpec:
    hopf: HopfData
    ideal_gens: list


def parse_ideal_generators(text: str, hopf: HopfData) -> list:
    """One generator per line in the basis-combination grammar, e.g.
    ``1*0 - 1*1`` or ``(1/2 + 3*z4^1)*2``, over positions in the basis of
    hopf; blank lines and # comments skipped.

    A malformed term, a position outside the basis and a coefficient
    outside the scalar field of hopf are errors naming the line."""
    from hopfcalc.hopf import parse_basis_combination

    basis = hopf.algebra.basis.enumerate()
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse_basis_combination(line, basis, hopf.algebra.scalar_order))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return out


def woronowicz_from_ideal(spec: IdealCalculusSpec) -> Fodc:
    """Right covariant calculus (H+/I) (x) H from a left ideal I in ker(eps).

    The left-ideal closure of the generators is computed, the quotient is
    taken exactly, and the left coaction is attached only when the
    adjoint-stability test passes; otherwise the result is tagged
    right-covariant-only.
    """
    h = spec.hopf
    if not h.algebra.basis.is_finite:
        raise ValueError("ideal construction needs a finite-dimensional Hopf algebra; "
                         "use the Laurent one-parameter calculus for k[t,t^-1]")
    alg = h.algebra
    basis = alg.basis.enumerate()
    one = CycScalar.one(alg.scalar_order)

    for g in spec.ideal_gens:
        eps = h.counit_vec(g)
        if not eps.is_zero():
            raise ValueError(f"ideal generator {g.to_text()} has nonzero counit {eps.to_text()}")

    ideal = Subspace()
    for g in spec.ideal_gens:
        ideal.add(g)
    changed = True
    while changed:
        changed = False
        for b_ix in basis:
            for row in list(ideal.basis()):
                if ideal.add(linear(alg.mult, b_ix, row)):
                    changed = True

    # the shifted basis elements e - eps(e) 1 span ker(eps); feeding them to
    # the quotient keeps representatives in the natural "element minus unit" form
    shifted = [E(ix) - alg.unit.scale(h.counit(ix)) for ix in basis]
    quotient = QuotientSpace([v for v in shifted if not v.is_zero()], ideal, cls_tag="cls")

    def reduce_to_class(v: FreeVector) -> FreeVector:
        """Extended quotient map: v - eps(v) 1, projected to classes."""
        shifted = v - alg.unit.scale(h.counit_vec(v))
        return quotient.project(shifted)

    dim_q = quotient.dim
    form_basis = [("w1", p, hx) for p in range(dim_q) for hx in basis]

    def d_ix(a_ix):
        return sum_terms(
            (("w1", p, h2), c * cp)
            for c, (h1, h2) in h.sweedler(a_ix, 2)
            for (_, p), cp in reduce_to_class(E(h1)).terms.items()
        )

    def left_act(a_ix, form_ix):
        _, p, hx = form_ix
        return sum_terms(
            (("w1", pp, t_ix), c * cp * ct)
            for c, (a1, a2) in h.sweedler(a_ix, 2)
            for (_, pp), cp in quotient.project(linear(alg.mult, a1, quotient.representatives[p])).terms.items()
            for t_ix, ct in alg.mult(a2, hx).terms.items()
        )

    def right_act(form_ix, a_ix):
        _, p, hx = form_ix
        return alg.mult(hx, a_ix).map_indices(lambda t: ("w1", p, t))

    def right_coaction(form_ix):
        _, p, hx = form_ix
        return sum_terms((tensor_index(("w1", p, h1), h2), c) for c, (h1, h2) in h.sweedler(hx, 2))

    # adjoint stability of the ideal decides bicovariance
    ad_stable = True
    witness = None
    for row in ideal.basis():
        image = combine(
            (linear(alg.mult, v1, h.antipode(v3)).tensor(E(v2)), c) for c, (v1, v2, v3) in h.sweedler_vec(row, 3)
        )
        by_left: dict = {}
        for pair_ix, c in image.terms.items():
            _, lx, rx = pair_ix
            by_left.setdefault(lx, []).append((rx, c))
        for lx, entries in by_left.items():
            component = FreeVector({rx: c for rx, c in entries})
            if not ideal.contains(component):
                ad_stable = False
                witness = row
                break
        if not ad_stable:
            break

    left_coaction = None
    note = ""
    if ad_stable:

        def left_coaction(form_ix):
            _, p, hx = form_ix
            heads = [
                (c, linear(alg.mult, g1, h.antipode(g3)), reduce_to_class(E(g2)))
                for c, (g1, g2, g3) in h.sweedler_vec(quotient.representatives[p], 3)
            ]
            return combine(
                (linear(alg.mult, head, h1).tensor(E(("w1", pp, h2))), c * c2 * cp)
                for c, head, cls in heads
                for c2, (h1, h2) in h.sweedler(hx, 2)
                for (_, pp), cp in cls.terms.items()
            )

    else:
        note = f"right-covariant-only: adjoint coaction leaves H (x) I at {witness.to_text()}"

    return Fodc(
        algebra=alg,
        forms=BasisFamily(indices=form_basis),
        left_act=left_act,
        right_act=right_act,
        d=d_ix,
        hopf=h,
        right_coaction=right_coaction,
        left_coaction=left_coaction,
        algebra_coaction=h.comul,
        covariance_note=note,
    )


# ---------------------------------------------------------------------------
# the one-parameter calculus on Laurent polynomials
# ---------------------------------------------------------------------------


def check_deformation_parameter(q: CycScalar) -> None:
    """q in `build_laurent_q_calculus` must be a root of unity of order >= 3."""
    if q.is_zero() or q.is_one() or (q == CycScalar.from_rational(-1)):
        raise ValueError("deformation parameter must be a root of unity of order >= 3")
    if multiplicative_order(q) is None:
        raise ValueError("deformation parameter must be a root of unity")


def q_integers(q: CycScalar) -> Callable[[int], CycScalar]:
    """The map m -> (q**m - 1)/(q - 1), the q-integers of q != 1."""
    one = CycScalar.one(q.order)
    denom_inv = (q - one).inverse()
    return lambda m: (q ** m - one) * denom_inv


def build_laurent_q_calculus(q: CycScalar, hopf: HopfData | None = None) -> Fodc:
    """Bicovariant calculus on k[t,t^-1]: dt t^n = q^n t^n dt, with the
    differential given by the scaled difference quotient."""
    check_deformation_parameter(q)
    from hopfcalc.hopf import build_laurent_hopf

    h = hopf or build_laurent_hopf(scalar_order=q.order)
    q_int = q_integers(q)

    def d_ix(a_ix):
        n = a_ix[1]
        c = q_int(n)
        return FreeVector({("dt", n - 1): c})

    def left_act(a_ix, f_ix):
        return E(("dt", a_ix[1] + f_ix[1]))

    def right_act(f_ix, a_ix):
        k = a_ix[1]
        return E(("dt", f_ix[1] + k), q ** k)

    def right_coaction(f_ix):
        n = f_ix[1]
        return E(tensor_index(("dt", n), ("t", n + 1)))

    def left_coaction(f_ix):
        n = f_ix[1]
        return E(tensor_index(("t", n + 1), ("dt", n)))

    return Fodc(
        algebra=h.algebra,
        forms=BasisFamily(window_fn=lambda w: [("dt", n) for n in range(-w, w + 1)]),
        left_act=left_act,
        right_act=right_act,
        d=d_ix,
        hopf=h,
        right_coaction=right_coaction,
        left_coaction=left_coaction,
        algebra_coaction=h.comul,
    )


# ---------------------------------------------------------------------------
# twisted module calculi
# ---------------------------------------------------------------------------


@record
class TwistedCalculusAction:
    """The action of the Hopf algebra on 1-forms derived from presentations."""

    act: Callable[[Index, Index], FreeVector]

    def __post_init__(self):
        memoise_fields(self, "act")


def check_sigma_twisted_module_calculus(
    b_calc: Fodc,
    h: HopfData,
    m: Measure,
    s: Cocycle,
    window: int | None = None,
) -> tuple[TwistedCalculusAction, CheckReport]:
    """Derive the form action h.(b d b') = (h1.b) d(h2.b'), prove it
    well-defined on the declared presentations, then verify the
    compatibility, equivariance and cocycle-vanishing laws together with
    the twisted-bimodule laws they imply.

    A well-definedness failure is an error carrying two conflicting
    presentations; everything else lands in the report."""
    b = b_calc.algebra
    report = CheckReport(windowed=not (b.basis.is_finite and h.algebra.basis.is_finite and b_calc.forms.is_finite))
    b_basis = b.basis.enumerate(window)
    h_basis = h.algebra.basis.enumerate(window)
    f_basis = b_calc.forms.enumerate(window)

    def twisted_of_pair(h_ix, a_ix, b_ix):
        return combine(
            (linear(b_calc.left_act, m.act(h1, a_ix), linear(b_calc.d, m.act(h2, b_ix))), c)
            for c, (h1, h2) in h.sweedler(h_ix, 2)
        )

    def twisted_of(h_ix, presentation):
        """h acting on a presentation, a sum of a d(b) over its ("pr", a, b) indices."""
        return combine((twisted_of_pair(h_ix, a_ix, b_ix), c) for (_, a_ix, b_ix), c in presentation.terms.items())

    solver = presentation_solver(b_calc, window)
    for kappa in solver.kernel().basis():
        for h_ix in h_basis:
            image = twisted_of(h_ix, kappa)
            if not image.is_zero():
                raise ValueError(
                    "derived action is not well-defined: the vanishing presentation "
                    f"{kappa.to_text()} maps to {image.to_text()} under {format_index(h_ix)}"
                )

    def act(h_ix, f_ix):
        return twisted_of(h_ix, solver.solve(E(f_ix)))

    action = TwistedCalculusAction(act=act)

    def comp_lhs(h_ix, a_ix, b_ix):
        inner = linear(b_calc.left_act, a_ix, b_calc.d(b_ix))
        return ((action.act(h_ix, t).terms, c) for t, c in inner.terms.items())

    def comp_rhs(h_ix, a_ix, b_ix):
        for c, (h1, h2) in h.sweedler(h_ix, 2):
            right = linear(action.act, h2, b_calc.d(b_ix)).scale(c).terms.items()
            for a1, c1 in m.act(h1, a_ix).terms.items():
                for f, c2 in right:
                    yield b_calc.left_act(a1, f).terms, c1 * c2

    report.sweep_rows("comp", [(hx, ax) for hx in h_basis for ax in b_basis], b_basis, (comp_lhs, comp_rhs))

    def equivariant(pair):
        h_ix, b_ix = pair
        lhs = linear(b_calc.d, m.act(h_ix, b_ix))
        rhs = linear(action.act, h_ix, b_calc.d(b_ix))
        return lhs == rhs, (h_ix, b_ix)

    report.sweep("H-lin", ((hx, bx) for hx in h_basis for bx in b_basis), equivariant)

    def d_sigma_zero(pair):
        h_ix, k_ix = pair
        value = linear(b_calc.d, s.sigma(h_ix, k_ix))
        return value.is_zero(), (h_ix, k_ix, value)

    report.sweep("dsigma", ((hx, kx) for hx in h_basis for kx in h_basis), d_sigma_zero)

    def d_sigma_inv_zero(pair):
        h_ix, k_ix = pair
        return linear(b_calc.d, s.sigma_inv(h_ix, k_ix)).is_zero(), (h_ix, k_ix)

    report.sweep("dsigma-inverse", ((hx, kx) for hx in h_basis for kx in h_basis), d_sigma_inv_zero)

    def bimodule_unit(f_ix):
        return linear(action.act, h.algebra.unit, f_ix) == E(f_ix), (f_ix,)

    report.sweep("twisted-bimodule.unit", f_basis, bimodule_unit)

    @memoise
    def acted_pair(h1, a_ix, h2, f_ix):
        """(h1.a)(h2.f): the part of a sandwich's right side that no b reads."""
        return linear(b_calc.left_act, m.act(h1, a_ix), action.act(h2, f_ix))

    @memoise
    def sandwiched(a_ix, f_ix, b_ix):  # a f b: the part of a sandwich's left side that no h reads
        return linear(b_calc.right_act, b_calc.left_act(a_ix, f_ix), b_ix)

    def sandwich_lhs(h_ix, a_ix, f_ix, b_ix):
        return ((action.act(h_ix, t).terms, c) for t, c in sandwiched(a_ix, f_ix, b_ix).terms.items())

    def sandwich_rhs(h_ix, a_ix, f_ix, b_ix):
        for c, (h1, h2, h3) in h.sweedler(h_ix, 3):
            right = m.act(h3, b_ix).scale(c).terms.items()
            for f, c1 in acted_pair(h1, a_ix, h2, f_ix).terms.items():
                for b2, c2 in right:
                    yield b_calc.right_act(f, b2).terms, c1 * c2

    rows = [(hx, ax, fx) for hx in h_basis for ax in b_basis for fx in f_basis]
    report.sweep_rows("twisted-bimodule.sandwich", rows, b_basis, (sandwich_lhs, sandwich_rhs))

    def twist_lhs(h_ix, k_ix, f_ix):
        return ((action.act(h_ix, t).terms, c) for t, c in action.act(k_ix, f_ix).terms.items())

    def twist_rhs(h_ix, k_ix, f_ix):
        for c1, (x1, x2, x3) in h.sweedler(h_ix, 3):
            for c2, (y1, y2, y3) in h.sweedler(k_ix, 3):
                acted = linear(b_calc.left_act, s.sigma(x1, y1), linear(action.act, h.algebra.mult(x2, y2), f_ix))
                yield linear(b_calc.right_act, acted, s.sigma_inv(x3, y3)).terms, c1 * c2

    report.sweep_rows("twisted-bimodule.twist", [(hx, kx) for hx in h_basis for kx in h_basis], f_basis, (twist_lhs, twist_rhs))
    return action, report


def sigma_forces_zero_differential(
    b: AlgebraPresentation,
    sigma_values,
    window: int,
) -> CheckReport:
    """Execute the forced-zero argument: in the free B-bimodule on formal
    differentials D_k of the basis, the Leibniz relations together with
    D(sigma value) = 0 put every D_k in the relation span, so any
    calculus with d of every cocycle value zero kills the whole base.

    The algebra unit must be a basis element inside the window.  All
    relation instances and their two-sided B-multiples e_p . rel . e_q
    by window basis elements, whose words stay inside twice the window,
    are eliminated exactly (p or q the unit gives the one-sided
    multiples and the relation itself); membership of each D_k is then
    decided by rank.
    """
    report = CheckReport(windowed=True)
    unit_ix = monomial_unit(b, "forced-zero derivation")
    window_basis = b.basis.enumerate(window)
    if unit_ix not in window_basis:
        raise ValueError(f"forced-zero derivation needs the unit {format_index(unit_ix)} inside window {window}")

    word_basis = set(b.basis.enumerate(2 * window))

    def word(i, k, j):
        return ("bw", i, k, j)

    def d_of_vector(v: FreeVector):
        """Formal differential of an algebra element, or None off-window."""
        if not word_basis.issuperset(v.terms):
            return None
        return sum_terms((word(unit_ix, ix, unit_ix), c) for ix, c in v.terms.items())

    def pad(rel: FreeVector, p, q):
        """e_p . rel . e_q expanded in words, or None if it leaves the window."""
        parts = [(c, b.mult(p, i), k, b.mult(j, q)) for (_, i, k, j), c in rel.terms.items()]
        if any(left.terms and not word_basis.issuperset({*left.terms, *right.terms}) for _, left, _, right in parts):
            return None
        return sum_terms(
            (word(li, k, rj), c * cl * cr)
            for c, left, k, right in parts
            for li, cl in left.terms.items()
            for rj, cr in right.terms.items()
        )

    relations = []
    for k1 in window_basis:
        for k2 in window_basis:
            product = b.mult(k1, k2)
            total = d_of_vector(product)
            if total is None:
                continue
            rel = total
            # subtract e_{k1} . D_{k2} and D_{k1} . e_{k2}
            rel = rel - E(word(k1, k2, unit_ix)) - E(word(unit_ix, k1, k2))
            relations.append(rel)
    for v in sigma_values:
        rel = d_of_vector(v)
        if rel is not None:
            relations.append(rel)

    span = Subspace()
    for rel in relations:
        for p in window_basis:
            for q in window_basis:
                padded = pad(rel, p, q)
                if padded is not None:
                    span.add(padded)

    def forced(k_ix):
        return span.contains(E(word(unit_ix, k_ix, unit_ix))), (k_ix,)

    report.sweep("sigma-forces-zero", window_basis, forced)
    return report
