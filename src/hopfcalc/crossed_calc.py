"""The crossed product calculus: first-order construction, higher order
forms, the cocycle-vanishing necessity analysis, the smash classification
and direct de Rham cohomology.

Form indices: ``("hor", b_form, h)`` for the horizontal summand and
``("ver", b, h_form)`` for the vertical one; graded indices are
``("gf", b_degree, b_part, h_part)``.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from hopfcalc.crossed import CleftData, CrossedProduct, check_cleft_derivation, cleft_to_crossed
from hopfcalc.fodc import (
    Fodc,
    TwistedCalculusAction,
    check_sigma_twisted_module_calculus,
    leibniz,
    presentation_solver,
)
from hopfcalc.hopf import AlgebraPresentation, BasisFamily, HopfData, WindowSolver, colinear
from hopfcalc.linalg import (
    FreeVector,
    LinearSolver,
    NoSolution,
    Subspace,
    combine,
    first_non_associative,
    first_non_multiplicative,
    format_index,
    intersection_dim,
    linear,
    memoise,
    memoise_fields,
    record,
    sum_terms,
    tensor_index,
)
from hopfcalc.report import FAIL, SAMPLED, CheckReport, witness
from hopfcalc.scalars import CycScalar

Index = tuple
E = FreeVector.basis


def hor(b_form_vec: FreeVector, h_vec: FreeVector) -> FreeVector:
    return FreeVector(
        {("hor", bf, hx): cb * ch for bf, cb in b_form_vec.terms.items() for hx, ch in h_vec.terms.items()}
    )


def ver(b_vec: FreeVector, h_form_vec: FreeVector) -> FreeVector:
    return FreeVector(
        {("ver", bx, hf): cb * ch for bx, cb in b_vec.terms.items() for hf, ch in h_form_vec.terms.items()}
    )


@record
class CrossedFodc:
    crossed: CrossedProduct
    b_calc: Fodc
    h_calc: Fodc
    b_action: TwistedCalculusAction
    forms: BasisFamily
    left_act: Callable[[Index, Index], FreeVector]
    right_act: Callable[[Index, Index], FreeVector]
    right_coaction: Callable[[Index], FreeVector]
    d: Callable[[Index], FreeVector]
    hypotheses: CheckReport  # the twisted module-calculus checks that derived b_action

    def __post_init__(self):
        memoise_fields(self, "left_act", "right_act", "right_coaction", "d")

    def horizontal_window(self, window: int | None) -> list[Index]:
        return [
            ("hor", bf, hx)
            for bf in self.b_calc.forms.enumerate(window)
            for hx in self.crossed.hopf.algebra.basis.enumerate(window)
        ]


def _assemble(cp: CrossedProduct, b_calc: Fodc, h_calc: Fodc, action: TwistedCalculusAction):
    """The four structure maps of the crossed product calculus, built from
    the defining displays; hypotheses are checked by the public builders."""
    h = cp.hopf
    b = cp.base
    m = cp.measure
    s = cp.cocycle

    def left_act(pair_ix, form_ix):
        _, bp, hp = pair_ix
        if form_ix[0] == "hor":
            _, bf, hx = form_ix
            return combine(
                (
                    hor(
                        linear(b_calc.right_act, linear(b_calc.left_act, bp, action.act(x1, bf)), s.sigma(x2, y1)),
                        h.algebra.mult(x3, y2),
                    ),
                    c1 * c2,
                )
                for c1, (x1, x2, x3) in h.sweedler(hp, 3)
                for c2, (y1, y2) in h.sweedler(hx, 2)
            )
        _, bx, hf = form_ix
        return combine(
            (ver(b.product(bp, m.act(x1, bx), s.sigma(x2, g_m1)), h_calc.left_act(x3, g0)), c1 * cl)
            for c1, (x1, x2, x3) in h.sweedler(hp, 3)
            for cl, (g_m1, g0) in h_calc.lambda_terms(hf, 1)
        )

    def right_act(form_ix, pair_ix):
        _, bp, hp = pair_ix
        if form_ix[0] == "hor":
            _, bf, hx = form_ix
            return combine(
                (
                    hor(
                        linear(b_calc.right_act, linear(b_calc.right_act, bf, m.act(x1, bp)), s.sigma(x2, y1)),
                        h.algebra.mult(x3, y2),
                    ),
                    c1 * c2,
                )
                for c1, (x1, x2, x3) in h.sweedler(hx, 3)
                for c2, (y1, y2) in h.sweedler(hp, 2)
            )
        _, bx, hf = form_ix
        return combine(
            (ver(b.product(bx, m.act(g_m2, bp), s.sigma(g_m1, y1)), h_calc.right_act(g0, y2)), cl * c2)
            for cl, (g_m2, g_m1, g0) in h_calc.lambda_terms(hf, 2)
            for c2, (y1, y2) in h.sweedler(hp, 2)
        )

    def d_ix(pair_ix):
        _, bp, hp = pair_ix
        return hor(b_calc.d(bp), E(hp)) + ver(E(bp), h_calc.d(hp))

    def right_coaction(form_ix):
        if form_ix[0] == "hor":
            _, bf, hx = form_ix
            return sum_terms((tensor_index(("hor", bf, h1), h2), c) for c, (h1, h2) in h.sweedler(hx, 2))
        _, bx, hf = form_ix
        return sum_terms(
            (tensor_index(("ver", bx, f0), f1), c) for (_, f0, f1), c in h_calc.right_coaction(hf).terms.items()
        )

    return left_act, right_act, d_ix, right_coaction


def build_crossed_fodc(
    cp: CrossedProduct, b_calc: Fodc, h_calc: Fodc, window: int | None = None
) -> CrossedFodc:
    """First order crossed product calculus.  The structure Hopf calculus
    must be bicovariant and the base calculus must pass the twisted
    module-calculus checks, whose report is kept as `hypotheses`; the
    derived form action feeds the left action."""
    if h_calc.left_coaction is None or h_calc.right_coaction is None:
        raise ValueError("hypothesis failed: the structure calculus must be bicovariant")
    action, report = check_sigma_twisted_module_calculus(
        b_calc, cp.hopf, cp.measure, cp.cocycle, window=window
    )
    report.require("hypothesis failed: twisted module calculus check")

    left_act, right_act, d_ix, right_coaction = _assemble(cp, b_calc, h_calc, action)

    def forms(w):
        hor_part = [("hor", bf, hx) for bf in b_calc.forms.enumerate(w) for hx in cp.hopf.algebra.basis.enumerate(w)]
        return hor_part + [("ver", bx, hf) for bx in cp.base.basis.enumerate(w) for hf in h_calc.forms.enumerate(w)]

    return CrossedFodc(
        crossed=cp,
        b_calc=b_calc,
        h_calc=h_calc,
        b_action=action,
        forms=BasisFamily.spanned(forms, b_calc.forms, cp.hopf.algebra.basis, cp.base.basis, h_calc.forms),
        left_act=left_act,
        right_act=right_act,
        right_coaction=right_coaction,
        d=d_ix,
        hypotheses=report,
    )


def verify_crossed_fodc(cf: CrossedFodc, window: int | None = None) -> CheckReport:
    """Leibniz, the two generation identities, colinearity of the
    differential and differentiability of the coaction, plus the smash
    reduction when the cocycle is trivial."""
    cp = cf.crossed
    report = CheckReport(windowed=not cp.algebra.basis.is_finite)
    h = cp.hopf
    b = cp.base
    a_basis = cp.algebra.basis.enumerate(window)
    b_basis = b.basis.enumerate(window)
    h_basis = h.algebra.basis.enumerate(window)

    report.sweep("leibniz", ((i, j) for i in a_basis for j in a_basis), leibniz(cf, cp.algebra.mult))

    one_h = h.algebra.unit
    embed = cp.comodule.coinvariants.embed

    def hor_generation(item):
        bx, by, hx = item
        first = linear(cf.left_act, embed(bx), cf.d(tensor_index(by, hx)))
        second = linear(cf.left_act, b.mult(bx, by).tensor(one_h), linear(cf.d, b.unit.tensor(E(hx))))
        expected = hor(linear(cf.b_calc.left_act, bx, cf.b_calc.d(by)), E(hx))
        return first - second == expected, (bx, by, hx)

    report.sweep(
        "generation-horizontal",
        ((bx, by, hx) for bx in b_basis for by in b_basis for hx in h_basis),
        hor_generation,
    )

    def ver_generation(item):
        bx, hx, hy = item
        total = combine(
            (
                linear(
                    cf.left_act,
                    linear(b.mult, bx, cp.cocycle.sigma_inv(x1, y1)).tensor(E(x2)),
                    linear(cf.d, b.unit.tensor(E(y2))),
                ),
                c1 * c2,
            )
            for c1, (x1, x2) in h.sweedler(hx, 2)
            for c2, (y1, y2) in h.sweedler(hy, 2)
        )
        expected = ver(E(bx), linear(cf.h_calc.left_act, hx, cf.h_calc.d(hy)))
        return total == expected, (bx, hx, hy)

    report.sweep(
        "generation-vertical",
        ((bx, hx, hy) for bx in b_basis for hx in h_basis for hy in h_basis),
        ver_generation,
    )

    report.sweep("d-colinear", a_basis, colinear(cf.d, cp.comodule.coaction, cf.right_coaction))

    def rho_hat_terms(form_ix):
        """(index, coefficient) terms of rho_hat at one basis form."""
        if form_ix[0] == "hor":
            _, bf, hx = form_ix
            return [(("oA", ("hor", bf, h1), h2), c) for c, (h1, h2) in h.sweedler(hx, 2)]
        _, bx, hf = form_ix
        rho = [(("oA", ("ver", bx, f0), f1), c) for (_, f0, f1), c in cf.h_calc.right_coaction(hf).terms.items()]
        lam = [(("oH", tensor_index(bx, hm1), f0), c) for c, (hm1, f0) in cf.h_calc.lambda_terms(hf, 1)]
        return rho + lam

    def rho_hat(form_vec: FreeVector) -> FreeVector:
        """Differential of the coaction: values in
        Omega^1(A) (x) H  (+)  A (x) Omega^1(H), tagged oA / oH."""
        return sum_terms(
            (key, c * c2) for form_ix, c in form_vec.terms.items() for key, c2 in rho_hat_terms(form_ix)
        )

    def rho_differentiable(pair_ix):
        lhs = rho_hat(cf.d(pair_ix))
        _, bx, hx = pair_ix
        rhs = combine(
            (part, c)
            for c, (h1, h2) in h.sweedler(hx, 2)
            for part in (
                cf.d(tensor_index(bx, h1)).map_indices(lambda f: ("oA", f, h2)),
                cf.h_calc.d(h2).map_indices(lambda f: ("oH", tensor_index(bx, h1), f)),
            )
        )
        return lhs == rhs, (pair_ix,)

    report.sweep("coaction-differentiable", a_basis, rho_differentiable)

    trivial = all(
        cp.cocycle.sigma(hx, hy) == b.unit.scale(h.counit(hx) * h.counit(hy))
        for hx in h_basis
        for hy in h_basis
    )
    if trivial:

        def smash_left(item):
            pair_ix, form_ix = item
            _, bp, hp = pair_ix
            got = cf.left_act(pair_ix, form_ix)
            if form_ix[0] == "hor":
                _, bf, hx = form_ix
                want = combine(
                    (hor(linear(cf.b_calc.left_act, bp, cf.b_action.act(x1, bf)), h.algebra.mult(x2, hx)), c)
                    for c, (x1, x2) in h.sweedler(hp, 2)
                )
            else:
                _, bx, hf = form_ix
                want = combine(
                    (ver(linear(b.mult, bp, cp.measure.act(x1, bx)), cf.h_calc.left_act(x2, hf)), c)
                    for c, (x1, x2) in h.sweedler(hp, 2)
                )
            return got == want, (pair_ix, form_ix)

        report.sweep(
            "smash-reduction",
            (
                (pair_ix, form_ix)
                for pair_ix in a_basis
                for form_ix in cf.forms.enumerate(window)
            ),
            smash_left,
        )
    return report


def leibniz_defect(
    cp: CrossedProduct,
    b_calc: Fodc,
    action: TwistedCalculusAction,
    h_calc: Fodc,
    hx: Index,
    hy: Index,
) -> FreeVector:
    """d((1 (x) h)(1 (x) h')) minus both Leibniz terms for the would-be
    crossed differential; nonzero exactly where d_B hits a cocycle value."""
    h = cp.hopf
    left_act, right_act, d_ix, _ = _assemble(cp, b_calc, h_calc, action)
    jx = cp.base.unit.tensor(E(hx))
    jy = cp.base.unit.tensor(E(hy))
    first = linear(right_act, linear(d_ix, jx), jy)
    second = linear(left_act, jx, linear(d_ix, jy))
    return linear(d_ix, linear(cp.algebra.mult, jx, jy)) - first - second


def necessity_dsigma(
    cp: CrossedProduct,
    b_calc: Fodc,
    action: TwistedCalculusAction,
    h_calc: Fodc,
    window: int | None = None,
) -> CheckReport:
    """Evaluate the Leibniz defect of the would-be differential on pairs
    of cleaving values: it equals d_B(sigma(h1 (x) h'1)) (x) h2 h'2, so any
    nonzero differential of a cocycle value is a concrete Leibniz failure."""
    h = cp.hopf
    report = CheckReport(windowed=not h.algebra.basis.is_finite)
    h_basis = h.algebra.basis.enumerate(window)

    @memoise
    def expected_defect(hx, hy):
        return combine(
            (hor(linear(b_calc.d, cp.cocycle.sigma(x1, y1)), h.algebra.mult(x2, y2)), c1 * c2)
            for c1, (x1, x2) in h.sweedler(hx, 2)
            for c2, (y1, y2) in h.sweedler(hy, 2)
        )

    def defect_formula(pair):
        hx, hy = pair
        return leibniz_defect(cp, b_calc, action, h_calc, hx, hy) == expected_defect(hx, hy), (hx, hy)

    report.sweep("necessity-defect-formula", ((hx, hy) for hx in h_basis for hy in h_basis), defect_formula)

    found = "d_B of every cocycle value vanishes; the defect is vacuous"
    for hx, hy, value in ((hx, hy, expected_defect(hx, hy)) for hx in h_basis for hy in h_basis):
        if not value.is_zero():
            found = f"Leibniz fails at ({format_index(hx)}, {format_index(hy)}): defect {value.to_text()}"
            break
    report.record("necessity-witness", True, witness=found)
    return report


# ---------------------------------------------------------------------------
# graded calculi
# ---------------------------------------------------------------------------


@record
class GradedDc:
    """Differential graded data truncated at a finite top degree.

    Degree-0 indices are the algebra basis; each positive degree carries
    its own index family.  The wedge is degree-homogeneous and the
    differential raises degree by one."""

    algebra: AlgebraPresentation
    max_degree: int
    basis: Callable[[int, Optional[int]], list]
    wedge: Callable[[int, Index, int, Index], FreeVector]
    d: Callable[[int, Index], FreeVector]
    hopf: Optional[HopfData] = None
    right_coaction: Optional[Callable[[int, Index], FreeVector]] = None
    left_coaction: Optional[Callable[[int, Index], FreeVector]] = None

    def __post_init__(self):
        memoise_fields(self, "wedge", "d", "right_coaction", "left_coaction", "lambda_terms")

    def lambda_terms(self, deg: int, ix: Index, legs: int):
        """Iterated left coaction in degree deg: (coeff, (h_1, ..., h_legs, form)) tuples."""
        return self.hopf.coaction_legs(self.left_coaction(deg, ix), legs, left=True)


class NotTruncatable(ValueError):
    """Raised by truncate_dc_degree2; witness names the cross terms that survive."""

    def __init__(self, witness: str):
        super().__init__(f"calculus is not truncatable at degree two: {witness}")
        self.witness = witness


def _degree_one_maps(f: Fodc):
    """basis, wedge and d of the graded data of f with no forms above degree one."""

    def basis(deg, w=None):
        if deg == 0:
            return f.algebra.basis.enumerate(w)
        if deg == 1:
            return f.forms.enumerate(w)
        return []

    def wedge(deg1, i, deg2, j):
        if deg1 == 0 and deg2 == 0:
            return f.algebra.mult(i, j)
        if deg1 == 0 and deg2 == 1:
            return f.left_act(i, j)
        if deg1 == 1 and deg2 == 0:
            return f.right_act(i, j)
        return FreeVector.zero()

    def d(deg, ix):
        return f.d(ix) if deg == 0 else FreeVector.zero()

    return basis, wedge, d


def truncate_dc_degree2(f: Fodc, window: int | None = None):
    """Graded data with vanishing forms above degree one, for a bicovariant
    calculus.  The coproduct stays differentiable exactly when the two
    cross terms of its degree-two component cancel; otherwise NotTruncatable
    is raised with a witness pair."""
    if f.right_coaction is None or f.left_coaction is None:
        raise ValueError("degree-2 truncation needs a bicovariant calculus")
    forms = f.forms.enumerate(window)
    for g1 in forms:
        for g2 in forms:
            right_left = [
                (f.right_act(f0, hm1).tensor(f.left_act(h1, f0b)), c * c2)
                for (_, f0, h1), c in f.right_coaction(g1).terms.items()
                for (_, hm1, f0b), c2 in f.left_coaction(g2).terms.items()
            ]
            left_right = [
                (f.left_act(hm1, f0b).tensor(f.right_act(f0, h1)), -(c * c2))
                for (_, hm1, f0), c in f.left_coaction(g1).terms.items()
                for (_, f0b, h1), c2 in f.right_coaction(g2).terms.items()
            ]
            total = combine(right_left + left_right)
            if not total.is_zero():
                raise NotTruncatable(f"cross terms at ({format_index(g1)}, {format_index(g2)}): {total.to_text()}")

    basis, wedge, d = _degree_one_maps(f)

    def right_coaction(deg, ix):
        if deg == 0:
            return f.algebra_coaction(ix)
        return f.right_coaction(ix)

    def left_coaction(deg, ix):
        if deg == 0:
            return f.hopf.comul(ix)
        return f.left_coaction(ix)

    return GradedDc(
        algebra=f.algebra,
        max_degree=1,
        basis=basis,
        wedge=wedge,
        d=d,
        hopf=f.hopf,
        right_coaction=right_coaction,
        left_coaction=left_coaction,
    )


def build_higher_forms(cf: CrossedFodc, h_dc: GradedDc) -> GradedDc:
    """Higher order crossed product forms: the graded sum of the base
    calculus of cf, truncated above degree one, and the structure
    components, with the twisted wedge and the signed sum differential.
    The graded module action is the measure in degree zero and the derived
    form action in degree one; the base laws it needs are the hypotheses
    that cf's builders checked."""
    cp = cf.crossed
    s = cp.cocycle
    if h_dc.left_coaction is None or h_dc.right_coaction is None:
        raise ValueError("hypothesis failed: structure graded data is not bicovariant")
    b_basis, b_wedge, b_d = _degree_one_maps(cf.b_calc)
    b_max_degree = 1

    def b_act(h_ix, deg, ix):
        return cp.measure.act(h_ix, ix) if deg == 0 else cf.b_action.act(h_ix, ix)

    def gix(bdeg, b_part, hdeg, h_part):
        # total degree zero is the crossed product algebra itself
        if bdeg == 0 and hdeg == 0:
            return tensor_index(b_part, h_part)
        return ("gf", bdeg, b_part, h_part)

    def basis(deg, w=None):
        out = []
        for bdeg in range(0, min(deg, b_max_degree) + 1):
            hdeg = deg - bdeg
            if hdeg > h_dc.max_degree:
                continue
            for bp in b_basis(bdeg, w):
                for hp in h_dc.basis(hdeg, w):
                    out.append(gix(bdeg, bp, hdeg, hp))
        return out

    def split(deg, ix):
        if deg == 0:
            return 0, ix[1], 0, ix[2]
        _, bdeg, bp, hp = ix
        return bdeg, bp, deg - bdeg, hp

    @memoise
    def moved(bdeg2, bp2, g_m2, g_m1, k_m1):
        """(g_m2 . bp2) wedge sigma(g_m1, k_m1) in the base forms."""
        return linear(b_wedge, bdeg2, b_act(g_m2, bdeg2, bp2), 0, s.sigma(g_m1, k_m1))

    @memoise
    def bpart(bdeg1, bp1, bdeg2, bp2, g_m2, g_m1, k_m1):
        """bp1 wedge (g_m2 . bp2) wedge sigma(g_m1, k_m1) in the base forms."""
        return linear(b_wedge, bdeg1, bp1, bdeg2, moved(bdeg2, bp2, g_m2, g_m1, k_m1))

    def wedge_terms(deg1, ix1, deg2, ix2):
        """(index, coefficient) terms of the wedge, the sign (-1)**(hdeg1 * bdeg2) by negation."""
        bdeg1, bp1, hdeg1, hp1 = split(deg1, ix1)
        bdeg2, bp2, hdeg2, hp2 = split(deg2, ix2)
        bdeg, hdeg, odd = bdeg1 + bdeg2, hdeg1 + hdeg2, hdeg1 * bdeg2 % 2
        for c, (g_m2, g_m1, g0) in h_dc.lambda_terms(hdeg1, hp1, 2):
            for c2, (k_m1, k0) in h_dc.lambda_terms(hdeg2, hp2, 1):
                b_terms = bpart(bdeg1, bp1, bdeg2, bp2, g_m2, g_m1, k_m1).terms
                h_terms = h_dc.wedge(hdeg1, g0, hdeg2, k0).terms if b_terms else None
                if not h_terms:
                    continue
                # each product once, for a pair of legs and then a base term
                c12 = c * c2
                for bp, cb in b_terms.items():
                    c12b = c12 * cb
                    for hp, ch in h_terms.items():
                        x = c12b * ch
                        yield gix(bdeg, bp, hdeg, hp), -x if odd else x

    def d(deg, ix):
        bdeg, bp, hdeg, hp = split(deg, ix)
        odd = bdeg % 2
        return sum_terms(
            [(gix(bdeg + 1, bq, hdeg, hp), cb) for bq, cb in b_d(bdeg, bp).terms.items()]
            + [(gix(bdeg, bp, hdeg + 1, hq), -ch if odd else ch) for hq, ch in h_dc.d(hdeg, hp).terms.items()]
        )

    def right_coaction(deg, ix):
        bdeg, bp, hdeg, hp = split(deg, ix)
        return sum_terms(
            (tensor_index(gix(bdeg, bp, hdeg, h0), h1), c)
            for (_, h0, h1), c in h_dc.right_coaction(hdeg, hp).terms.items()
        )

    return GradedDc(
        algebra=cp.algebra,
        max_degree=b_max_degree + h_dc.max_degree,
        basis=basis,
        wedge=lambda *ixs: sum_terms(wedge_terms(*ixs)),
        d=d,
        hopf=cp.hopf,
        right_coaction=right_coaction,
        left_coaction=None,
    )


def _wedge_generators(dc: GradedDc, bases: dict) -> dict:
    """Basis indices, by degree, whose left-normed wedge words span every
    degree of bases.  Degree by degree and in basis order, an index is
    taken when no word yet found has it as leading index; a word is kept
    when its leading index is new, so the kept words are triangular over
    the basis and span it, with no elimination."""
    top = max(bases)
    gens, words = {n: [] for n in bases}, {}  # (degree, leading index) -> word

    def times(p, w, q, g):
        # a word of one term spans the line of its index, so is taken at it
        if len(w.terms) == 1:
            return p + q, dc.wedge(p, *w.terms, q, g)
        return p + q, linear(dc.wedge, p, w, q, g)

    for n in bases:
        for ix in bases[n]:
            if (n, ix) in words:
                continue
            gens[n].append(ix)
            pending = [(n, E(ix))] + [times(p, w, n, ix) for (p, _), w in words.items() if p + n <= top]
            while pending:
                p, w = pending.pop()
                lead = (p, w.leading_index())
                if w.is_zero() or lead in words:
                    continue
                words[lead] = w
                pending.extend(times(p, w, q, g) for q in bases if p + q <= top for g in gens[q])
    return gens


def check_graded_dc(dc: GradedDc, window: int | None = None) -> CheckReport:
    """d squared, graded Leibniz, wedge associativity and the unit on all
    basis elements of total degree at most two.  Each side is the memoised
    map at a basis index, extended linearly over the other slot.

    The forms are truncated above degree two: every wedge and d into degree
    three or more is zero, so a law there holds at once.  On a finite
    algebra with no forms above degree two, `wedge-assoc` and
    `graded-leibniz` are first proved from the generators of
    `_wedge_generators`:
    - by Light's test (A. H. Clifford and G. B. Preston, *The Algebraic
      Theory of Semigroups* I, 1961, section 1.2), the a with (x, a, y) = 0
      for all x and y form a subspace closed under products, so the wedge is
      associative once the triples with a generator in the middle are;
    - with the wedge associative, the x that satisfy Leibniz with every y
      form a subspace closed under products, so Leibniz holds once it holds
      with a generator on the left.
    A law so proved passes as its sweep would; a law that fails there, or a
    windowed algebra, whose window is not closed under products, runs the
    full sweep, which gives the first witness."""
    report = CheckReport(windowed=not dc.algebra.basis.is_finite)

    max_total = 2
    degrees = list(range(0, max_total + 1))
    bases = {n: dc.basis(n, window) for n in degrees}

    def d_squared(item):
        deg, ix = item
        return linear(dc.d, deg + 1, dc.d(deg, ix)).is_zero(), (ix,)

    report.sweep("d-squared", ((n, ix) for n in degrees for ix in bases[n]), d_squared)

    def graded_leibniz(item):
        # d(i ^ j) = di ^ j + (-1)**deg1 i ^ dj, each side one sum of memoised
        # images; for odd deg1 the last sum moves left, so nothing is negated
        deg1, i, deg2, j = item
        lhs = [(dc.d(deg1 + deg2, m), c) for m, c in dc.wedge(deg1, i, deg2, j).terms.items()]
        rhs = [(dc.wedge(deg1 + 1, m, deg2, j), c) for m, c in dc.d(deg1, i).terms.items()]
        (lhs if deg1 % 2 else rhs).extend((dc.wedge(deg1, i, deg2 + 1, m), c) for m, c in dc.d(deg2, j).terms.items())
        return combine(lhs) == combine(rhs), (i, j)

    def leibniz_pairs(lefts):
        return (
            (n1, i, n2, j)
            for n1 in degrees
            for n2 in degrees
            if n1 + n2 <= max_total
            for i in lefts[n1]
            for j in bases[n2]
        )

    tables = {}  # then's rows, one table per then map, shared by its blocks

    def first_hit(block, middles):
        n1, n2, n3 = block
        return first_non_associative(
            bases[n1], middles[n2], bases[n3],
            lambda i, j: dc.wedge(n1, i, n2, j), lambda t, k: dc.wedge(n1 + n2, t, n3, k),
            lambda j, k: dc.wedge(n2, j, n3, k), lambda i, t: dc.wedge(n1, i, n2 + n3, t),
            tables.setdefault((n1 + n2, n3), ({}, {})),
        )

    def assoc(block):
        hit = first_hit(block, bases)
        return hit is None, hit

    blocks = [(n1, n2, n3) for n1 in degrees for n2 in degrees for n3 in degrees if n1 + n2 + n3 <= max_total]
    gens = None if report.windowed or dc.max_degree > max_total else _wedge_generators(dc, bases)
    proved_assoc = gens is not None and all(first_hit(block, gens) is None for block in blocks)
    if proved_assoc and all(graded_leibniz(item)[0] for item in leibniz_pairs(gens)):
        report.record("graded-leibniz", True)
    else:
        report.sweep("graded-leibniz", leibniz_pairs(bases), graded_leibniz)
    if proved_assoc:
        report.record("wedge-assoc", True)
    else:
        report.sweep("wedge-assoc", blocks, assoc)

    def unit_neutral(item):
        deg, ix = item
        lhs = linear(dc.wedge, 0, dc.algebra.unit, deg, ix)
        rhs = linear(dc.wedge, deg, ix, 0, dc.algebra.unit)
        return lhs == rhs == E(ix), (ix,)

    report.sweep("wedge-unit", ((n, ix) for n in degrees for ix in bases[n]), unit_neutral)
    return report


def compare_first_order(cf: CrossedFodc, dc: GradedDc, window: int | None = None) -> CheckReport:
    """Degree-0/1 part of the graded construction against the first order
    construction, map for map."""
    cp = cf.crossed
    report = CheckReport(windowed=not cp.algebra.basis.is_finite)
    a_basis = cp.algebra.basis.enumerate(window)

    def form_to_graded_ix(ix):
        return ("gf", 1, ix[1], ix[2]) if ix[0] == "hor" else ("gf", 0, ix[1], ix[2])

    def to_graded(form_vec: FreeVector) -> FreeVector:
        return form_vec.map_indices(form_to_graded_ix)

    def d_matches(pair_ix):
        lhs = to_graded(cf.d(pair_ix))
        rhs = dc.d(0, pair_ix)  # degree zero of the graded data is the algebra itself
        return lhs == rhs, (pair_ix,)

    report.sweep("first-order.d", a_basis, d_matches)

    form_basis = cf.forms.enumerate(window)

    def graded(form_vec):  # a side's one pair; form_to_graded_ix merges no two indices
        return ({form_to_graded_ix(t): c for t, c in form_vec.terms.items()}, None),

    actions = {
        "first-order.left-action": (
            lambda p, f: graded(cf.left_act(p, f)), lambda p, f: ((dc.wedge(0, p, 1, form_to_graded_ix(f)).terms, None),)
        ),
        "first-order.right-action": (
            lambda p, f: graded(cf.right_act(f, p)), lambda p, f: ((dc.wedge(1, form_to_graded_ix(f), 0, p).terms, None),)
        ),
    }
    for identity, law in actions.items():
        report.sweep_rows(identity, [(p,) for p in a_basis], form_basis, law)

    def coaction_matches(form_ix):
        pairs = cf.right_coaction(form_ix).terms.items()
        lhs = combine((to_graded(E(f0)).tensor(E(h1)), c) for (_, f0, h1), c in pairs)
        rhs = dc.right_coaction(1, form_to_graded_ix(form_ix))
        return lhs == rhs, (form_ix,)

    report.sweep("first-order.coaction", form_basis, coaction_matches)
    return report


def de_rham_cohomology(dc: GradedDc, max_degree: int, window: int | None = None) -> list[int]:
    """Exact kernel and image ranks per degree; entry n is dim H^n."""
    dims = []
    prev_image_rank = 0
    for n in range(0, max_degree + 1):
        basis_n = dc.basis(n, window)
        solver = LinearSolver(lambda ix, n=n: dc.d(n, ix), basis_n)
        kernel_dim = solver.kernel().dim
        dims.append(kernel_dim - prev_image_rank)
        prev_image_rank = solver.dim
    return dims


# ---------------------------------------------------------------------------
# classification of the smash product calculus
# ---------------------------------------------------------------------------


def classify_smash(
    a_calc: Fodc,
    h_calc: Fodc,
    cleft: CleftData,
    window: int | None = None,
    seed: int = 0,
) -> CheckReport:
    """Decide whether a calculus on a trivial extension is the smash
    product calculus, in one report: the derivation checks of its crossed
    product, differentiability and injectivity of the cleaving map,
    independence of the two form blocks and the antisymmetry identity of
    the differentials of the cleaving map and its inverse; when all pass,
    the inverse comparison map is checked to intertwine the differentials."""
    a = cleft.total
    h = a.hopf
    report = CheckReport(windowed=not a.algebra.basis.is_finite)
    rng = random.Random(seed)

    h_basis = h.algebra.basis.enumerate(window)
    a_basis = a.algebra.basis.enumerate(window)
    j = cleft.cleaving
    j_inv = cleft.ensure_inverse(window)

    hit = first_non_multiplicative(h_basis, h_basis, j, h.algebra.mult, a.algebra.mult)
    if hit is not None:
        raise ValueError(f"not a trivial extension: the cleaving map is not an algebra morphism at {witness(*hit)}")
    if not linear(j, h.algebra.unit) == a.algebra.unit:
        raise ValueError("not a trivial extension: the cleaving map is not unital")

    crossed, theta, theta_inv = cleft_to_crossed(cleft, window=window)
    derivation = check_cleft_derivation(cleft, crossed, theta, theta_inv, window=window)
    report.extend(derivation, prefix="trivial-extension.")
    b = crossed.base
    embed = a.coinvariants.embed
    b_basis = b.basis.enumerate(window)

    # pullback calculus on the base: the span of b d_A(b') inside Omega^1(A),
    # widened when an action leaves the window; its forms are the independent
    # pairs ("pb", b, b') of a window
    pairs = b.basis.pairs("pb")
    pb = WindowSolver(lambda ix: linear(a_calc.left_act, embed(ix[1]), linear(a_calc.d, embed(ix[2]))), pairs, window)

    def express_pb(v: FreeVector, what: str):
        try:
            return pb.express(v)
        except NoSolution:
            raise ValueError(f"pullback forms are not closed under {what}") from None

    def pb_window(w=window):
        pb.grow(w)
        inside = set(pairs.enumerate(w))
        return [label for label in pb.labels if label in inside]

    def b_fodc_left(b_ix, pb_ix):
        return express_pb(linear(a_calc.left_act, embed(b_ix), pb.vectors[pb_ix]), "the left action")

    def b_fodc_right(pb_ix, b_ix):
        return express_pb(linear(a_calc.right_act, pb.vectors[pb_ix], embed(b_ix)), "the right action")

    def b_fodc_d(b_ix):
        return express_pb(linear(a_calc.d, embed(b_ix)), "the differential")

    b_fodc = Fodc(
        algebra=b,
        forms=BasisFamily.spanned(pb_window, b.basis),
        left_act=b_fodc_left,
        right_act=b_fodc_right,
        d=b_fodc_d,
    )

    # sampled torsion-freeness of the form module
    form_basis = a_calc.forms.enumerate(window)
    samples = [E(ix) for ix in a_basis]
    for _ in range(4):
        picks = rng.sample(a_basis, k=min(3, len(a_basis)))
        combo = FreeVector.zero()
        for p in picks:
            combo = combo + E(p, CycScalar.from_rational(rng.randint(1, 5)))
        samples.append(combo)
    torsion_ok, torsion_witness = True, None
    for sample in samples:
        if sample.is_zero():
            continue
        left_solver = LinearSolver(lambda fx, sample=sample: linear(a_calc.left_act, sample, fx), form_basis)
        right_solver = LinearSolver(lambda fx, sample=sample: linear(a_calc.right_act, fx, sample), form_basis)
        if left_solver.kernel().dim or right_solver.kernel().dim:
            torsion_ok, torsion_witness = False, witness(sample)
            break
    report.add("torsion-free", SAMPLED if torsion_ok else FAIL, torsion_witness)

    # (1) the cleaving map is differentiable with injective differential
    h_form_basis = h_calc.forms.enumerate(window)
    h_pres = presentation_solver(h_calc, window)

    def j_hat_pair(hx, hy):
        return linear(a_calc.left_act, j(hx), linear(a_calc.d, j(hy)))

    cond1_ok, cond1_witness = True, None
    def j_hat_of(presentation):
        return combine((j_hat_pair(hx, hy), c) for (_, hx, hy), c in presentation.terms.items())

    for kappa in h_pres.kernel().basis():
        if not j_hat_of(kappa).is_zero():
            cond1_ok, cond1_witness = False, f"j not differentiable on {kappa.to_text()}"
            break

    @memoise
    def j_hat(h_form_ix):
        return j_hat_of(h_pres.solve(E(h_form_ix)))

    if cond1_ok:
        inj = LinearSolver(j_hat, h_form_basis)
        if inj.kernel().dim:
            cond1_ok, cond1_witness = False, "differential of the cleaving map has a kernel"
    report.record("classification-(1)", cond1_ok, witness=cond1_witness)

    # (2) the two candidate blocks intersect trivially
    block_hor = Subspace()
    for pb_ix in pb_window():
        for hx in h_basis:
            block_hor.add(linear(a_calc.right_act, pb.vectors[pb_ix], j(hx)))
    block_ver = Subspace()
    for bx in b_basis:
        for fx in h_form_basis:
            block_ver.add(linear(a_calc.left_act, embed(bx), j_hat(fx)))
    overlap = intersection_dim(block_hor, block_ver)
    report.record(
        "classification-(2)",
        overlap == 0,
        witness=None if overlap == 0 else f"blocks intersect in dimension {overlap}",
    )

    # (3) antisymmetry of the differentials of j and its inverse
    def cond3(pair):
        hx, bx = pair
        total = combine(
            (
                linear(a_calc.right_act, linear(a_calc.right_act, linear(a_calc.d, j(h1)), embed(bx)), j_inv(h2))
                + linear(a_calc.left_act, linear(a.algebra.mult, j(h1), embed(bx)), linear(a_calc.d, j_inv(h2))),
                c,
            )
            for c, (h1, h2) in h.sweedler(hx, 2)
        )
        return total.is_zero(), (hx, bx)

    report.sweep("classification-(3)", ((hx, bx) for hx in h_basis for bx in b_basis), cond3)

    if not report.ok:
        return report

    smash_cf = build_crossed_fodc(crossed, b_fodc, h_calc, window=window)

    def theta_hat_inv_ix(form_ix):
        if form_ix[0] == "hor":
            _, pb_ix, hx = form_ix
            return linear(a_calc.right_act, pb.vectors[pb_ix], j(hx))
        _, bx, fx = form_ix
        return linear(a_calc.left_act, embed(bx), j_hat(fx))

    theta_hat_inv = memoise(theta_hat_inv_ix)
    smash_forms = smash_cf.forms.enumerate(window)

    bij = LinearSolver(theta_hat_inv, smash_forms).named("theta_hat^-1")
    injective = bij.kernel().dim == 0
    surj_ok, surj_witness = True, None
    for fx in form_basis:
        try:
            bij.solve(E(fx))
        except NoSolution:
            surj_ok, surj_witness = False, witness(fx)
            break
    report.record(
        "comparison.bijective",
        injective and surj_ok,
        witness=surj_witness if not surj_ok else (None if injective else "kernel found"),
    )

    def intertwines(pair_ix):
        lhs = linear(theta_hat_inv, smash_cf.d(pair_ix))
        rhs = linear(a_calc.d, theta_inv(pair_ix))
        return lhs == rhs, (pair_ix,)

    report.sweep("comparison.intertwines-d", crossed.algebra.basis.enumerate(window), intertwines)

    def bimodule_map(item):
        pair_ix, form_ix = item
        lhs = linear(theta_hat_inv, smash_cf.left_act(pair_ix, form_ix))
        rhs = linear(a_calc.left_act, theta_inv(pair_ix), theta_hat_inv(form_ix))
        lhs2 = linear(theta_hat_inv, smash_cf.right_act(form_ix, pair_ix))
        rhs2 = linear(a_calc.right_act, theta_hat_inv(form_ix), theta_inv(pair_ix))
        return lhs == rhs and lhs2 == rhs2, (pair_ix, form_ix)

    report.sweep(
        "comparison.bimodule-map",
        (
            (p, f)
            for p in crossed.algebra.basis.enumerate(window)
            for f in smash_forms
        ),
        bimodule_map,
    )
    return report
