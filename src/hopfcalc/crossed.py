"""Measures, 2-cocycles, crossed products, cleft data and the Galois map.

The crossed product multiplication, the twisted-module and cocycle laws
and the cleft correspondence are implemented directly from their
defining identities; nothing is taken on faith, every construction is
re-verified by the checkers in this module.
"""

from __future__ import annotations

from typing import Callable, Optional

from hopfcalc.hopf import (
    AlgebraPresentation,
    BasisFamily,
    CoinvariantFamily,
    ComoduleAlgebra,
    HopfData,
    WindowSolver,
    colinear,
    convolution_inverse,
    tensor_square_coalgebra,
)
from hopfcalc.linalg import (
    FreeVector,
    LinearSolver,
    balanced_tensor,
    combine,
    first_non_associative,
    first_non_multiplicative,
    linear,
    memoise,
    memoise_fields,
    record,
    sum_terms,
    tensor_index,
)
from hopfcalc.report import FAIL, PASS, CheckReport, witness

Index = tuple
E = FreeVector.basis
# the window on which `build_crossed_product` probes associativity of an infinite basis
_VERIFY_WINDOW = 2


@record
class Measure:
    act: Callable[[Index, Index], FreeVector]  # (H-basis, B-basis) -> B

    def __post_init__(self):
        memoise_fields(self, "act")


@record
class Cocycle:
    sigma: Callable[[Index, Index], FreeVector]  # (H, H) -> B
    sigma_inv: Callable[[Index, Index], FreeVector]

    def __post_init__(self):
        memoise_fields(self, "sigma", "sigma_inv")


def trivial_cocycle(b: AlgebraPresentation, h: HopfData) -> Cocycle:
    def sigma(hi, ki):
        return b.unit.scale(h.counit(hi) * h.counit(ki))

    return Cocycle(sigma=sigma, sigma_inv=sigma)


def cocycle_from_sigma(sigma, b: AlgebraPresentation, h: HopfData, window: int | None = None) -> Cocycle:
    """Complete a 2-cocycle by computing its convolution inverse on H (x) H."""
    sq = tensor_square_coalgebra(h)
    h_basis = h.algebra.basis.enumerate(window)
    c_basis = [tensor_index(i, j) for i in h_basis for j in h_basis]
    # built first, so that the inversion below fills the memoised sigma;
    # sigma_inv is only called after g is bound
    cocycle = Cocycle(sigma=sigma, sigma_inv=lambda i, j: g(tensor_index(i, j)))
    g = convolution_inverse(lambda pair: cocycle.sigma(pair[1], pair[2]), sq, c_basis, b, window=window)
    return cocycle


def check_twisted_module_algebra(
    b: AlgebraPresentation,
    h: HopfData,
    m: Measure,
    s: Cocycle,
    window: int | None = None,
) -> CheckReport:
    """Verify the measure axioms, twisted associativity, the cocycle law,
    normalization and the convolution identities, with witnesses."""
    report = CheckReport(windowed=not (b.basis.is_finite and h.algebra.basis.is_finite))
    b_basis = b.basis.enumerate(window)
    h_basis = h.algebra.basis.enumerate(window)

    def measure_unit(hi):
        lhs = linear(m.act, hi, b.unit)
        return lhs == b.unit.scale(h.counit(hi)), (hi,)

    report.sweep("measure.unit", h_basis, measure_unit)

    def mult_lhs(hi, bi, bj):
        return ((m.act(hi, t).terms, c) for t, c in b.mult(bi, bj).terms.items())

    def mult_rhs(hi, bi, bj):
        for c, (h1, h2) in h.sweedler(hi, 2):
            right = m.act(h2, bj).scale(c).terms.items()
            for s1, c1 in m.act(h1, bi).terms.items():
                for s2, c2 in right:
                    yield b.mult(s1, s2).terms, c1 * c2

    report.sweep_rows("measure.multiplicative", [(hi, bi) for hi in h_basis for bi in b_basis], b_basis, (mult_lhs, mult_rhs))

    def unit_acts(bi):
        return linear(m.act, h.algebra.unit, bi) == E(bi), (bi,)

    report.sweep("measure.unit-action", b_basis, unit_acts)

    def twisted_lhs(hi, hj, bi):
        return ((m.act(hi, t).terms, c) for t, c in m.act(hj, bi).terms.items())

    def twisted_rhs(hi, hj, bi):
        for c1, (x1, x2, x3) in h.sweedler(hi, 3):
            for c2, (y1, y2, y3) in h.sweedler(hj, 3):
                middle = linear(m.act, h.algebra.mult(x2, y2), bi)
                yield b.product(s.sigma(x1, y1), middle, s.sigma_inv(x3, y3)).terms, c1 * c2

    h_pairs = [(hi, hj) for hi in h_basis for hj in h_basis]
    report.sweep_rows("twisted-module", h_pairs, b_basis, (twisted_lhs, twisted_rhs))

    def cocycle_lhs(hi, hj, hk):
        for c1, (x1, x2) in h.sweedler(hi, 2):
            for c2, (y1, y2) in h.sweedler(hj, 2):
                for c3, (z1, z2) in h.sweedler(hk, 2):
                    acted = linear(m.act, x1, s.sigma(y1, z1))
                    yield linear(b.mult, acted, linear(s.sigma, x2, h.algebra.mult(y2, z2))).terms, c1 * c2 * c3

    def cocycle_rhs(hi, hj, hk):
        for c1, (x1, x2) in h.sweedler(hi, 2):
            for c2, (y1, y2) in h.sweedler(hj, 2):
                yield linear(b.mult, s.sigma(x1, y1), linear(s.sigma, h.algebra.mult(x2, y2), hk)).terms, c1 * c2

    report.sweep_rows("cocycle", h_pairs, h_basis, (cocycle_lhs, cocycle_rhs))

    def normalized(hi):
        want = b.unit.scale(h.counit(hi))
        ok = linear(s.sigma, hi, h.algebra.unit) == want and linear(s.sigma, h.algebra.unit, hi) == want
        return ok, (hi,)

    report.sweep("cocycle.normalized", h_basis, normalized)

    def convolution(pair):
        hi, hj = pair
        legs = [(c1 * c2, x1, x2, y1, y2) for c1, (x1, x2) in h.sweedler(hi, 2) for c2, (y1, y2) in h.sweedler(hj, 2)]
        left = combine((linear(b.mult, s.sigma(x1, y1), s.sigma_inv(x2, y2)), c) for c, x1, x2, y1, y2 in legs)
        right = combine((linear(b.mult, s.sigma_inv(x1, y1), s.sigma(x2, y2)), c) for c, x1, x2, y1, y2 in legs)
        want = b.unit.scale(h.counit(hi) * h.counit(hj))
        return left == want and right == want, (hi, hj)

    report.sweep("cocycle.convolution-inverse", ((hi, hj) for hi in h_basis for hj in h_basis), convolution)
    return report


@record
class CrossedProduct:
    base: AlgebraPresentation
    hopf: HopfData
    measure: Measure
    cocycle: Cocycle
    algebra: AlgebraPresentation
    comodule: ComoduleAlgebra
    hypotheses: CheckReport  # the twisted-module checks that admitted it


def build_crossed_product(
    b: AlgebraPresentation,
    h: HopfData,
    m: Measure,
    s: Cocycle,
    window: int | None = None,
) -> CrossedProduct:
    """Crossed product algebra on pair indices; the twisted-module and
    cocycle hypotheses are enforced before anything is assembled, and
    their report is kept as `hypotheses`."""
    pre = check_twisted_module_algebra(b, h, m, s, window=window)
    pre.require("crossed product hypothesis failed:")

    def mult(i, j):
        (_, bi, hi), (_, bj, hj) = i, j
        return combine(
            (b.product(bi, m.act(h1, bj), s.sigma(h2, k1)).tensor(h.algebra.mult(h3, k2)), c1 * c2)
            for c1, (h1, h2, h3) in h.sweedler(hi, 3)
            for c2, (k1, k2) in h.sweedler(hj, 2)
        )

    def pairs(w):
        return [tensor_index(bi, hi) for bi in b.basis.enumerate(w) for hi in h.algebra.basis.enumerate(w)]

    algebra = AlgebraPresentation(
        basis=BasisFamily.spanned(pairs, b.basis, h.algebra.basis),
        mult=mult,
        unit=b.unit.tensor(h.algebra.unit),
        scalar_order=max(b.scalar_order, h.algebra.scalar_order),
    )

    def coaction(i):
        _, bi, hi = i
        return sum_terms((tensor_index(tensor_index(bi, h1), h2), c) for (_, h1, h2), c in h.comul(hi).terms.items())

    coinv = CoinvariantFamily(algebra=b, embed=lambda bi: FreeVector.basis(bi).tensor(h.algebra.unit))
    comodule = ComoduleAlgebra(algebra=algebra, hopf=h, coaction=coaction, coinvariants=coinv)

    probe = algebra.basis.enumerate(None if algebra.basis.is_finite else _VERIFY_WINDOW)
    hit = first_non_associative(probe, probe, probe, algebra.mult, algebra.mult, algebra.mult, algebra.mult)
    if hit is not None:
        raise ValueError(f"crossed product not associative at {witness(*hit)}")
    return CrossedProduct(
        base=b, hopf=h, measure=m, cocycle=s, algebra=algebra, comodule=comodule, hypotheses=pre
    )


@record
class CleftData:
    total: ComoduleAlgebra
    cleaving: Callable[[Index], FreeVector]
    cleaving_inv: Optional[Callable[[Index], FreeVector]] = None

    def __post_init__(self):
        memoise_fields(self, "cleaving", "cleaving_inv")

    def ensure_inverse(self, window: int | None = None) -> Callable[[Index], FreeVector]:
        if self.cleaving_inv is None:
            h = self.total.hopf
            self.cleaving_inv = convolution_inverse(
                self.cleaving,
                h,
                h.algebra.basis.enumerate(window),
                self.total.algebra,
                window=window,
            )
        return self.cleaving_inv


def _split_ix(
    a: ComoduleAlgebra,
    j_inv: Callable[[Index], FreeVector],
    express: Callable[[FreeVector], FreeVector],
    right: Callable[[Index], FreeVector],
) -> Callable[[Index], FreeVector]:
    """a -> a_0 j^-1(a_1) (x) right(a_2), with the left leg expressed over the base."""

    def split_ix(a_ix):
        return combine(
            (express(linear(a.algebra.mult, a0, j_inv(a1))).tensor(right(a2)), c)
            for c, (a0, a1, a2) in a.coaction_terms(a_ix, 2)
        )

    return split_ix


def cleft_to_crossed(cleft: CleftData, window: int | None = None):
    """Derive measure and cocycle from a cleaving map and rebuild the
    crossed product, together with the comparison isomorphism and its
    inverse.  Returns (CrossedProduct, theta, theta_inv); that they are
    inverse colinear algebra maps is `check_cleft_derivation`'s to verify."""
    a = cleft.total
    h = a.hopf
    if a.coinvariants is None:
        raise ValueError("cleft data needs a coinvariant presentation of the base")
    j = cleft.cleaving
    j_inv = cleft.ensure_inverse(window)
    b = a.coinvariants.algebra
    embed = a.coinvariants.embed
    express = WindowSolver(embed, b.basis, window).named("embed").solve

    def measure_act(hi, bi):
        return express(
            combine((a.algebra.product(j(h1), embed(bi), j_inv(h2)), c) for c, (h1, h2) in h.sweedler(hi, 2))
        )

    def sigma(hi, hj):
        return express(
            combine(
                (a.algebra.product(j(h1), j(k1), linear(j_inv, h.algebra.mult(h2, k2))), c1 * c2)
                for c1, (h1, h2) in h.sweedler(hi, 2)
                for c2, (k1, k2) in h.sweedler(hj, 2)
            )
        )

    cocycle = cocycle_from_sigma(sigma, b, h, window=window)
    crossed = build_crossed_product(b, h, Measure(act=measure_act), cocycle, window=window)

    def theta_inv_ix(pair_ix):
        _, bi, hi = pair_ix
        return linear(a.algebra.mult, embed(bi), j(hi))

    return crossed, memoise(_split_ix(a, j_inv, express, E)), memoise(theta_inv_ix)


def check_cleft_derivation(
    cleft: CleftData, crossed: CrossedProduct, theta: Callable, theta_inv: Callable, window: int | None = None
) -> CheckReport:
    """Verify that the cleaving map is unital and colinear, and that the
    comparison maps of `cleft_to_crossed` are inverse colinear algebra maps
    between the extension and its crossed product."""
    a = cleft.total
    h = a.hopf
    j = cleft.cleaving
    report = CheckReport(windowed=not (a.algebra.basis.is_finite and h.algebra.basis.is_finite))
    # exact on any basis: the cleaving map is evaluated at the unit alone
    report.add("cleaving.unital", PASS if linear(j, h.algebra.unit) == a.algebra.unit else FAIL)
    report.sweep("cleaving.colinear", h.algebra.basis.enumerate(window), colinear(j, h.comul, a.coaction))

    a_basis = a.algebra.basis.enumerate(window)
    pair_basis = crossed.algebra.basis.enumerate(window)
    report.sweep("theta.left-inverse", a_basis, lambda ix: (linear(theta_inv, theta(ix)) == E(ix), (ix,)))
    report.sweep("theta.right-inverse", pair_basis, lambda ix: (linear(theta, theta_inv(ix)) == E(ix), (ix,)))
    hit = first_non_multiplicative(a_basis, a_basis, theta, a.algebra.mult, crossed.algebra.mult)
    report.record("theta.algebra-map", hit is None, hit and witness(*hit))
    report.sweep("theta.colinear", a_basis, colinear(theta, a.coaction, crossed.comodule.coaction))
    return report


def equivariant_section(cleft: CleftData, window: int | None = None):
    """The splitting a -> a_0 j^-1(a_1) (x) j(a_2) of the multiplication
    B (x) A -> A; verified to split, to be left base-linear and right
    colinear.  Returns (section, report)."""
    a = cleft.total
    if a.coinvariants is None:
        raise ValueError("section needs a coinvariant presentation of the base")
    j = cleft.cleaving
    j_inv = cleft.ensure_inverse(window)
    embed = a.coinvariants.embed
    report = CheckReport(windowed=not a.algebra.basis.is_finite)
    express = WindowSolver(embed, a.coinvariants.algebra.basis, window).named("embed").solve
    section = memoise(_split_ix(a, j_inv, express, j))
    a_basis = a.algebra.basis.enumerate(window)
    b_basis = a.coinvariants.algebra.basis.enumerate(window)

    def base_act(b_ix, a_ix):
        return linear(a.algebra.mult, embed(b_ix), a_ix)

    def splits(a_ix):
        total = combine((base_act(b_ix, a2_ix), c) for (_, b_ix, a2_ix), c in section(a_ix).terms.items())
        return total == E(a_ix), (a_ix,)

    report.sweep("section.splits-multiplication", a_basis, splits)

    # the target B (x) A: b (b' (x) a) = b b' (x) a, coacting on its right leg
    def target_act(b_ix, t_ix):
        _, b2_ix, a2_ix = t_ix
        return a.coinvariants.algebra.mult(b_ix, b2_ix).tensor(E(a2_ix))

    def target_coaction(t_ix):
        _, b_ix, a2_ix = t_ix
        return a.coaction(a2_ix).map_indices(lambda ix: tensor_index(tensor_index(b_ix, ix[1]), ix[2]))

    hit = first_non_multiplicative(b_basis, a_basis, section, base_act, target_act, acting=True)
    report.record("section.left-base-linear", hit is None, hit and witness(*hit))
    report.sweep("section.right-colinear", a_basis, colinear(section, a.coaction, target_coaction))
    return section, report


@record
class HopfGaloisResult:
    report: CheckReport
    balanced_dim: int
    target_dim: int
    rank: int

    @property
    def bijective(self) -> bool:
        return self.rank == self.balanced_dim == self.target_dim


def check_hopf_galois(a: ComoduleAlgebra) -> HopfGaloisResult:
    """Assemble A (x)_B A with `linalg.balanced_tensor` and decide bijectivity
    of a (x) a' -> a a'_0 (x) a'_1 by exact rank.  Finite-dimensional A only."""
    if not a.algebra.basis.is_finite:
        raise ValueError("Galois check needs a finite-dimensional comodule algebra")
    coinv = a.coinvariants
    if coinv is None:
        raise ValueError("no coinvariant data supplied")
    report = CheckReport()
    a_basis = a.algebra.basis.enumerate()
    h_basis = a.hopf.algebra.basis.enumerate()
    b_vectors = [coinv.embed(ix) for ix in coinv.algebra.basis.enumerate()]
    balanced = balanced_tensor(a_basis, b_vectors, a_basis, a.algebra.mult, a.algebra.mult, "bal")

    def can_raw(pair_ix):
        _, i, k = pair_ix
        return combine((a.algebra.mult(i, k0).tensor(E(k1)), c) for c, (k0, k1) in a.coaction_terms(k, 1))

    can = memoise(can_raw)

    # can must kill the balanced relations to be defined on the quotient
    report.sweep(
        "hopf-galois.well-defined",
        balanced.sub.basis(),
        lambda rel: (linear(can, rel).is_zero(), (rel,)),
    )

    def can_on_class(cls_ix):
        return linear(can, balanced.representatives[cls_ix[1]])

    rank = LinearSolver(can_on_class, balanced.labels).dim
    target_dim = len(a_basis) * len(h_basis)
    report.record(
        "hopf-galois.bijective",
        rank == balanced.dim == target_dim,
        witness=f"rank {rank}, balanced dim {balanced.dim}, target dim {target_dim}",
    )
    return HopfGaloisResult(report=report, balanced_dim=balanced.dim, target_dim=target_dim, rank=rank)
