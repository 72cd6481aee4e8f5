"""Hopf algebra and comodule algebra presentations, checkers and builders.

Structures are plain data: a basis (finite list or window enumerator),
computable structure maps returning FreeVectors, and a scalar order.
Axioms are never assumed; `check_hopf_axioms` and
`check_comodule_algebra` verify them exhaustively on finite bases and
on a window otherwise.
"""

from __future__ import annotations

import re
from typing import Callable, Optional

from hopfcalc.linalg import (
    FreeVector,
    LinearSolver,
    NoSolution,
    combine,
    first_non_associative,
    flatten_left,
    flatten_right,
    format_index,
    index_sort_key,
    linear,
    memoise,
    memoise_fields,
    record,
    sum_terms,
    tensor_index,
)
from hopfcalc.report import FAIL, PASS, CheckReport, witness
from hopfcalc.scalars import CycScalar, multiplicative_order, parse_scalar, signed_terms

Index = tuple
E = FreeVector.basis


class BasisFamily:
    """Finite basis enumeration, or a window enumerator for Z^k-indexed families."""

    def __init__(self, indices=None, window_fn=None):
        if (indices is None) == (window_fn is None):
            raise ValueError("give exactly one of indices / window_fn")
        self.indices = sorted(indices, key=index_sort_key) if indices is not None else None
        self.window_fn = window_fn

    @property
    def is_finite(self) -> bool:
        return self.indices is not None

    def enumerate(self, window: int | None = None) -> list[Index]:
        if self.indices is not None:
            return list(self.indices)
        if window is None:
            raise ValueError("infinite basis needs an explicit window")
        return sorted(self.window_fn(window), key=index_sort_key)

    @classmethod
    def spanned(cls, fn, *parts: BasisFamily) -> BasisFamily:
        """The family fn(w) lists from the window w of each part: finite, as
        fn(None), when every part is finite, and a window family otherwise."""
        if all(part.is_finite for part in parts):
            return cls(indices=fn(None))
        return cls(window_fn=fn)

    def pairs(self, tag: str) -> BasisFamily:
        """The family of the indices (tag, i, j), i and j in the same window of this one."""

        def pairs(w):
            ixs = self.enumerate(w)
            return [(tag, i, j) for i in ixs for j in ixs]

        return BasisFamily.spanned(pairs, self)


# a windowed solve widens its window up to this many base windows
_GROWTH = 3


class WindowSolver(LinearSolver):
    """The `LinearSolver` of f over family.enumerate(window), widened on a miss.

    When `express` (and so `solve`) finds a target outside the span, the
    columns of the indices that the next window adds, one base window
    further out, go in after the old ones, up to `_GROWTH` base windows;
    so every label and vector handed out stays valid, and each column is
    evaluated once.  A finite family is one window and never grows.
    """

    def __init__(self, f: Callable[[Index], FreeVector], family: BasisFamily, window: int | None):
        super().__init__(f, family.enumerate(window))
        self.family, self.base, self.window = family, window, window

    def grow(self, window: int) -> None:
        """Add the columns of the indices that window adds to the current one."""
        if self.family.is_finite or window <= self.window:
            return
        old = set(self.family.enumerate(self.window))
        for ix in self.family.enumerate(window):
            if ix not in old:
                self.add(ix, self.f(ix))
        self.window = window

    def express(self, v: FreeVector) -> FreeVector:
        while True:
            try:
                return super().express(v)
            except NoSolution:
                if self.family.is_finite or self.window >= _GROWTH * self.base:
                    raise
            self.grow(self.window + self.base)


@record
class AlgebraPresentation:
    basis: BasisFamily
    mult: Callable[[Index, Index], FreeVector]
    unit: FreeVector
    scalar_order: int = 1

    def __post_init__(self):
        memoise_fields(self, "mult")

    def product(self, *factors) -> FreeVector:
        """The product of two or more factors, each a vector or a basis index."""
        out = factors[0]
        for factor in factors[1:]:
            out = linear(self.mult, out, factor)
        return out


def monomial_unit(algebra: AlgebraPresentation, needed_by: str) -> Index:
    """The basis index e of a unit that is e itself, with coefficient one;
    a ValueError saying that needed_by needs a monomial unit otherwise."""
    terms = algebra.unit.terms
    if len(terms) != 1 or not next(iter(terms.values())).is_one():
        raise ValueError(f"{needed_by} needs a monomial unit")
    return next(iter(terms))


def tensor_mult(left_mult, right_mult):
    """Componentwise product on pair indices (no braiding): left_mult on the
    left legs, right_mult on the right ones."""
    return lambda i, j: left_mult(i[1], j[1]).tensor(right_mult(i[2], j[2]))


def tensor_algebra(left: AlgebraPresentation, right: AlgebraPresentation) -> AlgebraPresentation:
    """Componentwise product on pair indices (no braiding)."""

    def pairs(w):
        return [tensor_index(i, j) for i in left.basis.enumerate(w) for j in right.basis.enumerate(w)]

    return AlgebraPresentation(
        basis=BasisFamily.spanned(pairs, left.basis, right.basis),
        mult=tensor_mult(left.mult, right.mult),
        unit=left.unit.tensor(right.unit),
        scalar_order=max(left.scalar_order, right.scalar_order),
    )


@record
class HopfData:
    algebra: AlgebraPresentation
    comul: Callable[[Index], FreeVector]
    counit: Callable[[Index], CycScalar]
    antipode: Callable[[Index], FreeVector]
    antipode_inv: Callable[[Index], FreeVector]

    def __post_init__(self):
        memoise_fields(self, "comul", "counit", "sweedler", "antipode", "antipode_inv")

    def counit_vec(self, v: FreeVector) -> CycScalar:
        out = CycScalar.zero(self.algebra.scalar_order)
        for ix, c in v.terms.items():
            out = out + self.counit(ix) * c
        return out

    def sweedler(self, ix: Index, legs: int):
        """Iterated comultiplication of a basis element as flat leg tuples."""
        one = CycScalar.one(self.algebra.scalar_order)
        terms = {(ix,): one}
        for _ in range(legs - 1):
            nxt = {}
            for tup, c in terms.items():
                for pair_ix, c2 in self.comul(tup[-1]).terms.items():
                    _, i, j = pair_ix
                    key2 = tup[:-1] + (i, j)
                    prev = nxt.get(key2)
                    prod = c * c2
                    nxt[key2] = prod if prev is None else prev + prod
            terms = {t: c for t, c in nxt.items() if not c.is_zero()}
        return [(c, t) for t, c in terms.items()]

    def coaction_legs(self, value: FreeVector, legs: int, left: bool = False):
        """(coeff, legs) terms of a coaction value with its H factor split
        into `legs` Sweedler legs: (x, h_1, ..., h_legs) for a right
        coaction value X (x) H, (h_1, ..., h_legs, x) for a left one H (x) X."""
        out = []
        for (_, first, second), c in value.terms.items():
            if legs == 1:
                out.append((c, (first, second)))
            elif left:
                for c2, tup in self.sweedler(first, legs):
                    out.append((c * c2, tup + (second,)))
            else:
                for c2, tup in self.sweedler(second, legs):
                    out.append((c * c2, (first,) + tup))
        return out

    def sweedler_vec(self, v: FreeVector, legs: int):
        acc = {}
        for ix, c in v.terms.items():
            for c2, tup in self.sweedler(ix, legs):
                prev = acc.get(tup)
                prod = c * c2
                acc[tup] = prod if prev is None else prev + prod
        return [(c, t) for t, c in acc.items() if not c.is_zero()]


@record
class CoinvariantFamily:
    """Coinvariant subalgebra: its presentation and its embedding."""

    algebra: AlgebraPresentation
    embed: Callable[[Index], FreeVector]


@record
class ComoduleAlgebra:
    algebra: AlgebraPresentation
    hopf: HopfData
    coaction: Callable[[Index], FreeVector]
    coinvariants: Optional[CoinvariantFamily] = None

    def __post_init__(self):
        memoise_fields(self, "coaction")

    def coaction_terms(self, ix: Index, h_legs: int):
        """rho iterated: (coeff, (a_index, h_1, ..., h_legs)) tuples."""
        return self.hopf.coaction_legs(self.coaction(ix), h_legs)


# ---------------------------------------------------------------------------
# comodule and module laws
# ---------------------------------------------------------------------------
#
# Each law is written once, here.  A builder returns the test of its law at
# one basis item, or at one pair of them, in the form `CheckReport.sweep`
# takes: (ok, the item as witness parts); the algebra-map and left-linearity
# laws return the two sides (left, right) that `CheckReport.sweep_rows`
# compares at a row (x,) and a y.  A left coaction X -> H (x) X is a right
# coaction of the co-opposite H^cop, whose comultiplication is the flipped
# one, so a left-side law is the right-side builder applied to `flipped`
# maps.


def _swap(ix: Index) -> Index:
    return tensor_index(ix[2], ix[1])


def flipped(coaction: Callable[[Index], FreeVector]) -> Callable[[Index], FreeVector]:
    """The map read with its two tensor legs swapped: H (x) X as X (x) H."""
    return memoise(lambda ix: coaction(ix).map_indices(_swap))


def _legs_commute(outer_left, inner_left, outer_right, inner_right):
    """Test of (outer_left (x) id) inner_left == (id (x) outer_right) inner_right
    at a basis item, both sides read as flat triples."""

    def test(x):
        lhs = combine((outer_left(l).tensor(E(r)), c) for (_, l, r), c in inner_left(x).terms.items())
        rhs = combine((E(l).tensor(outer_right(r)), c) for (_, l, r), c in inner_right(x).terms.items())
        return flatten_left(lhs) == flatten_right(rhs), (x,)

    return test


def coassociative(rho, comul):
    """Test of (rho (x) id) rho == (id (x) comul) rho at a basis item: rho is
    a right comodule structure over comul (with rho = comul, coassociativity)."""
    return _legs_commute(rho, rho, comul, rho)


def counital(rho, counit):
    """Test of (id (x) counit) rho == id at a basis item."""

    def test(x):
        out = sum_terms((x0, c * counit(hx)) for (_, x0, hx), c in rho(x).terms.items())
        return out == E(x), (x,)

    return test


def colinear(phi, source, target):
    """Test of target(phi(x)) == (phi (x) id) source(x) at a basis item x:
    phi is a map of right comodules from the coaction source to target."""

    def test(x):
        lhs = linear(target, phi(x))
        rhs = combine((phi(x0).tensor(E(hx)), c) for (_, x0, hx), c in source(x).terms.items())
        return lhs == rhs, (x,)

    return test


def bicomodule(lam, rho):
    """Test of (lam (x) id) rho == (id (x) rho) lam at a basis item: a left
    coaction lam and a right coaction rho commute."""
    return _legs_commute(lam, rho, rho, lam)


def image_of_product(phi, source):
    """The side phi(source(x, y)) at a row (x,) and y, with phi extended
    linearly: the left side of `multiplicative`, `left_linear` and
    `fodc.leibniz`."""

    def left(x, y):
        return ((phi(m).terms, c) for m, c in source(x, y).terms.items())

    return left


def multiplicative(phi, source, target):
    """The sides of phi(x y) == phi(x) phi(y) at a row (x,) and y: phi is an
    algebra map from the product source to the product target."""

    def right(x, y):
        y_terms = phi(y).terms.items()
        for a, ca in phi(x).terms.items():
            for b, cb in y_terms:
                yield target(a, b).terms, ca * cb

    return image_of_product(phi, source), right


def left_linear(phi, source, target):
    """The sides of phi(x . y) == x . phi(y) at a row (x,) and y: phi is
    linear for the left actions source and target."""

    def right(x, y):
        return ((target(x, b).terms, c) for b, c in phi(y).terms.items())

    return image_of_product(phi, source), right


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------


def check_hopf_axioms(h: HopfData, window: int | None = None) -> CheckReport:
    """Per-axiom pass/fail with a witness basis element on failure."""
    alg = h.algebra
    report = CheckReport(windowed=not alg.basis.is_finite)
    basis = alg.basis.enumerate(window)
    one = CycScalar.one(alg.scalar_order)

    hit = first_non_associative(basis, basis, basis, alg.mult, alg.mult, alg.mult, alg.mult)
    report.record("algebra.assoc", hit is None, hit and witness(*hit))

    def unital(ix):
        e = FreeVector.basis(ix)
        ok = linear(alg.mult, alg.unit, ix) == e and linear(alg.mult, ix, alg.unit) == e
        return ok, (ix,)

    report.sweep("algebra.unit", basis, unital)

    report.sweep("coalgebra.coassoc", basis, coassociative(h.comul, h.comul))
    report.sweep("coalgebra.counit", basis, counital(flipped(h.comul), h.counit), counital(h.comul, h.counit))
    square = tensor_algebra(alg, alg)
    report.sweep_rows("bialgebra.comul-mult", [(x,) for x in basis], basis, multiplicative(h.comul, alg.mult, square.mult))
    # the unit identities evaluate at the unit alone, so they are exact on any basis
    comul_unit = linear(h.comul, alg.unit) == alg.unit.tensor(alg.unit)
    report.add("bialgebra.comul-unit", PASS if comul_unit else FAIL)

    def counit_is_algebra_map(pair):
        i, j = pair
        lhs = h.counit_vec(alg.mult(i, j))
        rhs = h.counit(i) * h.counit(j)
        return lhs == rhs, (i, j)

    report.sweep("bialgebra.counit-mult", ((i, j) for i in basis for j in basis), counit_is_algebra_map)
    report.add("bialgebra.counit-unit", PASS if h.counit_vec(alg.unit) == one else FAIL)

    def antipode_axiom(ix):
        pairs = h.comul(ix).terms.items()
        left = combine((linear(alg.mult, h.antipode(i), j), c) for (_, i, j), c in pairs)
        right = combine((linear(alg.mult, i, h.antipode(j)), c) for (_, i, j), c in pairs)
        expected = alg.unit.scale(h.counit(ix))
        return left == expected and right == expected, (ix,)

    report.sweep("hopf.antipode", basis, antipode_axiom)

    def antipode_inverse(ix):
        e = FreeVector.basis(ix)
        ok = linear(h.antipode_inv, h.antipode(ix)) == e and linear(h.antipode, h.antipode_inv(ix)) == e
        return ok, (ix,)

    report.sweep("hopf.antipode-inverse", basis, antipode_inverse)
    return report


def check_comodule_algebra(m: ComoduleAlgebra, window: int | None = None) -> CheckReport:
    alg, h = m.algebra, m.hopf
    report = CheckReport(windowed=not alg.basis.is_finite)
    basis = alg.basis.enumerate(window)

    report.sweep("comodule.coassoc", basis, coassociative(m.coaction, h.comul))
    report.sweep("comodule.counit", basis, counital(m.coaction, h.counit))
    mixed = tensor_algebra(alg, h.algebra)
    report.sweep_rows("comodule.algebra-map", [(x,) for x in basis], basis, multiplicative(m.coaction, alg.mult, mixed.mult))
    # exact on any basis: the coaction is evaluated at the unit alone
    unital = linear(m.coaction, alg.unit) == alg.unit.tensor(h.algebra.unit)
    report.add("comodule.unit", PASS if unital else FAIL)

    if m.coinvariants is not None:
        fam = m.coinvariants

        def coinvariant(b_ix):
            v = fam.embed(b_ix)
            ok = linear(m.coaction, v) == v.tensor(h.algebra.unit)
            return ok, (b_ix,)

        report.sweep("comodule.coinvariants", fam.algebra.basis.enumerate(window), coinvariant)
    return report


# ---------------------------------------------------------------------------
# convolution algebra
# ---------------------------------------------------------------------------


@record
class CoalgebraData:
    comul: Callable[[Index], FreeVector]
    counit: Callable[[Index], CycScalar]


def tensor_square_coalgebra(h: HopfData) -> CoalgebraData:
    """H (x) H with componentwise comultiplication on pair indices."""

    def comul(pair_ix):
        _, i, j = pair_ix
        return sum_terms(
            (tensor_index(tensor_index(i1, j1), tensor_index(i2, j2)), ci * cj)
            for (_, i1, i2), ci in h.comul(i).terms.items()
            for (_, j1, j2), cj in h.comul(j).terms.items()
        )

    return CoalgebraData(comul=comul, counit=lambda ix: h.counit(ix[1]) * h.counit(ix[2]))


class NotInvertible(ValueError):
    """Raised by convolution_inverse; element is the unsolvable basis element, or None for the joint system."""

    def __init__(self, element: Index | None):
        where = format_index(element) if element is not None else "joint system"
        super().__init__(f"no convolution inverse at {where}")
        self.element = element


def _coalgebra_pairs(coa: CoalgebraData, ix):
    return [(c, (p[1], p[2])) for p, c in coa.comul(ix).terms.items()]


def convolution_inverse(f, coa: CoalgebraData, c_basis, algebra: AlgebraPresentation, window: int | None = None):
    """Convolution inverse of f: C -> A, a map on basis indices, on the
    given coalgebra basis; returned as a map on basis indices.

    Group-like bases are inverted pointwise, each value one solve of a
    `WindowSolver` over A's window, so the memoised map is total; otherwise
    one global linear system is solved and verified, and the map reads its
    table of solutions.  Raises NotInvertible carrying an unsolvable element.
    """
    c_basis = list(c_basis)
    a_basis = algebra.basis.enumerate(window)
    pairs = {ix: _coalgebra_pairs(coa, ix) for ix in c_basis}
    group_like = all(
        len(pairs[ix]) == 1 and pairs[ix][0][1] == (ix, ix) and pairs[ix][0][0].is_one()
        for ix in c_basis
    )

    if group_like:
        # pointwise inversion works for any index, so the returned map is
        # total: off-window values are solved on demand
        def invert_at(ix):
            fv = f(ix)
            try:
                sol = WindowSolver(lambda j: linear(algebra.mult, fv, j), algebra.basis, window).solve(algebra.unit)
            except NoSolution:
                raise NotInvertible(ix) from None
            if not linear(algebra.mult, sol, fv) == algebra.unit:
                raise NotInvertible(ix)
            return sol

        g = memoise(invert_at)
        for ix in c_basis:
            g(ix)
    else:
        unknowns = [("u", ci, ai) for ci in c_basis for ai in a_basis]

        def column(u_ix):
            _, cj, ak = u_ix

            def parts():
                for ci in c_basis:
                    for coeff, (c1, c2) in pairs[ci]:
                        if c2 == cj:
                            yield linear(algebra.mult, f(c1), ak).map_indices(lambda a: ("L", ci, a)), coeff
                        if c1 == cj:
                            yield linear(algebra.mult, ak, f(c2)).map_indices(lambda a: ("R", ci, a)), coeff

            return combine(parts())

        target = combine(
            (algebra.unit.map_indices(lambda a: (side, ci, a)), coa.counit(ci)) for ci in c_basis for side in ("L", "R")
        )
        try:
            sol = LinearSolver(column, unknowns).solve(target)
        except NoSolution:
            # attribute the failure to a single basis element when possible
            for ci in c_basis:
                local_target = FreeVector({ix: c for ix, c in target.terms.items() if ix[1] == ci})

                def local_column(u_ix):
                    return FreeVector({ix: c for ix, c in column(u_ix).terms.items() if ix[1] == ci})

                try:
                    LinearSolver(local_column, unknowns).solve(local_target)
                except NoSolution:
                    raise NotInvertible(ci) from None
            raise NotInvertible(None) from None
        values = {ci: sum_terms((ak, c) for (_, cj, ak), c in sol.terms.items() if cj == ci) for ci in c_basis}
        g = values.__getitem__

    # verify both convolution identities on every checked basis element
    for ci in c_basis:
        left = combine((linear(algebra.mult, f(c1), g(c2)), coeff) for coeff, (c1, c2) in pairs[ci])
        right = combine((linear(algebra.mult, g(c1), f(c2)), coeff) for coeff, (c1, c2) in pairs[ci])
        expected = algebra.unit.scale(coa.counit(ci))
        if not (left == expected and right == expected):
            raise NotInvertible(ci)
    return g


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _group_hopf(basis: BasisFamily, ix: Callable[[int], Index], scalar_order: int) -> HopfData:
    """Group Hopf algebra on basis: the group written additively, ix(k) the
    index of its element k, and i[1] the element of an index i."""
    one = CycScalar.one(scalar_order)

    def inverse(i):
        return FreeVector.basis(ix(-i[1]), one)

    algebra = AlgebraPresentation(
        basis=basis,
        mult=lambda i, j: FreeVector.basis(ix(i[1] + j[1]), one),
        unit=FreeVector.basis(ix(0), one),
        scalar_order=scalar_order,
    )
    return HopfData(
        algebra=algebra,
        comul=lambda i: FreeVector.basis(tensor_index(i, i), one),
        counit=lambda i: one,
        antipode=inverse,
        antipode_inv=inverse,
    )


def build_cyclic_group_algebra(n: int, scalar_order: int = 1) -> HopfData:
    """Group Hopf algebra of the cyclic group of order n on the basis g^i, 0 <= i < n."""

    def ix(i):
        return ("g", i % n)

    return _group_hopf(BasisFamily(indices=[ix(i) for i in range(n)]), ix, scalar_order)


def build_laurent_hopf(scalar_order: int = 1) -> HopfData:
    """Laurent polynomial Hopf algebra on one group-like invertible generator."""

    def ix(n):
        return ("t", n)

    return _group_hopf(BasisFamily(window_fn=lambda w: [ix(n) for n in range(-w, w + 1)]), ix, scalar_order)


@record
class RadfordData:
    hopf: HopfData
    h1: AlgebraPresentation
    h1_embed: Callable[[Index], FreeVector]
    r: int
    n: int
    m: int
    q: CycScalar


def check_radford_shape(r: int, n: int) -> int:
    """The order r*n that q must have in `build_radford`; r and n must be positive."""
    if r < 1 or n < 1:
        raise ValueError(f"r and n must be positive, got r = {r}, n = {n}")
    return r * n


def check_radford_root(q: CycScalar, m: int) -> None:
    """q in `build_radford` must be a primitive root of unity of order m."""
    order = multiplicative_order(q, bound=4 * m + 4)
    if order != m:
        raise ValueError(f"q must be a primitive root of unity of order {m}, got order {order}")


def build_radford(r: int, n: int, q: CycScalar) -> RadfordData:
    """Hopf algebra on generators a, x with a^(rn)=1, x^n=0, xa=q ax.

    The antipode is not copied from a closed formula: it is solved from
    the antipode axiom on the generators, extended anti-multiplicatively
    and then verified by `check_hopf_axioms` in the test-suite.
    """
    m = check_radford_shape(r, n)
    check_radford_root(q, m)
    so = max(q.order, 1)
    one = CycScalar.one(so)

    def ix(l, mm):
        return ("ax", l % m, mm)

    basis_ix = [ix(l, mm) for l in range(m) for mm in range(n)]
    basis = BasisFamily(indices=basis_ix)

    def mult(i, j):
        (_, l, mi), (_, k, s) = i, j
        if mi + s >= n:
            return FreeVector.zero()
        return FreeVector.basis(ix(l + k, mi + s), q ** (mi * k))

    algebra = AlgebraPresentation(basis=basis, mult=mult, unit=FreeVector.basis(ix(0, 0), one), scalar_order=so)
    square = tensor_algebra(algebra, algebra)

    a, x = ix(1, 0), ix(0, 1)
    comul_gen = {
        a: FreeVector.basis(tensor_index(a, a), one),
        x: FreeVector.basis(tensor_index(ix(0, 0), x), one)
        + FreeVector.basis(tensor_index(x, ix(r, 0)), one),
    }
    def comul(i):
        _, l, mm = i
        out = square.unit
        for _ in range(l):
            out = linear(square.mult, out, comul_gen[a])
        for _ in range(mm):
            out = linear(square.mult, out, comul_gen[x])
        return out

    def counit(i):
        return one if i[2] == 0 else CycScalar.zero(so)

    # solve the antipode axiom on the generators, each column a right multiple
    s_a = LinearSolver(lambda i: algebra.mult(i, a), basis_ix).solve(algebra.unit)
    s_x = LinearSolver(lambda i: algebra.mult(i, ix(r, 0)), basis_ix).solve(-FreeVector.basis(x))

    def antipode_ix(i):
        _, l, mm = i
        out = algebra.unit
        for _ in range(mm):
            out = linear(algebra.mult, out, s_x)
        for _ in range(l):
            out = linear(algebra.mult, out, s_a)
        return out

    # one memo, shared by the solver and HopfData
    antipode = memoise(antipode_ix)
    inverse = LinearSolver(antipode, basis_ix)
    inv_values = {i: inverse.solve(FreeVector.basis(i)) for i in basis_ix}

    hopf = HopfData(
        algebra=algebra,
        comul=comul,
        counit=counit,
        antipode=antipode,
        antipode_inv=inv_values.__getitem__,
    )

    def h1_ix(l, mm):
        return ("h1", l % n, mm)

    def h1_mult(i, j):
        (_, l, mi), (_, k, s) = i, j
        if mi + s >= n:
            return FreeVector.zero()
        return FreeVector.basis(h1_ix(l + k, mi + s), q ** (r * mi * k))

    h1 = AlgebraPresentation(
        basis=BasisFamily(indices=[h1_ix(l, mm) for l in range(n) for mm in range(n)]),
        mult=h1_mult,
        unit=FreeVector.basis(h1_ix(0, 0), one),
        scalar_order=so,
    )

    def h1_embed(i):
        _, l, mm = i
        return FreeVector.basis(ix(l * r, mm), one)

    return RadfordData(hopf=hopf, h1=h1, h1_embed=h1_embed, r=r, n=n, m=m, q=q)


@record
class TorusData:
    comodule: ComoduleAlgebra
    theta_root: CycScalar
    base: AlgebraPresentation  # coinvariants presented as Laurent in w = uv
    base_embed: Callable[[Index], FreeVector]
    cleaving: Callable[[Index], FreeVector]
    cleaving_inv: Callable[[Index], FreeVector]

    def __post_init__(self):
        memoise_fields(self, "base_embed", "cleaving", "cleaving_inv")


def build_torus_comodule(theta_root: CycScalar) -> TorusData:
    """Noncommutative torus as a comodule algebra over the Laurent Hopf algebra.

    Generators u, v with v u = e^{i theta} u v for a rational angle
    (theta_root = e^{i theta} a root of unity); the coaction grades by
    the winding difference and the coinvariants span the powers of uv.
    """
    if multiplicative_order(theta_root) is None:
        raise ValueError("theta_root must be a root of unity")
    so = theta_root.order
    one = CycScalar.one(so)
    hopf = build_laurent_hopf(scalar_order=so)

    def ix(mm, nn):
        return ("uv", mm, nn)

    basis = BasisFamily(window_fn=lambda w: [ix(mm, nn) for mm in range(-w, w + 1) for nn in range(-w, w + 1)])

    def mult(i, j):
        (_, mi, ni), (_, pj, qj) = i, j
        return FreeVector.basis(ix(mi + pj, ni + qj), theta_root ** (ni * pj))

    algebra = AlgebraPresentation(basis=basis, mult=mult, unit=FreeVector.basis(ix(0, 0), one), scalar_order=so)

    def coaction(i):
        _, mm, nn = i
        return FreeVector.basis(tensor_index(i, ("t", mm - nn)), one)

    def w_ix(k):
        return ("w", k)

    base = AlgebraPresentation(
        basis=BasisFamily(window_fn=lambda w: [w_ix(k) for k in range(-w, w + 1)]),
        mult=lambda i, j: FreeVector.basis(w_ix(i[1] + j[1]), one),
        unit=FreeVector.basis(w_ix(0), one),
        scalar_order=so,
    )

    def base_embed(i):
        k = i[1]
        return FreeVector.basis(ix(k, k), theta_root ** (k * (k - 1) // 2))

    coinv = CoinvariantFamily(algebra=base, embed=base_embed)
    comodule = ComoduleAlgebra(algebra=algebra, hopf=hopf, coaction=coaction, coinvariants=coinv)

    def cleaving(i):
        k = i[1]
        return FreeVector.basis(ix(k, 0) if k >= 0 else ix(0, -k), one)

    def cleaving_inv(i):
        k = i[1]
        return FreeVector.basis(ix(-k, 0) if k >= 0 else ix(0, k), one)

    return TorusData(
        comodule=comodule,
        theta_root=theta_root,
        base=base,
        base_embed=base_embed,
        cleaving=cleaving,
        cleaving_inv=cleaving_inv,
    )


# ---------------------------------------------------------------------------
# structure-constant text format
# ---------------------------------------------------------------------------

def _in_field(c: CycScalar, scalar_order: int) -> bool:
    """Whether c is written in Q(zeta_scalar_order): its order divides it, or c is rational."""
    return not scalar_order % c.order or c.is_rational()


# each directive: the pattern of its line, with every basis position or
# header value a group, then the coefficient; and the shape an error quotes
_I = r"([+-]?\d+)"
_LINES = {
    "HOPF": (r"HOPF\s+\S.*", "HOPF <name>"),
    "DIM": (rf"DIM\s+{_I}", "DIM <d>"),
    "SCALAR_ORDER": (rf"SCALAR_ORDER\s+{_I}", "SCALAR_ORDER <M>"),
    "MUL": (rf"MUL\s+{_I}\s+{_I}\s*->\s*{_I}\s*:\s*(.*)", "MUL i j -> k : c"),
    "COMUL": (rf"COMUL\s+{_I}\s*->\s*{_I}\s+{_I}\s*:\s*(.*)", "COMUL i -> j k : c"),
    "COUNIT": (rf"COUNIT\s+{_I}\s*:\s*(.*)", "COUNIT i : c"),
    "ANTIPODE": (rf"ANTIPODE\s+{_I}\s*->\s*{_I}\s*:\s*(.*)", "ANTIPODE i -> j : c"),
}


def parse_structure_constants(text: str) -> HopfData:
    """Hopf data from the line-oriented structure-constant format.

    Header: ``HOPF <name>`` (required, not kept), ``DIM <d>``,
    ``SCALAR_ORDER <M>``; then one
    line per nonzero constant: ``MUL i j -> k : <scalar>``,
    ``COMUL i -> j k : <scalar>``, ``COUNIT i : <scalar>``,
    ``ANTIPODE i -> j : <scalar>``.  Unknown directives, DIM or
    SCALAR_ORDER below 1, indices outside ``0..DIM-1``, repeated entries
    and coefficients outside Q(zeta_SCALAR_ORDER) are errors naming the line.
    The unit and the inverse antipode are solved for, not declared.
    """
    named, dim, so = False, None, None
    mul, comul_t, counit_t, antipode_t = {}, {}, {}, {}
    entries = []  # (line number, basis positions, coefficient)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word = line.split(None, 1)[0]
        if word not in _LINES:
            raise ValueError(f"line {lineno}: unknown directive {word!r}")
        pattern, shape = _LINES[word]
        m = re.fullmatch(pattern, line)
        try:
            if m is None:
                raise ValueError(f"expected {shape!r}")
            if word == "HOPF":
                named = True
                continue
            if word in ("DIM", "SCALAR_ORDER"):
                value = int(m.group(1))
                if value < 1:
                    raise ValueError(f"{word} must be at least 1, got {value}")
                dim, so = (value, so) if word == "DIM" else (dim, value)
                continue
            *positions, coefficient = m.groups()
            positions = tuple(map(int, positions))
            if word == "MUL":
                row, key = mul.setdefault(positions[:2], {}), positions[2]
            elif word == "COMUL":
                row, key = comul_t.setdefault(positions[0], {}), positions[1:]
            elif word == "COUNIT":
                row, key = counit_t, positions[0]
            else:
                row, key = antipode_t.setdefault(positions[0], {}), positions[1]
            if key in row:
                raise ValueError(f"repeated {word} entry {' '.join(map(str, positions))}")
            row[key] = parse_scalar(coefficient)
            entries.append((lineno, positions, row[key]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: malformed {word} line {line!r}: {exc}") from exc
    if not named or dim is None or so is None:
        raise ValueError("missing header (HOPF / DIM / SCALAR_ORDER)")
    for lineno, positions, c in entries:
        for p in positions:
            if not 0 <= p < dim:
                raise ValueError(f"line {lineno}: basis index {p} outside 0..{dim - 1}")
        if not _in_field(c, so):
            raise ValueError(f"line {lineno}: coefficient {c.to_text()} is not in Q(zeta_{so})")

    def ix(i):
        return ("u", i)

    zero = CycScalar.zero(so)
    basis_ix = [ix(i) for i in range(dim)]

    def mult(a, b):
        row = mul.get((a[1], b[1]), {})
        return FreeVector({ix(k): c for k, c in row.items()})

    def comul(a):
        row = comul_t.get(a[1], {})
        return FreeVector({tensor_index(ix(j), ix(k)): c for (j, k), c in row.items()})

    def counit(a):
        return counit_t.get(a[1], zero)

    def antipode_ix(a):
        row = antipode_t.get(a[1], {})
        return FreeVector({ix(j): c for j, c in row.items()})

    antipode = memoise(antipode_ix)

    # solve for the unit: u with u*e_i = e_i*u = e_i for every i
    one = CycScalar.one(so)

    def unit_column(u_ix):
        return combine(
            (product.map_indices(lambda t: (side, b, t)), one)
            for b in basis_ix
            for side, product in (("L", mult(u_ix, b)), ("R", mult(b, u_ix)))
        )

    target = combine((E((side, b, b), one), one) for b in basis_ix for side in ("L", "R"))
    try:
        unit = LinearSolver(unit_column, basis_ix).solve(target)
    except NoSolution:
        raise ValueError("multiplication table has no unit element") from None

    algebra = AlgebraPresentation(basis=BasisFamily(indices=basis_ix), mult=mult, unit=unit, scalar_order=so)
    try:
        inverse = LinearSolver(antipode, basis_ix)
        inv_values = {b: inverse.solve(FreeVector.basis(b)) for b in basis_ix}
    except NoSolution:
        raise ValueError("declared antipode is not invertible") from None
    return HopfData(
        algebra=algebra,
        comul=comul,
        counit=counit,
        antipode=antipode,
        antipode_inv=inv_values.__getitem__,
    )


# a pattern string, as the _LINES ones are: compiled by the first parse, not at import
_VEC_TERM = r"^\s*(?:\(\s*(?P<paren>[^()]*)\s*\)|(?P<atom>[^*\s]+))\s*(?:\*\s*(?P<idx>\d+))?\s*$"


def parse_basis_combination(text: str, basis: list, scalar_order: int):
    """Parse ``(scalar) * i + ... `` combinations over integer positions in basis.

    Bare ``i`` means coefficient 1; scalars with internal +/- must be
    parenthesized.  A position outside ``0..len(basis)-1`` and a
    coefficient outside Q(zeta_scalar_order) are errors.
    """
    terms = []
    for sgn, part in signed_terms(text):
        m = re.match(_VEC_TERM, part)
        if not m:
            raise ValueError(f"bad vector term {part!r}")
        if m.group("paren") is not None:
            coeff = parse_scalar(m.group("paren"))
            if m.group("idx") is None:
                raise ValueError(f"missing basis index in term {part!r}")
            ixn = int(m.group("idx"))
        elif m.group("idx") is not None:
            coeff = parse_scalar(m.group("atom"))
            ixn = int(m.group("idx"))
        else:
            coeff = CycScalar.one()
            ixn = int(m.group("atom"))
        if not 0 <= ixn < len(basis):
            raise ValueError(f"basis index {ixn} outside 0..{len(basis) - 1} in term {part.strip()!r}")
        if not _in_field(coeff, scalar_order):
            raise ValueError(f"coefficient {coeff.to_text()} is not in Q(zeta_{scalar_order})")
        terms.append((E(basis[ixn]), coeff * sgn if sgn < 0 else coeff))
    return combine(terms)
