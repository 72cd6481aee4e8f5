"""Sums of scaled vectors as they were written before `linalg.combine`.

The reference is the literal loop `out = out + v.scale(c)` over a copy of
the `FreeVector.__add__` and `FreeVector.scale` bodies that preceded the
kernel, so that the kernel is compared against code it does not share.
`OracleVector` wraps a vector's `terms` dict without copying it, as `scale`
by one and `0 + v` did: the first addend is adopted by reference.  Its
negation, difference, `is_zero` and `leading_index` are those of
`FreeVector`, for the elimination reference in `echelon_oracle`.  The
balanced tensor products of the Hopf-Galois check and of the covariant
derivative are kept as their relation loops were written out by hand, and
the algebra-map and left-linearity laws as their per-pair sweep.
"""

from hopfcalc.linalg import (
    FreeVector,
    NoSolution,
    QuotientSpace,
    Subspace,
    index_sort_key,
    linear,
    sum_terms,
    tensor_index,
)
from hopfcalc.report import witness
from hopfcalc.scalars import CycScalar

E = FreeVector.basis


class OracleVector:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        data = dict(self.terms)
        for ix, c in other.terms.items():
            prev = data.get(ix)
            s = c if prev is None else prev + c
            if s.is_zero():
                data.pop(ix, None)
            else:
                data[ix] = s
        return OracleVector(data)

    def scale(self, c):
        if c.is_zero() or not self.terms:
            return OracleVector({})
        if c.is_one():
            return self
        data = {}
        for ix, v in self.terms.items():
            x = v * c
            if not x.is_zero():
                data[ix] = x
        return OracleVector(data)

    def __neg__(self):
        return OracleVector({ix: -c for ix, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self):
        return not self.terms

    def leading_index(self):
        return min(self.terms.keys(), key=index_sort_key) if self.terms else None


def reference_combine(pairs):
    out = OracleVector({})
    for v, c in pairs:
        out = out + OracleVector(v.terms).scale(c)
    return out


def reference_linear(fn, *args):
    """The nested loops of the pre-kernel `*_vec` bodies (`comul_vec`,
    `mult_vec`, ...), run over every vector argument, the leftmost
    outermost, with every other argument passed to fn as it is.  Each image
    is scaled by the product of its coefficients taken left to right."""
    out = OracleVector({})

    def walk(picked, coeffs, rest):
        nonlocal out
        if not rest:
            c = coeffs[0]
            for ck in coeffs[1:]:
                c = c * ck
            out = out + OracleVector(fn(*picked).terms).scale(c)
        elif hasattr(rest[0], "terms"):
            for ix, c in rest[0].terms.items():
                walk(picked + (ix,), coeffs + (c,), rest[1:])
        else:
            walk(picked + (rest[0],), coeffs, rest[1:])

    walk((), (), args)
    return out


def reference_first_non_associative(xs, ys, zs, first, then, inner, outer):
    """The per-triple loop that the associativity sweeps ran before
    `linalg.first_non_associative`: for every (x, y, z) in the order of
    nested loops, both sides in full, each through `reference_linear`."""
    for x in xs:
        for y in ys:
            for z in zs:
                lhs = reference_linear(then, first(x, y), z)
                rhs = reference_linear(outer, x, inner(y, z))
                if lhs.terms != rhs.terms:
                    return x, y, z
    return None


def reference_first_non_multiplicative(xs, ys, phi, source, target, acting=False):
    """The per-pair loop that `CheckReport.sweep` ran over the tests
    `hopf.multiplicative` and `hopf.left_linear` before
    `linalg.first_non_multiplicative`: for every (x, y) in the order of
    nested loops, phi(source(x, y)) against target(phi(x), phi(y)), or
    target(x, phi(y)) when acting, each side through `reference_linear`;
    a pair whose evaluation raises NoSolution fails there."""
    for x in xs:
        for y in ys:
            try:
                lhs = reference_linear(phi, source(x, y))
                rhs = reference_linear(target, x if acting else phi(x), phi(y))
            except NoSolution:
                return x, y
            if lhs.terms != rhs.terms:
                return x, y
    return None


def reference_wedge_witness(dc, bases):
    """The witness of the first failing triple of the per-triple loop over
    the degree blocks (p, q, r) of total degree at most two, in the order of
    the wedge-associativity sweep of `check_graded_dc`; None if none fails."""
    for p in range(3):
        for q in range(3):
            for r in range(3 - p - q):
                hit = reference_first_non_associative(
                    bases[p],
                    bases[q],
                    bases[r],
                    lambda i, j: dc.wedge(p, i, q, j),
                    lambda t, k: dc.wedge(p + q, t, r, k),
                    lambda j, k: dc.wedge(q, j, r, k),
                    lambda i, t: dc.wedge(p, i, q + r, t),
                )
                if hit is not None:
                    return witness(*hit)
    return None


def reference_graded_leibniz(dc, window=None, max_total=2):
    """The per-item loop that the graded-Leibniz sweep of `check_graded_dc`
    ran before it built each side in one dict: over the items in the
    sweep's order, both sides through `linalg.linear`, `FreeVector.scale`
    and `+`, compared as `FreeVector.__eq__` then compared them.  The first
    (i, j) at which d(i ^ j) != di ^ j + (-1)**deg1 i ^ dj, or None."""
    sign = (CycScalar.one(), CycScalar.from_rational(-1))
    degrees = range(max_total + 1)
    bases = {n: dc.basis(n, window) for n in degrees}
    for n1 in degrees:
        for n2 in degrees:
            if n1 + n2 > max_total:
                continue
            for i in bases[n1]:
                for j in bases[n2]:
                    lhs = linear(dc.d, n1 + n2, dc.wedge(n1, i, n2, j))
                    rhs = linear(dc.wedge, n1 + 1, dc.d(n1, i), n2, j) + linear(
                        dc.wedge, n1, i, n2 + 1, dc.d(n2, j)
                    ).scale(sign[n1 % 2])
                    if lhs.terms.keys() != rhs.terms.keys() or any(c != rhs.terms[ix] for ix, c in lhs.terms.items()):
                        return i, j
    return None


def reference_index_sort_key(ix):
    """`linalg.index_sort_key` as it was before it kept each key: the
    recursive definition, computed afresh at every call."""
    if isinstance(ix, tuple):
        return (2, tuple(reference_index_sort_key(part) for part in ix))
    if isinstance(ix, bool):
        return (0, int(ix))
    if isinstance(ix, int):
        return (0, ix)
    return (1, str(ix))


def reference_galois_quotient(a):
    """A (x)_B A as `crossed.check_hopf_galois` built it before
    `linalg.balanced_tensor`: for each coinvariant vector b, each i and each
    k of A's basis, the relation i.b (x) k - i (x) b.k through
    `FreeVector.tensor` and `-`, b outermost."""
    a_basis = a.algebra.basis.enumerate()
    coinv = a.coinvariants
    relations = Subspace()
    for bv in [coinv.embed(ix) for ix in coinv.algebra.basis.enumerate()]:
        for i in a_basis:
            left_mult = linear(a.algebra.mult, i, bv)
            for k in a_basis:
                right_mult = linear(a.algebra.mult, bv, k)
                relations.add(left_mult.tensor(E(k)) - E(i).tensor(right_mult))
    big = [E(tensor_index(i, k)) for i in a_basis for k in a_basis]
    return QuotientSpace(big, relations, cls_tag="bal")


def reference_derivative_quotient(cf, e_span):
    """Omega^1(B) (x)_B E as `qpb.covariant_derivative` built it before
    `linalg.balanced_tensor`, on the bundle E spanned by e_span: the form
    outermost, then b, then the E label, each relation the difference of
    two `sum_terms` sums, with the left B-action on E rebuilt from e_span."""
    cp = cf.crossed
    embed = cp.comodule.coinvariants.embed

    def b_act_left(b_ix, e_label):
        out = sum_terms(
            (tensor_index(jx, v_ix), c * cj)
            for (_, pair_ix, v_ix), c in e_span.vectors[e_label].terms.items()
            for jx, cj in linear(cp.algebra.mult, embed(b_ix), pair_ix).terms.items()
        )
        return e_span.express(out)

    b_forms = cf.b_calc.forms.enumerate()
    big = [E(tensor_index(bf, el)) for bf in b_forms for el in e_span.labels]
    relations = Subspace()
    for bf in b_forms:
        for bx in cp.base.basis.enumerate():
            moved_form = cf.b_calc.right_act(bf, bx)
            for el in e_span.labels:
                left = sum_terms((tensor_index(f2, el), c2) for f2, c2 in moved_form.terms.items())
                right = sum_terms((tensor_index(bf, el2), c2) for el2, c2 in b_act_left(bx, el).terms.items())
                relations.add(left - right)
    return QuotientSpace(big, relations, cls_tag="bcls")


def reference_first_unequal(rows, zs, *laws):
    """The per-item loop behind `linalg.first_unequal`: for every (*row, z)
    in the order of nested loops and every law, each side summed by
    `reference_combine` over the (terms, c) pairs it yields, a c of None
    standing for one; the first item at which a law's sides differ, or
    whose evaluation raises NoSolution, or None."""
    for row in rows:
        for z in zs:
            try:
                for law in laws:
                    lhs, rhs = (
                        reference_combine((OracleVector(t), CycScalar.one() if c is None else c) for t, c in side(*row, z))
                        for side in law
                    )
                    if lhs.terms != rhs.terms:
                        return (*row, z)
            except NoSolution:
                return (*row, z)
    return None


def _first_failing(items, holds):
    """The witness of the first item at which holds(*item) is False or
    raises NoSolution, as `CheckReport.sweep` failed there; None if none."""
    for item in items:
        try:
            if not holds(*item):
                return witness(*item)
        except NoSolution:
            return witness(*item)
    return None


def _same(lhs, rhs):
    return lhs.terms == rhs.terms


def reference_twisted_module_laws(b, h, m, s, window=None):
    """The three per-item sweeps of `crossed.check_twisted_module_algebra`
    that `linalg.first_unequal` replaced, each side through
    `reference_linear` and `reference_combine`: {identity: witness or None}."""
    bs, hs = b.basis.enumerate(window), h.algebra.basis.enumerate(window)
    lin, comb, mult = reference_linear, reference_combine, h.algebra.mult

    def multiplicative(hi, bi, bj):
        rhs = comb((lin(b.mult, m.act(h1, bi), m.act(h2, bj)), c) for c, (h1, h2) in h.sweedler(hi, 2))
        return _same(lin(m.act, hi, b.mult(bi, bj)), rhs)

    def twisted(hi, hj, bi):
        rhs = comb(
            (lin(b.mult, lin(b.mult, s.sigma(x1, y1), lin(m.act, mult(x2, y2), bi)), s.sigma_inv(x3, y3)), c1 * c2)
            for c1, (x1, x2, x3) in h.sweedler(hi, 3)
            for c2, (y1, y2, y3) in h.sweedler(hj, 3)
        )
        return _same(lin(m.act, hi, m.act(hj, bi)), rhs)

    def cocycle(hi, hj, hk):
        lhs = comb(
            (lin(b.mult, lin(m.act, x1, s.sigma(y1, z1)), lin(s.sigma, x2, mult(y2, z2))), c1 * c2 * c3)
            for c1, (x1, x2) in h.sweedler(hi, 2)
            for c2, (y1, y2) in h.sweedler(hj, 2)
            for c3, (z1, z2) in h.sweedler(hk, 2)
        )
        rhs = comb(
            (lin(b.mult, s.sigma(x1, y1), lin(s.sigma, mult(x2, y2), hk)), c1 * c2)
            for c1, (x1, x2) in h.sweedler(hi, 2)
            for c2, (y1, y2) in h.sweedler(hj, 2)
        )
        return _same(lhs, rhs)

    return {
        "measure.multiplicative": _first_failing([(x, y, z) for x in hs for y in bs for z in bs], multiplicative),
        "twisted-module": _first_failing([(x, y, z) for x in hs for y in hs for z in bs], twisted),
        "cocycle": _first_failing([(x, y, z) for x in hs for y in hs for z in hs], cocycle),
    }


def reference_twisted_calculus_laws(b_calc, h, m, s, action, window=None):
    """The three per-item sweeps of `fodc.check_sigma_twisted_module_calculus`
    that `linalg.first_unequal` replaced, on the derived action:
    {identity: witness or None}."""
    bs, hs, fs = b_calc.algebra.basis.enumerate(window), h.algebra.basis.enumerate(window), b_calc.forms.enumerate(window)
    lin, comb, left, right = reference_linear, reference_combine, b_calc.left_act, b_calc.right_act

    def comp(hx, ax, bx):
        rhs = comb((lin(left, m.act(h1, ax), lin(action.act, h2, b_calc.d(bx))), c) for c, (h1, h2) in h.sweedler(hx, 2))
        return _same(lin(action.act, hx, lin(left, ax, b_calc.d(bx))), rhs)

    def sandwich(hx, ax, fx, bx):
        rhs = comb(
            (lin(right, lin(left, m.act(h1, ax), action.act(h2, fx)), m.act(h3, bx)), c)
            for c, (h1, h2, h3) in h.sweedler(hx, 3)
        )
        return _same(lin(action.act, hx, lin(right, left(ax, fx), bx)), rhs)

    def twist(hx, kx, fx):
        rhs = comb(
            (lin(right, lin(left, s.sigma(x1, y1), lin(action.act, h.algebra.mult(x2, y2), fx)), s.sigma_inv(x3, y3)), c1 * c2)
            for c1, (x1, x2, x3) in h.sweedler(hx, 3)
            for c2, (y1, y2, y3) in h.sweedler(kx, 3)
        )
        return _same(lin(action.act, hx, action.act(kx, fx)), rhs)

    return {
        "comp": _first_failing([(x, a, c) for x in hs for a in bs for c in bs], comp),
        "twisted-bimodule.sandwich": _first_failing([(x, a, f, c) for x in hs for a in bs for f in fs for c in bs], sandwich),
        "twisted-bimodule.twist": _first_failing([(x, k, f) for x in hs for k in hs for f in fs], twist),
    }


def reference_first_order_actions(cf, dc, window=None):
    """The per-item sweeps of the two actions in
    `crossed_calc.compare_first_order`: each first-order form action, its
    indices moved to the graded ones, against the graded wedge with degree
    zero: {identity: witness or None}."""
    pairs = [(p, f) for p in cf.crossed.algebra.basis.enumerate(window) for f in cf.forms.enumerate(window)]

    def graded(ix):
        return ("gf", 1 if ix[0] == "hor" else 0, ix[1], ix[2])

    def moved(v):
        return {graded(ix): c for ix, c in v.terms.items()}

    return {
        "first-order.left-action": _first_failing(
            pairs, lambda p, f: moved(cf.left_act(p, f)) == dc.wedge(0, p, 1, graded(f)).terms
        ),
        "first-order.right-action": _first_failing(
            pairs, lambda p, f: moved(cf.right_act(f, p)) == dc.wedge(1, graded(f), 0, p).terms
        ),
    }


def reference_sigma_laws(cf, data):
    """The per-item sweeps of `derivative.sigma-bimodule` and
    `derivative.sigma-balanced` in `qpb.covariant_derivative`, on the bundle
    and braiding sigma_e of data, with the B-actions on E and on
    Omega^1(B) (x)_B E rebuilt as that function builds them and the
    quotient of `reference_derivative_quotient`: {identity: witness or None}."""
    cp, e_span = cf.crossed, data.e_span
    embed = cp.comodule.coinvariants.embed
    balanced = reference_derivative_quotient(cf, e_span)

    def b_act(b_ix, e_label, on_left):
        return e_span.express(
            sum_terms(
                (tensor_index(jx, v_ix), c * cj)
                for (_, pair_ix, v_ix), c in e_span.vectors[e_label].terms.items()
                for jx, cj in linear(cp.algebra.mult, *((embed(b_ix), pair_ix) if on_left else (pair_ix, embed(b_ix)))).terms.items()
            )
        )

    def balanced_act(b_ix, cls_ix, on_left):
        rep = balanced.representatives[cls_ix[1]]
        if on_left:
            terms = ((tensor_index(f2, el), c * c2) for (_, f_ix, el), c in rep.terms.items()
                     for f2, c2 in cf.b_calc.left_act(b_ix, f_ix).terms.items())
        else:
            terms = ((tensor_index(f_ix, el2), c * c2) for (_, f_ix, el), c in rep.terms.items()
                     for el2, c2 in b_act(b_ix, el, False).terms.items())
        return balanced.project(sum_terms(terms))

    def bimodule(bx, el, fx):
        lhs = reference_linear(lambda cls: balanced_act(bx, cls, True), data.sigma_e(el, fx))
        if not _same(lhs, reference_linear(lambda e: data.sigma_e(e, fx), b_act(bx, el, True))):
            return False
        lhs = reference_linear(lambda cls: balanced_act(bx, cls, False), data.sigma_e(el, fx))
        return _same(lhs, reference_linear(lambda f: data.sigma_e(el, f), cf.b_calc.right_act(fx, bx)))

    def balance(el, bx, fx):
        lhs = reference_linear(lambda e: data.sigma_e(e, fx), b_act(bx, el, False))
        return _same(lhs, reference_linear(lambda f: data.sigma_e(el, f), cf.b_calc.left_act(bx, fx)))

    labels, bs, fs = e_span.labels, cp.base.basis.enumerate(), cf.b_calc.forms.enumerate()
    return {
        "derivative.sigma-bimodule": _first_failing([(b, e, f) for b in bs for e in labels for f in fs], bimodule),
        "derivative.sigma-balanced": _first_failing([(e, b, f) for e in labels for b in bs for f in fs], balance),
    }
