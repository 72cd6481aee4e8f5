"""Differential test of the elimination kernel against echelon_oracle.

`Subspace` and `TrackedSpan` must build what the reference elimination
built with vector `-` and `scale`: the same pivots in the same order, each
row and track with the same terms in the same dict order and the same
scalars (order, numerators and denominator), the same kernel, the same
reductions, and the same scalar products operand for operand.  No input
vector and no row handed out by `basis()` may change afterwards: memoised
structure maps share their vectors.
"""

from contextlib import contextmanager

from echelon_oracle import ReferenceEchelon, reference_tracked_span
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcalc.linalg import FreeVector, Subspace, TrackedSpan
from hopfcalc.scalars import CycScalar, root_of_unity

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# ints, strings and tuples, so that pivots follow index_sort_key across kinds
INDICES = [0, 1, 2, 3, "a", ("w", 0), ("w", 1), ("@", ("g", 0), ("g", 1))]


@st.composite
def scalars(draw, order):
    """Zero, +-zeta^k, a rational, a monomial or a dense element of Q(zeta_order)."""
    kind = draw(st.sampled_from(["zero", "unit", "unit", "rational", "monomial", "dense"]))
    if kind == "zero":
        return CycScalar.zero(order)
    if kind == "unit":
        return root_of_unity(order, draw(st.integers(0, order - 1)))
    if kind == "rational":
        return CycScalar.from_rational(draw(fractions), order)
    if kind == "monomial":
        return draw(fractions) * root_of_unity(order, draw(st.integers(0, order - 1)))
    total = CycScalar.zero(order)
    for k in range(order):
        total = total + draw(fractions) * root_of_unity(order, k)
    return total


@st.composite
def families(draw):
    """Sparse vectors over Q(zeta_4) or Q(zeta_8), some of them combinations
    of earlier ones, so that some inserts are dependent, and probe vectors
    to reduce afterwards."""
    order = draw(st.sampled_from([4, 8]))
    fresh = st.dictionaries(st.sampled_from(INDICES), scalars(order), max_size=5).map(FreeVector)
    vectors = []
    for _ in range(draw(st.integers(1, 7))):
        if vectors and draw(st.booleans()):
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            vectors.append(a.scale(draw(scalars(order))) + b.scale(draw(scalars(order))))
        else:
            vectors.append(draw(fresh))
    return vectors, draw(st.lists(fresh, max_size=3))


def _shape(v):
    return [(ix, c.order, c.coeffs, c.den) for ix, c in v.terms.items()]


def _rows(ech):
    return [(p, _shape(ech.rows[p]), _shape(ech.tracks[p]) if p in ech.tracks else None) for p in ech.rows]


@contextmanager
def _products():
    """Every CycScalar product, as its two operands' (order, coeffs, den)."""
    seen, mul = [], CycScalar.__mul__

    def traced(a, b):
        seen.append(tuple((s.order, s.coeffs, s.den) for s in (a, b)))
        return mul(a, b)

    CycScalar.__mul__ = traced
    try:
        yield seen
    finally:
        CycScalar.__mul__ = mul


@settings(max_examples=150, deadline=None)
@given(families(), st.booleans())
def test_elimination_matches_the_reference(family, tracked):
    vectors, probes = family
    before = [_shape(v) for v in vectors + probes]
    handed_out = []
    with _products() as kernel_products:
        if tracked:
            span = TrackedSpan(enumerate(vectors))
            ech, kernel = span._ech, span._kernel
        else:
            space = Subspace()
            for v in vectors:
                space.add(v)
                handed_out += [(row, _shape(row)) for row in space.basis()]
            ech, kernel = space._ech, []
        reduced = [ech.reduce(v, FreeVector.zero() if tracked else None) for v in probes]
    with _products() as reference_products:
        if tracked:
            want, want_kernel = reference_tracked_span(enumerate(vectors))
        else:
            want, want_kernel = ReferenceEchelon(), []
            for v in vectors:
                want.insert(v)
        want_reduced = [want.reduce(v, FreeVector.zero() if tracked else None) for v in probes]
    assert _rows(ech) == _rows(want)
    assert [_shape(t) for t in kernel] == [_shape(t) for t in want_kernel]
    assert [[_shape(x) for x in pair if x is not None] for pair in reduced] == [
        [_shape(x) for x in pair if x is not None] for pair in want_reduced
    ]
    assert kernel_products == reference_products
    assert [_shape(v) for v in vectors + probes] == before
    assert [_shape(row) for row, _ in handed_out] == [shape for _, shape in handed_out]


def test_an_insert_writes_into_no_vector_it_was_given_or_row_it_handed_out():
    one = CycScalar.one(4)
    # monic already, so the first row is the caller's vector itself, and
    # the second insert's back-substitution rewrites that row
    v = FreeVector({0: one, 1: root_of_unity(4)})
    w = FreeVector({1: one, 2: one})
    space = Subspace([v])
    first = space.basis()[0]
    assert first is v
    space.add(w)
    assert _shape(v) == [(0, 4, (1, 0), 1), (1, 4, (0, 1), 1)]
    assert _shape(w) == [(1, 4, (1, 0), 1), (2, 4, (1, 0), 1)]
    assert _shape(space.basis()[0]) == [(0, 4, (1, 0), 1), (2, 4, (0, -1), 1)]

