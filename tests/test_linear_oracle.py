"""Differential test of linalg.combine, linalg.sum_terms, linalg.linear and
linalg.index_sort_key against linear_oracle.

The kernel must give what repeated `out = out + v.scale(c)` gave: the same
terms in the same dict order, each coefficient with the same order,
numerators and denominator, from the same scalar products and sums operand
for operand, and it must leave every input vector as it was.  `sum_terms`
gives what that loop gave over basis vectors, with no product at all.
Scalars mix the orders 1, 2, 4 and 8, and coefficients are biased to 0, 1
and -1.  `linalg.balanced_tensor` gives, on the radford instances, the
relations, classes and projections of the two loops it replaced.
"""

from collections import Counter
from contextlib import contextmanager

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st
from linear_oracle import (
    reference_combine,
    reference_derivative_quotient,
    reference_first_non_associative,
    reference_first_non_multiplicative,
    reference_first_unequal,
    reference_galois_quotient,
    reference_index_sort_key,
    reference_linear,
)

import hopfcalc.crossed
import hopfcalc.qpb
from hopfcalc import linalg
from hopfcalc.crossed import check_hopf_galois
from hopfcalc.examples import radford_calculus_instance
from hopfcalc.linalg import (
    FreeVector,
    NoSolution,
    combine,
    first_non_associative,
    first_non_multiplicative,
    first_unequal,
    index_sort_key,
    linear,
    sum_terms,
    tensor_index,
)
from hopfcalc.qpb import VComodule, covariant_derivative, vertical_map
from hopfcalc.scalars import CycScalar, root_of_unity

ORDERS = [1, 2, 4, 8]
fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def scalars(draw, orders=ORDERS):
    order = draw(st.sampled_from(orders))
    kind = draw(st.sampled_from(["zero", "one", "minus-one", "rational", "monomial", "dense"]))
    if kind in ("zero", "one", "minus-one"):
        return CycScalar.from_rational({"zero": 0, "one": 1, "minus-one": -1}[kind], order)
    if kind == "rational":
        return CycScalar.from_rational(draw(fractions), order)
    if kind == "monomial":
        return draw(fractions) * root_of_unity(order, draw(st.integers(0, order - 1)))
    total = CycScalar.zero(order)
    for k in range(order):
        total = total + draw(fractions) * root_of_unity(order, k)
    return total


def vectors(orders=ORDERS):
    # few indices, so that sums collide
    return st.dictionaries(st.integers(0, 3), scalars(orders), max_size=4).map(FreeVector)


@st.composite
def pairs(draw):
    pool = draw(st.lists(vectors(), min_size=1, max_size=3))
    coeffs = draw(st.lists(scalars(), min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(0, 6))):
        v, c = draw(st.sampled_from(pool)), draw(st.sampled_from(coeffs))
        out.append((v, c))
        if draw(st.booleans()):
            # cancel the addend, and maybe bring it back at the end of the dict
            out.append((v, -c))
            if draw(st.booleans()):
                out.append((v, c))
    return out


def _shape(terms):
    return [(ix, c.order, c.coeffs, c.den) for ix, c in terms.items()]


@contextmanager
def _scalar_trace():
    """Every CycScalar product and sum, as (operation, left, right) values."""
    trace = {"*": [], "+": []}
    originals = {"*": CycScalar.__mul__, "+": CycScalar.__add__}

    def traced(op):
        def run(a, b):
            shape_b = (b.order, b.coeffs, b.den) if isinstance(b, CycScalar) else b
            trace[op].append((a.order, a.coeffs, a.den, shape_b))
            return originals[op](a, b)

        return run

    CycScalar.__mul__, CycScalar.__add__ = traced("*"), traced("+")
    try:
        yield trace
    finally:
        CycScalar.__mul__, CycScalar.__add__ = originals["*"], originals["+"]


def _agrees(run_kernel, run_reference, inputs):
    before = [_shape(v.terms) for v in inputs]
    with _scalar_trace() as kernel_ops:
        got = run_kernel()
    with _scalar_trace() as reference_ops:
        want = run_reference()
    assert _shape(got.terms) == _shape(want.terms)
    assert kernel_ops == reference_ops
    # the first addend is taken by reference, so no later add may write into it
    assert [_shape(v.terms) for v in inputs] == before


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_combine_matches_repeated_addition(items):
    _agrees(lambda: combine(items), lambda: reference_combine(items), [v for v, _ in items])


@st.composite
def index_terms(draw):
    """(index, coefficient) terms over a few indices, some cancelled and
    maybe brought back, as `pairs` draws its addends."""
    coeffs = draw(st.lists(scalars(), min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(0, 8))):
        ix, c = draw(st.integers(0, 3)), draw(st.sampled_from(coeffs))
        out.append((ix, c))
        if draw(st.booleans()):
            out.append((ix, -c))
            if draw(st.booleans()):
                out.append((ix, c))
    return out


@settings(max_examples=150, deadline=None)
@given(index_terms())
def test_sum_terms_matches_repeated_addition_of_basis_vectors(terms):
    with _scalar_trace() as ops:
        got = sum_terms(terms)
    want = reference_combine((FreeVector.basis(ix), c) for ix, c in terms)
    assert _shape(got.terms) == _shape(want.terms)
    assert ops["*"] == []
    if not got.terms:
        assert got is FreeVector.zero()


def one_term_vectors():
    # a zero coefficient leaves the vector with no term at all
    return st.tuples(st.integers(0, 3), scalars()).map(lambda term: FreeVector(dict([term])))


@st.composite
def mixed_arguments(draw):
    """One to four arguments, each a vector or a fixed int index, at least
    one a vector; or the (degree, vector, degree, vector) shape of a wedge;
    or two to four vectors of one term each, maybe with an index among them."""
    shape = draw(st.sampled_from(["wedge", "one-term", "mixed"]))
    if shape == "wedge":
        return [draw(st.integers(0, 3)), draw(vectors()), draw(st.integers(0, 3)), draw(vectors())]
    if shape == "one-term":
        args = draw(st.lists(one_term_vectors(), min_size=2, max_size=4))
        if draw(st.booleans()):
            args.insert(draw(st.integers(0, len(args))), draw(st.integers(0, 3)))
        return args
    args = draw(st.lists(st.one_of(vectors(), st.integers(0, 3)), min_size=1, max_size=4))
    if not any(isinstance(a, FreeVector) for a in args):
        args[draw(st.integers(0, len(args) - 1))] = draw(vectors())
    return args


@settings(max_examples=150, deadline=None)
@given(mixed_arguments(), st.lists(vectors(), min_size=1, max_size=4))
# two one-term slots before an empty one: no image and no product at all,
# not even that of the first two coefficients
@example(
    [FreeVector({0: CycScalar.from_rational(2, 4)}), FreeVector({1: -root_of_unity(8)}), FreeVector.zero()],
    [FreeVector({0: CycScalar.one()})],
)
def test_linear_matches_the_nested_loops(args, images):
    def fn(*ixs):
        return images[sum((k + 1) * ix for k, ix in enumerate(ixs)) % len(images)]

    vector_args = [a for a in args if isinstance(a, FreeVector)]
    _agrees(lambda: linear(fn, *args), lambda: reference_linear(fn, *args), vector_args + images)


def test_a_call_without_vector_arguments_is_the_map_itself():
    image = FreeVector({0: root_of_unity(4)})
    calls = []

    def fn(*args):
        calls.append(args)
        return image

    assert linear(fn, 1, ("w", 2), "deg") is image
    assert calls == [(1, ("w", 2), "deg")]


indices = st.recursive(
    st.integers(-3, 3) | st.booleans() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(indices, max_size=6))
def test_a_kept_sort_key_is_the_recursive_definition(ixs):
    # keys are kept across calls, so a key met first as an equal index,
    # such as True for 1 or (0,) for (False,), must be the key of this one;
    # each example starts from no kept key, so that it decides what is kept
    kept = linalg._SORT_KEYS
    linalg._SORT_KEYS = {}
    try:
        for ix in ixs + ixs:
            assert index_sort_key(ix) == reference_index_sort_key(ix)
    finally:
        linalg._SORT_KEYS = kept


def test_a_cancelled_index_comes_back_at_the_end():
    one, two = CycScalar.one(), CycScalar.from_rational(2)
    v = FreeVector({0: one, 1: one})
    items = [(v, one), (FreeVector({0: one}), -one), (FreeVector({0: one}), two)]
    got = combine(items)
    assert _shape(got.terms) == _shape(reference_combine(items).terms)
    assert list(got.terms) == [1, 0]
    assert list(v.terms) == [0, 1] and v.terms[0] is one


def test_a_lone_addend_with_coefficient_one_is_returned_as_it_is():
    v = FreeVector({0: root_of_unity(8)})
    assert combine([(FreeVector.zero(), CycScalar.from_rational(3)), (v, CycScalar.one(4))]) is v
    assert combine([]).is_zero()


@pytest.mark.parametrize("order", ORDERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_basis_argument_is_the_same_as_fixing_the_index(order, data):
    # an index argument k is passed through to the map, and gives the same
    # terms, in the same order, with the same scalars, as wrapping k with
    # FreeVector.basis, whatever the field of v's coefficients
    v = data.draw(vectors([order]))
    k = data.draw(st.integers(0, 3))
    images = data.draw(st.lists(vectors(), min_size=1, max_size=4))

    def fn(i, j):
        return images[(i + 2 * j) % len(images)]

    e = FreeVector.basis(k)
    assert _shape(linear(fn, v, k).terms) == _shape(linear(fn, v, e).terms)
    assert _shape(linear(fn, k, v).terms) == _shape(linear(fn, e, v).terms)


# nonzero scalars of Q(zeta_4): units, and two that are not
Q4_NONZERO = [CycScalar.from_rational(c, 4) for c in (1, -1, 2)] + [
    root_of_unity(4), -root_of_unity(4), CycScalar.one(4) + root_of_unity(4)
]
SLOTS = ("first", "then", "inner", "outer")


def _twisted_matrix_units(draw):
    """The products of an associative algebra with zero products: the n x n
    matrix units e_ij, each rescaled by a scalar u_ij, maybe tensored with
    k[t]/(t^2) in the basis 1, 1 + t, whose square is -1 + 2(1 + t).  A
    product of two basis elements is zero, one term or two."""
    n = draw(st.integers(1, 3))
    factor = [0, 1] if n < 3 and draw(st.booleans()) else [0]
    u = {(i, j): draw(st.sampled_from(Q4_NONZERO)) for i in range(n) for j in range(n)}
    one, two = CycScalar.one(4), CycScalar.from_rational(2, 4)
    poly = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {0: -one, 1: two}}
    basis = [(i, j, a) for i in range(n) for j in range(n) for a in factor]
    table = {}
    for i, j, a in basis:
        for k, l, b in basis:
            if j == k:
                c = u[i, j] * u[j, l] * u[i, l].inverse()
                table[(i, j, a), (k, l, b)] = FreeVector({(i, l, e): c * x for e, x in poly[a, b].items()})
    return basis, {slot: table for slot in SLOTS}


def _cancelling_row(draw, tables, basis, x, y, zs):
    """tables with both sides of the row (x, y) zero, one of them as a sum
    of two terms that cancel at every (z, w): either first(x, y) = c a - c b
    with then(a, z) = then(b, z) at every z, or inner(y, z) = c a - c b at
    one z with outer(x, a) = outer(x, b); the other side has no term."""
    a, b = draw(st.lists(st.sampled_from(basis), min_size=2, max_size=2, unique=True))
    c = draw(st.sampled_from(Q4_NONZERO))
    pair = FreeVector({a: c, b: -c})
    nonzero = st.dictionaries(st.sampled_from(basis), st.sampled_from(Q4_NONZERO), min_size=1, max_size=2)
    tables = {slot: dict(table) for slot, table in tables.items()}
    first, then, inner, outer = (tables[slot] for slot in SLOTS)
    for z in zs:
        inner.pop((y, z), None)
    if draw(st.booleans()):
        first[x, y] = pair
        for k, z in enumerate(zs):
            # at least one nonzero row entry, so that something cancels
            then[a, z] = then[b, z] = FreeVector(draw(nonzero if k == 0 else nonzero | st.just({})))
    else:
        first.pop((x, y), None)
        inner[y, draw(st.sampled_from(zs))] = pair
        outer[x, a] = outer[x, b] = FreeVector(draw(nonzero))
    return tables


def _one_target_under_every_z(draw, tables, basis, x, y, zs):
    """tables whose row (x, y) reaches one index w under every z, on both
    sides: first(x, y) = m, then(m, z) = c c_z w, inner(y, z) = c_z t and
    outer(x, t) = c w, except that then(m, z) may be doubled at one z."""
    m, t, w = (draw(st.sampled_from(basis)) for _ in range(3))
    c = draw(st.sampled_from(Q4_NONZERO))
    off = draw(st.integers(-1, len(zs) - 1))
    tables = {slot: dict(table) for slot, table in tables.items()}
    first, then, inner, outer = (tables[slot] for slot in SLOTS)
    first[x, y] = FreeVector({m: CycScalar.one(4)})
    outer[x, t] = FreeVector({w: c})
    for k, z in enumerate(zs):
        cz = draw(st.sampled_from(Q4_NONZERO))
        inner[y, z] = FreeVector({t: cz})
        then[m, z] = FreeVector({w: c * cz * CycScalar.from_rational(2 if k == off else 1, 4)})
    return tables


def _nested(ix):
    """ix inside a nested tuple index, as the package's tensor indices are."""
    return ("@", ("n", ix), (ix, ("t",)))


def _nest_tables(tables):
    return {
        slot: {(_nested(a), _nested(b)): FreeVector({_nested(i): c for i, c in v.terms.items()})
               for (a, b), v in table.items()}
        for slot, table in tables.items()
    }


@st.composite
def associativity_tables(draw):
    """(xs, ys, zs, tables, associative): four sparse bilinear tables over a
    small index set, one per slot of first_non_associative, with a missing
    entry for a zero product.  Either all four are the products of
    `_twisted_matrix_units`, which are associative, or each entry is drawn
    at random, and the first row may then be made a row whose sums cancel
    (`_cancelling_row`) or one that reaches a single w under every z
    (`_one_target_under_every_z`); either way one entry that the sweep
    reads may then be corrupted.  zs comes in a drawn order, not in the
    order of the basis, and every index may be nested in tuples."""
    if draw(st.booleans()):
        basis, tables = _twisted_matrix_units(draw)
        associative = True
    else:
        basis = list(range(draw(st.integers(1, 4))))
        associative = False
    entries = st.dictionaries(st.sampled_from(basis), st.sampled_from(Q4_NONZERO), max_size=2).map(FreeVector)
    if not associative:
        tables = {
            slot: {(a, b): draw(entries) for a in basis for b in basis if draw(st.booleans())} for slot in SLOTS
        }
    xs, ys, zs = (draw(st.lists(st.sampled_from(basis), min_size=1, unique=True)) for _ in range(3))
    zs = draw(st.permutations(zs))
    if not associative and len(basis) > 1:
        row = draw(st.sampled_from([None, _cancelling_row, _one_target_under_every_z]))
        if row is not None:
            tables = row(draw, tables, basis, xs[0], ys[0], zs)
    if draw(st.booleans()):
        slot = draw(st.sampled_from(SLOTS))
        left, right = {"first": (xs, ys), "then": (basis, zs), "inner": (ys, zs), "outer": (xs, basis)}[slot]
        key = (draw(st.sampled_from(left)), draw(st.sampled_from(right)))
        tables = {**tables, slot: {**tables[slot], key: draw(entries)}}
        associative = False
    if draw(st.booleans()):
        xs, ys, zs = ([_nested(ix) for ix in ixs] for ixs in (xs, ys, zs))
        tables = _nest_tables(tables)
    return xs, ys, zs, tables, associative


@settings(max_examples=200, deadline=None)
@given(associativity_tables())
def test_first_non_associative_matches_the_per_triple_loop(case):
    xs, ys, zs, tables, associative = case
    calls = Counter()

    def slot_map(slot):
        def fn(a, b):
            calls[slot, a, b] += 1
            return tables[slot].get((a, b), FreeVector.zero())

        return fn

    got = first_non_associative(xs, ys, zs, *map(slot_map, SLOTS))
    # each row of then and inner is evaluated once, outer at most once per
    # (x, t), and first once per (x, y)
    assert all(n == 1 for (slot, *_), n in calls.items() if slot in ("then", "inner", "outer"))
    assert sum(n for (slot, *_), n in calls.items() if slot == "first") <= len(xs) * len(ys)
    assert got == reference_first_non_associative(xs, ys, zs, *map(slot_map, SLOTS))
    if associative:
        assert got is None


@st.composite
def multiplicative_laws(draw):
    """(xs, ys, tables, acting, bad, lawful): the tables phi, source and
    target of first_non_multiplicative over `_twisted_matrix_units`, with
    source and target its product and phi an algebra map, the rescaling
    e_ij -> (d_i / d_j) e_ij, or, acting, the right product by a drawn
    basis element, which left products commute with.  One entry of source
    in the last column of a row may then be redrawn, so that the row can
    differ only at its last y, and bad holds the arguments at which a map
    raises NoSolution.  lawful when neither was drawn."""
    basis, tables = _twisted_matrix_units(draw)
    mult = tables["first"]
    acting = draw(st.booleans())
    if acting:
        g = draw(st.sampled_from(basis))
        phi = {a: mult.get((a, g), FreeVector.zero()) for a in basis}
    else:
        d = [draw(st.sampled_from(Q4_NONZERO)) for _ in range(3)]
        phi = {(i, j, a): FreeVector({(i, j, a): d[i] * d[j].inverse()}) for i, j, a in basis}
    xs, ys = (draw(st.lists(st.sampled_from(basis), min_size=1, unique=True)) for _ in range(2))
    source = dict(mult)
    lawful = True
    if draw(st.booleans()):
        entries = st.dictionaries(st.sampled_from(basis), st.sampled_from(Q4_NONZERO), max_size=2).map(FreeVector)
        source[draw(st.sampled_from(xs)), ys[-1]] = draw(entries)
        lawful = False
    bad = {
        "phi": draw(st.sets(st.sampled_from(basis), max_size=1)),
        "source": draw(st.sets(st.tuples(st.sampled_from(xs), st.sampled_from(ys)), max_size=2)),
    }
    if bad["phi"] or bad["source"]:
        lawful = False
    return xs, ys, {"phi": phi, "source": source, "target": mult}, acting, bad, lawful


@settings(max_examples=200, deadline=None)
@given(multiplicative_laws())
def test_first_non_multiplicative_matches_the_per_pair_loop(case):
    xs, ys, tables, acting, bad, lawful = case

    def phi(a):
        if a in bad["phi"]:
            raise NoSolution(FreeVector.zero(), "drawn span")
        return tables["phi"][a]

    def source(a, b):
        if (a, b) in bad["source"]:
            raise NoSolution(FreeVector.zero(), "drawn span")
        return tables["source"].get((a, b), FreeVector.zero())

    def target(a, b):
        return tables["target"].get((a, b), FreeVector.zero())

    with _scalar_trace() as kernel_ops:
        got = first_non_multiplicative(xs, ys, phi, source, target, acting=acting)
    with _scalar_trace() as reference_ops:
        want = reference_first_non_multiplicative(xs, ys, phi, source, target, acting=acting)
    assert got == want
    if lawful:
        # a passing sweep forms the products and sums of the per-pair loop,
        # operand for operand
        assert got is None
        assert kernel_ops == reference_ops


@st.composite
def keyed_laws(draw):
    """(rows, zs, laws, bad, lawful): one or two laws of first_unequal over
    rows of one or two indices.  Each left side yields, at (row, z), up to
    three drawn (terms, c) pairs, c sometimes None; its right side yields
    the same sum split into one-term pairs with every coefficient multiplied
    out and the order reversed.  An entry of one side of each law may then
    be redrawn, so that two laws can differ in one row at different z, and
    bad holds the items at which a side raises NoSolution.  lawful when
    neither was drawn."""
    basis = list(range(draw(st.integers(1, 4))))
    width = draw(st.integers(1, 2))
    rows = draw(st.lists(st.tuples(*[st.sampled_from(basis)] * width), min_size=1, max_size=3, unique=True))
    zs = draw(st.lists(st.sampled_from(basis), min_size=1, unique=True))
    terms = st.dictionaries(st.sampled_from(basis), st.sampled_from(Q4_NONZERO), min_size=1, max_size=2)
    pairs = st.lists(st.tuples(terms, st.one_of(st.none(), st.sampled_from(Q4_NONZERO))), max_size=3)
    items = [(*row, z) for row in rows for z in zs]
    lawful, laws = True, []
    for _ in range(draw(st.integers(1, 2))):
        left = {item: draw(pairs) for item in items}
        right = {
            item: [({w: v if c is None else v * c}, None) for t, c in reversed(side) for w, v in t.items()]
            for item, side in left.items()
        }
        if draw(st.booleans()):
            table = draw(st.sampled_from([left, right]))
            table[draw(st.sampled_from(items))] = draw(pairs)
            lawful = False
        laws.append((left, right))
    bad = draw(st.sets(st.sampled_from(items), max_size=2))
    return rows, zs, laws, bad, lawful and not bad


@settings(max_examples=300, deadline=None)
@given(keyed_laws())
def test_first_unequal_matches_the_per_item_loop(case):
    rows, zs, tables, bad, lawful = case

    def side(table):
        def fn(*item):
            if item in bad:
                raise NoSolution(FreeVector.zero(), "drawn span")
            return iter(table[item])

        return fn

    laws = [(side(left), side(right)) for left, right in tables]
    got = first_unequal(rows, zs, *laws)
    assert got == reference_first_unequal(rows, zs, *laws)
    if lawful:
        assert got is None


# the Hopf-Galois quotient A (x)_B A and the bundle's Omega^1(B) (x)_B E, each
# as `balanced_tensor` returns it to its caller and as the caller's own loop
# built it before
@pytest.mark.parametrize("r, ideal", [(2, "zero"), (2, "full"), (3, "zero"), (3, "full")])
def test_balanced_tensors_match_the_relation_loops_they_replace(monkeypatch, r, ideal):
    built = []

    def recorded(lefts, scalars, rights, *rest):
        built.append((linalg.balanced_tensor(lefts, scalars, rights, *rest), lefts, rights))
        return built[-1][0]

    for module in (hopfcalc.crossed, hopfcalc.qpb):
        monkeypatch.setattr(module, "balanced_tensor", recorded)
    rc = radford_calculus_instance(r, 2, ideal=ideal)
    comodule = rc.instance.crossed.comodule
    check_hopf_galois(comodule)
    v = VComodule(
        labels=[("v", 0), ("v", 1)],
        coaction=lambda vx: FreeVector.basis(tensor_index(vx, ("g", 1 % r if vx[1] == 0 else 0))),
    )
    e_span = covariant_derivative(vertical_map(rc.cf), v).e_span
    wants = [reference_galois_quotient(comodule), reference_derivative_quotient(rc.cf, e_span)]
    assert len(built) == len(wants)
    for (got, lefts, rights), want in zip(built, wants):
        assert got.sub.basis() == want.sub.basis()
        assert got.labels == want.labels
        assert got.representatives == want.representatives
        for m in lefts:
            for n in rights:
                pair = FreeVector.basis(tensor_index(m, n))
                assert got.project(pair) == want.project(pair)
