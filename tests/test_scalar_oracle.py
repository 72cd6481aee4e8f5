"""Differential test of hopfcalc.scalars against the frozen scalar_oracle.

Every closed-form path of the scalar layer (rational operands, monomials
c*zeta^k, roots of unity +-zeta^k by exponent) must give the same order,
the same value in each coefficient and the same text as the dense
Fraction implementation it replaced, and keep its own canonical form:
integer numerators over one denominator den >= 1 with
gcd(den, *numerators) == 1, zero over 1, and a root_exp that agrees with
the numerators.  Operands are biased towards the shapes those paths
select on; orders 9 and 15 have roots of unity that are dense in the
basis.
"""

from fractions import Fraction
from math import gcd

import scalar_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcalc.scalars import CycScalar, root_of_unity

ORDERS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15]
# pairs whose orders do not divide each other, plus the common embeddings
ORDER_PAIRS = [(3, 4), (4, 3), (4, 6), (6, 4), (2, 3), (8, 12), (1, 4), (4, 8), (4, 4), (3, 15), (9, 3)]
KINDS = ["unit", "unit", "rational", "monomial", "monomial", "root", "root", "dense", "number"]

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def operand(draw, order):
    """(new, old) pair of equal values, or a plain number used as both."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "number":
        value = draw(st.one_of(st.sampled_from([0, 1, -1, 2]), fractions))
        return value, value
    if kind == "unit":
        value = oracle.CycScalar.from_rational(draw(st.sampled_from([1, -1])), order)
    elif kind == "rational":
        value = oracle.CycScalar.from_rational(draw(fractions), order)
    elif kind == "root":
        power = draw(st.integers(min_value=0, max_value=order - 1))
        value = draw(st.sampled_from([1, -1])) * oracle.root_of_unity(order, power)
    elif kind == "monomial":
        power = draw(st.integers(min_value=0, max_value=order - 1))
        value = draw(fractions) * oracle.root_of_unity(order, power)
    else:
        deg = len(oracle.cyclotomic_polynomial(order)) - 1
        value = oracle.CycScalar(order, draw(st.lists(fractions, min_size=deg, max_size=deg)))
    return CycScalar(value.order, value.coeffs), value


@st.composite
def operand_pair(draw):
    any_pair = st.tuples(st.sampled_from(ORDERS), st.sampled_from(ORDERS))
    order_a, order_b = draw(st.one_of(st.sampled_from(ORDER_PAIRS), any_pair))
    a = draw(operand(order_a))
    if isinstance(a[0], (int, Fraction)):
        a = (CycScalar.from_rational(a[0], order_a), oracle.CycScalar.from_rational(a[1], order_a))
    return a, draw(operand(order_b))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def assert_same(new, old):
    if old is ZeroDivisionError or isinstance(old, bool):
        assert new == old
        return
    assert isinstance(new, CycScalar)
    assert new.order == old.order
    assert [Fraction(n, new.den) for n in new.coeffs] == list(old.coeffs)
    assert_canonical(new)
    assert new.to_text() == old.to_text()


def assert_canonical(s):
    assert all(type(n) is int for n in s.coeffs)
    assert type(s.den) is int and s.den >= 1
    # lowest terms, which also puts zero over 1
    assert gcd(s.den, *s.coeffs) == 1
    assert s.root_exp == expected_root_exp(s)


def expected_root_exp(s):
    """-2 for zero; e for +-zeta^k over 1, the value being zeta_N^e with
    N = order (even order) or 2 * order (odd order); -1 otherwise."""
    nonzero = [(k, n) for k, n in enumerate(s.coeffs) if n]
    if not nonzero:
        return -2
    if s.den != 1 or len(nonzero) != 1 or nonzero[0][1] not in (1, -1):
        return -1
    (k, n), = nonzero
    size = s.order if s.order % 2 == 0 else 2 * s.order
    return (k * size // s.order + (0 if n == 1 else size // 2)) % size


BINARY = [
    lambda x, y: x + y,
    lambda x, y: x - y,
    lambda x, y: x * y,
    lambda x, y: x / y,
    lambda x, y: x == y,
]


@settings(max_examples=200, deadline=None)
@given(operand_pair(), st.integers(min_value=-6, max_value=6), st.sampled_from([1, 2, 3]))
def test_scalars_match_the_frozen_oracle(pair, exponent, step):
    (a, a_old), (b, b_old) = pair
    for op in BINARY:
        assert_same(outcome(op, a, b), outcome(op, a_old, b_old))
        assert_same(outcome(op, b, a), outcome(op, b_old, a_old))
    for x, x_old in ((a, a_old), (b, b_old)):
        if not isinstance(x, CycScalar):
            continue
        assert_same(outcome(x.inverse), outcome(x_old.inverse))
        assert_same(outcome(pow, x, exponent), outcome(pow, x_old, exponent))
        assert_same(x.to_order(x.order * step), x_old.to_order(x_old.order * step))
        assert x.to_text() == x_old.to_text()


@settings(max_examples=100, deadline=None)
@given(operand(3), st.sampled_from([3, 2, 6, -4]))
def test_a_denominator_cancelled_again_returns_to_one(pair, k):
    x, x_old = pair
    if not isinstance(x, CycScalar):
        x, x_old = CycScalar.from_rational(x, 3), oracle.CycScalar.from_rational(x_old, 3)
    part, part_old = x / k, x_old / k
    for new, old in ((part * k, part_old * k), (part + part * (k - 1), part_old + part_old * (k - 1))):
        assert_same(new, old)
        assert (new.coeffs, new.den) == (x.coeffs, x.den)


def units(order):
    """(new, old) pairs of every +-zeta^k at order, k = 0 .. order-1."""
    return [
        (sign * root_of_unity(order, k), sign * oracle.root_of_unity(order, k))
        for k in range(order)
        for sign in (1, -1)
    ]


def test_every_unit_pair_matches_the_frozen_oracle():
    # the unit paths (root_exp slot, _units table, monomial closed forms): every
    # product, sum, difference, negation, inverse and comparison of two units,
    # at one order and across orders, against the Fraction oracle; the one of
    # every order stands on both sides of a cross-order product, as __mul__
    # returns the other operand for a one of order one or of that operand's
    # order, and a sum or difference that cancels is read from the exponents
    generators = {order: units(order)[:1] + units(order)[-2:] for order in range(1, 13)}
    for order_a in range(1, 13):
        for a, a_old in units(order_a):
            assert_same(a, a_old)
            assert_same(-a, -a_old)
            assert_same(a.inverse(), a_old.inverse())
            assert_same(a ** 5, a_old ** 5)
            for b, b_old in units(order_a) + [g for order_b in range(1, 13) for g in generators[order_b]]:
                assert_same(a * b, a_old * b_old)
                assert_same(b * a, b_old * a_old)
                assert_same(a + b, a_old + b_old)
                assert_same(a - b, a_old - b_old)
                assert_same(a == b, a_old == b_old)
