from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcalc.scalars import (
    CycScalar,
    _reduce_mod_phi,
    _units,
    cyclotomic_polynomial,
    multiplicative_order,
    parse_scalar,
    root_of_unity,
    signed_terms,
)

ORDERS = [1, 2, 3, 4, 5, 6, 8, 12]


def scalars(orders=ORDERS):
    @st.composite
    def build(draw):
        order = draw(st.sampled_from(orders))
        deg = len(cyclotomic_polynomial(order)) - 1
        coeffs = draw(
            st.lists(
                st.fractions(
                    min_value=-4, max_value=4, max_denominator=6
                ),
                min_size=deg,
                max_size=deg,
            )
        )
        return CycScalar(order, coeffs)

    return build()


def test_fourth_root_squares_to_minus_one():
    z4 = root_of_unity(4)
    assert z4 * z4 == CycScalar.from_rational(-1)


def test_third_roots_sum_to_zero():
    total = CycScalar.one() + root_of_unity(3, 1) + root_of_unity(3, 2)
    assert total.is_zero()


def test_eighth_root_times_seventh_power_is_one():
    assert (root_of_unity(8, 1) * root_of_unity(8, 7)).is_one()


def test_root_of_unity_base_cases():
    assert root_of_unity(1, 0).is_one()
    assert root_of_unity(4, 2) == -1
    assert root_of_unity(2, 1) == -1


def test_roots_have_expected_order():
    for m in ORDERS:
        assert root_of_unity(m) ** m == 1
        # Phi_m vanishes at zeta_m
        phi = cyclotomic_polynomial(m)
        value = CycScalar.zero(m)
        for k, c in enumerate(phi):
            value = value + CycScalar.from_rational(c, m) * root_of_unity(m, k)
        assert value.is_zero()


def test_root_of_unity_memo_is_bounded_by_the_order():
    _units.cache_clear()
    for k in range(-1000, 1001):
        assert root_of_unity(8, k) == root_of_unity(8, k % 8)
    assert _units.cache_info().currsize == 1 and len(_units(8)) == 8


def test_unit_table_rows_are_the_reduced_powers():
    # _units builds each power of zeta from the last by one shift; Phi_105
    # has a coefficient -2, and the odd orders also take the signed half
    for order in (7, 15, 30, 105):
        for k in range(order):
            assert root_of_unity(order, k).coeffs == _reduce_mod_phi(order, [0] * k + [1])
            assert (-root_of_unity(order, k)).coeffs == tuple(-x for x in _reduce_mod_phi(order, [0] * k + [1]))


def test_multiplicative_order():
    assert multiplicative_order(root_of_unity(8)) == 8
    assert multiplicative_order(root_of_unity(8, 2)) == 4
    assert multiplicative_order(CycScalar.from_rational(2), bound=20) is None


def test_mixed_order_arithmetic_coerces():
    assert root_of_unity(2, 1) == CycScalar.from_rational(-1)
    z = root_of_unity(6, 1) * root_of_unity(4, 1)
    assert multiplicative_order(z) == 12


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        CycScalar.one() / CycScalar.zero(4)


def test_scalar_arith_dispatch():
    a, b = CycScalar.from_rational(Fraction(3, 2)), root_of_unity(4)
    assert (a + b) - b == a
    assert (a - b) + b == a
    assert a * b == b * a
    assert (a / b) * b == a


def test_structural_equality_of_reduced_forms():
    # same element, same order: identical coefficient tuples
    a = root_of_unity(4, 1) + root_of_unity(4, 3)
    assert a.is_zero()
    assert a.coeffs == CycScalar.zero(4).coeffs


def test_text_round_trip_examples():
    s = CycScalar.from_rational(Fraction(1, 2)) + 3 * root_of_unity(4)
    assert s.to_text() == "1/2 + 3*z4^1"
    assert parse_scalar(s.to_text()) == s
    assert parse_scalar("0").is_zero()
    assert parse_scalar("-z8^3 - 1/3") == -root_of_unity(8, 3) - Fraction(1, 3)


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_text_round_trip_random(s):
    assert parse_scalar(s.to_text()) == s


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_inverses(a):
    assert (a + (-a)).is_zero()
    if not a.is_zero():
        assert (a * a.inverse()).is_one()
        assert (a / a).is_one()


@pytest.mark.parametrize(
    "text, terms",
    [
        ("1 - z4^-1", [(1, "1 "), (-1, " z4^-1")]),
        ("-(1 + z4)*2 + 3", [(-1, "(1 + z4)*2 "), (1, " 3")]),
        ("--1/2*z8", [(1, "1/2*z8")]),
        ("1*-1 - -2", [(1, "1*-1 "), (1, " 2")]),
    ],
)
def test_signed_terms_split_at_top_level_signs_only(text, terms):
    assert signed_terms(text) == terms
