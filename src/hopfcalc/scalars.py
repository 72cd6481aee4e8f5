"""Exact arithmetic in cyclotomic fields Q(zeta_M).

A scalar is a polynomial in a fixed primitive M-th root of unity,
reduced modulo the M-th cyclotomic polynomial.  All coefficients are
rationals, so every comparison in the package is bit-exact.  Mixed-order
operands are coerced into Q(zeta_lcm) first.

Most scalars in practice are rationals or monomials c*zeta^k, and those
take closed forms (as in GAP's sparse cyclotomics):
- a rational operand whose order divides the other operand's order scales
  it, or embeds as (c, 0, ..., 0) for +, - and ==, without to_order;
- monomial * monomial is c_a*c_b times one row of the power table;
- the inverse of c*zeta^k is (1/c)*zeta^(-k), and its n-th power is
  c^n*zeta^(k*n).
Every other case takes the dense path: lcm coercion, convolution folded
through the power table, and extended Euclid for inverses.  The result
order is the lcm of the operand orders on every path.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

__all__ = ["CycScalar", "root_of_unity", "parse_scalar", "multiplicative_order"]


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return _poly_trim(out)


def _poly_divmod(num, den):
    """Euclidean division in Q[x]; den need not be monic."""
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    inv_lead = 1 / den[-1]
    while len(num) >= len(den) and _poly_trim(num):
        shift = len(num) - len(den)
        c = num[-1] * inv_lead
        q[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
        _poly_trim(num)
    return _poly_trim(q), num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[Fraction, ...]:
    """Coefficients (low to high) of the cyclotomic polynomial Phi_order."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    # x^order - 1 divided by Phi_d over all proper divisors d of order
    p = [Fraction(-1)] + [Fraction(0)] * (order - 1) + [Fraction(1)]
    for d in range(1, order):
        if order % d == 0:
            q, r = _poly_divmod(p, list(cyclotomic_polynomial(d)))
            if r:
                raise ArithmeticError("cyclotomic division must be exact")
            p = q
    return tuple(p)


@lru_cache(maxsize=None)
def _phi_degree(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


@lru_cache(maxsize=None)
def _power_table(order: int) -> tuple:
    """Reduced coefficient tuples of zeta^k for k up to 2(deg-1)."""
    deg = _phi_degree(order)
    rows = []
    for k in range(max(2 * deg - 1, 1)):
        rows.append(_reduce_mod_phi(order, [Fraction(0)] * k + [Fraction(1)]))
    return tuple(rows)


@lru_cache(maxsize=None)
def _zero_tail(order: int) -> tuple:
    """The zero coefficients of zeta^1 .. zeta^(deg-1) in Q(zeta_order)."""
    return (Fraction(0),) * (_phi_degree(order) - 1)


def _reduce_mod_phi(order, poly):
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    poly = list(poly)
    while len(poly) > deg:
        c = poly[-1]
        shift = len(poly) - 1 - deg
        if c:
            for i in range(deg + 1):
                poly[shift + i] -= c * phi[i]
        poly.pop()
    poly += [Fraction(0)] * (deg - len(poly))
    return tuple(poly)


class CycScalar:
    """An element of Q(zeta_M), canonically reduced mod Phi_M."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != _phi_degree(order):
            coeffs = _reduce_mod_phi(order, coeffs)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(value, order: int = 1) -> "CycScalar":
        return _make(order, (_fraction(value),) + _zero_tail(order))

    @staticmethod
    def zero(order: int = 1) -> "CycScalar":
        return _cached_const(order, 0)

    @staticmethod
    def one(order: int = 1) -> "CycScalar":
        return _cached_const(order, 1)

    # -- coercion -----------------------------------------------------

    def to_order(self, order: int) -> "CycScalar":
        """Embed into Q(zeta_order); order must be a multiple of self.order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into order {order}")
        step = order // self.order
        poly = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1 or 1)
        for k, c in enumerate(self.coeffs):
            if c:
                poly[k * step] += c
        return CycScalar(order, _reduce_mod_phi(order, poly))

    def _common(self, other):
        if not isinstance(other, CycScalar):
            return self, CycScalar.from_rational(other, self.order)
        if self.order == other.order:
            return self, other
        c = _rational(other, self.order)
        if c is not None:
            return self, CycScalar.from_rational(c, self.order)
        c = _rational(self, other.order)
        if c is not None:
            return CycScalar.from_rational(c, other.order), other
        m = self.order * other.order // gcd(self.order, other.order)
        return self.to_order(m), other.to_order(m)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        a, b = self._common(other)
        return _make(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, tuple(-x if x else x for x in self.coeffs))

    def __sub__(self, other):
        a, b = self._common(other)
        return _make(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CycScalar):
            return _scale(self, _fraction(other))
        c = _rational(other, self.order)
        if c is not None:
            return _scale(self, c)
        c = _rational(self, other.order)
        if c is not None:
            return _scale(other, c)
        a, b = self._common(other)
        table = _power_table(a.order)
        mono_a, mono_b = _monomial(a.coeffs), _monomial(b.coeffs)
        if mono_a and mono_b:
            (i, ca), (j, cb) = mono_a, mono_b
            return _make(a.order, _times(ca * cb, table[i + j]))
        # dense convolution folded through the precomputed power table
        deg = len(a.coeffs)
        acc = [Fraction(0)] * (2 * deg - 1)
        for i, ca in enumerate(a.coeffs):
            if ca == 0:
                continue
            for j, cb in enumerate(b.coeffs):
                if cb:
                    acc[i + j] += ca * cb
        out = list(acc[:deg])
        for k in range(deg, 2 * deg - 1):
            ck = acc[k]
            if ck:
                row = table[k]
                for i, r in enumerate(row):
                    if r:
                        out[i] += ck * r
        return _make(a.order, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        mono = _monomial(self.coeffs)
        if mono:
            k, c = mono
            return _scale(root_of_unity(self.order, -k), 1 / c)
        # extended Euclid in Q[x] against Phi (irreducible over Q)
        r0, r1 = list(cyclotomic_polynomial(self.order)), _poly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            s = [Fraction(0)] * max(len(s0), len(q) + len(s1) - 1 if s1 and q else len(s0), 1)
            qs1 = _poly_mul(q, s1)
            for i, c in enumerate(s0):
                s[i] += c
            for i, c in enumerate(qs1):
                s[i] -= c
            r0, r1, s0, s1 = r1, r, s1, _poly_trim(s)
        # r0 = gcd (a nonzero constant), s0 * self = r0 mod Phi
        c = 1 / r0[0]
        return CycScalar(self.order, _reduce_mod_phi(self.order, [x * c for x in s0]))

    def __truediv__(self, other):
        if not isinstance(other, CycScalar):
            other = CycScalar.from_rational(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return CycScalar.from_rational(other) / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        mono = _monomial(self.coeffs)
        if mono:
            k, c = mono
            return _scale(root_of_unity(self.order, k * exponent), c**exponent)
        result = CycScalar.one(self.order)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, (CycScalar, int, Fraction)):
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # equality coerces across orders; do not hash

    # -- text form ----------------------------------------------------

    def __repr__(self):
        return f"CycScalar({self.to_text()!r})"

    def to_text(self) -> str:
        """Polynomial text form, e.g. '1/2 + 3*z4^1'; round-trips via parse_scalar."""
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*z{self.order}^{k}")
        if not parts:
            return "0"
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def _make(order, coeffs: tuple) -> CycScalar:
    """Internal constructor for already-reduced coefficient tuples."""
    out = CycScalar.__new__(CycScalar)
    object.__setattr__(out, "order", order)
    object.__setattr__(out, "coeffs", coeffs)
    return out


def _fraction(value) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


def _rational(s: CycScalar, order: int):
    """The value of s if s is rational and embeds in Q(zeta_order), else None."""
    if order % s.order or any(s.coeffs[1:]):
        return None
    return s.coeffs[0]


def _monomial(coeffs: tuple):
    """(k, c) if c*zeta^k is the only nonzero term of coeffs, else None."""
    found = None
    for k, c in enumerate(coeffs):
        if c:
            if found:
                return None
            found = (k, c)
    return found


def _times(c: Fraction, coeffs: tuple) -> tuple:
    return tuple(c * x if x else x for x in coeffs)


def _scale(s: CycScalar, c: Fraction) -> CycScalar:
    """c * s for a rational c, with no new scalar when c is 1."""
    if c == 1:
        return s
    if c == -1:
        return -s
    if not c:
        return _cached_const(s.order, 0)
    return _make(s.order, _times(c, s.coeffs))


@lru_cache(maxsize=None)
def _cached_const(order, value):
    return CycScalar.from_rational(value, order)


def root_of_unity(order: int, power: int = 1) -> CycScalar:
    """zeta_order^power, reduced mod Phi_order."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    return _root(order, power % order)


@lru_cache(maxsize=None)
def _root(order: int, power: int) -> CycScalar:
    """Memo of root_of_unity: at most `order` entries per order."""
    poly = [Fraction(0)] * power + [Fraction(1)]
    return CycScalar(order, _reduce_mod_phi(order, poly))


def multiplicative_order(s: CycScalar, bound: int | None = None) -> int | None:
    """Least k >= 1 with s^k = 1, or None if not found within the bound."""
    bound = bound if bound is not None else 4 * s.order + 4
    acc = s
    for k in range(1, bound + 1):
        if acc.is_one():
            return k
        acc = acc * s
    return None


_TERM_RE = re.compile(
    r"^\s*(?:(?P<rat>-?\d+(?:/\d+)?)\s*(?:\*\s*(?P<zr>z(?P<mr>\d+)(?:\^(?P<kr>-?\d+))?))?"
    r"|(?P<z>z(?P<m>\d+)(?:\^(?P<k>-?\d+))?))\s*$"
)


def parse_scalar(text: str) -> CycScalar:
    """Parse the textual scalar grammar '<rat>[*z<M>^<k>] +/- ...'."""
    text = text.strip()
    if not text:
        raise ValueError("empty scalar")
    # split on top-level + / - while keeping signs attached
    terms = []
    current, sign = "", 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "+-" and current.strip() and not current.rstrip().endswith(("*", "^", "/")):
            terms.append((sign, current))
            sign = 1 if ch == "+" else -1
            current = ""
        elif ch == "-" and not current.strip():
            sign = -sign
        else:
            current += ch
        i += 1
    terms.append((sign, current))
    total = CycScalar.zero()
    for sgn, chunk in terms:
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"bad scalar term {chunk!r}")
        if m.group("z"):
            order, k = int(m.group("m")), int(m.group("k") or 1)
            value = root_of_unity(order, k)
        else:
            try:
                coeff = Fraction(m.group("rat"))
            except ZeroDivisionError:
                raise ValueError(f"bad scalar term {chunk.strip()!r}: zero denominator") from None
            if m.group("zr"):
                order, k = int(m.group("mr")), int(m.group("kr") or 1)
                value = coeff * root_of_unity(order, k)
            else:
                value = CycScalar.from_rational(coeff)
        total = total + sgn * value
    return total
