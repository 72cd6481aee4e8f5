"""Exact arithmetic in cyclotomic fields Q(zeta_M).

A scalar is a polynomial in a fixed primitive M-th root of unity,
reduced modulo the M-th cyclotomic polynomial, so every comparison in the
package is bit-exact.  Mixed-order operands are coerced into Q(zeta_lcm)
first.

The coefficients are stored as FLINT's fmpq_poly stores them: integer
numerators `coeffs` over one denominator `den`.  The form is canonical
(den >= 1, gcd(den, *coeffs) == 1, and zero is all zeros over 1), so
equal values at one order have equal fields.  Phi_M is monic with integer
coefficients, so reduction and the power table stay in the integers.
When both operands have den == 1, which is nearly every scalar the
examples build, +, -, * and the closed forms below are integer arithmetic
with no gcd; only an operand with den > 1, an inverse or a division
reduces by a gcd.

Most scalars in practice are rationals or monomials c*zeta^k, and those
take closed forms (as in GAP's sparse cyclotomics):
- a rational operand whose order divides the other operand's order scales
  it, or embeds as (c, 0, ..., 0) for +, - and ==, without to_order;
- monomial * monomial is c_a*c_b times one row of the power table;
- the inverse of c*zeta^k is (1/c)*zeta^(-k), and its n-th power is
  c^n*zeta^(k*n).
Roots of unity +-zeta^k over 1, most scalars of the Radford examples,
also carry their exponent in the slot root_exp (see _unit_exps; -2 marks
zero, -1 any other value), a cache of the value that _make and __init__
set.  A product with a one of order one or of the other operand's order
is that operand; the negation of a unit, and the product of two units of
one order or of +-1 of order one and a unit, is one entry of the table
_units, with no new scalar built; root_of_unity indexes that table, so the
monomial inverse and power of a unit land on its entries too.  Whether two
units are equal, or cancel in a sum or difference, is read from their
exponents (_cancels).  is_zero and is_one read the slot.
Every other case takes the dense path: lcm coercion, convolution folded
through the power table, and a fraction-free extended Euclid for
inverses.  The result order is the lcm of the operand orders on every
path.  Operands may also be ints or Fraction values, read through
.numerator and .denominator.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd, lcm
from operator import add, neg, sub

__all__ = ["CycScalar", "root_of_unity", "parse_scalar", "signed_terms", "multiplicative_order"]


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_pseudo_divmod(num, den):
    """(m, q, r) over Z with m * num == q * den + r and deg r < deg den."""
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    lead, m = den[-1], 1
    while len(num) >= len(den) and _poly_trim(num):
        shift = len(num) - len(den)
        c = num[-1]
        if c % lead:
            num = [lead * x for x in num]
            q = [lead * x for x in q]
            m *= lead
        else:
            c //= lead
        q[shift] += c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
        _poly_trim(num)
    return m, _poly_trim(q), num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients (low to high) of the cyclotomic polynomial Phi_order."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    # x^order - 1 divided by Phi_d over all proper divisors d of order
    p = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            _, q, r = _poly_pseudo_divmod(p, cyclotomic_polynomial(d))
            if r:
                raise ArithmeticError("cyclotomic division must be exact")
            p = q
    return tuple(p)


@lru_cache(maxsize=None)
def _phi_degree(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


@lru_cache(maxsize=None)
def _power_table(order: int) -> tuple:
    """Reduced integer coefficient tuples of zeta^k for k up to 2(deg-1)."""
    deg = _phi_degree(order)
    return tuple(_reduce_mod_phi(order, [0] * k + [1]) for k in range(max(2 * deg - 1, 1)))


@lru_cache(maxsize=None)
def _zero_tail(order: int) -> tuple:
    """The zero coefficients of zeta^1 .. zeta^(deg-1) in Q(zeta_order)."""
    return (0,) * (_phi_degree(order) - 1)


def _reduce_mod_phi(order, poly) -> tuple:
    """An integer polynomial reduced modulo the monic Phi_order."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    poly = list(poly)
    while len(poly) > deg:
        c = poly.pop()
        if c:
            shift = len(poly) - deg
            for i in range(deg):
                poly[shift + i] -= c * phi[i]
    poly += [0] * (deg - len(poly))
    return tuple(poly)


class CycScalar:
    """An element of Q(zeta_M): integer numerators `coeffs` over `den`, reduced mod Phi_M."""

    __slots__ = ("order", "coeffs", "den", "root_exp")

    def __init__(self, order: int, coeffs):
        """coeffs are ints or rationals with .numerator and .denominator, low power first."""
        pairs = [(c.numerator, c.denominator) for c in coeffs]
        den = lcm(*[d for _, d in pairs])
        nums = [n * (den // d) for n, d in pairs]
        if len(nums) != _phi_degree(order):
            nums = _reduce_mod_phi(order, nums)
        nums, den = _canonical(nums, den)
        _set_order(self, order)
        _set_coeffs(self, nums)
        _set_den(self, den)
        _set_root_exp(self, _unit_exps(order).get(nums, -1) if den == 1 else -1)

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(value, order: int = 1) -> "CycScalar":
        """value (an int or a Fraction, so already in lowest terms) at order."""
        return _make(order, (value.numerator,) + _zero_tail(order), value.denominator)

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
        poly = [0] * ((len(self.coeffs) - 1) * step + 1)
        for k, c in enumerate(self.coeffs):
            poly[k * step] = c
        return _normal(order, _reduce_mod_phi(order, poly), self.den)

    def _common(self, other):
        if not isinstance(other, CycScalar):
            return self, CycScalar.from_rational(other, self.order)
        if self.order == other.order:
            return self, other
        if _rational_in(other, self.order):
            return self, _make(self.order, (other.coeffs[0],) + _zero_tail(self.order), other.den)
        if _rational_in(self, other.order):
            return _make(other.order, (self.coeffs[0],) + _zero_tail(other.order), self.den), other
        m = self.order * other.order // gcd(self.order, other.order)
        return self.to_order(m), other.to_order(m)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.root_exp == -2

    def is_one(self) -> bool:
        return self.root_exp == 0

    def is_rational(self) -> bool:
        """Whether the value lies in Q, whatever its order."""
        return _rational_in(self, self.order)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if _cancels(self, other, 1):
            return _cached_const(lcm(self.order, other.order), 0)
        a, b = self._common(other)
        if a.den == b.den:
            return _normal(a.order, tuple(map(add, a.coeffs, b.coeffs)), a.den)
        return _normal(a.order, tuple([x * b.den + y * a.den for x, y in zip(a.coeffs, b.coeffs)]), a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        e = self.root_exp
        if e >= 0:
            units = _units(self.order)
            return units[(e + len(units) // 2) % len(units)]
        return _make(self.order, tuple(map(neg, self.coeffs)), self.den)

    def __sub__(self, other):
        if _cancels(self, other, 0):
            return _cached_const(lcm(self.order, other.order), 0)
        a, b = self._common(other)
        if a.den == b.den:
            return _normal(a.order, tuple(map(sub, a.coeffs, b.coeffs)), a.den)
        return _normal(a.order, tuple([x * b.den - y * a.den for x, y in zip(a.coeffs, b.coeffs)]), a.den * b.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CycScalar):
            return _scale(self, other.numerator, other.denominator)
        e, f = self.root_exp, other.root_exp
        if not e and self.order in (1, other.order):
            return other
        if not f and other.order in (1, self.order):
            return self
        if e >= 0 and f >= 0:
            if self.order == other.order:
                units = _units(self.order)
                return units[(e + f) % len(units)]
            # +-1 of order one, exponent 0 or 1, times a unit of another order
            if other.order == 1:
                return -self if f else self
            if self.order == 1:
                return -other if e else other
        if _rational_in(other, self.order):
            return _scale(self, other.coeffs[0], other.den)
        if _rational_in(self, other.order):
            return _scale(other, self.coeffs[0], self.den)
        a, b = self._common(other)
        table = _power_table(a.order)
        den = a.den * b.den
        i, j = _monomial(a.coeffs), _monomial(b.coeffs)
        if i >= 0 and j >= 0:
            c = a.coeffs[i] * b.coeffs[j]
            return _normal(a.order, tuple([c * x for x in table[i + j]]), den)
        # dense convolution folded through the precomputed power table
        deg = len(a.coeffs)
        acc = [0] * (2 * deg - 1)
        for i, ca in enumerate(a.coeffs):
            if ca:
                for j, cb in enumerate(b.coeffs):
                    if cb:
                        acc[i + j] += ca * cb
        out = acc[:deg]
        for k in range(deg, 2 * deg - 1):
            ck = acc[k]
            if ck:
                for i, r in enumerate(table[k]):
                    if r:
                        out[i] += ck * r
        return _normal(a.order, tuple(out), den)

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        k = _monomial(self.coeffs)
        if k >= 0:
            n, d = self.den, self.coeffs[k]
            if d < 0:
                n, d = -n, -d
            return _scale(root_of_unity(self.order, -k), n, d)
        # extended Euclid over Z against Phi (irreducible over Q), with
        # pseudo-division; the invariant is s * coeffs == r mod Phi
        r0, r1 = list(cyclotomic_polynomial(self.order)), _poly_trim(list(self.coeffs))
        s0, s1 = [], [1]
        while r1:
            m, q, r = _poly_pseudo_divmod(r0, r1)
            s = [m * x for x in s0] + [0] * max(len(q) + len(s1) - 1 - len(s0), 0)
            for i, cq in enumerate(q):
                if cq:
                    for j, cs in enumerate(s1):
                        s[i + j] -= cq * cs
            g = gcd(*r, *s) or 1
            r0, r1, s0, s1 = r1, [x // g for x in r], s1, _poly_trim([x // g for x in s])
        # r0 is a nonzero constant c and s0 * coeffs == c mod Phi, so the
        # inverse of coeffs / den is den * s0 / c
        return _normal(self.order, _reduce_mod_phi(self.order, [self.den * x for x in s0]), r0[0])

    def __truediv__(self, other):
        if not isinstance(other, CycScalar):
            other = CycScalar.from_rational(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return CycScalar.from_rational(other) / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        k = _monomial(self.coeffs)
        if k >= 0:
            return _scale(root_of_unity(self.order, k * exponent), self.coeffs[k] ** exponent, self.den**exponent)
        result = CycScalar.one(self.order)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, CycScalar) and not hasattr(other, "denominator"):
            return NotImplemented
        same = _cancels(self, other, 0)
        if same is not None:
            return same
        a, b = self._common(other)
        return a.coeffs == b.coeffs and a.den == b.den

    __hash__ = None  # equality coerces across orders; do not hash

    # -- text form ----------------------------------------------------

    def __repr__(self):
        return f"CycScalar({self.to_text()!r})"

    def to_text(self) -> str:
        """Polynomial text form, e.g. '1/2 + 3*z4^1'; round-trips via parse_scalar.

        Each coefficient prints as str(Fraction) does: 'p' or 'p/q' in lowest terms."""
        parts = []
        for k, n in enumerate(self.coeffs):
            if not n:
                continue
            d = self.den
            if d != 1:
                g = gcd(n, d)
                n, d = n // g, d // g
            c = str(n) if d == 1 else f"{n}/{d}"
            parts.append(c if k == 0 else f"{c}*z{self.order}^{k}")
        if not parts:
            return "0"
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


_set_order = CycScalar.order.__set__
_set_coeffs = CycScalar.coeffs.__set__
_set_den = CycScalar.den.__set__
_set_root_exp = CycScalar.root_exp.__set__
_new = object.__new__


def _make(order, coeffs: tuple, den: int = 1) -> CycScalar:
    """Internal constructor for canonical numerators over den."""
    out = _new(CycScalar)
    _set_order(out, order)
    _set_coeffs(out, coeffs)
    _set_den(out, den)
    _set_root_exp(out, _unit_exps(order).get(coeffs, -1) if den == 1 else -1)
    return out


@lru_cache(maxsize=None)
def _unit_exps(order: int) -> dict:
    """root_exp by numerators over 1 at order: -2 for zero, e for +-zeta^k = zeta_N^e.

    N is order for even order and 2 * order for odd order, so that the
    values +-zeta^k form the cyclic group mu_N and -1 is zeta_N^(N/2)."""
    deg = _phi_degree(order)
    step, half = (1, order // 2) if order % 2 == 0 else (2, order)
    exps = {(0,) * deg: -2}
    for k in range(deg):
        for sign, shift in ((1, 0), (-1, half)):
            exps[(0,) * k + (sign,) + (0,) * (deg - k - 1)] = (step * k + shift) % (2 * half)
    return exps


@lru_cache(maxsize=None)
def _units(order: int) -> tuple:
    """The N canonical values zeta_N^e at order, e = 0 .. N-1 (N as in _unit_exps)."""
    phi = cyclotomic_polynomial(order)
    # zeta^k for k = 0 .. order-1, each the last times zeta: a shift, and
    # zeta^deg = -(phi_0 + ... + phi_(deg-1) zeta^(deg-1)) for the top term
    powers = [(1,) + _zero_tail(order)]
    for _ in range(order - 1):
        p = powers[-1]
        c, p = p[-1], (0,) + p[:-1]
        powers.append(tuple([x - c * f for x, f in zip(p, phi)]) if c else p)
    if order % 2 == 0:
        return tuple(_make(order, p) for p in powers)
    # zeta_2M = -zeta_M^((M+1)/2), so zeta_2M^e is zeta_M^(e/2) for even e
    # and -zeta_M^((e+M)/2 mod M) for odd e
    return tuple(_make(order, powers[e // 2] if e % 2 == 0 else tuple(map(neg, powers[(e + order) // 2 % order])))
                 for e in range(2 * order))


def _canonical(nums, den: int) -> tuple:
    """(numerators, denominator) of nums / den in lowest terms with a positive denominator."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        return tuple([x // g for x in nums]), den // g
    return tuple(nums), den


def _normal(order, nums: tuple, den: int) -> CycScalar:
    """nums / den in canonical form, for any nonzero den; no gcd when den is 1."""
    return _make(order, nums, 1) if den == 1 else _make(order, *_canonical(nums, den))


def _rational_in(s: CycScalar, order: int) -> bool:
    """Whether s is rational (every coefficient past the first is zero) and embeds in Q(zeta_order)."""
    c = s.coeffs
    return not order % s.order and c.count(0) - (c[0] == 0) == len(c) - 1


def _cancels(a: CycScalar, b, half: int) -> bool | None:
    """Whether a + b (half 1) or a - b (half 0) is zero, for units a = zeta_n^e and b = zeta_m^f
    (n, m as in _unit_exps): whether e/n - f/m is half a turn or a whole one.  None for non-units."""
    e, f = a.root_exp, getattr(b, "root_exp", -1)
    if e < 0 or f < 0:
        return None
    n, m = len(_units(a.order)), len(_units(b.order))
    return 2 * (e * m - f * n) % (2 * n * m) == half * n * m


def _monomial(coeffs: tuple) -> int:
    """k if c*zeta^k is the only nonzero term of coeffs, else -1."""
    if len(coeffs) - coeffs.count(0) != 1:
        return -1
    for k, c in enumerate(coeffs):
        if c:
            return k


def _scale(s: CycScalar, n: int, d: int) -> CycScalar:
    """(n / d) * s for a rational n / d in lowest terms, with no new scalar when it is 1."""
    if d == 1:
        if n == 1:
            return s
        if n == -1:
            return -s
        if not n:
            return _cached_const(s.order, 0)
    return _normal(s.order, tuple([n * x for x in s.coeffs]), d * s.den)


@lru_cache(maxsize=None)
def _cached_const(order, value):
    return CycScalar.from_rational(value, order)


def root_of_unity(order: int, power: int = 1) -> CycScalar:
    """zeta_order^power, reduced mod Phi_order."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    units = _units(order)
    return units[power * len(units) // order % len(units)]


def multiplicative_order(s: CycScalar, bound: int | None = None) -> int | None:
    """Least k >= 1 with s^k = 1, or None if not found within the bound."""
    bound = bound if bound is not None else 4 * s.order + 4
    acc = s
    for k in range(1, bound + 1):
        if acc.is_one():
            return k
        acc = acc * s
    return None


# a pattern string: compiled by the first parse, into `re`'s cache, not at import
_TERM_RE = (
    r"^\s*(?:(?P<p>-?\d+)(?:/(?P<q>\d+))?\s*(?:\*\s*(?P<zr>z(?P<mr>\d+)(?:\^(?P<kr>-?\d+))?))?"
    r"|(?P<z>z(?P<m>\d+)(?:\^(?P<k>-?\d+))?))\s*$"
)


def signed_terms(text: str) -> list[tuple[int, str]]:
    """(sign, chunk) pairs of text split at each + or - outside parentheses.

    A sign right after '*', '^' or '/' stays in its chunk, as in z4^-1, and
    a '-' before any text of a chunk flips the chunk's sign."""
    terms, chunk, sign, depth = [], "", 1, 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and chunk.strip() and not chunk.rstrip().endswith(("*", "^", "/")):
            terms.append((sign, chunk))
            sign = 1 if ch == "+" else -1
            chunk = ""
        elif ch == "-" and depth == 0 and not chunk.strip():
            sign = -sign
        else:
            chunk += ch
    terms.append((sign, chunk))
    return terms


def parse_scalar(text: str) -> CycScalar:
    """Parse the textual scalar grammar '<rat>[*z<M>^<k>] +/- ...'."""
    text = text.strip()
    if not text:
        raise ValueError("empty scalar")
    total = CycScalar.zero()
    for sgn, chunk in signed_terms(text):
        m = re.match(_TERM_RE, chunk)
        if not m:
            raise ValueError(f"bad scalar term {chunk!r}")
        if m.group("z"):
            order, k = int(m.group("m")), int(m.group("k") or 1)
            value = root_of_unity(order, k)
        else:
            q = int(m.group("q") or 1)
            if not q:
                raise ValueError(f"bad scalar term {chunk.strip()!r}: zero denominator")
            value = _normal(1, (int(m.group("p")),), q)
            if m.group("zr"):
                order, k = int(m.group("mr")), int(m.group("kr") or 1)
                value = value * root_of_unity(order, k)
        total = total + sgn * value
    return total
