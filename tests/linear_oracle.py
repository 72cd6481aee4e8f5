"""Sums of scaled vectors as they were written before `linalg.combine`.

The reference is the literal loop `out = out + v.scale(c)` over a copy of
the `FreeVector.__add__` and `FreeVector.scale` bodies that preceded the
kernel, so that the kernel is compared against code it does not share.
`OracleVector` wraps a vector's `terms` dict without copying it, as `scale`
by one and `0 + v` did: the first addend is adopted by reference.
"""


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
