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


def reference_linear(fn, *vectors):
    """The loops of the pre-kernel `*_vec` bodies (`comul_vec`, `mult_vec`, ...)."""
    out = OracleVector({})
    if len(vectors) == 1:
        for ix, c in vectors[0].terms.items():
            out = out + OracleVector(fn(ix).terms).scale(c)
        return out
    v, w = vectors
    for i, ci in v.terms.items():
        for j, cj in w.terms.items():
            out = out + OracleVector(fn(i, j).terms).scale(ci * cj)
    return out
