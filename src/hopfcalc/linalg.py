"""Sparse exact linear algebra over cyclotomic scalars.

Vectors are finitely supported maps from opaque basis indices to
CycScalar.  An index is any nesting of tuples, ints and strings; the
convention throughout the package is ``(tag, key...)`` with a string
tag first.  Tensor product indices are ``("@", left, right)``.

Elimination is exact over the field with deterministic pivoting
(smallest index first), so kernels, images, ranks and quotients are
reproducible bit for bit.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Callable, Iterable, Optional

from hopfcalc.scalars import CycScalar

__all__ = [
    "FreeVector",
    "Subspace",
    "NoSolution",
    "TrackedSpan",
    "LinearSolver",
    "QuotientSpace",
    "balanced_tensor",
    "tensor_index",
    "flatten_left",
    "flatten_right",
    "format_index",
    "index_sort_key",
    "intersection_dim",
    "combine",
    "sum_terms",
    "linear",
    "first_non_associative",
    "first_non_multiplicative",
    "first_unequal",
    "memoise",
    "memoise_fields",
    "record",
]

Index = tuple


_SORT_KEYS = {}


def index_sort_key(ix):
    """Total order on heterogeneous indices: ints, then strings, then tuples.

    Each index's key is computed once and kept: equal indices, such as 1
    and True, have equal keys."""
    key = _SORT_KEYS.get(ix)
    if key is None:
        if isinstance(ix, tuple):
            key = (2, tuple(index_sort_key(part) for part in ix))
        elif isinstance(ix, int):
            key = (0, int(ix))
        else:
            key = (1, str(ix))
        _SORT_KEYS[ix] = key
    return key


def tensor_index(left, right) -> Index:
    return ("@", left, right)


def flatten_left(v: FreeVector) -> FreeVector:
    """((i (x) j) (x) k) indices as flat ("@3", i, j, k) triples."""
    return v.map_indices(lambda ix: ("@3", ix[1][1], ix[1][2], ix[2]))


def flatten_right(v: FreeVector) -> FreeVector:
    """(i (x) (j (x) k)) indices as flat ("@3", i, j, k) triples."""
    return v.map_indices(lambda ix: ("@3", ix[1], ix[2][1], ix[2][2]))


def format_index(ix) -> str:
    if isinstance(ix, tuple):
        if len(ix) == 3 and ix[0] == "@":
            return f"({format_index(ix[1])} (x) {format_index(ix[2])})"
        if len(ix) >= 1 and isinstance(ix[0], str):
            inner = ",".join(format_index(p) for p in ix[1:])
            return f"{ix[0]}({inner})" if inner else ix[0]
        return "(" + ",".join(format_index(p) for p in ix) + ")"
    return str(ix)


class FreeVector:
    """Finitely supported linear combination of basis indices."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        data = {}
        if terms:
            for ix, c in terms.items():
                if not c.is_zero():
                    data[ix] = c
        object.__setattr__(self, "terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("FreeVector is immutable")

    @staticmethod
    def zero() -> "FreeVector":
        return _ZERO

    @staticmethod
    def basis(ix, coeff: CycScalar | int = 1) -> "FreeVector":
        if not isinstance(coeff, CycScalar):
            coeff = _ONE if coeff == 1 else CycScalar.from_rational(coeff)
        return _ZERO if coeff.is_zero() else _wrap({ix: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: index_sort_key(kv[0]))

    def support(self):
        return sorted(self.terms.keys(), key=index_sort_key)

    def leading_index(self):
        return min(self.terms.keys(), key=index_sort_key) if self.terms else None

    def __add__(self, other: "FreeVector") -> "FreeVector":
        if not other.terms:
            return self
        if not self.terms:
            return other
        data = dict(self.terms)
        _add_into(data, other.terms, None)
        return _wrap(data)

    def __neg__(self) -> "FreeVector":
        return _wrap({ix: -c for ix, c in self.terms.items()})

    def __sub__(self, other: "FreeVector") -> "FreeVector":
        return self + (-other)

    def scale(self, c: CycScalar) -> "FreeVector":
        if not self.terms or c.is_zero():
            return _ZERO
        if c.is_one():
            return self
        # a product of nonzero elements of a field is nonzero
        return _wrap({ix: v * c for ix, v in self.terms.items()})

    def tensor(self, other: "FreeVector") -> "FreeVector":
        data = {}
        for i, ci in self.terms.items():
            for j, cj in other.terms.items():
                data[tensor_index(i, j)] = ci * cj
        return FreeVector(data)

    def map_indices(self, fn) -> "FreeVector":
        data = {}
        for ix, c in self.terms.items():
            jx = fn(ix)
            prev = data.get(jx)
            data[jx] = c if prev is None else prev + c
        return FreeVector(data)

    def __eq__(self, other):
        # more than half the comparisons in a radford verification are of two
        # zero results, both _ZERO
        if self is other:
            return True
        if not isinstance(other, FreeVector):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"FreeVector({self.to_text()})"

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for ix, c in self.items():
            parts.append(f"({c.to_text()})*{format_index(ix)}")
        return " + ".join(parts)


def _wrap(data: dict) -> FreeVector:
    """A vector on data as it is: its entries must be nonzero."""
    out = FreeVector.__new__(FreeVector)
    object.__setattr__(out, "terms", data)
    return out


_ZERO = _wrap({})
_ONE = CycScalar.one()


def _add_into(data: dict, terms: dict, c: Optional[CycScalar]) -> None:
    """Add terms, each times c unless c is None, into data in place.

    A sum that reaches zero is deleted, so an index that comes back is
    re-inserted at the end, as `+` on vectors does.
    """
    for ix, x in terms.items():
        if c is not None:
            x = x * c
        prev = data.get(ix)
        if prev is not None:
            x = prev + x
            if x.is_zero():
                del data[ix]
                continue
        data[ix] = x


def _sub_into(data: dict, terms: dict, c: CycScalar) -> dict:
    """data minus c times terms, in place, with the terms, order and scalars
    of `data - v.scale(c)` on vectors; no product by a c of one."""
    scaled = not c.is_one()
    for ix, x in terms.items():
        if scaled:
            x = x * c
        prev = data.get(ix)
        if prev is None:
            data[ix] = -x
        elif prev is x or (x := prev - x).is_zero():  # a pivot entry c - 1*c, c itself, is x
            del data[ix]
        else:
            data[ix] = x
    return data


def combine(pairs: Iterable[tuple[FreeVector, CycScalar]]) -> FreeVector:
    """The sum of v.scale(c) over the (v, c) pairs.

    The result has the same terms, in the same order and with the same
    scalars, as adding the scaled vectors one by one with `+`: the first
    addend with coefficient one is taken as it is and copied before any
    write, a coefficient of one is not multiplied, and each product is
    formed as `x * c`.  Only the running sum is not copied at every step.
    """
    first, data = _ZERO, None
    for v, c in pairs:
        if not v.terms or c.is_zero():
            continue
        if c.is_one():
            if data is None:
                if not first.terms:
                    first = v
                    continue
                data = dict(first.terms)
            _add_into(data, v.terms, None)
        else:
            if data is None:
                data = dict(first.terms)
            _add_into(data, v.terms, c)
    return first if data is None else _wrap(data)


def sum_terms(terms: Iterable[tuple[Index, CycScalar]]) -> FreeVector:
    """The sum of c * E(ix) over the (ix, c) terms, with the terms, order and
    scalars of `combine` of the pairs (E(ix), c), E = FreeVector.basis, but
    no product: a c of one enters as E(ix)'s own one, any other as it is."""
    data = {}
    for ix, c in terms:
        if c.is_one():
            c = _ONE
        elif c.is_zero():
            continue
        prev = data.get(ix)
        if prev is not None:
            c = prev + c
            if c.is_zero():
                del data[ix]
                continue
        data[ix] = c
    return _wrap(data) if data else _ZERO


def linear(fn: Callable[..., FreeVector], *args) -> FreeVector:
    """The extension of fn, a map on basis indices, that is linear in each vector argument.

    Each FreeVector argument is a slot that runs over its terms; every other
    argument, such as an index or a degree, is passed to fn as it is.  The
    images are taken in the order of nested loops over the slots, the
    leftmost outermost, each weighted by the product of its slot
    coefficients taken left to right, and summed by `combine`.  With no
    vector argument this is fn(*args).  A slot with no term gives the zero
    vector at once, with no image and no product, which over a quarter of
    the calls in a radford verification meet.  When every slot holds one
    term, the one image is returned as fn(...).scale(c1 * c2 * ...), the
    product formed left to right once every slot is known to hold one
    term: the same terms, order and scalars as `combine` of one pair.
    """
    kinds = list(map(type, args))
    n = kinds.count(FreeVector)
    if not n:
        return fn(*args)
    if n == 1:
        k = kinds.index(FreeVector)
        terms = args[k].terms
        if not terms:
            return _ZERO
        cells = list(args)
        if len(terms) == 1:
            (cells[k], c), = terms.items()
            return fn(*cells).scale(c)
        return combine((fn(*cells), c) for cells[k], c in terms.items())
    slots, k, single = [], -1, True
    for _ in range(n):
        k = kinds.index(FreeVector, k + 1)
        size = len(args[k].terms)
        if size != 1:
            if not size:
                return _ZERO
            single = False
        slots.append(k)
    cells = list(args)
    if not single:
        return combine(_images(fn, cells, slots, product(*(args[k].terms.items() for k in slots))))
    c = None
    for k in slots:
        (cells[k], ck), = args[k].terms.items()
        c = ck if c is None else c * ck
    return fn(*cells).scale(c)


def _images(fn, cells, slots, picks):
    """(fn with each pick of terms put in its slots, the product of the picked coefficients)."""
    for pick in picks:
        c = None
        for k, (cells[k], ck) in zip(slots, pick):
            c = ck if c is None else c * ck
        yield fn(*cells), c


def first_non_associative(xs, ys, zs, first, then, inner, outer, table=None):
    """The first (x, y, z), looping over the lists xs, ys and zs, at which
    then(first(x, y), z) != outer(x, inner(y, z)), with then and outer
    extended linearly; None if there is none.  table, a pair of dicts kept
    by the caller for one then and zs, shares then's rows between calls.

    Each side of a row (x, y) is one dict {(z, w): coefficient} over every
    z at once, and the two sides are compared with one `==`; only when they
    differ is the first z with a differing entry taken as the witness.  The
    key (z, w) is the int id(w) * len(zs) + the position of z, where an
    index gets its id, a small int, the first time a row or image stores
    it, so no key of a row hashes an index.  first is evaluated once per
    (x, y), then(m, .) once per term m, kept as such a dict, inner(y, .)
    once per y, kept as its terms (position of z, t, id(t), c), and
    outer(x, t) once per x and t, kept by id(t) as its pairs
    (id(w) * len(zs), c).  The sums are those of `combine`: each product is
    formed as `x * c`, none by a coefficient of one, and an entry whose sum
    reaches zero is deleted.
    """
    n = len(zs)
    then_rows, ids = table or ({}, {})
    inner_rows = {}
    for x in xs:
        outer_terms = {}
        for y in ys:
            terms = first(x, y).terms
            for m in terms:
                if m not in then_rows:
                    then_rows[m] = {
                        ids.setdefault(w, len(ids)) * n + k: c
                        for k, z in enumerate(zs)
                        for w, c in then(m, z).terms.items()
                    }
            if len(terms) == 1 and next(iter(terms.values())).is_one():
                lhs = then_rows[m]  # the one term's row, not copied
            else:
                lhs = {}
                for m, c in terms.items():
                    _add_into(lhs, then_rows[m], None if c.is_one() else c)
            row = inner_rows.get(y)
            if row is None:
                row = inner_rows[y] = [
                    (k, t, ids.setdefault(t, len(ids)), None if c.is_one() else c)
                    for k, z in enumerate(zs) for t, c in inner(y, z).terms.items()
                ]
            rhs = {}
            for k, t, tid, c in row:
                image = outer_terms.get(tid)
                if image is None:
                    image = outer_terms[tid] = [
                        (ids.setdefault(w, len(ids)) * n, v) for w, v in outer(x, t).terms.items()
                    ]
                for key, v in image:
                    if c is not None:
                        v = v * c
                    key += k
                    prev = rhs.get(key)
                    if prev is not None:
                        v = prev + v
                        if v.is_zero():
                            del rhs[key]
                            continue
                    rhs[key] = v
            if lhs != rhs:
                return x, y, zs[_first_position(lhs, rhs, n)]
    return None


def first_non_multiplicative(xs, ys, phi, source, target, acting=False):
    """The first (x, y), looping over the lists xs and ys, at which
    phi(source(x, y)) != target(phi(x), phi(y)), or target(x, phi(y))
    when acting, with phi and target extended linearly; None if there is
    none.  So phi is an algebra map from the product source to the product
    target, or, acting, linear for the left actions source and target.

    Each side of a row x is one dict over every y at once, keyed by the
    int id(w) * len(ys) + the position of y as in `first_non_associative`,
    and the two are compared with one `==`; when they differ, the first y
    with a differing entry is taken as the witness.  A row whose
    evaluation raises NoSolution is run again pair by pair, each side
    through `linear`; its first pair whose sides differ, or whose
    evaluation raises NoSolution, is returned, as `CheckReport.sweep` fails
    at it.  The products are those of `linear`: c_x * c_y for each pair of
    terms of phi(x) and phi(y), and each image entry times its
    coefficient, none by a coefficient of one.
    """
    n = len(ys)
    ids = {}
    for x in xs:
        try:
            lhs, rhs = {}, {}
            left = ((x, None),) if acting else phi(x).terms.items()
            for k, y in enumerate(ys):
                for m, c in source(x, y).terms.items():
                    _add_keyed(lhs, phi(m).terms, ids, n, k, c)
                right = phi(y).terms.items()
                for a, ca in left:
                    for b, cb in right:
                        _add_keyed(rhs, target(a, b).terms, ids, n, k, cb if ca is None else ca * cb)
            if lhs == rhs:
                continue
            return x, ys[_first_position(lhs, rhs, n)]
        except NoSolution:
            pass
        for y in ys:
            try:
                if linear(phi, source(x, y)) != linear(target, x if acting else phi(x), phi(y)):
                    return x, y
            except NoSolution:
                return x, y
    return None


def first_unequal(rows, zs, *laws):
    """The first (*row, z), looping over the lists rows, of tuples, and zs,
    at which a law (left, right) has left(*row, z) != right(*row, z); None
    if there is none.  A side yields (terms, c) pairs, the terms dict of a
    vector and its coefficient, None for one.  Each side of a row is one
    dict over every z, keyed as in `first_non_multiplicative`; the least z
    at which any law's two differ is the witness.  A row that raises
    NoSolution is run again z by z, failing as `CheckReport.sweep` does."""
    ids = {}
    for row in rows:
        try:
            hits = [_first_position(lhs, rhs, len(zs)) for lhs, rhs in _keyed_laws(row, zs, laws, ids) if lhs != rhs]
            if hits:
                return (*row, zs[min(hits)])
        except NoSolution:
            for z in zs:
                try:
                    if any(lhs != rhs for lhs, rhs in _keyed_laws(row, (z,), laws, ids)):
                        return (*row, z)
                except NoSolution:
                    return (*row, z)
    return None


def _keyed_laws(row, zs, laws, ids):
    """The two sides of each law on row, each one keyed dict over zs."""
    n = len(zs)
    for law in laws:
        sides = {}, {}
        for data, side in zip(sides, law):
            for k, z in enumerate(zs):
                for terms, c in side(*row, z):
                    _add_keyed(data, terms, ids, n, k, c)
        yield sides


def _first_position(lhs: dict, rhs: dict, n: int) -> int:
    """The least position key % n of a key at which the rows lhs and rhs differ."""
    return min(key % n for key in lhs.keys() | rhs.keys() if lhs.get(key) != rhs.get(key))


def _add_keyed(data: dict, terms: dict, ids: dict, n: int, k: int, c: Optional[CycScalar]) -> None:
    """Add terms times c, each at the key id(w) * n + k of its index w, into
    data in place, as `_add_into` adds them; no product by a c of one or None."""
    if c is not None and c.is_one():
        c = None
    for w, v in terms.items():
        if c is not None:
            v = v * c
        key = ids.setdefault(w, len(ids)) * n + k
        prev = data.get(key)
        if prev is not None:
            v = prev + v
            if v.is_zero():
                del data[key]
                continue
        data[key] = v


def memoise(fn):
    """fn with its value kept per argument tuple; None and memos pass through.

    A structure map on basis indices is a fixed table, so each entry is
    computed once; it is called as fn(ix) at an index and extended to
    vectors by `linear`.  A call that raises stores nothing.  Record
    fields are memoised by `memoise_fields` and a `LinearSolver` memoises
    its map, so a map handed to either needs no wrapper of its own.
    """
    if fn is None or hasattr(fn, "memo"):
        return fn
    memo = {}

    def memoised(*args):
        got = memo.get(args)
        if got is None:
            got = memo[args] = fn(*args)
        return got

    memoised.memo = memo
    return memoised


def memoise_fields(obj, *names) -> None:
    """Memoise the named structure maps of obj in place: fields, or methods such as `HopfData.sweedler`."""
    for name in names:
        setattr(obj, name, memoise(getattr(obj, name)))


def record(cls):
    """cls with an `__init__` that takes its annotated fields, in order, by
    position or keyword, fills the rest from their class-attribute defaults
    and then runs `__post_init__` if cls has one.

    The `__init__` is a closure over the field names, not source compiled
    per class, so defining a record compiles nothing at import time.  A
    list, dict or set default would be shared by every instance and is
    refused; such an attribute is set in `__post_init__` instead.
    """
    own = vars(cls)
    names = tuple(own.get("__annotations__", ()))
    defaults = {name: own[name] for name in names if name in own}
    for name, value in defaults.items():
        if isinstance(value, (list, dict, set)):
            raise ValueError(f"mutable default {type(value).__name__} for {cls.__name__}.{name}")
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
        rest = names[len(args):]
        for name in kwargs:
            if name not in rest:
                problem = "multiple values for" if name in names else "an unexpected keyword"
                raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        missing = [name for name in rest if name not in kwargs and name not in defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing arguments: {', '.join(map(repr, missing))}")
        for name, value in zip(names, args):
            setattr(self, name, value)
        for name in rest:
            setattr(self, name, kwargs[name] if name in kwargs else defaults[name])
        if post_init:
            self.__post_init__()

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    __init__.__module__ = cls.__module__
    cls.__init__ = __init__
    return cls


class _Echelon:
    """Reduced echelon rows with deterministic smallest-index pivots.

    A row may carry a track: a vector that the caller keeps in step with
    the row through every row operation, such as the domain combination
    that a solver's image row comes from.  Inserts either all carry a
    track or none do.

    A row operation is `v - row.scale(c)` done in place (`_sub_into`) on a
    copy: `reduce` copies v and its track once, `insert` each row and track
    it rewrites, for memoised maps share the vectors given and handed out.
    """

    def __init__(self):
        self.rows = {}  # pivot index -> monic FreeVector row
        self.tracks = {}  # pivot index -> track of that row

    def reduce(self, v: FreeVector, track: Optional[FreeVector] = None):
        """(v minus its components along the rows, track reduced alike)."""
        rows, terms, data = self.rows, v.terms, None
        while True:
            for hit in terms:
                if hit in rows:
                    break
            else:
                break
            c = terms[hit]
            if data is None:  # the first step copies, the later ones write into the copies
                data = terms = dict(terms)
                track_data = None if track is None else dict(track.terms)
            _sub_into(data, rows[hit].terms, c)
            if track is not None:
                _sub_into(track_data, self.tracks[hit].terms, c)
        if data is None:
            return v, track
        return _wrap(data), None if track is None else _wrap(track_data)

    def insert(self, v: FreeVector, track: Optional[FreeVector] = None) -> bool:
        """Grow the rows by v; False if v was dependent."""
        v, track = self.reduce(v, track)
        if v.is_zero():
            return False
        pivot = v.leading_index()
        inv = v.terms[pivot].inverse()
        row = v.scale(inv)
        if track is not None:
            track = track.scale(inv)
        # keep reduced form: eliminate the new pivot from existing rows
        for p, old in self.rows.items():
            c = old.terms.get(pivot)
            if c is not None:
                self.rows[p] = _wrap(_sub_into(dict(old.terms), row.terms, c))
                if track is not None:
                    self.tracks[p] = _wrap(_sub_into(dict(self.tracks[p].terms), track.terms, c))
        self.rows[pivot] = row
        if track is not None:
            self.tracks[pivot] = track
        return True

    @property
    def dim(self):
        return len(self.rows)

    def basis(self):
        return [self.rows[p] for p in sorted(self.rows, key=index_sort_key)]


class Subspace:
    """Span of finitely many vectors, held in reduced echelon form."""

    def __init__(self, generators: Iterable[FreeVector] = ()):
        self._ech = _Echelon()
        for g in generators:
            self._ech.insert(g)

    @property
    def dim(self) -> int:
        return self._ech.dim

    def basis(self) -> list[FreeVector]:
        return self._ech.basis()

    def contains(self, v: FreeVector) -> bool:
        return self._ech.reduce(v)[0].is_zero()

    def reduce(self, v: FreeVector) -> FreeVector:
        return self._ech.reduce(v)[0]

    def add(self, v: FreeVector) -> bool:
        """Grow the span; True if v was independent."""
        return self._ech.insert(v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis())

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.contains_subspace(other) and other.contains_subspace(self)

    __hash__ = None


class NoSolution(ValueError):
    """Raised when a target lies outside the image of a map or the span of a family."""

    def __init__(self, target: FreeVector, where: str):
        super().__init__(target, where)
        self.target = target
        self.where = where

    def __str__(self):
        return f"no solution: {self.target.to_text()} is not in the {self.where}"


class TrackedSpan:
    """Span of labelled vectors with exact coordinates over the labels.

    Built from (label, vector) pairs and grown by `add`.  Each echelon row
    tracks the label combination it is made of, and a vector that reduces
    to zero leaves the label combination it reduced to in `kernel()`.
    `labels` and `vectors` hold the independent vectors in insertion order.
    """

    def __init__(self, pairs: Iterable[tuple[Index, FreeVector]] = ()):
        self._ech = _Echelon()
        self._kernel = []
        self.labels: list[Index] = []
        self.vectors: dict[Index, FreeVector] = {}
        for label, v in pairs:
            self.add(label, v)

    def add(self, label: Index, v: FreeVector) -> bool:
        """Insert v under the given label; False if v was dependent."""
        residual, track = self._ech.reduce(v, FreeVector.basis(label))
        if residual.is_zero():
            self._kernel.append(track)
            return False
        self._ech.insert(residual, track)
        self.labels.append(label)
        self.vectors[label] = v
        return True

    def express(self, v: FreeVector) -> FreeVector:
        """Coordinates of v over the labels; NoSolution outside their span."""
        residual, track = self._ech.reduce(v, FreeVector.zero())
        if not residual.is_zero():
            raise NoSolution(v, self._where())
        return -track

    def lift(self, coeffs: FreeVector) -> FreeVector:
        """The vector with the given coordinates over the labels."""
        return linear(self.vectors.__getitem__, coeffs)

    def kernel(self) -> Subspace:
        return Subspace(self._kernel)

    @property
    def dim(self) -> int:
        return self._ech.dim

    def _where(self) -> str:
        return f"span of {self.dim} labelled vectors"


class LinearSolver(TrackedSpan):
    """The span of the columns f(ix) of f, a map on basis indices, labelled
    by its sorted domain: one elimination of f, reused across many solves.

    f is memoised (`memoise`), so each column is computed once, whether
    the elimination or the post-condition of `solve`, `linear(f, solution)`,
    reads it.  `named` gives f a name for the `NoSolution` text.
    """

    name = ""

    def __init__(self, f: Callable[[Index], FreeVector], domain: Iterable[Index]):
        self.f = f = memoise(f)
        super().__init__((ix, f(ix)) for ix in sorted(domain, key=index_sort_key))

    def named(self, name: str) -> "LinearSolver":
        """This solver, with f called name where a solve fails."""
        self.name = name
        return self

    def solve(self, target: FreeVector) -> FreeVector:
        """Some v on the domain with f(v) = target; NoSolution if there is none."""
        solution = self.express(target)
        if linear(self.f, solution) != target:
            raise RuntimeError("solver post-condition violated")
        return solution

    def _where(self) -> str:
        return f"image of {self.name or 'the map'}"


class QuotientSpace(TrackedSpan):
    """Quotient of a subspace by a smaller subspace, with chosen representatives.

    Used where the ambient space is itself presented by vectors (for
    instance the augmentation ideal inside a Hopf algebra).  It is the
    span of the presenting vectors reduced modulo `sub`, each independent
    one labelled by its class ``(cls_tag, position)``.
    """

    def __init__(self, space_vectors: Iterable[FreeVector], sub: Subspace, cls_tag: str):
        super().__init__()
        self.sub = sub
        for v in space_vectors:
            self.add((cls_tag, self.dim), sub.reduce(v))

    # the name under which perfbench/layertrace.py reads the rank
    _rep_ech = property(lambda self: self._ech)

    @property
    def representatives(self) -> list[FreeVector]:
        return list(self.vectors.values())

    def project(self, v: FreeVector) -> FreeVector:
        """Class of v as a combination of class labels; NoSolution outside the space."""
        return self.express(self.sub.reduce(v))


def balanced_tensor(lefts, scalars, rights, right_act, left_act, cls_tag: str) -> QuotientSpace:
    """M (x)_B N on the pairs (m, n), m outermost, modulo its `sub`: the
    relations m.b (x) n - m (x) b.n, b over scalars (indices or vectors of B)."""
    relations = Subspace()
    for b in scalars:
        acted = [[(n2, -c) for n2, c in linear(left_act, b, n).terms.items()] for n in rights]  # -b.n, once per n
        for m in lefts:
            moved = linear(right_act, m, b).terms.items()
            for n, minus_bn in zip(rights, acted):
                left = ((tensor_index(m2, n), c) for m2, c in moved)
                relations.add(sum_terms(chain(left, ((tensor_index(m, n2), c) for n2, c in minus_bn))))
    pairs = [FreeVector.basis(tensor_index(m, n)) for m in lefts for n in rights]
    return QuotientSpace(pairs, relations, cls_tag)


def intersection_dim(u: Subspace, v: Subspace) -> int:
    combined = Subspace(u.basis())
    for row in v.basis():
        combined.add(row)
    return u.dim + v.dim - combined.dim
