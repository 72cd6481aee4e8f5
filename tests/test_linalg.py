from typing import Callable, Optional

import pytest

from hopfcalc.linalg import (
    FreeVector,
    LinearSolver,
    LinOp,
    NoSolution,
    QuotientSpace,
    Subspace,
    TrackedSpan,
    combine,
    intersection_dim,
    linear,
    memoise_fields,
    record,
    tensor_index,
)
from hopfcalc.scalars import CycScalar, root_of_unity

E = FreeVector.basis
B3 = [("e", 0), ("e", 1), ("e", 2)]


def test_add_cancels():
    v = E(("e", 0)) + E(("e", 0)).scale(CycScalar.from_rational(-1))
    assert v.is_zero()


def test_scale_by_zero():
    v = E(("e", 0)) + E(("e", 1))
    assert v.scale(CycScalar.zero()).is_zero()


def test_tensor_of_basis_vectors():
    t = E(("e", 0)).tensor(E(("f", 1)))
    assert t == E(tensor_index(("e", 0), ("f", 1)))


def test_tensor_bilinear():
    v = E(("e", 0)) + E(("e", 1)).scale(root_of_unity(4))
    w = E(("f", 0)).scale(CycScalar.from_rational(2))
    expanded = v.tensor(w)
    manual = E(tensor_index(("e", 0), ("f", 0))).scale(CycScalar.from_rational(2)) + E(
        tensor_index(("e", 1), ("f", 0))
    ).scale(2 * root_of_unity(4))
    assert expanded == manual


def test_basis_and_negation_build_no_fresh_rational(monkeypatch):
    v = E(("e", 0)) + E(("e", 1)).scale(root_of_unity(4)) + E(("e", 2)).scale(CycScalar.from_rational(3))
    expected = v.scale(CycScalar.from_rational(-1))
    one = CycScalar.one()
    with monkeypatch.context() as m:
        m.setattr(CycScalar, "from_rational", staticmethod(lambda *args: pytest.fail("fresh rational")))
        unit = E(("e", 5))
        neg = -v
    assert unit.terms.get(("e", 5)) is one
    assert neg == expected
    assert [(ix, c.order, c.coeffs, c.den) for ix, c in neg.items()] == [
        (ix, c.order, c.coeffs, c.den) for ix, c in expected.items()
    ]


def test_basis_vectors_hold_the_order_one_one():
    one = CycScalar.one()
    for v in (E(("e", 0)), E(("e", 0), 1)):
        assert list(v.terms) == [("e", 0)]
        assert v.terms[("e", 0)] is one
        assert (one.order, one.coeffs, one.den) == (1, (1,), 1)
    assert E(("e", 0), 0).is_zero() and E(("e", 0), CycScalar.zero(4)).is_zero()


def test_equality_compares_key_sets_and_ignores_insertion_order():
    one, i4 = CycScalar.one(), root_of_unity(4)
    assert FreeVector({0: one, 1: i4}) != FreeVector({0: one, 2: i4})
    assert not FreeVector({0: one, 1: i4}) == FreeVector({2: one, 1: i4})
    assert FreeVector({0: one, 1: i4}) == FreeVector({1: i4, 0: one})
    assert FreeVector({0: one}) == FreeVector({0: CycScalar.one(8)})
    assert FreeVector({0: one}) != FreeVector({0: one, 1: one})


@record
class _Maps:
    act: Callable[[tuple, tuple], FreeVector]
    coact: Optional[Callable[[tuple], FreeVector]] = None

    def __post_init__(self):
        memoise_fields(self, "act", "coact")


def test_memoised_map_runs_once_per_argument_tuple():
    calls = []

    def act(h, b):
        calls.append((h, b))
        return E(("b", h[1] + 2 * b[1]))

    maps = _Maps(act=act)
    pairs = [(h, b) for h in B3 for b in B3]
    for _ in range(3):
        for h, b in pairs:
            assert maps.act(h, b) == E(("b", h[1] + 2 * b[1]))
    assert calls == pairs
    assert _Maps(act=maps.act).act is maps.act


def test_memoised_map_does_not_keep_a_raised_call():
    calls = []

    def act(h, b):
        calls.append((h, b))
        if b[1] == 0:
            raise ValueError("no value at e0")
        return E(b)

    maps = _Maps(act=act)
    for _ in range(2):
        with pytest.raises(ValueError, match="no value"):
            maps.act(B3[1], B3[0])
    assert maps.act(B3[1], B3[2]) == E(B3[2])
    assert calls == [(B3[1], B3[0]), (B3[1], B3[0]), (B3[1], B3[2])]


def test_memoised_none_field_stays_none():
    assert _Maps(act=lambda h, b: E(b)).coact is None


def test_reassigned_map_field_takes_effect():
    maps = _Maps(act=lambda h, b: E(b))
    assert maps.act(B3[0], B3[1]) == E(B3[1])
    maps.act = lambda h, b: FreeVector.zero()
    assert maps.act(B3[0], B3[1]).is_zero()


@record
class _Point:
    x: int
    y: int = 0
    label: str = "p"

    def __post_init__(self):
        self.posts = getattr(self, "posts", 0) + 1


def test_record_takes_fields_by_position_or_keyword_with_defaults():
    p = _Point(1, 2, "q")
    assert (p.x, p.y, p.label) == (1, 2, "q")
    p = _Point(y=5, x=4)
    assert (p.x, p.y, p.label) == (4, 5, "p")
    p = _Point(7)
    assert (p.x, p.y, p.label) == (7, 0, "p")
    assert vars(p) == {"x": 7, "y": 0, "label": "p", "posts": 1}


def test_record_runs_post_init_once():
    assert _Point(1).posts == 1
    assert _Point(1, label="r").posts == 1


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {}, r"missing arguments: 'x'"),
        ((1,), {"z": 2}, r"unexpected keyword argument 'z'"),
        ((1,), {"x": 2}, r"multiple values for argument 'x'"),
        ((1, 2, "q", 4), {}, r"takes 3 arguments but 4 were given"),
    ],
)
def test_record_refuses_a_bad_call(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        _Point(*args, **kwargs)


@pytest.mark.parametrize("default", [[], {}, set()])
def test_record_refuses_a_mutable_default_when_the_class_is_made(default):
    with pytest.raises(ValueError, match="mutable default"):

        @record
        class _Shared:
            items: object = default


def test_each_report_gets_its_own_checks_list():
    from hopfcalc.report import CheckReport

    first, second = CheckReport(), CheckReport()
    first.add("a", "pass")
    assert first.checks is not second.checks
    assert (len(first.checks), second.checks) == (1, [])


def test_every_record_init_is_its_own_and_named_for_its_class():
    # perfbench/layertrace.py wraps a class's __init__ from vars(cls) and
    # keys its callbacks by qualified name
    import importlib
    import types

    records = [
        cls
        for name in ("hopf", "fodc", "crossed", "crossed_calc", "qpb", "examples", "report")
        for cls in vars(importlib.import_module(f"hopfcalc.{name}")).values()
        if isinstance(cls, type)
        and cls.__module__ == f"hopfcalc.{name}"
        and "__annotations__" in vars(cls)
    ]
    assert len(records) == 31
    inits = [vars(cls)["__init__"] for cls in records + [_Maps, _Point]]
    assert all(isinstance(init, types.FunctionType) for init in inits)
    assert len({id(init) for init in inits}) == len(inits)
    assert [init.__qualname__ for init in inits] == [
        f"{cls.__qualname__}.__init__" for cls in records + [_Maps, _Point]
    ]


def test_zero_map_kernel_full():
    solver = LinearSolver(LinOp.zero(), B3)
    assert solver.kernel().dim == 3 and Subspace(solver.vectors.values()).dim == 0


def test_identity_kernel_trivial():
    solver = LinearSolver(LinOp(FreeVector.basis), B3)
    assert solver.kernel().dim == 0 and Subspace(solver.vectors.values()).dim == 3


def test_rank_nullity():
    # map collapsing e0,e1 to the same target
    f = LinOp(lambda ix: E(("t", 0)) if ix[1] < 2 else E(("t", 1)))
    solver = LinearSolver(f, B3)
    ker, img = solver.kernel(), Subspace(solver.vectors.values())
    assert ker.dim + img.dim == 3
    assert ker.dim == 1
    # kernel vectors actually map to zero
    for v in ker.basis():
        assert f(v).is_zero()


def test_linop_action_runs_once_per_index():
    def image(ix):
        return E(("t", ix[1])).scale(root_of_unity(4, ix[1]))

    calls = []

    def action(ix):
        calls.append(ix)
        return image(ix)

    f = LinOp(action)
    v = E(B3[0]) + E(B3[2]).scale(CycScalar.from_rational(3))
    for _ in range(2):
        assert f(B3[1]) == image(B3[1])
        assert f(v) == linear(image, v)
    assert calls == [B3[1], B3[0], B3[2]]
    assert LinOp(f.action).action is f.action


def _shape(v):
    return [(ix, c.order, c.coeffs, c.den) for ix, c in v.terms.items()]


def test_linear_single_term_with_coefficient_one_returns_the_image():
    image = E(("t", 0)).scale(root_of_unity(8)) + E(("t", 1))
    assert linear(lambda ix: image, E(B3[0])) is image
    assert linear(lambda ix: image, E(B3[0], CycScalar.one(4))) is image
    assert linear(lambda i, j: image, E(B3[0]), E(B3[1])) is image
    i4 = root_of_unity(4)
    assert linear(lambda i, j: image, E(B3[0], i4), E(B3[1], -i4)) is image


@pytest.mark.parametrize(
    "c, image",
    [
        (root_of_unity(4), E(("t", 1)).scale(root_of_unity(8)) + E(("t", 0)).scale(CycScalar.from_rational(2))),
        (CycScalar.from_rational(-1, 8), E(("t", 0)).scale(root_of_unity(4)) + E(("t", 2))),
        (CycScalar.from_rational(3), FreeVector.zero()),
    ],
)
def test_linear_single_term_matches_the_general_path(c, image):
    got = linear(lambda ix: image, E(B3[1], c))
    assert _shape(got) == _shape(combine([(image, c)]))
    ci, cj = root_of_unity(8, 3), c
    got = linear(lambda i, j: image, E(B3[0], ci), E(B3[2], cj))
    assert _shape(got) == _shape(combine([(image, ci * cj)]))


def test_solve_identity():
    v = E(("e", 1)) + E(("e", 2)).scale(root_of_unity(8))
    assert LinearSolver(LinOp(FreeVector.basis), B3).solve(v) == v


def test_solve_zero_map_has_no_solution():
    with pytest.raises(NoSolution) as raised:
        LinearSolver(LinOp.zero(), B3).solve(E(("t", 0)))
    assert raised.value.target == E(("t", 0))
    assert str(raised.value) == "no solution: (1)*t(0) is not in the image of 0"
    assert issubclass(NoSolution, ValueError)


def test_express_outside_the_span_raises():
    span = TrackedSpan()
    span.add(("l", 0), E(("e", 0)))
    assert span.express(E(("e", 0)).scale(CycScalar.from_rational(3))) == E(("l", 0), 3)
    with pytest.raises(NoSolution, match=r"\(1\)\*e\(1\) is not in the span of 1 labelled vectors"):
        span.express(E(("e", 1)))


def test_solution_verified_by_reapplication():
    f = LinOp(lambda ix: E(("t", 0)).scale(CycScalar.from_rational(ix[1] + 1)))
    sol = LinearSolver(f, B3).solve(E(("t", 0)).scale(CycScalar.from_rational(5)))
    assert f(sol) == E(("t", 0)).scale(CycScalar.from_rational(5))


def test_quotient_space_with_vector_ambient():
    # span{e0-e1, e1-e2} mod span{e0-e2} has dimension 1
    space = [E(("e", 0)) - E(("e", 1)), E(("e", 1)) - E(("e", 2))]
    sub = Subspace([E(("e", 0)) - E(("e", 2))])
    q = QuotientSpace(space, sub)
    assert q.dim == 1
    cls = q.project(space[0])
    assert cls == -q.project(space[1])
    assert q.project(q.representatives[0]) == E(("cls", 0))
    assert q.labels == [("cls", 0)]
    with pytest.raises(NoSolution):
        q.project(E(("e", 3)))


def test_intersection_dim():
    u = Subspace([E(("e", 0)), E(("e", 1))])
    v = Subspace([E(("e", 1)), E(("e", 2))])
    assert intersection_dim(u, v) == 1


def test_subspace_membership_matches_solv():
    gens = [E(("e", 0)) + E(("e", 1)), E(("e", 1)) + E(("e", 2))]
    s = Subspace(gens)
    assert s.contains(gens[0] + gens[1])
    assert not s.contains(E(("e", 0)))
    assert s.dim == 2


def test_linop_linearity_on_random_vectors():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    f = LinOp(lambda ix: E(("t", ix[1] % 2), root_of_unity(4, ix[1])) + E(("u", 0)))

    small = st.integers(min_value=-3, max_value=3)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(small, small), min_size=1, max_size=4), small)
    def check(pairs, c):
        v = FreeVector.zero()
        w = FreeVector.zero()
        for k, coeff in pairs:
            v = v + E(("e", k), CycScalar.from_rational(coeff))
            w = w + E(("e", k + 1), CycScalar.from_rational(coeff + 1))
        assert f(v + w) == f(v) + f(w)
        assert f(v.scale(CycScalar.from_rational(c))) == f(v).scale(CycScalar.from_rational(c))

    check()


def test_elimination_kernel_properties():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    small = st.integers(min_value=-2, max_value=2)

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.sampled_from([1, 4]), st.integers(1, 4), st.integers(0, 4))
    def check(data, order, n_rows, n_cols):
        # entries a + b*z4 over the integers (b = 0) or over Z[z4]
        def entry():
            a, b = data.draw(small), data.draw(small) if order == 4 else 0
            return CycScalar.from_rational(a) + b * root_of_unity(4)

        def combo(vectors):
            out = FreeVector.zero()
            for v in vectors:
                out = out + v.scale(entry())
            return out

        domain = [("e", j) for j in range(n_cols)]
        columns = {ix: FreeVector({("t", i): entry() for i in range(n_rows)}) for ix in domain}
        f = LinOp(lambda ix: columns[ix])

        solver = LinearSolver(f, domain)
        target = f(combo([E(ix) for ix in domain]))
        assert f(solver.solve(target)) == target
        assert solver.lift(solver.solve(target)) == target
        kernel = solver.kernel()
        assert all(f(v).is_zero() for v in kernel.basis())
        assert solver.rank + kernel.dim == len(domain)

        span = TrackedSpan((ix, columns[ix]) for ix in domain)
        assert span.labels == solver.labels and span.kernel() == kernel
        v = combo([span.vectors[label] for label in span.labels])
        assert span.lift(span.express(v)) == v

        space = list(columns.values())
        sub = Subspace([combo(space) for _ in range(data.draw(st.integers(0, 2)))])
        q = QuotientSpace(space, sub)
        for rep, cls in zip(q.representatives, q.labels):
            assert q.project(rep) == E(cls)
        weights = [entry() for _ in q.representatives]
        classes = [E(cls) for cls in q.labels]
        assert q.project(combine(zip(q.representatives, weights))) == combine(zip(classes, weights))
        assert all(q.project(g).is_zero() for g in sub.basis())

    check()
