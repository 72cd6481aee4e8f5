import ast
import dataclasses
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hopfcalc"


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_no_assert_statements_in_src():
    # library invariants must hold under `python -O`, which strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _is_terms(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _terms_mutations(node):
    """Line numbers that change a `.terms` dict in place, outside FreeVector's own methods."""
    if isinstance(node, ast.ClassDef) and node.name == "FreeVector":
        return
    targets = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Subscript) and _is_terms(sub.value):
                yield node.lineno
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("pop", "update", "clear", "setdefault", "popitem")
        and _is_terms(node.func.value)
    ):
        yield node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _terms_mutations(child)


def test_no_in_place_mutation_of_vector_terms():
    # memoised structure maps hand the same FreeVector to every caller
    found = [f"{path.name}:{line}" for path, tree in _modules() for line in _terms_mutations(tree)]
    assert found == []


def test_terms_mutation_scan_sees_every_form():
    text = (
        "def f(v, w, ix):\n"
        "    v.terms[ix] = 1\n"
        "    v.terms[ix] += 1\n"
        "    del w.terms[ix]\n"
        "    v.terms.pop(ix)\n"
        "    w.terms.setdefault(ix, 0)\n"
        "class FreeVector:\n"
        "    def g(self, ix):\n"
        "        self.terms[ix] = 1\n"
    )
    assert list(_terms_mutations(ast.parse(text))) == [2, 3, 4, 5, 6]


_INDEX_MAP = re.compile(r"Callable\[\[([^\]]*)\]")


def test_every_structure_map_field_is_memoised(radford_calc_shared):
    # every field that maps basis indices, and the action of every LinOp,
    # must come back memoised from a built instance
    from hopfcalc.crossed import Cocycle, Measure
    from hopfcalc.crossed_calc import CrossedFodc, GradedDc
    from hopfcalc.fodc import Fodc, TwistedCalculusAction
    from hopfcalc.hopf import AlgebraPresentation, ComoduleAlgebra, HopfData
    from hopfcalc.linalg import FreeVector, LinOp, tensor_index
    from hopfcalc.qpb import CovariantDerivativeData, VComodule, covariant_derivative, vertical_map

    classes = (
        AlgebraPresentation,
        HopfData,
        ComoduleAlgebra,
        Fodc,
        CrossedFodc,
        Measure,
        Cocycle,
        TwistedCalculusAction,
        GradedDc,
        CovariantDerivativeData,
    )
    index_maps = {
        cls: [
            f.name
            for f in dataclasses.fields(cls)
            if any("Index" in params for params in _INDEX_MAP.findall(str(f.type)))
        ]
        for cls in classes
    }
    assert all(index_maps.values())

    v_comodule = VComodule(
        labels=[("v", 0), ("v", 1)],
        coaction=lambda vx: FreeVector.basis(tensor_index(vx, ("g", 1 - vx[1]))),
    )
    derivative = covariant_derivative(vertical_map(radford_calc_shared.cf), v_comodule)
    seen, stack, checked = set(), [radford_calc_shared, derivative], {cls: set() for cls in classes}
    ops = set()
    while stack:
        obj = stack.pop()
        if isinstance(obj, LinOp):
            assert isinstance(getattr(obj.action, "memo", None), dict), f"LinOp {obj.name}"
            ops.add(obj.name)
            continue
        if id(obj) in seen or not dataclasses.is_dataclass(obj):
            continue
        seen.add(id(obj))
        if type(obj) in checked:
            for name in index_maps[type(obj)]:
                fn = getattr(obj, name)
                if fn is not None:
                    assert isinstance(getattr(fn, "memo", None), dict), f"{type(obj).__name__}.{name}"
                    checked[type(obj)].add(name)
        stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
    assert checked == {cls: set(names) for cls, names in index_maps.items()}
    assert ops == {"S", "S^-1", "d", "d#", "d_B"}


def _is_scaled_accumulation(node) -> bool:
    """`x = x + <...>.scale(...)` or `x += <...>.scale(...)`."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target, value = node.targets[0], node.value
        if not (isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add)):
            return False
        if ast.unparse(value.left) != ast.unparse(target):
            return False
        added = value.right
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
        added = node.value
    else:
        return False
    return isinstance(added, ast.Call) and isinstance(added.func, ast.Attribute) and added.func.attr == "scale"


def _stops_early(loop) -> bool:
    """Whether the loop can leave part-way: a return, raise, break or continue of its own."""
    stack = list(ast.iter_child_nodes(loop))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return False


def _scaled_accumulations(node, loops=(), scope=()):
    """(line, enclosing function path, whether an enclosing loop can stop part-way)
    of each scaled accumulation."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        loops = ()
        scope = scope + (getattr(node, "name", "<lambda>"),)
    if _is_scaled_accumulation(node):
        yield node.lineno, ".".join(scope), any(_stops_early(loop) for loop in loops)
    if isinstance(node, ast.For):
        loops = loops + (node,)
    for child in ast.iter_child_nodes(node):
        yield from _scaled_accumulations(child, loops, scope)


def _hand_rolled_sums(node):
    """Line numbers of scaled accumulations that `linalg.combine`/`linear` should do."""
    return [line for line, _, early in _scaled_accumulations(node) if not early]


def test_no_hand_rolled_linear_extension_outside_linalg():
    # a sum of scaled vectors goes through linalg.combine / linalg.linear; a loop
    # that can stop part-way (a search, a refusal) may still build its own
    found = [
        f"{path.name}:{line}"
        for path, tree in _modules()
        if path.name != "linalg.py"
        for line in _hand_rolled_sums(tree)
    ]
    assert found == []


def test_hand_rolled_sum_scan_sees_every_form():
    text = (
        "def f(vs, cs, row, k):\n"
        "    out = FreeVector.zero()\n"
        "    for v, c in zip(vs, cs):\n"
        "        out = out + v.scale(c)\n"
        "        row[k] = row[k] + v.scale(c)\n"
        "        out += v.scale(c)\n"
        "    for v in vs:\n"
        "        for c in cs:\n"
        "            if c.is_zero():\n"
        "                break\n"
        "            out = out + v.scale(c)\n"
        "    for v in vs:\n"
        "        def g(w):\n"
        "            return w\n"
        "        out = out + g(v).scale(cs[0])\n"
        "    out = out + vs[0].scale(cs[0])\n"
        "    other = out + vs[0].scale(cs[0])\n"
        "    return out\n"
    )
    assert list(_hand_rolled_sums(ast.parse(text))) == [4, 5, 6, 15, 16]
    assert [(line, scope) for line, scope, early in _scaled_accumulations(ast.parse(text)) if early] == [(11, "f")]


def test_only_the_forced_zero_refusals_build_their_own_sums():
    # a loop that stops part-way may build its own sum; the only ones left are
    # the two off-window refusals of the forced-zero derivation
    exempt = [
        (path.name, scope)
        for path, tree in _modules()
        if path.name != "linalg.py"
        for _, scope, early in _scaled_accumulations(tree)
        if early
    ]
    assert exempt == [
        ("fodc.py", "sigma_forces_zero_differential.d_of_vector"),
        ("fodc.py", "sigma_forces_zero_differential.pad"),
    ]


_FAILURES = {"NoSolution", "NotInvertible", "NotTruncatable"}


def _sentinel_uses(tree):
    """Lines that test a value against a failure class, or name the old NO_SOLUTION value."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = {
                sub.id if isinstance(sub, ast.Name) else sub.attr
                for sub in ast.walk(node.args[1])
                if isinstance(sub, (ast.Name, ast.Attribute))
            }
            if kinds & _FAILURES:
                yield node.lineno
        if (isinstance(node, ast.Name) and node.id == "NO_SOLUTION") or (
            isinstance(node, ast.alias) and node.name == "NO_SOLUTION"
        ):
            yield node.lineno


def test_failures_are_raised_not_returned():
    # a failed solve, convolution inverse or truncation is an exception, never a value to test
    paths = sorted(SRC.glob("*.py")) + sorted(pathlib.Path(__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{line}"
        for path in paths
        for line in _sentinel_uses(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []


def test_sentinel_scan_sees_every_form():
    text = (
        "from hopfcalc.linalg import NO_SOLUTION\n"
        "def f(x):\n"
        "    a = isinstance(x, NoSolution)\n"
        "    b = isinstance(x, (int, hopf.NotInvertible))\n"
        "    c = isinstance(x, NotTruncatable | None)\n"
        "    d = x is NO_SOLUTION\n"
        "    e = isinstance(x, ValueError)\n"
    )
    assert sorted(_sentinel_uses(ast.parse(text))) == [1, 3, 4, 5, 6]


def _params_defaults(tree):
    """Lines that read a param with a default of their own: `params.get(key, default)`."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "params"
            and len(node.args) + len(node.keywords) > 1
        ):
            yield node.lineno


def test_examples_read_params_without_second_defaults():
    # the CLI fills every param an example reads, so a default of its own
    # can only disagree with the CLI's; `params.get(key)` stays for the
    # optional file paths
    path = SRC / "examples.py"
    assert list(_params_defaults(ast.parse(path.read_text(encoding="utf-8"), str(path)))) == []


def test_params_default_scan_sees_every_form():
    text = (
        "def f(params):\n"
        "    a = params.get('window', 2)\n"
        "    b = params.get('file')\n"
        "    c = params.get('seed', default=0)\n"
        "    d = other.get('window', 2)\n"
        "    e = params['window']\n"
    )
    assert list(_params_defaults(ast.parse(text))) == [2, 4]
