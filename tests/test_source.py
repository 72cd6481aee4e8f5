import ast
import pathlib
import re
from collections import Counter

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


def test_every_structure_map_field_is_memoised(radford_calc_shared, torus_calc_shared):
    # every field that maps basis indices (d, the antipodes, the cleaving
    # maps, ver, g and c among them) and every method that is a table on
    # them must come back memoised from a built instance
    from hopfcalc.crossed import CleftData, Cocycle, Measure
    from hopfcalc.crossed_calc import CrossedFodc, GradedDc
    from hopfcalc.fodc import Fodc, TwistedCalculusAction
    from hopfcalc.hopf import AlgebraPresentation, ComoduleAlgebra, HopfData, TorusData
    from hopfcalc.linalg import FreeVector, tensor_index
    from hopfcalc.qpb import (
        Connection,
        CovariantDerivativeData,
        VComodule,
        VerticalData,
        covariant_derivative,
        vertical_map,
    )

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
        CleftData,
        TorusData,
        VerticalData,
        Connection,
    )
    index_maps = {
        cls: [
            name
            for name, annotation in cls.__annotations__.items()
            if any("Index" in params for params in _INDEX_MAP.findall(annotation))
        ]
        for cls in classes
    }
    assert all(index_maps.values())
    for cls, name in (
        (HopfData, "sweedler"),
        (Fodc, "lambda_terms"),
        (GradedDc, "lambda_terms"),
        (VerticalData, "target_coaction"),
    ):
        index_maps[cls].append(name)

    v_comodule = VComodule(
        labels=[("v", 0), ("v", 1)],
        coaction=lambda vx: FreeVector.basis(tensor_index(vx, ("g", 1 - vx[1]))),
    )
    vd = vertical_map(radford_calc_shared.cf)
    connection = Connection(c=vd.g)
    derivative = covariant_derivative(vd, v_comodule)
    roots = [radford_calc_shared, torus_calc_shared, vd, connection, derivative]
    seen, stack, checked = set(), roots, {cls: set() for cls in classes}
    while stack:
        obj = stack.pop()
        fields = vars(type(obj)).get("__annotations__")
        if id(obj) in seen or not fields or not type(obj).__module__.startswith("hopfcalc."):
            continue
        seen.add(id(obj))
        if type(obj) in checked:
            for name in index_maps[type(obj)]:
                fn = getattr(obj, name)
                if fn is not None:
                    assert isinstance(getattr(fn, "memo", None), dict), f"{type(obj).__name__}.{name}"
                    checked[type(obj)].add(name)
        stack.extend(getattr(obj, name) for name in fields)
    assert checked == {cls: set(names) for cls, names in index_maps.items()}


def _is_scaled_accumulation(node) -> bool:
    """`x = x + <...>.scale(...)` or `x += <...>.scale(...)`, or the same with `.map_indices(...)`."""
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
    return (
        isinstance(added, ast.Call)
        and isinstance(added.func, ast.Attribute)
        and added.func.attr in ("scale", "map_indices")
    )


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
        "        out = out + v.map_indices(str)\n"
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
    assert list(_hand_rolled_sums(ast.parse(text))) == [4, 5, 6, 7, 16, 17]
    assert [(line, scope) for line, scope, early in _scaled_accumulations(ast.parse(text)) if early] == [(12, "f")]


def test_only_the_forced_zero_refusals_build_their_own_sums():
    # a loop that stops part-way may build its own sum; the last two, the
    # off-window refusals of the forced-zero derivation, now decide the
    # refusal first and sum with `combine`, so none is left
    exempt = [
        (path.name, scope)
        for path, tree in _modules()
        if path.name != "linalg.py"
        for _, scope, early in _scaled_accumulations(tree)
        if early
    ]
    assert exempt == []


def _basis_pair_sums(tree):
    """Lines of `combine` calls over (E(ix), c) pairs: a literal basis
    vector with its default coefficient, which `sum_terms` adds as the
    term (ix, c) with no product by the basis vector's one."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) != "combine":
            continue
        for arg in node.args:
            if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                pairs = [arg.elt]
            else:
                pairs = arg.elts if isinstance(arg, (ast.List, ast.Tuple)) else []
            if any(
                isinstance(pair, ast.Tuple)
                and pair.elts
                and _is_basis_call(pair.elts[0])
                and len(pair.elts[0].args) == 1
                and not pair.elts[0].keywords
                for pair in pairs
            ):
                yield node.lineno


def test_sums_of_basis_vectors_are_sums_of_terms():
    found = [f"{path.name}:{line}" for path, tree in _modules() for line in _basis_pair_sums(tree)]
    assert found == []


def test_basis_pair_sum_scan_sees_every_form():
    text = (
        "def f(v, ix, c, terms):\n"
        "    a = combine((E(i), c) for i, c in terms)\n"
        "    b = combine([(FreeVector.basis(i), c) for i, c in terms])\n"
        "    d = linalg.combine([(v, c), (E(ix), c)])\n"
        "    e = combine((E(i, c), c) for i, c in terms)\n"
        "    g = combine((E(i).tensor(v), c) for i, c in terms)\n"
        "    h = combine((w, c) for w in [E(ix)])\n"
        "    k = sum_terms((i, c) for i, c in terms)\n"
        "    return combine(\n"
        "        (E(i), c)\n"
        "        for i, c in terms\n"
        "    )\n"
    )
    assert sorted(_basis_pair_sums(ast.parse(text))) == [2, 3, 4, 9]


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


def _first_failure_reads(tree):
    """Lines that index a `.failed` list, as a hand-written refusal does."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) and node.value.attr == "failed":
            yield node.lineno


def test_refusals_name_the_first_failure_through_require():
    # `CheckReport.require` is the one place that turns a failed report into
    # the refusal naming its first failed check
    found = [
        f"{path.name}:{line}"
        for path, tree in _modules()
        if path.name != "report.py"
        for line in _first_failure_reads(tree)
    ]
    assert found == []


def test_first_failure_scan_sees_every_form():
    text = (
        "def f(report, failed, i):\n"
        "    a = report.failed[0]\n"
        "    b = self.pre.failed[0].identity\n"
        "    c = check(x).failed[-1]\n"
        "    d = report.failed[i].witness\n"
        "    e = failed[0]\n"
        "    g = report.failed\n"
        "    return report.ok and not report.failed\n"
    )
    assert sorted(_first_failure_reads(ast.parse(text))) == [2, 3, 4, 5]


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


def _public_names(tree) -> tuple[list, set]:
    """A module's `__all__` entries and the names it binds at top level."""
    exported, defined = [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__":
                        exported = ast.literal_eval(node.value)
    return exported, defined


def test_all_names_what_other_modules_import():
    # every name taken from linalg or scalars is public there, and every
    # public name of a module is defined in it
    trees = dict(_modules())
    modules = {f"hopfcalc.{path.stem}": _public_names(tree) for path, tree in trees.items()}
    missing = [
        f"{path.name}:{node.lineno} {node.module}.{alias.name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("hopfcalc.linalg", "hopfcalc.scalars")
        for alias in node.names
        if alias.name not in modules[node.module][0]
    ]
    assert missing == []
    undefined = [f"{name}.{entry}" for name, (exported, defined) in modules.items() for entry in exported if entry not in defined]
    assert undefined == []
    assert modules["hopfcalc.linalg"][0] and modules["hopfcalc.scalars"][0]
    assert "balanced_tensor" in modules["hopfcalc.linalg"][0]


def _quotient_constructions(tree):
    """The top-level definitions that call `QuotientSpace(...)` or `linalg.QuotientSpace(...)`."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "QuotientSpace":
                    yield getattr(top, "name", "<module>")


def test_balanced_tensors_are_built_by_linalg_alone():
    # M (x)_B N is `linalg.balanced_tensor`; the only other quotient is the
    # H+/I of a calculus from an ideal
    found = sorted((path.name, name) for path, tree in _modules() for name in _quotient_constructions(tree))
    assert found == [("fodc.py", "woronowicz_from_ideal"), ("linalg.py", "balanced_tensor")]


def test_quotient_construction_scan_sees_every_form():
    text = (
        "def f(v, s):\n"
        "    return QuotientSpace(v, s, 'c')\n"
        "class C:\n"
        "    def g(self, v, s):\n"
        "        return linalg.QuotientSpace(v, s, 'c')\n"
        "q = QuotientSpace([], s, 'c')\n"
        "def h(q):\n"
        "    return q.project(v), QuotientSpace\n"
    )
    assert list(_quotient_constructions(ast.parse(text))) == ["f", "C", "<module>"]


def _is_basis_call(node) -> bool:
    """`E(...)` or `FreeVector.basis(...)`."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "E") or (
        isinstance(func, ast.Attribute) and func.attr == "basis" and ast.unparse(func.value) == "FreeVector"
    )


def _linear_calls(tree):
    """Every call of `linear` or `linalg.linear`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "linear":
                yield node


def _wrapped_basis_arguments(tree):
    """Lines where `linear` gets an argument built from a basis vector: a
    basis call, or a method, operator or subscript applied to one.  The
    arguments of another call and the body of a lambda are their own."""
    for node in _linear_calls(tree):
        stack = list(node.args) + [kw.value for kw in node.keywords]
        while stack:
            arg = stack.pop()
            if _is_basis_call(arg):
                yield arg.lineno
            elif isinstance(arg, ast.Call):
                stack.append(arg.func)
            elif not isinstance(arg, ast.Lambda):
                stack.extend(ast.iter_child_nodes(arg))


def test_linear_extensions_take_basis_indices():
    # `linear` passes an index argument through to the map, so wrapping an
    # index as a basis vector only for the extension to unwrap it again
    # costs a vector and a scalar product per call
    found = [f"{path.name}:{line}" for path, tree in _modules() for line in _wrapped_basis_arguments(tree)]
    assert found == []


def test_wrapped_basis_scan_sees_every_form():
    text = (
        "def check_graded_dc(dc, i, j, k, v):\n"
        "    a = linear(dc.wedge, 1, dc.wedge(1, i, 1, j), 1, E(k))\n"
        "    b = linear(lambda t: dc.wedge(1, i, 1, t), v)\n"
        "    c = linear(dc.act, FreeVector.basis(i), 1, v)\n"
        "    d = linalg.linear(dc.d, 1, E(i).scale(2))\n"
        "    e = linear(lambda t: E(t), v)\n"
        "    f = combine([(E(i), 1)])\n"
        "    def inner(x):\n"
        "        return linear(dc.wedge, 0, v, 1, v2=E(x))\n"
        "    g = linear(dc.d, 1, dc.d(0, E(i)))\n"
        "    h = linear(dc.wedge, 0, E(i) + v, 1, k)\n"
        "    return a == E(k)\n"
        "def elsewhere(dc, k, v):\n"
        "    return linear(dc.wedge, 1, v, 1, E(k))\n"
    )
    assert sorted(_wrapped_basis_arguments(ast.parse(text))) == [2, 4, 5, 9, 11, 14]


# HopfData.counit_vec returns a scalar and sweedler_vec leg tuples, which
# `linear` cannot produce
_KEPT_VECTOR_FORMS = {"counit_vec", "sweedler_vec"}


def _twins_and_adapters(tree):
    """Lines that define a `*_vec` twin of a structure map, or that hand
    `linear` a lambda as the map."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.endswith("_vec") and node.name not in _KEPT_VECTOR_FORMS:
                yield node.lineno
    for node in _linear_calls(tree):
        if node.args and isinstance(node.args[0], ast.Lambda):
            yield node.lineno


def test_structure_maps_are_extended_by_linear_alone():
    # a map on basis indices reaches vectors through `linear(fn, *args)`,
    # which passes fixed indices through, so it needs neither a vector twin
    # nor a lambda that fixes its other arguments
    found = [f"{path.name}:{line}" for path, tree in _modules() for line in _twins_and_adapters(tree)]
    assert found == []


def test_twin_and_adapter_scan_sees_every_form():
    text = (
        "class GradedDc:\n"
        "    def wedge_vec(self, deg1, v1, deg2, v2):\n"
        "        return linear(lambda i, j: self.wedge(deg1, i, deg2, j), v1, v2)\n"
        "    def counit_vec(self, v):\n"
        "        return v\n"
        "def f(dc, v, k):\n"
        "    def p_vec(w):\n"
        "        return linear(p_ix, w)\n"
        "    a = linalg.linear(lambda t: dc.d(1, t), v)\n"
        "    b = linear(dc.wedge, 1, v, 1, k)\n"
        "    c = LinearSolver(lambda t: linear(dc.d, 1, t), basis)\n"
        "    return linear(dc.d, 1, combine((lambda t: t)(v)))\n"
    )
    assert sorted(_twins_and_adapters(ast.parse(text))) == [2, 3, 7, 9]


def _verdict_overrides(tree):
    """Lines of local `windowed` flags, of `sweep`/`record` calls that pass
    their own `windowed=` or `sampled=`, and of string literals that spell
    a check status."""
    from hopfcalc.report import FAIL, PASS, SAMPLED, WINDOWED

    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("sweep", "record")
            and any(kw.arg in ("windowed", "sampled") for kw in node.keywords)
        ):
            yield node.lineno
        if isinstance(node, ast.Name) and node.id.startswith("windowed"):
            yield node.lineno
        if isinstance(node, ast.Constant) and node.value in (PASS, FAIL, WINDOWED, SAMPLED):
            yield node.lineno


def test_reports_alone_decide_the_window_verdict():
    # a report knows whether its suite runs on a window and stamps every
    # passing sweep and record itself; only report.py spells the statuses
    found = [
        f"{path.name}:{line}"
        for path, tree in _modules()
        if path.name != "report.py"
        for line in _verdict_overrides(tree)
    ]
    assert found == []


def test_verdict_scan_sees_every_form():
    text = (
        "def f(report, items, test, ok, basis):\n"
        "    windowed = not basis.is_finite\n"
        "    report.sweep('a', items, test, windowed=windowed)\n"
        "    report.record('b', ok, witness=None, windowed=True)\n"
        "    rep.record('c', ok, sampled=True)\n"
        "    report.add('d', 'window-verified' if report.windowed else 'pass')\n"
        "    report.add('e', 'sampled', None)\n"
        "    report.add('f', FAIL)\n"
        "    report = CheckReport(suite='g', windowed=report.windowed)\n"
        "    return f'{ok} passes', 'fail'\n"
    )
    assert sorted(_verdict_overrides(ast.parse(text))) == [2, 3, 3, 4, 5, 6, 6, 7, 10]


# modules that no part of hopfcalc may import: fractions (and decimal
# through it) since scalars are integer numerators over one denominator,
# and dataclasses (and inspect, ast, dis and tokenize through it) since
# records get their __init__ from linalg.record
_REFUSED_IMPORTS = frozenset({"fractions", "dataclasses"})


def _refused_imports(tree):
    """(line, module) of each import of a refused module or of a name from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            top = module.partition(".")[0]
            if top in _REFUSED_IMPORTS:
                yield node.lineno, top


def _representation_reads(tree):
    """Line numbers that touch a scalar's numerators, denominator or root exponent."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("coeffs", "den", "root_exp"):
            yield node.lineno


def test_scalars_alone_knows_the_scalar_representation():
    # integer numerators over one denominator, and the root exponent cached
    # beside them, are private to scalars.py, and no module pays for
    # importing fractions or dataclasses
    imports = [f"{path.name}:{line} {module}" for path, tree in _modules() for line, module in _refused_imports(tree)]
    reads = [
        f"{path.name}:{line}"
        for path, tree in _modules()
        if path.name != "scalars.py"
        for line in _representation_reads(tree)
    ]
    assert imports == [] and reads == []


def test_representation_scan_sees_every_form():
    text = (
        "import fractions\n"
        "import os, fractions as fr\n"
        "from fractions import Fraction\n"
        "def f(c, s):\n"
        "    return c.coeffs[1:], s.den, getattr(c, 'order')\n"
        "def g(c):\n"
        "    c.den = 1\n"
        "    return c.root_exp >= 0\n"
        "import dataclasses\n"
        "import os, dataclasses as dc\n"
        "from dataclasses import dataclass, field\n"
        "import fractional, dataclasses_json\n"
    )
    tree = ast.parse(text)
    assert sorted(_refused_imports(tree)) == [
        (1, "fractions"),
        (2, "fractions"),
        (3, "fractions"),
        (9, "dataclasses"),
        (10, "dataclasses"),
        (11, "dataclasses"),
    ]
    assert sorted(_representation_reads(tree)) == [5, 5, 7, 8]


# definitions that nothing in src/ reads or sets, kept on purpose; an entry
# goes when its definition goes or gains a reader, and none is added
_UNREAD_KEPT = frozenset({
    "HopfGaloisResult.bijective",  # the Galois verdict, which the acceptance tests read
    "RadfordInstance.to_full",  # the crossed product inside H(r,n,q), which the tests compare against
    "CovariantDerivativeData.e_span",  # the associated bundle whose rank the tests pin
})
_UNSET_KEPT = frozenset({
    "cli.run(argv)",  # the console entry point passes none; tests pass their argv
})


def _is_record(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list
    )


def _attribute_reads(tree, of_self: bool) -> Counter:
    """How often each name is read in tree as `self.name` (of_self) or as any other `x.name`."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and (isinstance(node.value, ast.Name) and node.value.id == "self") == of_self
    )


def _unread_members(trees: dict) -> list:
    """Class.member for each annotated field of a record class and each
    public method of a class that no attribute read names, outside the
    method's own body.  A read `self.member` counts only for the class
    whose method makes it."""
    elsewhere = sum((_attribute_reads(tree, False) for tree in trees.values()), Counter())
    found = []
    for tree in trees.values():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            reads = elsewhere + _attribute_reads(cls, True)
            for node in cls.body:
                if _is_record(cls) and isinstance(node, ast.AnnAssign) and not reads[node.target.id]:
                    found.append(f"{cls.name}.{node.target.id}")
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    own = _attribute_reads(node, False) + _attribute_reads(node, True)
                    if reads[node.name] == own[node.name]:
                        found.append(f"{cls.name}.{node.name}")
    return found


def _calls_by_name(trees: dict) -> dict:
    """Every call, under the name it calls: `f(...)` and `x.f(...)` under f."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, position, name) -> bool:
    """Whether call sets a parameter: by keyword, by position, or through * or **."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def _unset_parameters(trees: dict) -> list:
    """module.function(param) for each defaulted parameter of a module-level
    function or method that no call passes.  A nested function is exempt:
    it is handed on as a callback, and its caller is not found by name."""
    calls = _calls_by_name(trees)
    found = []
    for module, tree in trees.items():
        functions = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            functions += [(cls.name, node) for node in cls.body if isinstance(node, ast.FunctionDef)]
        for owner, fn in functions:
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            bound = 0 if owner is None or static else 1
            positional = fn.args.posonlyargs + fn.args.args
            first_default = len(positional) - len(fn.args.defaults)
            params = [(i - bound, a.arg) for i, a in enumerate(positional) if i >= first_default]
            params += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            callee = owner if fn.name == "__init__" else fn.name
            for position, name in params:
                if not any(_passes(call, position, name) for call in calls.get(callee, ())):
                    qualified = f"{owner}.{fn.name}" if owner else fn.name
                    found.append(f"{module}.{qualified}({name})")
    return found


def test_every_field_method_and_parameter_is_used_in_src():
    # no field, method or parameter that no output and no caller reads: the
    # report names, never-set knobs and test-only members all went, and
    # what stays on purpose is named above
    trees = {path.stem: tree for path, tree in _modules()}
    assert sorted(_unread_members(trees)) == sorted(_UNREAD_KEPT)
    assert sorted(_unset_parameters(trees)) == sorted(_UNSET_KEPT)


def test_no_record_carries_a_name_of_its_own():
    # the CLI names each report it prints; a name kept on a record, a
    # presentation or a report would reach no output
    named = [
        f"{cls.name}.{node.target.id}"
        for _, tree in _modules()
        for cls in tree.body
        if _is_record(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and node.target.id in ("name", "example", "suite")
    ]
    assert named == []


def test_unused_definition_scan_sees_every_form():
    text = (
        "@record\n"
        "class R:\n"
        "    read: int\n"
        "    unread: int\n"
        "    def called(self, x, flag=False, other=None):\n"
        "        return self.read\n"
        "    def recursive(self):\n"
        "        return self.recursive()\n"
        "    def _private(self):\n"
        "        return 0\n"
        "class Plain:\n"
        "    note: int\n"
        "    def __init__(self, a, b=1):\n"
        "        self.a = a\n"
        "    def never(self):\n"
        "        return 0\n"
        "class Other:\n"
        "    def peek(self):\n"
        "        return self.unread\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return a\n"
        "def s(a=0, *, b=1):\n"
        "    return a\n"
        "def h(r, args, opts):\n"
        "    f(1, 2)\n"
        "    f(1, d=0)\n"
        "    s(*args, **opts)\n"
        "    r.called(1, True)\n"
        "    Plain(1)\n"
        "    def nested(w=None):\n"
        "        return w\n"
        "    return nested\n"
    )
    trees = {"m": ast.parse(text)}
    # Other reads its own self.unread, which is no read of R.unread
    assert sorted(_unread_members(trees)) == ["Other.peek", "Plain.never", "R.recursive", "R.unread"]
    assert sorted(_unset_parameters(dict(trees, n=ast.parse("def k(x=0):\n    return x\n")))) == [
        "m.Plain.__init__(b)",
        "m.R.called(other)",
        "m.f(c)",
        "m.f(e)",
        "n.k(x)",
    ]


# the comodule laws are written once, as the builders in hopf.py, and the
# algebra-map and left-linearity laws once, as the row laws
# `hopf.multiplicative` and `hopf.left_linear` that `CheckReport.sweep_rows`
# sweeps; a closure named like a builder or like the per-pair tests those
# rows replaced is a copy.  A map into a tensor product passes its target's
# action or coaction to the builder as a map of its own, so the bundle laws
# of qpb.py and crossed.py are builder calls.  One closure stays: the
# counit's law, since its values are scalars, which `linear` does not extend
# over and a row law, whose sides are terms of vectors, does not take
_LAW_BUILDERS = frozenset(
    {"_legs_commute", "coassociative", "counital", "colinear", "multiplicative", "left_linear", "bicomodule"}
)
_KEPT_LAW_COPIES = ("hopf.py:counit_is_algebra_map",)


def _calls(node, name) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name


def _law_copies(node, builders):
    """(line, name) of each flatten_left(...) == flatten_right(...) comparison,
    either way round, and of each function named *_colinear or *algebra_map
    or exactly like a law builder, outside the functions named in builders."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if child.name in builders:
                continue
            if child.name.endswith(("_colinear", "algebra_map")) or child.name in _LAW_BUILDERS:
                yield child.lineno, child.name
        if isinstance(child, ast.Compare):
            sides = [child.left, *child.comparators]
            if any(_calls(a, "flatten_left") and _calls(b, "flatten_right") for a in sides for b in sides):
                yield child.lineno, "flatten"
        yield from _law_copies(child, builders)


def test_each_comodule_law_is_written_once():
    # a left-side law is the right-side builder of flipped maps, so no module
    # spells out coassociativity, colinearity, left-linearity or an algebra-map
    # law again
    found = [
        f"{path.name}:{name}" if name != "flatten" else f"{path.name}:{line}"
        for path, tree in _modules()
        for line, name in _law_copies(tree, _LAW_BUILDERS if path.name == "hopf.py" else ())
    ]
    assert sorted(found) == sorted(_KEPT_LAW_COPIES)


def test_law_copy_scan_sees_every_form():
    text = (
        "def f(v, w):\n"
        "    def d_colinear(a):\n"
        "        return a\n"
        "    def comul_is_algebra_map(pair):\n"
        "        return pair\n"
        "    def colinear(x):\n"
        "        return flatten_left(v) == w\n"
        "    ok = flatten_left(v) == flatten_right(w)\n"
        "    return ok and linalg.flatten_right(w) == linalg.flatten_left(v)\n"
        "def _legs_commute(v, w):\n"
        "    return flatten_left(v) == flatten_right(w)\n"
        "def g(phi, act):\n"
        "    def left_linear(pair):\n"
        "        return phi(act(*pair)) == act(pair[0], phi(pair[1]))\n"
        "    return left_linear\n"
    )
    tree = ast.parse(text)
    assert list(_law_copies(tree, {"_legs_commute"})) == [
        (2, "d_colinear"), (4, "comul_is_algebra_map"), (6, "colinear"), (8, "flatten"), (9, "flatten"),
        (13, "left_linear"),
    ]
    assert (11, "flatten") in _law_copies(tree, ())


def _row_kernels(tree) -> list:
    """The top-level functions named first_*: the sweeps that return a first failing item."""
    return sorted(node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("first_"))


def _acting_parameters(tree):
    """The line of each function or lambda with a parameter named acting."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            if any(a is not None and a.arg == "acting" for a in params):
                yield node.lineno


def test_two_row_kernels_and_no_acting_switch():
    # every two-sided law is a (left, right) pair swept by
    # `linalg.first_unequal`, and only the associativity laws have a kernel
    # of their own; no sweep is switched between two laws by a flag
    trees = dict(_modules())
    assert _row_kernels(trees[SRC / "linalg.py"]) == ["first_non_associative", "first_unequal"]
    assert [f"{path.name}:{line}" for path, tree in trees.items() for line in _acting_parameters(tree)] == []


def test_row_kernel_and_acting_scans_see_every_form():
    text = (
        "def first_a(x):\n"
        "    def first_nested(acting):\n"
        "        return acting\n"
        "    return lambda y, acting=False: y\n"
        "def _first_b(*, acting):\n"
        "    return acting\n"
        "def c(*acting):\n"
        "    return acting\n"
        "def d(**acting):\n"
        "    return acting\n"
    )
    tree = ast.parse(text)
    assert _row_kernels(tree) == ["first_a"]
    assert sorted(_acting_parameters(tree)) == [2, 4, 5, 7, 9]


# process-lifecycle calls: the heap is frozen once, when cli.py is imported;
# a collection, an unfreeze or disabling the collector in a library would
# reach into its caller's process, and os._exit skips the flush of stdout
_LIFECYCLE = frozenset({"gc.freeze", "gc.collect", "gc.disable", "gc.unfreeze", "os._exit"})


def _lifecycle_calls(tree):
    """(line, name, at module level) of each call of a _LIFECYCLE function,
    through the module or an alias of it or of the function."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                aliases[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            aliases |= {alias.asname or alias.name: f"{node.module}.{alias.name}" for alias in node.names}

    def walk(node, top):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    name = aliases.get(func.id)
                elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                    name = f"{aliases.get(func.value.id)}.{func.attr}"
                else:
                    name = None
                if name in _LIFECYCLE:
                    yield child.lineno, name, top
            nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda))
            yield from walk(child, top and not nested)

    return list(walk(tree, True))


def test_the_cli_alone_freezes_the_heap_and_nothing_collects_it():
    found = [(path.name, name, top) for path, tree in _modules() for _, name, top in _lifecycle_calls(tree)]
    assert found == [("cli.py", "gc.freeze", True)]


def test_lifecycle_scan_sees_every_form():
    text = (
        "import gc, os.path\n"
        "from gc import collect as sweep, unfreeze\n"
        "import os as system\n"
        "gc.freeze()\n"
        "def f():\n"
        "    gc.freeze()\n"
        "    gc.disable()\n"
        "    sweep()\n"
        "    system._exit(0)\n"
        "class C:\n"
        "    unfreeze()\n"
        "if True:\n"
        "    gc.collect(2)\n"
        "late = lambda: os._exit(1)\n"
        "gc.get_freeze_count(), gc.enable(), system.getpid(), collect(), freeze()\n"
    )
    assert _lifecycle_calls(ast.parse(text)) == [
        (4, "gc.freeze", True),
        (6, "gc.freeze", False),
        (7, "gc.disable", False),
        (8, "gc.collect", False),
        (9, "os._exit", False),
        (11, "gc.unfreeze", False),
        (13, "gc.collect", True),
        (14, "os._exit", False),
    ]
