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
    # every field that maps basis indices must come back memoised from a built instance
    from hopfcalc.crossed import Cocycle, Measure
    from hopfcalc.crossed_calc import CrossedFodc, GradedDc
    from hopfcalc.fodc import Fodc, TwistedCalculusAction
    from hopfcalc.hopf import AlgebraPresentation, ComoduleAlgebra, HopfData

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

    seen, stack, checked = set(), [radford_calc_shared], {cls: set() for cls in classes}
    while stack:
        obj = stack.pop()
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
