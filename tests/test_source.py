import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hopfcalc"


def test_no_assert_statements_in_src():
    # library invariants must hold under `python -O`, which strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
