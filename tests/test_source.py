import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "treebsde"


def test_no_assert_in_src():
    # python -O strips asserts, so invariants must raise typed errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py"))
    assert found == []
