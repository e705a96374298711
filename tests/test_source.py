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


def test_tree_layout_stays_behind_tree():
    # the child layout (node i's children at b*i + c) belongs to lattice.py;
    # oracles.py keeps its own path arithmetic as an independent reference
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("lattice.py", "oracles.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("n_branches", "base_weights"):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.repeat", "np.multiply.outer"):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node.func)}")
    assert found == []
