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


def test_every_default_valued_parameter_is_passed_somewhere():
    # an option no call site sets is dead code; callers in src, tests, demos and
    # perfbench count, and a call passing *args or **kwargs counts for every parameter
    root = SRC.parents[1]
    calls = [
        node
        for folder in ("src", "tests", "demos", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
    ]

    def called_name(call):
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    def passes(call, index, name):
        # index is None for a keyword-only parameter
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        by_position = index is not None and index < len(call.args)
        return by_position or any(kw.arg in (None, name) for kw in call.keywords)

    unset = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            positional = list(enumerate(a.arg for a in args.posonlyargs + args.args))
            options = positional[len(positional) - len(args.defaults):]
            options += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            sites = [c for c in calls if called_name(c) == fn.name]
            unset += [f"{path.name}:{fn.name}({name})" for index, name in options
                      if not any(passes(c, index, name) for c in sites)]
    assert unset == []


def test_no_matrix_product_over_the_mark_axis():
    # contractions over a node's m marks go through lattice._branch_sum: a
    # matrix product over so narrow an axis is slower, and its last bits depend
    # on how many rows a call holds; the two sums below run over other axes
    allowed = {
        ("drbsde.py", "_weighted_norm"),  # alpha_norm's probability-weighted sum over nodes
        ("model.py", "_lipschitz_probe"),  # per-pair norms, pinned by a loop reference
    }
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for fn in ast.walk(tree):  # outer functions come first, so inner ones win
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update({id(node): fn.name for node in ast.walk(fn)})
        for node in ast.walk(tree):
            product = (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                       or isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot", "einsum"))
            if product and (path.name, owner.get(id(node))) not in allowed:
                found.append(f"{path.name}:{node.lineno} in {owner.get(id(node))}")
    assert found == []


def test_a_problem_enters_the_engine_in_one_place():
    # every sweep of a problem is drbsde.reflected_sweep; only the Snell
    # envelope (a payoff, no problem) and the game's Hamiltonian sweep build
    # their own
    allowed = {
        "make_drift_solver": {("drbsde.py", "reflected_sweep"), ("snell.py", "snell_envelope")},
        "backward_sweep": {("drbsde.py", "reflected_sweep"), ("snell.py", "snell_envelope"),
                           ("game.py", "_hamiltonian_sweep")},
    }
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                name = isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1]
                if name in allowed and (path.name, fn.name) not in allowed[name]:
                    found.append(f"{path.name}:{node.lineno} {name} in {fn.name}")
    assert found == []


def test_the_bracket_runs_its_levels_on_the_engine():
    # the bracket's later levels re-solve some rows through reflected_sweep;
    # a per-layer kernel called from drbsde.py would be a second sweep loop
    kernels = {"represent_layer", "_free_part", "_clamp"}
    path = SRC / "drbsde.py"
    found = [
        f"{path.name}:{node.lineno} {ast.unparse(node.func)}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in kernels
    ]
    assert found == []
