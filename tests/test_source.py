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
    # an option no real caller sets is dead code: only call sites in src, demos
    # and perfbench count, not tests, and a call passing *args or **kwargs
    # counts for every parameter
    allowed = {
        # tests reach NoContraction and WeightOverflow through these two
        "drbsde.py:picard_solve(alpha)",
        "drbsde.py:picard_solve(max_iter)",
    }
    root = SRC.parents[1]
    calls = [
        node
        for folder in ("src", "demos", "perfbench")
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
    assert sorted(unset) == sorted(allowed)


def test_a_generator_is_read_through_its_resolved_coefficients():
    # GeneratorSpec's construction resolves its form and params into the
    # coefficients a0, a1, b, c, d and clip; no other code reads form or
    # params, and the sweep and the solvers build no spec of their own
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "GeneratorSpec"
               for fn in cls.body if getattr(fn, "name", None) == "__post_init__" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("form", "params") and id(node) not in own:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            if path.name in ("sweep.py", "drbsde.py") and isinstance(node, ast.Call) \
                    and ast.unparse(node.func).split(".")[-1] == "GeneratorSpec":
                found.append(f"{path.name}:{node.lineno} GeneratorSpec(...)")
    assert sorted(SRC.glob("*.py"))
    assert found == []


def test_no_matrix_product_over_the_mark_axis():
    # contractions over a node's m marks go through lattice._branch_sum: a
    # matrix product over so narrow an axis is slower, and its last bits depend
    # on how many rows a call holds; the two sums below run over other axes
    allowed = {
        ("drbsde.py", "_weighted_norm"),  # Picard's probability-weighted sum over nodes
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


def test_the_engine_result_holds_no_fact_of_one_caller():
    # the bracket reads where its penalty binds from its first level's values,
    # and the game forms its dual pairs from the sweep's own Z and V, so
    # sweep.py names no binding nodes and _hamiltonian_sweep returns
    # backward_sweep's result itself
    path = SRC / "sweep.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "arg", None) \
            or getattr(node, "name", None)
        if isinstance(name, str) and ("binding" in name or name == "bound"):
            found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
    game = ast.parse((SRC / "game.py").read_text())
    sweep = next(fn for fn in game.body if getattr(fn, "name", None) == "_hamiltonian_sweep")
    returns = [ast.unparse(node.value) for node in sweep.body if isinstance(node, ast.Return)]
    assert len(returns) == 1 and returns[0].startswith("backward_sweep("), returns


def test_the_forward_state_enters_only_the_barrier_and_terminal_builders():
    # every generator form is a function of (t, y, z, v), so the forward state
    # reaches a problem through its barrier and terminal values only (built by
    # lattice.evaluate_form); no drift solve, sweep or Picard pass names it
    def names(path):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.Name, ast.Attribute, ast.arg)):
                name = getattr(node, "name", None) or getattr(node, "id", None)
                yield node.lineno, name or getattr(node, "attr", None) or node.arg

    found = [f"{name}:{line} {ident}" for name in ("sweep.py", "drbsde.py")
             for line, ident in names(SRC / name) if "state" in ident]
    found += [f"{path.name}:{line} {ident}" for path in sorted(SRC.glob("*.py"))
              for line, ident in names(path) if ident == "state_layer"]
    assert found == []
    model = ast.parse((SRC / "model.py").read_text())
    evaluate = next(fn for fn in model.body if getattr(fn, "name", None) == "evaluate_generator")
    assert [a.arg for a in evaluate.args.args] == ["spec", "t", "y", "z", "v"]


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


def test_the_game_calls_its_control_callbacks_in_one_function():
    # drift, running and tilt are read and called in one evaluator, which
    # H, route R1 and the oracle all go through
    path = SRC / "game.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    reads, calls = set(), set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr in ("drift", "running", "tilt"):
                reads.add(fn.name)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("drift", "running", "tilt"):
                calls.add(fn.name)
    assert len(calls) == 1 and reads == calls, (reads, calls)


def test_only_the_hamiltonian_sweep_blocks_its_table():
    # TABLE_BLOCK bounds the H table's scratch; route R1 and the oracle
    # evaluate each control pair on its own nodes and read no block size
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in tree.body:
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and node.id == "TABLE_BLOCK" and isinstance(node.ctx, ast.Load) \
                        or isinstance(node, ast.Attribute) and node.attr == "TABLE_BLOCK":
                    readers.add(f"{path.name}:{getattr(fn, 'name', node.lineno)}")
    assert readers == {"game.py:_hamiltonian_sweep"}


def test_every_criterion_goes_through_one_runner():
    # a criterion states its checks only; the one function that reads the
    # clock times every entry of ALL_CRITERIA and applies its budget
    from treebsde import acceptance

    path = SRC / "acceptance.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {}
    for fn in ast.walk(tree):  # outer functions come first, so inner ones win
        if isinstance(fn, ast.FunctionDef):
            owner.update({id(node): fn.name for node in ast.walk(fn)})
    timers = {owner.get(id(node)) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "perf_counter"}
    assert len(timers) == 1 and None not in timers, timers
    codes = {fn.__code__ for fn in acceptance.ALL_CRITERIA}
    assert len(codes) == 1, [fn.__code__.co_name for fn in acceptance.ALL_CRITERIA]
    (code,) = codes
    assert code.co_name in timers and Path(code.co_filename).samefile(path)


def test_the_oracles_import_no_solver():
    # the oracles certify the sweep, the reflected solvers, the Snell envelope and
    # the game from the outside, so they share no code with them
    path = SRC / "oracles.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        imported += [f"{path.name}:{node.lineno} {name}" for name in names
                     if name.split(".")[-1] in ("sweep", "drbsde", "snell", "game")]
    assert imported == []


def test_the_game_decodes_maps_and_reweights_in_one_place_each():
    # every control map becomes pair codes through _map_codes, whose
    # ravel_multi_index range-checks it; R1 and the oracle tables are the two
    # places that turn the fixed-map coefficients into tilted weights
    path = SRC / "game.py"
    callers = {"np.ravel_multi_index": set(), "reweight": set()}
    for fn in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in callers:
                callers[ast.unparse(node.func)].add(fn.name)
    assert callers == {"np.ravel_multi_index": {"_map_codes"}, "reweight": {"_tilted_recursion", "_oracle_tables"}}
