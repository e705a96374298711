"""The batch rule: leading axes are independent instances, each computed as its own call computes it.

A batch of B instances goes through the same entry points as one
instance: ``reflected_sweep`` (the clamped solve, or a penalized one),
``snell_envelope``, ``mokobodski_certificate`` and both oracles.
Instances of one mark may each have their own rate; they run on a stack
of their trees.  The entry points that take one instance refuse a batch
with a typed error.
"""

import io
from contextlib import redirect_stdout

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from treebsde import (  # noqa: E402
    AdaptedValues,
    BarrierPair,
    BatchedRates,
    GeneratorSpec,
    LayerMismatch,
    MarkSet,
    ProblemSpec,
    TimeGrid,
    acceptance,
    build_tree,
    drbsde,
    dynkin_pair_oracle,
    game,
    mokobodski_certificate,
    optimal_stopping_oracle,
    penalization_bracket,
    picard_solve,
    snell,
    snell_envelope,
    validate,
)
from treebsde.lattice import stack_trees  # noqa: E402
from treebsde.oracles import MAX_PAIR_SLOTS  # noqa: E402

BATCH = settings(max_examples=40, derandomize=True, deadline=None, database=None)
FIELDS = ("Y", "Z", "V", "dKc_plus", "dKc_minus", "dKd_plus", "dKd_minus")
# one shared generator per form, by mark count
GENERATORS = {
    "constant": lambda m: GeneratorSpec("constant", {"c0": 0.3, "c1": -0.2}),
    "affine": lambda m: GeneratorSpec("affine", {"a0": 0.2, "b": -0.4, "c": 0.3, "d": [0.1] * m}, lipschitz=0.8),
    # b != 0: the clip's push is re-evaluated at the clamped value
    "lipschitz-clip": lambda m: GeneratorSpec(
        "lipschitz-clip", {"a0": 0.4, "b": 0.5, "c": -0.3, "d": [0.2] * m, "clip": 0.3}, lipschitz=1.0),
}


def instance(rng, N, m, flags, zero_terminal):
    """One random instance: its tree (with its own mark rate), barriers close enough that both clamps bind,
    flagged pre-jump values (a side may be None), terminal and frozen drift."""
    tree = build_tree(TimeGrid(1.0, N), MarkSet((1.0,), (float(rng.uniform(0.1, 0.6)) * N,)) if m else None)
    low = [rng.normal(0.0, 0.5, tree.layer_size(k)) for k in range(N + 1)]
    up = [lo + rng.uniform(0.1, 0.6, lo.size) for lo in low]
    flagged = {}
    for k in flags:
        # strictly inside the band, so that either side may be left at its at-time value
        lp = low[k] + rng.uniform(0.0, 0.5, low[k].size) * (up[k] - low[k])
        pre = (lp, lp + rng.uniform(0.1, 1.0, lp.size) * (up[k] - lp))
        flagged[k] = tuple(x if rng.uniform() < 0.8 else None for x in pre)
    xi = low[N] + rng.uniform(0.0, 1.0, low[N].size) * (up[N] - low[N])
    if zero_terminal:  # signed zeros, which a batch must keep as a single call does
        xi = np.where(rng.uniform(size=xi.size) < 0.5, -0.0, 0.0)
        low[N], up[N] = np.full(xi.size, -1.0), np.full(xi.size, 1.0)
    drift = AdaptedValues([rng.normal(0.0, 0.6, tree.layer_size(k)) for k in range(N)], 0)
    return tree, low, up, flagged, xi, drift


def batch_of(instances, generator):
    """The instances as one batch problem and one batch drift, row i of every array instance i's."""
    trees, low, up, flagged, xi, drift = zip(*instances)
    stack = lambda layers: AdaptedValues([np.stack(x) for x in zip(*layers)], 0)
    # a side given as None is its at-time array, in the batch as in each instance
    pre = {k: tuple(np.stack([lo[k] if p is None else p for p, lo in zip((f[k][side] for f in flagged), sides)])
                    for side, sides in ((0, low), (1, up)))
           for k in flagged[0]}
    barriers = BarrierPair(stack(low), stack(up), pre)
    return ProblemSpec(stack_trees(trees), generator, barriers, np.stack(xi)), stack(d.layers for d in drift)


def single(inst, generator):
    tree, low, up, flagged, xi, drift = inst
    return ProblemSpec(tree, generator, BarrierPair(AdaptedValues(low, 0), AdaptedValues(up, 0), flagged), xi), drift


def assert_rows(batch, singles):
    """Row i of each batch layer holds instance i's layer, bit for bit and of the same shape."""
    assert len(batch.layers) == len(singles[0].layers)
    for k, layer in enumerate(batch.layers):
        assert np.shape(layer) == (len(singles),) + np.shape(singles[0].layers[k]), k
        for i, one in enumerate(singles):
            assert np.ascontiguousarray(layer[i]).tobytes() == np.ascontiguousarray(one.layers[k]).tobytes(), (i, k)


@settings(BATCH, max_examples=80)
@given(N=st.integers(1, 3), m=st.integers(0, 1), flags=st.sets(st.integers(1, 3)), B=st.integers(1, 4),
       kind=st.sampled_from(["frozen", "none", *GENERATORS]), zero_terminal=st.booleans(),
       penalty=st.none() | st.tuples(st.sampled_from(["lower", "upper"]), st.sampled_from([0.5, 4.0, 2.0**20])),
       seed=st.integers(0, 2**32 - 1))
def test_a_batch_equals_one_call_per_instance(N, m, flags, B, kind, zero_terminal, penalty, seed):
    rng = np.random.default_rng(seed)
    flags = sorted(k for k in flags if k <= N)
    instances = [instance(rng, N, m, flags, zero_terminal) for _ in range(B)]
    generator = GENERATORS[kind](m) if kind in GENERATORS else GeneratorSpec("constant", {"c0": 0.0})
    problem, drift = batch_of(instances, generator)
    problems = [single(inst, generator) for inst in instances]
    frozen = kind == "frozen"

    # with no penalty, the clamped solve (``backward_clamped_solve``); a penalized
    # side reads its binding entries flat over the batch's (B, n_k) values
    sol = drbsde.reflected_sweep(problem, penalty=penalty, drift=drift if frozen else None)
    sols = [drbsde.reflected_sweep(p, penalty=penalty, drift=d if frozen else None) for p, d in problems]
    for name in FIELDS:
        assert_rows(getattr(sol, name), [getattr(s, name) for s in sols])
    assert sorted(sol.left_limits) == sorted(sols[0].left_limits)
    for k, left in sol.left_limits.items():
        assert all(left[i].tobytes() == s.left_limits[k].tobytes() for i, s in enumerate(sols))
    cert = mokobodski_certificate(problem.tree, sol)
    certs = [mokobodski_certificate(p.tree, s) for (p, _), s in zip(problems, sols)]
    for name in ("h", "h_prime", "defect", "defect_prime"):
        assert_rows(getattr(cert, name), [getattr(c, name) for c in certs])

    if kind not in ("frozen", "none"):
        return  # the envelope and the oracles take a frozen drift or none
    payoff = problem.barriers.lower
    envelope = snell_envelope(problem.tree, payoff, drift if frozen else None)
    assert_rows(envelope, [snell_envelope(p.tree, p.barriers.lower, d if frozen else None) for p, d in problems])
    oracle = optimal_stopping_oracle(problem.tree, payoff, drift if frozen else None)
    assert_rows(oracle, [optimal_stopping_oracle(p.tree, p.barriers.lower, d if frozen else None)
                         for p, d in problems])
    if sum((m + 2) ** j for j in range(N)) + sum((m + 2) ** k for k in flags) > MAX_PAIR_SLOTS:
        return  # too many decision slots to enumerate pairs of stopping rules
    infsup, supinf = dynkin_pair_oracle(problem.tree, problem.terminal, problem.barriers, drift if frozen else None)
    pairs = [dynkin_pair_oracle(p.tree, p.terminal, p.barriers, d if frozen else None) for p, d in problems]
    assert infsup.tolist() == [a for a, _ in pairs] and supinf.tolist() == [b for _, b in pairs]


def _batched_spec(m, cross=False):
    """B = 3 instances on a two-step tree, L = -1 < U = 1 but, with ``cross``, instance 2's U at layer 1, node 1."""
    tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.5,)) if m else None)
    low = [np.full((3, tree.layer_size(k)), -1.0) for k in range(3)]
    up = [np.full((3, tree.layer_size(k)), 1.0) for k in range(3)]
    if cross:
        up[1][2, 1] = -2.0
    return tree, BarrierPair(AdaptedValues(low, 0), AdaptedValues(up, 0)), np.zeros((3, tree.layer_size(2)))


def _problem(cross=False):
    tree, barriers, terminal = _batched_spec(0, cross)
    return ProblemSpec(tree, GENERATORS["constant"](0), barriers, terminal)


def _game():
    tree, barriers, terminal = _batched_spec(1)
    return game.GameSpec(tree, game.ControlGrid((0, 1), (0, 1)), barriers, terminal,
                         running=lambda t, x, u, v: np.full_like(x, 0.1 * (u - v)))


@pytest.mark.parametrize("run, error, text", [
    # validate never raises: the fault's node is found through the batch's axes
    (lambda: validate(_problem(cross=True), require_h=True).checks[0].detail, None,
     "L > U at layer 1, node 1 of instance 2"),
    (lambda: penalization_bracket(_problem()), LayerMismatch,
     r"penalization_bracket takes one instance, not a batch: found values of shape \(3, 4\)"),
    (lambda: picard_solve(_problem()), LayerMismatch, "picard_solve takes one instance"),
    # a game's callbacks belong to one game, so a spec refuses a batch when it is built
    (_game, LayerMismatch, r"a game takes one instance, not a batch: found values of shape \(3, 9\)"),
], ids=["validate", "penalization_bracket", "picard_solve", "GameSpec"])
def test_a_batch_where_one_instance_is_taken_fails_typed(run, error, text):
    if error is None:
        assert run() == text
    else:
        with pytest.raises(error, match=text):
            run()


def test_a_stack_of_trees_has_no_single_mark_rate():
    trees = [build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (rate,))) for rate in (0.3, 0.5)]
    stack = stack_trees(trees)
    assert stack.base_weights.shape == (2, 1, 3) and stack.marks.m == 1
    assert stack.base_weights[1, 0].tolist() == trees[1].base_weights.tolist()
    with pytest.raises(BatchedRates):
        stack.marks.rates
    # the bracket reads the rates for its comparison weights
    low = AdaptedValues([np.full((2, stack.layer_size(k)), -1.0) for k in range(3)], 0)
    up = AdaptedValues([np.full((2, stack.layer_size(k)), 1.0) for k in range(3)], 0)
    problem = ProblemSpec(stack, GeneratorSpec("constant", {"c0": 0.1}), BarrierPair(low, up), np.zeros((2, 9)))
    with pytest.raises(BatchedRates):
        penalization_bracket(problem)
    with pytest.raises(LayerMismatch, match="one grid"):
        stack_trees([trees[0], build_tree(TimeGrid(1.0, 3), MarkSet((1.0,), (0.3,)))])


def test_a_batch_layer_of_the_wrong_length_keeps_its_leading_axes_in_the_message():
    tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.3,)))
    payoff = AdaptedValues([np.zeros((2, 1)), np.zeros((2, 4)), np.zeros((2, 9))], 0)
    with pytest.raises(LayerMismatch, match=r"^payoff at layer 1 has shape \(2, 4\), expected \(2, 3\)$"):
        snell_envelope(tree, payoff)


def test_verify_runs_one_sweep_and_one_oracle_call_per_group(monkeypatch):
    # 432 sweeps and 100 oracle calls when each instance ran alone: the six
    # batched criteria's 205 sweeps are now 33, and their oracle calls 16
    sweeps, oracles = [], []
    for module in (drbsde, snell, game):
        run = module.backward_sweep
        monkeypatch.setattr(module, "backward_sweep",
                            lambda *a, _run=run, **k: sweeps.append(1) or _run(*a, **k))
    for name in ("dynkin_pair_oracle", "optimal_stopping_oracle"):
        run = getattr(acceptance, name)
        monkeypatch.setattr(acceptance, name, lambda *a, _run=run, **k: oracles.append(1) or _run(*a, **k))
    with redirect_stdout(io.StringIO()):
        assert all(result.passed for result in acceptance.run_all())
    assert (len(sweeps), len(oracles)) == (260, 16)
