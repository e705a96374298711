"""Property tests: the backward solvers against the brute-force oracles on random small trees."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from treebsde import (  # noqa: E402
    AdaptedValues,
    BarrierPair,
    GeneratorSpec,
    MarkSet,
    ProblemSpec,
    TimeGrid,
    backward_clamped_solve,
    build_tree,
    dynkin_pair_oracle,
    optimal_stopping_oracle,
    snell_envelope,
)
from treebsde.oracles import MAX_PAIR_SLOTS  # noqa: E402

# a fixed, derandomized example set keeps the suite deterministic
PROPERTY = settings(max_examples=100, derandomize=True, deadline=None, database=None)


def random_tree(rng, N, m):
    marks = MarkSet((1.0,), (float(rng.uniform(0.1, 0.6)),)) if m else None
    return build_tree(TimeGrid(1.0, N), marks)


def random_layers(tree, rng, n_layers, ties):
    layers = [rng.normal(size=tree.layer_size(k)) for k in range(n_layers)]
    return AdaptedValues([np.round(a) if ties else a for a in layers], 0)


def pair_plans():
    """Every (N, m, flagged layers) with N <= 3 and m <= 1 whose stopping pairs fit the cap."""
    plans = []
    for N in (1, 2, 3):
        for m in (0, 1):
            b = m + 2
            for mask in range(2**N):
                flagged = tuple(j for j in range(1, N + 1) if mask >> (j - 1) & 1)
                if sum(b**j for j in range(N)) + sum(b**j for j in flagged) <= MAX_PAIR_SLOTS:
                    plans.append((N, m, flagged))
    return plans


@PROPERTY
@given(N=st.integers(1, 3), m=st.integers(0, 1), seed=st.integers(0, 2**32 - 1),
       with_drift=st.booleans(), ties=st.booleans())
def test_snell_envelope_equals_stopping_oracle(N, m, seed, with_drift, ties):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, m)
    payoff = random_layers(tree, rng, N + 1, ties)
    drift = random_layers(tree, rng, N, ties) if with_drift else None
    env = snell_envelope(tree, payoff, drift)
    oracle = optimal_stopping_oracle(tree, payoff, drift, mode="sup")
    for k in range(N + 1):
        assert np.max(np.abs(env.layer(k) - oracle.layer(k))) <= 1e-10


@PROPERTY
@given(plan=st.sampled_from(pair_plans()), seed=st.integers(0, 2**32 - 1), ties=st.booleans())
def test_clamped_root_equals_both_pair_oracle_bounds(plan, seed, ties):
    N, m, flagged_layers = plan
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, m)
    lower = random_layers(tree, rng, N + 1, ties)
    upper = AdaptedValues([lo + rng.uniform(0.5, 2.0, lo.shape) for lo in lower.layers], 0)
    flagged = {}
    for k in flagged_layers:
        lp = lower.layer(k) + rng.normal(0.0, 0.4, tree.layer_size(k))
        flagged[k] = (lp, lp + rng.uniform(0.4, 1.5, lp.shape))
    xi = lower.layer(N) + rng.uniform(0.05, 0.95, tree.layer_size(N)) * (upper.layer(N) - lower.layer(N))
    problem = ProblemSpec(tree, GeneratorSpec("constant", {"c0": 0.0}), BarrierPair(lower, upper, flagged), xi)
    drift = random_layers(tree, rng, N, ties)
    root = float(backward_clamped_solve(problem, frozen_drift=drift).Y.layer(0)[0])
    infsup, supinf = dynkin_pair_oracle(tree, xi, lower, upper, drift=drift, pre_jump=flagged)
    assert abs(root - infsup) <= 1e-10
    assert abs(root - supinf) <= 1e-10
