"""Snell envelope, one-barrier reflected solver and the exhaustive stopping oracle."""

from __future__ import annotations

import numpy as np

from .drbsde import reflected_sweep
from .lattice import AdaptedValues, Tree, check_layers
from .model import ProblemSpec
from .oracles import stop_rule_values
from .sweep import SweepResult, backward_sweep, make_drift_solver


def snell_envelope(tree: Tree, payoff: AdaptedValues, drift: AdaptedValues | None = None) -> AdaptedValues:
    """Smallest system dominating the payoff and the one-step expectation.

    Backward recursion Y_N = payoff_N, Y_k = max(payoff_k, E[Y_{k+1}|node]
    + drift_k*dt); the value process of optimal stopping with running
    reward ``drift`` (zero when None).  Raises LayerMismatch unless the
    payoff covers every layer, and the drift layers 0..N-1, with one value
    per node.
    """
    N = tree.grid.steps
    check_layers(tree, payoff, "payoff", N)
    if drift is None:
        drift = AdaptedValues([np.zeros(tree.layer_size(k)) for k in range(N)], 0)
    # the envelope is the sweep clamped from below by the payoff, with the
    # running reward as a frozen drift; it forms Y only
    return backward_sweep(tree, payoff.layer(N), make_drift_solver(tree, drift), lower=payoff, keep=()).Y


def optimal_stopping_oracle(tree: Tree, payoff: AdaptedValues, drift: AdaptedValues | None = None,
                            mode: str = "sup") -> AdaptedValues:
    """Exact optimum over all enumerated stopping rules, per starting node.

    Brute force and independent of any backward recursion: per layer, the
    best of the rule values from ``stop_rule_values``.  Limited to trees
    whose subtrees have few enough decision nodes to enumerate.
    """
    if mode not in ("sup", "inf"):
        raise ValueError("mode must be 'sup' or 'inf'")
    best = np.max if mode == "sup" else np.min
    layers = [best(stop_rule_values(tree, payoff, drift, k), axis=1) for k in range(tree.n_layers)]
    return AdaptedValues(layers, 0)


def solve_one_barrier(problem: ProblemSpec, side: str = "upper") -> SweepResult:
    """Backward solve of the reflected equation against one rcll barrier.

    Per node: one-step representation of the continuation, implicit drift
    solve, then the clamp (min against the upper barrier or max against the
    lower one).  Z and V are the pre-clamp representation components.  At
    flagged layers the pre-jump barrier value induces the predictable push
    recorded in ``dKd_minus`` (upper) or ``dKd_plus`` (lower), and the
    clamped left limit feeds the next step.  The other side's increments
    are zero.  This is ``reflected_sweep`` with ``sides=(side,)``.
    """
    return reflected_sweep(problem, sides=(side,))
