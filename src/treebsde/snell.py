"""Snell envelope, one-barrier reflected solver, and the exhaustive stopping oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayerMismatch
from .lattice import AdaptedValues, Tree, constant_values
from .model import ProblemSpec
from .oracles import enumerate_stop_value
from .sweep import SweepResult, backward_sweep, make_drift_solver


@dataclass
class StoppingRule:
    """Binary stop/continue decision per node; the terminal layer is a forced stop."""

    tree: Tree
    stop: list  # bool array per layer 0..N (terminal entries are ignored/forced)

    @classmethod
    def never(cls, tree: Tree) -> "StoppingRule":
        return cls(tree, [np.zeros(tree.layer_size(k), dtype=bool) for k in range(tree.n_layers)])

    def stop_layer(self, path_digits) -> int:
        """First stopping layer along the path given by branch digits."""
        b = self.tree.n_branches
        node = 0
        for k in range(self.tree.grid.steps):
            if self.stop[k][node]:
                return k
            node = node * b + path_digits[k]
        return self.tree.grid.steps


def snell_envelope(tree: Tree, payoff: AdaptedValues, drift: AdaptedValues | None = None) -> AdaptedValues:
    """Smallest system dominating the payoff and the one-step expectation.

    Backward recursion Y_N = payoff_N, Y_k = max(payoff_k, E[Y_{k+1}|node]
    + drift_k*dt); the value process of optimal stopping with running
    reward ``drift`` (zero when None).
    """
    N = tree.grid.steps
    if payoff.first_layer > 0 or payoff.last_layer < N:
        raise LayerMismatch("payoff must cover all layers")
    if drift is None:
        drift = constant_values(tree, 0.0, last_layer=N - 1)
    # the envelope is the sweep clamped from below by the payoff, with the
    # running reward as a frozen drift
    return backward_sweep(tree, payoff.layer(N), make_drift_solver(tree, drift), lower=payoff).Y


def optimal_stopping_oracle(tree: Tree, payoff: AdaptedValues, drift: AdaptedValues | None = None,
                            mode: str = "sup") -> AdaptedValues:
    """Exact optimum over all enumerated stopping rules, per starting node.

    Brute force and independent of any backward recursion; limited to trees
    whose subtrees have few enough decision nodes to enumerate.
    """
    if mode not in ("sup", "inf"):
        raise ValueError("mode must be 'sup' or 'inf'")
    N = tree.grid.steps
    layers = []
    for k in range(N + 1):
        vals = np.array(
            [enumerate_stop_value(tree, payoff, drift, mode, k, i) for i in range(tree.layer_size(k))]
        )
        layers.append(vals)
    return AdaptedValues(layers, 0)


def solve_one_barrier(problem: ProblemSpec, side: str = "upper") -> SweepResult:
    """Backward solve of the reflected equation against one rcll barrier.

    Per node: one-step representation of the continuation, implicit drift
    solve, then the clamp (min against the upper barrier or max against the
    lower one).  Z and V are the pre-clamp representation components.  At
    flagged layers the pre-jump barrier value induces the predictable push
    recorded in ``dKd_minus`` (upper) or ``dKd_plus`` (lower), and the
    clamped left limit feeds the next step.  The other side's increments
    are zero.
    """
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    tree = problem.tree
    bar = problem.barriers
    solver = make_drift_solver(tree, problem.generator, problem.state)
    pre = {}
    for k, (lp, up) in bar.flagged.items():
        pre[k] = (None, up) if side == "upper" else (lp, None)
    return backward_sweep(
        tree,
        problem.terminal,
        solver,
        lower=bar.lower if side == "lower" else None,
        upper=bar.upper if side == "upper" else None,
        pre_jump=pre,
    )
