"""Snell envelope, one-barrier reflected solver, first-increase diagnostics for the push
processes, and the exhaustive stopping oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drbsde import reflected_sweep
from .errors import LayerMismatch
from .lattice import AdaptedValues, Tree, constant_values
from .model import ProblemSpec
from .oracles import stop_rule_values
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
        node = 0
        for k in range(self.tree.grid.steps):
            if self.stop[k][node]:
                return k
            node = self.tree.child(node, path_digits[k])
        return self.tree.grid.steps


def first_increase_time(tree: Tree, K: AdaptedValues, tau: StoppingRule) -> StoppingRule:
    """First node after tau where the cumulative push strictly increases, else the horizon.

    ``K`` is a per-node cumulative nondecreasing process along paths; the
    returned rule marks, per path, the first node with K > K at the tau
    node.  Paths without an increase run to the forced terminal stop.
    """
    N = tree.grid.steps
    stop = [np.zeros(tree.layer_size(k), dtype=bool) for k in range(N + 1)]
    passed = tau.stop[0].copy()
    ref = np.where(passed, K.layer(0), np.nan)
    done = np.zeros(1, dtype=bool)
    for k in range(1, N + 1):
        passed_par, ref_par, done_par = tree.spread(passed), tree.spread(ref), tree.spread(done)
        kk = K.layer(k)
        inc_here = passed_par & ~done_par & (kk > ref_par)
        stop[k] = inc_here
        done = done_par | inc_here
        tau_here = tau.stop[k] if k < N else np.ones(tree.layer_size(k), dtype=bool)
        newly = ~passed_par & tau_here
        passed = passed_par | newly
        ref = np.where(newly, kk, ref_par)
    return StoppingRule(tree, stop)


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
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    return reflected_sweep(problem, sides=(side,))
