"""
One reflecting barrier: the solver versus exhaustive stopping
=============================================================

A small jump-diffusion tree, an upper barrier, and a zero generator.
The reflected solution is the value of stopping to pay the barrier, so
the backward solver must match the brute-force optimum over every
stopping rule.
"""

import numpy as np

from treebsde import (
    AdaptedValues, GeneratorSpec, MarkSet, ProblemSpec, TimeGrid,
    barriers_from_functions, build_tree, optimal_stopping_oracle, solve_one_barrier,
)

# three steps, one Poisson mark with rate 0.3
tree = build_tree(TimeGrid(horizon=1.0, steps=3), MarkSet(points=(1.0,), rates=(0.3,)))
print("tree:", tree.node_count(), "nodes,", tree.n_branches, "branches per node")

# upper barrier rising over time, so early continuation values hit it
barriers = barriers_from_functions(
    tree, lower_fn=lambda t, x: -50.0, upper_fn=lambda t, x: 0.2 + 0.4 * t
)
rng = np.random.default_rng(7)
xi = np.minimum(rng.normal(0.8, 0.6, tree.layer_size(3)), barriers.upper.layer(3))
problem = ProblemSpec(tree, GeneratorSpec("constant", {"c0": 0.0}), barriers, xi)

sol = solve_one_barrier(problem, side="upper")
print("Y at the root:", sol.Y.layer(0)[0])

# the same value from the stopping characterization: stop to collect U,
# the horizon pays xi; the reflected solution is the infimum
payoff_layers = [barriers.upper.layer(k).copy() for k in range(3)] + [xi.copy()]
oracle = optimal_stopping_oracle(tree, AdaptedValues(payoff_layers, 0), mode="inf")
print("enumeration oracle at the root:", oracle.layer(0)[0])
print("difference:", abs(sol.Y.layer(0)[0] - oracle.layer(0)[0]))

# the push process acts exactly where the barrier binds
for k in range(3):
    binding = sol.dKc_minus.layer(k) > 0
    print(f"layer {k}: {binding.sum()} binding nodes,",
          "max |Y - U| there =",
          float(np.max(np.abs((sol.Y.layer(k) - barriers.upper.layer(k))[binding]), initial=0.0)))
