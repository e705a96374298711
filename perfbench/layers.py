"""Per-layer metrics derived from the spans and counters of one traced pass.

Layers are treebsde's modules.  Times are summed over the pass; a
layer's self time excludes the spans it called.  A metric whose layer the
workload does not reach is reported as zero.
"""

from __future__ import annotations

from spans import BOOKKEEPING, durations, has_ancestor, self_times

COUNTERS = (
    "lattice.node_id_calls",
    "model.validate_calls",
    "sweep.nodes_swept",
    "sweep.binding_nodes",
    "drbsde.picard_passes",
    "drbsde.bracket_levels",
    "game.hamiltonian_evals",
)
DRBSDE_ENTRIES = (
    "drbsde.backward_clamped_solve",
    "drbsde.picard_solve",
    "drbsde.penalization_bracket",
)


def layer_metrics(spans, offset: int, counters, ctx) -> dict:
    """Every per-layer metric of one pass; ``spans`` is the pass's slice starting at ``offset``."""
    dur = durations(spans)
    own = self_times(spans, offset)
    names = [s[0] for s in spans]

    def total(name, times=dur):
        return sum(t for n, t in zip(names, times) if n == name)

    def count(name):
        return names.count(name)

    out = {name: counters.get(name, 0) for name in COUNTERS}

    # drbsde entry points not called from another one, and the sweeps under them
    top = [i for i, n in enumerate(names)
           if n in DRBSDE_ENTRIES and not any(has_ancestor(spans, i, e, offset) for e in DRBSDE_ENTRIES)]
    under = sum(1 for i, n in enumerate(names) if n == "sweep.backward_sweep"
                and any(has_ancestor(spans, i, e, offset) for e in DRBSDE_ENTRIES))
    oracle = "game.brute_force_game_oracle"
    in_solve = sum(d for i, (n, d) in enumerate(zip(names, dur))
                   if n == oracle and has_ancestor(spans, i, "game.solve_game", offset))
    out.update({
        "cli.self_s": total("cli.main", own),
        "cli.bytes_written": ctx.bytes_written,
        "model.validate_s": total("model.validate"),
        "sweep.sweeps": count("sweep.backward_sweep"),
        "sweep.represent_s": total("sweep.represent_layer"),
        "sweep.drift_s": total("sweep.drift_solver"),
        "sweep.clamp_s": total("sweep.backward_sweep", own),
        "drbsde.sweeps_per_solution": under / len(top) if top else 0.0,
        "snell.one_barrier_s": total("snell.solve_one_barrier"),
        "game.solve_s": total("game.solve_game") - in_solve,
        "game.oracle_s": total(oracle),
        "game.oracle_pairs": sum(1 for i, n in enumerate(names) if n == "oracles.dynkin_pair_oracle"
                                 and has_ancestor(spans, i, oracle, offset)),
        "oracles.dynkin_pair_s": total("oracles.dynkin_pair_oracle"),
        "oracles.dynkin_pair_calls": count("oracles.dynkin_pair_oracle"),
        "oracles.enumerate_stop_s": total("oracles.enumerate_stop_value"),
        "oracles.enumerate_stop_calls": count("oracles.enumerate_stop_value"),
        "trace.bookkeeping_s": total(BOOKKEEPING),
    })
    for n in set(names):
        if n.startswith("acceptance.") and n != "acceptance.criterion":
            out[n + "_s"] = total(n)
    return out


def summarize_setup(spans) -> dict:
    """Set-up time spent building the tree and the forward state."""
    dur = durations(spans)
    total = lambda name: sum(d for s, d in zip(spans, dur) if s[0] == name)
    return {
        "lattice.build_tree_s": total("lattice.build_tree"),
        "lattice.forward_state_s": total("lattice.forward_state"),
    }
