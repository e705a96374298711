"""In-memory span recorder and the call-site wrappers that feed it.

A span is [name, start, end, parent]: ``parent`` is the index of the
enclosing span in ``SpanRecorder.spans`` or -1.  The benchmark runs in one
thread, so the spans of a pass form a forest whose children never overlap;
a span's self time is its duration minus the durations of its direct
children, and the self times of a tree sum to its root's duration.

``install`` replaces the attributes through which treebsde's layers call
one another (for example ``treebsde.cli.picard_solve`` or
``treebsde.sweep.represent_layer``) by recording wrappers; ``restore``
puts the originals back.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

BOOKKEEPING = "trace.bookkeeping"


class SpanRecorder:
    """Spans kept in memory plus named counters.

    ``clock`` is the time source; tests pass a fake one to get exact sums.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []

    def start(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named ``name``."""
        index = self.start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording a span around fn.

        ``after(recorder, args, kwargs, result)`` runs once the span has
        closed, inside a bookkeeping span, so the counting it does is
        charged to tracing overhead and not to any layer.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if after is not None:
                self.span(BOOKKEEPING, after, self, args, kwargs, result)
            return result

        return wrapper

    def count_calls(self, name: str, fn):
        """A wrapper that only counts calls: it records no span."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def durations(spans) -> list:
    return [s[2] - s[1] for s in spans]


def self_times(spans, offset: int = 0) -> list:
    """Self time of each span in ``spans`` (a slice starting at index ``offset``)."""
    out = durations(spans)
    for s, d in zip(spans, list(out)):
        parent = s[3] - offset
        if parent >= 0:
            out[parent] -= d
    return out


def has_ancestor(spans, i: int, name: str, offset: int = 0) -> bool:
    parent = spans[i][3] - offset
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3] - offset
    return False


# ------------------------------------------------------------ call sites


def _count_sweep(rec, args, kwargs, result):
    rec.counters["sweep.nodes_swept"] += sum(len(y) for y in result.Y.layers)
    rec.counters["sweep.binding_nodes"] += sum(
        int(np.count_nonzero((p > 0) | (m > 0)))
        for p, m in zip(result.dKc_plus.layers, result.dKc_minus.layers)
    )


def _count_picard(rec, args, kwargs, result):
    rec.counters["drbsde.picard_passes"] += len(result[1])


def _count_bracket(rec, args, kwargs, result):
    rec.counters["drbsde.bracket_levels"] += len(result.levels)


def _count_hamiltonian(rec, args, kwargs, result):
    rec.counters["game.hamiltonian_evals"] += int(result.size)


def _count_validate(rec, args, kwargs, result):
    rec.counters["model.validate_calls"] += 1


def _sweep_wrapper(rec, fn):
    """backward_sweep with its drift_solver argument wrapped as a child span."""

    def backward_sweep(tree, terminal, drift_solver, *args, **kwargs):
        solver = rec.wrap("sweep.drift_solver", drift_solver)
        return fn(tree, terminal, solver, *args, **kwargs)

    return rec.wrap("sweep.backward_sweep", functools.wraps(fn)(backward_sweep), after=_count_sweep)


def _criteria_wrapper(rec, criteria):
    """Each acceptance criterion in a span named after the criterion it ran."""

    def one(fn):
        @functools.wraps(fn)
        def criterion(*args, **kwargs):
            index = rec.start("acceptance.criterion")
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(index)
            rec.spans[index][0] = f"acceptance.{result.name}"
            return result

        return criterion

    return tuple(one(fn) for fn in criteria)


# (module, attribute, span name, bookkeeping) for every call site wrapped
# with a span; the same function is wrapped separately at each module that
# calls it, so every caller's calls are recorded
SPAN_SITES = (
    ("treebsde.cli", "main", "cli.main", None),
    ("treebsde.cli", "build_tree", "lattice.build_tree", None),
    ("treebsde.cli", "forward_state", "lattice.forward_state", None),
    ("treebsde.cli", "validate", "model.validate", _count_validate),
    ("treebsde.cli", "backward_clamped_solve", "drbsde.backward_clamped_solve", None),
    ("treebsde.cli", "picard_solve", "drbsde.picard_solve", _count_picard),
    ("treebsde.cli", "penalization_bracket", "drbsde.penalization_bracket", _count_bracket),
    ("treebsde.cli", "solve_one_barrier", "snell.solve_one_barrier", None),
    ("treebsde.cli", "solve_game", "game.solve_game", None),
    ("treebsde.lattice", "build_tree", "lattice.build_tree", None),
    ("treebsde.lattice", "forward_state", "lattice.forward_state", None),
    ("treebsde.model", "validate", "model.validate", _count_validate),
    ("treebsde.sweep", "represent_layer", "sweep.represent_layer", None),
    ("treebsde.drbsde", "backward_clamped_solve", "drbsde.backward_clamped_solve", None),
    ("treebsde.drbsde", "picard_solve", "drbsde.picard_solve", _count_picard),
    ("treebsde.drbsde", "penalization_bracket", "drbsde.penalization_bracket", _count_bracket),
    ("treebsde.snell", "solve_one_barrier", "snell.solve_one_barrier", None),
    ("treebsde.snell", "enumerate_stop_value", "oracles.enumerate_stop_value", None),
    ("treebsde.game", "forward_state", "lattice.forward_state", None),
    ("treebsde.game", "solve_game", "game.solve_game", None),
    ("treebsde.game", "brute_force_game_oracle", "game.brute_force_game_oracle", None),
    ("treebsde.game", "dynkin_pair_oracle", "oracles.dynkin_pair_oracle", None),
    ("treebsde.game", "_hamiltonian_table", "game.hamiltonian_table", _count_hamiltonian),
    ("treebsde.acceptance", "backward_clamped_solve", "drbsde.backward_clamped_solve", None),
    ("treebsde.acceptance", "picard_solve", "drbsde.picard_solve", _count_picard),
    ("treebsde.acceptance", "penalization_bracket", "drbsde.penalization_bracket", _count_bracket),
    ("treebsde.acceptance", "solve_one_barrier", "snell.solve_one_barrier", None),
    ("treebsde.acceptance", "solve_game", "game.solve_game", None),
    ("treebsde.acceptance", "dynkin_pair_oracle", "oracles.dynkin_pair_oracle", None),
)
SWEEP_SITES = ("treebsde.drbsde", "treebsde.snell", "treebsde.game")


class Tracer:
    """Installs the wrappers on treebsde and removes them again."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.missing = []
        self._saved = []

    def _patch(self, owner, attr, make):
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> "Tracer":
        rec = self.recorder
        self.missing = []
        for module, attr, name, after in SPAN_SITES:
            self._patch(importlib.import_module(module), attr,
                        lambda fn, name=name, after=after: rec.wrap(name, fn, after))
        for module in SWEEP_SITES:
            self._patch(importlib.import_module(module), "backward_sweep",
                        lambda fn: _sweep_wrapper(rec, fn))
        acceptance = importlib.import_module("treebsde.acceptance")
        self._patch(acceptance, "ALL_CRITERIA", lambda fns: _criteria_wrapper(rec, fns))
        lattice = importlib.import_module("treebsde.lattice")
        self._patch(lattice.Tree, "node_id",
                    lambda fn: rec.count_calls("lattice.node_id_calls", fn))
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
