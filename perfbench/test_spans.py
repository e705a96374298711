"""Self-check of the span recorder.

    python3 perfbench/test_spans.py      (or: python3 -m pytest perfbench/test_spans.py)
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
from treebsde import lattice  # noqa: E402


def _nested_fixture():
    """root(a(a1, a2), b) on a clock that ticks by one per reading."""
    rec = spans.SpanRecorder(clock=itertools.count().__next__)
    leaf = lambda: None
    a = rec.wrap("a", lambda: (rec.span("a1", leaf), rec.span("a2", leaf)))
    root = rec.wrap("root", lambda: (a(), rec.span("b", leaf)))
    root()
    return rec.spans


def test_self_times_sum_to_root_duration():
    recorded = _nested_fixture()
    names = [s[0] for s in recorded]
    assert names == ["root", "a", "a1", "a2", "b"]
    own = spans.self_times(recorded)
    root = spans.durations(recorded)[0]
    assert sum(own) == root
    # every reading is one tick: a1, a2 and b last one tick each, a encloses
    # five ticks and root nine
    assert own == [9 - 5 - 1, 5 - 2, 1, 1, 1]


def test_self_times_of_a_slice():
    recorded = [["earlier", 0, 1, -1]] + _nested_fixture()
    for s in recorded[1:]:
        s[3] = s[3] + 1 if s[3] >= 0 else -1
    assert spans.self_times(recorded[1:], offset=1) == spans.self_times(_nested_fixture())


def test_counter_only_wrapper_adds_no_spans():
    tree = lattice.build_tree(lattice.TimeGrid(1.0, 3), lattice.MarkSet((1.0,), (0.5,)))
    original = lattice.Tree.node_id
    rec = spans.SpanRecorder()
    tracer = spans.Tracer(rec).install()
    try:
        ids = [tree.node_id(3, i) for i in range(5)]
    finally:
        tracer.restore()
    assert rec.spans == []
    assert rec.counters["lattice.node_id_calls"] == 5
    assert ids == [original(tree, 3, i) for i in range(5)]
    assert lattice.Tree.node_id is original
    assert tracer.missing == []


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"PASS {name}")
