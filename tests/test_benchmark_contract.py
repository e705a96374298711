"""The benchmark's calls into treebsde still work: one pass of every workload, each op's own check.

A change to an API the benchmark calls (``validate``'s ``seed``, the
penalization trace's lists, the CLI's options) fails here, not only
inside a benchmark run.  The workloads are imported as they are.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_op_passes_its_own_check(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup(7, tmp_path)
    workload.prepare(ctx)
    ctx.bundle_sha256, ctx.bytes_written = {}, 0
    failures = {}
    for op in workload.ops:
        detail = op.check(ctx, op.run(ctx))
        if detail:
            failures[op.name] = detail
    assert failures == {}
