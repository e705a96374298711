"""Run one benchmark workload in this process and print its result.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

``run.py`` starts this in a fresh process per workload; run it directly
only with ``PYTHONPATH`` set to the checkout's ``src``.  The last line of
standard output is the JSON result; the lines before it report every
timing with its sample count and highest qualifying percentile, every
failed check, and the bundle hashes.

With ``--trace 0`` the whole budget measures untraced passes and the
end-to-end metrics are printed.  With ``--trace 1`` the first half of the
budget measures untraced passes (the per-operation times) and the second
half traced passes (the per-layer metrics); the ratio of their pass times
is the tracing overhead.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import treebsde
import workloads
from layers import layer_metrics, summarize_setup

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


IMPORT_PROBE = ("import time; start = time.perf_counter(); import treebsde, treebsde.cli; "
                "print(time.perf_counter() - start, treebsde.__file__)")


def _import_seconds() -> float:
    """Seconds to import treebsde and its CLI in a fresh interpreter.

    The import is the part of set-up a user pays once per process, so it is
    sampled in a new process, which must load treebsde from this checkout.
    """
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    _check_source(out[1])
    return float(out[0])


def _check_source(module_file: str) -> None:
    src = (ROOT / "src" / "treebsde").resolve()
    if Path(module_file).resolve().parent != src:
        raise SystemExit(f"treebsde imported from {module_file}, not from {src}")


def percentile_line(name: str, unit: str, samples: list) -> str:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    n = len(samples)
    line = f"# {name}: median {statistics.median(samples):.6g} {unit}, n={n}"
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")[int(p * 10) - 1]
            return line + f", p{p:g} {cut:.6g} {unit}"
    return line + ", no percentile has ten samples beyond it"


def _one_pass(workload, ctx, tracer, recorder) -> dict:
    """Run every operation once; time each call, then check its output untimed."""
    ctx.bytes_written = 0
    offset = 0
    if recorder is not None:
        recorder.counters.clear()
        offset = len(recorder.spans)
    times, failures = {}, []
    for op in workload.ops:
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            output, detail = op.run(ctx), ""
        except Exception:  # a failing operation is counted, and the run goes on
            output, detail = None, "raised " + traceback.format_exc(limit=-3)
        times[op.name] = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
        if not detail:
            try:
                detail = op.check(ctx, output)
            except Exception:
                detail = "check raised " + traceback.format_exc(limit=-3)
        del output
        if detail:
            failures.append(f"{op.name}: {detail}")
    record = {"times": times, "pass_s": sum(times.values()), "failures": failures}
    if recorder is not None:
        record["layers"] = layer_metrics(recorder.spans[offset:], offset, recorder.counters, ctx)
    return record


def _run_phase(workload, ctx, budget: float, tracer=None, recorder=None, between=None) -> list:
    """Passes until the next one would likely overrun ``budget`` seconds (at least one).

    ``between()`` runs after each pass, outside the pass's timing.
    """
    records = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        records.append(_one_pass(workload, ctx, tracer, recorder))
        if between is not None:
            between()
        now = time.perf_counter()
        if (now - start) + (now - begin) > budget:
            return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    _check_source(treebsde.__file__)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        values, records, lines = {}, [], []
        if args.trace:
            recorder = spans.SpanRecorder()
            tracer = spans.Tracer(recorder).install()
            ctx = workload.setup(args.seed, workdir)
            tracer.restore()
            values.update(summarize_setup(recorder.spans))
            recorder.spans.clear()
        else:
            setup_times, ctx = [], None
            for _ in range(SETUP_REPEATS):
                ctx = None  # let the previous inputs go before building new ones
                start = time.perf_counter()
                ctx = workload.setup(args.seed, workdir)
                setup_times.append(time.perf_counter() - start)
        workload.prepare(ctx)
        ctx.bundle_sha256 = {}

        # the import samples are spread over the untraced passes, so that
        # their median covers the same stretch of machine time as the passes
        import_samples = []

        def sample_import():
            if len(import_samples) < SETUP_REPEATS:
                import_samples.append(_import_seconds())

        budget = args.seconds / 2 if args.trace else args.seconds
        plain = _run_phase(workload, ctx, budget, between=None if args.trace else sample_import)
        records += plain
        if not args.trace:
            while len(import_samples) < SETUP_REPEATS:
                sample_import()
            import_s, build_s = statistics.median(import_samples), statistics.median(setup_times)
            values["setup_s"] = import_s + build_s
            lines.append(f"# setup_s: median of {SETUP_REPEATS} imports {import_s:.6g} s "
                         f"+ median of {SETUP_REPEATS} input builds {build_s:.6g} s")
        for op in workload.ops:
            samples = [r["times"][op.name] for r in plain]
            values[op.name] = statistics.median(samples)
            lines.append(percentile_line(op.name, "s", samples))
        pass_samples = [r["pass_s"] for r in plain]
        values["pass_s"] = statistics.median(pass_samples)
        values["passes_per_s"] = len(pass_samples) / sum(pass_samples)
        lines.append(percentile_line("pass_s", "s", pass_samples))
        lines.append(f"# pass_s samples: {[round(x, 6) for x in pass_samples]}")

        if args.trace:
            traced = _run_phase(workload, ctx, budget, tracer, recorder)
            records += traced
            traced_pass = statistics.median(r["pass_s"] for r in traced)
            values["trace.overhead_ratio"] = traced_pass / values["pass_s"] - 1.0
            lines.append(f"# traced pass_s: median {traced_pass:.6g} s, n={len(traced)}; "
                         f"untraced {values['pass_s']:.6g} s, n={len(plain)}")
            for name in traced[0]["layers"]:
                values[name] = statistics.median(r["layers"][name] for r in traced)
            if tracer.missing:
                lines.append(f"# call sites not found, so not traced: {tracer.missing}")
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps({"fields": ["name", "start", "end", "parent"],
                            "spans": recorder.spans}))
        values["lattice.nodes"] = ctx.nodes
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in records for f in r["failures"]]
    attempted = sum(len(r["times"]) for r in records)
    lines.append(f"# workload {args.workload}: seed {args.seed}, {ctx.nodes} nodes, "
                 f"{len(records)} passes, attempted {attempted}, failed {len(failures)}, "
                 f"failed_ratio {len(failures) / attempted:.6g}")
    lines.append("# time waited on other layers: zero by construction (one thread, one process)")
    for command, digest in sorted(ctx.bundle_sha256.items()):
        lines.append(f"# bundle.json sha256 {command}: {digest}")
    for failure in failures:
        lines.append(f"# FAILED {failure}")

    # in a traced run, the times of other workloads' operations and of
    # criteria this workload never runs are zero; any other gap is a bug
    op_names = {op.name for w in workloads.WORKLOADS.values() for op in w.ops}
    metrics = {}
    for m in declared["per_layer" if args.trace else "end_to_end"]:
        name = m["name"]
        if name not in values:
            if not (args.trace and (name in op_names or name.startswith("acceptance."))):
                raise SystemExit(f"metric {name} was not measured")
            values[name] = 0.0
        metrics[name] = {"value": values[name], "unit": m["unit"]}
    print("\n".join(lines))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
