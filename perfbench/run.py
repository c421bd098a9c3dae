"""chainalg benchmark: exact-verdict throughput, one workload per run.

    python3 perfbench/run.py --workload axioms|cone|homology --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; chainalg is imported from its
`src/`.  One single-threaded process drives the real entry point,
`chainalg.cli.main`, in-process with `--format json --output FILE`, one
target at a time (the homology workload also calls `smith_normal_form`
directly).  A *verdict* is one such call, timed around the call alone.
Each verdict is checked against a known answer built by `workloads.py`
from the seed.

Times are *reference seconds*: each verdict's wall time, less the time
spent sampling, scaled by how fast the host ran during it, as measured by
`pace.Pacer` (a calibration kernel sampled before, every 50 ms during,
and after the call).  The reference machine's speed drifts by up to 3x
for minutes at a time, which raw wall times cannot survive; the wall-time
figures are printed and stored beside them.

A *pass* is the workload's verdict list.  With `--trace 0` the run makes
round(S / PASS_SECONDS) passes over the same inputs, at least one, and
prints the end-to-end metrics over every verdict of every pass.  One pass
of any workload takes 12 to 40 s on the reference machine, so S = 20 buys
one; the pass count depends on S alone, so every run of a workload, on any
commit, measures the same verdicts.  `setup_s` is the median wall time of
separate processes that start the interpreter, import chainalg, generate
the inputs and exit, each scaled by the pace the process measured itself.

With `--trace 1` the run makes one untraced pass, then the same pass with
`layertrace.Tracer` installed, and prints the per-layer metrics.  It
checks the busy and idle layers that `design.json` predicts for the
workload.

Every run writes its result, with the sha256 of its generated inputs and
each verdict's time, to `.perfbench_out/`; a traced run writes its spans
there too.  `python -m pytest perfbench` runs the benchmark's self-tests.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 only
when every verdict was answered and right.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
PASS_SECONDS = 20

import oracle  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_chainalg():
    """Import chainalg from this checkout's src/, and only from there."""
    if not os.path.isdir(os.path.join(SRC, "chainalg")):
        raise SetupError(f"no chainalg package under {SRC}")
    sys.path.insert(0, SRC)
    import chainalg
    if not os.path.abspath(chainalg.__file__).startswith(SRC + os.sep):
        raise SetupError(f"chainalg was imported from {chainalg.__file__}")
    return chainalg


class Context:
    """A pass of verdicts with its input files written to a private
    directory."""

    def __init__(self, verdicts, name: str):
        from chainalg.matrices import ExactMatrix
        from chainalg.rings import ZZ

        self.verdicts = verdicts
        self.digest = workloads.digest(verdicts)
        self.workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
        os.makedirs(self.workdir)
        workloads.write_files(verdicts, self.workdir)
        self.report_path = os.path.join(self.workdir, "report.json")
        self.matrices = {id(v): ExactMatrix.from_rows(ZZ, v.matrix)
                         for v in verdicts if v.matrix is not None}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class Result(NamedTuple):
    label: str
    seconds: float        # wall time of the call
    outcome: str          # "ok" | "wrong" | "failed", see oracle.py
    reason: str
    scale: float = 1.0    # reference seconds per wall second, see pace.py

    @property
    def reference_s(self) -> float:
        return self.seconds * self.scale


def run_verdict(v, ctx: Context) -> Result:
    """Run one verdict; only the chainalg call itself is timed."""
    from chainalg import cli, matrices

    if v.matrix is not None:
        start = time.perf_counter()
        try:
            out = matrices.smith_normal_form(ctx.matrices[id(v)])
        except Exception as e:  # a crash is a failed verdict, not a crash
            return Result(v.label, time.perf_counter() - start, "failed",
                          f"{type(e).__name__}: {e}")
        seconds = time.perf_counter() - start
        return Result(v.label, seconds, *oracle.judge_snf(v.matrix, out,
                                                         v.expected))
    argv = [os.path.join(ctx.workdir, a) if a in v.files else a
            for a in v.argv]
    argv += ["--format", "json", "--output", ctx.report_path]
    if os.path.exists(ctx.report_path):
        os.remove(ctx.report_path)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception as e:  # a crash is a failed verdict, not a crash
        return Result(v.label, time.perf_counter() - start, "failed",
                      f"{type(e).__name__}: {e}")
    seconds = time.perf_counter() - start
    if not os.path.exists(ctx.report_path):
        return Result(v.label, seconds, "failed", f"exit {code}, no report")
    try:
        with open(ctx.report_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        return Result(v.label, seconds, "failed", f"unreadable report: {e}")
    return Result(v.label, seconds, *oracle.judge_report(doc, code, v.expected))


def run_pass(ctx: Context, tracer=None, pacer=None):
    """Run every verdict once; with a pacer, each Result carries the pace
    and its wall time excludes the time spent sampling."""
    results = []
    for v in ctx.verdicts:
        # start each verdict from a collected heap, as a fresh CLI process
        # would; collection is not timed
        gc.collect()
        sid = tracer.begin("bench.verdict") if tracer else None
        if pacer:
            pacer.start()
        try:
            r = run_verdict(v, ctx)
        finally:
            sampled = pacer.stop() if pacer else 0.0
            if tracer:
                tracer.end(sid)
        if pacer:
            r = r._replace(seconds=r.seconds - sampled, scale=pacer.scale())
        results.append(r)
    return results


def tail(times):
    """(value, percentile): the highest percentile with at least ten
    verdicts above it; the maximum when there are fewer than 11."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_setup(args):
    """(reference, wall) seconds of fresh processes that only set up the
    workload.  Each process samples its own pace and prints it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    reference, wall = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, check=True, text=True,
                             stdout=subprocess.PIPE).stdout
        seconds = time.perf_counter() - start
        paced = json.loads(out.splitlines()[-1])
        wall.append(seconds)
        reference.append((seconds - paced["sampled_s"]) * paced["scale"])
    return reference, wall


def check_layers(workload: str, tracer) -> list:
    """Problems with the design's busy/idle prediction for this workload."""
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["workloads"][workload]
    spans = tracer.layer_spans()
    calls = tracer.layer_counts()
    problems = []
    for layer in spec["busy_layers"]:
        if not spans[layer]:
            problems.append(f"busy layer {layer} recorded no span")
    for layer in spec["idle_layers"]:
        if spans[layer] or calls[layer]:
            problems.append(f"idle layer {layer} recorded {spans[layer]} "
                            f"spans and {calls[layer]} calls")
    return problems


def with_units(values, kind: str):
    """Metric records for `values`, with units from BENCHMARK.json's `kind`
    list, which must name exactly these metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if set(units) != set(values):
        raise SetupError(f"metrics {sorted(values)} do not match the "
                         f"{kind} list of BENCHMARK.json {sorted(units)}")
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def tally(results):
    """(attempted, failed, wrong) over a list of Results."""
    failed = sum(r.outcome == "failed" for r in results)
    wrong = sum(r.outcome == "wrong" for r in results)
    return len(results), failed, wrong


def report(args, ctx, results, metrics, extra) -> int:
    attempted, failed, wrong = tally(results)
    for r in results:
        if r.outcome != "ok":
            print(f"perfbench: {r.outcome} verdict {r.label}: {r.reason}",
                  file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_sha256": ctx.digest, "attempted": attempted,
        "failed": failed, "verdicts_wrong": wrong, "metrics": metrics,
        "verdicts": [[r.label, r.seconds, r.scale, r.outcome]
                     for r in results],
        **extra,
    }
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"inputs_sha256={ctx.digest}")
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    for key, value in extra.items():
        print(f"  {key:<40} {value}")
    print(f"  {'verdicts_wrong':<40} {wrong:>14d} count")
    print(f"  {'failed_share':<40} {failed / attempted:>14.6g} ratio")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if wrong == 0 and failed == 0 else 1


def measured_run(args, ctx) -> int:
    setup_times, setup_wall = measure_setup(args)
    passes = max(1, round(args.seconds / PASS_SECONDS))
    pace.warm_up()
    pacer = pace.Pacer()
    results = [r for _ in range(passes) for r in run_pass(ctx, pacer=pacer)]
    times = [r.reference_s for r in results]
    wall = [r.seconds for r in results]
    tail_s, pct = tail(times)
    metrics = with_units({
        "setup_s": statistics.median(setup_times),
        "verdicts_per_s": len(times) / sum(times),
        "verdict_s.p50": statistics.median(times),
        "verdict_s.tail": tail_s,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, "end_to_end")
    extra = {
        "passes": passes,
        "verdict_s.tail_percentile": round(pct, 2),
        "verdict_samples": len(times),
        "setup_samples_s": [round(t, 4) for t in setup_times],
        "pace.scale_p50": round(statistics.median(
            r.scale for r in results), 4),
        "wall.verdicts_per_s": round(len(wall) / sum(wall), 4),
        "wall.verdict_s.p50": round(statistics.median(wall), 4),
        "wall.verdict_s.tail": round(tail(wall)[0], 4),
        "wall.setup_s": round(statistics.median(setup_wall), 4),
    }
    return report(args, ctx, results, metrics, extra)


def traced_run(args, ctx) -> int:
    from layertrace import Tracer

    plain = run_pass(ctx)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(ctx, tracer)
    finally:
        tracer.uninstall()
    values = tracer.layer_metrics(len(traced))
    values["trace.overhead_ratio"] = (sum(r.seconds for r in traced)
                                      / sum(r.seconds for r in plain))
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(
        OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    problems = check_layers(args.workload, tracer)
    for p in problems:
        print(f"perfbench: layer prediction broken: {p}", file=sys.stderr)
    if problems:
        return 1
    extra = {
        "spans": len(tracer.spans),
        "spans_per_layer": dict(sorted(tracer.layer_spans().items())),
    }
    return report(args, ctx, plain + traced,
                  with_units(values, "per_layer"), extra)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up and exit (times setup_s)")
    args = ap.parse_args(argv)

    # a --setup-only process paces itself, for measure_setup
    pacer = pace.Pacer()
    if args.setup_only:
        pacer.start()
    try:
        import_chainalg()
        ctx = Context(workloads.build(args.workload, args.seed),
                      f"{args.workload}-{args.seed}")
    except (SetupError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        if args.setup_only:
            sampled = pacer.stop() + sum(pacer.before) + sum(pacer.after)
    try:
        if args.setup_only:
            print(json.dumps({"scale": pacer.scale(), "sampled_s": sampled}))
            return 0
        if args.trace:
            return traced_run(args, ctx)
        return measured_run(args, ctx)
    finally:
        ctx.close()


if __name__ == "__main__":
    sys.exit(main())
