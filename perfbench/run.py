"""omtense benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it repeats passes over the workload's command list for S
seconds (at least one pass) and reports verify_s, cases_per_s, setup_s and
peak_rss_mb, plus failed_frac on the text lines. With --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics of
BENCHMARK.json. Every pass is checked against the recorded reference. The
last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time

import tracing
import workloads

WORKDIR = workloads.HERE / ".work"
SETUP_REPEATS = 7
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest p with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if round(n * (100 - p) / 100, 6) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return p, cuts[round(p * 10) - 1]
    return None


def describe(values: list[float], unit: str) -> str:
    """Median, tail percentile where there are enough samples, and the count."""
    text = f"median {statistics.median(values):.6g} {unit} over n={len(values)}"
    tail = tail_percentile(values)
    if tail is None:
        return text + " (too few samples for a tail percentile)"
    return text + f", p{tail[0]:g} {tail[1]:.6g} {unit}"


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def time_setups(name: str, repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter until its inputs are ready."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(workloads.HERE / "workloads.py"),
                               name, str(WORKDIR)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up of {name} failed in a fresh process")
    return times


class Runner:
    """Passes over one workload's commands, each checked against the reference."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.commands = workload.commands(WORKDIR, seed)
        self.reference = workloads.load_reference(workload)
        self.capture = workloads.ReportCapture()
        self.outputs: list[workloads.PassOutput] = []

    def warm_up(self) -> None:
        """Load lazily imported code, the pool machinery included, before timing."""
        argv = ["verify", "--lattice", str(WORKDIR / "cube2.lattice"),
                "--frame", str(WORKDIR / "le2.frame"), "--suite", "all",
                "--jobs", str(self.workload.jobs), "--format", "json-lines"]
        out = workloads.run_pass([argv], self.capture)
        if out.error or out.exits != [0]:
            raise RuntimeError(f"warm-up command failed: {out.error}")

    def timed_pass(self, clock=time.perf_counter) -> float:
        gc.collect()
        t0 = clock()
        out = workloads.run_pass(self.commands, self.capture)
        elapsed = clock() - t0
        self.outputs.append(out)
        return elapsed

    def failures(self) -> list[list[str]]:
        same_as = None
        if self.workload.reference != self.workload.name and self.seed != workloads.REFERENCE_SEED:
            base = workloads.WORKLOADS[self.workload.reference]
            same_as = workloads.run_pass(base.commands(WORKDIR, self.seed), self.capture).stdouts
        return [workloads.check_pass(out, self.reference, self.seed, same_as)
                for out in self.outputs]

    def cases(self) -> int:
        return sum(workloads.cases(s) for s in self.outputs[0].stdouts)


def measure(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    times: list[float] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(runner.timed_pass())
    rss = peak_rss_mb()  # before the set-up probes, which are children too
    setups = time_setups(runner.workload.name, SETUP_REPEATS)
    verify_s = statistics.median(times)
    metrics = {
        "verify_s": (verify_s, "s"),
        "cases_per_s": (runner.cases() / verify_s, "cases/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines = [
        f"  verify_s     {describe(times, 's')} passes",
        f"  cases_per_s  {metrics['cases_per_s'][0]:.6g} cases/s "
        f"({runner.cases()} cases per pass)",
        f"  setup_s      {describe(setups, 's')} fresh-process set-ups",
        f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:.6g} MB",
    ]
    return metrics, lines


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    untraced, traced, per_pass, lines = [], [], [], []
    shares = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runner.timed_pass())
        tracer = tracing.Tracer()
        with tracing.install(tracer) as installed:
            traced.append(runner.timed_pass(clock=tracer.now))
        per_pass.append(tracing.pass_metrics(tracer.spans, tracer.counts, traced[-1]))
        if shares is None:
            shares = tracing.share_within(tracer.spans, "thm7")
        absent = installed.absent
    metrics = tracing.median_metrics(per_pass)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    for name in absent:
        lines.append(f"  absent hook target: {name}")
    if runner.workload.jobs > 1:
        lines.append("  worker processes are not traced: only parent-side layers "
                     "(pool.*, laws.checks, suite spans) are visible")
    if set(shares) - {"verify"}:
        lines.append("  thm7 self-time shares: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in sorted(shares.items(),
                                                               key=lambda kv: -kv[1])))
    lines.append(f"  traced passes {describe(traced, 's')}; untraced {describe(untraced, 's')}")
    return {name: (value, unit_of(name)) for name, value in metrics.items()}, lines


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    try:
        workloads.setup(WORKDIR, workload)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up {workload.name}: {exc}", file=sys.stderr)
        return 2
    try:
        runner = Runner(workload, args.seed)
    except OSError as exc:
        print(f"error: no reference for {workload.name}: {exc}", file=sys.stderr)
        return 2
    try:
        runner.warm_up()
        if args.trace:
            metrics, lines = measure_traced(runner, args.seconds)
        else:
            metrics, lines = measure(runner, args.seconds)
        failures = runner.failures()
    finally:
        runner.capture.close()

    failed = sum(1 for problems in failures if problems)
    mode = "traced" if args.trace else "untraced"
    print(f"workload {workload.name}, seed {args.seed}, {mode}: {workload.why}")
    for line in lines:
        print(line)
    print(f"  failed_frac  {failed / len(failures):.6g} ratio "
          f"({failed} of {len(failures)} passes failed)")
    for i, problems in enumerate(failures):
        for problem in problems:
            print(f"  pass {i}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
