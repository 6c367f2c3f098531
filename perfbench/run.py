"""The repository benchmark: one closed-loop client sends seeded CHC
requests to RInGen and reports end-to-end or per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1-fresh --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload refute-sweep --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --steadiness --workload stlc-verify --runs 5
    python3 perfbench/run.py --known-gap

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``,
its times normalised to a reference host speed (``hostspeed.py``);
``--trace 1`` replays one pass with benchmark-side spans and prints
every per-layer metric.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A wrong
verdict makes ``correct`` false and the exit code 1.  Workload
definitions and metric rules are in ``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402  (benchmark-only; needs no program)
import summary  # noqa: E402
from oracle import SOLVED, UNSOLVED, WRONG  # noqa: E402

WORKLOADS = ("table1-fresh", "refute-sweep", "stlc-verify", "campaign-resubmit")
SETUP_PROBES = 5


def setup_probe_times(workload: str, seed: int, count: int) -> list[float]:
    """Spawn ``count`` fresh interpreters that import the program and
    generate the workload's requests; time each from spawn to ready,
    without the child's host-speed probes and scaled by them."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            end = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        fields = line.split()
        if fields[:1] != ["ready"] or len(fields) != 3 or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, {line!r})")
        factor, probes_s = float(fields[1]), float(fields[2])
        times.append((end - start - probes_s) * factor)
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(wl, rng, seconds: float, clock):
    """Closed loop over whole passes; returns (outcomes, measured wall
    seconds, scaled busy seconds, passes)."""
    outcomes = []
    passes = 0
    busy = 0.0
    begin = time.perf_counter()
    while True:
        batch = wl.next_pass(rng)
        start = time.perf_counter()
        pass_outcomes, pass_busy = wl.run_pass(batch, clock)
        outcomes.extend(pass_outcomes)
        busy += pass_busy
        last = time.perf_counter() - start
        passes += 1
        print(f"# pass {passes}: {len(pass_outcomes)} requests, "
              f"{last:.3f} s wall, {pass_busy:.3f} s scaled busy", flush=True)
        elapsed = time.perf_counter() - begin
        if elapsed + last > seconds:
            return outcomes, elapsed, busy, passes


def _latencies(wl, outcomes, attr: str) -> list[float]:
    """Per-request times; an unsolved request counts at no less than the
    per-request limit."""
    return [
        getattr(o, attr) if o.verdict == SOLVED
        else max(getattr(o, attr), wl.limit)
        for o in outcomes
    ]


def end_to_end(wl, outcomes, measured_s: float, busy_s: float, setup_s: float):
    """(metrics, human-readable lines) of an untraced run.  Times are
    host-speed-normalised (hostspeed.py); the wall-clock figures are
    printed alongside."""
    n = len(outcomes)
    effective = _latencies(wl, outcomes, "scaled")
    wall = _latencies(wl, outcomes, "latency")
    solved = sum(o.verdict == SOLVED for o in outcomes)
    unanswered = sum(o.verdict == UNSOLVED for o in outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_rps": (n / busy_s, "1/s"),
        "latency_p50_s": (summary.percentile(effective, 0.5), "s"),
        "latency_p90_s": (summary.percentile(effective, 0.9), "s"),
        "solved_frac": (solved / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    floor_note = (
        "meets the sample floor"
        if summary.meets_floor(n, 0.9)
        else f"below the sample floor: {summary.samples_beyond(n, 0.9)} "
        f"samples beyond p90, {summary.SAMPLE_FLOOR} needed"
    )
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.insert(4, f"  (latency samples n={n}; p90 {floor_note})")
    lines.append(f"failed_frac = {unanswered / n:.6g} ratio")
    lines.append(
        f"  (wall clock: {n / measured_s:.6g} requests/s over {measured_s:.2f} s "
        f"incl. probes, latency p50 {summary.percentile(wall, 0.5):.6g} s, "
        f"p90 {summary.percentile(wall, 0.9):.6g} s)"
    )
    return metrics, lines


def run_benchmark(args) -> int:
    try:
        import workloads
    except ImportError as error:
        print(f"error: cannot import the program under test: {error}",
              file=sys.stderr)
        return 2
    wl = workloads.make_workload(args.workload)
    rng = random.Random(args.seed)
    if args.trace:
        return run_traced(workloads, wl, rng, args)
    setup_s = statistics.median(
        setup_probe_times(args.workload, args.seed, SETUP_PROBES)
    )
    with wl.host_clock() as clock:
        outcomes, measured_s, busy_s, passes = measure(
            wl, rng, args.seconds, clock
        )
    metrics, lines = end_to_end(wl, outcomes, measured_s, busy_s, setup_s)
    wrong = [o.name for o in outcomes if o.verdict == WRONG]
    failed = sum(o.error is not None for o in outcomes)
    print(f"# {args.workload} seed={args.seed}: {len(outcomes)} requests in "
          f"{passes} pass(es), {measured_s:.2f} s measured")
    for line in lines:
        print(line)
    if wrong:
        print(f"WRONG verdicts: {', '.join(wrong)}", file=sys.stderr)
    return emit(not wrong, len(outcomes), failed, metrics)


def run_traced(workloads, wl, rng, args) -> int:
    outcomes, recorder, registry, acc = workloads.traced_pass(
        wl, wl.next_pass(rng)
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    recorder.write(str(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"))
    units = {e["metric"]: e["unit"] for e in workloads.RECORD["layer_map"]}
    metrics = {
        name: (value, units[name])
        for name, value in workloads.layer_metrics(recorder, registry, acc).items()
    }
    print(f"# {args.workload} seed={args.seed}: traced replay of "
          f"{len(outcomes)} requests")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    wrong = [o.name for o in outcomes if o.verdict == WRONG]
    for name, before, after in acc.mismatches:
        print(f"REPLAY MISMATCH {name}: untraced {before}, traced {after}",
              file=sys.stderr)
    failed = sum(o.error is not None for o in outcomes)
    return emit(not wrong and not acc.mismatches, len(outcomes), failed, metrics)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def run_setup_probe(args) -> int:
    """Set up as a run does, probing the host's speed meanwhile; report
    "ready <scale factor> <seconds spent in probes>"."""
    with hostspeed.HostClock() as clock:
        import workloads

        workloads.make_workload(args.workload)
    factor = hostspeed.REFERENCE_S / statistics.fmean(clock.durations)
    print(f"ready {factor!r} {sum(clock.durations)!r}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--steadiness", action="store_true",
                        help="run the workload repeatedly in two sets and "
                        "judge their agreement against BENCHMARK.json bounds")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set in --steadiness mode")
    parser.add_argument("--known-gap", action="store_true",
                        help="measure the deep-UNSAT cex height gap of "
                        "table1-fresh")
    args = parser.parse_args(argv)
    if args.known_gap:
        from steadiness import known_gap

        return known_gap()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return run_setup_probe(args)
    if args.steadiness:
        from steadiness import steadiness

        return steadiness(args)
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
