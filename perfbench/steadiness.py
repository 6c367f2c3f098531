"""Steadiness mode and the known-gap measurement.

``steadiness`` runs one workload ``--runs`` times in each of two sets
(every run with its own seed), then prints per end-to-end metric each
set's median and quartiles and whether the two sets agree within the
metric's ``BENCHMARK.json`` bound: both spreads within the bound (not
checked for ``setup_s``) and the second median not worse than the first
by more than the bound.

``known_gap`` sends the table1-fresh population once at its workload
configuration and, for every expected-UNSAT request left unanswered,
times a deeper bounded refutation search.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import summary
from oracle import SOLVED

HERE = Path(__file__).resolve().parent
DEEP_HEIGHT = 16


def _one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"run seed={seed} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"run seed={seed} reported wrong verdicts")
    return result


def steadiness(args) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    sets: list[list[dict]] = [[], []]
    for k, runs in enumerate(sets):
        for i in range(args.runs):
            seed = args.seed + k * args.runs + i
            runs.append(_one_run(args.workload, seed, args.seconds))
            print(f"set {k + 1} run {i + 1} (seed {seed}): " + ", ".join(
                f"{m['name']}={runs[-1]['metrics'][m['name']]['value']:.4g}"
                for m in metrics
            ), flush=True)
    all_ok = True
    print(f"\n{args.workload}: {args.runs} runs per set")
    print(f"{'metric':16} {'set':>3} {'q1':>10} {'median':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for m in metrics:
        name = m["name"]
        values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
        verdict = summary.agreement(
            values[0], values[1], bound=m["bound"], better=m["better"],
            check_spread=name != "setup_s",
        )
        for label, vals in (("1", values[0]), ("2", values[1]),
                            ("all", values[0] + values[1])):
            q1, med, q3 = summary.quartiles(vals)
            print(f"{name:16} {label:>3} {q1:10.4g} {med:10.4g} {q3:10.4g} "
                  f"{summary.spread(vals):7.3f} {m['bound']:6.2f}")
        print(f"{'':16} second median worse by {verdict['drift']:+.3f}: "
              f"{'agree' if verdict['ok'] else 'DISAGREE'}")
        all_ok = all_ok and verdict["ok"]
    return 0 if all_ok else 1


def known_gap() -> int:
    import workloads
    from repro.chc.transform import preprocess
    from repro.core.cex import search_counterexample

    wl = workloads.make_workload("table1-fresh")
    outcomes, _ = wl.run_pass(wl.requests)
    unanswered = {o.name for o in outcomes if o.verdict != SOLVED}
    deep = []
    for request in wl.requests:
        if request.name not in unanswered or request.truth.status != "unsat":
            continue
        start = time.perf_counter()
        found = search_counterexample(
            preprocess(request.system), max_height=DEEP_HEIGHT,
            max_facts=wl.config().cex_max_facts,
        )
        deep.append({
            "request": request.name,
            "refuted": found.found,
            "height": found.max_height_tried,
            "seconds": round(time.perf_counter() - start, 4),
        })
    report = {
        "limit_s": wl.limit,
        "cex_max_height": wl.config().cex_max_height,
        "requests": len(outcomes),
        "unanswered": len(unanswered),
        "unanswered_unsat": len(deep),
        "refuted_at_height_le": DEEP_HEIGHT,
        "refuted": sum(d["refuted"] for d in deep),
        "max_refutation_s": max((d["seconds"] for d in deep), default=0.0),
        "detail": deep,
    }
    print(json.dumps(report, indent=2))
    return 0
