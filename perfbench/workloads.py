"""The four request workloads: populations, seeded passes, and how one
pass is sent — untraced for the end-to-end metrics, or traced (each
request replayed under benchmark-side spans) for the per-layer ones.

Parameters (limits, size bound, submissions per batch) live in
``workloads.json`` next to this file, which also records why each
workload exists.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import json
import multiprocessing
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from hostspeed import REFERENCE_S, HostClock
from oracle import NO_MODEL, UNSOLVED, WRONG, Truth, judge, truth_of_problem, truth_of_stlc
from spans import SpanRecorder, busy_times, self_times, wrapped

import repro.core.ringen as ringen_mod
import repro.harness.runner as runner_mod
from repro.benchgen.adtbench import diseq_suite, positiveeq_suite
from repro.benchgen.suite import Problem, Suite
from repro.benchgen.tip import tip_suite
from repro.chc.clauses import CHCSystem
from repro.core.regular_model import RegularModel
from repro.core.ringen import RInGen, RInGenConfig
from repro.exec import ExecPolicy, ReproFaultPlan
from repro.mace.finder import ModelFinder
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.sat.solver import CDCLSolver
from repro.stlc.problems import stlc_problems

RECORD = json.loads(
    (Path(__file__).with_name("workloads.json")).read_text(encoding="utf-8")
)
LAYER_METRICS = [entry["metric"] for entry in RECORD["layer_map"]]
#: result-details key under which a worker reports its host-speed probes
HOST_KEY = "perfbench_host"


@dataclass
class Request:
    name: str
    system: CHCSystem
    truth: Truth
    family: str = ""
    classes: frozenset = frozenset()


@dataclass
class Outcome:
    """One request's verdict as the client saw it."""

    name: str
    status: str  # "sat" | "unsat" | "unknown"
    latency: float  # wall seconds
    verdict: str  # oracle.SOLVED / UNSOLVED / WRONG
    error: Optional[str] = None  # crash / timeout_hard / oom
    scaled: float = 0.0  # host-speed-normalised seconds (hostspeed.py)


@dataclass
class LayerCounters:
    """What a traced pass accumulates besides its spans."""

    untraced_s: float = 0.0
    traced_s: float = 0.0
    cex_heights: int = 0
    cex_refuted: int = 0
    herbrand_retries: int = 0
    finder: dict = field(default_factory=dict)
    pool: dict = field(default_factory=dict)
    exec: dict = field(default_factory=dict)
    exec_overhead_s: float = 0.0
    mismatches: list = field(default_factory=list)

    def add_finder(self, stats: Optional[dict]) -> None:
        for key, value in (stats or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.finder[key] = self.finder.get(key, 0) + value


@contextlib.contextmanager
def metrics_on(registry: MetricsRegistry):
    """Point the program's metrics switchboard at ``registry``."""
    obs_runtime.METRICS = registry
    try:
        yield
    finally:
        obs_runtime.METRICS = None


# ---------------------------------------------------------------------------
# populations


def _smallest_member(problem: Problem) -> bool:
    """Unguarded members, and parametrised ones at g0/g1 or widen 0/1:
    every integer parameter of the problem's generator is at most 1."""
    factory = problem.factory
    params = [*getattr(factory, "args", ()),
              *getattr(factory, "keywords", {}).values()]
    return all(
        v <= 1 for v in params if isinstance(v, int) and not isinstance(v, bool)
    )


def table1_population() -> list[Request]:
    out = []
    for suite in (tip_suite(), positiveeq_suite(), diseq_suite()):
        for p in suite:
            if p.expected_status == "unsat" or "Reg" in p.expected_classes:
                out.append(_from_problem(p))
    return out


def refute_population() -> list[Request]:
    families = {
        "PositiveEq": {"add-conjecture", "ordering"},
        "Diseq": {"diag", "involution"},
        "TIP": {"ordering", "conjecture"},
    }
    out = []
    for suite in (positiveeq_suite(), diseq_suite(), tip_suite()):
        for p in suite:
            if (
                p.family in families[suite.name]
                and "Reg" not in p.expected_classes
                and _smallest_member(p)
            ):
                request = _from_problem(p)
                request.truth = Truth(request.truth.status, False, NO_MODEL)
                out.append(request)
    for goal in stlc_problems():
        if goal.category == "classical-only":
            out.append(
                Request(f"stlc/{goal.name}", goal.system(),
                        truth_of_stlc(goal, refute=True), "classical-only")
            )
    return out


def stlc_population() -> list[Request]:
    excluded = RECORD["workloads"]["stlc-verify"]["excluded"]
    return [
        Request(f"stlc/{goal.name}", goal.system(), truth_of_stlc(goal),
                goal.category)
        for goal in stlc_problems()
        if goal.category == "non-tautology" and goal.name not in excluded
    ]


def campaign_population() -> list[Request]:
    families = {
        "PositiveEq": {"nat-mod", "nat-mod2", "list-parity"},
        "TIP": {"parity", "structural", "offset"},
    }
    return [
        _from_problem(p)
        for suite in (positiveeq_suite(), tip_suite())
        for p in suite
        if p.family in families[suite.name]
    ]


def _from_problem(p: Problem) -> Request:
    return Request(f"{p.suite}/{p.name}", p.build(), truth_of_problem(p),
                   p.family, p.expected_classes)


# ---------------------------------------------------------------------------
# workloads


class InProcessWorkload:
    """Each request is one ``RInGen.solve`` on a fresh solver."""

    def __init__(self, name: str, population) -> None:
        self.name = name
        self.params = RECORD["workloads"][name]
        self.limit = float(self.params["limit_s"])
        self.requests: list[Request] = population()

    def config(self) -> RInGenConfig:
        cfg = RInGenConfig(timeout=self.limit)
        for key, value in self.params["overrides"].items():
            setattr(cfg, key, value)
        return cfg

    def next_pass(self, rng: random.Random) -> list[Request]:
        order = list(self.requests)
        rng.shuffle(order)
        return order

    def _solve(self, request: Request):
        """(status, elapsed, complete, details, error) of one request."""
        start = time.perf_counter()
        try:
            result = RInGen(self.config()).solve(request.system)
        except Exception:  # a crash is an error verdict, as in run_problem
            traceback.print_exc(file=sys.stderr)
            return "unknown", time.perf_counter() - start, False, {}, "crash"
        elapsed = time.perf_counter() - start
        details = result.details
        return (result.status.value, elapsed, bool(details.get("complete")),
                details, None)

    def _outcome(self, request: Request, status, elapsed, complete, error):
        verdict = judge(request.truth, status, complete)
        if error is not None and verdict != WRONG:
            verdict = UNSOLVED
        return Outcome(request.name, status, elapsed, verdict, error)

    def host_clock(self) -> HostClock:
        """The host-speed clock of an untraced run (see run_pass)."""
        return HostClock()

    def run_pass(self, batch: list[Request], clock: Optional[HostClock] = None):
        """Send ``batch``; with a running ``clock``, probe the host's speed
        before each request and scale each request's time by it.
        Returns (outcomes, the pass's scaled busy seconds)."""
        out, spans = [], []
        for request in batch:
            if clock is not None:
                clock.mark()
            start = time.perf_counter()
            status, elapsed, complete, _, error = self._solve(request)
            spans.append((start, time.perf_counter()))
            out.append(self._outcome(request, status, elapsed, complete, error))
        if clock is not None:
            clock.mark()
        for outcome, span in zip(out, spans):
            # a request that ran into its limit took the limit, whatever
            # the host's speed: only work that finished earlier is scaled
            outcome.scaled = (
                clock.scaled(*span)
                if clock is not None and outcome.latency < self.limit
                else outcome.latency
            )
        return out, sum(o.scaled for o in out)

    def run_pass_traced(
        self,
        batch: list[Request],
        recorder: SpanRecorder,
        registry: MetricsRegistry,
        acc: LayerCounters,
    ) -> list[Outcome]:
        """Send each request untraced, then replay it with spans around
        the public calls ``RInGen.solve`` makes; the two verdicts must
        agree."""
        out = []
        for request in batch:
            status, elapsed, complete, _, error = self._solve(request)
            out.append(self._outcome(request, status, elapsed, complete, error))
            recorder.request = request.name
            with contextlib.ExitStack() as stack:
                stack.enter_context(metrics_on(registry))
                for target in self._layer_targets(recorder, acc):
                    stack.enter_context(target)
                with recorder.span("request") as root:
                    t_status, _, _, details, _ = self._solve(request)
            acc.untraced_s += elapsed
            acc.traced_s += root.duration
            acc.add_finder(details.get("finder"))
            if t_status != status:
                acc.mismatches.append((request.name, status, t_status))
        return out

    @staticmethod
    def _layer_targets(recorder: SpanRecorder, acc: LayerCounters):
        def on_cex(result) -> None:
            acc.cex_heights += result.max_height_tried
            acc.cex_refuted += int(result.found)

        def on_exact(ok) -> None:
            acc.herbrand_retries += int(not ok)

        return [
            wrapped(recorder, ringen_mod, "preprocess", "chc.preprocess"),
            wrapped(recorder, ringen_mod, "search_counterexample", "cex",
                    on_cex),
            wrapped(recorder, ModelFinder, "search", "finder"),
            wrapped(recorder, CDCLSolver, "solve", "sat"),
            wrapped(recorder, RegularModel, "from_finite_model",
                    "verify.from_model"),
            wrapped(recorder, RegularModel, "verify_exact", "verify.exact",
                    on_exact),
            wrapped(recorder, RegularModel, "verify_bounded",
                    "verify.bounded"),
        ]


class CampaignWorkload:
    """Each pass is one supervised, engine-sharing campaign batch."""

    name = "campaign-resubmit"

    def __init__(self) -> None:
        self.params = RECORD["workloads"][self.name]
        self.limit = float(self.params["limit_s"])
        self.requests = campaign_population()

    def next_pass(self, rng: random.Random) -> list[Request]:
        batch = list(self.requests) * int(self.params["submissions"])
        rng.shuffle(batch)
        seen: dict[str, int] = {}
        renamed = []
        for request in batch:
            k = seen.get(request.name, 0)
            seen[request.name] = k + 1
            renamed.append(
                Request(f"{request.name}~{k}", request.system, request.truth,
                        request.family, request.classes)
            )
        return renamed

    def _campaign(self, batch: list[Request]):
        suite = Suite("resubmit")
        for request in batch:
            suite.problems.append(
                Problem(request.name, suite.name, request.family,
                        functools.partial(copy.copy, request.system),
                        request.truth.status, request.classes)
            )
        policy = ExecPolicy(isolate=True, share_engines=True,
                            fault_plan=ReproFaultPlan())
        return runner_mod.run_campaign(
            [suite], solvers=["ringen"], timeout=self.limit,
            share_engines=True, isolate=True, policy=policy,
        )

    def _outcomes(self, batch: list[Request], campaign) -> list[Outcome]:
        truths = {r.name: r.truth for r in batch}
        out = []
        for record in campaign.records:
            status = record.status.value
            verdict = judge(truths[record.problem.name], status,
                            bool(record.details.get("complete")))
            if record.error_kind and verdict != WRONG:
                verdict = UNSOLVED
            out.append(Outcome(record.problem.name, status, record.elapsed,
                               verdict, record.error_kind))
        missing = len(batch) - len(out)
        out.extend(
            Outcome("<missing>", "unknown", self.limit, UNSOLVED, "crash")
            for _ in range(missing)
        )
        return out

    @staticmethod
    @contextlib.contextmanager
    def host_clock():
        """Probe the host's speed inside the worker processes, where the
        requests run: while this is active, ``RInGen.solve`` in a forked
        worker starts that worker's own ``HostClock`` on its first call
        (it runs until the worker exits), probes before every request and
        on the clock's timer, and adds ``details[HOST_KEY]`` to the
        result, which the verdict record carries back: the seconds of
        probes inside the solve call, and the worker's pid, probe count
        and probe seconds so far.  Processes that only wait for the
        workers do not probe."""
        original = RInGen.solve
        parent = os.getpid()
        worker: dict = {}

        def solve(self, system, *args, **kwargs):
            if os.getpid() == parent:
                return original(self, system, *args, **kwargs)
            clock = worker.get("clock")
            if clock is None:
                clock = worker["clock"] = HostClock().__enter__()
            # the task's own timing includes this probe: count it inside
            start = time.perf_counter()
            clock.mark()
            result = original(self, system, *args, **kwargs)
            probes_s, _ = clock.within(start, time.perf_counter())
            result.details[HOST_KEY] = {
                "probes_s": probes_s, "pid": os.getpid(),
                "probes": len(clock.durations),
                "probes_total_s": sum(clock.durations),
            }
            return result

        RInGen.solve = solve
        try:
            yield None
        finally:
            RInGen.solve = original

    def run_pass(self, batch: list[Request], clock=None):
        """Send ``batch`` (``clock`` is unused: the workers probe, see
        ``host_clock``) as one campaign from a fresh client process
        forked from this one, as a service started for the batch would:
        every batch then starts from the same client state, where a
        client that ran the batches one after another would fork its
        workers from a heap grown by the earlier ones.  Returns
        (outcomes, the batch's scaled seconds)."""
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        client = context.Process(target=self._client, args=(batch, send))
        client.start()
        send.close()
        try:
            result = receive.recv()
        except EOFError:
            result = RuntimeError(f"campaign client exited {client.exitcode}")
        finally:
            receive.close()
            client.join()
        if isinstance(result, BaseException):
            raise result
        return result

    def _client(self, batch: list[Request], conn) -> None:
        try:
            conn.send(self._scaled_pass(batch))
        except BaseException:
            conn.send(RuntimeError(traceback.format_exc()))
        finally:
            conn.close()

    def _scaled_pass(self, batch: list[Request]):
        """Send ``batch`` as one campaign.  Inside ``host_clock()`` every
        time of the batch, without the probes inside it, is scaled by the
        mean of all probes its workers took: a task of a few milliseconds
        holds one or two probes, too few to scale it by its own.
        Returns (outcomes, the batch's scaled seconds)."""
        start = time.perf_counter()
        campaign = self._campaign(batch)
        wall = time.perf_counter() - start
        out = self._outcomes(batch, campaign)
        host = {
            r.problem.name: r.details.get(HOST_KEY) for r in campaign.records
        }
        workers: dict = {}
        for probe in filter(None, host.values()):
            if probe["probes"] > workers.get(probe["pid"], {}).get("probes", 0):
                workers[probe["pid"]] = probe
        probes = sum(w["probes"] for w in workers.values())
        probes_s = sum(w["probes_total_s"] for w in workers.values())
        factor = REFERENCE_S * probes / probes_s if probes else 1.0
        for outcome in out:
            probe = host.get(outcome.name)
            outcome.scaled = (
                (outcome.latency - probe["probes_s"]) * factor
                if probe is not None and outcome.latency < self.limit
                else outcome.latency
            )
        return out, (wall - probes_s) * factor

    def run_pass_traced(
        self,
        batch: list[Request],
        recorder: SpanRecorder,
        registry: MetricsRegistry,
        acc: LayerCounters,
    ) -> list[Outcome]:
        start = time.perf_counter()
        untraced = self._campaign(batch)
        acc.untraced_s += time.perf_counter() - start
        recorder.request = "batch"
        with metrics_on(registry), wrapped(
            recorder, runner_mod, "batch_order", "harness.batch_order"
        ):
            with recorder.span("request") as root:
                with recorder.span("exec.campaign") as camp_span:
                    traced = self._campaign(batch)
        acc.traced_s += root.duration
        acc.exec_overhead_s += camp_span.duration - sum(
            r.elapsed for r in traced.records
        )
        for record in traced.records:
            acc.add_finder(record.details.get("finder"))
        for key, value in (traced.pool_stats or {}).items():
            if isinstance(value, (int, float)):
                acc.pool[key] = acc.pool.get(key, 0) + value
        for key, value in (traced.exec_stats or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                acc.exec[key] = acc.exec.get(key, 0) + value
        before = {r.problem.name: r.status for r in untraced.records}
        for record in traced.records:
            if before.get(record.problem.name) != record.status:
                acc.mismatches.append(
                    (record.problem.name, before.get(record.problem.name),
                     record.status)
                )
        return self._outcomes(batch, untraced)


def traced_pass(wl, batch: list[Request]):
    """Replay one pass under spans; (outcomes, recorder, registry, acc)."""
    recorder, registry, acc = SpanRecorder(), MetricsRegistry(), LayerCounters()
    outcomes = wl.run_pass_traced(batch, recorder, registry, acc)
    return outcomes, recorder, registry, acc


def make_workload(name: str):
    if name == "campaign-resubmit":
        return CampaignWorkload()
    populations = {
        "table1-fresh": table1_population,
        "refute-sweep": refute_population,
        "stlc-verify": stlc_population,
    }
    return InProcessWorkload(name, populations[name])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    recorder: SpanRecorder, registry: MetricsRegistry, acc: LayerCounters
) -> dict[str, float]:
    """Every per-layer metric of ``workloads.json``'s layer map."""
    busy = busy_times(recorder.spans)
    own = self_times(recorder.spans)
    counters = registry.counters
    finder = acc.finder
    attempts = finder.get("attempts", 0)
    skipped = finder.get("vectors_skipped", 0)
    encoded = finder.get("clauses_encoded", 0)
    reused = finder.get("clauses_reused", 0)
    search_s = sum(
        counters.get(f"phase.{name}_s", 0.0)
        for name in ("propagate", "analyze", "minimize")
    )
    pool = acc.pool
    values = {
        "chc.preprocess_s": busy.get("chc.preprocess", 0.0),
        "cex.busy_s": busy.get("cex", 0.0),
        "cex.self_s": own.get("cex", 0.0),
        "cex.heights_tried": acc.cex_heights,
        "cex.refuted": acc.cex_refuted,
        "finder.busy_s": busy.get("finder", 0.0),
        "finder.self_s": own.get("finder", 0.0),
        "finder.attempts": attempts,
        "finder.vectors_refuted": finder.get("vectors_refuted", 0),
        "finder.vectors_skipped": skipped,
        "finder.skip_ratio": _ratio(skipped, attempts + skipped),
        "finder.clauses_encoded": encoded,
        "finder.reuse_ratio": _ratio(reused, encoded + reused),
        "finder.encode_s": counters.get("phase.encode_s", 0.0),
        "finder.herbrand_retries": acc.herbrand_retries,
        "sat.conflicts": counters.get("sat.conflicts", 0),
        "sat.propagations": counters.get("sat.propagations", 0),
        "sat.decisions": counters.get("sat.decisions", 0),
        "sat.core_probes": counters.get("sat.core_probes", 0),
        "sat.search_s": search_s,
        "sat.propagations_per_s": _ratio(
            counters.get("sat.propagations", 0), search_s
        ),
        "sat.self_s": own.get("sat", 0.0),
        "verify.exact_s": busy.get("verify.exact", 0.0),
        "verify.bounded_s": busy.get("verify.bounded", 0.0),
        "verify.self_s": sum(
            own.get(name, 0.0)
            for name in ("verify.from_model", "verify.exact", "verify.bounded")
        ),
        "pool.engines_created": pool.get("engines_created", 0),
        "pool.engine_hits": pool.get("engine_hits", 0),
        "pool.hit_ratio": _ratio(pool.get("engine_hits", 0),
                                 pool.get("problems", 0)),
        "pool.cross_problem_clauses": pool.get("cross_problem_clauses", 0),
        "harness.batch_order_s": busy.get("harness.batch_order", 0.0),
        "exec.overhead_s": acc.exec_overhead_s,
        "exec.workers_spawned": acc.exec.get("workers_spawned", 0),
        "exec.snapshots_collected": acc.exec.get("snapshots_collected", 0),
        "exec.retries": acc.exec.get("retries", 0),
        "obs.trace_overhead_frac": _ratio(acc.traced_s, acc.untraced_s) - 1.0,
        # the request's own time outside every wrapped call (for a
        # campaign batch: the benchmark-side suite building)
        "other.self_s": own.get("request", 0.0),
    }
    return {name: values[name] for name in LAYER_METRICS}
