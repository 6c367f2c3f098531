"""Multi-solver experiment runner (the engine behind Table 1 and Figs 4-6).

Runs every solver on every problem of a suite with per-run timeouts,
records verdicts + wall times, checks each verdict against the problem's
ground truth (a wrong SAT/UNSAT is counted as *incorrect* and excluded
from the solved tallies, mirroring how solver competitions score), and
aggregates into the paper's tables and figures.

Execution is not this module's business: :func:`run_campaign` turns the
(suite x solver) product into :class:`~repro.exec.supervisor.TaskSpec`
lists and hands them to :func:`~repro.exec.supervisor.execute_tasks` —
the one campaign loop, in-process or isolated — then rehydrates the
verdict dicts into :class:`RunRecord` and publishes the campaign's
metrics (:func:`publish_campaign_metrics`, shared with the CLI).
:func:`run_problem` runs a single task through the same in-process
per-task code.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.benchgen.suite import Problem, Suite
from repro.chc.transform import preprocess
from repro.core.result import SolveResult, Status
from repro.core.ringen import RInGen, RInGenConfig
from repro.exec.faults import ReproFaultPlan
from repro.exec.supervisor import (
    ExecPolicy,
    ExecStats,
    TaskSpec,
    execute_tasks,
)
from repro.exec.worker import run_task
from repro.mace.pool import EnginePool, signature_fingerprint
from repro.obs import runtime as obs_runtime
from repro.solvers.elem import ElemConfig, ElemSolver
from repro.solvers.induct import InductConfig, InductSolver
from repro.solvers.sizeelem import SizeElemConfig, SizeElemSolver
from repro.solvers.verimap import VeriMapConfig, VeriMapSolver

logger = logging.getLogger(__name__)

SOLVER_ORDER = ["ringen", "eldarica", "spacer", "cvc4-ind", "verimap-iddt"]

# Table 1's header row: the representation class of each solver.
REPRESENTATION_ROW = {
    "ringen": "Reg",
    "eldarica": "SizeElem",
    "spacer": "Elem",
    "cvc4-ind": "-",
    "verimap-iddt": "-",
}


def make_solver(
    name: str,
    timeout: float,
    *,
    engine_pool: Optional[EnginePool] = None,
    solver_opts: Optional[dict] = None,
):
    """Instantiate a solver under its Table 1 alias.

    ``engine_pool`` (campaign batch mode) and ``solver_opts`` (further
    :class:`~repro.core.ringen.RInGenConfig` fields: the SAT backend,
    the disk warm cache, sweep shards, the ablation switches) only
    concern RInGen — the baselines have no incremental engine to share
    and ignore them.
    """
    if name == "ringen":
        return RInGen(
            RInGenConfig(
                timeout=timeout, engine_pool=engine_pool, **(solver_opts or {})
            )
        )
    if name == "eldarica":
        return SizeElemSolver(SizeElemConfig(timeout=timeout))
    if name == "spacer":
        return ElemSolver(ElemConfig(timeout=timeout))
    if name == "cvc4-ind":
        return InductSolver(InductConfig(timeout=timeout))
    if name == "verimap-iddt":
        return VeriMapSolver(VeriMapConfig(timeout=timeout))
    raise ValueError(f"unknown solver {name!r}")


@dataclass
class RunRecord:
    """One (problem, solver) measurement."""

    problem: Problem
    solver: str
    status: Status
    elapsed: float
    correct: bool
    model_size: Optional[int] = None
    reason: str = ""
    # solver-reported extras (e.g. the model finder's incremental-engine
    # statistics under "finder"), surfaced by the report generator
    details: dict = field(default_factory=dict)
    # execution-layer outcome: None for an honest solver verdict;
    # "crash" / "timeout_hard" / "oom" when the task failed and the
    # supervisor turned the failure into a structured verdict.  These
    # records stay UNKNOWN for scoring (they are non-answers, not wrong
    # answers) but the report surfaces them in a dedicated errors
    # section instead of folding them into the unknowns.
    error_kind: Optional[str] = None
    attempts: int = 1
    traceback: str = ""

    @property
    def solved(self) -> bool:
        return self.correct and self.status is not Status.UNKNOWN

    @property
    def errored(self) -> bool:
        return self.error_kind is not None


@dataclass
class Campaign:
    """All measurements of one experiment run."""

    records: list[RunRecord] = field(default_factory=list)
    timeout: float = 1.0
    # campaign batch mode: cross-problem engine reuse counters from the
    # shared EnginePool (None when every problem got a fresh engine)
    pool_stats: Optional[dict] = None
    # execution-layer retry/resume/worker accounting from repro.exec
    # (ExecStats.as_dict; None only for hand-assembled campaigns), plus
    # whether the campaign was stopped by SIGINT/SIGTERM — in which
    # case the records are the partial, journaled prefix
    exec_stats: Optional[dict] = None
    interrupted: bool = False
    # observability: the merged metrics snapshot of the run (see
    # repro.obs.metrics) when metrics collection was on, else None
    obs: Optional[dict] = None

    def add(self, record: RunRecord) -> None:
        self.records.append(record)

    # -- selections ------------------------------------------------------
    def for_solver(self, solver: str) -> list[RunRecord]:
        return [r for r in self.records if r.solver == solver]

    def for_suite(self, suite: str) -> list[RunRecord]:
        return [r for r in self.records if r.problem.suite == suite]

    def record(self, problem_name: str, solver: str) -> Optional[RunRecord]:
        for r in self.records:
            if r.problem.name == problem_name and r.solver == solver:
                return r
        return None

    # -- Table 1 aggregation ----------------------------------------------
    def count(self, suite: str, solver: str, status: Status) -> int:
        return sum(
            1
            for r in self.records
            if r.problem.suite == suite
            and r.solver == solver
            and r.status is status
            and r.correct
        )

    def unique_count(
        self, suite: str, solver: str, status: Status, others: Sequence[str]
    ) -> int:
        """Problems only this solver answered with ``status`` (correctly)."""
        mine = {
            r.problem.name
            for r in self.records
            if r.problem.suite == suite
            and r.solver == solver
            and r.status is status
            and r.correct
        }
        for other in others:
            if other == solver:
                continue
            mine -= {
                r.problem.name
                for r in self.records
                if r.problem.suite == suite
                and r.solver == other
                and r.status is status
                and r.correct
            }
        return len(mine)

    # -- figure data --------------------------------------------------------
    def scatter_points(
        self, competitor: str, *, sat_only: bool = False
    ) -> list[tuple[float, float, str]]:
        """Figure 4/5 points: (ringen time, competitor time, problem).

        Unsolved runs sit at the timeout value (the paper places timeouts
        on the dashed boundary lines).
        """
        points = []
        by_name: dict[str, dict[str, RunRecord]] = {}
        for r in self.records:
            by_name.setdefault(r.problem.name, {})[r.solver] = r
        for name, runs in by_name.items():
            mine = runs.get("ringen")
            theirs = runs.get(competitor)
            if mine is None or theirs is None:
                continue
            if sat_only and not (
                (mine.solved and mine.status is Status.SAT)
                or (theirs.solved and theirs.status is Status.SAT)
            ):
                continue
            x = mine.elapsed if mine.solved else self.timeout
            y = theirs.elapsed if theirs.solved else self.timeout
            points.append((x, y, name))
        return points

    def model_size_histogram(self) -> dict[int, int]:
        """Figure 6: distribution of finite-model sizes among SAT answers."""
        histogram: dict[int, int] = {}
        for r in self.records:
            if (
                r.solver == "ringen"
                and r.status is Status.SAT
                and r.correct
                and r.model_size is not None
            ):
                histogram[r.model_size] = histogram.get(r.model_size, 0) + 1
        return histogram


def batch_order(problems: Sequence[Problem]) -> list[Problem]:
    """Order a batch so signature-compatible problems run back-to-back.

    The engine pool keys persistent engines by signature fingerprint, so
    grouping compatible problems maximizes warm-engine hits and keeps
    the working set to one engine at a time (the pool's LRU never
    thrashes).  Problems are fingerprinted on their *preprocessed* form
    — the same form RInGen hands to the pool, so the schedule groups
    exactly by the pool's engine keys (preprocessing can add ``diseq``
    predicates that split raw-compatible systems apart).  Grouping is
    stable: groups appear in first-occurrence order and problems keep
    their relative order within a group.
    """
    groups: dict[tuple, list[Problem]] = {}
    order: list[tuple] = []
    for problem in problems:
        key = _signature_key(problem.build, f"{problem.suite}/{problem.name}")
        if key is None:
            # an unfingerprintable problem still runs, in its own group
            key = ("unfingerprintable", problem.suite, problem.name)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(problem)
    return [p for key in order for p in groups[key]]


def _signature_key(build: Callable[[], object], label: str) -> Optional[tuple]:
    """The engine-pool key of a problem, or ``None`` (with a warning)
    when it cannot be built or preprocessed.

    Fingerprints the *preprocessed* system — the form RInGen hands to
    the pool.  A failure here predicts a failure at solve time, so it
    is logged rather than hidden; the problem then runs unshared.
    """
    try:
        return signature_fingerprint(preprocess(build()))
    except Exception as error:
        logger.warning(
            "could not fingerprint %s (%s: %s); running it unshared",
            label,
            type(error).__name__,
            error,
        )
        return None


def run_problem(
    problem: Problem,
    solver_name: str,
    timeout: float,
    *,
    engine_pool: Optional[EnginePool] = None,
) -> RunRecord:
    """Run one solver on one problem and score the verdict.

    The same per-task code as every campaign task
    (:func:`repro.exec.worker.run_task`), in this process and without a
    fault plan: a build or solver crash becomes a structured
    ``error:crash`` record.
    """
    task = TaskSpec(
        task_id=task_id_for(problem, solver_name),
        solver=solver_name,
        timeout=timeout,
        expected_status=problem.expected_status,
        problem=problem,
    )
    record, _ = run_task(
        task,
        ExecPolicy(),
        ReproFaultPlan(),
        isolated=False,
        engine_pool=engine_pool,
    )
    return _record_from_exec(problem, solver_name, record)


def run_campaign(
    suites: Sequence[Suite],
    *,
    solvers: Optional[Sequence[str]] = None,
    timeout: float = 1.0,
    progress: Optional[Callable[[str], None]] = None,
    problem_filter: Optional[Callable[[Problem], bool]] = None,
    share_engines: bool = False,
    engine_pool: Optional[EnginePool] = None,
    isolate: bool = False,
    journal_path: Optional[str] = None,
    resume: bool = False,
    policy: Optional[ExecPolicy] = None,
    engine_cache_dir: Optional[str] = None,
) -> Campaign:
    """Run the full (suite x solver) product through
    :func:`repro.exec.supervisor.execute_tasks`.

    ``share_engines`` switches on campaign batch mode: one
    :class:`~repro.mace.pool.EnginePool` spans the whole run (pass
    ``engine_pool`` to supply your own), problems are scheduled in
    :func:`batch_order` so signature-compatible systems run
    back-to-back, and the pool's cross-problem reuse counters land in
    ``Campaign.pool_stats``.  Verdicts are unaffected — the pool only
    changes which solver state the model finder starts from.
    ``engine_cache_dir`` additionally persists engines to a disk warm
    cache, so a later campaign over the same benchmark families starts
    from this one's solver state (flushed when the run completes).

    Execution follows ``policy`` (an :class:`~repro.exec.ExecPolicy`,
    default in-process; it is copied, never modified) with ``isolate``
    switching on worker subprocesses: a hard watchdog and memory cap,
    retry with backoff for transient failures, and — with
    ``journal_path``/``resume`` — a flushed JSONL journal with
    checkpoint/resume.  SIGINT/SIGTERM return the partial campaign
    (``Campaign.interrupted``).  In isolated + ``share_engines`` mode
    each signature-compatible batch rides one worker with a private
    engine pool — the in-process sharing, preserved per worker.
    ``progress`` receives one ``<suite>/<problem>/<solver>: <status>
    (<seconds>s)`` line per verdict.
    """
    solvers = list(solvers or SOLVER_ORDER)
    base = policy or ExecPolicy()
    policy = dataclasses.replace(
        base,
        isolate=base.isolate or isolate,
        share_engines=base.share_engines
        or share_engines
        or engine_pool is not None,
    )
    if engine_cache_dir:
        # ship the warm-cache location through the solver options
        # (RInGenConfig.engine_cache_dir); the journal's config
        # fingerprint deliberately ignores this key
        policy.solver_opts = {
            "engine_cache_dir": engine_cache_dir,
            **(policy.solver_opts or {}),
        }
    tasks: list[TaskSpec] = []
    task_problems: dict[str, tuple[Problem, str]] = {}
    for suite in suites:
        problems = [
            p
            for p in suite
            if problem_filter is None or problem_filter(p)
        ]
        if policy.share_engines:
            problems = batch_order(problems)
        for problem in problems:
            group_key = None
            if policy.share_engines and policy.isolate:
                group_key = _signature_key(
                    problem.build, f"{problem.suite}/{problem.name}"
                )
            for solver_name in solvers:
                tid = task_id_for(problem, solver_name)
                tasks.append(
                    TaskSpec(
                        task_id=tid,
                        solver=solver_name,
                        timeout=timeout,
                        expected_status=problem.expected_status,
                        problem=problem,
                        index=len(tasks),
                        # only ringen rides the engine pool; batching
                        # the baselines by signature would be pointless
                        group_key=(
                            group_key if solver_name == "ringen" else None
                        ),
                    )
                )
                task_problems[tid] = (problem, solver_name)
    tracer = obs_runtime.TRACER
    span_cm = (
        tracer.span(
            "campaign",
            {
                "suites": len(suites),
                "solvers": solvers,
                "isolate": policy.isolate,
            },
        )
        if tracer is not None
        else contextlib.nullcontext()
    )
    with span_cm:
        records, stats = execute_tasks(
            tasks,
            policy,
            journal_path=journal_path,
            resume=resume,
            progress=progress,
            engine_pool=engine_pool,
        )
    campaign = Campaign(
        timeout=timeout,
        pool_stats=stats.pool_stats,
        exec_stats=stats.as_dict(),
        interrupted=stats.interrupted,
    )
    for task in tasks:
        rec = records.get(task.task_id)
        if rec is None:
            continue  # interrupted before this task ran
        problem, solver_name = task_problems[task.task_id]
        campaign.add(_record_from_exec(problem, solver_name, rec))
    campaign.obs = publish_campaign_metrics(records.values(), stats)
    return campaign


def task_id_for(problem: Problem, solver_name: str) -> str:
    """The stable journal/task key of one (problem, solver) pair."""
    return f"{problem.suite}/{problem.name}/{solver_name}"


def publish_campaign_metrics(
    records: Iterable[dict], stats: ExecStats
) -> Optional[dict]:
    """Fold a finished campaign into the metrics registry and return
    the merged snapshot (``None`` when metrics are off).

    ``records`` are :func:`~repro.exec.supervisor.execute_tasks`
    verdict dicts.  Per record: the ``task.elapsed`` timing histogram,
    status and error tallies, and the model finder's stats dict.
    Campaign-level: the pool counters (``pool.engines_live`` is a
    gauge) and the execution-layer counters.  The ``phase.*`` and
    ``sat.*`` counters were already published at solve time by the
    instrumented layers themselves.
    """
    metrics = obs_runtime.METRICS
    if metrics is None:
        return None
    for rec in records:
        metrics.timing("task.elapsed", float(rec.get("elapsed") or 0.0))
        metrics.inc(f"task.status.{rec.get('status') or 'unknown'}")
        if rec.get("error_kind"):
            metrics.inc(f"task.error.{rec['error_kind']}")
        finder = (rec.get("details") or {}).get("finder")
        if isinstance(finder, dict):
            metrics.publish("finder", finder)
    if stats.pool_stats:
        pool = dict(stats.pool_stats)
        live = pool.pop("engines_live", None)
        metrics.publish("pool", pool)
        if live is not None:
            metrics.gauge("pool.engines_live", live)
    metrics.publish(
        "exec",
        {
            k: v
            for k, v in stats.as_dict().items()
            # pool counters go in under their own prefix above; the
            # last heartbeat is a point sample, not a counter
            if k not in ("pool_stats", "last_heartbeat")
        },
    )
    return metrics.snapshot()


def _record_from_exec(problem: Problem, solver_name: str, rec: dict) -> RunRecord:
    """Rehydrate a supervisor verdict dict into a :class:`RunRecord`."""
    return RunRecord(
        problem,
        solver_name,
        Status(rec.get("status", "unknown")),
        float(rec.get("elapsed") or 0.0),
        bool(rec.get("correct", True)),
        rec.get("model_size"),
        rec.get("reason") or "",
        dict(rec.get("details") or {}),
        error_kind=rec.get("error_kind"),
        attempts=int(rec.get("attempts") or 1),
        traceback=rec.get("traceback") or "",
    )
