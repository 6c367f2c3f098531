"""Per-task execution: the one code path every campaign task runs.

:func:`run_task` is the only per-task code in the system — the task's
obs registration, span and profile, the fault plan, the build, solver
construction + solve (the solver built by
:func:`repro.harness.runner.make_solver`, the one solver factory) and
crash capture: a solver exception (or recursion blowout) becomes
``error:crash`` with its traceback, a MemoryError under the
address-space cap ``error:oom``, and in-process transient faults are
retried with backoff.  In-process campaigns and ``run_problem`` call it
with ``isolated=False``; worker subprocesses call it with
``isolated=True`` for every task of their batch, so isolated and
in-process campaigns produce identical verdicts by construction
(``benchmarks/bench_exec.py`` gates this).  :func:`verdict_record` is
the one record shape every verdict — solver answer or failure — takes.

The worker side of the supervised execution layer: :func:`worker_entry`
receives one batch of text-only
:class:`~repro.exec.supervisor.TaskSpec` (usually a single task; with
campaign engine-sharing on, a whole signature-compatible group) over a
pipe and streams one result message back per task, so the supervisor
can apply its hard wall-clock watchdog *per task* and keep every
already-finished verdict when the worker later dies.  Hangs and hard
kills are the supervisor's business (a hung worker never writes, so
the watchdog classifies it).  :func:`shard_entry`, the
vector-granularity sibling serving the parallel sweep, shares the
subprocess prologue.  Workers are daemonic and may not have children,
so RInGen runs the sequential size sweep on the worker's pooled engine
even with ``sweep_shards`` > 1 — the same verdicts, by the parallel
sweep's parity contract.
"""

from __future__ import annotations

import gc
import signal
import threading
import time
import traceback
from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.exec.faults import (
    CooperativeHang,
    ReproFaultPlan,
    TransientWorkerFault,
)
from repro.obs import runtime as obs_runtime
from repro.obs.events import heartbeat_event
from repro.obs.profiler import maybe_profile, profile_path

if TYPE_CHECKING:
    from repro.exec.supervisor import ExecPolicy, TaskSpec

#: message sent after the last task so the supervisor can tell a clean
#: finish from a death right after the final result
DONE = "done"


def jsonable(value: Any, depth: int = 6) -> Any:
    """Strip a result-details structure down to JSON-serializable data.

    Solver details can carry rich objects (invariants, derivations);
    only plain data survives the pipe and the journal.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if depth <= 0:
        return str(value)
    if isinstance(value, dict):
        return {
            str(k): jsonable(v, depth - 1)
            for k, v in value.items()
            if isinstance(v, (str, int, float, bool, dict, list, tuple))
            or v is None
        }
    if isinstance(value, (list, tuple)):
        return [jsonable(v, depth - 1) for v in value]
    return str(value)


def engine_pool_for(solver_opts: Optional[dict]):
    """The campaign :class:`~repro.mace.pool.EnginePool` matching the
    RInGen knobs in ``solver_opts`` (symmetry breaking, SAT backend,
    disk warm cache) — one construction for workers and the in-process
    supervisor alike.  Every field RInGen's pool-compatibility check
    compares must be passed through, or each problem silently runs
    unshared."""
    from repro.mace.pool import EnginePool

    opts = solver_opts or {}
    return EnginePool(
        symmetry_breaking=opts.get("symmetry_breaking", True),
        sat_backend=opts.get("sat_backend", "python"),
        cache_dir=opts.get("engine_cache_dir"),
    )


def verdict_record(
    reason: str,
    *,
    status: str = "unknown",
    elapsed: float = 0.0,
    correct: bool = True,
    model_size: Optional[int] = None,
    error_kind: Optional[str] = None,
    exception_type: Optional[str] = None,
    traceback_text: str = "",
    transient: bool = False,
    details: Optional[dict] = None,
) -> dict:
    """The one plain-dict verdict record (pipe, journal and harness form).

    The defaults describe an honest non-answer: ``unknown`` and scored
    correct — an execution failure is never a wrong answer.
    """
    return {
        "status": status,
        "elapsed": elapsed,
        "correct": correct,
        "model_size": model_size,
        "reason": reason,
        "error_kind": error_kind,
        "exception_type": exception_type,
        "traceback": traceback_text,
        "transient": transient,
        "details": {} if details is None else details,
    }


def _error_record(
    error: BaseException, elapsed: float, *, transient: bool = False
) -> dict:
    """``error:crash`` (``error:oom`` for a MemoryError) for an in-task
    exception, with its type and traceback."""
    kind = "oom" if isinstance(error, MemoryError) else "crash"
    name = type(error).__name__
    return verdict_record(
        f"error:{kind}: {name}: {error}",
        elapsed=elapsed,
        error_kind=kind,
        exception_type=name,
        traceback_text="".join(
            traceback.format_exception(
                type(error), error, error.__traceback__, limit=20
            )
        ),
        transient=transient,
        details={"exception_type": name},
    )


def _result_record(
    result, elapsed: float, expected_status: Optional[str]
) -> dict:
    """The verdict record of a solver answer, scored against the
    expected status (an unknown is never wrong)."""
    status = result.status.value
    return verdict_record(
        result.reason,
        status=status,
        elapsed=elapsed,
        correct=(
            status == "unknown"
            or expected_status is None
            or status == expected_status
        ),
        model_size=(
            result.details.get("model_size") if status == "sat" else None
        ),
        details=jsonable(dict(result.details)),
    )


def run_task(
    task: "TaskSpec",
    policy: "ExecPolicy",
    plan: ReproFaultPlan,
    *,
    isolated: bool,
    attempt: int = 1,
    engine_pool=None,
) -> tuple[dict, int]:
    """Run one task in this process; ``(verdict record, attempts)``.

    The only per-task code: the task's obs registration, span and
    profile, the fault plan (``isolated`` selects the worker-side form
    of each fault), the build, and solver construction + solve — with
    the solver from :func:`repro.harness.runner.make_solver` — all under
    one crash capture.  Exceptions never escape: a build or solver
    exception becomes ``error:crash``, a MemoryError ``error:oom``, the
    in-process hang surrogate the cooperative timeout verdict, and
    transient faults are retried with backoff up to
    ``policy.max_retries``, counting on from ``attempt``.  The record's
    ``elapsed`` times solver construction + solve only.
    """
    from repro.harness.runner import make_solver

    obs_runtime.task_started(task.task_id)
    tracer = obs_runtime.TRACER
    span = (
        tracer.begin("task", {"task": task.task_id})
        if tracer is not None
        else None
    )
    prof = (
        profile_path(policy.profile_dir, task.task_id)
        if policy.profile_dir
        else None
    )
    record: Optional[dict] = None
    try:
        while True:
            start = time.monotonic()
            try:
                with maybe_profile(prof):
                    plan.fire(
                        task.task_id,
                        task.index,
                        attempt,
                        isolated=isolated,
                        timeout=task.timeout,
                        mem_limit_mb=policy.mem_limit_mb,
                    )
                    system = task.build_system()
                    # elapsed times solver construction + solve only
                    start = time.monotonic()
                    solver = make_solver(
                        task.solver,
                        task.timeout,
                        engine_pool=engine_pool,
                        solver_opts=policy.solver_opts,
                    )
                    result = solver.solve(system)
                    elapsed = time.monotonic() - start
                    record = _result_record(
                        result, elapsed, task.expected_status
                    )
            except TransientWorkerFault as error:
                if attempt <= policy.max_retries:
                    attempt += 1
                    time.sleep(policy.backoff(task.task_id, attempt))
                    continue
                record = _error_record(
                    error, time.monotonic() - start, transient=True
                )
            except CooperativeHang as error:
                # the in-process analogue of a hang: the cooperative
                # budget ran out
                record = verdict_record(
                    "unknown: wall-clock timeout (cooperative)",
                    elapsed=time.monotonic() - start,
                    exception_type=type(error).__name__,
                    details={"verdict_kind": "budget", "timeout_hit": True},
                )
            except MemoryError as error:
                # free the hoard before building the response under a
                # tight cap
                gc.collect()
                record = _error_record(error, time.monotonic() - start)
            except Exception as error:
                record = _error_record(error, time.monotonic() - start)
            return record, attempt
    finally:
        if span is not None:
            span.args["status"] = (
                record.get("status") if record is not None else None
            )
            tracer.end(span)
        obs_runtime.task_finished()


def _apply_mem_limit(mem_limit_mb: Optional[int]) -> None:
    """Cap the worker's address space so runaway allocation raises
    MemoryError in-process (a structured ``error:oom``) instead of
    taking the machine to the kernel OOM killer."""
    if mem_limit_mb is None:
        return
    try:
        import resource
    except ImportError:  # non-POSIX: the watchdog is the only backstop
        return
    limit = mem_limit_mb << 20
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        new_hard = hard if hard != resource.RLIM_INFINITY else limit
        resource.setrlimit(
            resource.RLIMIT_AS, (min(limit, new_hard), new_hard)
        )
    except (ValueError, OSError):
        pass  # tighter than the hard cap we inherited: keep the cap


def collector_flags() -> dict:
    """Which obs collectors this process runs — the ``obs`` entry of a
    subprocess payload, mirrored by :func:`_subprocess_prologue`."""
    return {
        "trace": obs_runtime.TRACER is not None,
        "metrics": obs_runtime.METRICS is not None,
    }


def _subprocess_prologue(payload: dict) -> None:
    """Shared start of every worker and shard subprocess."""
    # the supervisor owns interrupt handling; a Ctrl-C aimed at the
    # campaign must not corrupt a subprocess mid-message
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # the fork inherited the parent's collectors — including an open
    # file handle the parent still writes — so drop them all before
    # configuring this process's own
    obs_runtime.forget()
    obs_cfg = payload.get("obs") or {}
    obs_runtime.configure(
        trace=bool(obs_cfg.get("trace")),
        metrics=bool(obs_cfg.get("metrics")),
    )


def worker_entry(conn, payload: dict) -> None:
    """Subprocess main: solve the batch, streaming one message per task.

    ``payload``::

        {"tasks": [(TaskSpec, attempt), ...],   # text-only specs
         "policy": ExecPolicy,                  # fault plan resolved
         "engine_snapshot": dict | None, "engine_snapshot_seq": int,
         "obs": collector_flags()}

    Every task runs through :func:`run_task` (``isolated=True``).  With
    ``policy.share_engines`` a batch of several tasks — or a lone
    rescheduled survivor with an ``engine_snapshot`` to warm-start from
    — rides one private pool; each verdict message then carries the
    pool's current snapshot back so the supervisor can reschedule the
    batch remainder warm after a worker death.

    ``obs`` turns the worker's own collectors on: an in-memory tracer
    whose finished spans ship back inside each verdict
    (``record["obs_spans"]``) and a metrics registry whose snapshot
    rides the done message (``obs_metrics``).  The policy's
    ``heartbeat_interval`` > 0 starts a thread streaming live-progress
    samples over the verdict pipe, and its ``profile_dir`` gets one
    cProfile dump per task.
    """
    _subprocess_prologue(payload)
    policy = payload["policy"]
    _apply_mem_limit(policy.mem_limit_mb)
    heartbeat = policy.heartbeat_interval
    # every pipe write (verdicts, done, heartbeats from the sampler
    # thread) holds this lock: multiprocessing.Connection sends are not
    # atomic across threads
    send_lock = threading.Lock()
    stop_heartbeat = threading.Event()
    beater: Optional[threading.Thread] = None
    if heartbeat > 0:

        def _beat() -> None:
            previous: Optional[dict] = None
            while not stop_heartbeat.wait(heartbeat):
                sample = obs_runtime.live_sample()
                if sample.get("task") is None:
                    previous = None
                    continue
                event = heartbeat_event(sample, previous)
                previous = sample
                try:
                    with send_lock:
                        conn.send(event)
                except (OSError, ValueError):
                    return  # pipe gone: the supervisor is tearing down

        beater = threading.Thread(
            target=_beat, name="repro-worker-heartbeat", daemon=True
        )
        beater.start()
    plan = policy.plan()
    tasks = payload["tasks"]
    warm = payload.get("engine_snapshot")
    # per-worker monotonic snapshot sequence, seeded from the stamp of
    # the snapshot this worker warm-started from: every snapshot this
    # worker ships outranks its seed, so the supervisor's newest-wins
    # store orders concurrent workers sharing one fingerprint by
    # progress instead of by message arrival
    snap_seq = int(payload.get("engine_snapshot_seq") or 0)
    pool = None
    if policy.share_engines and (len(tasks) > 1 or warm is not None):
        pool = engine_pool_for(policy.solver_opts)
        if warm is not None:
            # warm start: a predecessor's engine state for this batch's
            # signature (adoption failure silently falls back cold)
            pool.adopt_snapshot(warm)
    tracer = obs_runtime.TRACER
    try:
        for task, attempt in tasks:
            record, _ = run_task(
                task,
                policy,
                plan,
                isolated=True,
                attempt=attempt,
                engine_pool=pool,
            )
            if tracer is not None:
                # finished spans ride each verdict so the supervisor's
                # file-backed tracer absorbs them as they happen, not
                # only if the worker survives to the done message
                record["obs_spans"] = tracer.drain()
            if pool is not None:
                # ship the engine state with every verdict: whatever
                # the worker last managed to send seeds a warm restart
                # of the batch remainder if this process dies next
                snap = pool.last_snapshot()
                if snap is not None:
                    snap_seq += 1
                    record["engine_snapshot"] = snap
                    record["engine_snapshot_seq"] = snap_seq
            with send_lock:
                conn.send(record)
        done: dict = {DONE: True}
        if pool is not None:
            pool.flush_cache()
            # pool counters ride pool_stats and are published once at
            # campaign level; publishing them into this registry too
            # would double-count after the supervisor's merge
            done["pool_stats"] = pool.as_dict()
        if obs_runtime.METRICS is not None:
            done["obs_metrics"] = obs_runtime.METRICS.snapshot()
        # the heartbeat thread must not race a close()d pipe
        stop_heartbeat.set()
        if beater is not None:
            beater.join(timeout=2.0)
        with send_lock:
            conn.send(done)
    finally:
        stop_heartbeat.set()
        conn.close()


def shard_entry(conn, payload: dict) -> None:
    """Subprocess main of one parallel-sweep engine shard.

    The vector-granularity sibling of :func:`worker_entry`, serving the
    :class:`repro.mace.parallel.SweepScheduler`.  Down the pipe come
    ``{"kind": "vector", "seq", "sizes", "attempt", "deadline"}``
    dispatches, ``{"kind": "core", "bounds"}`` broadcasts from sibling
    shards, and ``{"kind": "stop"}``; every vector is answered with a
    result dict (verdict, fresh core bounds, cumulative
    ``FinderStats``, drained obs spans) and ``stop`` with a done
    message carrying the shard's metrics snapshot.  An exception dies
    *without* a done message so the scheduler's EOF path respawns the
    shard — the vector-level analogue of a result-less worker death.
    """
    _subprocess_prologue(payload)
    from repro.mace.parallel import _ShardRunner

    tracer = obs_runtime.TRACER
    span = (
        tracer.begin("shard", {"shard": payload.get("shard")})
        if tracer is not None
        else None
    )
    crashed = False
    try:
        runner = _ShardRunner(payload)
        obs_runtime.watch_finder_stats(runner.stats)
        # Vectors buffer locally so core broadcasts arriving *behind*
        # queued dispatches are adopted before those vectors start —
        # processing the pipe strictly in order would let a shard grind
        # through its whole queue while a sibling's refutation core that
        # prunes it sits unread one message later.
        pending: deque = deque()
        stopped = False
        while not stopped or pending:
            while not stopped and (not pending or conn.poll(0)):
                msg = conn.recv()
                kind = msg.get("kind")
                if kind == "vector":
                    pending.append(msg)
                elif kind == "core":
                    runner.adopt_bounds(msg.get("bounds") or ())
                elif kind == "stop":
                    # outstanding speculation is cancelled, not drained
                    pending.clear()
                    stopped = True
            if pending:
                msg = pending.popleft()
                result = runner.solve_vector(
                    msg["seq"],
                    tuple(msg["sizes"]),
                    msg.get("attempt", 1),
                    msg.get("deadline"),
                )
                if tracer is not None:
                    # close the current shard-span segment so this
                    # result ships a parent for its vector span — a
                    # single whole-life shard span would leave every
                    # already-shipped vector dangling when a SAT
                    # commit kills the shard before its done message
                    tracer.end(span)
                    result["obs_spans"] = tracer.drain()
                    span = tracer.begin(
                        "shard", {"shard": payload.get("shard")}
                    )
                conn.send(result)
    except EOFError:
        pass  # scheduler went away (speculation cancelled): just exit
    except Exception:
        crashed = True  # die result-less; the scheduler respawns us
    finally:
        if not crashed:
            done: dict = {"kind": "done"}
            if span is not None:
                tracer.end(span)
                done["obs_spans"] = tracer.drain()
            if obs_runtime.METRICS is not None:
                done["obs_metrics"] = obs_runtime.METRICS.snapshot()
            try:
                conn.send(done)
            except (OSError, ValueError):
                pass
        conn.close()
