"""Optional external SAT backend: `python-sat` (PySAT) / Glucose.

:class:`PySATBackend` adapts a PySAT solver — Glucose 3 by default,
the Eén–Sörensson MiniSat lineage with Audemard–Simon's LBD discipline
built in — to the :class:`~repro.sat.backend.SatBackend` protocol the
model finder drives.  The mapping is mostly direct because the
protocol *is* the MiniSat incremental contract:

* assumption solving → ``solve(assumptions=...)`` /
  ``solve_limited``; failed-assumption cores → ``get_core()``;
* level-0 queries (:meth:`fixed`) → ``propagate()`` with no
  assumptions, memoized until the database or trail can change;
* deletion-based core minimization → the same bounded re-solve loop
  the pure-Python solver uses, expressed through the protocol.

Budget and deadline emulation (the one genuinely lossy spot): the
external solver runs inside a C library and cannot poll our
cooperative wall-clock deadline the way
:meth:`repro.sat.solver.CDCLSolver._propagate` does.  Per-call
conflict budgets map exactly onto PySAT's ``conf_budget`` +
``solve_limited``.  Deadlines are emulated with a watcher
:class:`threading.Timer` that fires ``interrupt()`` when the wall
clock expires; Glucose checks its asynchronous-interrupt flag inside
the search loop, so overshoot is bounded by the solver's own check
granularity rather than by ours — a budget-exhausted call returns
``None`` exactly like the pure-Python engine, but the *moment* it
gives up is the library's choice, not a 1024-propagation poll.

Learned-clause hygiene (:meth:`simplify`, :meth:`reduce_learned`) is
intentionally a no-op: Glucose manages its own clause database with
the very LBD policy our pure-Python GC imitates, and second-guessing
it through the narrow PySAT surface would only hurt.  The methods
exist so incremental callers can issue their hints uniformly.

The import of ``pysat`` is guarded: constructing the backend without
`python-sat` installed raises
:class:`~repro.sat.backend.BackendUnavailableError` with an
actionable message, and :func:`pysat_available` answers the probe the
CLI and test suite use.  Nothing in this module executes at import
time that needs the dependency.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Optional, Sequence

from repro.sat.backend import BackendUnavailableError
from repro.sat.solver import SNAPSHOT_VERSION, SatError, SatStats

#: PySAT solver name the adapter instantiates.  Glucose 3 is the
#: default for its incremental-assumptions maturity; any PySAT name
#: with assumption, core and propagate support works.
DEFAULT_PYSAT_SOLVER = "glucose3"

_INSTALL_HINT = (
    "SAT backend 'pysat' needs the optional dependency python-sat "
    "(pip install python-sat); the pure-Python backend "
    "(--backend python) is always available"
)


def pysat_available() -> bool:
    """Whether `python-sat` is importable in this interpreter."""
    try:
        import pysat.solvers  # noqa: F401
    except Exception:
        return False
    return True


class PySATBackend:
    """`python-sat` adapter satisfying the :class:`SatBackend` protocol.

    Glucose applies its own LBD retention natively, the discipline the
    pure-Python solver's ``reduce_learned`` follows too.
    """

    def __init__(
        self,
        num_vars: int = 0,
        *,
        solver_name: str = DEFAULT_PYSAT_SOLVER,
    ):
        try:
            from pysat.solvers import Solver
        except Exception as error:
            raise BackendUnavailableError(
                f"{_INSTALL_HINT} (import failed: {error})"
            ) from error
        self.solver_name = solver_name
        self._solver = Solver(name=solver_name)
        self.num_vars = 0
        self.stats = SatStats()
        self._ok = True
        self._core: Optional[list[int]] = None
        self._model: Optional[dict[int, bool]] = None
        # level-0 entailed literals, memoized between database changes
        self._fixed_cache: Optional[set[int]] = None
        # variables the underlying solver has seen in a clause; an
        # assumption over a clause-free variable is materialized with a
        # tautology first so the C solver's variable table covers it
        self._materialized: set[int] = set()
        # every accepted non-tautology clause, in insertion order —
        # the C solver's database cannot be read back, so snapshots
        # replay this record (degraded restore: Glucose's learned
        # clauses and heuristic state are dropped)
        self._clauses: list[list[int]] = []
        if num_vars:
            self.new_vars(num_vars)

    # -- variable / clause management ----------------------------------
    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> list[int]:
        return [self.new_var() for _ in range(count)]

    def _check_clause(self, literals: Iterable[int]) -> tuple[list[int], bool]:
        """Validate and dedup; mirrors the pure-Python input contract."""
        seen: set[int] = set()
        clause: list[int] = []
        tautology = False
        for lit in literals:
            if lit == 0:
                raise SatError("literal 0 is not allowed")
            if abs(lit) > self.num_vars:
                raise SatError(f"unknown variable {abs(lit)}")
            if -lit in seen:
                tautology = True
            if lit in seen:
                continue
            seen.add(lit)
            clause.append(lit)
        return clause, tautology

    def add_clause(self, literals: Iterable[int]) -> bool:
        clause, tautology = self._check_clause(literals)
        if not self._ok:
            return False
        self._model = None
        self._fixed_cache = None
        # counted on every accepting path, tautologies included — the
        # incremental engine's encoded/reused ratios rely on this
        # counter meaning the same thing on every backend
        self.stats.clauses_added += 1
        if tautology:
            return True
        if not clause:
            self._ok = False
            return False
        self._materialized.update(abs(l) for l in clause)
        accepted = self._solver.add_clause(clause, no_return=False)
        if accepted is False:
            # the library detected a root-level conflict on insertion
            self._ok = False
            return False
        self._clauses.append(clause)
        return True

    def _materialize_assumptions(self, assumptions: Sequence[int]) -> None:
        """Ensure assumption variables exist inside the C solver.

        A selector allocated but never yet mentioned in a clause is
        unknown to the library; a tautology over it is a sound no-op
        clause that registers the variable.
        """
        for lit in assumptions:
            var = abs(lit)
            if var not in self._materialized:
                self._solver.add_clause([var, -var])
                self._materialized.add(var)

    # -- solving --------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        max_conflicts: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Optional[bool]:
        self.stats.solve_calls += 1
        self._model = None
        self._core = None
        self._fixed_cache = None
        assumptions = list(assumptions)
        for lit in assumptions:
            if lit == 0:
                raise SatError("literal 0 is not allowed")
            if abs(lit) > self.num_vars:
                raise SatError(f"unknown variable {abs(lit)}")
        if not self._ok:
            self._core = []
            self.stats.cores += 1
            return False
        self._materialize_assumptions(assumptions)
        timer: Optional[threading.Timer] = None
        interrupted = threading.Event()
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None

            def _expire() -> None:
                interrupted.set()
                self._solver.interrupt()

            timer = threading.Timer(remaining, _expire)
            timer.daemon = True
            timer.start()
        try:
            if max_conflicts is not None:
                self._solver.conf_budget(max_conflicts)
                outcome = self._solver.solve_limited(
                    assumptions=assumptions,
                    expect_interrupt=deadline is not None,
                )
            elif deadline is not None:
                # no conflict budget: lift it so only the wall clock
                # (the interrupt) can stop the call early
                self._solver.conf_budget(-1)
                outcome = self._solver.solve_limited(
                    assumptions=assumptions, expect_interrupt=True
                )
            else:
                outcome = self._solver.solve(assumptions=assumptions)
        finally:
            if timer is not None:
                timer.cancel()
                if interrupted.is_set():
                    # required before the solver object can be reused
                    self._solver.clear_interrupt()
        self._sync_stats()
        if outcome is True:
            model = self._solver.get_model() or []
            self._model = {abs(l): l > 0 for l in model}
            return True
        if outcome is False:
            core = self._solver.get_core()
            self._core = list(core) if core else []
            self.stats.cores += 1
            return False
        return None  # budget or deadline exhausted: indeterminate

    def _sync_stats(self) -> None:
        """Mirror the library's cumulative search counters."""
        try:
            accum = self._solver.accum_stats()
        except Exception:
            return
        self.stats.conflicts = accum.get("conflicts", self.stats.conflicts)
        self.stats.decisions = accum.get("decisions", self.stats.decisions)
        self.stats.propagations = accum.get(
            "propagations", self.stats.propagations
        )
        self.stats.restarts = accum.get("restarts", self.stats.restarts)

    def core(self) -> list[int]:
        if self._core is None:
            raise SatError(
                "core() is only available after solve() returned False"
            )
        return list(self._core)

    def minimize_core(
        self,
        *,
        max_conflicts_per_probe: int = 1_000,
        deadline: Optional[float] = None,
        candidates: Optional[Sequence[int]] = None,
    ) -> list[int]:
        """Deletion-based minimization through the protocol itself.

        Same bounded re-solve loop as the pure-Python solver's
        :meth:`~repro.sat.solver.CDCLSolver.minimize_core`, including
        the ``candidates`` restriction; only conclusive unsat probes
        shrink the core, so the result is a correct core under any
        budget.
        """
        core = self.core()
        probe_set = (
            None if candidates is None else {l for l in candidates}
        )
        i = 0
        while len(core) > 1 and i < len(core):
            if deadline is not None and time.monotonic() > deadline:
                break
            if probe_set is not None and core[i] not in probe_set:
                i += 1
                continue
            trial = core[:i] + core[i + 1 :]
            self.stats.core_probes += 1
            outcome = self.solve(
                trial,
                max_conflicts=max_conflicts_per_probe,
                deadline=deadline,
            )
            if outcome is False:
                shrunk = set(self._core or ())
                self.stats.core_lits_removed += len(core) - len(shrunk)
                core = [l for l in core if l in shrunk]
            else:
                i += 1
        self._model = None
        self._core = list(core)
        return list(core)

    def model(self) -> dict[int, bool]:
        if self._model is None:
            raise SatError(
                "model() is only available after solve() returned True "
                "(the last call timed out, answered unsat, or the "
                "formula changed since)"
            )
        return dict(self._model)

    def fixed(self, lit: int) -> Optional[bool]:
        """Level-0 entailment via the library's root propagation.

        ``propagate()`` with no assumptions returns every literal the
        database entails at level 0 — the same information the
        pure-Python solver reads off its trail.  The result is
        memoized until the next clause addition or solve call.  If the
        library cannot answer (no propagate support, or the database
        is already unsat), ``None`` is returned: the caller only loses
        an early-exit optimization, never soundness.
        """
        var = abs(lit)
        if var > self.num_vars:
            raise SatError(f"unknown variable {var}")
        if not self._ok:
            return None
        if var not in self._materialized:
            return None  # clause-free variable: nothing can fix it
        if self._fixed_cache is None:
            try:
                st, implied = self._solver.propagate(assumptions=[])
            except Exception:
                return None
            if not st:
                return None
            self._fixed_cache = set(implied)
        if lit in self._fixed_cache:
            return True
        if -lit in self._fixed_cache:
            return False
        return None

    # -- database hygiene (delegated to the library) --------------------
    def simplify(self) -> int:
        """No-op: the external solver simplifies on its own schedule."""
        return 0

    def reduce_learned(self, keep: int) -> int:
        """No-op: Glucose applies its native LBD retention policy."""
        return 0

    def clause_count(self) -> int:
        """Caller-added clauses (internal tautology stubs excluded)."""
        return self.stats.clauses_added

    def learned_count(self) -> int:
        """Not exposed by the library; 0 keeps reports honest-by-default."""
        return 0

    # -- snapshot / restore ---------------------------------------------
    def supports_snapshot(self) -> bool:
        """Snapshots work, but restore is *degraded*: only the clause
        database survives — Glucose's learned clauses, activities and
        phases live inside the C solver and cannot be read back."""
        return True

    def snapshot(self) -> dict:
        """Degraded snapshot: the recorded clause database plus stats.

        Shares the ``schema``/``version`` header with the pure-Python
        solver so :func:`repro.sat.backend.restore_backend` validates
        both uniformly; the ``backend`` field says which restore path
        applies.
        """
        from dataclasses import asdict

        return {
            "schema": "cdcl",
            "version": SNAPSHOT_VERSION,
            "backend": "pysat",
            "num_vars": self.num_vars,
            "ok": self._ok,
            "solver_name": self.solver_name,
            "clauses": [list(c) for c in self._clauses],
            "stats": asdict(self.stats),
        }

    @classmethod
    def restore(cls, snap: dict) -> "PySATBackend":
        """Rebuild by replaying the recorded clauses into a fresh C
        solver; warm metadata (learned clauses, heuristics) is dropped.
        The stats block is restored wholesale so ``clauses_added``
        accounting survives the (degraded) round trip."""
        if not isinstance(snap, dict) or snap.get("schema") != "cdcl":
            raise SatError("not a CDCL solver snapshot")
        if snap.get("version") != SNAPSHOT_VERSION:
            raise SatError(
                f"unsupported solver snapshot version "
                f"{snap.get('version')!r} (expected {SNAPSHOT_VERSION})"
            )
        backend = cls(
            solver_name=snap.get("solver_name", DEFAULT_PYSAT_SOLVER)
        )
        backend.new_vars(int(snap["num_vars"]))
        ok = bool(snap["ok"])
        for lits in snap["clauses"]:
            clause = [int(l) for l in lits]
            backend._materialized.update(abs(l) for l in clause)
            accepted = backend._solver.add_clause(
                clause, no_return=False
            )
            if accepted is False:
                ok = False
                break
            backend._clauses.append(clause)
        backend._ok = ok
        backend.stats = SatStats(**snap["stats"])
        return backend

    def delete(self) -> None:
        """Release the C solver object (PySAT requires explicit delete)."""
        if self._solver is not None:
            self._solver.delete()
            self._solver = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown path
        try:
            self.delete()
        except Exception:
            pass
