"""The engine↔solver boundary: the :class:`SatBackend` protocol.

The finite model finder (:mod:`repro.mace.finder`), the campaign engine
pool (:mod:`repro.mace.pool`) and the selector machinery
(:mod:`repro.sat.cnf`) drive a SAT solver through exactly the
incremental contract captured here — variable/clause growth between
solve calls, assumption-based solving with per-call conflict and
wall-clock budgets, tri-state answers, failed-assumption cores with
deletion-based minimization, level-0 queries, and database hygiene
(``simplify`` / ``reduce_learned``).  Everything above the SAT layer
depends only on this protocol, never on a concrete solver class, so
engines can be swapped per :class:`~repro.core.ringen.RInGenConfig`:

* ``"python"`` — the in-repo pure-Python :class:`~repro.sat.solver.
  CDCLSolver` (always available; the reference semantics),
* ``"pysat"`` — the optional :class:`~repro.sat.pysat_backend.
  PySATBackend` adapter over `python-sat`'s Glucose (MiniSat lineage;
  a speed-ceiling measurement for the pure-Python hot path).

The protocol is *structural* (:class:`typing.Protocol`): a backend
neither imports nor inherits anything from here — it just implements
the methods.  :func:`make_backend` is the one place backend names are
resolved; unavailable optional backends fail with a clean
:class:`BackendUnavailableError` instead of an ImportError traceback.

Contract fine print (what the model finder actually relies on):

* ``solve`` returns ``True`` / ``False`` / ``None`` (budget or deadline
  exhausted — indeterminate, never to be read as unsat);
* after ``False``, ``core()`` returns a subset of that call's
  assumptions whose conjunction with the database is unsat, and
  ``minimize_core()`` shrinks it further by bounded re-solving;
* after ``True``, ``model()`` returns the assignment and must refuse
  (raise) in any other state rather than serve stale values;
* ``fixed(lit)`` reports literals entailed by the database alone
  (level 0); backends that cannot answer may return ``None``
  (the finder only loses an early-exit, never soundness);
* ``simplify`` / ``reduce_learned`` are hints: a backend managing its
  own database (an external solver) may treat them as no-ops;
* ``stats`` exposes the shared :class:`~repro.sat.solver.SatStats`
  counter block; ``clauses_added`` and ``solve_calls`` must be exact
  (the incremental engine's reuse accounting is built on them), the
  search counters may be best-effort.
"""

from __future__ import annotations

from typing import (
    Iterable,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.sat.solver import SatStats


class BackendUnavailableError(RuntimeError):
    """A requested SAT backend's optional dependency is not installed.

    Raised by :func:`make_backend` (and by the optional backends'
    constructors) with an actionable message; callers that offer
    backend selection (the CLI, the harness) surface the message
    instead of an ImportError traceback.
    """


@runtime_checkable
class SatBackend(Protocol):
    """Structural interface every SAT engine plugged under the model
    finder must satisfy.  See the module docstring for the contract."""

    num_vars: int
    stats: SatStats

    def new_var(self) -> int:
        ...

    def new_vars(self, count: int) -> list[int]:
        ...

    def add_clause(self, literals: Iterable[int]) -> bool:
        ...

    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        max_conflicts: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Optional[bool]:
        ...

    def core(self) -> list[int]:
        ...

    def minimize_core(
        self,
        *,
        max_conflicts_per_probe: int = 1_000,
        deadline: Optional[float] = None,
        candidates: Optional[Sequence[int]] = None,
    ) -> list[int]:
        ...

    def model(self) -> dict[int, bool]:
        ...

    def fixed(self, lit: int) -> Optional[bool]:
        ...

    def simplify(self) -> int:
        ...

    def reduce_learned(self, keep: int) -> int:
        ...

    def clause_count(self) -> int:
        ...

    def learned_count(self) -> int:
        ...

    # snapshot capability (optional in spirit: every backend answers
    # supports_snapshot(), and snapshot() may be degraded — the PySAT
    # adapter round-trips only its clause database, dropping the C
    # solver's warm metadata; see restore_backend for the inverse)
    def supports_snapshot(self) -> bool:
        ...

    def snapshot(self) -> dict:
        ...


#: the backends :func:`make_backend` resolves, in presentation order;
#: ``"python"`` is the always-available fallback
BACKEND_NAMES = ("python", "pysat")


def backend_available(name: str) -> bool:
    """Whether ``name`` can actually be constructed in this process."""
    if name == "python":
        return True
    if name == "pysat":
        from repro.sat.pysat_backend import pysat_available

        return pysat_available()
    return False


def available_backends() -> list[str]:
    """The constructible backend names, pure Python always first."""
    return [name for name in BACKEND_NAMES if backend_available(name)]


def make_backend(name: str) -> SatBackend:
    """Construct the named backend.

    Raises :class:`BackendUnavailableError` for a known backend whose
    dependency is missing and :class:`ValueError` for an unknown name.
    """
    if name == "python":
        from repro.sat.solver import CDCLSolver

        return CDCLSolver()
    if name == "pysat":
        from repro.sat.pysat_backend import PySATBackend

        return PySATBackend()
    raise ValueError(
        f"unknown SAT backend {name!r} (known: {', '.join(BACKEND_NAMES)})"
    )


def restore_backend(snap: dict) -> SatBackend:
    """Rebuild a backend from a ``snapshot()`` dict, by ``backend`` name.

    The inverse of the protocol's snapshot capability: dispatches on the
    snapshot's own ``backend`` field (each backend validates its
    ``schema``/``version`` header itself).  Restoring a ``"pysat"``
    snapshot without `python-sat` installed raises
    :class:`BackendUnavailableError`; an unknown backend name raises
    :class:`ValueError` — callers holding possibly-foreign snapshots
    (the disk warm cache) treat any exception as "fall back cold".
    """
    if not isinstance(snap, dict):
        raise ValueError("not a solver snapshot")
    name = snap.get("backend")
    if name == "python":
        from repro.sat.solver import CDCLSolver

        return CDCLSolver.restore(snap)
    if name == "pysat":
        from repro.sat.pysat_backend import PySATBackend

        return PySATBackend.restore(snap)
    raise ValueError(
        f"unknown SAT backend {name!r} in snapshot "
        f"(known: {', '.join(BACKEND_NAMES)})"
    )
