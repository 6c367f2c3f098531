"""Ground-truth oracle: judge a verdict against what the generator knows
about a request, never against the solver under test.

A verdict is *wrong* when it contradicts the ground truth: SAT on an
unsat system, UNSAT on a sat system, or any SAT answer on a system with
no regular invariant (RInGen's SAT answers are regular invariants, so
such an answer cannot be right).  Wrong verdicts fail the run.  Every
other verdict is *solved* when it is the request's expected definitive
answer and *unsolved* otherwise (a limit hit, a crash, an incomplete
sweep).
"""

from __future__ import annotations

from dataclasses import dataclass

SOLVED = "solved"
UNSOLVED = "unsolved"
WRONG = "wrong"

#: the expected answer of a refutation request: an UNKNOWN verdict whose
#: size sweep completed, i.e. "no finite model of total size <= N"
NO_MODEL = "no-model"


@dataclass(frozen=True)
class Truth:
    """What is known about one request before it is sent.

    ``status`` is the system's ground-truth status (``"sat"`` or
    ``"unsat"``), ``regular`` whether a regular invariant exists, and
    ``expected`` the definitive verdict that counts as solved:
    ``"sat"``, ``"unsat"`` or :data:`NO_MODEL`.
    """

    status: str
    regular: bool
    expected: str


def truth_of_problem(problem) -> Truth:
    """Ground truth of a :class:`repro.benchgen.suite.Problem`."""
    return Truth(
        status=problem.expected_status,
        regular="Reg" in problem.expected_classes,
        expected=problem.expected_status,
    )


def truth_of_stlc(problem, *, refute: bool = False) -> Truth:
    """Ground truth of a :class:`repro.stlc.problems.StlcProblem`.

    ``expected`` ``"sat"`` (non-tautologies: uninhabited, regular
    invariant) and ``"divergent"`` (classical-only: uninhabited, no
    regular invariant) are sat systems; ``"unsat"`` goals are inhabited.
    ``refute`` makes the expected answer "no model ≤ N".
    """
    status = "unsat" if problem.expected == "unsat" else "sat"
    regular = problem.category == "non-tautology"
    return Truth(status, regular, NO_MODEL if refute else status)


def judge(truth: Truth, status: str, complete: bool = False) -> str:
    """Classify a verdict (``status`` is ``"sat"``/``"unsat"``/
    ``"unknown"``; ``complete`` is the solver's claim that an unknown
    verdict means its size sweep refuted every vector)."""
    if status == "sat" and (truth.status != "sat" or not truth.regular):
        return WRONG
    if status == "unsat" and truth.status != "unsat":
        return WRONG
    if truth.expected == NO_MODEL:
        return SOLVED if status == "unknown" and complete else UNSOLVED
    return SOLVED if status == truth.expected else UNSOLVED
