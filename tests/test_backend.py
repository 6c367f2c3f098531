"""The SatBackend boundary: protocol conformance, the factory, the
PySAT adapter's availability behavior, and — when `python-sat` is
installed — a differential suite pinning both backends to identical
verdicts, sound cores and sound minimization."""

import pytest

from repro.chc.transform import preprocess
from repro.mace.finder import find_model
from repro.problems import (
    diag_system,
    even_system,
    incdec_system,
    odd_unsat_system,
)
from repro.sat.backend import (
    BACKEND_NAMES,
    BackendUnavailableError,
    SatBackend,
    available_backends,
    backend_available,
    make_backend,
)
from repro.sat.pysat_backend import PySATBackend, pysat_available
from repro.sat.solver import CDCLSolver, SatError


def check_model(clauses, model):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


#: (clauses, num_vars, expected) differential corpus — small formulas
#: exercising units, backtracking, unsat cores and pure literals alike
DIFF_CNFS = [
    ([], 3, True),
    ([[1]], 1, True),
    ([[1], [-1]], 1, False),
    ([[1, 2], [-1, 3], [-2, -3], [-1, -2]], 3, True),
    # pigeonhole 3->2
    (
        [[1, 2], [3, 4], [5, 6], [-1, -3], [-1, -5], [-3, -5],
         [-2, -4], [-2, -6], [-4, -6]],
        6,
        False,
    ),
    ([[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [-1], [-3]], 3, True),
]


class TestProtocol:
    def test_python_backend_satisfies_protocol(self):
        assert isinstance(make_backend("python"), SatBackend)

    def test_cdcl_solver_is_a_backend(self):
        assert isinstance(CDCLSolver(), SatBackend)

    def test_backend_names_and_fallback(self):
        assert BACKEND_NAMES[0] == "python"
        assert backend_available("python")
        assert available_backends()[0] == "python"
        assert not backend_available("no-such-backend")

    def test_unknown_backend_is_value_error(self):
        with pytest.raises(ValueError, match="unknown SAT backend"):
            make_backend("minisat-classic")


class TestAvailability:
    def test_probe_matches_import(self):
        assert pysat_available() == backend_available("pysat")

    def test_unavailable_pysat_raises_cleanly(self):
        if pysat_available():
            pytest.skip("python-sat installed: the failure leg is moot")
        with pytest.raises(BackendUnavailableError, match="python-sat"):
            make_backend("pysat")
        assert "pysat" not in available_backends()

    def test_available_pysat_constructs(self):
        if not pysat_available():
            pytest.skip("python-sat not installed")
        backend = make_backend("pysat")
        assert isinstance(backend, PySATBackend)
        assert isinstance(backend, SatBackend)
        backend.delete()

    def test_cli_reports_missing_backend(self, capsys):
        if pysat_available():
            pytest.skip("python-sat installed: the failure leg is moot")
        from repro.cli import main

        code = main(["solve", "--backend", "pysat", "nonexistent.smt2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "python-sat" in err
        assert "Traceback" not in err


@pytest.mark.skipif(not pysat_available(), reason="python-sat not installed")
class TestDifferential:
    """Both backends answer every corpus formula identically."""

    def _pair(self, num_vars):
        py = make_backend("python")
        ps = make_backend("pysat")
        py.new_vars(num_vars)
        ps.new_vars(num_vars)
        return py, ps

    @pytest.mark.parametrize("clauses,num_vars,expected", DIFF_CNFS)
    def test_verdicts_agree(self, clauses, num_vars, expected):
        for backend in self._pair(num_vars):
            for clause in clauses:
                backend.add_clause(clause)
            assert backend.solve() is expected
            if expected:
                assert check_model(clauses, backend.model())
            else:
                with pytest.raises(SatError):
                    backend.model()

    def test_assumption_core_is_sound(self):
        # x1..x4 free; assumptions force the pigeonhole contradiction
        clauses = [[-10, 1], [-11, -1]]
        for backend in self._pair(11):
            for clause in clauses:
                backend.add_clause(clause)
            assert backend.solve([10, 11]) is False
            core = backend.core()
            assert set(core) <= {10, 11}
            # re-assuming exactly the core must still be unsat
            assert backend.solve(core) is False

    def test_minimize_core_yields_unsat_subset(self):
        # y (var 5) is irrelevant; the real conflict is 3 & 4 -> bottom
        clauses = [[-3, -4]]
        for backend in self._pair(5):
            for clause in clauses:
                backend.add_clause(clause)
            assert backend.solve([3, 4, 5]) is False
            core = backend.minimize_core()
            assert core
            assert set(core) <= {3, 4, 5}
            assert backend.solve(core) is False

    def test_minimize_core_respects_candidates(self):
        for backend in self._pair(5):
            backend.add_clause([-3, -4])
            assert backend.solve([3, 4, 5]) is False
            full = set(backend.core())
            kept = set(backend.minimize_core(candidates=[]))
            # nothing probed -> nothing may be dropped
            assert kept == full

    def test_tri_state_budget_exhaustion(self):
        # pigeonhole 5->4 under a 1-conflict budget: indeterminate
        def v(i, j):
            return i * 4 + j + 1

        for backend in self._pair(20):
            for i in range(5):
                backend.add_clause([v(i, j) for j in range(4)])
            for j in range(4):
                for i1 in range(5):
                    for i2 in range(i1 + 1, 5):
                        backend.add_clause([-v(i1, j), -v(i2, j)])
            assert backend.solve(max_conflicts=1) is None

    def test_clause_free_assumption_vars(self):
        # assuming a var never mentioned in any clause must not crash
        for backend in self._pair(3):
            backend.add_clause([1, 2])
            assert backend.solve([3]) is True
            assert backend.model()[3] is True

    @pytest.mark.parametrize(
        "factory,kwargs",
        [
            (even_system, {}),
            (incdec_system, {}),
            (odd_unsat_system, {"max_total_size": 4}),
            (diag_system, {"max_total_size": 4}),
        ],
    )
    def test_find_model_statuses_agree(self, factory, kwargs):
        prepared = preprocess(factory())
        results = {
            name: find_model(prepared, sat_backend=name, **kwargs)
            for name in ("python", "pysat")
        }
        py, ps = results["python"], results["pysat"]
        assert py.found == ps.found
        assert py.stats.sat_backend == "python"
        assert ps.stats.sat_backend == "pysat"
        if py.found:
            assert py.model.size() == ps.model.size()


class TestPySATUnitBehavior:
    """Adapter-local contract points (no CDCL reference needed)."""

    @pytest.fixture(autouse=True)
    def _need_pysat(self):
        if not pysat_available():
            pytest.skip("python-sat not installed")

    def test_input_validation_matches_cdcl(self):
        backend = make_backend("pysat")
        backend.new_vars(2)
        with pytest.raises(SatError):
            backend.add_clause([0])
        with pytest.raises(SatError):
            backend.add_clause([5])
        with pytest.raises(SatError):
            backend.solve([7])

    def test_empty_clause_poisons_solver(self):
        backend = make_backend("pysat")
        backend.new_var()
        assert backend.add_clause([]) is False
        assert backend.solve() is False
        assert backend.core() == []

    def test_fixed_is_sound(self):
        # fixed() is best-effort (None is always allowed) but must
        # never contradict level-0 entailment when it does answer
        backend = make_backend("pysat")
        backend.new_vars(3)
        backend.add_clause([1])
        backend.add_clause([-1, 2])
        assert backend.fixed(1) in (True, None)
        assert backend.fixed(-1) in (False, None)
        assert backend.fixed(2) in (True, None)
        assert backend.fixed(3) is None  # clause-free variable
        with pytest.raises(SatError):
            backend.fixed(9)

    def test_hygiene_hints_are_noops(self):
        backend = make_backend("pysat")
        backend.new_var()
        backend.add_clause([1])
        assert backend.simplify() == 0
        assert backend.reduce_learned(10) == 0
        assert backend.clause_count() == 1
        assert backend.learned_count() == 0
