"""Cross-module integration tests: SMT-LIB in, verified invariants out."""

import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import solve
from repro.chc.parser import parse_chc
from repro.chc.printer import print_system
from repro.chc.transform import preprocess
from repro.cli import main as cli_main
from repro.logic.adt import nat
from repro.problems import even_system, odd_unsat_system


EVEN_SMT = """
(set-logic HORN)
(declare-datatypes ((Nat 0)) (((Z) (S (prev Nat)))))
(declare-fun even (Nat) Bool)
(assert (forall ((x Nat)) (=> (= x Z) (even x))))
(assert (forall ((x Nat) (y Nat))
  (=> (and (= x (S (S y))) (even y)) (even x))))
(assert (forall ((x Nat) (y Nat))
  (=> (and (even x) (even y) (= y (S x))) false)))
(check-sat)
"""

BROKEN_SMT = """
(set-logic HORN)
(declare-datatypes ((Nat 0)) (((Z) (S (prev Nat)))))
(declare-fun p (Nat) Bool)
(assert (forall ((x Nat)) (=> (= x Z) (p x))))
(assert (forall ((x Nat)) (=> (p x) (p (S x)))))
(assert (forall ((x Nat)) (=> (and (p x) (= x (S (S Z)))) false)))
(check-sat)
"""


class TestSmtLibToInvariant:
    def test_even_from_text(self):
        system = parse_chc(EVEN_SMT)
        result = solve(system, timeout=30)
        assert result.is_sat
        even = system.predicates["even"]
        for n in range(8):
            assert result.invariant.member(even, (nat(n),)) == (n % 2 == 0)

    def test_unsat_from_text(self):
        result = solve(parse_chc(BROKEN_SMT), timeout=10)
        assert result.is_unsat

    def test_roundtrip_stability(self):
        system = parse_chc(EVEN_SMT)
        once = print_system(system)
        twice = print_system(parse_chc(once))
        assert once == twice


class TestCli:
    def test_sat_run(self, tmp_path, capsys):
        path = tmp_path / "even.smt2"
        path.write_text(EVEN_SMT)
        code = cli_main([str(path), "--timeout", "30", "--model"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "sat"
        assert "automata" in out

    def test_unsat_run_with_cex(self, tmp_path, capsys):
        path = tmp_path / "broken.smt2"
        path.write_text(BROKEN_SMT)
        code = cli_main([str(path), "--timeout", "10", "--cex"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "unsat"
        assert "false" in out

    def test_baseline_selection(self, tmp_path, capsys):
        path = tmp_path / "even.smt2"
        path.write_text(EVEN_SMT)
        code = cli_main(
            [str(path), "--solver", "sizeelem", "--timeout", "20"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "sat"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.smt2"
        path.write_text("(this is not smtlib")
        assert cli_main([str(path)]) == 2

    def test_missing_file_exit_code(self):
        assert cli_main(["/nonexistent.smt2"]) == 2

    def test_module_invocation(self, tmp_path):
        path = tmp_path / "even.smt2"
        path.write_text(EVEN_SMT)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("sat")


class TestCampaignCli:
    """``repro campaign``: every mode runs the same supervised loop."""

    @pytest.fixture
    def files(self, tmp_path):
        """Two signature-compatible SAT files, one UNSAT, one broken."""
        paths = {}
        for name, factory in (
            ("even", even_system),
            ("even2", even_system),
            ("odd", odd_unsat_system),
        ):
            paths[name] = tmp_path / f"{name}.smt2"
            paths[name].write_text(print_system(factory()))
        paths["broken"] = tmp_path / "broken.smt2"
        paths["broken"].write_text("(this is not smtlib")
        return paths

    @staticmethod
    def run(capsys, *args):
        code = cli_main(["campaign", "--timeout", "10", *map(str, args)])
        captured = capsys.readouterr()
        return code, captured.out.splitlines(), captured.err

    @staticmethod
    def verdicts(lines):
        """Per-file verdicts, elapsed seconds stripped."""
        return [
            line.rsplit(" (", 1)[0]
            for line in lines
            if not line.startswith(";")
        ]

    def test_per_file_lines_and_exit_code(self, files, capsys):
        code, out, err = self.run(
            capsys, files["even"], files["broken"], files["odd"]
        )
        assert code == 1  # the unparsable file has no sat/unsat answer
        assert self.verdicts(out) == [
            f"{files['even']}: sat",
            f"{files['odd']}: unsat",
        ]
        assert all(
            line.endswith("s)") for line in out if not line.startswith(";")
        )
        assert f"{files['broken']}: error:" in err

    def test_pool_summary_line(self, files, capsys):
        code, out, _ = self.run(capsys, files["even"], files["even2"])
        assert code == 0
        pool = [line for line in out if line.startswith("; pool:")]
        assert len(pool) == 1
        assert pool[0].startswith(
            "; pool: 2 problems, 1 engines, 1 warm-engine hits, "
        )
        assert any(line.startswith("; exec:") for line in out)

    def test_quiet_prints_verdicts_only(self, files, capsys):
        _, out, _ = self.run(capsys, "--quiet", files["even"], files["odd"])
        assert not any(line.startswith(";") for line in out)
        assert len(out) == 2

    def test_inprocess_and_isolated_verdicts_identical(self, files, capsys):
        paths = [files["even"], files["odd"], files["even2"]]
        code_in, inproc, _ = self.run(capsys, *paths)
        code_iso, isolated, _ = self.run(capsys, "--isolate", *paths)
        assert code_in == code_iso == 0
        assert self.verdicts(inproc) == self.verdicts(isolated)
        assert len(self.verdicts(inproc)) == 3

    @pytest.mark.parametrize("isolate", [False, True])
    def test_no_share_warm_cache_writes_dir(
        self, files, tmp_path, capsys, isolate
    ):
        cache = tmp_path / "engines"
        flags = ["--isolate"] if isolate else []
        code, _, _ = self.run(
            capsys, *flags, "--no-share", "--warm-cache", cache, files["even"]
        )
        assert code == 0
        assert len(list(cache.iterdir())) == 1

    @pytest.mark.parametrize("isolate", [False, True])
    def test_metrics_snapshot_has_every_namespace(
        self, files, tmp_path, capsys, isolate
    ):
        import json

        metrics = tmp_path / "metrics.json"
        flags = ["--isolate"] if isolate else []
        code, _, _ = self.run(
            capsys, *flags, "--metrics", metrics,
            files["even"], files["even2"], files["odd"],
        )
        assert code == 0
        snap = json.loads(metrics.read_text())
        keys = set(snap["counters"]) | set(snap["histograms"])
        for prefix in ("finder.", "task.", "pool.", "exec."):
            assert any(k.startswith(prefix) for k in keys), (prefix, keys)
        assert "pool.engines_live" in snap["gauges"]
        assert "pool.engines_live" not in snap["counters"]


class TestSatisfiabilityPreservation:
    """Theorem 5 end to end, property-style: for random mod-family
    programs, the pipeline's SAT/UNSAT verdict matches ground truth."""

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=12, deadline=None)
    def test_mod_family_verdicts(self, modulus, residue, clash):
        from repro.benchgen.builders import nat_mod_system

        residue = residue % modulus
        system = nat_mod_system(modulus, residue, clash)
        safe = clash % modulus != 0
        result = solve(system, timeout=15)
        if safe:
            assert result.is_sat
            # and the invariant really is inductive over Herbrand terms
            assert result.invariant.verify_bounded(
                system, max_height=4
            ) is None
        else:
            # the refutation instantiates P at heights residue+1 and
            # residue+clash+1; within the default iterative-deepening
            # budget (height 4) the verdict must be UNSAT, beyond it the
            # solver may stay undecided — but never report SAT
            if residue + clash + 1 <= 4:
                assert result.is_unsat
            else:
                assert not result.is_sat


class TestPreprocessSolveCommute:
    def test_solving_preprocessed_system_agrees(self):
        system = even_system()
        direct = solve(system, timeout=20)
        pre = solve(preprocess(system), timeout=20)
        assert direct.status == pre.status
