"""End-to-end tests for RInGen (the Sec. 4 pipeline) on the paper programs."""

import itertools

import pytest

from repro import RInGen, RInGenConfig, Status, solve
from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.chc.transform import preprocess
from repro.core.cex import search_counterexample
from repro.core.regular_model import RegularModel
from repro.core.result import sat, unknown, unsat
from repro.logic.adt import NAT, S, nat, nat_system, nat_value
from repro.logic.formulas import TRUE
from repro.logic.sorts import PredSymbol
from repro.logic.terms import App, Var
from repro.mace import find_model
from repro.mace.model import FiniteModel
from repro.problems import (
    EVEN,
    diag_system,
    diseq_zz_system,
    even_system,
    evenleft_system,
    incdec_system,
    ltgt_system,
    odd_unsat_system,
    z_neq_sz_system,
)
from repro.stlc import goal_identity, invariant_model, typecheck_vc
from repro.theory.atlas import even_member, evenleft_member


class TestPaperPrograms:
    def test_even_is_sat_with_size_2_model(self):
        result = solve(even_system(), timeout=30)
        assert result.is_sat
        assert result.details["model_size"] == 2

    def test_even_invariant_is_the_even_numerals(self):
        result = solve(even_system(), timeout=30)
        model = result.invariant
        assert isinstance(model, RegularModel)
        for n in range(10):
            assert model.member(EVEN, (nat(n),)) == even_member(nat(n))

    def test_incdec_is_sat(self):
        result = solve(incdec_system(), timeout=30)
        assert result.is_sat
        # the mod-3 style model of Prop. 4 has 3 elements
        assert result.details["model_size"] == 3

    def test_evenleft_is_sat(self):
        result = solve(evenleft_system(), timeout=30)
        assert result.is_sat
        model = result.invariant
        evenleft = [
            p for p in model.automata if p.name == "evenleft"
        ][0]
        from repro.problems import leaf, node

        for t in [leaf(), node(leaf(), leaf()), node(node(leaf(), leaf()), leaf())]:
            assert model.member(evenleft, (t,)) == evenleft_member(t)

    def test_diag_diverges(self):
        result = solve(diag_system(), timeout=3)
        assert result.is_unknown

    def test_ltgt_diverges(self):
        result = solve(ltgt_system(), timeout=3)
        assert result.is_unknown

    def test_z_neq_sz_unsat(self):
        result = solve(z_neq_sz_system(), timeout=10)
        assert result.is_unsat

    def test_diseq_zz_sat(self):
        result = solve(diseq_zz_system(), timeout=10)
        assert result.is_sat

    def test_broken_even_unsat_with_derivation(self):
        result = solve(odd_unsat_system(), timeout=10)
        assert result.is_unsat
        assert result.refutation is not None
        assert result.refutation.conclusion is None


class TestRegularModelVerification:
    def test_exact_verification_passes(self):
        system = even_system()
        result = solve(system, timeout=30)
        prepared = preprocess(system)
        assert result.invariant.verify_exact(prepared)

    def test_bounded_verification_passes(self):
        system = even_system()
        result = solve(system, timeout=30)
        assert result.invariant.verify_bounded(system, max_height=5) is None

    def test_describe_mentions_automata(self):
        result = solve(even_system(), timeout=30)
        text = result.invariant.describe()
        assert "automata" in text
        assert "even" in text

    def test_interpretation_gives_diseq_true_semantics(self):
        from repro.chc.transform import diseq_symbol
        from repro.logic.adt import NAT

        result = solve(even_system(), timeout=30)
        model = result.invariant
        d = diseq_symbol(NAT)
        assert model.interpretation(d, (nat(0), nat(1)))
        assert not model.interpretation(d, (nat(1), nat(1)))


def _single_flips(model: FiniteModel):
    """Every variant of ``model`` with one predicate tuple toggled."""
    for pred, rel in model.predicates.items():
        domains = [range(model.domains[s]) for s in pred.arg_sorts]
        for tup in itertools.product(*domains):
            predicates = {q: set(r) for q, r in model.predicates.items()}
            predicates[pred] = set(rel) ^ {tup}
            yield FiniteModel(model.domains, model.functions, predicates)


def _subset_system():
    """``even ⊆ tagged``: the last clause is variable-only, so
    ``verify_exact`` decides it by language inclusion alone."""
    tagged = PredSymbol("tagged", (NAT,))
    x = Var("x", NAT)
    system = CHCSystem(nat_system(), name="Subset")
    system.add(Clause(TRUE, (), BodyAtom(EVEN, (nat(0),))))
    even_x = (BodyAtom(EVEN, (x,)),)
    plus_two = App(S, (App(S, (x,)),))
    system.add(Clause(TRUE, even_x, BodyAtom(EVEN, (plus_two,))))
    system.add(Clause(TRUE, even_x, BodyAtom(tagged, (x,))))
    return system


class TestExactVerificationReference:
    """``RegularModel.verify_exact`` decides some clauses on the automata
    view; evaluating every clause on the finite model's reachable
    substructure (``satisfies(..., herbrand=True)``) is the reference
    it must agree with, on found models and on broken variants."""

    @staticmethod
    def _assert_agree(prepared, model: FiniteModel) -> bool:
        regular = RegularModel.from_finite_model(
            prepared.adts, model, list(prepared.predicates.values())
        )
        expected = model.satisfies(prepared, herbrand=True)
        assert regular.verify_exact(prepared) == expected
        return expected

    @pytest.mark.parametrize(
        "factory",
        [
            even_system,
            incdec_system,
            evenleft_system,
            diseq_zz_system,
            _subset_system,
        ],
    )
    def test_found_models_and_their_flips(self, factory):
        system = factory()
        result = solve(system, timeout=30)
        assert result.is_sat
        prepared = preprocess(system)
        assert self._assert_agree(prepared, result.invariant.finite_model)
        for variant in _single_flips(result.invariant.finite_model):
            self._assert_agree(prepared, variant)

    def test_automata_alone_refute_a_broken_subset(self):
        # emptying ``tagged`` breaks only the variable-only clause, so
        # verify_exact's False rests on language inclusion alone
        prepared = preprocess(_subset_system())
        found = solve(_subset_system(), timeout=30).invariant.finite_model
        tagged = prepared.predicates["tagged"]
        broken = FiniteModel(
            found.domains,
            found.functions,
            {**found.predicates, tagged: set()},
        )
        rest = CHCSystem(prepared.adts, dict(prepared.predicates))
        rest.extend(
            cl
            for cl in prepared.clauses
            if cl.head is None or cl.head.pred != tagged
        )
        assert len(rest.clauses) == len(prepared.clauses) - 1
        assert broken.satisfies(rest, herbrand=True)
        assert not self._assert_agree(prepared, broken)

    def test_stlc_found_model_and_its_flips(self):
        # the model finder directly: the full pipeline's bounded
        # refutation and verification phases cost seconds here
        prepared = preprocess(typecheck_vc())
        found = find_model(prepared, max_total_size=6).model
        assert found is not None
        assert self._assert_agree(prepared, found)
        for variant in _single_flips(found):
            self._assert_agree(prepared, variant)

    def test_stlc_model_that_fails(self):
        # a -> a is inhabited, so no invariant satisfies its VC
        prepared = preprocess(typecheck_vc(goal_identity))
        assert not self._assert_agree(prepared, invariant_model())


class TestConfig:
    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            solve(even_system(), nonsense=True)

    def test_verification_can_be_disabled(self):
        result = solve(even_system(), timeout=30, verify=False)
        assert result.is_sat

    def test_tiny_model_budget_gives_unknown(self):
        result = solve(even_system(), timeout=5, max_model_size=1)
        assert result.is_unknown

    def test_result_str(self):
        result = solve(even_system(), timeout=30)
        assert "sat" in str(result)

    def test_result_constructors(self):
        assert sat("s", None).is_sat
        assert unsat("s", None).is_unsat
        assert unknown("s", "why").is_unknown
        assert unknown("s", "why").reason == "why"


class TestCexSearch:
    def test_finds_shallow_refutation(self):
        prepared = preprocess(odd_unsat_system())
        out = search_counterexample(prepared, max_height=4)
        assert out.found
        assert out.refutation.depth() >= 2

    def test_no_refutation_in_safe_system(self):
        prepared = preprocess(even_system())
        out = search_counterexample(prepared, max_height=4)
        assert not out.found

    def test_respects_timeout(self):
        import time

        from repro.benchgen.builders import mirror_system

        prepared = preprocess(mirror_system(3))
        start = time.monotonic()
        search_counterexample(prepared, max_height=5, timeout=0.5)
        assert time.monotonic() - start < 5.0
