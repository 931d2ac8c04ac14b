"""Unit tests for the PROVE_Sigma / PROVE_Delta prover (Section 5.2)."""

import pytest

from repro.core.database import Database
from repro.core.errors import EvaluationError, StratificationError
from repro.core.parser import parse_program
from repro.core.terms import atom
from repro.engine.model import PerfectModelEngine
from repro.engine.prove import LinearStratifiedProver
from repro.library import (
    addition_chain_rulebase,
    graph_db,
    hamiltonian_complement_rulebase,
    hamiltonian_rulebase,
    parity_db,
    parity_rulebase,
)


class TestConstruction:
    def test_requires_linear_stratification(self):
        from repro.library import example10_rulebase

        with pytest.raises(StratificationError):
            LinearStratifiedProver(example10_rulebase())

    def test_accepts_precomputed_stratification(self):
        from repro.analysis.stratify import linear_stratification

        rb = parity_rulebase()
        stratification = linear_stratification(rb)
        prover = LinearStratifiedProver(rb, stratification)
        assert prover.stratification is stratification


class TestInferenceRules:
    def test_line1_database_membership(self):
        prover = LinearStratifiedProver(parse_program("x :- y."))
        db = Database([atom("f")])
        assert prover.ask(db, "f")

    def test_line2_hypothetical(self):
        prover = LinearStratifiedProver(parse_program("a :- b."))
        assert prover.ask(Database(), "a[add: b]")

    def test_sigma_linear_recursion(self):
        prover = LinearStratifiedProver(addition_chain_rulebase(5))
        assert prover.ask(Database(), "a1")
        assert not prover.ask(Database(), "a3")

    def test_delta_negation(self):
        rb = parse_program("p(X) :- d(X), ~q(X).")
        prover = LinearStratifiedProver(rb)
        db = Database.from_relations({"d": ["a", "b"], "q": ["a"]})
        assert prover.answers(db, "p(X)") == {("b",)}

    def test_cross_stratum_negation(self):
        # no :- ~yes with yes in Sigma_1: negation on a Sigma predicate.
        rb = parse_program(
            """
            yes :- trigger, yes[add: h].
            yes :- h.
            no :- ~yes.
            """
        )
        prover = LinearStratifiedProver(rb)
        assert prover.ask(Database([atom("trigger")]), "yes")
        assert not prover.ask(Database([atom("trigger")]), "no")
        assert prover.ask(Database(), "no")

    def test_answers_enumeration(self):
        rb = hamiltonian_rulebase()
        db = graph_db(["a", "b"], [("a", "b")])
        prover = LinearStratifiedProver(rb)
        assert prover.answers(db, "select(Y)") == {("a",), ("b",)}

    def test_sigma_goal_outside_domain_is_refuted(self):
        # Definition 3 grounds q2's head over dom(R, DB) = {a}, so no
        # instance names b, although the body holds for every binding.
        rb = parse_program("p0. q2(a, X) :- p0[add: p0].")
        prover = LinearStratifiedProver(rb)
        assert not prover.ask(Database(), "q2(a, b)")
        assert prover.ask(Database(), "q2(a, a)")
        assert prover.ask(Database([atom("r", "b")]), "q2(a, b)")
        assert not PerfectModelEngine(rb).ask(Database(), "q2(a, b)")


class TestAgreementWithReferenceEngine:
    @pytest.mark.parametrize("n", range(5))
    def test_parity(self, n):
        rb = parity_rulebase()
        db = parity_db([f"x{i}" for i in range(n)])
        prover = LinearStratifiedProver(rb)
        model = PerfectModelEngine(rb)
        for query in ("even", "odd"):
            assert prover.ask(db, query) == model.ask(db, query)

    @pytest.mark.parametrize(
        "edges,expected",
        [
            ([("a", "b"), ("b", "c")], True),
            ([("a", "b"), ("a", "c")], False),
            ([("a", "b"), ("b", "c"), ("c", "a")], True),
            ([], False),
        ],
    )
    def test_hamiltonian(self, edges, expected):
        rb = hamiltonian_rulebase()
        db = graph_db(["a", "b", "c"], edges)
        prover = LinearStratifiedProver(rb)
        model = PerfectModelEngine(rb)
        assert prover.ask(db, "yes") is expected
        assert model.ask(db, "yes") is expected

    def test_complement_rulebase(self):
        rb = hamiltonian_complement_rulebase()
        prover = LinearStratifiedProver(rb)
        db_yes = graph_db(["a", "b"], [("a", "b")])
        db_no = graph_db(["a", "b"], [])
        assert prover.ask(db_yes, "yes") and not prover.ask(db_yes, "no")
        assert prover.ask(db_no, "no") and not prover.ask(db_no, "yes")


class TestDeltaClosure:
    """PROVE_Delta closes each negation layer semi-naively."""

    REACH = """
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- edge(X, Z), reach(Z, Y).
    """

    def test_recursive_layer_fires_fewer_rules_than_naive(self):
        from repro.engine.delta import LayerInstruments, close_layer
        from repro.engine.interpretation import Interpretation
        from repro.obs.metrics import Counter

        rb = parse_program(self.REACH)
        nodes = [f"n{i}" for i in range(6)]
        db = Database.from_relations({"edge": list(zip(nodes, nodes[1:]))})
        prover = LinearStratifiedProver(rb)
        assert prover.ask(db, "reach(n0, n5)")
        naive = Counter("naive.firings")
        close_layer(
            tuple(rb),
            Interpretation(db),
            prover.domain(db),
            strategy="naive",
            instruments=LayerInstruments(firings=naive),
        )
        firings = prover.metrics.counter("prove.delta_firings").value
        assert 0 < firings < naive.value
        # A chain of 6 nodes has 15 reach facts; each is derived once
        # per body that yields it (one base firing or one step firing).
        assert firings == 15
        assert prover.metrics.counter("prove.delta_rounds").value == 6

    def test_non_recursive_layer_fires_each_instance_once(self):
        rb = hamiltonian_rulebase()
        db = graph_db(["a", "b", "c"], [("a", "b"), ("b", "c")])
        prover = LinearStratifiedProver(rb)
        assert prover.ask(db, "yes")
        # select(Y) :- node(Y), ~pnode(Y) has one instance per node not
        # yet on the path, in every database whose Delta_1 was built.
        per_model = [
            len(seen.relation("node") - seen.relation("pnode"))
            for _, seen in prover._delta_cache
        ]
        firings = prover.metrics.counter("prove.delta_firings").value
        assert firings == sum(per_model) > 0
        # One full round per model, plus one empty delta round after
        # each model that derived something.
        assert prover.metrics.counter("prove.delta_rounds").value == len(
            per_model
        ) + sum(1 for count in per_model if count)


class TestSearchMechanics:
    def test_true_goals_cached(self):
        prover = LinearStratifiedProver(addition_chain_rulebase(4))
        prover.ask(Database(), "a1")
        goals_first = prover.stats.sigma_goals
        prover.ask(Database(), "a1")
        assert prover.stats.sigma_goals == goals_first
        assert prover.stats.sigma_cache_hits >= 1

    def test_clear_caches(self):
        prover = LinearStratifiedProver(addition_chain_rulebase(3))
        prover.ask(Database(), "a1")
        prover.clear_caches()
        before = prover.stats.sigma_cache_hits
        prover.ask(Database(), "a1")
        # After clearing, the first lookup cannot hit the cache.
        assert prover.stats.sigma_goals > 0

    def test_memoize_disabled_still_correct(self):
        prover = LinearStratifiedProver(parity_rulebase(), memoize=False)
        assert prover.ask(parity_db(["x", "y"]), "even")
        assert not prover.ask(parity_db(["x"]), "even")

    def test_cycle_in_sigma_handled(self):
        # p and q mutually recursive through positive premises inside a
        # Sigma segment (hypothetical recursion also present): the DFS
        # must cut the cycle and still find the base proof.
        rb = parse_program(
            """
            p :- q.
            q :- p.
            p :- p[add: h].
            p :- h.
            """
        )
        prover = LinearStratifiedProver(rb)
        assert prover.ask(Database(), "p")
        assert prover.ask(Database(), "q")
        assert prover.stats.cycles_cut >= 1

    def test_failure_after_cycle_not_wrongly_cached(self):
        # Failing `q` (whose proof attempt cycles through p) must not
        # poison a later, provable `p` query path.
        rb = parse_program(
            """
            p :- q.
            q :- p.
            p :- p[add: h].
            p :- h.
            """
        )
        prover = LinearStratifiedProver(rb)
        # Ask q first on a db where it IS provable via the h-chain.
        assert prover.ask(Database(), "q")
        # And again from the caches.
        assert prover.ask(Database(), "q")

    def test_proof_effort_scales_polynomially_on_chains(self):
        # Appendix A: linear recursion bounds proof-sequence length
        # polynomially.  On the Example 4 chain the goal count should
        # grow linearly with n.
        counts = []
        for n in (4, 8, 16):
            prover = LinearStratifiedProver(addition_chain_rulebase(n))
            prover.ask(Database(), "a1")
            counts.append(prover.stats.sigma_goals)
        assert counts[2] - counts[1] <= 3 * (counts[1] - counts[0]) + 8


class TestPatternEnumeration:
    """``answers`` and free-variable ``ask`` enumerate matches.

    A pattern is matched like a rule premise (stored facts, the Delta
    model, Sigma search) instead of deciding one grounding over
    dom(R, DB) at a time; the answers must not change.
    """

    RULES = """
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- edge(X, Z), reach(Z, Y).
        closes(X, Y) :- reach(X, X)[add: edge(Y, X)].
        stuck(X) :- node(X), ~reach(X, Y).
        on :- node(X).
    """

    @staticmethod
    def _db():
        chain = [f"n{i}" for i in range(6)]
        edges = list(zip(chain, chain[1:])) + [("m0", "m1"), ("m1", "m0")]
        return Database.from_relations(
            {"edge": edges, "node": chain + ["m0", "m1", "iso"]}
        )

    @pytest.mark.parametrize(
        "pattern",
        [
            "reach(X, Y)",
            "reach(X, X)",
            "reach(n0, Y)",
            "reach(X, n5)",
            "reach(zzz, Y)",
            "reach(n0, n5)",
            "reach(n5, n0)",
            "closes(X, Y)",
            "closes(n3, Y)",
            "closes(X, X)",
            "stuck(X)",
            "edge(X, Y)",
            "edge(X, X)",
            "node(X)",
            "on",
            "off",
            "unknown(X)",
        ],
    )
    def test_answers_match_topdown(self, pattern):
        from repro.engine.topdown import TopDownEngine

        rb = parse_program(self.RULES)
        db = self._db()
        expected = TopDownEngine(rb).answers(db, pattern)
        assert LinearStratifiedProver(rb).answers(db, pattern) == expected

    def test_answers_shapes(self):
        prover = LinearStratifiedProver(parse_program(self.RULES))
        db = self._db()
        assert prover.answers(db, "reach(X, X)") == {("m0",), ("m1",)}
        assert prover.answers(db, "reach(zzz, Y)") == set()
        assert prover.answers(db, "on") == {()}
        assert prover.answers(db, "off") == set()
        assert prover.answers(db, "closes(n3, Y)") == {
            ("n3",), ("n4",), ("n5",)
        }

    @pytest.mark.parametrize(
        "query",
        [
            "reach(n0, Y)",
            "reach(n5, Y)",
            "reach(zzz, Y)",
            "reach(X, X)",
            "~reach(n5, Y)",
            "closes(n3, Y)",
            "closes(iso, Y)",
            "stuck(X)",
            "edge(n5, Y)",
            "reach(n5, Y)[add: edge(n5, Z)]",
        ],
    )
    def test_ask_with_free_variables_matches_topdown(self, query):
        from repro.engine.topdown import TopDownEngine

        rb = parse_program(self.RULES)
        db = self._db()
        expected = TopDownEngine(rb).ask(db, query)
        assert LinearStratifiedProver(rb).ask(db, query) is expected

    def test_delta_pattern_is_one_model_lookup(self):
        rb = parse_program(TestDeltaClosure.REACH)
        nodes = [f"n{i}" for i in range(6)]
        db = Database.from_relations({"edge": list(zip(nodes, nodes[1:]))})
        prover = LinearStratifiedProver(rb)
        assert len(prover.answers(db, "reach(X, Y)")) == 15
        lookups = (
            prover.metrics.counter("prove.delta_models").value
            + prover.metrics.counter("prove.delta_cache_hits").value
        )
        # Grounding X and Y over the 6 constants looked up 36 times.
        assert lookups == 1

    def test_exhausted_answers_carry_a_subset(self):
        from repro.core.errors import ResourceExhausted
        from repro.engine.budget import Budget

        rb = parse_program(self.RULES)
        db = self._db()
        full = LinearStratifiedProver(rb).answers(db, "closes(X, Y)")
        partials = []
        for steps in range(1, 40):
            prover = LinearStratifiedProver(rb)
            try:
                found = prover.answers(
                    db, "closes(X, Y)", budget=Budget(max_steps=steps)
                )
            except ResourceExhausted as error:
                assert error.partial.answers is not None
                assert error.partial.answers <= full
                partials.append(error.partial.answers)
            else:
                assert found == full
        assert partials
        assert any(0 < len(partial) < len(full) for partial in partials)
