"""Unit tests for the Session / ask / answers API."""

import pytest

from repro.core.database import Database
from repro.core.errors import EvaluationError
from repro.core.parser import parse_program
from repro.core.terms import atom
from repro.engine.model import PerfectModelEngine
from repro.engine.prove import LinearStratifiedProver
from repro.engine.query import Session, answers, ask
from repro.engine.topdown import TopDownEngine
from repro.library import (
    degree_rulebase,
    example10_rulebase,
    graduation_db,
    graduation_rulebase,
)


class TestEngineSelection:
    def test_auto_picks_prover_for_linear_rulebases(self):
        session = Session(graduation_rulebase())
        assert session.engine_name == "prove"
        assert isinstance(session.engine, LinearStratifiedProver)

    def test_auto_falls_back_to_topdown_engine(self):
        session = Session(example10_rulebase())
        assert session.engine_name == "topdown"
        assert isinstance(session.engine, TopDownEngine)

    def test_explicit_model(self):
        session = Session(graduation_rulebase(), "model")
        assert isinstance(session.engine, PerfectModelEngine)

    def test_unknown_engine_rejected(self):
        with pytest.raises(EvaluationError):
            Session(graduation_rulebase(), "magic")


class TestQueries:
    def test_ask_text_query(self):
        session = Session(graduation_rulebase())
        assert session.ask(graduation_db(), "grad(sue)")
        assert not session.ask(graduation_db(), "grad(pat)")

    def test_ask_atom_object(self):
        from repro.core.terms import atom

        session = Session(graduation_rulebase())
        assert session.ask(graduation_db(), atom("grad", "sue"))

    def test_ask_premise_object(self):
        from repro.core.ast import Hypothetical
        from repro.core.terms import atom

        session = Session(graduation_rulebase())
        premise = Hypothetical(
            atom("grad", "tony"), (atom("take", "tony", "cs250"),)
        )
        assert session.ask(graduation_db(), premise)

    def test_answers(self):
        session = Session(graduation_rulebase())
        assert session.answers(graduation_db(), "within_one(S)") == {
            ("tony",),
            ("sue",),
        }

    def test_classify_passthrough(self):
        assert Session(degree_rulebase()).classify().class_name == "PSPACE"

    def test_one_shot_helpers(self):
        rb = graduation_rulebase()
        db = graduation_db()
        assert ask(rb, db, "grad(sue)")
        assert ("sue",) in answers(rb, db, "grad(S)")

    def test_session_explain(self):
        from repro.engine.proofs import verify_proof

        session = Session(graduation_rulebase())
        proof = session.explain(
            graduation_db(), "grad(tony)[add: take(tony, cs250)]"
        )
        assert proof is not None
        assert verify_proof(graduation_rulebase(), proof)
        assert session.explain(graduation_db(), "grad(pat)") is None

    def test_engines_agree_on_example3(self):
        # The degree rulebase only runs on the model engine; check the
        # expected answers directly.
        session = Session(degree_rulebase())
        from repro.library import degree_db

        rows = session.answers(degree_db(), "grad(S, mathphys)")
        assert ("ada",) in rows and ("bob",) in rows
        assert ("cyd",) not in rows


class TestRefreshParity:
    """Standing-query refreshes agree between the prover and the
    top-down engine across a seeded stream of single-fact writes."""

    RULES = """
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- edge(X, Z), reach(Z, Y).
        grad(S) :- take(S, his101), take(S, eng201), take(S, cs250).
    """
    WATCHED = ("reach(X, Y)", "grad(S)")

    @staticmethod
    def _base(rng):
        facts = [
            atom("edge", f"c{chain}_{i}", f"c{chain}_{i + 1}")
            for chain in range(3)
            for i in range(4)
        ]
        for student in range(8):
            for course in ("his101", "eng201", "cs250"):
                if rng.random() < 0.7:
                    facts.append(atom("take", f"s{student}", course))
        return facts

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_watch_diffs_identical(self, seed):
        import random

        rng = random.Random(seed)
        base = self._base(rng)
        rb = parse_program(self.RULES)
        sessions = {name: Session(rb, engine=name) for name in ("prove", "topdown")}
        watches = {
            name: [session.watch(pattern) for pattern in self.WATCHED]
            for name, session in sessions.items()
        }
        db = Database(base)
        out: list = []
        for step in range(60):
            if step:
                if out and (len(out) >= 3 or rng.random() < 0.5):
                    db = db.with_facts(out.pop(rng.randrange(len(out))))
                else:
                    item = rng.choice([f for f in base if f not in out])
                    out.append(item)
                    db = db.without_facts(item)
            diffs = {
                name: [
                    (diff.added, diff.removed)
                    for diff in (watch.refresh(db) for watch in group)
                ]
                for name, group in watches.items()
            }
            assert diffs["prove"] == diffs["topdown"], (step, sorted(map(str, out)))
