"""Direct checks of the inference system (Definition 3).

The paper defines ``R, DB |- .`` by three rules and presents every
query in two equivalent ways: at the meta level (evaluate over a
manually extended database) and at the object level (a hypothetical
premise).  These tests verify the equivalence *as an equation between
two API calls* on all engines, plus the domain conventions.
"""

import pytest

from repro.core.database import Database
from repro.core.parser import parse_program
from repro.core.terms import atom
from repro.engine.model import PerfectModelEngine
from repro.engine.prove import LinearStratifiedProver
from repro.engine.topdown import TopDownEngine

ENGINES = [PerfectModelEngine, LinearStratifiedProver, TopDownEngine]


@pytest.mark.parametrize("engine_class", ENGINES)
class TestDefinition3:
    """The three inference rules, one at a time."""

    def test_rule1_database_membership(self, engine_class):
        engine = engine_class(parse_program("unused :- nothing."))
        db = Database([atom("take", "tony", "cs250")])
        assert engine.ask(db, "take(tony, cs250)")
        assert not engine.ask(db, "take(tony, cs999)")

    def test_rule2_hypothetical_equals_meta_level(self, engine_class):
        # R, DB |- A[add:B]  iff  R, DB + {B} |- A  — Example 1's two
        # formulations, checked as an equation.
        rules = parse_program(
            "grad(S) :- take(S, his101), take(S, eng201)."
        )
        engine = engine_class(rules)
        db = Database([atom("take", "tony", "his101")])
        addition = atom("take", "tony", "eng201")
        object_level = engine.ask(db, "grad(tony)[add: take(tony, eng201)]")
        meta_level = engine.ask(db.with_facts(addition), "grad(tony)")
        assert object_level == meta_level == True  # noqa: E712

    def test_rule2_equivalence_on_negative_case(self, engine_class):
        rules = parse_program("grad(S) :- take(S, his101), take(S, eng201).")
        engine = engine_class(rules)
        db = Database()
        addition = atom("take", "tony", "eng201")
        assert engine.ask(db, "grad(tony)[add: take(tony, eng201)]") == engine.ask(
            db.with_facts(addition), "grad(tony)"
        )

    def test_rule3_ground_substitution_over_domain(self, engine_class):
        # Variables range over dom(R, DB): constants of rules + db.
        rules = parse_program("some :- p(X).")
        engine = engine_class(rules)
        assert engine.ask(Database([atom("p", "a")]), "some")
        assert not engine.ask(Database([atom("q", "a")]), "some")

    def test_rule_constants_are_in_the_domain(self, engine_class):
        # 'c' appears only in the rulebase; it must still be a legal
        # grounding value (dom(R, DB) includes rule constants).
        rules = parse_program(
            """
            target :- probe(X)[add: mark(X)], special(X).
            probe(X) :- mark(X).
            special(c).
            """
        )
        engine = engine_class(rules)
        assert engine.ask(Database(), "target")

    def test_domain_follows_each_database(self, engine_class):
        # dom(R, DB) is remembered per database object; every new
        # database, even one the size of an earlier one, gets its own.
        engine = engine_class(parse_program("p(X) :- q(X, c)."))
        db = Database([atom("q", "b", 2)])
        assert [str(c) for c in engine.domain(db)] == ["2", "b", "c"]
        grown = db.with_facts(atom("q", "a", "c"))
        assert [str(c) for c in engine.domain(grown)] == ["2", "a", "b", "c"]
        assert engine.answers(grown, "p(X)") == {("a",)}
        assert [str(c) for c in engine.domain(db)] == ["2", "b", "c"]
        for size in range(6):
            fresh = Database([atom("q", f"n{i}", "c") for i in range(size)])
            assert len(engine.domain(fresh)) == size + 1
            assert engine.answers(fresh, "p(X)") == {
                (f"n{i}",) for i in range(size)
            }

    def test_nested_hypotheticals_compose(self, engine_class):
        # a needs b and c: two nested additions reach DB + {b, c}.
        rules = parse_program(
            """
            a :- b, c.
            outer :- inner[add: b].
            inner :- a[add: c].
            """
        )
        engine = engine_class(rules)
        assert engine.ask(Database(), "outer")
        assert not engine.ask(Database(), "inner")


class TestDeletionMetaLevelEquation:
    """The [4] extension obeys its defining equation on the top-down
    engine: R, DB |- A[del: C] iff R, DB - {C} |- A."""

    RULES = parse_program(
        """
        alarm :- sensor_a.
        alarm :- sensor_b.
        quiet :- ~alarm.
        """
    )

    @pytest.mark.parametrize(
        "facts",
        [[], ["sensor_a"], ["sensor_b"], ["sensor_a", "sensor_b"]],
    )
    @pytest.mark.parametrize("removed", ["sensor_a", "sensor_b"])
    @pytest.mark.parametrize("goal", ["alarm", "quiet"])
    def test_equation(self, facts, removed, goal):
        from repro.engine.topdown import TopDownEngine

        engine = TopDownEngine(self.RULES)
        db = Database([atom(fact) for fact in facts])
        object_level = engine.ask(db, f"{goal}[del: {removed}]")
        meta_level = engine.ask(db.without_facts(atom(removed)), goal)
        assert object_level == meta_level


@pytest.mark.parametrize("engine_class", ENGINES)
class TestNegationByFailure:
    def test_naf_definition(self, engine_class):
        # R, DB |- ~phi iff R, DB |/- phi.
        rules = parse_program("p :- q.")
        engine = engine_class(rules)
        assert engine.ask(Database(), "~p")
        assert not engine.ask(Database([atom("q")]), "~p")

    def test_naf_sees_hypothetical_consequences(self, engine_class):
        # ~ is evaluated at the *current* database: inside a
        # hypothetical context the negation flips.
        rules = parse_program(
            """
            quiet :- ~noise.
            noise :- source.
            probe :- quiet[add: source].
            """
        )
        engine = engine_class(rules)
        assert engine.ask(Database(), "quiet")
        assert not engine.ask(Database(), "probe")

    def test_example2_meta_level_equation(self, engine_class):
        # "those s such that exists c: R, DB + take(s, c) |- grad(s)"
        # computed by brute force must equal the object-level answers.
        rules = parse_program(
            """
            grad(S) :- take(S, m1), take(S, m2).
            candidate(S) :- student(S), grad(S)[add: take(S, C)].
            """
        )
        engine = engine_class(rules)
        db = Database.from_relations(
            {
                "student": ["ann", "ben"],
                "take": [("ann", "m1")],
            }
        )
        object_level = engine.answers(db, "candidate(S)")

        domain = [c.value for c in engine.domain(db)]
        meta_level = set()
        for student in ("ann", "ben"):
            for course in domain:
                extended = db.with_facts(atom("take", student, course))
                fresh = engine_class(rules)
                if fresh.ask(extended, f"grad({student})"):
                    meta_level.add((student,))
                    break
        assert object_level == meta_level == {("ann",)}
