"""Seeded input generators.

Every generator draws from a ``random.Random`` built from the run's
seed and returns plain data: rule and fact texts, tuples and query
strings.  The program only ever receives these inputs.
"""

from __future__ import annotations

import os
import random

from .harness import EXAMPLES
from .oracles import CORE_COURSES

#: Courses that no rule mentions; taking one never graduates anybody,
#: but a hypothesis naming one still creates a new child database.
ELECTIVES = tuple(f"el{i}" for i in range(17))


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent generator per input stream of one seed."""
    return random.Random(f"{seed}:{stream}")


def example_text(name: str) -> str:
    """A shipped rulebase from ``examples/rulebases``."""
    with open(os.path.join(EXAMPLES, name), encoding="utf-8") as handle:
        return handle.read()


def fact(predicate: str, *args: str) -> str:
    return f"{predicate}({', '.join(args)})" if args else predicate


def facts_text(facts: list[tuple]) -> str:
    """``(predicate, arg, ...)`` tuples as database text."""
    return "".join(fact(*item) + ".\n" for item in facts)


def enrolment(
    rng: random.Random, students: int, share: float, prefix: str = "s"
) -> tuple[list[str], list[tuple[str, str]]]:
    """Students and their core-course enrolments."""
    names = [f"{prefix}{i}" for i in range(students)]
    takes = [(s, c) for s in names for c in CORE_COURSES if rng.random() < share]
    return names, takes


def digraph(rng: random.Random, n: int, share: float) -> tuple[list[str], list[tuple[str, str]]]:
    nodes = [f"v{i}" for i in range(n)]
    edges = [(a, b) for a in nodes for b in nodes if a != b and rng.random() < share]
    return nodes, edges


def graph(rng: random.Random, n: int, share: float) -> tuple[list[str], list[tuple[str, str]]]:
    """An undirected graph, each edge stored once."""
    nodes = [f"v{i}" for i in range(n)]
    edges = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :] if rng.random() < share]
    return nodes, edges


def chain_edges(chains: int, length: int) -> list[tuple[str, str]]:
    return [(f"c{c}_{i}", f"c{c}_{i + 1}") for c in range(chains) for i in range(length - 1)]


def layered_rules(rng: random.Random, predicates: int, strata: int) -> str:
    """A linearly stratified rulebase in the shape of the paper's
    Example 9, scaled up: per predicate, linear hypothetical
    self-recursion behind an EDB guard, positive references within its
    stratum and negation of a predicate below."""
    names = [f"p{i}" for i in range(predicates)]
    stratum = {name: i % strata for i, name in enumerate(names)}
    lines = []
    for i, name in enumerate(names):
        if i < strata:
            lines.append(f"{name} :- e{i}, {name}[add: h{i}].")
            if i:
                lines.append(f"{name} :- d{i}, ~p{i - 1}.")
        same = [other for other in names[:i] if stratum[other] == stratum[name]]
        below = [other for other in names if stratum[other] < stratum[name]]
        for _ in range(2):
            shape = rng.randrange(3)
            if shape == 0:
                lines.append(f"{name} :- e{i}, {name}[add: h{i}].")
            elif shape == 1 and same:
                lines.append(f"{name} :- {rng.choice(same)}, e{i}.")
            elif shape == 2 and below:
                lines.append(f"{name} :- d{i}, ~{rng.choice(below)}.")
            else:
                lines.append(f"{name} :- e{i}.")
    return "\n".join(lines) + "\n"
