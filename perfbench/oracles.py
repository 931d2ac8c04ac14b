"""Independent answers for checking the program.

Brute force in the benchmark's own code wherever the problem is a
plain one (Hamiltonian paths, parity, colouring, reachability, the
university degree conditions); everything else is checked against the
program's top-down engine, chosen explicitly rather than through
``engine="auto"``.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

CORE_COURSES = ("his101", "eng201", "cs250")
MATH = ("alg1", "anal1")
PHYS = ("mech1", "em1")


def hamiltonian_path(nodes: Sequence[str], edges: Iterable[tuple[str, str]]) -> bool:
    """A directed path visiting every node once (DP over visited sets)."""
    index = {name: i for i, name in enumerate(nodes)}
    succ = [[] for _ in nodes]
    for a, b in edges:
        if a in index and b in index and a != b:
            succ[index[a]].append(index[b])
    full = (1 << len(nodes)) - 1
    if not nodes:
        return False
    # ends[mask] = bitset of endpoints of paths covering exactly ``mask``
    ends = [0] * (full + 1)
    for i in range(len(nodes)):
        ends[1 << i] |= 1 << i
    for mask in range(1, full + 1):
        here = ends[mask]
        if not here:
            continue
        for i in range(len(nodes)):
            if here >> i & 1:
                for j in succ[i]:
                    if not mask >> j & 1:
                        ends[mask | 1 << j] |= 1 << j
    return ends[full] != 0


def colorable(nodes: Sequence[str], edges: Iterable[tuple[str, str]], colors: int) -> bool:
    """Whether the undirected graph has a proper ``colors``-colouring."""
    index = {name: i for i, name in enumerate(nodes)}
    pairs = {
        (min(index[a], index[b]), max(index[a], index[b]))
        for a, b in edges
        if a in index and b in index
    }
    if any(a == b for a, b in pairs):
        return False
    for assignment in product(range(colors), repeat=len(nodes)):
        if all(assignment[a] != assignment[b] for a, b in pairs):
            return True
    return not nodes


def even(size: int) -> bool:
    return size % 2 == 0


def reach_pairs(edges: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """Transitive closure by breadth-first search from every node."""
    succ: dict[str, list[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    pairs = set()
    for start in succ:
        seen: set[str] = set()
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in succ.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        pairs.update((start, node) for node in seen)
    return frozenset(pairs)


def graduates(takes: Iterable[tuple[str, str]]) -> frozenset[str]:
    """Example 1: students holding every core course."""
    held: dict[str, set[str]] = {}
    for student, course in takes:
        held.setdefault(student, set()).add(course)
    return frozenset(s for s, courses in held.items() if set(CORE_COURSES) <= courses)


def within_one(students: Iterable[str], takes: Iterable[tuple[str, str]]) -> frozenset[str]:
    """Example 2: students at most one core course short.  The missing
    course is always available as a hypothesis, because the rules
    mention every core course."""
    held: dict[str, set[str]] = {}
    for student, course in takes:
        held.setdefault(student, set()).add(course)
    return frozenset(
        s for s in students if len(set(CORE_COURSES) - held.get(s, set())) <= 1
    )


def degree(held: frozenset[str], discipline: str) -> bool:
    """Example 3: ``grad(S, D)`` for one student holding ``held``."""
    if discipline == "math":
        return set(MATH) <= held
    if discipline == "phys":
        return set(PHYS) <= held
    return within1(held, "math") and within1(held, "phys")


def within1(held: frozenset[str], discipline: str) -> bool:
    """``grad(S, D)[add: take(S, C)]`` for some ``C``.  Only the four
    courses the rules name can matter, and since the rules name them
    they are always in the domain."""
    return any(degree(held | {course}, discipline) for course in MATH + PHYS)


def topdown_answer(rulebase, db, query: str):
    """The program's top-down engine, chosen explicitly."""
    from repro.engine.topdown import TopDownEngine

    return TopDownEngine(rulebase).ask(db, query)


def topdown_rows(rulebase, db, pattern: str):
    from repro.engine.topdown import TopDownEngine

    return TopDownEngine(rulebase).answers(db, pattern)
