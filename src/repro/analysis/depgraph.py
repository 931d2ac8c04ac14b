"""Predicate dependency graphs.

For stratification analysis we need the graph whose nodes are predicate
symbols and whose edges record that the head predicate of a rule
*depends on* a body predicate, labelled by the kind of occurrence
(Definition 4 of the paper): positive, negative, or hypothetical.
Predicates appearing only in the *addition* part of a hypothetical
premise do not create edges — insertions are updates, not dependencies.

The strongly connected components of this graph are the paper's
equivalence classes of mutually recursive predicates (used by
Definition 8, linearity, and by the Lemma 1 tests).  Tarjan's algorithm
is implemented iteratively so deep rulebases do not hit Python's
recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..core.ast import Rulebase

__all__ = ["Edge", "DependencyGraph"]


@dataclass(frozen=True, slots=True)
class Edge:
    """``source`` (a rule head) depends on ``target`` (a body predicate)."""

    source: str
    target: str
    kind: str  # "positive" | "negative" | "hypothetical"


class DependencyGraph:
    """Labelled predicate dependency graph of a rulebase."""

    __slots__ = (
        "_nodes",
        "_edges",
        "_successors",
        "_sccs",
        "_component_of",
        "_scc_edge_kinds",
    )

    def __init__(self, nodes: Iterable[str], edges: Iterable[Edge]):
        self._nodes: frozenset[str] = frozenset(nodes)
        self._edges: tuple[Edge, ...] = tuple(edges)
        successors: dict[str, set[str]] = {node: set() for node in self._nodes}
        for edge in self._edges:
            successors.setdefault(edge.source, set()).add(edge.target)
            successors.setdefault(edge.target, set())
        self._successors = successors
        self._sccs: tuple[frozenset[str], ...] | None = None
        self._component_of: dict[str, frozenset[str]] | None = None
        self._scc_edge_kinds: dict[frozenset[str], frozenset[str]] | None = None

    @classmethod
    def from_rulebase(cls, rulebase: Rulebase) -> "DependencyGraph":
        """Build the dependency graph of a rulebase.

        Nodes are every predicate mentioned anywhere (including
        EDB predicates and predicates occurring only in additions, so
        the graph's node set matches the rulebase's vocabulary).
        """
        edges: list[Edge] = []
        for item in rulebase:
            head = item.head.predicate
            for kind, target in item.body_predicates():
                edges.append(Edge(head, target, kind))
        return cls(rulebase.mentioned_predicates(), edges)

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def successors(self, node: str) -> frozenset[str]:
        return frozenset(self._successors.get(node, ()))

    # ------------------------------------------------------------------
    # Strongly connected components
    # ------------------------------------------------------------------

    def sccs(self) -> tuple[frozenset[str], ...]:
        """The strongly connected components in reverse topological order.

        "Reverse topological" means dependencies first: if component A
        depends on component B, then B appears before A.  This is the
        natural evaluation order for stratified fixpoints.
        """
        if self._sccs is None:
            self._sccs = tuple(self._tarjan())
        return self._sccs

    def component_of(self, node: str) -> frozenset[str]:
        """The mutual-recursion class containing ``node``."""
        if self._component_of is None:
            self._component_of = {}
            for component in self.sccs():
                for member in component:
                    self._component_of[member] = component
        try:
            return self._component_of[node]
        except KeyError:
            raise KeyError(f"unknown predicate {node!r}") from None

    def _tarjan(self) -> Iterator[frozenset[str]]:
        """Iterative Tarjan SCC; yields components dependencies-first."""
        index_counter = 0
        indices: dict[str, int] = {}
        lowlinks: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[frozenset[str]] = []

        for root in sorted(self._nodes):
            if root in indices:
                continue
            # Each frame: (node, iterator over successors)
            work: list[tuple[str, Iterator[str]]] = []
            indices[root] = lowlinks[root] = index_counter
            index_counter += 1
            stack.append(root)
            on_stack.add(root)
            work.append((root, iter(sorted(self._successors.get(root, ())))))
            while work:
                node, successors = work[-1]
                advanced = False
                for successor in successors:
                    if successor not in indices:
                        indices[successor] = lowlinks[successor] = index_counter
                        index_counter += 1
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append(
                            (successor, iter(sorted(self._successors.get(successor, ()))))
                        )
                        advanced = True
                        break
                    if successor in on_stack:
                        lowlinks[node] = min(lowlinks[node], indices[successor])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
                if lowlinks[node] == indices[node]:
                    component = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(frozenset(component))
        # Tarjan emits components dependencies-first already.
        return iter(components)

    # ------------------------------------------------------------------
    # Queries used by the stratification tests
    # ------------------------------------------------------------------

    def internal_edge_kinds(self, component: frozenset[str]) -> frozenset[str]:
        """The kinds of edges with both endpoints inside ``component``.

        For the graph's own components the answer comes from one pass
        over the edges that buckets every edge kind by component, so
        asking it of every component is linear in the graph size.
        """
        if self._scc_edge_kinds is None:
            buckets: dict[frozenset[str], set[str]] = {}
            owner: dict[str, set[str]] = {}
            for scc in self.sccs():
                kinds_of_scc = buckets[scc] = set()
                for member in scc:
                    owner[member] = kinds_of_scc
            for edge in self._edges:
                bucket = owner.get(edge.source)
                if bucket is not None and bucket is owner.get(edge.target):
                    bucket.add(edge.kind)
            self._scc_edge_kinds = {
                scc: frozenset(kinds) for scc, kinds in buckets.items()
            }
        kinds = self._scc_edge_kinds.get(component)
        if kinds is not None:
            return kinds
        return frozenset(
            edge.kind
            for edge in self._edges
            if edge.source in component and edge.target in component
        )

    def has_cycle_through(self, kind: str) -> bool:
        """True iff some mutual-recursion class contains a ``kind`` edge."""
        return any(kind in self.internal_edge_kinds(scc) for scc in self.sccs())

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dot(self, name: str = "dependencies") -> str:
        """Graphviz DOT rendering of the dependency graph.

        Positive edges are solid, negative edges dashed and labelled
        ``~``, hypothetical edges dotted and labelled ``[add]``.
        Predicates in the same mutual-recursion class share a cluster.
        """
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for index, component in enumerate(self.sccs()):
            if len(component) > 1:
                lines.append(f"  subgraph cluster_{index} {{")
                lines.append('    style=dashed; label="mutually recursive";')
                for node in sorted(component):
                    lines.append(f'    "{node}";')
                lines.append("  }")
            else:
                lines.append(f'  "{next(iter(component))}";')
        styles = {
            "positive": "",
            "negative": ' [style=dashed, label="~"]',
            "hypothetical": ' [style=dotted, label="[add]"]',
        }
        for edge in sorted(
            set(self._edges), key=lambda e: (e.source, e.target, e.kind)
        ):
            lines.append(
                f'  "{edge.source}" -> "{edge.target}"{styles[edge.kind]};'
            )
        lines.append("}")
        return "\n".join(lines)
