"""Automorphism groups, vertex orbits, and transitive node subsets.

These are the ingredients of the MI measure (Section 3.2):

* Definition 3.2.2 — a pair ``(u, v)`` is *transitive* in a graph when some
  automorphism maps ``u`` to ``v``.  Transitivity is an equivalence relation
  (Theorem 3.1), so its classes are exactly the **orbits** of the
  automorphism group.
* Definition 3.2.3 — a *transitive node subset* of a pattern is a node set
  in which every pair is transitive, i.e. a subset of one orbit.
* The MI measure minimizes over transitive node subsets of **subpatterns**
  of ``P`` (Definition 3.2.4).  Following the paper's own examples (Figs. 4,
  9, 10) we enumerate orbits of *connected* subpatterns: edgeless
  subpatterns must be excluded because they would collapse structural
  overlap onto simple overlap and break Figure 10 (``tests/test_figures.py``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..isomorphism.vf2 import Mapping, find_isomorphisms
from .labeled_graph import LabeledGraph, Vertex
from .pattern import Pattern


def automorphisms(graph: LabeledGraph) -> List[Mapping]:
    """All automorphisms of ``graph`` (Def. 2.1.6), identity included."""
    return list(find_isomorphisms(graph, graph))


def automorphism_group_size(graph: LabeledGraph) -> int:
    """``|Aut(G)|``."""
    return sum(1 for _ in find_isomorphisms(graph, graph))


def is_transitive_pair(graph: LabeledGraph, u: Vertex, v: Vertex) -> bool:
    """True when some automorphism of ``graph`` maps ``u`` to ``v``.

    ``u == v`` is always transitive via the identity (the paper notes the
    pair may be equal).
    """
    if u == v:
        return graph.has_vertex(u)
    if graph.label_of(u) != graph.label_of(v):
        return False
    if graph.degree(u) != graph.degree(v):
        return False
    return any(auto[u] == v for auto in find_isomorphisms(graph, graph))


def vertex_orbits(graph: LabeledGraph) -> List[FrozenSet[Vertex]]:
    """The orbits of ``Aut(graph)`` acting on the vertex set.

    By Theorem 3.1 transitivity is transitive, so the maximal transitive
    node subsets are exactly these orbits.
    """
    parent: Dict[Vertex, Vertex] = {v: v for v in graph.vertices()}

    def find(x: Vertex) -> Vertex:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: Vertex, b: Vertex) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for auto in find_isomorphisms(graph, graph):
        for u, v in auto.items():
            union(u, v)

    groups: Dict[Vertex, Set[Vertex]] = {}
    for v in graph.vertices():
        groups.setdefault(find(v), set()).add(v)
    return sorted(
        (frozenset(g) for g in groups.values()),
        key=lambda s: sorted(map(repr, s)),
    )


def transitive_node_subsets(
    pattern: Pattern,
    max_subpattern_size: Optional[int] = None,
    induced: bool = True,
    include_partial: bool = False,
) -> List[FrozenSet[Vertex]]:
    """Every transitive node subset of every connected subpattern of ``pattern``.

    This is the collection ``T`` of Definition 3.2.4.  For each connected
    subpattern ``p`` of ``pattern`` we compute the orbits of ``Aut(p)``;
    each orbit is a transitive node subset.  All singletons are always
    present (they are orbits of one-node subpatterns), which is what makes
    ``sigma_MI <= sigma_MNI`` (Theorem 3.4).

    Parameters
    ----------
    max_subpattern_size:
        Cap on the subpattern node count to bound work on larger patterns;
        ``None`` enumerates everything.
    induced:
        Restrict to induced connected subpatterns (default, sufficient for
        every example in the paper).  With ``False``, all connected edge
        subsets are considered as well — strictly more subsets, strictly
        smaller (or equal) MI, still anti-monotonic.
    include_partial:
        Also include every sub-subset of each orbit (any subset of an orbit
        is itself transitive).  The minimum image count is always achieved
        on a full orbit or a singleton, so this defaults to off; it exists
        for the structural-overlap machinery which asks about *pairs*.

    Returns
    -------
    Deterministically ordered list of frozensets of pattern nodes.
    """
    subsets: Set[FrozenSet[Vertex]] = set()
    for node in pattern.nodes():
        subsets.add(frozenset([node]))
    for subpattern in pattern.connected_subpatterns(
        max_size=max_subpattern_size, induced=induced
    ):
        for orbit in vertex_orbits(subpattern.graph):
            subsets.add(orbit)
            if include_partial and len(orbit) > 2:
                # All 2-subsets of an orbit; enough for pairwise queries.
                members = sorted(orbit, key=repr)
                for i in range(len(members)):
                    for j in range(i + 1, len(members)):
                        subsets.add(frozenset((members[i], members[j])))
    return sorted(subsets, key=lambda s: (len(s), sorted(map(repr, s))))


def transitive_pairs(
    pattern: Pattern, max_subpattern_size: Optional[int] = None
) -> Set[Tuple[Vertex, Vertex]]:
    """All ordered pairs ``(u, w)`` transitive in some connected subpattern.

    Used by the structural-overlap test (Definition 4.5.2).  The result is
    symmetric and includes the diagonal ``(u, u)``.
    """
    pairs: Set[Tuple[Vertex, Vertex]] = set()
    for node in pattern.nodes():
        pairs.add((node, node))
    for subset in transitive_node_subsets(
        pattern, max_subpattern_size=max_subpattern_size
    ):
        members = sorted(subset, key=repr)
        for u in members:
            for w in members:
                pairs.add((u, w))
    return pairs
