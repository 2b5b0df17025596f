"""Seeded synthetic labeled-graph generators for the benchmark workloads.

The SIGMOD evaluation ran on large real graphs that the thesis text does not
identify; these generators are the substitution for them.
They produce graphs with controllable size, density, and label skew so the
benchmarks can sweep the regimes where the paper's theorems predict
crossovers (overlap density drives the MNI-vs-MIS gap; occurrence count
drives the linear-vs-NP-hard runtime split).

All generators take an explicit ``seed`` and are fully deterministic.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..errors import DatasetError
from ..graph.labeled_graph import LabeledGraph
from ..graph.pattern import Pattern
from ..isomorphism.vf2 import find_subgraph_isomorphisms

DEFAULT_ALPHABET = ("A", "B", "C", "D")


def _label_chooser(
    rng: random.Random, alphabet: Sequence[str], skew: float
) -> "random.Random.choices":
    """Return a function drawing labels with geometric skew.

    ``skew = 0`` is uniform; larger skew concentrates mass on the first
    labels (realistic label distributions are heavy-headed).
    """
    weights = [(1.0 + skew) ** (-i) for i in range(len(alphabet))]

    def choose() -> str:
        return rng.choices(alphabet, weights=weights, k=1)[0]

    return choose


def random_labeled_graph(
    num_vertices: int,
    edge_probability: float,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    seed: int = 0,
    label_skew: float = 0.0,
    name: str = "",
) -> LabeledGraph:
    """Erdős–Rényi ``G(n, p)`` with labels drawn from ``alphabet``."""
    if num_vertices < 0:
        raise DatasetError("num_vertices must be non-negative")
    if not 0.0 <= edge_probability <= 1.0:
        raise DatasetError("edge_probability must be in [0, 1]")
    rng = random.Random(seed)
    choose = _label_chooser(rng, alphabet, label_skew)
    graph = LabeledGraph(name=name or f"er{num_vertices}p{edge_probability}")
    for i in range(num_vertices):
        graph.add_vertex(i, choose())
    for i in range(num_vertices):
        for j in range(i + 1, num_vertices):
            if rng.random() < edge_probability:
                graph.add_edge(i, j)
    return graph


def preferential_attachment_graph(
    num_vertices: int,
    edges_per_vertex: int,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    seed: int = 0,
    label_skew: float = 0.0,
    name: str = "",
) -> LabeledGraph:
    """Barabási–Albert-style preferential attachment (heavy-tailed degrees).

    Heavy-tailed graphs are the regime where MNI over-counts the most:
    hubs create many partially-overlapping occurrences (the Fig. 6
    phenomenon at scale).
    """
    if edges_per_vertex < 1:
        raise DatasetError("edges_per_vertex must be >= 1")
    if num_vertices <= edges_per_vertex:
        raise DatasetError("num_vertices must exceed edges_per_vertex")
    rng = random.Random(seed)
    choose = _label_chooser(rng, alphabet, label_skew)
    graph = LabeledGraph(name=name or f"ba{num_vertices}m{edges_per_vertex}")
    # Seed clique of m+1 vertices.
    targets: List[int] = []
    for i in range(edges_per_vertex + 1):
        graph.add_vertex(i, choose())
    for i in range(edges_per_vertex + 1):
        for j in range(i + 1, edges_per_vertex + 1):
            graph.add_edge(i, j)
            targets.extend((i, j))
    for new_vertex in range(edges_per_vertex + 1, num_vertices):
        graph.add_vertex(new_vertex, choose())
        chosen = set()
        while len(chosen) < edges_per_vertex:
            chosen.add(rng.choice(targets))
        for target in chosen:
            graph.add_edge(new_vertex, target)
            targets.extend((new_vertex, target))
    return graph


def planted_pattern_graph(
    pattern: Pattern,
    num_copies: int,
    background_vertices: int = 0,
    background_edge_probability: float = 0.0,
    overlap_fraction: float = 0.0,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    seed: int = 0,
    name: str = "",
) -> LabeledGraph:
    """Plant ``num_copies`` of ``pattern``, optionally sharing vertices.

    ``overlap_fraction`` is the probability that a planted copy reuses one
    vertex of the previously planted copy (welding instances together);
    this directly controls the overlap-graph density and hence the gap
    between MIS and the image-based measures.  Background noise vertices
    and edges are added afterwards without touching planted labels.
    """
    if num_copies < 0:
        raise DatasetError("num_copies must be non-negative")
    if not 0.0 <= overlap_fraction <= 1.0:
        raise DatasetError("overlap_fraction must be in [0, 1]")
    rng = random.Random(seed)
    graph = LabeledGraph(name=name or f"planted{num_copies}x{pattern.num_nodes}")
    next_id = 0
    previous_copy: List[int] = []
    pattern_nodes = pattern.nodes()
    for _ in range(num_copies):
        mapping = {}
        weld_node: Optional[object] = None
        if previous_copy and rng.random() < overlap_fraction:
            # Reuse one vertex of the previous copy for the matching node.
            weld_index = rng.randrange(len(pattern_nodes))
            weld_node = pattern_nodes[weld_index]
            mapping[weld_node] = previous_copy[weld_index]
        for node in pattern_nodes:
            if node in mapping:
                continue
            mapping[node] = next_id
            graph.add_vertex(next_id, pattern.label_of(node))
            next_id += 1
        for u, v in pattern.edges():
            if not graph.has_edge(mapping[u], mapping[v]):
                graph.add_edge(mapping[u], mapping[v])
        previous_copy = [mapping[node] for node in pattern_nodes]
    # Background noise with labels outside the planted alphabet where
    # possible, so the planted occurrence structure is preserved.
    noise_labels = [lbl for lbl in alphabet] or ["noise"]
    first_noise = next_id
    for _ in range(background_vertices):
        graph.add_vertex(next_id, f"bg_{rng.choice(noise_labels)}")
        next_id += 1
    noise_ids = list(range(first_noise, next_id))
    for i, u in enumerate(noise_ids):
        for v in noise_ids[i + 1:]:
            if rng.random() < background_edge_probability:
                graph.add_edge(u, v)
    return graph


def community_graph(
    num_communities: int,
    community_size: int,
    intra_probability: float = 0.5,
    inter_probability: float = 0.01,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    seed: int = 0,
    name: str = "",
) -> LabeledGraph:
    """A planted-partition (stochastic block) labeled graph."""
    if num_communities < 1 or community_size < 1:
        raise DatasetError("community counts must be positive")
    rng = random.Random(seed)
    choose = _label_chooser(rng, alphabet, 0.0)
    graph = LabeledGraph(name=name or f"sbm{num_communities}x{community_size}")
    total = num_communities * community_size
    for i in range(total):
        graph.add_vertex(i, choose())
    for i in range(total):
        for j in range(i + 1, total):
            same = (i // community_size) == (j // community_size)
            probability = intra_probability if same else inter_probability
            if rng.random() < probability:
                graph.add_edge(i, j)
    return graph


def graph_with_occurrence_count(
    pattern: Pattern,
    target_occurrences: int,
    overlap_fraction: float = 0.3,
    seed: int = 0,
    max_rounds: int = 60,
) -> LabeledGraph:
    """Grow a planted graph until the pattern has >= ``target_occurrences``.

    Used by the runtime-scaling benchmark, which needs graphs indexed by
    occurrence count rather than vertex count.
    """
    copies = max(1, target_occurrences // 2)
    for round_index in range(max_rounds):
        graph = planted_pattern_graph(
            pattern,
            num_copies=copies,
            overlap_fraction=overlap_fraction,
            seed=seed + round_index,
        )
        count = sum(1 for _ in find_subgraph_isomorphisms(pattern, graph))
        if count >= target_occurrences:
            return graph
        copies = max(copies + 1, int(copies * 1.5))
    raise DatasetError(
        f"could not reach {target_occurrences} occurrences within "
        f"{max_rounds} growth rounds"
    )
