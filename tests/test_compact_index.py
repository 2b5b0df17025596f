"""Compact-core tests: LabelTable interning, CSR patching, footprint model.

Every decoded query of the index must equal the answer computed from the
``LabeledGraph`` itself, and its O(delta) CSR splices must land exactly
where a from-scratch rebuild would put them — under randomized mixed
insert/delete/window churn, not just single-delta unit cases.  The
intern table may keep tombstones while patching (slots are never
recycled) but a rebuild must shed them.
"""

from __future__ import annotations

import random
import sys

import pytest

import repro
import repro.index
from repro.datasets.synthetic import random_labeled_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.index import (
    CompactGraphIndex,
    GraphIndex,
    IndexMaintainer,
    LabelTable,
    MaintainableIndex,
    get_index,
    projected_index_nbytes,
    resolve_index,
)
from repro.index.graph_index import _label_pair_key


def decoded_view(index, graph):
    """Every decoded query the rest of the library can ask an index."""
    labels = graph.label_alphabet()
    return {
        "hist": index.label_histogram(),
        "adj_pairs": index.adjacent_label_pairs(),
        "pairs": index.distinct_edge_label_pairs(),
        "deg": {v: index.degree_of(v) for v in graph.vertices()},
        "sig": {v: index.signature_of(v) for v in graph.vertices()},
        "inv": {label: index.vertices_with_label(label) for label in labels},
        "nwl": {
            (v, label): index.neighbors_with_label(v, label)
            for v in graph.vertices()
            for label in labels
        },
        "edges": {
            pair: index.edges_with_labels(*pair)
            for pair in index.distinct_edge_label_pairs()
        },
    }


def graph_view(graph):
    """The same queries answered from the ``LabeledGraph`` itself.

    This is the oracle the index must reproduce exactly: every vertex and
    edge sequence sorted by ``repr``, every count taken from adjacency.
    """

    def by_repr(items):
        return tuple(sorted(items, key=repr))

    labels = graph.label_alphabet()
    label_of = graph.label_of
    edges = {}
    for u, v in graph.edges():
        edges.setdefault(_label_pair_key(label_of(u), label_of(v)), []).append((u, v))
    signatures = {}
    for vertex in graph.vertices():
        counts = {}
        for neighbor in graph.neighbors(vertex):
            counts[label_of(neighbor)] = counts.get(label_of(neighbor), 0) + 1
        signatures[vertex] = counts
    return {
        "hist": graph.label_histogram(),
        "adj_pairs": frozenset(
            pair
            for u, v in graph.edges()
            for pair in ((label_of(u), label_of(v)), (label_of(v), label_of(u)))
        ),
        "pairs": sorted(edges, key=repr),
        "deg": {vertex: graph.degree(vertex) for vertex in graph.vertices()},
        "sig": signatures,
        "inv": {label: by_repr(graph.vertices_with_label(label)) for label in labels},
        "nwl": {
            (v, label): by_repr(graph.neighbors_with_label(v, label))
            for v in graph.vertices()
            for label in labels
        },
        "edges": {pair: by_repr(members) for pair, members in edges.items()},
    }


class TestLabelTable:
    def test_interns_in_canonical_order(self):
        table = LabelTable(["b", "a", "c"], ["Y", "X"])
        assert list(table.vertex_of) == ["b", "a", "c"]
        assert list(table.label_of) == ["Y", "X"]
        assert table.vint("a") == 1
        assert table.lint("X") == 1
        assert table.lint("Z") is None

    def test_intern_appends_and_revives(self):
        table = LabelTable(["a"], ["X"])
        assert table.intern_vertex("b") == 1
        assert table.intern_vertex("b") == 1  # idempotent
        assert table.intern_label("Y") == 1
        assert table.entries == 4

    def test_nbytes_positive(self):
        table = LabelTable(["a", "b"], ["X"])
        assert table.nbytes() > 0


class TestSingleIndex:
    """One index class; ``resolve_index`` maps every request onto it."""

    def test_graph_index_is_the_compact_class(self):
        assert GraphIndex is CompactGraphIndex
        assert repro.GraphIndex is CompactGraphIndex
        assert issubclass(CompactGraphIndex, MaintainableIndex)
        for retired in ("set_index_backend", "index_backend"):
            assert not hasattr(repro.index, retired)

    def test_resolve_index_brute_and_default_requests(self):
        graph = random_labeled_graph(12, 0.3, alphabet=("A", "B"), seed=5)
        assert resolve_index(graph, False) is None
        cached = get_index(graph)
        assert isinstance(cached, CompactGraphIndex)
        assert resolve_index(graph, None) is cached
        assert resolve_index(graph, True) is cached

    def test_resolve_index_replaces_stale_or_foreign_index(self):
        graph = random_labeled_graph(12, 0.3, alphabet=("A", "B"), seed=5)
        other = random_labeled_graph(12, 0.3, alphabet=("A", "B"), seed=6)
        explicit = CompactGraphIndex.build(graph)
        assert resolve_index(graph, explicit) is explicit
        foreign = CompactGraphIndex.build(other)
        assert resolve_index(graph, foreign) is get_index(graph)
        graph.add_vertex("fresh", "A")
        assert not explicit.is_current()
        fresh = resolve_index(graph, explicit)
        assert fresh is not explicit
        assert fresh.is_current()
        assert "fresh" in fresh.vertices_with_label("A")


class TestCompactFootprint:
    def test_compact_smaller_than_adjacency_sets(self):
        # The index holds adjacency, inverted lists and label-pair edge
        # lists, yet its flat arrays undercut a plain dict-of-sets
        # adjacency of the same graph.
        graph = random_labeled_graph(40, 0.2, alphabet=("A", "B", "C"), seed=11)
        adjacency = {v: set(graph.neighbors(v)) for v in graph.vertices()}
        adjacency_bytes = sys.getsizeof(adjacency) + sum(
            sys.getsizeof(members) for members in adjacency.values()
        )
        assert CompactGraphIndex(graph).nbytes() < 0.75 * adjacency_bytes

    def test_projected_footprint_tracks_nbytes(self):
        # The projection is the pager's cost model: it must land within a
        # small constant factor of the measured footprint.
        for seed, size, p in ((3, 30, 0.2), (7, 80, 0.12), (19, 150, 0.08)):
            graph = random_labeled_graph(
                size, p, alphabet=("A", "B", "C", "D"), seed=seed
            )
            projected = projected_index_nbytes(
                graph.num_vertices, graph.num_edges, len(graph.label_alphabet())
            )
            measured = CompactGraphIndex(graph).nbytes()
            assert measured / 3 <= projected <= measured * 3

    def test_intern_entries_counts_table(self):
        graph = random_labeled_graph(15, 0.3, alphabet=("A", "B"), seed=2)
        index = CompactGraphIndex(graph)
        assert index.intern_entries() == graph.num_vertices + len(
            graph.label_alphabet()
        )


def _random_mutation(rng: random.Random, graph: LabeledGraph, next_id: list) -> None:
    vertices = sorted(graph.vertices(), key=repr)
    roll = rng.random()
    if roll < 0.30 or graph.num_vertices < 4:
        vertex = f"n{next_id[0]}"
        next_id[0] += 1
        graph.add_vertex(vertex, rng.choice("ABCD"))
        if vertices and rng.random() < 0.8:
            graph.add_edge(vertex, rng.choice(vertices))
    elif roll < 0.60:
        u, v = rng.sample(vertices, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
    elif roll < 0.85:
        edges = graph.edges()
        if edges:
            graph.remove_edge(*rng.choice(edges))
    else:
        vertex = rng.choice(vertices)
        graph.remove_vertex(vertex)


class TestCompactChurn:
    """CSR-patched == rebuilt == graph oracle under randomized mixed churn."""

    @pytest.mark.parametrize("seed", [1, 2, 5, 9, 14, 23, 31, 47])
    def test_patched_matches_rebuilt(self, seed):
        rng = random.Random(seed)
        graph = random_labeled_graph(
            10, 0.3, alphabet=("A", "B", "C"), seed=seed
        )
        patched = CompactGraphIndex(graph)
        pending = []
        graph.subscribe(pending.append)
        next_id = [0]
        for step in range(120):
            _random_mutation(rng, graph, next_id)
            for delta in pending:
                assert patched.apply_delta(delta)
            pending.clear()
            assert patched.is_current()
            if step % 20 == 19:
                rebuilt = patched.rebuilt()
                expected = graph_view(graph)
                assert decoded_view(patched, graph) == expected
                assert decoded_view(rebuilt, graph) == expected

    @pytest.mark.parametrize("seed", [6, 18, 27])
    def test_window_stream_and_intern_compaction(self, seed):
        """Sliding-window churn: adds followed by expiry of the oldest.

        While patching, retired slots stay tombstoned (never recycled);
        a rebuild re-interns from scratch, so the fresh table must hold
        exactly the live vertices and labels — no leaked retirees.
        """
        rng = random.Random(seed)
        graph = LabeledGraph(name="window")
        index = CompactGraphIndex(graph)
        pending = []
        graph.subscribe(pending.append)
        window = []
        for step in range(80):
            vertex = f"w{step}"
            graph.add_vertex(vertex, rng.choice("AB"))
            if window and rng.random() < 0.9:
                graph.add_edge(vertex, rng.choice(window))
            window.append(vertex)
            if len(window) > 12:
                graph.remove_vertex(window.pop(0))
            for delta in pending:
                assert index.apply_delta(delta)
            pending.clear()
        assert index.is_current()
        live = graph.num_vertices + len(graph.label_alphabet())
        assert index.intern_entries() > live  # tombstones accumulated
        rebuilt = index.rebuilt()
        assert rebuilt.intern_entries() == live  # rebuild sheds them
        assert decoded_view(rebuilt, graph) == decoded_view(index, graph)
        assert decoded_view(index, graph) == graph_view(graph)

    def test_maintainer_patches_compact_index(self):
        graph = random_labeled_graph(12, 0.3, alphabet=("A", "B"), seed=4)
        maintainer = IndexMaintainer(graph)
        assert isinstance(maintainer.index(), CompactGraphIndex)
        anchor = sorted(graph.vertices(), key=repr)[0]
        graph.add_vertex("fresh", "A")
        graph.add_edge("fresh", anchor)
        index = maintainer.index()
        assert index.is_current()
        assert "fresh" in index.vertices_with_label("A")
        assert maintainer.patches_applied >= 1


class TestSegmentSetMemo:
    def test_memo_invalidated_by_patch(self):
        graph = random_labeled_graph(10, 0.4, alphabet=("A", "B"), seed=8)
        index = CompactGraphIndex(graph)
        vertex = sorted(graph.vertices())[0]
        vi = index.table.vint(vertex)
        li = index.table.lint("A")
        before = index._segment_set(vi, li)
        assert index._segment_set(vi, li) is before  # memoized
        pending = []
        graph.subscribe(pending.append)
        graph.add_vertex("zz", "A")
        graph.add_edge("zz", vertex)
        for delta in pending:
            index.apply_delta(delta)
        after = index._segment_set(vi, li)
        assert index.table.vint("zz") in after
        assert len(after) == len(before) + 1
