"""Occurrence tables: one-edge steps, VF2-order decoding, the miner's table path.

The miner's serial indexed path extends each candidate's parent table
instead of searching (``repro.isomorphism.table``).  The steps must be
complete and sound, decoding must reproduce the VF2 enumeration element
for element, and mining through tables must equal the brute-force miner.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.synthetic import planted_pattern_graph, random_labeled_graph
from repro.datasets.zoo import zoo_graph, zoo_names
from repro.graph.builders import path_pattern, star_pattern
from repro.graph.labeled_graph import LabeledGraph
from repro.hypergraph.construction import HypergraphBundle
from repro.index import IndexMaintainer, get_index
from repro.isomorphism.matcher import find_occurrences
from repro.isomorphism.table import OccurrenceTable, growth_step
from repro.measures.base import compute_support
from repro.measures.mni import mni_support_from_occurrences
from repro.mining.miner import mine_frequent_patterns
from repro.mining.spec import MiningSpec


def table_of(pattern, graph, limit=None):
    occurrences = find_occurrences(pattern, graph, limit=limit)
    index = get_index(graph)
    return OccurrenceTable.from_occurrences(index, pattern, occurrences, limit)


def grown(parent, child, graph):
    return table_of(parent, graph).extend(growth_step(parent, child))


def mined_key(result):
    return (
        result.certificates(),
        [fp.support for fp in result.frequent],
        [fp.num_occurrences for fp in result.frequent],
        result.stats.as_dict(),
    )


def assert_matches_brute(graph, **fields):
    spec = MiningSpec(**fields)
    indexed = mine_frequent_patterns(graph, spec=spec)
    brute = mine_frequent_patterns(graph, spec=spec.replace(use_index=False))
    assert mined_key(indexed) == mined_key(brute)
    return indexed


class TestSteps:
    def test_forward_extension_complete(self):
        # Parent A-B path, forward-extend v2 with an A neighbour: exactly
        # the occurrences of the A-B-A path, in VF2 order once decoded.
        graph = random_labeled_graph(10, 0.3, alphabet=("A", "B"), seed=4)
        parent = path_pattern(["A", "B"])
        child = path_pattern(["A", "B", "A"])
        extended = table_of(parent, graph).extend_forward("v2", "v3", "A")
        assert extended.decode(child) == find_occurrences(child, graph, index=False)

    def test_backward_extension_complete(self):
        graph = random_labeled_graph(9, 0.4, alphabet=("A",), seed=6)
        parent = path_pattern(["A", "A", "A"])
        child = parent.extend_with_edge("v1", "v3")  # triangle
        extended = table_of(parent, graph).extend_backward("v1", "v3")
        assert extended.decode(child) == find_occurrences(child, graph, index=False)

    def test_forward_respects_injectivity(self):
        graph = LabeledGraph(vertices=[(1, "A"), (2, "B")], edges=[(1, 2)])
        parent = path_pattern(["A", "B"])
        # Extending v2 with an A neighbour can only reuse vertex 1: blocked.
        extended = table_of(parent, graph).extend_forward("v2", "v3", "A")
        assert len(extended) == 0
        assert extended.decode(path_pattern(["A", "B", "A"])) == []
        assert extended.image_counts() == [0, 0, 0]

    def test_unknown_label_extends_to_nothing(self):
        graph = random_labeled_graph(10, 0.3, alphabet=("A", "B"), seed=4)
        extended = table_of(path_pattern(["A", "B"]), graph).extend_forward(
            "v1", "v3", "Z"
        )
        assert len(extended) == 0

    def test_new_column_kept_where_it_was_added(self):
        # v10 sorts before v2 by repr; the table must not re-derive columns.
        graph = random_labeled_graph(12, 0.3, alphabet=("A", "B"), seed=8)
        parent = path_pattern(["A", "B"])
        child = parent.extend_with_node("v2", "v10", "A")
        extended = grown(parent, child, graph)
        assert extended.columns == ("v1", "v2", "v10")
        assert child.nodes() == ["v1", "v10", "v2"]
        assert extended.decode(child) == find_occurrences(child, graph, index=False)

    def test_growth_step_forward_and_backward(self):
        parent = path_pattern(["A", "B", "A"])
        forward = parent.extend_with_node("v2", "v4", "C")
        backward = parent.extend_with_edge("v3", "v1")
        assert growth_step(parent, forward) == ("forward", "v2", "v4", "C")
        assert growth_step(parent, backward) == ("backward", "v1", "v3")


class TestDecode:
    @pytest.mark.parametrize("limit", [0, 1, 3, 7])
    def test_truncation_equals_limited_search(self, limit):
        # A-A edges and an A-star: automorphic patterns, many rows per
        # instance, so the order really has to match VF2's.
        graph = random_labeled_graph(14, 0.35, alphabet=("A", "B"), seed=2)
        parent = path_pattern(["A", "A"])
        child = parent.extend_with_node("v1", "v3", "A")
        full = grown(parent, child, graph)
        expected = find_occurrences(child, graph, limit=limit, index=False)
        truncated = full.truncated(child, limit)
        assert truncated.decode(child) == expected
        assert full.decode(child, limit) == expected
        assert truncated.complete is False

    def test_image_counts_are_mni(self):
        graph = random_labeled_graph(16, 0.3, alphabet=("A", "B"), seed=5)
        parent = star_pattern("A", ["B"])
        child = parent.extend_with_node("v1", "v3", "B")
        table = grown(parent, child, graph)
        occurrences = find_occurrences(child, graph, index=False)
        assert min(table.image_counts()) == mni_support_from_occurrences(
            child, occurrences
        )

    def test_canonical_order_through_patched_index(self):
        # A patch appends the new vertex's slot last although its repr
        # sorts first, so row order must come from canonical ranks.
        graph = random_labeled_graph(12, 0.35, alphabet=("A", "B"), seed=3)
        maintainer = IndexMaintainer(graph)
        anchors = graph.vertices_with_label("B")
        graph.add_vertex("patched", "A")
        for anchor in sorted(anchors, key=repr)[:3]:
            graph.add_edge("patched", anchor)
        assert maintainer.index() is get_index(graph)
        parent = path_pattern(["A", "B"])
        child = parent.extend_with_node("v2", "v3", "A")
        table = grown(parent, child, graph)
        decoded = table.decode(child)
        assert any(occ.image_of("v1") == "patched" for occ in decoded)
        assert decoded == find_occurrences(child, graph, index=False)


    def test_concurrent_decoders_share_one_rank_memo(self):
        # Service readers decode over one snapshot's index from several
        # threads; the lazily built rank memo must never be seen half
        # filled.  Patched-in vertices whose reprs sort first make the
        # ranks differ from raw vints almost everywhere.
        graph = random_labeled_graph(600, 0.004, alphabet=("A", "B"), seed=11)
        maintainer = IndexMaintainer(graph)
        anchors = sorted(graph.vertices_with_label("B"), key=repr)
        for i in range(300):
            graph.add_vertex(f"p{i}", "A")
            graph.add_edge(f"p{i}", anchors[i % len(anchors)])
        index = maintainer.index()
        parent = path_pattern(["A", "B"])
        child = parent.extend_with_node("v2", "v3", "A")
        table = grown(parent, child, graph)
        expected = find_occurrences(child, graph, index=False)
        readers = 6  # more than cores; staggered starts overlap the build
        outcomes = []

        def read():
            try:
                outcomes.append(table.decode(child) == expected)
            except Exception as exc:  # noqa: BLE001 - reported below
                outcomes.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(25):
                index._reset_memos()  # the next decodes race to build it
                threads = [threading.Thread(target=read) for _ in range(readers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == [True] * (25 * readers)


class TestBundle:
    def test_bundle_grows_from_parent_table(self):
        graph = random_labeled_graph(14, 0.3, alphabet=("A", "B"), seed=9)
        parent = path_pattern(["A", "B"])
        child = parent.extend_with_node("v1", "v3", "B")
        bundle = HypergraphBundle.build(
            child,
            graph,
            parent=table_of(parent, graph),
            step=growth_step(parent, child),
        )
        expected = find_occurrences(child, graph, index=False)
        assert bundle.num_occurrences == len(expected)
        assert compute_support("mni", child, graph, bundle=bundle) == float(
            mni_support_from_occurrences(child, expected)
        )
        assert bundle.occurrences == expected

    def test_limit_keeps_the_rows_a_limited_search_keeps(self):
        graph = random_labeled_graph(14, 0.35, alphabet=("A",), seed=1)
        parent = path_pattern(["A", "A"])
        child = parent.extend_with_node("v2", "v3", "A")
        bundle = HypergraphBundle.build(
            child,
            graph,
            limit=3,
            parent=table_of(parent, graph),
            step=growth_step(parent, child),
        )
        assert bundle.occurrences == find_occurrences(
            child, graph, limit=3, index=False
        )
        assert bundle.table.complete is False

    def test_incomplete_parent_is_refused(self):
        graph = random_labeled_graph(14, 0.35, alphabet=("A",), seed=1)
        parent = path_pattern(["A", "A"])
        child = parent.extend_with_node("v2", "v3", "A")
        truncated = table_of(parent, graph, limit=2)
        assert truncated.complete is False
        with pytest.raises(ValueError):
            HypergraphBundle.build(
                child, graph, parent=truncated, step=growth_step(parent, child)
            )


class TestTablePathMining:
    """Mining through tables equals the brute-force miner."""

    @pytest.mark.parametrize("name", zoo_names())
    def test_matches_brute_on_zoo(self, name):
        assert_matches_brute(
            zoo_graph(name),
            measure="mni",
            min_support=2,
            max_pattern_nodes=3,
            max_pattern_edges=3,
        )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1_000))
    def test_matches_brute_on_random(self, seed):
        graph = random_labeled_graph(10, 0.25, alphabet=("A", "B"), seed=seed)
        assert_matches_brute(
            graph,
            measure="mni",
            min_support=2,
            max_pattern_nodes=4,
            max_pattern_edges=4,
        )

    def test_occurrence_counts_match_brute(self):
        pattern = star_pattern("A", ["B", "B"])
        graph = planted_pattern_graph(
            pattern, num_copies=6, overlap_fraction=0.4, seed=2
        )
        result = assert_matches_brute(
            graph, measure="mni", min_support=2, max_pattern_nodes=3
        )
        assert any(fp.num_occurrences > 0 for fp in result.frequent)

    @pytest.mark.parametrize("measure", ["mi", "mis"])
    def test_works_with_other_measures(self, measure):
        result = assert_matches_brute(
            zoo_graph("disjoint_triangles"),
            measure=measure,
            min_support=3,
            max_pattern_nodes=3,
        )
        assert result.num_frequent == 3
