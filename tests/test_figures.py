"""Integration tests: every thesis figure reproduces its pinned values.

This is the per-figure index of ``repro.datasets.paper_figures`` made
executable — one test class per figure, asserting exactly what the thesis
text states.
"""

import pytest

from repro.datasets.paper_figures import (
    FIGURE3_EDGE_SETS,
    load_all_figures,
    load_figure,
)
from repro.graph.automorphism import transitive_node_subsets
from repro.hypergraph.construction import HypergraphBundle
from repro.hypergraph.hypergraph import dual_hypergraph
from repro.isomorphism.matcher import find_occurrences
from repro.measures.bounds import chain_values
from repro.measures.mvc import mvc_support_of


def figure_values(figure_id):
    fig = load_figure(figure_id)
    bundle = HypergraphBundle.build(fig.pattern, fig.data_graph)
    return fig, bundle, chain_values(fig.pattern, fig.data_graph, bundle=bundle)


class TestAllFiguresPinnedValues:
    """Every `expected` entry of every figure matches the computed value."""

    @pytest.mark.parametrize("figure_id", [f"fig{i}" for i in range(1, 11)])
    def test_expected_values(self, figure_id):
        fig, _bundle, values = figure_values(figure_id)
        special = {"super_occurrences", "super_mvc", "transitive_subsets"}
        for key, want in fig.expected.items():
            if key in special:
                continue
            assert values[key] == pytest.approx(want), (
                f"{figure_id}: {key} expected {want}, got {values[key]}"
            )


class TestFigure1:
    def test_four_hyperedges_and_dual(self):
        fig, bundle, _values = figure_values("fig1")
        assert bundle.occurrence_hg.num_edges == 4
        dual = dual_hypergraph(bundle.instance_hg)
        # One dual edge per data vertex appearing in an occurrence.
        assert dual.hypergraph.num_edges == bundle.instance_hg.num_vertices


class TestFigure2:
    def test_occurrence_table_is_all_permutations(self):
        fig = load_figure("fig2")
        occurrences = find_occurrences(fig.pattern, fig.data_graph)
        images = {
            tuple(occ.mapping[node] for node in fig.pattern.nodes())
            for occ in occurrences
        }
        import itertools

        assert images == set(itertools.permutations((1, 2, 3)))

    def test_single_instance_on_vertices_123(self):
        fig, bundle, _values = figure_values("fig2")
        assert bundle.instances[0].vertex_set == frozenset({1, 2, 3})


class TestFigure3:
    def test_hyperedge_sets_match_thesis(self):
        fig, bundle, _values = figure_values("fig3")
        got = {edge.vertices for edge in bundle.occurrence_hg.edges()}
        assert got == set(FIGURE3_EDGE_SETS)

    def test_occurrence_equals_instance_hypergraph(self):
        # Distinct labels -> trivial automorphism group -> identical views.
        fig, bundle, _values = figure_values("fig3")
        occ_sets = sorted(sorted(e.vertices) for e in bundle.occurrence_hg.edges())
        inst_sets = sorted(sorted(e.vertices) for e in bundle.instance_hg.edges())
        assert occ_sets == inst_sets

    def test_untouched_vertices_absent_from_hypergraph(self):
        fig, bundle, _values = figure_values("fig3")
        hypergraph_vertices = set(bundle.occurrence_hg.vertices())
        for vertex in (7, 12, 14, 18, 19, 20):
            assert vertex not in hypergraph_vertices


class TestFigure4:
    def test_occurrence_table(self):
        fig = load_figure("fig4")
        occurrences = find_occurrences(fig.pattern, fig.data_graph)
        tuples = {
            tuple(occ.mapping[n] for n in ("v1", "v2", "v3")) for occ in occurrences
        }
        assert tuples == {(1, 2, 3), (4, 3, 2)}

    def test_mni_2_mi_1(self):
        _fig, _bundle, values = figure_values("fig4")
        assert values["mni"] == 2
        assert values["mi"] == 1


class TestFigure5:
    def test_superpattern_occurrence_table(self):
        fig = load_figure("fig5")
        occurrences = find_occurrences(fig.superpattern, fig.data_graph)
        tuples = {
            tuple(occ.mapping[n] for n in ("v1", "v2", "v3", "v4"))
            for occ in occurrences
        }
        assert tuples == {
            (1, 2, 3, 5),
            (1, 2, 3, 6),
            (1, 3, 2, 4),
            (2, 1, 3, 5),
            (2, 1, 3, 6),
            (3, 1, 2, 4),
        }

    def test_mvc_stays_1_under_extension(self):
        fig = load_figure("fig5")
        sub = HypergraphBundle.build(fig.pattern, fig.data_graph)
        sup = HypergraphBundle.build(fig.superpattern, fig.data_graph)
        assert mvc_support_of(sub.occurrence_hg) == fig.expected["mvc"] == 1
        assert mvc_support_of(sup.occurrence_hg) == fig.expected["super_mvc"] == 1

    def test_every_measure_anti_monotone_through_extension(self):
        fig = load_figure("fig5")
        sub_values = chain_values(fig.pattern, fig.data_graph)
        sup_values = chain_values(fig.superpattern, fig.data_graph)
        for key in ("mni", "mi", "mvc", "mis", "mies", "lp_mvc", "lp_mies", "mcp"):
            assert sub_values[key] >= sup_values[key] - 1e-6, key


class TestFigure6:
    def test_headline_values(self):
        _fig, _bundle, values = figure_values("fig6")
        assert values["mis"] == 2
        assert values["mvc"] == 2
        assert values["mi"] == 4
        assert values["mni"] == 4

    def test_minimum_cover_is_1_and_8(self):
        from repro.measures.mvc import minimum_vertex_cover

        _fig, bundle, _values = figure_values("fig6")
        assert minimum_vertex_cover(bundle.occurrence_hg) == {1, 8}


class TestFigure7:
    def test_transitive_subset_family(self):
        fig = load_figure("fig7")
        subsets = {tuple(sorted(s)) for s in transitive_node_subsets(fig.pattern)}
        assert subsets == {
            ("v1",), ("v2",), ("v3",),
            ("v1", "v2"), ("v2", "v3"), ("v1", "v3"),
        }
        assert len(subsets) == fig.expected["transitive_subsets"]


class TestFigure8:
    def test_dual_hypergraph_edges(self):
        _fig, bundle, _values = figure_values("fig8")
        dual = dual_hypergraph(bundle.instance_hg)
        # Every data vertex lies on exactly two cycle edges.
        for vertex in (1, 2, 3, 4):
            assert len(dual.dual_edge(vertex)) == 2

    def test_mis_equals_mies_equals_2(self):
        _fig, _bundle, values = figure_values("fig8")
        assert values["mis"] == values["mies"] == 2


class TestFigure9And10:
    # Pairwise overlap relations are covered in tests/test_overlap.py; here
    # we assert the counts the figures print.
    def test_fig9_three_occurrences_mi_2(self):
        _fig, _bundle, values = figure_values("fig9")
        assert values["occurrences"] == 3
        assert values["mi"] == 2

    def test_fig10_three_occurrences(self):
        _fig, _bundle, values = figure_values("fig10")
        assert values["occurrences"] == 3


class TestFigureLoader:
    def test_load_all_returns_ten(self):
        assert len(load_all_figures()) == 10

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            load_figure("fig99")
