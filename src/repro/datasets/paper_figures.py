"""Exact reconstructions of the data graphs and patterns of Figures 1-10.

Each ``figureN()`` returns a :class:`FigureExample` with the data graph, the
pattern(s), and the values the thesis text pins down for that figure.  The
integration tests assert every pinned value; the ``bench_figures`` benchmark
prints the full worksheets.

Where the thesis prose fully determines the example (Figs. 2, 4, 5, 6 give
occurrence tables; Figs. 9, 10 give the overlap relations), the
reconstruction is exact.  Where the figure is only a sketch (Figs. 1, 3, 7,
8 — shadings without printed adjacency), we build the example the caption
describes and assert the caption's claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..graph.labeled_graph import LabeledGraph
from ..graph.pattern import Pattern


@dataclass
class FigureExample:
    """One reconstructed figure: graph, pattern(s), and pinned expectations."""

    figure_id: str
    title: str
    data_graph: LabeledGraph
    pattern: Pattern
    expected: Dict[str, float] = field(default_factory=dict)
    superpattern: Optional[Pattern] = None
    notes: str = ""


def figure1() -> FigureExample:
    """Figure 1 — the hypergraph-framework sketch.

    A one-edge pattern (two distinct labels) in a 5-vertex data graph; the
    figure illustrates the occurrence hypergraph with four edges and its
    dual.  We reconstruct it as the alternating path 1-2-3-4-5, which has
    exactly four one-edge instances (e1..e4) and every framework object the
    figure draws.
    """
    data = LabeledGraph(
        vertices=[(1, "w"), (2, "d"), (3, "w"), (4, "d"), (5, "w")],
        edges=[(1, 2), (2, 3), (3, 4), (4, 5)],
        name="fig1-data",
    )
    pattern = Pattern.from_edges(
        [("v1", "w"), ("v2", "d")], [("v1", "v2")], name="fig1-pattern"
    )
    return FigureExample(
        figure_id="fig1",
        title="Hypergraph framework sketch (one-edge pattern)",
        data_graph=data,
        pattern=pattern,
        expected={
            "occurrences": 4,
            "instances": 4,
            "mni": 2,
            "mi": 2,
            "mvc": 2,
            "mis": 2,
            "mies": 2,
        },
        notes="Reconstruction: alternating 5-path; 4 hyperedges as in the sketch.",
    )


def figure2() -> FigureExample:
    """Figure 2 — MNI over-estimates: a triangle with 6 occurrences, 1 instance.

    Data graph: triangle {1,2,3} (one label) with pendant vertices 4-2, 5-1,
    6-3.  The occurrence table lists the 6 permutations of (1,2,3); every
    pattern node has 3 images, so MNI = 3 while there is a single instance
    and MIS = 1.
    """
    label = "a"
    data = LabeledGraph(
        vertices=[(i, label) for i in range(1, 7)],
        edges=[(1, 2), (2, 3), (1, 3), (2, 4), (1, 5), (3, 6)],
        name="fig2-data",
    )
    pattern = Pattern.from_edges(
        [("v1", label), ("v2", label), ("v3", label)],
        [("v1", "v2"), ("v2", "v3"), ("v1", "v3")],
        name="fig2-triangle",
    )
    return FigureExample(
        figure_id="fig2",
        title="MNI overestimates the count of a triangle pattern",
        data_graph=data,
        pattern=pattern,
        expected={
            "occurrences": 6,
            "instances": 1,
            "mni": 3,
            "mis": 1,
            "mies": 1,
            "mvc": 1,
        },
        notes="Occurrence table and counts printed verbatim in the thesis.",
    )


def figure3() -> FigureExample:
    """Figure 3 — occurrence/instance hypergraph of a labeled triangle.

    20-vertex data graph; the triangle pattern has three distinct labels so
    occurrences and instances coincide.  The thesis lists the hyperedges:
    e1={1,2,3}, e2={4,5,6}, e3={4,6,8}, e4={8,9,10}, e5={11,13,17},
    e6={11,15,16}.
    """
    labels = {
        1: "A", 2: "B", 3: "C",
        4: "A", 5: "B", 6: "C",
        8: "B", 9: "A", 10: "C",
        11: "A", 13: "B", 17: "C",
        15: "B", 16: "C",
        # Vertices outside any triangle occurrence:
        7: "B", 12: "C", 14: "A", 18: "A", 19: "B", 20: "A",
    }
    triangles = [
        (1, 2, 3),
        (4, 5, 6),
        (4, 6, 8),
        (8, 9, 10),
        (11, 13, 17),
        (11, 15, 16),
    ]
    edges = set()
    for a, b, c in triangles:
        edges.update(
            {tuple(sorted((a, b))), tuple(sorted((b, c))), tuple(sorted((a, c)))}
        )
    # Sparse extra structure that creates no new A-B-C triangle.
    edges.update({(4, 7), (11, 12), (13, 14), (18, 19), (19, 20)})
    data = LabeledGraph(
        vertices=sorted(labels.items()),
        edges=sorted(edges),
        name="fig3-data",
    )
    pattern = Pattern.from_edges(
        [("v1", "A"), ("v2", "B"), ("v3", "C")],
        [("v1", "v2"), ("v2", "v3"), ("v1", "v3")],
        name="fig3-triangle",
    )
    return FigureExample(
        figure_id="fig3",
        title="Occurrence/instance hypergraph of a triangular pattern",
        data_graph=data,
        pattern=pattern,
        expected={
            "occurrences": 6,
            "instances": 6,
            "mni": 4,
            "mi": 4,
            "mvc": 4,
            "mis": 4,
            "mies": 4,
        },
        notes="Hyperedge sets pinned by the thesis text; support values derived.",
    )


#: The six hyperedges the thesis lists for Figure 3, for direct assertion.
FIGURE3_EDGE_SETS = [
    frozenset({1, 2, 3}),
    frozenset({4, 5, 6}),
    frozenset({4, 6, 8}),
    frozenset({8, 9, 10}),
    frozenset({11, 13, 17}),
    frozenset({11, 15, 16}),
]


def figure4() -> FigureExample:
    """Figure 4 — MNI vs MI on a 4-path.

    Data graph: path 1-2-3-4 with labels a,b,b,a; pattern: path
    v1(a)-v2(b)-v3(b).  Occurrences (1,2,3) and (4,3,2); every node has two
    images so MNI = 2, but the transitive pair {v2,v3} has a single image
    *set* {2,3}, so MI = 1.
    """
    data = LabeledGraph(
        vertices=[(1, "a"), (2, "b"), (3, "b"), (4, "a")],
        edges=[(1, 2), (2, 3), (3, 4)],
        name="fig4-data",
    )
    pattern = Pattern.from_edges(
        [("v1", "a"), ("v2", "b"), ("v3", "b")],
        [("v1", "v2"), ("v2", "v3")],
        name="fig4-path",
    )
    return FigureExample(
        figure_id="fig4",
        title="MNI vs MI support measure",
        data_graph=data,
        pattern=pattern,
        expected={
            "occurrences": 2,
            "instances": 2,
            "mni": 2,
            "mi": 1,
            "mvc": 1,
            "mis": 1,
        },
        notes="Occurrence table (1,2,3)/(4,3,2) printed verbatim in the thesis.",
    )


def figure5() -> FigureExample:
    """Figure 5 — anti-monotonicity under extension.

    Same 6-vertex graph family as Fig. 2 but with pendants 4-2, 5-3, 6-3 so
    the occurrence table of the superpattern (triangle + pendant at v3)
    matches the thesis: f1..f6 extend to (1,2,3,5), (1,2,3,6), (1,3,2,4),
    (2,1,3,5), (2,1,3,6), (3,1,2,4); occurrences f4=(2,3,1,-) and
    f6=(3,2,1,-) cannot extend.  MVC stays 1 through the extension.
    """
    label = "a"
    data = LabeledGraph(
        vertices=[(i, label) for i in range(1, 7)],
        edges=[(1, 2), (2, 3), (1, 3), (2, 4), (3, 5), (3, 6)],
        name="fig5-data",
    )
    triangle = Pattern.from_edges(
        [("v1", label), ("v2", label), ("v3", label)],
        [("v1", "v2"), ("v2", "v3"), ("v1", "v3")],
        name="fig5-triangle",
    )
    extended = Pattern.from_edges(
        [("v1", label), ("v2", label), ("v3", label), ("v4", label)],
        [("v1", "v2"), ("v2", "v3"), ("v1", "v3"), ("v3", "v4")],
        name="fig5-triangle+pendant",
    )
    return FigureExample(
        figure_id="fig5",
        title="Occurrences of a pattern while being extended to a superpattern",
        data_graph=data,
        pattern=triangle,
        superpattern=extended,
        expected={
            "occurrences": 6,
            "super_occurrences": 6,
            "mvc": 1,
            "super_mvc": 1,
        },
        notes="Superpattern occurrence table printed verbatim in the thesis.",
    )


def figure6() -> FigureExample:
    """Figure 6 — partial overlap defeats MI: the double star.

    Data graph edges: 1-5, 1-6, 1-7, 1-8, 2-8, 3-8, 4-8, with labels
    a on {1,2,3,4} and b on {5,6,7,8}; pattern: single edge a-b.  The
    thesis pins MIS = 2, MVC = 2, MI = 4, MNI = 4 over 7 occurrences.
    """
    data = LabeledGraph(
        vertices=[(i, "a") for i in (1, 2, 3, 4)] + [(i, "b") for i in (5, 6, 7, 8)],
        edges=[(1, 5), (1, 6), (1, 7), (1, 8), (2, 8), (3, 8), (4, 8)],
        name="fig6-data",
    )
    pattern = Pattern.from_edges(
        [("v1", "a"), ("v2", "b")], [("v1", "v2")], name="fig6-edge"
    )
    return FigureExample(
        figure_id="fig6",
        title="MNI over-estimates by ignoring partial overlap",
        data_graph=data,
        pattern=pattern,
        expected={
            "occurrences": 7,
            "instances": 7,
            "mni": 4,
            "mi": 4,
            "mvc": 2,
            "mis": 2,
            "mies": 2,
        },
        notes="All four headline values printed verbatim in the thesis.",
    )


def figure7() -> FigureExample:
    """Figure 7 — the MNI vs MI view of a 3-path pattern.

    Conceptual figure: MNI sees singleton node subsets; MI additionally
    sees the transitive subset of the symmetric pair.  We use the uniform
    3-path (v1-v2-v3, one label): its MI family contains {v1},{v2},{v3},
    {v1,v3} (end nodes symmetric in the full path) and {v2,v3}/{v1,v2}
    (symmetric inside the one-edge subpatterns).
    """
    data = LabeledGraph(
        vertices=[(i, "a") for i in range(1, 5)],
        edges=[(1, 2), (2, 3), (3, 4)],
        name="fig7-data",
    )
    pattern = Pattern.from_edges(
        [("v1", "a"), ("v2", "a"), ("v3", "a")],
        [("v1", "v2"), ("v2", "v3")],
        name="fig7-path",
    )
    return FigureExample(
        figure_id="fig7",
        title="MNI and MI's view of a pattern in the hypergraph framework",
        data_graph=data,
        pattern=pattern,
        expected={"transitive_subsets": 6},
        notes=(
            "Expected family: 3 singletons + {v1,v3} (path symmetry) + "
            "{v1,v2} and {v2,v3} (edge-subpattern symmetry)."
        ),
    )


def figure8() -> FigureExample:
    """Figure 8 — instance hypergraph + dual on a 4-cycle.

    Data graph: the 4-cycle 1-2, 2-4, 4-3, 3-1 (one label); pattern: a
    single uniform edge.  Four instances e1..e4; MIS = MIES = 2 (opposite
    edges), dual hypergraph has one 2-edge per data vertex.
    """
    data = LabeledGraph(
        vertices=[(i, "a") for i in (1, 2, 3, 4)],
        edges=[(1, 2), (2, 4), (3, 4), (1, 3)],
        name="fig8-data",
    )
    pattern = Pattern.from_edges(
        [("v1", "a"), ("v2", "a")], [("v1", "v2")], name="fig8-edge"
    )
    return FigureExample(
        figure_id="fig8",
        title="Instance hypergraph and its dual on a small cycle",
        data_graph=data,
        pattern=pattern,
        expected={
            "occurrences": 8,
            "instances": 4,
            "mis": 2,
            "mies": 2,
            "mvc": 2,
            "mni": 4,
            "mi": 4,
        },
        notes="MIS computed in the thesis as 2 (e.g. {e1, e3}).",
    )


def figure9() -> FigureExample:
    """Figure 9 — structural overlap without harmful overlap.

    Data graph: path 1-2-3-4 plus edge 3-5; labels 1,5 -> a and 2,3,4 -> b;
    pattern: path v1(a)-v2(b)-v3(b).  The three occurrences are
    g1=(1,2,3), g2=(5,3,4), g3=(5,3,2).  The thesis derives: SO(g1,g2)
    without HO; SO and HO together for (g1,g3); MI = 2.
    """
    data = LabeledGraph(
        vertices=[(1, "a"), (2, "b"), (3, "b"), (4, "b"), (5, "a")],
        edges=[(1, 2), (2, 3), (3, 4), (3, 5)],
        name="fig9-data",
    )
    pattern = Pattern.from_edges(
        [("v1", "a"), ("v2", "b"), ("v3", "b")],
        [("v1", "v2"), ("v2", "v3")],
        name="fig9-path",
    )
    return FigureExample(
        figure_id="fig9",
        title="Structural overlap != harmful overlap",
        data_graph=data,
        pattern=pattern,
        expected={"occurrences": 3, "mi": 2},
        notes="Overlap relations asserted pairwise in the integration test.",
    )


def figure10() -> FigureExample:
    """Figure 10 — simple vs harmful vs structural overlap on a 9-vertex graph.

    Pattern: path v1(b)-v2(a)-v3(c)-v4(b) — no non-trivial transitive pair,
    so structural overlap requires a shared fixed image.  Occurrences:
    f1=(1,2,3,4), f2=(4,5,6,1), f3=(1,7,8,9).  Then HO(f1,f2) holds without
    SO (images swap between the non-transitive end nodes), while (f2,f3)
    overlap only simply.
    """
    data = LabeledGraph(
        vertices=[
            (1, "b"), (2, "a"), (3, "c"), (4, "b"),
            (5, "a"), (6, "c"), (7, "a"), (8, "c"), (9, "b"),
        ],
        edges=[(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 7), (7, 8), (8, 9)],
        name="fig10-data",
    )
    pattern = Pattern.from_edges(
        [("v1", "b"), ("v2", "a"), ("v3", "c"), ("v4", "b")],
        [("v1", "v2"), ("v2", "v3"), ("v3", "v4")],
        name="fig10-path",
    )
    return FigureExample(
        figure_id="fig10",
        title="Relationship of structural, harmful, and simple overlap",
        data_graph=data,
        pattern=pattern,
        expected={"occurrences": 3},
        notes="Pairwise overlap relations asserted in the integration test.",
    )


#: All figure builders, keyed by id, in presentation order.
ALL_FIGURES: Dict[str, Callable[[], FigureExample]] = {
    "fig1": figure1,
    "fig2": figure2,
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
}


def load_figure(figure_id: str) -> FigureExample:
    """Build one figure example by id (``fig1`` .. ``fig10``)."""
    if figure_id not in ALL_FIGURES:
        raise KeyError(
            f"unknown figure {figure_id!r}; expected one of {sorted(ALL_FIGURES)}"
        )
    return ALL_FIGURES[figure_id]()


def load_all_figures() -> List[FigureExample]:
    """Build every figure example in order."""
    return [builder() for builder in ALL_FIGURES.values()]
