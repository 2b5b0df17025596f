"""MNI — minimum-image-based support (Bringmann & Nijssen; Definition 2.2.8).

For each pattern node ``v``, count its distinct images across all
occurrences; MNI is the minimum such count.  It is anti-monotonic and
linear-time in the number of occurrences, but ignores the pattern's
topology entirely, which is why it can over-count arbitrarily (Fig. 2:
the triangle has MNI 3 but a single instance).

The parameterized variant ``sigma_MNI(P, G, k)`` (Definition 2.2.9) counts
distinct *image sets* of every connected k-node subset instead of single
nodes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Sequence, Set

from ..errors import MeasureError
from ..graph.labeled_graph import Vertex
from ..graph.pattern import Pattern
from ..hypergraph.construction import HypergraphBundle
from ..isomorphism.matcher import Occurrence
from .base import register_measure


def mni_support_from_occurrences(
    pattern: Pattern, occurrences: Sequence[Occurrence]
) -> int:
    """``sigma_MNI`` computed directly from an occurrence list."""
    return min(node_image_counts(pattern, occurrences).values())


def node_image_counts(
    pattern: Pattern, occurrences: Sequence[Occurrence]
) -> Dict[Vertex, int]:
    """Distinct-image count per pattern node (the '# of images' row of Fig. 2).

    Single pass over occurrences: maintain one image set per pattern node.
    """
    images: Dict[Vertex, Set[Vertex]] = {node: set() for node in pattern.nodes()}
    for occurrence in occurrences:
        for node, vertex in occurrence.mapping_items:
            images[node].add(vertex)
    return {node: len(image_set) for node, image_set in images.items()}


def mni_k_support_from_occurrences(
    pattern: Pattern, occurrences: Sequence[Occurrence], k: int
) -> int:
    """``sigma_MNI(P, G, k)`` (Definition 2.2.9).

    Minimum distinct-image-set count over all *connected* node subsets of
    size exactly ``k``.  ``k=1`` coincides with plain MNI.
    """
    if k < 1:
        raise MeasureError(f"k must be >= 1, got {k}")
    if k > pattern.num_nodes:
        raise MeasureError(
            f"k={k} exceeds the pattern's node count {pattern.num_nodes}"
        )
    if not occurrences:
        return 0
    subsets = [
        subset
        for subset in pattern.connected_node_subsets(max_size=k)
        if len(subset) == k
    ]
    if not subsets:
        raise MeasureError(f"pattern has no connected node subset of size {k}")
    best = None
    for subset in subsets:
        image_sets: Set[FrozenSet[Vertex]] = {
            occurrence.image_of_set(subset) for occurrence in occurrences
        }
        count = len(image_sets)
        if best is None or count < best:
            best = count
    assert best is not None
    return best


@register_measure(
    name="mni",
    display_name="MNI (minimum image)",
    anti_monotonic=True,
    complexity="O(m)",
    description="Minimum distinct-image count over pattern nodes (Bringmann & Nijssen).",
)
def mni_support(bundle: HypergraphBundle) -> float:
    """``sigma_MNI(P, G)`` from a hypergraph bundle.

    A bundle holding an occurrence table answers from its per-column
    image counts, without decoding a single occurrence.
    """
    if bundle.table is not None:
        return float(min(bundle.table.image_counts()))
    return float(mni_support_from_occurrences(bundle.pattern, bundle.occurrences))
