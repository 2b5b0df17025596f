"""Occurrence tables: a pattern's occurrences as rows of interned ids.

Every occurrence of a one-edge extension restricts to an occurrence of
its parent, so the miner extends the parent's table instead of searching:

* a **forward** step (new node ``w`` on ``anchor``, label ``L``) appends
  to each row every vertex of ``anchor``'s ``L`` CSR segment that is not
  already in the row;
* a **backward** step ``(a, b)`` keeps the rows where ``b``'s image lies
  in ``a``'s segment.

Both steps are complete and sound, but the rows come out in another
order than VF2's.  VF2 explores each depth of its matching order in
canonical vertex order, so its results are the rows sorted by the
canonical ranks of their images taken in matching order;
:meth:`OccurrenceTable.decode` sorts by that key, then cuts to ``limit``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..graph.labeled_graph import Label, Vertex
from ..graph.pattern import Pattern
from ..index.graph_index import GraphIndex
from .matcher import Occurrence
from .vf2 import _matching_order

#: ``("forward", anchor, new_node, label)`` or ``("backward", a, b)``.
Step = Tuple


def growth_step(parent: Pattern, child: Pattern) -> Step:
    """The one-edge step that grew ``parent`` into ``child``.

    One new node is a forward step from that node's only neighbour; the
    same node set is a backward step on the one new edge.
    """
    parent_graph = parent.graph
    child_graph = child.graph
    if child.num_nodes > parent.num_nodes:
        (node,) = [n for n in child_graph.vertices() if not parent_graph.has_vertex(n)]
        (anchor,) = child_graph.neighbors(node)
        return ("forward", anchor, node, child_graph.label_of(node))
    (edge,) = [e for e in child_graph.edges() if not parent_graph.has_edge(*e)]
    return ("backward", *edge)


@dataclass(slots=True, eq=False)
class OccurrenceTable:
    """One pattern's occurrences as flat rows of vints over one index.

    ``columns`` names the pattern node at each row position.  It is
    stored, never derived: a forward step appends its node last, which
    need not be its place in ``Pattern.nodes()`` (``repr`` order puts
    ``v10`` before ``v2``).  ``complete`` is false when the rows were cut
    at an occurrence limit; such a table is no base to extend.
    """

    index: GraphIndex
    columns: Tuple
    rows: array
    complete: bool

    @classmethod
    def from_occurrences(
        cls,
        index: GraphIndex,
        pattern: Pattern,
        occurrences: Sequence[Occurrence],
        limit: Optional[int] = None,
    ) -> "OccurrenceTable":
        """Encode an enumeration that ran with ``limit``."""
        vint_of = index.table._vint_of
        rows = array("i")
        for occurrence in occurrences:
            rows.extend([vint_of[vertex] for _, vertex in occurrence.mapping_items])
        complete = limit is None or len(occurrences) < limit
        return cls(index, tuple(pattern.nodes()), rows, complete)

    def __len__(self) -> int:
        return len(self.rows) // len(self.columns)

    def extend(self, step: Step) -> "OccurrenceTable":
        """The child's table for a forward or backward step."""
        grow = self.extend_forward if step[0] == "forward" else self.extend_backward
        return grow(*step[1:])

    def extend_forward(
        self, anchor: Vertex, node: Vertex, label: Label
    ) -> "OccurrenceTable":
        """Add ``node`` (labeled ``label``) as a new neighbour of ``anchor``."""
        index = self.index
        width = len(self.columns)
        column = self.columns.index(anchor)
        lint = index.table.lint(label)
        rows = self.rows
        out = array("i")
        if lint is None:  # no data vertex ever carried the label
            return OccurrenceTable(index, self.columns + (node,), out, self.complete)
        segments = {}
        for base in range(0, len(rows), width):
            row = rows[base : base + width]
            segment = segments.get(row[column])
            if segment is None:
                csr, start, stop = index._segment(row[column], lint)
                segment = segments[row[column]] = csr[start:stop]
            for w in segment:
                if w not in row:
                    out.extend(row)
                    out.append(w)
        return OccurrenceTable(index, self.columns + (node,), out, self.complete)

    def extend_backward(self, a: Vertex, b: Vertex) -> "OccurrenceTable":
        """Add the edge ``(a, b)`` between two existing pattern nodes."""
        index = self.index
        width = len(self.columns)
        column_a = self.columns.index(a)
        column_b = self.columns.index(b)
        rows = self.rows
        out = array("i")
        for base in range(0, len(rows), width):
            image_b = rows[base + column_b]
            neighbours = index._segment_set(rows[base + column_a], index._lab[image_b])
            if image_b in neighbours:
                out.extend(rows[base : base + width])
        return OccurrenceTable(index, self.columns, out, self.complete)

    def image_counts(self) -> List[int]:
        """Distinct images per column (the input of MNI)."""
        width = len(self.columns)
        return [len(set(self.rows[c::width])) for c in range(width)]

    def _vf2_rows(self, pattern: Pattern, limit: Optional[int]) -> List[array]:
        """The rows in the order VF2 emits them, cut to ``limit``."""
        key_columns = [
            self.columns.index(node)
            for node in _matching_order(pattern, self.index.graph)
        ]
        ranks = self.index.vint_ranks()
        width = len(self.columns)
        rows = [self.rows[i : i + width] for i in range(0, len(self.rows), width)]
        rows.sort(key=lambda row: [ranks[row[c]] for c in key_columns])
        return rows if limit is None else rows[:limit]

    def truncated(self, pattern: Pattern, limit: int) -> "OccurrenceTable":
        """The first ``limit`` rows in VF2 order, marked incomplete."""
        rows = array("i")
        for row in self._vf2_rows(pattern, limit):
            rows.extend(row)
        return OccurrenceTable(self.index, self.columns, rows, complete=False)

    def decode(self, pattern: Pattern, limit: Optional[int] = None) -> List[Occurrence]:
        """The rows as :class:`Occurrence` objects, exactly as VF2 lists them."""
        nodes = sorted(self.columns, key=repr)  # Occurrence item order
        columns = [self.columns.index(node) for node in nodes]
        vertex_of = self.index.table.vertex_of
        return [
            Occurrence(tuple(zip(nodes, [vertex_of[row[c]] for c in columns])), i)
            for i, row in enumerate(self._vf2_rows(pattern, limit))
        ]
