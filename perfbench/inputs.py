"""Seeded input generation for the benchmark workloads.

The generators here are self-contained: they produce plain vertex and
edge lists without calling into ``repro``, so a change to the library's
own dataset helpers can never change what the benchmark measures.  The
base shapes reproduce two fixed graphs of the repository's ablations:

* the *medium* graph of the tab4c mining check (675 vertices, 839 edges:
  welded A-(B,C) stars, welded A-B-A-C chains, a preferential-attachment
  region over labels D..H);
* the *two-region* graph of the tab9 stream checks (a welded A/B/C bulk
  plus a sparse D/E region).

``--seed`` never changes the *shape* of a workload.  It picks a random
presentation of the fixed graph (vertex ids and insertion order of
vertices and edges are shuffled, edge endpoints flipped) and, for the
stream workloads, the update stream.  Every seed therefore poses the
same mining problem: answers and work counts of the one-shot mines are
seed-invariant, while nothing in the program can key on vertex ids.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Sequence, Tuple

Vertices = List[Tuple[int, str]]
Edges = List[Tuple[int, int]]

#: One batch in this many touches the A/B/C bulk; the position inside
#: each block of batches is drawn from the seed.
BULK_EVERY = 8
#: Stream-owned leaves and extra edges alive at any time (FIFO).
LIVE_LEAVES = 10
LIVE_BULK_LEAVES = 6
LIVE_EXTRA_EDGES = 5


# ----------------------------------------------------------------------
# base shapes
# ----------------------------------------------------------------------
def _choose_label(rng: random.Random, alphabet: Sequence[str], skew: float) -> str:
    weights = [(1.0 + skew) ** (-i) for i in range(len(alphabet))]
    return rng.choices(alphabet, weights=weights, k=1)[0]


def _planted(
    node_labels: Sequence[str],
    pattern_edges: Sequence[Tuple[int, int]],
    num_copies: int,
    *,
    overlap: float,
    seed: int,
    background: int = 0,
    background_p: float = 0.0,
) -> Tuple[Vertices, Edges]:
    """Plant ``num_copies`` of a small pattern, welding consecutive copies."""
    rng = random.Random(seed)
    vertices: Vertices = []
    edges: Edges = []
    edge_set = set()
    next_id = 0
    previous: List[int] = []
    for _ in range(num_copies):
        mapping: Dict[int, int] = {}
        if previous and rng.random() < overlap:
            weld = rng.randrange(len(node_labels))
            mapping[weld] = previous[weld]
        for node, label in enumerate(node_labels):
            if node in mapping:
                continue
            mapping[node] = next_id
            vertices.append((next_id, label))
            next_id += 1
        for a, b in pattern_edges:
            edge = (mapping[a], mapping[b])
            if frozenset(edge) not in edge_set:
                edge_set.add(frozenset(edge))
                edges.append(edge)
        previous = [mapping[node] for node in range(len(node_labels))]
    noise = list(range(next_id, next_id + background))
    for vertex in noise:
        vertices.append((vertex, f"bg_{rng.choice('ABCD')}"))
    for i, u in enumerate(noise):
        for v in noise[i + 1 :]:
            if rng.random() < background_p:
                edges.append((u, v))
    return vertices, edges


def _preferential(
    n: int, m: int, alphabet: Sequence[str], seed: int, skew: float
) -> Tuple[Vertices, Edges]:
    rng = random.Random(seed)
    vertices: Vertices = []
    edges: Edges = []
    targets: List[int] = []
    for i in range(m + 1):
        vertices.append((i, _choose_label(rng, alphabet, skew)))
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            edges.append((i, j))
            targets.extend((i, j))
    for new in range(m + 1, n):
        vertices.append((new, _choose_label(rng, alphabet, skew)))
        chosen = set()
        while len(chosen) < m:
            chosen.add(rng.choice(targets))
        for target in chosen:
            edges.append((new, target))
            targets.extend((new, target))
    return vertices, edges


def _erdos(n: int, p: float, alphabet: Sequence[str], seed: int) -> Tuple[Vertices, Edges]:
    rng = random.Random(seed)
    vertices = [(i, _choose_label(rng, alphabet, 0.0)) for i in range(n)]
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return vertices, edges


def _append(vertices: Vertices, edges: Edges, part, offset: int) -> None:
    part_vertices, part_edges = part
    vertices.extend((v + offset, label) for v, label in part_vertices)
    edges.extend((u + offset, v + offset) for u, v in part_edges)


_STAR = (("A", "B", "C"), ((0, 1), (0, 2)))
_CHAIN = (("A", "B", "A", "C"), ((0, 1), (1, 2), (2, 3)))


def medium_graph() -> Tuple[Vertices, Edges]:
    """The tab4c medium graph: 675 vertices, 839 edges."""
    vertices, edges = _planted(
        *_STAR, 90, overlap=0.55, seed=41, background=80, background_p=0.05
    )
    offset = len(vertices) + 1000
    _append(vertices, edges, _planted(*_CHAIN, 60, overlap=0.45, seed=57), offset)
    offset2 = offset + 10000
    _append(vertices, edges, _preferential(160, 2, "DEFGH", 73, 0.25), offset2)
    edges.append((0, offset2))
    edges.append((offset, offset2 + 1))
    return vertices, edges


def two_region_graph() -> Tuple[Vertices, Edges]:
    """The tab9 two-region graph: welded A/B/C bulk plus a sparse D/E region."""
    vertices, edges = _planted(
        *_STAR, 60, overlap=0.55, seed=61, background=40, background_p=0.05
    )
    offset = len(vertices) + 1000
    _append(vertices, edges, _planted(*_CHAIN, 40, overlap=0.45, seed=57), offset)
    offset2 = offset + 10000
    _append(vertices, edges, _erdos(8, 0.25, "DE", 67), offset2)
    edges.append((0, offset2))
    return vertices, edges


# ----------------------------------------------------------------------
# seeded presentation
# ----------------------------------------------------------------------
def present(vertices: Vertices, edges: Edges, seed: int) -> Tuple[Vertices, Edges]:
    """Relabel ids to a seeded permutation of ``0..n-1`` and shuffle order."""
    rng = random.Random(f"present:{seed}")
    ids = list(range(len(vertices)))
    rng.shuffle(ids)
    mapping = {vertex: ids[i] for i, (vertex, _) in enumerate(vertices)}
    out_vertices = [(mapping[v], label) for v, label in vertices]
    rng.shuffle(out_vertices)
    out_edges = []
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        out_edges.append((mapping[u], mapping[v]))
    rng.shuffle(out_edges)
    return out_vertices, out_edges


def build_graph(vertices: Vertices, edges: Edges, name: str):
    """A fresh ``LabeledGraph`` holding exactly these vertices and edges."""
    from repro import LabeledGraph

    return LabeledGraph(vertices=vertices, edges=edges, name=name)


# ----------------------------------------------------------------------
# the stationary churn stream
# ----------------------------------------------------------------------
class ChurnStream:
    """An endless, stationary insert/delete stream over the two-region graph.

    Construct over a presented two-region graph; :meth:`base` is the
    input graph (the presentation plus the stream's pre-grown state) and
    :meth:`next_batch` returns the next batch of 6 updates, forever.

    Every batch deletes three things and inserts three, so exactly half
    the updates are deletions and the graph size never drifts:

    * a *region* batch retires the oldest stream leaf of the D/E region
      (``de`` + ``dv``) and the oldest extra D/E edge, then hangs a new
      leaf off a base D/E vertex and adds a new extra D/E edge;
    * a *bulk* batch (one per block of :data:`BULK_EVERY`, at a seeded
      position) does the same with a B leaf on an A vertex in place of
      the D/E leaf, so it touches the (A, B) label pair that most
      frequent patterns contain.

    Stream leaves hang only off base vertices and extra edges join only
    base vertices, so a ``dv`` never removes an edge the stream still
    means to delete.
    """

    def __init__(self, vertices: Vertices, edges: Edges, seed: int) -> None:
        self._rng = random.Random(f"stream:{seed}")
        labels = dict(vertices)
        self._edges = {frozenset(edge) for edge in edges}
        self._region = sorted(v for v, label in labels.items() if label in ("D", "E"))
        self._anchors = sorted(v for v, label in labels.items() if label == "A")
        self._next_id = max(labels) + 1
        self._leaves: deque = deque()
        self._bulk_leaves: deque = deque()
        self._extra: deque = deque()
        self._block: List[bool] = []
        grown = []
        for _ in range(LIVE_LEAVES):
            grown += self._grow(self._leaves, self._region, self._rng.choice("DE"))
        for _ in range(LIVE_BULK_LEAVES):
            grown += self._grow(self._bulk_leaves, self._anchors, "B")
        for _ in range(LIVE_EXTRA_EDGES):
            grown += self._extra_edge()
        self._input = (
            list(vertices) + [u[1:] for u in grown if u[0] == "v"],
            list(edges) + [u[1:] for u in grown if u[0] == "e"],
        )

    def base(self) -> Tuple[Vertices, Edges]:
        """The input graph: the presentation plus the pre-grown stream state."""
        return list(self._input[0]), list(self._input[1])

    def _grow(self, pool: deque, parents: Sequence[int], label: str) -> List[tuple]:
        leaf = self._next_id
        self._next_id += 1
        parent = self._rng.choice(parents)
        pool.append((parent, leaf))
        self._edges.add(frozenset((parent, leaf)))
        return [("v", leaf, label), ("e", parent, leaf)]

    def _extra_edge(self) -> List[tuple]:
        while True:
            u, v = self._rng.sample(self._region, 2)
            if frozenset((u, v)) not in self._edges:
                break
        self._extra.append((u, v))
        self._edges.add(frozenset((u, v)))
        return [("e", u, v)]

    def _retire(self, pool: deque) -> List[tuple]:
        parent, leaf = pool.popleft()
        self._edges.discard(frozenset((parent, leaf)))
        return [("de", parent, leaf), ("dv", leaf)]

    def _retire_extra(self) -> List[tuple]:
        u, v = self._extra.popleft()
        self._edges.discard(frozenset((u, v)))
        return [("de", u, v)]

    def next_batch(self) -> Tuple[bool, List[tuple]]:
        """``(touches_bulk, updates)`` for the next batch."""
        if not self._block:
            self._block = [False] * BULK_EVERY
            self._block[self._rng.randrange(BULK_EVERY)] = True
        bulk = self._block.pop()
        if bulk:
            batch = self._retire(self._bulk_leaves) + self._retire_extra()
            batch += self._grow(self._bulk_leaves, self._anchors, "B")
        else:
            batch = self._retire(self._leaves) + self._retire_extra()
            batch += self._grow(self._leaves, self._region, self._rng.choice("DE"))
        batch += self._extra_edge()
        return bulk, batch


class Replayer:
    """Rebuilds the graph at any point of a stream, independently of ``repro``.

    The correctness oracles use it: the expected answer at a version is a
    one-shot mine of :meth:`graph`, never of the program's own live or
    snapshot state.
    """

    def __init__(self, vertices: Vertices, edges: Edges) -> None:
        self._labels = dict(vertices)
        self._edges = {frozenset(edge) for edge in edges}

    def apply(self, batch: Sequence[tuple]) -> None:
        for update in batch:
            kind = update[0]
            if kind == "v":
                self._labels[update[1]] = update[2]
            elif kind == "e":
                self._edges.add(frozenset(update[1:]))
            elif kind == "de":
                self._edges.discard(frozenset(update[1:]))
            else:
                del self._labels[update[1]]
                self._edges = {edge for edge in self._edges if update[1] not in edge}

    def graph(self):
        edges = sorted(tuple(sorted(edge)) for edge in self._edges)
        return build_graph(sorted(self._labels.items()), edges, "oracle")
