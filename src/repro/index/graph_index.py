"""The cached-index entry points: :func:`get_index` and :func:`resolve_index`.

:data:`GraphIndex` names the library's one index class,
:class:`~repro.index.compact.CompactGraphIndex` (see that module for the
layout).  Each :class:`LabeledGraph` carries a version counter bumped on
every mutation; :func:`get_index` caches the index on the graph itself and
transparently rebuilds after mutations, so "build once per mining
session, reuse across all candidates" is automatic.  Hot paths accept an
:data:`IndexArg`, where ``False`` selects the brute-force reference path
that every indexed answer must match byte for byte.

The canonical-order helpers below are shared with the partition and
mining layers, which keep label-pair keyed and ``repr``-sorted structures
of their own.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Tuple, Union

from ..graph.labeled_graph import Label, LabeledGraph
from ..obs import metrics as _metrics
from .compact import CompactGraphIndex

#: The library's index class (one implementation: interned ids + CSR).
GraphIndex = CompactGraphIndex


def _insert_canonical(members: Tuple, item) -> Tuple:
    """Insert ``item`` into a repr-sorted tuple, preserving canonical order."""
    position = bisect_left(members, repr(item), key=repr)
    return members[:position] + (item,) + members[position:]


def _remove_canonical(members: Tuple, item) -> Tuple:
    """Splice ``item`` out of a repr-sorted tuple, preserving canonical order."""
    position = bisect_left(members, repr(item), key=repr)
    while position < len(members) and members[position] != item:
        # repr ties (distinct items with equal repr) are broken linearly.
        position += 1
    if position == len(members):
        raise KeyError(item)
    return members[:position] + members[position + 1 :]


def _label_pair_key(lu: Label, lv: Label) -> Tuple[Label, Label]:
    """Canonical (repr-sorted) form of an unordered label pair."""
    return (lu, lv) if repr(lu) <= repr(lv) else (lv, lu)


#: What callers may pass wherever an index is accepted:
#: ``None``  -> use the graph's cached index (build it on first use);
#: ``False`` -> brute force, no index (the reference path);
#: a :class:`GraphIndex` -> use exactly this index.
IndexArg = Union[None, bool, GraphIndex]


def get_index(graph: LabeledGraph) -> GraphIndex:
    """The cached index for ``graph``, (re)building after any mutation.

    Publishes the ``repro_index_bytes`` / ``repro_index_intern_entries``
    footprint gauges for each fresh build.
    """
    cached = graph.cached_index()
    if isinstance(cached, GraphIndex) and cached.is_current():
        return cached
    index = GraphIndex(graph)
    graph.cache_index(index)
    _metrics.gauge("repro_index_bytes").set(index.nbytes())
    _metrics.gauge("repro_index_intern_entries").set(index.intern_entries())
    return index


def resolve_index(graph: LabeledGraph, index: IndexArg) -> Optional[GraphIndex]:
    """Normalize an :data:`IndexArg` into a usable index (or ``None``).

    Returns ``None`` for the brute-force request (``index=False``); a stale
    explicit index is silently replaced by a fresh cached one.
    """
    if index is False:
        return None
    if isinstance(index, GraphIndex):
        if index.graph is graph and index.is_current():
            return index
        return get_index(graph)
    return get_index(graph)
