"""Process-pool support evaluation for the frequent-subgraph miner.

Support evaluation dominates mining time and candidates at one search
level are independent of each other, so the miner can farm them out to a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Design notes:

* the **data graph is shipped once per worker** (pool initializer), not
  once per candidate; each worker builds its own :class:`GraphIndex` on
  first use and reuses it for every candidate it evaluates;
* workers return plain ``(support, num_occurrences)`` tuples — patterns
  and certificates stay in the parent, so nothing model-sized crosses the
  process boundary back;
* results come back through ``Executor.map``, which preserves submission
  order, so mining results are **deterministic and identical to the
  serial path** regardless of worker count or scheduling.

For a sharded mining session (``FrequentSubgraphMiner(shards=k)``) the
pool's unit of work drops from one candidate to one **(candidate, shard)
pair**: workers rebuild the same :class:`~repro.partition.ShardedIndex`
from the shipped :class:`~repro.partition.Partition` (never re-partition
— the parent's assignment is authoritative), enumerate the candidate's
anchored occurrences in their halo-expanded shard, and ship the raw item
tuples (or per-node image scans in lazy mode) back for the parent to
merge exactly — so a single expensive candidate parallelizes across its
shards instead of serializing on one worker.

The helpers live in their own module (not nested in the miner class) so
they are picklable under every ``multiprocessing`` start method.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..graph.labeled_graph import LabeledGraph
from ..graph.pattern import Pattern

#: Measures bounded above by sigma_MNI (the Section 4.4 chain plus PMVC),
#: and hence by the rarest pattern-node label's frequency in the data
#: graph.  For these, a candidate whose label-frequency bound already sits
#: below the threshold is pruned without enumerating a single occurrence
#: (the GraMi trick, applied identically on the indexed and brute paths).
LABEL_FREQUENCY_BOUNDED = frozenset(
    {"mni", "mi", "mvc", "mis", "mies", "lp_mvc", "lp_mies", "pmvc"}
)


def label_frequency_bound(pattern: Pattern, histogram: Dict) -> int:
    """``min_v |{u : lambda(u) = lambda_P(v)}|`` — an upper bound on MNI."""
    return min(
        (histogram.get(pattern.label_of(node), 0) for node in pattern.nodes()),
        default=0,
    )


def evaluate_support(
    pattern: Pattern,
    data: LabeledGraph,
    measure: str,
    *,
    lazy: bool,
    lazy_cap: int,
    max_occurrences: Optional[int],
    index_arg,
    histogram: Optional[Dict] = None,
    prune_below: Optional[float] = None,
    parent=None,
    step=None,
    keep_table: bool = False,
) -> Tuple:
    """Evaluate one candidate; returns ``(support, num_occurrences)``.

    ``num_occurrences`` is ``-1`` when occurrences were never enumerated —
    lazy mode, or a label-frequency-bound prune (``prune_below`` set, the
    measure in :data:`LABEL_FREQUENCY_BOUNDED`, and the bound already below
    the threshold; the returned support is then the bound itself, which
    over-states the true support but preserves every pruning decision).
    Shared by the serial miner and the process-pool workers so both modes
    make byte-identical decisions.

    ``parent`` and ``step`` (see :meth:`HypergraphBundle.build`) extend
    the parent's occurrence table instead of searching; ``keep_table``
    returns the candidate's table as a third item (``None`` when
    occurrences were never enumerated).
    """
    width = 3 if keep_table else 2
    if lazy:
        from ..measures.lazy_mni import lazy_mni_support

        support = float(lazy_mni_support(pattern, data, cap=lazy_cap, index=index_arg))
        return (support, -1, None)[:width]
    if (
        prune_below is not None
        and histogram is not None
        and measure in LABEL_FREQUENCY_BOUNDED
    ):
        bound = label_frequency_bound(pattern, histogram)
        if bound < prune_below:
            return (float(bound), -1, None)[:width]
    from ..hypergraph.construction import HypergraphBundle
    from ..measures.base import compute_support

    bundle = HypergraphBundle.build(
        pattern, data, limit=max_occurrences, index=index_arg, parent=parent, step=step
    )
    support = compute_support(measure, pattern, data, bundle=bundle)
    if not keep_table:
        return support, bundle.num_occurrences
    table = bundle.table
    if table is None:  # enumerated: encode the occurrences
        from ..index.graph_index import resolve_index
        from ..isomorphism.table import OccurrenceTable

        index = resolve_index(data, index_arg)
        table = OccurrenceTable.from_occurrences(
            index, pattern, bundle.occurrences, max_occurrences
        )
    return support, bundle.num_occurrences, table


#: Per-worker state installed by :func:`init_worker` (one dict per process).
_WORKER_STATE: Dict[str, object] = {}


def init_worker(
    data: LabeledGraph,
    measure: str,
    lazy: bool,
    lazy_cap: int,
    max_occurrences: Optional[int],
    use_index: bool,
    prune_below: Optional[float],
    partition=None,
) -> None:
    """Pool initializer: stash the shared evaluation context in the worker.

    ``partition`` (a :class:`repro.partition.Partition`, or ``None`` for
    flat evaluation) carries the parent's shard assignment; the worker's
    :class:`~repro.partition.ShardedIndex` is built from it lazily on the
    first shard task, so flat sessions pay nothing.
    """
    if use_index:
        from ..index.graph_index import get_index

        get_index(data)  # build once; cached on the graph for all candidates
    _WORKER_STATE.clear()
    _WORKER_STATE.update(
        data=data,
        measure=measure,
        lazy=lazy,
        lazy_cap=lazy_cap,
        max_occurrences=max_occurrences,
        index_arg=None if use_index else False,
        histogram=data.label_histogram(),
        prune_below=prune_below,
        partition=partition,
        sharded=None,
    )


def _worker_sharded_index():
    """The worker's ShardedIndex, built once from the shipped partition.

    Only shard tasks reach this; a flat pooled session initializes its
    workers with ``partition=None`` and must never build a sharded index
    here — that would silently re-shard inside the worker and charge flat
    sessions for partition state the parent never shipped.
    """
    sharded = _WORKER_STATE.get("sharded")
    if sharded is None:
        assert _WORKER_STATE.get("partition") is not None, (
            "shard task reached a flat worker: init_worker was given "
            "partition=None, so no ShardedIndex may be built here"
        )
        from ..partition.sharded_index import ShardedIndex

        sharded = ShardedIndex(
            _WORKER_STATE["data"],  # type: ignore[arg-type]
            _WORKER_STATE["partition"],  # type: ignore[arg-type]
        )
        _WORKER_STATE["sharded"] = sharded
    return sharded


def evaluate_shard_task(task: Tuple[str, Pattern, int]):
    """Evaluate one sharded work item — ``("solo", p, _)`` or ``("part", p, s)``.

    ``solo`` — the candidate's whole footprint anchors in one shard, so
    every global occurrence lives there: the worker runs the complete
    sharded evaluation and returns the final ``(support,
    num_occurrences)`` pair — two numbers across the process boundary,
    and the measure computation parallelizes along with the enumeration.
    This is the common case under footprint-affine partitioning.

    ``part`` — the footprint spans shards, so exact merging needs the raw
    partial: anchored occurrence item tuples in eager mode, the per-node
    image scan in lazy mode, merged in the parent through
    :func:`repro.partition.evaluate.support_from_shard_items` /
    :func:`~repro.partition.evaluate.merge_lazy_partials`.  Either way
    the outcome is exact regardless of how work lands on processes.
    """
    from ..partition.evaluate import (
        shard_node_images,
        shard_occurrence_items,
        sharded_evaluate_support,
    )

    kind, pattern, shard_id = task
    state = _WORKER_STATE
    sharded = _worker_sharded_index()
    if kind == "solo":
        return sharded_evaluate_support(
            pattern,
            sharded,
            str(state["measure"]),
            lazy=bool(state["lazy"]),
            lazy_cap=int(state["lazy_cap"]),  # type: ignore[arg-type]
            max_occurrences=state["max_occurrences"],  # type: ignore[arg-type]
            index_arg=state["index_arg"],
            histogram=state["histogram"],  # type: ignore[arg-type]
            prune_below=state["prune_below"],  # type: ignore[arg-type]
        )
    if state["lazy"]:
        return shard_node_images(
            pattern,
            sharded,
            shard_id,
            cap=int(state["lazy_cap"]),  # type: ignore[arg-type]
            index=state["index_arg"],
        )
    return shard_occurrence_items(
        pattern,
        sharded,
        shard_id,
        index=state["index_arg"],
        limit=state["max_occurrences"],  # type: ignore[arg-type]
    )


def evaluate_candidate(pattern: Pattern) -> Tuple[float, int]:
    """Evaluate one candidate in a worker (see :func:`evaluate_support`)."""
    state = _WORKER_STATE
    return evaluate_support(
        pattern,
        state["data"],  # type: ignore[arg-type]
        str(state["measure"]),
        lazy=bool(state["lazy"]),
        lazy_cap=int(state["lazy_cap"]),  # type: ignore[arg-type]
        max_occurrences=state["max_occurrences"],  # type: ignore[arg-type]
        index_arg=state["index_arg"],
        histogram=state["histogram"],  # type: ignore[arg-type]
        prune_below=state["prune_below"],  # type: ignore[arg-type]
    )
