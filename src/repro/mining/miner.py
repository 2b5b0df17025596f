"""Frequent-subgraph miner for a single large graph.

A pattern-growth (gSpan/GraMi-flavored) search:

1. seed with every distinct one-edge pattern occurring in the data graph;
2. repeatedly take a frequent pattern and generate its one-edge extensions
   (forward = new node, backward = close a cycle), deduplicated by
   canonical certificate;
3. evaluate the configured support measure; extensions below the threshold
   are pruned and — because every measure the paper proposes is
   **anti-monotonic** — pruning is *safe*: no frequent superpattern can hide
   behind an infrequent subpattern.

The search is organized **level-synchronously** (all candidates with k+1
edges are generated from the level-k survivors, deduplicated, then
evaluated as a batch).  This is the same traversal the old FIFO queue
performed — seeds are all one-edge patterns, each extension adds exactly
one edge — but it exposes the per-level batches needed for parallel
support evaluation (``workers > 1``) while keeping results identical.

The data graph's :class:`~repro.index.GraphIndex` is built **once per
mining session** and reused across every candidate evaluation (and every
worker builds its own copy exactly once); ``use_index=False`` selects the
brute-force reference path the equivalence tests compare against.

The support measure is pluggable (any name registered in
:mod:`repro.measures`); using a non-anti-monotonic measure (e.g. raw
occurrence count) makes pruning heuristic, which the miner flags via
``MiningError`` unless ``allow_non_anti_monotonic=True``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..errors import MiningError
from ..graph.canonical import canonical_certificate
from ..graph.labeled_graph import LabeledGraph
from ..graph.pattern import Pattern
from ..index.graph_index import GraphIndex, get_index
from ..isomorphism.table import OccurrenceTable, growth_step
from ..measures.base import measure_info
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.logs import get_logger
from .extension import adjacent_label_pairs, all_extensions, single_edge_patterns
from .results import FrequentPattern, MiningResult, MiningStats
from .spec import UNSET, MiningSpec, resolve_spec

_LOG = get_logger("mining.miner")


def record_session_metrics(
    stats: MiningStats, levels: int, propagations: int = 0
) -> None:
    """Flush one mining session's counters onto the active registry.

    Called once at session end (never per candidate — the hot loop pays
    nothing) by both the static and dynamic lattice walks; zero-valued
    counters still register, so every ``repro_miner_*`` name appears in
    snapshots from the first session on.  ``propagations`` (candidates
    that extended their parent's occurrence table) is no
    :class:`MiningStats` field: indexed and brute stats must stay equal.
    """
    registry = _metrics.get_registry()
    registry.counter("repro_miner_sessions").inc()
    registry.counter("repro_miner_levels").inc(levels)
    # Declared here (not in the pool) so the name exists even when no
    # pool was ever constructed; incremented at the fallback sites.
    registry.counter("repro_pool_serial_fallbacks")
    # Declared here because pooled evaluation runs the matchers inside
    # worker processes: the counters are per-process, and the parent's
    # snapshot must still carry the names.
    registry.counter("repro_match_vf2_calls")
    registry.counter("repro_match_anchored_searches")
    registry.counter("repro_match_propagations").inc(propagations)
    for name, value in stats.as_dict().items():
        registry.counter(f"repro_miner_{name}").inc(value)


class FrequentSubgraphMiner:
    """Mine frequent patterns from one labeled graph.

    Parameters
    ----------
    data:
        The single data graph to mine.
    measure:
        Name of a registered support measure (default ``"mni"``, the
        cheapest anti-monotonic choice; ``"mi"``, ``"mvc"``, ``"mis"`` and
        the LP relaxations all work).
    min_support:
        Frequency threshold; patterns with support >= this are frequent.
    max_pattern_nodes / max_pattern_edges:
        Structural caps on the search.
    max_occurrences:
        Safety valve: stop enumerating occurrences of a candidate beyond
        this count and treat the candidate's support optimistically via its
        truncated occurrence list (exact for every pattern below the cap).
    allow_non_anti_monotonic:
        Permit measures whose pruning is not safe (for experimentation).
    lazy:
        Only for ``measure="mni"``: decide frequency with the GraMi-style
        threshold-bounded evaluation (anchored searches, no occurrence
        enumeration).  Reported supports are capped at ``min_support``.
    use_index:
        Route all matching through the data graph's acceleration index
        (built once, reused for every candidate).  ``False`` is the
        brute-force reference path; results are identical either way.
    workers:
        Evaluate same-level candidates concurrently in this many worker
        processes (``<= 1`` = in-process serial evaluation).  Result
        order, supports and statistics are deterministic and identical to
        the serial run.  Falls back to serial evaluation if worker
        processes cannot be spawned.
    shards:
        Partition the data graph into this many edge-disjoint shards
        (``repro.partition``) and evaluate support shard-by-shard: each
        candidate enumerates only its relevant halo-expanded shards and
        the per-shard results merge into exact global values — results
        are byte-identical to the unsharded run (with ``max_occurrences``
        set, truncation is still deterministic but may keep a different
        occurrence subset than the flat enumeration order would).
        ``shards=1`` (default) is the unsharded path, untouched.
        Composes with ``workers``: each shard is pinned to one
        long-lived shard-resident worker (``shard_id % workers``) that
        holds the shard's slice and halo expansions for the whole
        session, so shards of the same candidate evaluate in parallel
        and only constant-size requests cross the process boundary.
    partition_method:
        Partitioner for ``shards > 1`` — ``"hash"``, ``"label"``, or
        ``"edgecut"`` (see :func:`repro.partition.partition_edges`).
    max_resident:
        Out-of-core mode (requires ``shards > 1``): keep at most this
        many shards' halo-expanded views resident in parent memory; the
        least recently used shard spills to disk and is re-hydrated on
        demand (:class:`repro.partition.workers.ShardPager`).  Results
        are byte-identical regardless of eviction order.
    resident_workers:
        With ``False``, sharded pooled sessions use the per-task
        shipping pool (the pre-resident design: every worker receives
        the whole graph + partition and rebuilds its own sharded
        index).  Kept as the explicit benchmark baseline; results are
        identical either way.
    spec:
        A :class:`~repro.mining.spec.MiningSpec` carrying the whole
        parameter surface at once.  Explicit kwargs override the spec's
        fields; omitting both uses the spec defaults.  The kwargs above
        remain supported as a shim over the spec.
    """

    def __init__(
        self,
        data: LabeledGraph,
        measure=UNSET,
        min_support=UNSET,
        max_pattern_nodes=UNSET,
        max_pattern_edges=UNSET,
        max_occurrences=UNSET,
        allow_non_anti_monotonic=UNSET,
        lazy=UNSET,
        use_index=UNSET,
        workers=UNSET,
        shards=UNSET,
        partition_method=UNSET,
        max_resident=UNSET,
        resident_workers=UNSET,
        spec: Optional[MiningSpec] = None,
    ) -> None:
        spec = resolve_spec(
            spec,
            {
                "measure": measure,
                "min_support": min_support,
                "max_pattern_nodes": max_pattern_nodes,
                "max_pattern_edges": max_pattern_edges,
                "max_occurrences": max_occurrences,
                "allow_non_anti_monotonic": allow_non_anti_monotonic,
                "lazy": lazy,
                "use_index": use_index,
                "workers": workers,
                "shards": shards,
                "partition_method": partition_method,
                "max_resident": max_resident,
                "resident_workers": resident_workers,
            },
        )
        info = measure_info(spec.measure)
        if not info.anti_monotonic and not spec.allow_non_anti_monotonic:
            raise MiningError(
                f"measure {spec.measure!r} is not anti-monotonic; pruning would be "
                "unsound (pass allow_non_anti_monotonic=True to experiment)"
            )
        self.data = data
        self.spec = spec
        self.measure = spec.measure
        self.min_support = spec.min_support
        self.max_pattern_nodes = spec.max_pattern_nodes
        self.max_pattern_edges = spec.max_pattern_edges
        self.max_occurrences = spec.max_occurrences
        self.lazy = spec.lazy
        self.use_index = spec.use_index
        self.workers = spec.workers
        self.shards = spec.shards
        self.partition_method = spec.partition_method
        self.max_resident = spec.max_resident
        self.resident_workers = spec.resident_workers
        self._pager = None
        # Built once per mining session; every candidate evaluation, seed
        # generation, and extension proposal reuses it.  mine() re-syncs
        # against the graph's mutation version, so a graph mutated between
        # construction and mining never sees stale label pairs, histogram
        # counts, or prune bounds.
        self._index_arg = None if self.use_index else False
        self._index: Optional[GraphIndex] = None
        self._sharded = None
        self._session_version: Optional[int] = None
        self._sync_session_state()

    def _sync_session_state(self) -> None:
        """(Re)derive per-session state from the data graph when it changed."""
        if self._session_version == self.data.mutation_version():
            return
        self._index = get_index(self.data) if self.use_index else None
        self._label_pairs = adjacent_label_pairs(self.data, index=self._index)
        self._histogram = (
            self._index.label_histogram()
            if self._index
            else self.data.label_histogram()
        )
        if self._pager is not None:
            # The old index (and any spills derived from it) is obsolete.
            self._pager.close()
            self._pager = None
        if self.shards > 1:
            from ..partition.sharded_index import ShardedIndex

            self._sharded = ShardedIndex.build(
                self.data, self.shards, self.partition_method
            )
            if self.max_resident is not None:
                from ..partition.workers import ShardPager

                self._pager = ShardPager(self._sharded, self.max_resident)
        else:
            self._sharded = None
        self._session_version = self.data.mutation_version()

    # ------------------------------------------------------------------
    @property
    def _lazy_cap(self) -> int:
        """Ceiling of the (possibly fractional) threshold for lazy mode."""
        return max(1, math.ceil(self.min_support))

    def _record(
        self,
        pattern: Pattern,
        certificate: str,
        support: float,
        num_occurrences: int,
        stats: MiningStats,
    ) -> FrequentPattern:
        """The single stats-bookkeeping + result-assembly path.

        Both the serial evaluator and the process-pool outcome loop feed
        through here, so serial and parallel runs cannot drift apart.
        """
        stats.support_calls += 1
        if num_occurrences >= 0:
            stats.occurrence_enumerations += 1
        return FrequentPattern(
            pattern=pattern,
            support=support,
            certificate=certificate,
            num_occurrences=num_occurrences,
        )

    def _flat_support(self, pattern: Pattern, **growth) -> Tuple:
        """:func:`~repro.mining.parallel.evaluate_support` on the flat graph."""
        from .parallel import evaluate_support

        return evaluate_support(
            pattern,
            self.data,
            self.measure,
            lazy=self.lazy,
            lazy_cap=self._lazy_cap,
            max_occurrences=self.max_occurrences,
            index_arg=self._index_arg,
            histogram=self._histogram,
            prune_below=self.min_support,
            **growth,
        )

    def _support_of(
        self, pattern: Pattern, certificate: str, stats: MiningStats
    ) -> FrequentPattern:
        """Evaluate the measure for one candidate, recording stats."""
        if self._sharded is not None:
            from ..partition.evaluate import sharded_evaluate_support

            support, num_occurrences = sharded_evaluate_support(
                pattern,
                self._sharded,
                self.measure,
                lazy=self.lazy,
                lazy_cap=self._lazy_cap,
                max_occurrences=self.max_occurrences,
                index_arg=self._index_arg,
                histogram=self._histogram,
                prune_below=self.min_support,
            )
        else:
            support, num_occurrences = self._flat_support(pattern)
        return self._record(pattern, certificate, support, num_occurrences, stats)

    def _evaluate_grown(
        self, level: Sequence[Tuple[Pattern, str]], lineage: Sequence[tuple], stats
    ) -> Tuple[List[FrequentPattern], List[Optional[OccurrenceTable]], int]:
        """One level on the table path: ``(results, tables, grown)``.

        A candidate whose lineage names a parent table extends it; the
        rest enumerate.  ``grown`` counts the candidates that extended.
        """
        results, tables, grown = [], [], 0
        for (pattern, certificate), (parent, step) in zip(level, lineage):
            support, num_occurrences, table = self._flat_support(
                pattern, parent=parent, step=step, keep_table=True
            )
            grown += parent is not None and table is not None
            results.append(
                self._record(pattern, certificate, support, num_occurrences, stats)
            )
            tables.append(table)
        return results, tables, grown

    # ------------------------------------------------------------------
    def _evaluate_level(
        self,
        level: Sequence[Tuple[Pattern, str]],
        stats: MiningStats,
        pool,
    ) -> Tuple[List[FrequentPattern], object]:
        """Evaluate one level's candidates in order; returns (results, pool).

        ``ProcessPoolExecutor`` spawns workers lazily, so environments
        that cannot fork only fail here, at the first ``map`` — not in
        :meth:`_make_pool`.  Any pool-infrastructure failure (spawn
        refused, workers killed) shuts the pool down and re-evaluates the
        level serially; the returned pool is then ``None`` so the rest of
        the run stays serial.  Evaluation is pure, so the retry changes
        nothing but wall-clock time.
        """
        from concurrent.futures import BrokenExecutor

        outcomes = None
        if pool is not None and self._sharded is not None:
            try:
                outcomes = self._pooled_sharded_outcomes(level, pool)
            except (OSError, BrokenExecutor) as exc:
                _LOG.warning(
                    "shard worker pool failed mid-level (%s); re-evaluating "
                    "the level serially and staying serial for this run",
                    exc,
                )
                _metrics.counter("repro_pool_serial_fallbacks").inc()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
        elif pool is not None:
            from .parallel import evaluate_candidate

            patterns = [pattern for pattern, _ in level]
            chunksize = max(1, len(patterns) // (self.workers * 4))
            try:
                outcomes = list(
                    pool.map(evaluate_candidate, patterns, chunksize=chunksize)
                )
            except (OSError, BrokenExecutor) as exc:
                _LOG.warning(
                    "worker pool failed mid-level (%s); re-evaluating the "
                    "level serially and staying serial for this run",
                    exc,
                )
                _metrics.counter("repro_pool_serial_fallbacks").inc()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
        if outcomes is None:
            return (
                [
                    self._support_of(pattern, certificate, stats)
                    for pattern, certificate in level
                ],
                pool,
            )
        evaluated = [
            self._record(pattern, certificate, support, num_occurrences, stats)
            for (pattern, certificate), (support, num_occurrences) in zip(
                level, outcomes
            )
        ]
        return evaluated, pool

    def _pooled_sharded_outcomes(
        self, level: Sequence[Tuple[Pattern, str]], pool
    ) -> List[Tuple[float, int]]:
        """One level through the pool at (candidate, shard) granularity.

        The parent plans each candidate exactly as the serial sharded
        evaluator would — same prune bound, same relevant-shard set, same
        flat fallback for unshardable patterns — routes the planned
        (candidate, shard) tasks through the shared planner/merger
        (:func:`repro.partition.workers.pooled_outcomes`), and merges
        each candidate's shard partials through the shared merge helpers.
        Outcomes are therefore byte-identical to the serial sharded run,
        which in turn matches the unsharded one — for the shard-resident
        pool and the per-task-shipping reference pool alike.
        """
        from ..partition.workers import (
            ExecutorShardRunner,
            ShardWorkerPool,
            pooled_outcomes,
        )

        runner = (
            pool
            if isinstance(pool, ShardWorkerPool)
            else ExecutorShardRunner(pool, self.workers)
        )

        return pooled_outcomes(
            [pattern for pattern, _ in level],
            self._sharded,
            runner,
            measure=self.measure,
            lazy=self.lazy,
            lazy_cap=self._lazy_cap,
            max_occurrences=self.max_occurrences,
            flat_evaluate=self._flat_support,
            histogram=self._histogram,
            prune_below=self.min_support,
        )

    def _make_pool(self):
        """A process pool for support evaluation, or None (serial).

        Sharded sessions get the shard-resident worker pool by default
        (``resident_workers=False`` selects the per-task shipping
        executor instead); flat sessions keep the candidate-level
        executor — initialized **without** a partition, so flat workers
        never pay sharded pickling or rebuild a sharded index.  Any
        construction failure degrades to the serial path, which produces
        identical results; the degrade path for workers that die later
        lives in :meth:`_evaluate_level`.
        """
        if self.workers <= 1:
            return None
        if self._sharded is not None and self.resident_workers:
            try:
                from ..partition.workers import ShardWorkerPool

                return ShardWorkerPool(
                    self.workers,
                    measure=self.measure,
                    lazy=self.lazy,
                    lazy_cap=self._lazy_cap,
                    use_index=self.use_index,
                    depth=max(0, self.max_pattern_nodes - 2),
                )
            except (OSError, ValueError) as exc:
                _LOG.warning(
                    "could not start the shard worker pool (%s); mining serially",
                    exc,
                )
                _metrics.counter("repro_pool_serial_fallbacks").inc()
                return None
        try:
            from concurrent.futures import ProcessPoolExecutor

            from .parallel import init_worker

            return ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=init_worker,
                initargs=(
                    self.data,
                    self.measure,
                    self.lazy,
                    self._lazy_cap,
                    self.max_occurrences,
                    self.use_index,
                    self.min_support,
                    self._sharded.partition if self._sharded is not None else None,
                ),
            )
        except (OSError, ValueError) as exc:
            # Restricted environments (no usable start method, no
            # /dev/shm): degrade to the serial path, which produces
            # identical results.
            _LOG.warning(
                "could not start the worker pool (%s); mining serially", exc
            )
            _metrics.counter("repro_pool_serial_fallbacks").inc()
            return None

    def mine(self) -> MiningResult:
        """Run the search; returns every frequent pattern found."""
        self._sync_session_state()
        stats = MiningStats()
        frequent: List[FrequentPattern] = []
        seen: set = set()
        levels = 0
        # Only the indexed, serial, flat, eager path extends occurrence
        # tables; the brute oracle, lazy MNI, pooled and sharded
        # evaluation enumerate every candidate.
        grows_tables = (
            self.use_index and not self.lazy and self.workers <= 1 and self.shards <= 1
        )
        propagations = 0

        with _trace.span(
            "mine",
            measure=self.measure,
            min_support=self.min_support,
            shards=self.shards,
            workers=self.workers,
        ) as mine_span:
            level: List[Tuple[Pattern, str]] = []
            with _trace.span("seeds") as seed_span:
                for seed in single_edge_patterns(self.data, index=self._index):
                    stats.patterns_generated += 1
                    certificate = canonical_certificate(seed.graph)
                    if certificate in seen:
                        stats.duplicates_skipped += 1
                        continue
                    seen.add(certificate)
                    level.append((seed, certificate))
                seed_span.set(seeds=len(level))
            # Per candidate: its parent's complete table and the step
            # between them, or (None, None) to enumerate.  A table lives
            # for exactly one level.
            lineage: List[tuple] = [(None, None)] * len(level)

            pool = self._make_pool()
            try:
                while level:
                    levels += 1
                    frequent_before = stats.patterns_frequent
                    pruned_before = stats.patterns_pruned
                    generated_before = stats.patterns_generated
                    with _trace.span(
                        "level", level=levels, candidates=len(level)
                    ) as level_span:
                        stats.patterns_evaluated += len(level)
                        with _trace.span("evaluate", candidates=len(level)):
                            if grows_tables:
                                results, tables, grown = self._evaluate_grown(
                                    level, lineage, stats
                                )
                                propagations += grown
                            else:
                                results, pool = self._evaluate_level(level, stats, pool)
                                tables = [None] * len(results)
                        survivors: List[Tuple[Pattern, Optional[OccurrenceTable]]] = []
                        for evaluated, table in zip(results, tables):
                            if evaluated.support >= self.min_support:
                                stats.patterns_frequent += 1
                                frequent.append(evaluated)
                                survivors.append((evaluated.pattern, table))
                            else:
                                stats.patterns_pruned += 1
                        del tables  # only survivors' tables outlive the level
                        next_level: List[Tuple[Pattern, str]] = []
                        next_lineage: List[tuple] = []
                        with _trace.span("extend"):
                            for pattern, table in survivors:
                                for extension in all_extensions(
                                    pattern,
                                    self._label_pairs,
                                    max_nodes=self.max_pattern_nodes,
                                    max_edges=self.max_pattern_edges,
                                ):
                                    stats.patterns_generated += 1
                                    certificate = canonical_certificate(
                                        extension.graph
                                    )
                                    if certificate in seen:
                                        stats.duplicates_skipped += 1
                                        continue
                                    seen.add(certificate)
                                    next_level.append((extension, certificate))
                                    next_lineage.append(
                                        (table, growth_step(pattern, extension))
                                        if table is not None and table.complete
                                        else (None, None)
                                    )
                        level_span.set(
                            frequent=stats.patterns_frequent - frequent_before,
                            pruned=stats.patterns_pruned - pruned_before,
                            generated=stats.patterns_generated - generated_before,
                        )
                    level, lineage = next_level, next_lineage
            except BaseException:
                # Interrupt/failure path: never *wait* for in-flight work —
                # a Ctrl-C during a long level must not hang on shutdown.
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
                raise
            if pool is not None:
                pool.shutdown()

            frequent.sort(key=lambda fp: (fp.num_edges, -fp.support, fp.certificate))
            mine_span.set(levels=levels, frequent=len(frequent))
        record_session_metrics(stats, levels, propagations)
        return MiningResult(
            frequent=frequent,
            stats=stats,
            measure=self.measure,
            min_support=self.min_support,
        )


def mine_frequent_patterns(
    data: LabeledGraph,
    measure=UNSET,
    min_support=UNSET,
    max_pattern_nodes=UNSET,
    max_pattern_edges=UNSET,
    max_occurrences=UNSET,
    allow_non_anti_monotonic=UNSET,
    lazy=UNSET,
    use_index=UNSET,
    workers=UNSET,
    shards=UNSET,
    partition_method=UNSET,
    max_resident=UNSET,
    resident_workers=UNSET,
    spec: Optional[MiningSpec] = None,
) -> MiningResult:
    """Convenience one-call mining entry point (see :class:`FrequentSubgraphMiner`)."""
    miner = FrequentSubgraphMiner(
        data,
        measure=measure,
        min_support=min_support,
        max_pattern_nodes=max_pattern_nodes,
        max_pattern_edges=max_pattern_edges,
        max_occurrences=max_occurrences,
        allow_non_anti_monotonic=allow_non_anti_monotonic,
        lazy=lazy,
        use_index=use_index,
        workers=workers,
        shards=shards,
        partition_method=partition_method,
        max_resident=max_resident,
        resident_workers=resident_workers,
        spec=spec,
    )
    return miner.mine()
