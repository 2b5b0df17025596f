"""The traced run: spans around each layer's public entry points.

Nothing here edits the program.  :class:`Tracer` replaces a layer's
public function or method *where the caller looks it up* (for example
``repro.mining.miner.canonical_certificate`` and
``repro.mining.dynamic.canonical_certificate``, not only
``repro.graph.canonical``) with a wrapper that records a span, and puts
every original back on :meth:`Tracer.uninstall`.

A span is ``[name, start, end, parent, trace_id, child_time, tier]``,
kept in memory and written out as NDJSON when the run ends.  A span's
self time is its duration minus the time its direct children cover;
children always run on the parent's thread, nested inside it, so the
covered time is the sum of their durations.  Each operation the
workload times opens a root span (``op``) with a fresh trace id; spans
opened on another thread with no parent (the service writer) start a
trace of their own at each ``StreamApplier.apply_batch``.

A lookup site that no longer exists is skipped at install time and
listed in :attr:`Tracer.missing`; the workload then fails loudly if a
layer it must use recorded no span at all, instead of under-reporting.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter

# Span record slots.
NAME, START, END, PARENT, TRACE, CHILD, TIER = range(7)


def tier_of(pattern) -> str:
    """Pattern-shape tier: ``edge`` (one edge), ``tree`` (path/star), ``cyclic``."""
    edges = pattern.num_edges
    if edges == 1:
        return "edge"
    return "tree" if edges == pattern.num_nodes - 1 else "cyclic"


#: ``(span name, module, attribute, how)`` for every wrapped lookup site.
#: ``how`` picks the wrapper: ``call`` records a plain span; ``gen`` drains
#: the returned iterator inside the span and counts its items;
#: ``tiered`` / ``measure`` classify the pattern argument by
#: :func:`tier_of`; ``canonical`` remembers the certificates per trace;
#: ``apply`` starts a writer-side trace and measures queue wait; ``pool``
#: records the deepest per-worker queue; ``support`` and ``submit`` only
#: count or timestamp, with no span.
SITES = (
    ("index.build", "repro.index.compact", "CompactGraphIndex.__init__", "call"),
    ("index.patch", "repro.index.compact", "CompactGraphIndex.apply_delta", "call"),
    ("extension", "repro.mining.miner", "single_edge_patterns", "gen"),
    ("extension", "repro.mining.miner", "all_extensions", "gen"),
    ("extension", "repro.mining.dynamic", "single_edge_patterns", "gen"),
    ("extension", "repro.mining.dynamic", "all_extensions", "gen"),
    ("canonical", "repro.mining.miner", "canonical_certificate", "canonical"),
    ("canonical", "repro.mining.dynamic", "canonical_certificate", "canonical"),
    ("canonical", "repro.mining.standing", "canonical_certificate", "canonical"),
    ("match", "repro.hypergraph.construction", "find_occurrences", "tiered"),
    ("match", "repro.measures.lazy_mni", "lazy_mni_support", "tiered"),
    ("hypergraph", "repro.hypergraph.construction", "HypergraphBundle.build", "call"),
    ("measure", "repro.measures.base", "compute_support", "measure"),
    ("measure", "repro.partition.evaluate", "compute_support", "measure"),
    ("support", "repro.mining.parallel", "evaluate_support", "support"),
    ("support", "repro.mining.dynamic", "evaluate_support", "support"),
    ("miner", "repro.mining.miner", "FrequentSubgraphMiner.mine", "call"),
    ("dynamic.refresh", "repro.mining.dynamic", "DynamicMiner.refresh", "call"),
    ("dynamic.apply", "repro.mining.dynamic", "StreamApplier.apply_batch", "apply"),
    ("partition.build", "repro.partition.sharded_index", "ShardedIndex.build", "call"),
    ("pool.run", "repro.partition.workers", "ShardWorkerPool.run", "pool"),
    ("snapshots.publish", "repro.service.snapshots", "SnapshotRegistry.publish", "call"),
    ("snapshots.pin", "repro.service.snapshots", "SnapshotRegistry.pin", "call"),
    ("cache.get", "repro.service.cache", "ResultCache.get", "call"),
    ("cache.put", "repro.service.cache", "ResultCache.put", "call"),
    ("cache.retain", "repro.service.cache", "ResultCache.retain", "call"),
    ("subs.dispatch", "repro.service.subscriptions", "SubscriptionRegistry.dispatch", "call"),
    ("writer.submit", "repro.service.service", "GraphService.submit_updates", "submit"),
)


class Tracer:
    """Install span wrappers, collect spans and counts, compute self times."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self.queue_waits: List[float] = []
        self.queue_depth_max = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._trace_ids = itertools.count(1)
        self._originals: List[tuple] = []
        self._submitted: Dict[int, float] = {}
        self._certificates: Dict[int, set] = defaultdict(set)
        self.active = False

    # -- span plumbing -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, tier: Optional[str] = None, root: bool = False) -> list:
        stack = self._stack()
        if stack and not root:
            parent = stack[-1]
            trace = parent[TRACE]
        else:
            parent = None
            trace = getattr(self._local, "trace", None)
            if root or trace is None:
                trace = self._local.trace = next(self._trace_ids)
        record = [name, _clock(), 0.0, parent, trace, 0.0, tier]
        stack.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = _clock()
        stack = self._stack()
        stack.pop()
        parent = record[PARENT]
        if parent is not None:
            parent[CHILD] += record[END] - record[START]
        with self._lock:
            self.spans.append(record)

    @contextlib.contextmanager
    def operation(self, kind: str):
        """One timed operation: a root span with a new trace id."""
        record = self._open(f"op.{kind}", root=True)
        try:
            yield record
        finally:
            self._close(record)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def new_trace(self) -> None:
        """Start a fresh trace id for the next root span on this thread."""
        self._local.trace = next(self._trace_ids)

    # -- wrappers ------------------------------------------------------
    def _wrap(self, name: str, how: str, func: Callable) -> Callable:
        tracer = self

        if how == "support":

            def support(*args, **kwargs):
                result = func(*args, **kwargs)
                tracer.count("support.calls")
                if result[1] < 0 and not kwargs.get("lazy"):
                    tracer.count("support.bound_pruned")
                if any(record[NAME] == "dynamic.refresh" for record in tracer._stack()):
                    tracer.count("support.dynamic")
                return result

            return support

        if how == "submit":

            def submit(*args, **kwargs):
                updates = args[1]
                if updates:
                    with tracer._lock:
                        tracer._submitted[id(updates[0])] = _clock()
                return func(*args, **kwargs)

            return submit

        def traced(*args, **kwargs):
            tier = None
            if how == "tiered":
                tier = tier_of(args[0])
            elif how == "measure":
                tier = tier_of(args[1] if len(args) > 1 else kwargs["pattern"])
            elif how == "apply":
                if not tracer._stack():
                    tracer.new_trace()
                batch = args[1]
                with tracer._lock:
                    submitted = tracer._submitted.pop(id(batch[0]), None) if batch else None
                if submitted is not None:
                    tracer.queue_waits.append(_clock() - submitted)
            elif how == "pool":
                pool, tasks = args[0], args[2]
                depth = Counter(task[2] % pool.workers for task in tasks)
                tracer.queue_depth_max = max(
                    tracer.queue_depth_max, max(depth.values(), default=0)
                )
            record = tracer._open(name, tier)
            try:
                result = func(*args, **kwargs)
                if how == "gen":
                    result = list(result)
                    tracer.count("extension.candidates", len(result))
                    result = iter(result)
                elif how == "tiered" and isinstance(result, list):
                    tracer.count("match.occurrences", len(result))
                elif how == "canonical":
                    tracer._certificates[record[TRACE]].add(result)
                return result
            finally:
                tracer._close(record)

        return traced

    def install(self) -> None:
        """Wrap every lookup site that exists; record the ones that do not."""
        if self.active:
            return
        for name, module_name, attribute, how in SITES:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                if f"{module_name}.{attribute}" not in self.missing:
                    self.missing.append(f"{module_name}.{attribute}")
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, how, original.__func__))
            else:
                replacement = self._wrap(name, how, original)
            self._originals.append((owner, leaf, original, leaf in vars(owner)))
            setattr(owner, leaf, replacement)
        self.active = True

    def uninstall(self) -> None:
        """Put every original back (last wrapped, first restored)."""
        while self._originals:
            owner, leaf, original, own = self._originals.pop()
            if own:
                setattr(owner, leaf, original)
            else:  # inherited: drop the wrapper, lookup falls back to the base
                delattr(owner, leaf)
        self.active = False

    # -- results -------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_ms``, ``self_ms``, plus per-tier self ms."""
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        with self._lock:
            spans = list(self.spans)
        for record in spans:
            entry = out[record[NAME]]
            duration = record[END] - record[START]
            entry["calls"] += 1
            entry["total_ms"] += duration * 1e3
            self_ms = (duration - record[CHILD]) * 1e3
            entry["self_ms"] += self_ms
            if record[TIER] is not None:
                entry[f"self_ms.{record[TIER]}"] += self_ms
                entry[f"calls.{record[TIER]}"] += 1
        return {name: dict(entry) for name, entry in out.items()}

    def unique_certificates(self) -> int:
        """Distinct certificates computed, summed over traces (operations)."""
        return sum(len(certs) for certs in self._certificates.values())

    def write(self, path) -> int:
        """Write every span as one NDJSON line; returns how many."""
        ids = {id(record): i for i, record in enumerate(self.spans)}
        with open(path, "w") as out:
            for i, record in enumerate(self.spans):
                parent = record[PARENT]
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": record[NAME],
                            "start": record[START],
                            "end": record[END],
                            "parent": None if parent is None else ids.get(id(parent)),
                            "trace_id": record[TRACE],
                            "self_s": record[END] - record[START] - record[CHILD],
                            "tier": record[TIER],
                        }
                    )
                    + "\n"
                )
        return len(self.spans)
