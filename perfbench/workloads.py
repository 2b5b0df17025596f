"""The four benchmark workloads.

Each workload builds its input from the seed (:mod:`inputs`), sets the
program up several times (``setup_s`` is the median), then runs its
operation for the given number of seconds and checks the answers
against one-shot oracles after the clock stops.  The program is driven
only through public entry points and ``spec=MiningSpec(...)``.

A workload fills the :class:`Report` it is given; ``run.py`` turns it
into the printed table, the report file and the final JSON line.
"""

from __future__ import annotations

import contextlib
import gc
import json
import random
import resource
import statistics
import threading
import time
from collections import Counter, deque
from pathlib import Path
from typing import Callable, Dict, List, Optional

import inputs
from repro import Pattern, find_occurrences
from repro.index import get_index
from repro.mining import (
    DynamicMiner,
    FrequentSubgraphMiner,
    MiningSpec,
    StandingSpec,
    StreamApplier,
    evaluate_standing,
    mine_frequent_patterns,
    replay_answer,
)
from repro.obs import metrics
from repro.service import GraphService
from tracing import Tracer

clock = time.perf_counter

MEDIUM_SPEC = MiningSpec(
    measure="mni", min_support=4, max_pattern_nodes=4, max_pattern_edges=4
)
SHARDED_SPEC = MEDIUM_SPEC.replace(shards=4, workers=2, max_resident=2)
STREAM_SPEC = MiningSpec(
    measure="mni", min_support=3, max_pattern_nodes=4, max_pattern_edges=4
)
#: Uncached read specs of service-mixed, cycled through in pairs.
MISS_SPECS = (
    MiningSpec(measure="mni", min_support=2, max_pattern_nodes=3, max_pattern_edges=3),
    MiningSpec(measure="mni", min_support=5, max_pattern_nodes=4, max_pattern_edges=4),
    MiningSpec(measure="mi", min_support=3, max_pattern_nodes=3, max_pattern_edges=3),
)
#: Push threshold subscription: not the maintained spec, so dispatch mines.
THRESHOLD_SUB = StandingSpec(
    kind="threshold",
    measure="mni",
    min_support=4,
    max_pattern_nodes=3,
    max_pattern_edges=3,
    delivery="push",
)
#: Push pattern subscription on a D-E-D path, a motif of the churned region.
PATTERN_SUB = StandingSpec(
    kind="pattern",
    pattern=((("p1", "D"), ("p2", "E"), ("p3", "D")), (("p1", "p2"), ("p2", "p3"))),
    min_support=2,
    delivery="push",
)
SUBSCRIPTIONS = (THRESHOLD_SUB, PATTERN_SUB)

#: Set-ups per run (at least the first, at most the second, stopping
#: once they took a second in total); ``setup_s`` is their median.
SETUP_REPEATS = (5, 25)
#: mine-medium and mine-sharded cycle through this many seeded
#: presentations of the medium graph, so one run averages over several.
PRESENTATIONS = 4
#: Ops whose registry counter deltas form the deterministic work counts.
COUNT_OPS = {"mine-medium": 1, "mine-sharded": 1, "stream-churn": 100}
#: stream-churn compares against a one-shot mine every this many batches
#: (at a seeded offset) and at the end.
CHECK_EVERY = 60
#: service-mixed: open-loop write period; the closed-loop reader's think
#: time and cached reads per uncached pair; how many served answers are
#: checked against the oracle.  The basis of each traffic constant is in
#: README.md, "Traffic constants and their basis".
WRITE_PERIOD_S = 0.1
THINK_S = 0.002
HITS_PER_PAIR = 10
CHECKED_READS = 10

#: Registry counters reported per layer (``repro.obs.metrics`` names).
REGISTRY_COUNTS = {
    "miner.levels": "repro_miner_levels",
    "miner.generated": "repro_miner_patterns_generated",
    "miner.evaluated": "repro_miner_patterns_evaluated",
    "miner.duplicates_skipped": "repro_miner_duplicates_skipped",
    "miner.frequent": "repro_miner_patterns_frequent",
    "dynamic.reused": "repro_miner_patterns_reused",
    "dynamic.skipped_unaffected": "repro_miner_patterns_skipped_unaffected",
    "dynamic.revived": "repro_miner_patterns_revived",
    "index.patches": "repro_index_patches_applied",
    "index.rebuilds": "repro_index_rebuilds",
    "index.coalesced": "repro_index_deltas_coalesced",
    "pool.tasks": "repro_pool_tasks_dispatched",
    "pool.slices_shipped": "repro_pool_slices_shipped",
    "pool.slices_reshipped": "repro_pool_slices_reshipped",
    "pager.spills": "repro_pager_spills",
    "pager.rehydrations": "repro_pager_rehydrations",
    "pager.recomputes": "repro_pager_recomputes",
    "pager.evictions": "repro_pager_evictions",
    "snapshots.cow_splits": "repro_snapshots_cow_splits",
    "snapshots.gc_versions": "repro_snapshots_gc_versions",
    "cache.hits": "repro_cache_hits",
    "cache.misses": "repro_cache_misses",
    "cache.evictions": "repro_cache_evictions",
    "subs.dispatches": "repro_subs_dispatches",
    "subs.dispatch_skipped": "repro_subs_dispatch_skipped",
    "subs.evaluations": "repro_subs_evaluations",
    "subs.events_emitted": "repro_subs_events_emitted",
}
#: The deterministic work counts (a subset of the above).
DETERMINISTIC = tuple(
    name
    for name in REGISTRY_COUNTS
    if name.split(".")[0] in ("miner", "dynamic", "pool", "pager")
    or name in ("index.patches", "index.rebuilds")
)

#: Layers (span names) a workload must record at least once when traced.
REQUIRED_SPANS = {
    "mine-medium": (
        "index.build", "extension", "canonical", "match", "hypergraph",
        "measure", "miner",
    ),
    "mine-sharded": (
        "index.build", "partition.build", "pool.run", "extension", "canonical",
        "measure", "miner",
    ),
    "stream-churn": (
        "dynamic.apply", "dynamic.refresh", "index.patch", "extension",
        "match", "measure",
    ),
    "service-mixed": (
        "dynamic.apply", "dynamic.refresh", "snapshots.publish", "snapshots.pin",
        "cache.get", "cache.put", "cache.retain", "subs.dispatch", "miner",
        "extension", "match", "measure",
    ),
}


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------
def answer_key(result) -> list:
    """What must be identical: certificates, supports, occurrence counts."""
    return sorted(
        (fp.certificate, fp.support, fp.num_occurrences) for fp in result.frequent
    )


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def counters() -> Dict[str, float]:
    """Every numeric instrument of the process-global registry."""
    snapshot = metrics.get_registry().snapshot()
    return {k: v for k, v in snapshot.items() if isinstance(v, (int, float))}


def diff(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Report:
    """Everything one workload run measured."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.metrics: Dict[str, dict] = {}
        self.op_ms: List[float] = []
        self.setup_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.counts: Dict[str, float] = {}
        self.layers: Dict[str, dict] = {}
        self.notes: Dict[str, object] = {}
        self.tracer: Optional[Tracer] = Tracer() if traced else None
        self.traced_ms: List[float] = []
        self.untraced_ms: List[float] = []
        self.layer_counts: Counter = Counter()

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "samples": samples}

    def latency(self, prefix: str, samples_ms: List[float], quantiles) -> None:
        """Median and tail of ``samples_ms`` as ``<prefix>_p<q>_ms`` metrics."""
        if not samples_ms:
            self.fail(f"{prefix}: no samples")
            return
        for q in quantiles:
            value = percentile(samples_ms, q / 100.0)
            self.metric(f"{prefix}_p{q}_ms", value, "ms", len(samples_ms))
            beyond = sum(1 for v in samples_ms if v > value)
            self.metrics[f"{prefix}_p{q}_ms"]["beyond"] = beyond

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def finish_common(self) -> None:
        self.metric("setup_s", statistics.median(self.setup_s), "s", len(self.setup_s))
        self.metric("op_p50_ms", percentile(self.op_ms, 0.5), "ms", len(self.op_ms))
        self.metric(
            "ops_failed_frac", self.failed / max(1, self.attempted), "ratio",
            self.attempted,
        )

    # -- traced-run helpers ---------------------------------------------
    def timed(self, kind: str, index: int, op: Callable[[], object]):
        """Run one operation; in a traced run every other one is traced."""
        tracer = self.tracer
        trace_this = tracer is not None and index % 2 == 1
        if trace_this:
            tracer.install()
            before = counters()
            with tracer.operation(kind):
                start = clock()
                result = op()
                elapsed = clock() - start
            self.layer_counts.update(diff(counters(), before))
            tracer.uninstall()
            self.traced_ms.append(elapsed * 1e3)
        else:
            start = clock()
            result = op()
            elapsed = clock() - start
            if tracer is not None:
                self.untraced_ms.append(elapsed * 1e3)
        return result, elapsed


def _setup_median(report: Report, setup: Callable[[], tuple], release=None):
    """Set up repeatedly; returns the last set-up's state, releases the rest.

    ``setup`` returns ``(seconds, state)``.  Garbage from the discarded
    set-ups is collected before the measured window starts.
    """
    least, most = SETUP_REPEATS
    kept = None
    while len(report.setup_s) < most and (
        len(report.setup_s) < least or sum(report.setup_s) < 1.0
    ):
        elapsed, state = setup()
        report.setup_s.append(elapsed)
        if kept is not None and release is not None:
            release(kept)
        kept = state
    gc.collect()
    return kept


def _record_counts(report: Report, start: Dict[str, float]) -> None:
    delta = diff(counters(), start)
    report.counts = {
        name: delta.get(REGISTRY_COUNTS[name], 0) for name in DETERMINISTIC
    }


# ----------------------------------------------------------------------
# mine-medium and mine-sharded
# ----------------------------------------------------------------------
def _mine_workload(report: Report, spec: MiningSpec) -> None:
    base_vertices, base_edges = inputs.medium_graph()
    graphs = [
        inputs.build_graph(
            *inputs.present(base_vertices, base_edges, report.seed * PRESENTATIONS + i),
            "medium",
        )
        for i in range(PRESENTATIONS)
    ]

    def setup():
        copy = graphs[len(report.setup_s) % PRESENTATIONS].copy()
        start = clock()
        FrequentSubgraphMiner(copy, spec=spec)
        return clock() - start, None

    _setup_median(report, setup)
    start_counts = counters()
    # Each distinct answer seen, with the mines that gave it; checked
    # after the window, so the oracle's memory stays out of peak_rss_mb.
    answers: List[tuple] = []
    deadline = clock() + report.seconds
    index = 0
    while index < COUNT_OPS[report.workload] or clock() < deadline:
        # A fresh, untimed copy: the index build is inside the op.
        copy = graphs[index % PRESENTATIONS].copy()
        report.attempted += 1
        try:
            result, elapsed = report.timed(
                "mine", index, lambda: mine_frequent_patterns(copy, spec=spec)
            )
        except Exception as exc:  # noqa: BLE001 - counted, reported
            report.fail(f"mine {index} raised {exc!r}")
        else:
            report.op_ms.append(elapsed * 1e3)
            key = answer_key(result)
            del result  # not alive during the next mine
            for seen, mines in answers:
                if seen == key:
                    mines.append(index)
                    break
            else:
                answers.append((key, [index]))
        index += 1
        if index == COUNT_OPS[report.workload]:
            _record_counts(report, start_counts)
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)  # before the checks
    report.metric(
        "mine_s", statistics.median(report.op_ms) / 1e3, "s", len(report.op_ms)
    )

    # The oracle: a one-shot, brute-force (index-free), flat serial mine
    # of the unpermuted graph.
    oracle = answer_key(
        mine_frequent_patterns(
            inputs.build_graph(base_vertices, base_edges, "medium-oracle"),
            spec=MEDIUM_SPEC.replace(use_index=False),
        )
    )
    report.notes["frequent"] = len(oracle)
    for key, mines in answers:
        if key != oracle:
            for index in mines:
                report.fail(f"mine {index} differs from the one-shot oracle")
    if report.traced and report.workload == "mine-medium":
        _tier_probe(report, graphs[0])


def _tier_probe(report: Report, graph) -> None:
    """Time the named tier queries; indexed counts must equal brute-force ones."""
    fixture = json.loads((Path(__file__).parent / "tiers.json").read_text())
    index = get_index(graph)
    probe: Dict[str, dict] = {}
    for tier, queries in fixture["tiers"].items():
        times = []
        for name, query in queries.items():
            pattern = Pattern.from_edges(
                [tuple(node) for node in query["nodes"]],
                [tuple(edge) for edge in query["edges"]],
                name=name,
            )
            expected = len(find_occurrences(pattern, graph, index=False))
            for _ in range(5):
                start = clock()
                found = len(find_occurrences(pattern, graph, index=index))
                times.append((clock() - start) * 1e3)
                if found != expected:
                    report.fail(f"tier {tier} query {name}: {found} != {expected}")
        probe[tier] = {"queries": len(queries), "match_ms_median": statistics.median(times)}
    report.notes["tier_probe"] = {"fixture": fixture["name"], "tiers": probe}


def mine_medium(report: Report) -> None:
    _mine_workload(report, MEDIUM_SPEC)


def mine_sharded(report: Report) -> None:
    _mine_workload(report, SHARDED_SPEC)


# ----------------------------------------------------------------------
# stream-churn
# ----------------------------------------------------------------------
def _stream_input(seed: int):
    vertices, edges = inputs.present(*inputs.two_region_graph(), seed)
    stream = inputs.ChurnStream(vertices, edges, seed)
    return stream, stream.base()


def stream_churn(report: Report) -> None:
    stream, (base_vertices, base_edges) = _stream_input(report.seed)
    rng = random.Random(f"checkpoints:{report.seed}")
    offset = rng.randrange(CHECK_EVERY)

    def setup():
        graph = inputs.build_graph(base_vertices, base_edges, "stream")
        start = clock()
        miner = DynamicMiner(graph, spec=STREAM_SPEC)
        applier = StreamApplier(graph)
        miner.refresh()
        return clock() - start, (miner, applier)

    miner, applier = _setup_median(report, setup, release=lambda state: state[0].close())

    batches: List[list] = []
    checkpoints: Dict[int, list] = {}
    updates = 0
    bulk_ms: List[float] = []
    start_counts = counters()
    deadline = clock() + report.seconds
    index = 0
    while index < COUNT_OPS["stream-churn"] or clock() < deadline:
        bulk, batch = stream.next_batch()
        batches.append(batch)
        report.attempted += 1

        def op(batch=batch):
            applier.apply_batch(batch)
            return miner.refresh()

        try:
            result, elapsed = report.timed("batch", index, op)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            report.fail(f"batch {index} raised {exc!r}")
            break  # the live graph no longer follows the stream
        report.op_ms.append(elapsed * 1e3)
        if bulk:
            bulk_ms.append(elapsed * 1e3)
        updates += len(batch)
        if index % CHECK_EVERY == offset:
            checkpoints[index] = answer_key(result)
        index += 1
        if index == COUNT_OPS["stream-churn"]:
            _record_counts(report, start_counts)
    if batches and len(batches) - 1 not in checkpoints and report.failed == 0:
        checkpoints[len(batches) - 1] = answer_key(miner.refresh())
    miner.close()
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)  # before the checks

    report.latency("batch", report.op_ms, (50, 95))
    report.metric(
        "updates_per_s", updates / (sum(report.op_ms) / 1e3), "1/s", len(report.op_ms)
    )
    report.notes["bulk_batches"] = len(bulk_ms)
    report.notes["bulk_batch_p50_ms"] = statistics.median(bulk_ms) if bulk_ms else None

    replayer = inputs.Replayer(base_vertices, base_edges)
    for index, batch in enumerate(batches):
        replayer.apply(batch)
        if index in checkpoints:
            expected = answer_key(mine_frequent_patterns(replayer.graph(), spec=STREAM_SPEC))
            if checkpoints[index] != expected:
                report.fail(f"maintained result after batch {index} differs from one-shot")
    report.notes["checkpoints"] = len(checkpoints)


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
def service_mixed(report: Report) -> None:
    stream, (base_vertices, base_edges) = _stream_input(report.seed)
    _, first_batch = stream.next_batch()
    batches: List[list] = [first_batch]
    pushes: List[tuple] = []
    push_lock = threading.Lock()

    def on_push(subscription, version, events) -> None:
        now = clock()
        with push_lock:
            pushes.append((subscription.spec, version, now, list(events)))

    def setup():
        graph = inputs.build_graph(base_vertices, base_edges, "service")
        start = clock()
        service = GraphService(graph, maintain=STREAM_SPEC)
        for sub in SUBSCRIPTIONS:
            service.subscribe(sub, push=on_push)
        info = service.apply_updates(first_batch)
        return clock() - start, (service, info.version)

    service, first_version = _setup_median(
        report, setup, release=lambda state: state[0].stop()
    )
    with push_lock:
        pushes.clear()  # the replay check starts after the first batch

    tracer = report.tracer
    start = clock()
    end = start + report.seconds
    trace_from = start + report.seconds / 2
    version_of_batch: Dict[int, int] = {0: first_version}
    due_of_version: Dict[int, float] = {}
    write_ms: List[float] = []
    traced_write_ms: List[float] = []
    late_ms: List[float] = []
    hit_ms: List[float] = []
    miss_ms: List[float] = []
    served: List[tuple] = []
    errors: List[str] = []
    count_lock = threading.Lock()
    ops = {"attempted": 0}

    def attempt() -> None:
        with count_lock:
            ops["attempted"] += 1

    def writer_client() -> None:
        outstanding: deque = deque()
        next_due = start
        k = 0
        while True:
            now = clock()
            if now >= next_due and now < end:
                _, batch = stream.next_batch()
                k += 1
                batches.append(batch)
                late_ms.append((now - next_due) * 1e3)
                attempt()
                outstanding.append((k, next_due, service.submit_updates(batch)))
                next_due += WRITE_PERIOD_S
                continue
            if not outstanding:
                if now >= end:
                    return
                time.sleep(max(0.0, next_due - now))
                continue
            k_done, due, ticket = outstanding[0]
            timeout = max(0.0, next_due - now) if now < end else 30.0
            if not ticket.done:
                try:
                    ticket.wait(timeout)
                except Exception:  # noqa: BLE001 - timeout or failure, see below
                    pass
                if not ticket.done:
                    continue  # not resolved yet: time to submit the next batch
            try:
                info = ticket.wait(0)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                outstanding.popleft()
                errors.append(f"batch {k_done} raised {exc!r}")
                continue
            done = clock()
            outstanding.popleft()
            version_of_batch[k_done] = info.version
            due_of_version[info.version] = due
            elapsed = (done - due) * 1e3
            (traced_write_ms if tracer is not None and due >= trace_from else write_ms).append(elapsed)

    def reader_client() -> None:
        spec_cycle = 0
        reads = 0
        while clock() < end:
            for _ in range(HITS_PER_PAIR):
                attempt()
                with _operation(tracer, "read"):
                    t0 = clock()
                    with service.pin() as snap:
                        cached = service.cache.peek(snap.version, STREAM_SPEC.cache_key())
                        result = service.mine(STREAM_SPEC, snapshot=snap)
                        version = snap.version
                    elapsed = (clock() - t0) * 1e3
                if cached is not None:
                    hit_ms.append(elapsed)
                reads += 1
                if reads % 200 == 1:
                    served.append((version, STREAM_SPEC, answer_key(result)))
                time.sleep(THINK_S)
            spec = MISS_SPECS[spec_cycle % len(MISS_SPECS)]
            spec_cycle += 1
            with service.pin() as snap:
                t0 = clock()
                first = service.submit(spec, version=snap.version)
                second = service.submit(spec, version=snap.version)
                attempt()
                attempt()
                results = []
                for ticket in (first, second):
                    try:
                        results.append(ticket.wait(60.0))
                    except Exception as exc:  # noqa: BLE001 - counted, reported
                        errors.append(f"uncached read raised {exc!r}")
                        continue
                    miss_ms.append((clock() - t0) * 1e3)
                version = snap.version
            if len(results) == 2 and answer_key(results[0]) != answer_key(results[1]):
                errors.append(f"paired uncached reads differ at version {version}")
            if results and spec_cycle % 4 == 1:
                served.append((version, spec, answer_key(results[0])))

    def guarded(name: str, client: Callable[[], None]) -> Callable[[], None]:
        """A client thread's body: whatever it raises is a failed operation."""

        def run() -> None:
            try:
                client()
            except Exception as exc:  # noqa: BLE001 - counted, reported
                errors.append(f"{name} client stopped: {exc!r}")

        return run

    writer = threading.Thread(target=guarded("writer", writer_client), name="bench-writer")
    reader = threading.Thread(target=guarded("reader", reader_client), name="bench-reader")
    writer.start()
    reader.start()
    if tracer is not None:
        time.sleep(max(0.0, trace_from - clock()))
        before = counters()
        tracer.install()
    reader.join()
    writer.join()
    if tracer is not None:
        tracer.uninstall()
        report.layer_counts.update(diff(counters(), before))
    service.stop()
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)  # before the checks
    report.attempted = ops["attempted"]
    for why in errors:
        report.fail(why)

    report.op_ms = write_ms
    report.latency("batch", write_ms, (50, 95))
    notify_ms = [
        (when - due_of_version[version]) * 1e3
        for _, version, when, _ in pushes
        if version in due_of_version
        and (tracer is None or due_of_version[version] < trace_from)
    ]
    report.latency("notify", notify_ms, (50, 95))
    report.latency("read_hit", hit_ms, (50, 95))
    report.latency("read_miss", miss_ms, (50, 90))
    report.notes["batches_applied"] = len(version_of_batch)
    report.notes["loadgen_late_p95_ms"] = percentile(late_ms, 0.95) if late_ms else 0.0
    if tracer is not None:
        report.traced_ms = traced_write_ms
        report.untraced_ms = write_ms

    # -- correctness, after the clock stopped ----------------------------
    batch_of_version = {v: k for k, v in version_of_batch.items()}
    wanted: Dict[int, list] = {}
    for version, spec, key in served:
        if version not in batch_of_version:
            report.fail(f"served version {version} is not a batch boundary")
            continue
        wanted.setdefault(batch_of_version[version], []).append((spec, key))
    checked = 0
    last = max(version_of_batch)
    replayer = inputs.Replayer(base_vertices, base_edges)
    replayer.apply(batches[0])
    initial = {sub: evaluate_standing(sub, replayer.graph()) for sub in SUBSCRIPTIONS}
    check_rng = random.Random(f"checks:{report.seed}")
    chosen = set(check_rng.sample(sorted(wanted), min(CHECKED_READS, len(wanted))))
    for k in range(last + 1):
        if k:
            replayer.apply(batches[k])
        for spec, key in wanted.get(k, ()) if k in chosen else ():
            checked += 1
            if key != answer_key(mine_frequent_patterns(replayer.graph(), spec=spec)):
                report.fail(f"served answer at batch {k} differs from one-shot")
    report.notes["served_checked"] = checked
    final_graph = replayer.graph()
    with push_lock:
        events = sorted(
            (p for p in pushes if p[1] <= version_of_batch[last]), key=lambda p: p[1]
        )
    for sub in SUBSCRIPTIONS:
        replayed = replay_answer(
            initial[sub], [e for spec, _, _, evs in events if spec == sub for e in evs]
        )
        if replayed != evaluate_standing(sub, final_graph):
            report.fail(f"replayed {sub.kind} subscription events differ from one-shot")
    report.notes["pushes"] = len(events)


def _operation(tracer: Optional[Tracer], kind: str):
    """A root span per operation while the tracer is installed, else nothing."""
    if tracer is not None and tracer.active:
        return tracer.operation(kind)
    return contextlib.nullcontext()


WORKLOADS = {
    "mine-medium": mine_medium,
    "stream-churn": stream_churn,
    "service-mixed": service_mixed,
    "mine-sharded": mine_sharded,
}


# ----------------------------------------------------------------------
# per-layer metrics of a traced run
# ----------------------------------------------------------------------
def finish_layers(report: Report) -> None:
    """Per-layer metrics from the spans and registry deltas of traced ops.

    Times and counts are per traced operation (mine, batch, or write
    batch); ratios are ratios.  Fails the run if a layer the workload
    must use recorded no span (a wrapped call site disappeared).
    """
    tracer = report.tracer
    summary = tracer.summary()
    n = max(1, len(report.traced_ms))
    reg = {name: report.layer_counts.get(key, 0) for name, key in REGISTRY_COUNTS.items()}
    counts = tracer.counts
    layers = report.layers

    def span(name: str, field: str = "self_ms") -> float:
        return summary.get(name, {}).get(field, 0.0)

    def put(name: str, value: float, unit: str) -> None:
        layers[name] = {"value": value, "unit": unit}

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    for name in REGISTRY_COUNTS:
        put(name, reg[name] / n, "count")
    put("index.builds", span("index.build", "calls") / n, "count")
    put("index.build_ms", span("index.build", "total_ms") / n, "ms")
    put("index.bytes", counters().get("repro_index_bytes", 0), "bytes")
    put(
        "index.patch_us_per_delta",
        ratio(span("index.patch", "total_ms") * 1e3, span("index.patch", "calls")),
        "us",
    )
    put("extension.calls", span("extension", "calls") / n, "count")
    put("extension.self_ms", span("extension") / n, "ms")
    put("extension.candidates", counts["extension.candidates"] / n, "count")
    put("canonical.calls", span("canonical", "calls") / n, "count")
    put("canonical.self_ms", span("canonical") / n, "ms")
    put(
        "canonical.unique_ratio",
        ratio(tracer.unique_certificates(), span("canonical", "calls")),
        "ratio",
    )
    put("match.calls", span("match", "calls") / n, "count")
    put("match.self_ms", span("match") / n, "ms")
    put("match.occurrences", counts["match.occurrences"] / n, "count")
    for tier in ("edge", "tree", "cyclic"):
        put(f"match.self_ms.{tier}", span("match", f"self_ms.{tier}") / n, "ms")
    put("hypergraph.self_ms", span("hypergraph") / n, "ms")
    put("measure.calls", span("measure", "calls") / n, "count")
    put("measure.self_ms", span("measure") / n, "ms")
    put(
        "measure.bound_prune_ratio",
        ratio(counts["support.bound_pruned"], counts["support.calls"]),
        "ratio",
    )
    put("miner.self_ms", span("miner") / n, "ms")
    put("dynamic.apply_ms", span("dynamic.apply", "total_ms") / n, "ms")
    put("dynamic.refresh_self_ms", span("dynamic.refresh") / n, "ms")
    put("dynamic.reevaluated", counts["support.dynamic"] / n, "count")
    no_work = reg["dynamic.reused"] + reg["dynamic.skipped_unaffected"]
    put(
        "dynamic.skip_ratio",
        ratio(no_work, no_work + counts["support.dynamic"]),
        "ratio",
    )
    put("partition.build_ms", span("partition.build", "total_ms") / n, "ms")
    put("pool.run_ms", span("pool.run", "total_ms") / n, "ms")
    put("pool.queue_depth_max", tracer.queue_depth_max, "count")
    put("snapshots.publish_ms", span("snapshots.publish", "total_ms") / n, "ms")
    put("snapshots.pin_ms", span("snapshots.pin", "total_ms") / n, "ms")
    put("cache.hit_ratio", ratio(reg["cache.hits"], reg["cache.hits"] + reg["cache.misses"]), "ratio")
    put("cache.retain_ms", span("cache.retain", "total_ms") / n, "ms")
    put("subs.dispatch_ms", span("subs.dispatch", "total_ms") / n, "ms")
    put(
        "subs.skip_ratio",
        ratio(reg["subs.dispatch_skipped"], reg["subs.dispatch_skipped"] + reg["subs.evaluations"]),
        "ratio",
    )
    put(
        "writer.queue_wait_ms",
        statistics.median(tracer.queue_waits) * 1e3 if tracer.queue_waits else 0.0,
        "ms",
    )
    put("loadgen.late_p95_ms", report.notes.get("loadgen_late_p95_ms", 0.0), "ms")
    overhead = 0.0
    if report.traced_ms and report.untraced_ms:
        overhead = statistics.median(report.traced_ms) / statistics.median(report.untraced_ms) - 1
    put("trace.overhead_frac", overhead, "ratio")
    ops = [(name, entry) for name, entry in summary.items() if name.startswith("op.")]
    put(
        "trace.uncovered_frac",
        ratio(sum(e["self_ms"] for _, e in ops), sum(e["total_ms"] for _, e in ops)),
        "ratio",
    )
    report.notes["spans"] = {name: summary[name] for name in sorted(summary)}
    report.notes["missing_sites"] = list(tracer.missing)
    for name in REQUIRED_SPANS[report.workload]:
        if not span(name, "calls"):
            report.fail(
                f"traced run recorded no '{name}' span; wrapped call sites missing: "
                f"{tracer.missing or 'none'}"
            )
