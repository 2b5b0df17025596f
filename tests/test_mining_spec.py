"""Unit tests for the MiningSpec request API and its legacy-kwarg shims."""

import gc
import json

import pytest

from repro.cli import build_parser, spec_from_args
from repro.errors import MeasureError, MiningError
from repro.graph.builders import path_graph
from repro.mining.dynamic import DynamicMiner, mine_stream
from repro.mining.miner import mine_frequent_patterns
from repro.mining.spec import DEFAULT_SPEC, MiningSpec, resolve_spec
from repro.service.protocol import result_bytes

# These suites deliberately exercise the legacy-kwarg entry points
# alongside spec=; the deprecation they trigger is the point, not noise.
pytestmark = pytest.mark.filterwarnings(
    "ignore:legacy mining kwargs:DeprecationWarning"
)


def sample_graph():
    return path_graph(["a", "b", "a", "b", "a"])


class TestValidation:
    def test_defaults_are_valid(self):
        spec = MiningSpec()
        assert spec.measure == "mni"
        assert spec.min_support == 2.0

    def test_rejects_unknown_measure(self):
        with pytest.raises(MeasureError):
            MiningSpec(measure="nonsense")

    def test_rejects_nonpositive_support(self):
        with pytest.raises(MiningError, match="min_support must be positive"):
            MiningSpec(min_support=0)

    def test_lazy_requires_mni(self):
        with pytest.raises(MiningError, match="lazy"):
            MiningSpec(measure="mis", min_support=1, lazy=True)

    def test_partition_method_checked_only_when_sharded(self):
        # shards == 1 never partitions, so the method is irrelevant.
        MiningSpec(partition_method="hash")
        with pytest.raises(MiningError):
            MiningSpec(shards=2, partition_method="bogus")

    def test_max_resident_requires_shards(self):
        with pytest.raises(MiningError, match="max_resident"):
            MiningSpec(max_resident=2)

    def test_bounds(self):
        with pytest.raises(MiningError):
            MiningSpec(max_pattern_nodes=1)
        with pytest.raises(MiningError):
            MiningSpec(max_pattern_edges=0)
        with pytest.raises(MiningError):
            MiningSpec(max_occurrences=0)
        with pytest.raises(MiningError):
            MiningSpec(workers=0)
        with pytest.raises(MiningError):
            MiningSpec(window=0)
        with pytest.raises(MiningError):
            MiningSpec(batch_size=0)
        with pytest.raises(MiningError):
            MiningSpec(mode="sideways")

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_SPEC.min_support = 99  # type: ignore[misc]


class TestSerialization:
    def test_json_round_trip(self):
        spec = MiningSpec(
            measure="mis",
            min_support=3,
            max_pattern_nodes=4,
            shards=2,
            partition_method="label",
            window=10,
        )
        assert MiningSpec.from_json(spec.to_json()) == spec

    def test_to_json_is_canonical(self):
        # Field order and separators are fixed — equal specs, equal bytes.
        a = MiningSpec(min_support=2, shards=2, partition_method="label")
        b = MiningSpec(partition_method="label", shards=2, min_support=2)
        assert a.to_json() == b.to_json()

    def test_cache_key_ignores_strategy_fields(self):
        # Strategy knobs (index, shards, workers...) never change the
        # result set, so they must not fragment the cache.
        base = MiningSpec()
        assert base.cache_key() == MiningSpec(shards=2, workers=1).cache_key()
        assert base.cache_key() == MiningSpec(use_index=False).cache_key()
        assert base.cache_key() != MiningSpec(min_support=3).cache_key()
        assert base.cache_key() != MiningSpec(lazy=True).cache_key()

    def test_replace(self):
        spec = DEFAULT_SPEC.replace(min_support=5)
        assert spec.min_support == 5
        assert DEFAULT_SPEC.min_support == 2.0


class TestFromKwargs:
    def test_aliases(self):
        spec = MiningSpec.from_kwargs(max_nodes=4, max_edges=5, partition="label")
        assert spec.max_pattern_nodes == 4
        assert spec.max_pattern_edges == 5
        assert spec.partition_method == "label"

    def test_unknown_key_rejected(self):
        with pytest.raises(MiningError, match="unknown"):
            MiningSpec.from_kwargs(min_supprot=2)

    def test_alias_conflict_rejected(self):
        with pytest.raises(MiningError):
            MiningSpec.from_kwargs(max_nodes=4, max_pattern_nodes=5)

    def test_resolve_spec_overrides_fold_over_spec(self):
        spec = MiningSpec(min_support=3, measure="mis")
        merged = resolve_spec(spec, {"min_support": 4})
        assert merged.min_support == 4
        assert merged.measure == "mis"

    def test_resolve_spec_type_checked(self):
        with pytest.raises(MiningError):
            resolve_spec({"min_support": 2}, {})


class TestLegacyKwargEquivalence:
    """Every entry point: kwargs and spec= produce byte-identical results."""

    def test_mine_frequent_patterns(self):
        data = sample_graph()
        via_kwargs = mine_frequent_patterns(
            data, measure="mni", min_support=2, max_pattern_nodes=4
        )
        via_spec = mine_frequent_patterns(
            data, spec=MiningSpec(min_support=2, max_pattern_nodes=4)
        )
        assert result_bytes(via_kwargs) == result_bytes(via_spec)

    def test_explicit_kwargs_override_spec(self):
        data = sample_graph()
        loose = mine_frequent_patterns(
            data, spec=MiningSpec(min_support=99), min_support=2
        )
        direct = mine_frequent_patterns(data, min_support=2)
        assert result_bytes(loose) == result_bytes(direct)
        assert len(loose.frequent) > 0

    def test_dynamic_miner(self):
        g1, g2 = sample_graph(), sample_graph()
        with DynamicMiner(g1, min_support=2) as via_kwargs:
            with DynamicMiner(g2, spec=MiningSpec(min_support=2)) as via_spec:
                assert result_bytes(via_kwargs.refresh()) == result_bytes(
                    via_spec.refresh()
                )

    def test_mine_stream(self):
        updates = [("v", 6, "b"), ("e", 5, 6)]
        via_kwargs = list(
            mine_stream(sample_graph(), updates, min_support=2, batch_size=2)
        )
        via_spec = list(
            mine_stream(
                sample_graph(),
                updates,
                spec=MiningSpec(min_support=2, batch_size=2),
            )
        )
        assert len(via_kwargs) == len(via_spec)
        for a, b in zip(via_kwargs, via_spec):
            assert result_bytes(a.result) == result_bytes(b.result)


class TestCliDefaultsSingleSource:
    """The CLI must not re-declare (and drift from) library defaults."""

    def test_mine_defaults_equal_default_spec(self):
        args = build_parser().parse_args(["mine", "g.lg"])
        assert spec_from_args(args) == DEFAULT_SPEC

    def test_mine_stream_defaults_equal_default_spec(self):
        args = build_parser().parse_args(["mine-stream", "g.lg", "u.lg"])
        assert spec_from_args(args, stream=True) == DEFAULT_SPEC

    def test_serve_defaults_equal_default_spec(self):
        args = build_parser().parse_args(["serve", "g.lg"])
        assert spec_from_args(args, stream=True) == DEFAULT_SPEC

    def test_every_spec_flag_reaches_the_spec(self):
        args = build_parser().parse_args(
            [
                "mine-stream",
                "g.lg",
                "u.lg",
                "--measure",
                "mis",
                "--min-support",
                "1",
                "--max-nodes",
                "3",
                "--max-edges",
                "4",
                "--max-occurrences",
                "9",
                "--shards",
                "2",
                "--partition",
                "label",
                "--workers",
                "2",
                "--batch-size",
                "3",
                "--window",
                "7",
                "--mode",
                "rebuild",
            ]
        )
        spec = spec_from_args(args, stream=True)
        assert spec == MiningSpec(
            measure="mis",
            min_support=1,
            max_pattern_nodes=3,
            max_pattern_edges=4,
            max_occurrences=9,
            shards=2,
            partition_method="label",
            workers=2,
            batch_size=3,
            window=7,
            mode="rebuild",
        )


class TestDynamicMinerTeardown:
    def test_abandoned_miner_releases_graph_subscription(self):
        # No detach(), no refresh() — the finalizer must still unhook the
        # observer so an abandoned miner doesn't make the graph grow a
        # delta log forever.
        graph = sample_graph()
        miner = DynamicMiner(graph, min_support=2)
        assert graph.has_observers()
        del miner
        gc.collect()
        assert not graph.has_observers()

    def test_abandoned_pooled_miner_releases_resources(self):
        graph = path_graph(["a", "b", "a", "b", "a", "b"])
        miner = DynamicMiner(graph, min_support=2, shards=2, workers=2)
        miner.refresh()  # the pool is created lazily, on first use
        pool = miner._pool
        assert pool is not None
        del miner
        gc.collect()
        assert not graph.has_observers()
        assert pool._closed

    def test_close_is_idempotent_and_context_managed(self):
        graph = sample_graph()
        with DynamicMiner(graph, min_support=2) as miner:
            miner.refresh()
        assert not graph.has_observers()
        miner.close()  # second release is a no-op
        assert not graph.has_observers()


def test_spec_json_shape_is_pure_data():
    # from_json must accept exactly what to_json emits (dict of
    # JSON-native scalars), making specs wire-safe for the protocol.
    payload = json.loads(MiningSpec(window=5).to_json())
    assert isinstance(payload, dict)
    for value in payload.values():
        assert value is None or isinstance(value, (bool, int, float, str))


class TestLegacyKwargDeprecation:
    """Bare legacy kwargs warn at every public entry point; spec= never does.

    The module-level filterwarnings mark silences the deprecation for the
    equivalence suites above, so these tests re-raise it locally.
    """

    pytestmark = pytest.mark.filterwarnings(
        "error:legacy mining kwargs:DeprecationWarning"
    )

    def test_mine_frequent_patterns_warns(self):
        with pytest.warns(DeprecationWarning, match="legacy mining kwargs"):
            mine_frequent_patterns(sample_graph(), min_support=2)

    def test_frequent_subgraph_miner_warns(self):
        from repro.mining.miner import FrequentSubgraphMiner

        with pytest.warns(DeprecationWarning, match="legacy mining kwargs"):
            FrequentSubgraphMiner(sample_graph(), min_support=2)

    def test_dynamic_miner_warns(self):
        graph = sample_graph()
        with pytest.warns(DeprecationWarning, match="legacy mining kwargs"):
            miner = DynamicMiner(graph, min_support=2)
        miner.close()

    def test_mine_stream_warns(self):
        # mine_stream is a generator: the spec resolves (and warns) when
        # iteration starts, not at the bare call.
        with pytest.warns(DeprecationWarning, match="legacy mining kwargs"):
            list(mine_stream(sample_graph(), [("v", 99, "a")], min_support=2))

    def test_spec_path_is_silent(self):
        # filterwarnings("error") above turns any stray warning into a
        # failure, so plain calls prove the spec= path never warns.
        spec = MiningSpec(min_support=2)
        mine_frequent_patterns(sample_graph(), spec=spec)
        list(mine_stream(sample_graph(), [("v", 99, "a")], spec=spec))
        with DynamicMiner(sample_graph(), spec=spec) as miner:
            miner.refresh()

    def test_resolve_spec_defaults_are_silent(self):
        # No kwargs at all -> pure defaults, nothing legacy to flag.
        assert resolve_spec(None, {}) == DEFAULT_SPEC
