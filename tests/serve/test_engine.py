"""Tests for the lazy-loading query engine (snapshot parity oracle)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TCIndexError
from repro.index.query import query_tc_tree
from repro.index.warehouse import ThemeCommunityWarehouse
from repro.search.topk import top_k_communities
from repro.serve.engine import CarrierCache, IndexedWarehouse
from repro.serve.snapshot import write_snapshot
from tests.conftest import database_networks
from tests.serve.conftest import assert_answers_identical


def _engine_for(network, tmp_dir, cache_size=1024):
    warehouse = ThemeCommunityWarehouse.build(network)
    path = tmp_dir / "net.tcsnap"
    write_snapshot(warehouse.tree, path)
    return warehouse, IndexedWarehouse.open(path, cache_size=cache_size)


class TestSnapshotParity:
    @settings(deadline=None, max_examples=15)
    @given(
        database_networks(),
        st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, 2.0]),
    )
    def test_qba_parity(self, tmp_path_factory, network, alpha):
        """QBA answers are bit-identical to the in-memory traversal."""
        warehouse, engine = _engine_for(
            network, tmp_path_factory.mktemp("qba")
        )
        with engine:
            assert_answers_identical(
                query_tc_tree(warehouse.tree, alpha=alpha),
                engine.query(alpha=alpha),
            )

    @settings(deadline=None, max_examples=15)
    @given(database_networks())
    def test_qbp_parity(self, tmp_path_factory, network):
        """QBP answers (every indexed pattern as q) are bit-identical."""
        warehouse, engine = _engine_for(
            network, tmp_path_factory.mktemp("qbp")
        )
        with engine:
            queries = warehouse.tree.patterns() or [(0,)]
            for query in queries:
                assert_answers_identical(
                    query_tc_tree(warehouse.tree, pattern=query),
                    engine.query(pattern=query),
                )

    def test_json_fallback_parity(self, toy_warehouse, tmp_path):
        """A JSON document opens through the same engine API."""
        path = tmp_path / "toy.tctree.json"
        toy_warehouse.save(path)
        with IndexedWarehouse.open(path) as engine:
            assert engine.backend == "memory"
            for alpha in (0.0, 0.35, 0.6):
                assert_answers_identical(
                    query_tc_tree(toy_warehouse.tree, alpha=alpha),
                    engine.query(alpha=alpha),
                )

    def test_negative_alpha_rejected(self, toy_snapshot_path):
        with IndexedWarehouse.open(toy_snapshot_path) as engine:
            with pytest.raises(TCIndexError):
                engine.query(alpha=-0.5)

    def test_facade_metadata(self, toy_warehouse, toy_snapshot_path):
        with IndexedWarehouse.open(toy_snapshot_path) as engine:
            assert engine.backend == "snapshot"
            assert (
                engine.num_indexed_trusses
                == toy_warehouse.num_indexed_trusses
            )
            assert engine.num_items == toy_warehouse.tree.num_items
            assert engine.patterns() == toy_warehouse.tree.patterns()
            low, high = engine.alpha_range()
            assert (low, high) == toy_warehouse.alpha_range()


class TestCarrierCache:
    def test_lru_eviction(self):
        cache = CarrierCache(capacity=2)
        cache.put(1, "a")
        cache.put(2, "b")
        assert cache.get(1) == "a"  # 1 is now most recent
        cache.put(3, "c")  # evicts 2
        assert cache.get(2) is None
        assert cache.get(1) == "a"
        assert cache.get(3) == "c"
        assert len(cache) == 2

    def test_scan_keeps_hot_entries(self):
        """Misses enter at the LRU end, so a scan of cold keys recycles
        one slot; under plain LRU it would flush the hot entry."""
        cache = CarrierCache(capacity=2)
        cache.put(1, "a")
        cache.put(2, "b")
        assert cache.get(2) == "b"  # 2 is hot
        for key in (3, 4, 5):
            assert cache.get(key) is None
            cache.put(key, str(key))
        assert cache.get(2) == "b"
        assert cache.get(5) == "5"  # the last scanned key, now promoted
        assert cache.get(1) is None and cache.get(3) is None

    def test_duplicate_fill_keeps_size(self):
        cache = CarrierCache(capacity=2)
        cache.put(1, "a")
        cache.put(1, "a2")  # a concurrent miss filled it twice
        cache.put(2, "b")
        assert len(cache) == 2
        assert cache.get(1) == "a2"

    def test_hit_miss_counters(self):
        cache = CarrierCache(capacity=4)
        assert cache.get(7) is None
        cache.put(7, "x")
        assert cache.get(7) == "x"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_invalid_capacity(self):
        with pytest.raises(TCIndexError):
            CarrierCache(capacity=0)

    def test_engine_warm_queries_hit_cache(self, toy_snapshot_path):
        with IndexedWarehouse.open(toy_snapshot_path) as engine:
            engine.query(alpha=0.0)
            cold = engine.stats()["cache"]
            engine.query(alpha=0.0)
            warm = engine.stats()["cache"]
            assert cold["misses"] == warm["misses"]  # no new decodes
            assert warm["hits"] > cold["hits"]

    def test_tiny_cache_still_correct(self, toy_warehouse, tmp_path):
        """Eviction churn never changes answers, only decode counts."""
        path = tmp_path / "toy.tcsnap"
        write_snapshot(toy_warehouse.tree, path)
        with IndexedWarehouse.open(path, cache_size=1) as engine:
            for alpha in (0.0, 0.1, 0.35):
                assert_answers_identical(
                    query_tc_tree(toy_warehouse.tree, alpha=alpha),
                    engine.query(alpha=alpha),
                )


class TestBatchAndTopK:
    def test_batch_matches_individual(self, toy_warehouse, tmp_path):
        path = tmp_path / "toy.tcsnap"
        write_snapshot(toy_warehouse.tree, path)
        specs = [
            (None, 0.0),
            ((0,), 0.0),
            (None, 0.35),
            ((0, 1), 0.1),
        ]
        with IndexedWarehouse.open(path) as engine:
            batch = engine.query_batch(specs)
            assert len(batch) == len(specs)
            for (pattern, alpha), answer in zip(specs, batch):
                assert_answers_identical(
                    query_tc_tree(
                        toy_warehouse.tree, pattern=pattern, alpha=alpha
                    ),
                    answer,
                )

    def test_top_k_matches_tree_ranking(
        self, toy_warehouse, toy_snapshot_path
    ):
        with IndexedWarehouse.open(toy_snapshot_path) as engine:
            for k in (1, 2, 5):
                assert engine.top_k(k, alpha=0.1) == top_k_communities(
                    toy_warehouse.tree, k, alpha=0.1
                )

    def test_top_k_from_query_answer_source(self, toy_warehouse):
        """top_k_communities accepts a QueryAnswer directly."""
        answer = query_tc_tree(toy_warehouse.tree, alpha=0.1)
        assert top_k_communities(answer, 3) == top_k_communities(
            toy_warehouse.tree, 3, alpha=0.1
        )

    def test_queries_served_counter(self, toy_snapshot_path):
        with IndexedWarehouse.open(toy_snapshot_path) as engine:
            engine.query_batch([(None, 0.0), (None, 0.1)])
            engine.query(alpha=0.2)
            assert engine.stats()["queries_served"] == 3


class TestConstruction:
    def test_requires_exactly_one_backend(self):
        with pytest.raises(TCIndexError):
            IndexedWarehouse()

    def test_stats_payload_shape(self, toy_snapshot_path):
        with IndexedWarehouse.open(toy_snapshot_path) as engine:
            stats = engine.stats()
            assert stats["backend"] == "snapshot"
            assert stats["snapshot_bytes"] > 0
            assert set(stats["cache"]) == {
                "capacity", "entries", "hits", "misses",
            }
