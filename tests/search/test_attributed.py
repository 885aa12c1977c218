"""Tests for attribute-driven community search."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MiningError
from repro.index.tctree import build_tc_tree
from repro.index.warehouse import ThemeCommunityWarehouse
from repro.search.attributed import attributed_community_search
from repro.serve.engine import IndexedWarehouse


def _vertex(toy_network, label):
    return next(
        v for v, lbl in toy_network.vertex_labels.items() if lbl == label
    )


class TestAttributedSearch:
    def test_finds_community_of_query_vertices(self, toy_network):
        tree = build_tc_tree(toy_network)
        v2 = _vertex(toy_network, 2)
        v3 = _vertex(toy_network, 3)
        matches = attributed_community_search(tree, [v2, v3], [0, 1])
        themes = {m.pattern for m in matches}
        # v2, v3 are together in both the p 5-clique and the q community.
        assert themes == {(0,), (1,)}

    def test_attribute_restriction(self, toy_network):
        tree = build_tc_tree(toy_network)
        v2 = _vertex(toy_network, 2)
        matches = attributed_community_search(tree, [v2], [0])
        assert {m.pattern for m in matches} == {(0,)}

    def test_vertices_must_be_in_one_community(self, toy_network):
        tree = build_tc_tree(toy_network)
        v1 = _vertex(toy_network, 1)
        v8 = _vertex(toy_network, 8)
        # 1 and 8 are in *different* p-communities and never share one.
        assert attributed_community_search(tree, [v1, v8], [0, 1]) == []

    def test_ranking_prefers_strength(self, toy_network):
        tree = build_tc_tree(toy_network)
        v5 = _vertex(toy_network, 5)
        matches = attributed_community_search(tree, [v5], [0, 1])
        # Same coverage (length-1 themes); q has α* = 0.6 > p's 0.3,
        # so the q community ranks first.
        assert matches[0].pattern == (1,)
        assert matches[0].strength == pytest.approx(0.6)
        assert matches[1].strength == pytest.approx(0.3)

    def test_alpha_filters(self, toy_network):
        tree = build_tc_tree(toy_network)
        v2 = _vertex(toy_network, 2)
        # At α = 0.45 the q community core excludes v2.
        matches = attributed_community_search(
            tree, [v2], [0, 1], alpha=0.45
        )
        assert matches == []

    def test_limit(self, toy_network):
        tree = build_tc_tree(toy_network)
        v5 = _vertex(toy_network, 5)
        assert len(
            attributed_community_search(tree, [v5], [0, 1], limit=1)
        ) == 1

    def test_negative_limit_rejected(self, toy_network):
        tree = build_tc_tree(toy_network)
        v5 = _vertex(toy_network, 5)
        with pytest.raises(MiningError, match="limit"):
            attributed_community_search(tree, [v5], [0, 1], limit=-1)

    def test_zero_limit_returns_nothing(self, toy_network):
        tree = build_tc_tree(toy_network)
        v5 = _vertex(toy_network, 5)
        assert attributed_community_search(tree, [v5], [0, 1], limit=0) == []

    def test_empty_queries_rejected(self, toy_network):
        tree = build_tc_tree(toy_network)
        with pytest.raises(MiningError):
            attributed_community_search(tree, [], [0])
        with pytest.raises(MiningError):
            attributed_community_search(tree, [0], [])


@pytest.fixture(scope="module")
def toy_sources(toy_network, tmp_path_factory):
    """(in-memory tree, snapshot-backed engine) over the Figure 1 network."""
    warehouse = ThemeCommunityWarehouse.build(toy_network)
    path = tmp_path_factory.mktemp("attributed") / "toy.tcsnap"
    warehouse.save_snapshot(path)
    engine = IndexedWarehouse.open(path)
    yield warehouse.tree, engine
    engine.close()


@pytest.fixture(scope="module")
def edge_sources(tmp_path_factory):
    """(edge tree, v2-snapshot engine) over a random edge network."""
    import random

    from repro.edgenet.index import build_edge_tc_tree
    from repro.edgenet.network import EdgeDatabaseNetwork
    from repro.serve.snapshot import write_snapshot

    rng = random.Random(23)
    network = EdgeDatabaseNetwork()
    for u in range(9):
        for v in range(u + 1, 9):
            if rng.random() < 0.6:
                for _ in range(rng.randint(1, 3)):
                    items = [i for i in range(4) if rng.random() < 0.6]
                    if items:
                        network.add_transaction(u, v, items)
    tree = build_edge_tc_tree(network)
    path = tmp_path_factory.mktemp("attributed-edge") / "edge.tcsnap"
    write_snapshot(tree, path)
    engine = IndexedWarehouse.open(path)
    yield tree, engine
    engine.close()


class TestEngineParity:
    """The snapshot-backed engine path answers bit-identically to the
    in-memory ``query_tc_tree`` path — members, frequencies, coverage,
    strength, and the full ranking order, ties included."""

    def test_vertex_engine_bit_identical(self, toy_network, toy_sources):
        tree, engine = toy_sources
        vertices = sorted(toy_network.vertex_labels)
        queries = [
            (vertices[:1], (0, 1), 0.0),
            (vertices[:2], (0, 1), 0.0),
            (vertices[4:5], (0, 1), 0.0),  # ties on coverage
            (vertices[:1], (0,), 0.0),
            (vertices[:2], (1,), 0.3),
            (vertices[:1], (0, 1), 0.45),
        ]
        for query_vertices, attributes, alpha in queries:
            from_tree = attributed_community_search(
                tree, query_vertices, attributes, alpha=alpha
            )
            from_engine = attributed_community_search(
                engine, query_vertices, attributes, alpha=alpha
            )
            assert from_engine == from_tree

    @given(
        subset=st.sets(
            st.integers(min_value=0, max_value=9), min_size=1, max_size=3
        ),
        attributes=st.sampled_from([(0,), (1,), (0, 1)]),
        alpha=st.sampled_from([0.0, 0.15, 0.3, 0.45, 0.6]),
        limit=st.sampled_from([None, 1, 2]),
    )
    def test_vertex_engine_parity_property(
        self, toy_network, toy_sources, subset, attributes, alpha, limit
    ):
        tree, engine = toy_sources
        vertices = sorted(toy_network.vertex_labels)
        query_vertices = [vertices[i % len(vertices)] for i in subset]
        from_tree = attributed_community_search(
            tree, query_vertices, attributes, alpha=alpha, limit=limit
        )
        from_engine = attributed_community_search(
            engine, query_vertices, attributes, alpha=alpha, limit=limit
        )
        assert from_engine == from_tree

    def test_edge_engine_bit_identical(self, edge_sources):
        tree, engine = edge_sources
        items = sorted({item for p in tree.patterns() for item in p})
        assert items, "edge fixture must index at least one theme"
        high = tree.max_alpha()
        queries = [
            ([0], tuple(items), 0.0),
            ([0, 1], tuple(items), 0.0),
            ([2], tuple(items[:2]), 0.0),
            ([0], tuple(items), 0.5 * high),
        ]
        for query_vertices, attributes, alpha in queries:
            from_tree = attributed_community_search(
                tree, query_vertices, attributes, alpha=alpha
            )
            from_engine = attributed_community_search(
                engine, query_vertices, attributes, alpha=alpha
            )
            assert from_engine == from_tree

    def test_engine_search_method_delegates(self, toy_network, toy_sources):
        tree, engine = toy_sources
        vertices = sorted(toy_network.vertex_labels)
        assert engine.search(
            vertices[:1], (0, 1), alpha=0.0, limit=2
        ) == attributed_community_search(
            tree, vertices[:1], (0, 1), alpha=0.0, limit=2
        )
