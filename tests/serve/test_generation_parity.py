"""An in-memory generation and a snapshot generation answer alike.

The live tier serves both kinds between compactions: overlays publish
in-memory trees (whose decompositions memoise level views built from
their ``L_p`` lists), compaction swaps back onto a snapshot (whose
views are built straight from payload arrays). Every request a client
can send must return the same payload from either generation.
"""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import generate_synthetic_network
from repro.edgenet.index import build_edge_tc_tree
from repro.index.tctree import build_tc_tree
from repro.serve.engine import IndexedWarehouse
from repro.serve.snapshot import write_snapshot
from tests.serve.test_edge_snapshot import _edge_network


def _payloads(engine: IndexedWarehouse, tree) -> list:
    """Every query, top-k and search answer over the tree's thresholds."""
    thresholds = sorted(
        {0.0}
        | {
            level.alpha
            for node in tree.root.iter_subtree()
            if node.decomposition is not None
            for level in node.decomposition.levels
        }
    )
    probes = thresholds[:: max(1, len(thresholds) // 8)]
    patterns = [None] + sorted(tree.patterns())[:6]
    out: list = []
    for alpha in probes:
        for pattern in patterns:
            answer = engine.query(pattern=pattern, alpha=alpha).to_payload()
            answer.pop("generation")
            out.append(answer)
        top = engine.top_k(10, alpha=alpha)
        out.append([(c.pattern, sorted(c.members), c.frequencies) for c in top])
        for community in top[:3]:
            vertex = min(community.members)
            for match in engine.search([vertex], community.pattern, alpha=alpha):
                out.append(
                    (
                        match.pattern,
                        match.coverage,
                        match.strength,
                        sorted(match.community.members),
                        match.community.frequencies,
                    )
                )
    return out


def _assert_generations_agree(tree, path) -> None:
    write_snapshot(tree, path)
    with IndexedWarehouse(tree=tree) as memory, IndexedWarehouse.open(
        path, cache_size=4
    ) as snapshot:
        assert memory.backend == "memory" and snapshot.backend == "snapshot"
        # A tiny cache forces refills mid-query on the snapshot side.
        assert _payloads(memory, tree) == _payloads(snapshot, tree)


@pytest.mark.parametrize("seed", [3, 11])
def test_vertex_generations_return_equal_payloads(seed, tmp_path):
    network = generate_synthetic_network(
        num_vertices=60, num_items=6, num_seeds=3, seed=seed
    )
    tree = build_tc_tree(network, backend="serial")
    assert tree.num_nodes > 3
    _assert_generations_agree(tree, tmp_path / "vertex.tcsnap")


def test_edge_generations_return_equal_payloads(tmp_path):
    tree = build_edge_tc_tree(_edge_network())
    _assert_generations_agree(tree, tmp_path / "edge.tcsnap")
