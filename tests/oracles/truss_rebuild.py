"""Parity oracle for level views: ``C*_p(α)`` rebuilt as a graph.

This is the reconstruction every query paid before level views: Equation
1's suffix of removed-edge sets is added to a fresh adjacency-set graph
one edge at a time, communities come from a BFS over it, and the edge
model summarizes per-edge frequencies by scanning the frequency table.
Served answers must match it exactly, community order included.
"""

from __future__ import annotations

from repro.core.mptd import COHESION_TOLERANCE
from repro.core.truss import PatternTruss
from repro.graphs.graph import Graph


def rebuild_edges(decomposition, alpha: float) -> list:
    """``E*_p(α)``: every level above ``α`` (with the MPTD tolerance)."""
    bound = alpha + COHESION_TOLERANCE
    return [
        edge
        for level in decomposition.levels
        if level.alpha > bound
        for edge in level.removed_edges
    ]


def rebuild_vertex_truss(decomposition, alpha: float) -> PatternTruss:
    """Vertex model: the graph plus the stored ``f_v(p)``."""
    graph = Graph()
    for u, v in rebuild_edges(decomposition, alpha):
        graph.add_edge(u, v)
    return PatternTruss(
        decomposition.pattern, graph, decomposition.frequencies, alpha
    )


def rebuild_edge_truss(decomposition, alpha: float) -> PatternTruss:
    """Edge model: the graph plus max incident ``f_e(p)`` per vertex."""
    graph = Graph()
    for u, v in rebuild_edges(decomposition, alpha):
        graph.add_edge(u, v)
    summary: dict = {}
    for (u, v), f in decomposition.frequencies.items():
        if graph.has_edge(u, v):
            if f > summary.get(u, 0.0):
                summary[u] = f
            if f > summary.get(v, 0.0):
                summary[v] = f
    return PatternTruss(decomposition.pattern, graph, summary, alpha)


def rebuild_truss(decomposition, alpha: float) -> PatternTruss:
    """The oracle truss for either model's decomposition."""
    from repro.edgenet.decomposition import EdgeTrussDecomposition

    if isinstance(decomposition, EdgeTrussDecomposition):
        return rebuild_edge_truss(decomposition, alpha)
    return rebuild_vertex_truss(decomposition, alpha)
