"""The :class:`PatternTruss` result container.

A maximal pattern truss ``C*_p(α)`` is an edge-induced subgraph of a theme
network together with the pattern, the threshold, and the per-vertex
frequencies (kept because decomposition and community reporting both need
them). Instances are immutable by convention: algorithms build a fresh
graph and hand it over.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro._ordering import Pattern
from repro.graphs.components import connected_components
from repro.graphs.csr import GraphLike, as_graph
from repro.graphs.graph import Edge, Graph, Vertex


class PatternTruss:
    """A (maximal) pattern truss: pattern + subgraph + frequencies + α.

    Built eagerly from a graph, or lazily over a TC-Tree node's level
    view (:meth:`from_view`): then sizes and communities come from the
    view's cut, and the ``graph`` and ``frequencies`` are derived only
    when first read.
    """

    __slots__ = (
        "pattern", "alpha", "_graph", "_frequencies", "_node", "_cut",
        "_slices",
    )

    def __init__(
        self,
        pattern: Pattern,
        graph: GraphLike,
        frequencies: dict[Vertex, float],
        alpha: float,
    ) -> None:
        self.pattern = pattern
        # CSR carriers from the fast path normalize to the mutable
        # front-end so downstream consumers (components, export, search)
        # see one graph type.
        self._graph = as_graph(graph)
        # Keep only frequencies of surviving vertices: the truss is
        # self-contained for decomposition and reporting.
        self._frequencies = {
            v: frequencies[v] for v in graph if v in frequencies
        }
        self.alpha = alpha
        self._node = None

    @classmethod
    def from_view(cls, node, alpha: float) -> "PatternTruss":
        """``C*_p(α)`` of a :class:`~repro.index.levelview.NodeView`."""
        truss = cls.__new__(cls)
        truss.pattern = node.pattern
        truss.alpha = alpha
        truss._graph = None
        truss._frequencies = None
        truss._node = node
        truss._cut = node.view.cut(alpha)
        truss._slices = None
        return truss

    @property
    def graph(self) -> Graph:
        if self._graph is None:
            self._graph = self._node.view.graph(self._cut)
        return self._graph

    @property
    def frequencies(self) -> dict[Vertex, float]:
        if self._frequencies is None:
            node = self._node
            self._frequencies = node.summarize(
                node.frequencies, node.view, self._cut
            )
        return self._frequencies

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        if self._node is not None:
            return self._node.view.num_vertices(self._cut)
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        if self._node is not None:
            return self._node.view.num_edges(self._cut)
        return self._graph.num_edges

    def is_empty(self) -> bool:
        return self.num_edges == 0

    def vertices(self) -> set[Vertex]:
        if self._node is not None:
            return set(self._node.view.vertices(self._cut))
        return set(self._graph.vertices())

    def edges(self) -> set[Edge]:
        if self._node is not None:
            return {
                (u, v) if u <= v else (v, u)
                for u, v in self._node.view.edges(self._cut)
            }
        return set(self._graph.iter_edges())

    def communities(self) -> list[set[Vertex]]:
        """Theme communities: maximal connected subgraphs (Definition 3.5),
        largest first, ties by least member."""
        if self._node is None:
            return connected_components(self._graph)
        view = self._node.view
        if self._slices is None:
            self._slices = view.slices(self._cut)
        return [set(view.members(*piece)) for piece in self._slices]

    def iter_communities(self) -> Iterator[set[Vertex]]:
        yield from self.communities()

    def contains_subgraph(self, other: "PatternTruss") -> bool:
        """True when ``other``'s edge set is a subset of ours.

        This is the containment of Theorem 5.1 (graph anti-monotonicity):
        longer patterns have smaller trusses.
        """
        return all(self.graph.has_edge(u, v) for u, v in other.graph.iter_edges())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternTruss):
            return NotImplemented
        return (
            self.pattern == other.pattern
            and self.graph == other.graph
        )

    def __repr__(self) -> str:
        return (
            f"PatternTruss(pattern={self.pattern}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, alpha={self.alpha})"
        )
