"""Level views: answer ``C*_p(α)`` from a node's level arrays, no graph.

A decomposition stores its levels in ascending threshold order, so the
edges of ``C*_p(α)`` (Equation 1) are a contiguous *suffix* of its flat
level-ordered edge arrays: everything from the first level whose
threshold exceeds ``α + COHESION_TOLERANCE`` on. That level index is the
*cut*, found by bisecting the level thresholds.

The theme communities of every cut come from one union-find pass over
the edges, top level first. Whenever a level changes a component's
vertex set, a node of a *merge forest* records the new set: the level
it appears at (``top``), the level that absorbs it (``bottom``, -1 for
a final component), its size and its least member. Member lists are
only ever concatenated on a merge, never interleaved, so every forest
node's members are one contiguous slice of a single final leaf order.
At cut ``R`` the communities are the forest nodes with
``bottom < R <= top``. Nodes are created top level first, so the ones
with ``top >= R`` are a prefix of the forest.

Views are model-neutral: the vertex and the edge model differ only in
how a truss summarizes its frequencies (:func:`vertex_frequencies`,
:func:`edge_vertex_frequencies`). A :class:`NodeView` pairs a view with
a node's pattern and frequencies; it is what the serving cache holds and
what in-memory decompositions memoise, and its ``truss_at`` returns a
lazy :class:`~repro.core.truss.PatternTruss` over the cut.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from itertools import accumulate, chain

from repro._ordering import Pattern
from repro.core.mptd import COHESION_TOLERANCE
from repro.core.truss import PatternTruss
from repro.errors import GraphError, TCIndexError
from repro.graphs.graph import Edge, Graph, Vertex


class LevelView:
    """Cut index plus merge forest over one node's level arrays.

    Built from ``(alphas, counts, edge_u, edge_v)``: ascending level
    thresholds, edges removed per level, and the level-ordered edge
    endpoints. The edge arrays are kept by reference (a graph is only
    built on request); everything else is derived once here.
    """

    __slots__ = (
        "alphas",
        "edge_u",
        "edge_v",
        "_starts",
        "_seen",
        "_made",
        "_bottoms",
        "_firsts",
        "_sizes",
        "_mins",
        "_leaves",
    )

    def __init__(
        self,
        alphas: Sequence[float],
        counts: Sequence[int],
        edge_u: Sequence[Vertex],
        edge_v: Sequence[Vertex],
    ) -> None:
        h = len(alphas)
        starts = list(accumulate(counts, initial=0))
        if len(counts) != h or len(edge_u) != len(edge_v):
            raise TCIndexError("level arrays disagree in length")
        if starts[-1] != len(edge_u):
            raise TCIndexError("level edge counts disagree with total")
        # The cut is a bisection, so the thresholds must be ascending
        # (NaN compares false both ways and fails this too).
        if not all(alphas[k] <= alphas[k + 1] for k in range(h - 1)) or (
            h and alphas[0] != alphas[0]
        ):
            raise TCIndexError("level thresholds are not ascending")
        self.alphas = alphas
        self.edge_u = edge_u
        self.edge_v = edge_v
        self._starts = array("q", starts)

        # Dense vertex ids (in a deterministic order).
        us = list(edge_u)
        vs = list(edge_v)
        labels = list(dict.fromkeys(us + vs))
        n = len(labels)
        index = dict(zip(labels, range(n)))
        ids_u = list(map(index.__getitem__, us))
        ids_v = list(map(index.__getitem__, vs))
        del us, vs, index

        # Union-find by size with path halving; every root also owns a
        # singly linked member list (head/tail/link) and its least member.
        parent = list(range(n))
        head = list(range(n))
        tail = list(range(n))
        link = [-1] * n
        size = [1] * n
        low = labels.copy()
        node_of = [-1] * n  # root -> forest node of its current vertex set
        bottoms: list[int] = []
        firsts: list[int] = []  # forest node -> head vertex, then position
        sizes: list[int] = []
        mins: list = []
        made = [0] * (h + 1)
        seen = [0] * (h + 1)
        present: set[int] = set()  # vertices of the levels so far
        for k in range(h - 1, -1, -1):
            touched = []
            a, b = starts[k], starts[k + 1]
            level_u = ids_u[a:b]
            level_v = ids_v[a:b]
            present.update(level_u)
            present.update(level_v)
            seen[k] = len(present)
            for x, y in zip(level_u, level_v):
                if x == y:
                    raise GraphError(
                        f"self-loop on vertex {labels[x]!r} is not allowed"
                    )
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                while parent[y] != y:
                    parent[y] = parent[parent[y]]
                    y = parent[y]
                if x == y:
                    continue
                if size[x] < size[y]:
                    x, y = y, x
                parent[y] = x
                link[tail[x]] = head[y]
                tail[x] = tail[y]
                size[x] += size[y]
                if low[y] < low[x]:
                    low[x] = low[y]
                # Both old vertex sets stop being components at level k.
                f = node_of[x]
                if f >= 0:
                    bottoms[f] = k
                    node_of[x] = -1
                f = node_of[y]
                if f >= 0:
                    bottoms[f] = k
                touched.append(x)
            for r in touched:
                if parent[r] == r and node_of[r] < 0:
                    node_of[r] = len(bottoms)
                    bottoms.append(-1)
                    firsts.append(head[r])
                    sizes.append(size[r])
                    mins.append(low[r])
            made[k] = len(bottoms)

        # The final leaf order: every root's member list, end to end.
        position = [0] * n
        leaves: list = []
        for r in range(n):
            if parent[r] == r:
                x = head[r]
                while x >= 0:
                    position[x] = len(leaves)
                    leaves.append(labels[x])
                    x = link[x]
        self._seen = array("q", seen)
        self._made = array("q", made)
        self._bottoms = array("q", bottoms)
        self._firsts = array("q", map(position.__getitem__, firsts))
        self._sizes = array("q", sizes)
        self._mins = mins
        self._leaves = leaves

    @classmethod
    def from_levels(cls, levels) -> "LevelView":
        """The view of an in-memory ``L_p`` list (vertex or edge model)."""
        edges = [edge for level in levels for edge in level.removed_edges]
        return cls(
            [level.alpha for level in levels],
            [len(level.removed_edges) for level in levels],
            [u for u, _ in edges],
            [v for _, v in edges],
        )

    # ------------------------------------------------------------------
    @property
    def max_alpha(self) -> float:
        """``α*_p``: the last level's threshold (0.0 with no levels)."""
        return self.alphas[-1] if len(self.alphas) else 0.0

    def cut(self, alpha: float) -> int:
        """First level kept at ``α`` — the same tolerance as MPTD peeling,
        so the cut agrees with direct mining at exact thresholds."""
        return bisect_right(self.alphas, alpha + COHESION_TOLERANCE)

    def num_edges(self, cut: int) -> int:
        return self._starts[-1] - self._starts[cut]

    def num_vertices(self, cut: int) -> int:
        return self._seen[cut]

    def edges(self, cut: int) -> Iterator[Edge]:
        """Edges of the cut, in level order (Equation 1's union order)."""
        start = self._starts[cut]
        return zip(self.edge_u[start:], self.edge_v[start:])

    def graph(self, cut: int) -> Graph:
        """The cut as an adjacency-set graph, built edge by edge in level
        order — the same insertion order as a rebuild from ``L_p``."""
        return Graph(self.edges(cut))

    def slices(self, cut: int) -> list[tuple[int, int]]:
        """``(first, size)`` leaf slices of the communities at ``cut``,
        largest first, ties by least member (the order of
        :func:`~repro.graphs.components.connected_components`)."""
        bottoms = self._bottoms
        alive = [f for f in range(self._made[cut]) if bottoms[f] < cut]
        sizes = self._sizes
        mins = self._mins
        alive.sort(key=lambda f: (-sizes[f], mins[f]))
        firsts = self._firsts
        return [(firsts[f], sizes[f]) for f in alive]

    def members(self, first: int, size: int) -> list[Vertex]:
        return self._leaves[first: first + size]

    def vertices(self, cut: int) -> Iterator[Vertex]:
        """Vertices of the cut (community by community)."""
        leaves = self._leaves
        return chain.from_iterable(
            leaves[first: first + size] for first, size in self.slices(cut)
        )


#: ``(frequencies, view, cut) -> per-vertex frequencies of the truss``.
Summarize = Callable[[dict, LevelView, int], dict]


def vertex_frequencies(frequencies: dict, view: LevelView, cut: int) -> dict:
    """Vertex model: the stored ``f_v(p)`` of the cut's vertices."""
    return {v: frequencies[v] for v in view.vertices(cut) if v in frequencies}


def edge_vertex_frequencies(
    frequencies: dict, view: LevelView, cut: int
) -> dict:
    """Edge model: each vertex's largest positive incident ``f_e(p)``
    over the cut's edges (the reporting convention of
    :func:`repro.edgenet.finder.edge_tcfi`)."""
    summary: dict = {}
    get = frequencies.get
    for u, v in view.edges(cut):
        f = get((u, v))
        if f is None:
            f = get((v, u))
            if f is None:
                continue
        if f > summary.get(u, 0.0):
            summary[u] = f
        if f > summary.get(v, 0.0):
            summary[v] = f
    return summary


class NodeView:
    """One TC-Tree node answered from its :class:`LevelView`."""

    __slots__ = ("pattern", "view", "frequencies", "summarize")

    def __init__(
        self,
        pattern: Pattern,
        view: LevelView,
        frequencies: dict,
        summarize: Summarize,
    ) -> None:
        self.pattern = pattern
        self.view = view
        self.frequencies = frequencies
        self.summarize = summarize

    @property
    def max_alpha(self) -> float:
        return self.view.max_alpha

    def truss_at(self, alpha: float) -> PatternTruss:
        """``C*_p(α)`` as a lazy truss over the view's cut."""
        return PatternTruss.from_view(self, alpha)

    def __repr__(self) -> str:
        return (
            f"NodeView(pattern={self.pattern}, "
            f"levels={len(self.view.alphas)}, "
            f"edges={self.view.num_edges(0)})"
        )


__all__ = [
    "LevelView",
    "NodeView",
    "edge_vertex_frequencies",
    "vertex_frequencies",
]
