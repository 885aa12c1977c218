"""Level views against the graph-rebuild oracle.

Every truss a :class:`~repro.index.levelview.NodeView` serves must equal
the one :mod:`tests.oracles.truss_rebuild` builds edge by edge: sizes,
community order, frequencies, edge and vertex sets, and the graph itself
(insertion order included). Inputs are random ascending level lists of
both models — not only decompositions the library produced — probed at
every exact threshold, one ``COHESION_TOLERANCE`` either side, and
beyond both ends.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mptd import COHESION_TOLERANCE
from repro.edgenet.decomposition import (
    EdgeDecompositionLevel,
    EdgeTrussDecomposition,
)
from repro.errors import GraphError, TCIndexError
from repro.index.decomposition import (
    DecompositionLevel,
    TrussDecomposition,
    decompose_theme,
)
from repro.index.levelview import (
    LevelView,
    NodeView,
    edge_vertex_frequencies,
    vertex_frequencies,
)
from tests.conftest import graph_with_frequencies
from tests.oracles.truss_rebuild import rebuild_truss


@st.composite
def level_lists(draw, max_vertices: int = 10, max_levels: int = 5):
    """``[(alpha, removed_edges)]``: simple edges over ascending levels.

    Thresholds may repeat and levels may be empty; labels are ints or
    strings (whose order differs, so community tie-breaks differ too).
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    name = draw(st.sampled_from([int, lambda v: f"v{v}"]))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=24))
    h = draw(st.integers(min_value=0, max_value=max_levels))
    if h == 0:
        edges = []
    steps = sorted(
        draw(st.lists(st.integers(min_value=0, max_value=12), min_size=h, max_size=h))
    )
    where = draw(
        st.lists(
            st.integers(min_value=0, max_value=max(h - 1, 0)),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    levels = [
        (steps[k] / 8.0, [(name(u), name(v)) for (u, v), w in zip(edges, where) if w == k])
        for k in range(h)
    ]
    return levels


def probe_alphas(thresholds) -> list[float]:
    probes = {0.0, -0.0}
    for alpha in thresholds:
        for delta in (0.0, COHESION_TOLERANCE, -COHESION_TOLERANCE, 2 * COHESION_TOLERANCE):
            probes.add(max(alpha + delta, 0.0))
    probes.add(max(thresholds, default=0.0) + 1.0)
    return sorted(probes)


def assert_same_truss(served, oracle) -> None:
    assert served.pattern == oracle.pattern
    assert served.alpha == oracle.alpha
    assert served.num_vertices == oracle.num_vertices
    assert served.num_edges == oracle.num_edges
    assert served.is_empty() == oracle.is_empty()
    assert served.communities() == oracle.communities()
    assert served.frequencies == oracle.frequencies
    assert served.vertices() == oracle.vertices()
    assert served.edges() == oracle.edges()
    assert served == oracle
    assert list(served.graph) == list(oracle.graph)


def _vertex_decomposition(levels, draw_freq) -> TrussDecomposition:
    vertices = {v for _, removed in levels for edge in removed for v in edge}
    return TrussDecomposition(
        pattern=(0, 3),
        levels=[DecompositionLevel(a, list(r)) for a, r in levels],
        frequencies={v: draw_freq(v) for v in sorted(vertices, key=str)},
    )


def _edge_decomposition(levels, draw_freq, draw_flip) -> EdgeTrussDecomposition:
    # Frequency keys may name an edge in either orientation.
    return EdgeTrussDecomposition(
        pattern=(1,),
        levels=[EdgeDecompositionLevel(a, list(r)) for a, r in levels],
        frequencies={
            ((v, u) if draw_flip() else (u, v)): draw_freq((u, v))
            for _, removed in levels
            for u, v in removed
        },
    )


@st.composite
def decompositions(draw):
    levels = draw(level_lists())
    model = draw(st.sampled_from(["vertex", "edge"]))
    values = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])
    if model == "vertex":
        return _vertex_decomposition(levels, lambda _: draw(values))
    return _edge_decomposition(
        levels, lambda _: draw(values), lambda: draw(st.booleans())
    )


class TestViewParity:
    @settings(max_examples=150, deadline=None)
    @given(decompositions())
    def test_in_memory_view_matches_rebuild(self, decomposition):
        for alpha in probe_alphas(decomposition.thresholds()):
            assert_same_truss(
                decomposition.truss_at(alpha), rebuild_truss(decomposition, alpha)
            )

    @settings(max_examples=100, deadline=None)
    @given(decompositions())
    def test_array_view_matches_rebuild(self, decomposition):
        """The snapshot shape: flat arrays, no levels, no tuples."""
        if any(
            isinstance(v, str)
            for level in decomposition.levels
            for edge in level.removed_edges
            for v in edge
        ):
            return  # snapshots carry int64 labels only
        edges = [e for level in decomposition.levels for e in level.removed_edges]
        view = LevelView(
            array("d", decomposition.thresholds()),
            array("Q", [len(level.removed_edges) for level in decomposition.levels]),
            array("q", [u for u, _ in edges]),
            array("q", [v for _, v in edges]),
        )
        summarize = (
            edge_vertex_frequencies
            if isinstance(decomposition, EdgeTrussDecomposition)
            else vertex_frequencies
        )
        node = NodeView(
            decomposition.pattern, view, decomposition.frequencies, summarize
        )
        assert node.max_alpha == decomposition.max_alpha
        for alpha in probe_alphas(decomposition.thresholds()):
            assert_same_truss(node.truss_at(alpha), rebuild_truss(decomposition, alpha))

    @settings(max_examples=80, deadline=None)
    @given(
        graph_with_frequencies(max_vertices=9),
        st.sampled_from(["legacy", "csr"]),
    )
    def test_mined_decompositions_match_rebuild(self, graph_freqs, engine):
        graph, frequencies = graph_freqs
        decomposition = decompose_theme((2,), graph, frequencies, engine=engine)
        for alpha in probe_alphas(decomposition.thresholds()):
            assert_same_truss(
                decomposition.truss_at(alpha), rebuild_truss(decomposition, alpha)
            )


class TestViewShape:
    def test_empty_view(self):
        for decomposition in (
            TrussDecomposition(pattern=(1,)),
            EdgeTrussDecomposition(pattern=(1,)),
        ):
            truss = decomposition.truss_at(0.0)
            assert truss.is_empty()
            assert truss.communities() == []
            assert truss.frequencies == {}
            assert truss.num_vertices == 0
            assert decomposition.node_view().max_alpha == 0.0

    def test_nested_merges_slice_one_leaf_order(self):
        # Two triangles at the top level joined by a bridge level below.
        decomposition = TrussDecomposition(
            pattern=(1,),
            levels=[
                DecompositionLevel(0.2, [(3, 4)]),
                DecompositionLevel(0.5, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]),
            ],
            frequencies={v: 1.0 for v in range(1, 7)},
        )
        assert decomposition.truss_at(0.3).communities() == [{1, 2, 3}, {4, 5, 6}]
        assert decomposition.truss_at(0.0).communities() == [set(range(1, 7))]
        assert decomposition.truss_at(0.5).is_empty()

    def test_equal_sizes_tie_break_on_merged_least_member(self):
        # {7, 8} absorbs the smaller singleton 1, so the least member
        # arrives through the merge; {1, 7, 8} must rank before {3, 4, 5}.
        decomposition = TrussDecomposition(
            pattern=(1,),
            levels=[DecompositionLevel(0.5, [(7, 8), (3, 4), (1, 7), (4, 5)])],
        )
        assert decomposition.truss_at(0.0).communities() == [
            {1, 7, 8},
            {3, 4, 5},
        ]

    def test_memo_is_not_pickled_or_compared(self):
        import pickle

        decomposition = TrussDecomposition(
            pattern=(1,),
            levels=[DecompositionLevel(0.5, [(1, 2), (2, 3), (1, 3)])],
            frequencies={1: 1.0, 2: 1.0, 3: 1.0},
        )
        fresh = pickle.loads(pickle.dumps(decomposition))
        decomposition.truss_at(0.0)
        assert decomposition._node is not None
        assert pickle.loads(pickle.dumps(decomposition))._node is None
        assert fresh == decomposition

    def test_graph0_builds_no_view(self):
        decomposition = TrussDecomposition(
            pattern=(1,),
            levels=[DecompositionLevel(0.5, [(1, 2), (2, 3), (1, 3)])],
        )
        assert decomposition._graph0().num_edges == 3
        assert decomposition._node is None


class TestViewRejects:
    def test_descending_thresholds(self):
        with pytest.raises(TCIndexError):
            LevelView([0.5, 0.2], [1, 1], [1, 2], [2, 3])

    def test_nan_threshold(self):
        with pytest.raises(TCIndexError):
            LevelView([float("nan")], [1], [1], [2])

    def test_counts_disagree_with_edges(self):
        with pytest.raises(TCIndexError):
            LevelView([0.5], [2], [1], [2])

    def test_self_loop(self):
        with pytest.raises(GraphError):
            LevelView([0.5], [1], [4], [4])
