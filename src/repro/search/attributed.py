"""Attribute-driven community search (ATC-style, Huang & Lakshmanan 2017).

The related-work query the paper cites: given *query vertices* that must
all belong to the community and *query attributes* the theme may use, find
the best communities. On top of a TC-Tree this is a filtered QBP: traverse
themes within the query attributes, keep communities containing every
query vertex, and rank by how much of the query the theme covers.

The search runs against any *source* that answers the query protocol —
an in-memory :class:`~repro.index.tctree.TCTree` (or edge tree), or a
:class:`~repro.serve.engine.IndexedWarehouse`, where it inherits the
serving tier's snapshot prune-without-decode and LRU carrier cache. Both
paths answer bit-identically (the parity suite asserts it, ranking ties
included).

The default ranking prefers (1) larger theme coverage of the query
attributes, (2) stronger cohesion (the α at which the community would
still exist, read from the decomposition), (3) smaller size — i.e. the
most specific, most cohesive, tightest group around the query vertices.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro._ordering import Pattern, make_pattern
from repro.core.communities import ThemeCommunity
from repro.errors import MiningError
from repro.index.query import query_tc_tree
from repro.index.tctree import TCTree


@dataclass(frozen=True)
class AttributedMatch:
    """One ranked answer to an attribute-driven search."""

    community: ThemeCommunity
    coverage: int  # |theme ∩ query attributes| (= |theme|, by pruning)
    strength: float  # largest α at which the community's truss is non-empty

    @property
    def pattern(self) -> Pattern:
        return self.community.pattern


def attributed_community_search(
    source: TCTree,
    query_vertices: Iterable[int],
    query_attributes: Iterable[int],
    alpha: float = 0.0,
    limit: int | None = None,
) -> list[AttributedMatch]:
    """Communities containing every query vertex, themed within the query
    attributes, best-first.

    ``source`` is an in-memory tree or an
    :class:`~repro.serve.engine.IndexedWarehouse`; ``alpha`` sets the
    minimum cohesion. Strength is read per-theme from the indexed
    decomposition (its α*), so ranking needs no re-mining — on the
    engine path through the carrier cache the query just warmed.
    """
    vertices = set(query_vertices)
    if not vertices:
        raise MiningError("need at least one query vertex")
    attributes = make_pattern(query_attributes)
    if not attributes:
        raise MiningError("need at least one query attribute")
    if limit is not None and limit < 0:
        # A negative slice bound would silently drop the last matches.
        raise MiningError(f"limit must be >= 0, got {limit}")

    if hasattr(source, "theme_strength"):
        answer = source.query(pattern=attributes, alpha=alpha)
        strength_of = source.theme_strength
    else:
        answer = query_tc_tree(source, pattern=attributes, alpha=alpha)

        def strength_of(pattern: Pattern) -> float:
            node = source.find_node(pattern)
            if node is None or node.decomposition is None:
                return 0.0
            return node.decomposition.max_alpha

    matches: list[AttributedMatch] = []
    for truss in answer.trusses:
        strength = strength_of(truss.pattern)
        for community in truss.communities():
            if vertices <= community:
                matches.append(
                    AttributedMatch(
                        community=ThemeCommunity(
                            pattern=truss.pattern,
                            members=frozenset(community),
                            alpha=alpha,
                            frequencies={
                                v: truss.frequencies.get(v, 0.0)
                                for v in community
                            },
                        ),
                        coverage=len(truss.pattern),
                        strength=strength,
                    )
                )
    matches.sort(
        key=lambda m: (
            -m.coverage,
            -m.strength,
            m.community.size,
            m.pattern,
        )
    )
    if limit is not None:
        matches = matches[:limit]
    return matches
