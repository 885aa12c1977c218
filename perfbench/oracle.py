"""In-memory oracles for every request of the mix, and the checks that
hold served answers against them.

An oracle answer is computed from the in-memory TC-Tree with the
library's reference traversal (``query_tc_tree``) and ranking
functions, then shaped like the server's wire payload. Served bodies
are compared as parsed JSON, so a change of key order or whitespace in
the server is not a wrong answer, but any changed value is.
"""

from __future__ import annotations

import json

from repro.index.query import query_tc_tree
from repro.search.attributed import attributed_community_search
from repro.search.topk import top_k_communities


def _community(community) -> dict:
    return {
        "pattern": list(community.pattern),
        "alpha": community.alpha,
        "size": community.size,
        "members": sorted(community.members),
    }


def expected_payload(tree, request) -> dict:
    """The answer ``request`` must get from a server serving ``tree``."""
    if request.kind == "query":
        return query_tc_tree(
            tree, pattern=request.pattern, alpha=request.alpha
        ).to_payload()
    if request.kind == "top-k":
        communities = top_k_communities(
            query_tc_tree(tree, pattern=request.pattern, alpha=request.alpha),
            request.k,
            min_size=3,
        )
        return {
            "k": len(communities),
            "communities": [_community(c) for c in communities],
        }
    matches = attributed_community_search(
        tree, request.vertices, request.pattern, alpha=request.alpha
    )
    return {
        "matches": [
            {
                "pattern": list(match.pattern),
                "coverage": match.coverage,
                "strength": match.strength,
                "community": _community(match.community),
            }
            for match in matches
        ]
    }


def expected_payloads(tree, requests) -> dict:
    return {request: expected_payload(tree, request) for request in requests}


def matches(expected: dict, body: bytes) -> bool:
    """Whether a served body carries exactly the expected answer."""
    try:
        served = json.loads(body)
    except ValueError:
        return False
    if isinstance(served, dict):
        served.pop("generation", None)
    return served == expected


def wrong_answers(expected: dict, logs) -> tuple[int, list[str]]:
    """Requests whose body differs from the oracle, over all readers.

    Each distinct body of a request is parsed once, however often it was
    served. Returns ``(count, sample messages)``.
    """
    wrong = 0
    notes: list[str] = []
    for log in logs:
        for request, bodies in log.bodies.items():
            for body, times in bodies.items():
                if not matches(expected[request], body):
                    wrong += times
                    if len(notes) < 5:
                        notes.append(f"wrong answer to {request.path()}")
    return wrong, notes


def mining_matches_tree(result, tree, alpha: float) -> bool:
    """TCFI patterns at ``alpha`` equal the TC-Tree's answer patterns."""
    answer = query_tc_tree(tree, pattern=None, alpha=alpha)
    return sorted(result.patterns()) == answer.patterns()
