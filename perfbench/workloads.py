"""Workload inputs: networks, the seeded query mix and the churn stream.

Everything here is built from public generators of the package
(``powerlaw_cluster_graph``, ``generate_synthetic_network``,
``EdgeDatabaseNetwork``), never from the fleet harness, so edits to
``benchmarks/`` or ``repro.bench`` cannot change a workload.

Each workload's network *shape* is pinned by a fixed generator seed: the
SYN generator's tree size swings by three orders of magnitude between
seeds (156 to 361k TC-Tree nodes at 1000 vertices), so a run-to-run
comparison would otherwise measure the seed, not the code. The run's
``--seed`` instead relabels the vertex ids (an isomorphic network with a
different id layout) and orders the query mix. The query pool and the
churn stream are drawn by *base* vertex id, so every seed asks for the
same work under its own ids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datasets.synthetic import generate_synthetic_network
from repro.edgenet.network import EdgeDatabaseNetwork
from repro.graphs.generators import powerlaw_cluster_graph
from repro.graphs.graph import Graph, edge_key
from repro.index.updates import Delta
from repro.network.dbnetwork import DatabaseNetwork


@dataclass(frozen=True)
class Workload:
    """One named workload: its input recipe and its serving setup."""

    name: str
    why: str
    model: str  # "vertex" or "edge"
    recipe: str  # "dense", "wide" or "edge"
    params: dict
    shape_seed: int
    mine_alpha: float
    backend: str  # build backend for the served tree
    workers: int
    churn: bool = False


#: Overlay publications between compactions (``--compact-every``).
COMPACT_EVERY = 2
#: Delta batches the writer publishes after a static read window.
PROBE_BATCHES = 3
#: Distinct random patterns (and search requests) in the query pool.
POOL_PATTERNS = 12
#: Requests per deck of the mix; every deck holds the exact shares.
DECK = 20
#: Requests per round of the mix: 4 decks. With full pools (4 alpha
#: levels, 12 patterns, 12 searches) a round sends every distinct
#: request in its exact proportion, so whole rounds are equal work.
ROUND = 4 * DECK


WHY = {
    "dense-themes": (
        "few patterns with huge trusses: build time is truss "
        "decomposition, query time is truss reconstruction plus JSON"
    ),
    "wide-themes": (
        "many small patterns in a tree larger than the carrier cache: "
        "candidate expansion, process fan-out, TOC walk and decode"
    ),
    "churn": (
        "writes beside reads: a live writer maintains, diffs and publishes "
        "delta batches while a reader runs the wide mix"
    ),
    "edge-themes": (
        "the only workload over the edge database model, so the edgenet "
        "layer is measured end to end"
    ),
}

#: Full-size recipes (the benchmark) and tiny ones (its own tests).
SIZES = {
    "full": {
        "dense": {"nodes": 600, "m": 10, "p": 0.85, "items": 4},
        "wide": {"nodes": 1000, "items": 40, "seeds": 10, "edges": 4},
        "edge": {"nodes": 200, "vocab": 6, "noise": 8, "per_edge": 5},
    },
    "tiny": {
        "dense": {"nodes": 60, "m": 5, "p": 0.85, "items": 3},
        "wide": {"nodes": 80, "items": 10, "seeds": 3, "edges": 3},
        "edge": {"nodes": 40, "vocab": 4, "noise": 4, "per_edge": 3},
    },
}


def workload(name: str, scale: str = "full") -> Workload:
    """The named workload at ``scale`` (``"full"`` or ``"tiny"``)."""
    sizes = SIZES[scale]
    if name == "dense-themes":
        return Workload(
            name, WHY[name], "vertex", "dense", sizes["dense"],
            shape_seed=5, mine_alpha=0.5, backend="serial", workers=1,
        )
    if name in ("wide-themes", "churn"):
        return Workload(
            name, WHY[name], "vertex", "wide", sizes["wide"],
            shape_seed=3, mine_alpha=0.1, backend="process", workers=2,
            churn=name == "churn",
        )
    if name == "edge-themes":
        return Workload(
            name, WHY[name], "edge", "edge", sizes["edge"],
            shape_seed=29, mine_alpha=0.5, backend="serial", workers=1,
        )
    raise KeyError(name)


NAMES = ("dense-themes", "wide-themes", "churn", "edge-themes")


# ---------------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------------
def _dense(params: dict, seed: int) -> DatabaseNetwork:
    graph = powerlaw_cluster_graph(
        params["nodes"], params["m"], params["p"], seed=seed
    )
    return generate_synthetic_network(
        num_items=params["items"],
        num_seeds=2,
        mutation_rate=0.3,
        max_transactions=64,
        max_transaction_length=6,
        graph=graph,
        seed=seed,
    )


def _wide(params: dict, seed: int) -> DatabaseNetwork:
    return generate_synthetic_network(
        num_vertices=params["nodes"],
        num_items=params["items"],
        num_seeds=params["seeds"],
        edges_per_vertex=params["edges"],
        seed=seed,
    )


def _edge(params: dict, seed: int) -> EdgeDatabaseNetwork:
    """Co-author-style edge databases: every edge draws its keywords from
    a shared small vocabulary with high coverage, plus one noise item."""
    rng = random.Random(seed)
    graph = powerlaw_cluster_graph(params["nodes"], 3, 0.6, seed=seed)
    vocab = params["vocab"]
    network = EdgeDatabaseNetwork()
    for u, v in graph.iter_edges():
        for _ in range(params["per_edge"]):
            transaction = {i for i in range(vocab) if rng.random() < 0.9}
            transaction.add(vocab + rng.randrange(params["noise"]))
            network.add_transaction(u, v, transaction)
    return network


def _relabel_graph(graph: Graph, mapping: dict[int, int]) -> Graph:
    relabeled = Graph()
    for vertex in sorted(graph.vertices(), key=mapping.__getitem__):
        relabeled.add_vertex(mapping[vertex])
    for u, v in graph.iter_edges():
        relabeled.add_edge(mapping[u], mapping[v])
    return relabeled


def relabeling(spec: Workload, seed: int) -> dict[int, int]:
    """Base-network vertex id -> this run's vertex id."""
    vertices = list(range(spec.params["nodes"]))
    shuffled = vertices[:]
    random.Random(seed).shuffle(shuffled)
    return dict(zip(vertices, shuffled))


def base_ids(spec: Workload, seed: int) -> dict[int, int]:
    """This run's vertex id -> base-network vertex id."""
    return {new: old for old, new in relabeling(spec, seed).items()}


def make_network(spec: Workload, seed: int):
    """A fresh network of ``spec``, vertex ids permuted by ``seed``."""
    if spec.recipe == "dense":
        base = _dense(spec.params, spec.shape_seed)
    elif spec.recipe == "wide":
        base = _wide(spec.params, spec.shape_seed)
    else:
        base = _edge(spec.params, spec.shape_seed)
    mapping = relabeling(spec, seed)
    graph = _relabel_graph(base.graph, mapping)
    if spec.model == "edge":
        return EdgeDatabaseNetwork(
            graph,
            {
                edge_key(mapping[u], mapping[v]): database
                for (u, v), database in base.databases.items()
            },
        )
    return DatabaseNetwork(
        graph,
        {mapping[v]: database for v, database in base.databases.items()},
    )


def network_sizes(network) -> dict:
    return {
        "vertices": network.num_vertices,
        "edges": network.num_edges,
        "items": len(network.item_universe()),
    }


# ---------------------------------------------------------------------------
# query pool and closed-loop mix
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One distinct request of the pool: endpoint plus its arguments."""

    kind: str  # "query", "top-k" or "search"
    pattern: tuple[int, ...] | None = None
    alpha: float = 0.0
    k: int = 0
    vertices: tuple[int, ...] = ()

    def path(self) -> str:
        if self.kind == "query":
            path = f"/query?alpha={self.alpha!r}"
            if self.pattern is not None:
                path += "&pattern=" + ",".join(map(str, self.pattern))
            return path
        if self.kind == "top-k":
            return f"/top-k?k={self.k}&alpha={self.alpha!r}"
        return (
            "/search?vertices=" + ",".join(map(str, self.vertices))
            + "&attributes=" + ",".join(map(str, self.pattern or ()))
            + f"&alpha={self.alpha!r}"
        )


@dataclass
class QueryPool:
    """The distinct requests of a run, grouped by mix class.

    ``search`` is served over HTTP on the vertex model only; the edge
    model's search share runs the ``alt`` pattern queries instead, and
    its ``search`` requests are timed in-process by the traced run.
    """

    alpha_max: float
    by_alpha: list[Request]
    by_pattern: list[Request]
    top_k: list[Request]
    search: list[Request]
    alt: list[Request]

    def mix_classes(self, model: str) -> list[tuple[int, list[Request]]]:
        """``(slots per deck of 20, requests)`` of the closed-loop mix:
        40% by alpha, 30% by pattern, 15% top-k, 15% search."""
        return [
            (8, self.by_alpha),
            (6, self.by_pattern),
            (3, self.top_k),
            (3, self.alt if model == "edge" else self.search),
        ]

    def served(self, model: str) -> list[Request]:
        """Every distinct request the mix can send."""
        return [r for _, requests in self.mix_classes(model) for r in requests]


def make_pool(spec: Workload, tree, base_of: dict[int, int]) -> QueryPool:
    """The distinct requests of the mix, drawn from the indexed tree.

    Patterns are drawn among indexed patterns; a search request names a
    member of one of its pattern's communities, so it has matches. The
    draw is pinned to the network's shape (vertices are picked by their
    base id, ``base_of``), so every seed asks for the same amount of
    work; the seed orders the requests (:func:`request_stream`).
    """
    from repro.index.query import query_tc_tree

    rng = random.Random(spec.shape_seed * 7919 + 1)
    alpha_max = tree.max_alpha()
    levels = [round(f * alpha_max, 6) for f in (0.0, 0.25, 0.5, 0.75)]
    by_alpha = [Request("query", None, a) for a in levels]
    patterns = sorted(tree.patterns())
    count = min(POOL_PATTERNS, len(patterns))
    by_pattern = [
        Request("query", p, levels[1]) for p in rng.sample(patterns, count)
    ]
    alt = [Request("query", p, levels[2]) for p in rng.sample(patterns, count)]
    top_k = [Request("top-k", None, a, k=10) for a in levels]
    search: list[Request] = []
    for pattern in rng.sample(patterns, len(patterns)):
        if len(search) >= POOL_PATTERNS:
            break
        answer = query_tc_tree(tree, pattern=pattern, alpha=levels[1])
        trusses = [t for t in answer.trusses if t.pattern == pattern]
        if not trusses:
            continue
        community = min(
            trusses[0].communities(),
            key=lambda c: min(base_of[v] for v in c),
        )
        vertex = rng.choice(sorted(community, key=base_of.__getitem__))
        search.append(
            Request("search", pattern, levels[1], vertices=(vertex,))
        )
    return QueryPool(alpha_max, by_alpha, by_pattern, top_k, search, alt)


def request_stream(pool: QueryPool, model: str, seed: int):
    """Endless seeded request sequence in shuffled decks of ``DECK``.

    Every deck holds each mix class in its exact share. Alpha levels
    and top-k alphas are cycled in order; patterns and searches are
    dealt from seeded shuffles of their pool, each pass sending every
    one once. So the amount of work in a window does not drift with
    the seed, and every ``ROUND`` requests repeat the same multiset.
    """
    rng = random.Random(seed * 104729 + 3)
    classes = [c for c in pool.mix_classes(model) if c[1]]
    turn = [0] * len(classes)
    dealt: list[list[Request]] = [[] for _ in classes]
    while True:
        deck: list[Request] = []
        for index, (slots, requests) in enumerate(classes):
            if len(requests) <= 4:  # the alpha levels: cycle them
                deck += [
                    requests[(turn[index] + i) % len(requests)]
                    for i in range(slots)
                ]
                turn[index] += slots
                continue
            for _ in range(slots):
                if not dealt[index]:
                    dealt[index] = rng.sample(requests, len(requests))
                deck.append(dealt[index].pop())
        rng.shuffle(deck)
        yield from deck


# ---------------------------------------------------------------------------
# churn stream
# ---------------------------------------------------------------------------
def delta_batches(
    network, count: int, base_of: dict[int, int]
) -> list[list[Delta]]:
    """``count`` sparse single-target batches of insert/delete/modify.

    Generated against a simulation of the live tid state, so every batch
    is valid when the batches are applied in order — by the writer
    through ``apply_deltas`` and by the oracle through the databases'
    own methods. Like the query pool, the stream is pinned to the
    network's shape: targets are drawn by base id (``base_of``), so
    every seed maintains the same work under its own vertex ids.
    """
    rng = random.Random(15485863)

    def base_key(target):
        if isinstance(target, tuple):
            return tuple(sorted(base_of[v] for v in target))
        return base_of[target]

    targets = sorted(network.databases, key=base_key)
    live: dict = {}
    batches: list[list[Delta]] = []
    for _ in range(count):
        target = rng.choice(targets)
        if target not in live:
            database = network.databases[target]
            live[target] = {
                "tids": {tid: database.transaction(tid)
                         for tid in sorted(database.tids())},
                "next": database.next_tid,
            }
        state = live[target]
        items = sorted({i for t in state["tids"].values() for i in t})
        batch: list[Delta] = []
        for op in rng.sample(("insert", "delete", "modify"), 2):
            tids = sorted(state["tids"])
            if op == "insert" or len(tids) < 2:
                new = _transaction(rng, items)
                batch.append(Delta.insert(target, new))
                state["tids"][state["next"]] = frozenset(new)
                state["next"] += 1
            elif op == "delete":
                tid = rng.choice(tids)
                batch.append(Delta.delete(target, tid))
                del state["tids"][tid]
            else:
                tid = rng.choice(tids)
                new = _transaction(rng, items)
                batch.append(Delta.modify(target, tid, new))
                state["tids"][tid] = frozenset(new)
        batches.append(batch)
    return batches


def _transaction(rng: random.Random, items: list[int]) -> list[int]:
    if not items:
        return [0]
    return rng.sample(items, max(1, min(len(items), rng.randint(1, 3))))


def apply_to_databases(network, batches) -> None:
    """Apply delta batches with the transaction databases' own methods —
    the oracle's path, independent of ``apply_deltas``."""
    for batch in batches:
        for delta in batch:
            database = network.databases[delta.target]
            if delta.op == "insert":
                database.add_transaction(delta.items)
            elif delta.op == "delete":
                database.remove_transaction(delta.tid)
            else:
                database.replace_transaction(delta.tid, delta.items)
