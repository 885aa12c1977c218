"""Lazy-loading warehouse query engine (:class:`IndexedWarehouse`).

Answers ``(q, α)`` queries against a binary snapshot without ever
materializing the whole tree: the traversal runs Algorithm 5 over the
snapshot's table of contents, pruning item-disjoint subtrees and
empty-truss subtrees (Proposition 5.2) from TOC data alone, and decodes a
node's payload — into a :class:`~repro.index.levelview.NodeView`, through
a thread-safe carrier cache — only when the node is actually retrieved.
A warm query then costs a bisection and a forest scan per node: the
truss is a lazy view over the cut, and no graph is rebuilt.

Answers are bit-identical to :func:`repro.index.query.query_tc_tree` on
the in-memory tree: same trusses, same ``retrieved_nodes``, same
``visited_nodes``. The emptiness prune compares the TOC's per-node
``prune_alpha`` with ``α + COHESION_TOLERANCE`` — exactly the predicate
:meth:`TrussDecomposition.edges_at` evaluates after a decode — so
skipping the decode never changes the answer. A JSON warehouse document
opens through the same API as the compatible fallback (fully decoded at
load, as before).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro._ordering import make_pattern
from repro.core.communities import ThemeCommunity
from repro.core.mptd import COHESION_TOLERANCE
from repro.errors import TCIndexError
from repro.index.levelview import NodeView
from repro.index.query import QueryAnswer, query_tc_tree
from repro.index.tctree import TCTree
from repro.obs.metrics import default_registry
from repro.search.topk import Score, default_score, top_k_communities
from repro.serve.snapshot import ROOT, TCTreeSnapshot, is_snapshot_file

#: Default capacity of the decoded-carrier LRU cache, in nodes. Sized so
#: a warm serving mix keeps every hot subtree decoded while a worst-case
#: entry (levels + edges of one node) stays far below the snapshot size.
DEFAULT_CACHE_SIZE = 1024

QuerySpec = tuple[Sequence[int] | None, float]


class CarrierCache:
    """Thread-safe map from snapshot node index to its :class:`NodeView`.

    Eviction is LRU, but insertion is scan-resistant (LIP: a missed
    entry enters at the LRU end and moves to the MRU end only when it
    is hit). A query over a tree larger than the cache then cycles one
    slot instead of flushing the whole cache: on a 1913-node tree with a
    1024-entry cache, repeated full queries under plain LRU never hit.

    Decoding happens outside the lock (it is pure and idempotent), so a
    rare concurrent miss on the same node costs one duplicate decode
    rather than serializing every reader behind the buffer parse.

    The hit/miss counters are private and every read goes through the
    cache lock, so a ``stats()`` taken under concurrent ``get``/``put``
    traffic is a consistent point-in-time view (hits + misses == lookups
    at that instant) rather than a torn pair of mid-update values.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise TCIndexError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._hits = 0  # guarded-by: self._lock
        self._misses = 0  # guarded-by: self._lock
        self._entries: OrderedDict[int, NodeView] = (
            OrderedDict()
        )  # guarded-by: self._lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    def get(self, key: int) -> NodeView | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: int, value: NodeView) -> None:
        with self._lock:
            entries = self._entries
            if key in entries:  # a concurrent duplicate fill
                entries[key] = value
                return
            if len(entries) >= self.capacity:
                entries.popitem(last=False)
            entries[key] = value
            entries.move_to_end(key, last=False)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
            }


class ServingGeneration:
    """One immutable published generation: backend + its carrier cache.

    Everything a query touches hangs off this one object — the snapshot
    (or tree) and the decoded-carrier cache — so a reader that captured
    a generation reference sees a fully consistent world no matter how
    many times the engine hot-swaps underneath it, and cache entries can
    never leak across generations (each generation owns a fresh cache).
    """

    __slots__ = ("number", "snapshot", "tree", "cache", "snapshot_bytes")

    def __init__(
        self,
        number: int,
        snapshot: TCTreeSnapshot | None = None,
        tree: TCTree | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if (snapshot is None) == (tree is None):
            raise TCIndexError(
                "exactly one of snapshot/tree must be given"
            )
        self.number = number
        self.snapshot = snapshot
        self.tree = tree
        self.cache = CarrierCache(cache_size)
        # Captured once: the file may be replaced or deleted while the
        # live mmap keeps serving, so /stats must not re-stat it.
        self.snapshot_bytes = (
            snapshot.path.stat().st_size
            if snapshot is not None and snapshot.path is not None
            else None
        )

    @property
    def backend(self) -> str:
        return "snapshot" if self.snapshot is not None else "memory"

    @property
    def kind(self) -> str:
        if self.snapshot is not None:
            return self.snapshot.kind
        return getattr(self.tree, "kind", "vertex")

    def close(self) -> None:
        if self.snapshot is not None:
            self.snapshot.close()


class IndexedWarehouse:
    """Read-optimized warehouse facade over a snapshot (or JSON fallback).

    One instance is safe to share across server threads: the snapshot
    buffer is immutable, the carrier cache locks internally, and query
    state is per-call.

    The serving state lives in one :class:`ServingGeneration` reference:
    every query captures it exactly once up front, and :meth:`swap`
    publishes a new generation as a single reference assignment — an
    atomic store under the GIL — so in-flight readers finish on the old
    generation while new ones see the new, and no read can ever observe
    half of each (the hot-swap tier's no-torn-reads guarantee). Retired
    generations stay referenced (their mmaps must outlive in-flight
    readers) and are closed with the engine.
    """

    def __init__(
        self,
        snapshot: TCTreeSnapshot | None = None,
        tree: TCTree | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self._cache_size = cache_size
        #: Engine generation, bumped by :meth:`swap` under a live server;
        #: surfaced by ``/healthz`` so a load balancer can tell a
        #: restarted/reloaded engine from a stale one.
        self._gen = ServingGeneration(
            1, snapshot=snapshot, tree=tree, cache_size=cache_size
        )
        self._retired: list[ServingGeneration] = (
            []
        )  # guarded-by: self._swap_lock
        self._swap_lock = threading.Lock()
        self._queries_served = 0  # guarded-by: self._count_lock
        self._count_lock = threading.Lock()
        # Aggregate per-query breakdown (snapshot backend): where query
        # wall time goes — TOC walk + prunes, cache fill (payload parse
        # plus view build), and view work (cut plus communities) — and
        # the node-level traversal counters behind it. Cumulative across
        # generations (it describes the engine, not one index).
        self._qstats = {  # guarded-by: self._count_lock
            "queries": 0,
            "visited_nodes": 0,
            "pruned_pattern": 0,
            "pruned_alpha": 0,
            "retrieved_nodes": 0,
            "toc_seconds": 0.0,
            "decode_seconds": 0.0,
            "view_seconds": 0.0,
        }

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, path: str | Path, cache_size: int = DEFAULT_CACHE_SIZE
    ) -> "IndexedWarehouse":
        """Open a binary snapshot, or a JSON document as the fallback."""
        path = Path(path)
        if is_snapshot_file(path):
            return cls(
                snapshot=TCTreeSnapshot.open(path), cache_size=cache_size
            )
        from repro.index.warehouse import ThemeCommunityWarehouse

        return cls(
            tree=ThemeCommunityWarehouse.load(path).tree,
            cache_size=cache_size,
        )

    def close(self) -> None:
        with self._swap_lock:
            retired, self._retired = self._retired, []
        for generation in retired:
            generation.close()
        self._gen.close()

    def __enter__(self) -> "IndexedWarehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """The currently served generation number (starts at 1)."""
        return self._gen.number

    @property
    def retired_generations(self) -> int:
        with self._swap_lock:
            return len(self._retired)

    def swap(
        self,
        *,
        snapshot: TCTreeSnapshot | None = None,
        tree: TCTree | None = None,
        number: int | None = None,
    ) -> int:
        """Publish a new serving generation; returns its number.

        The new generation must serve the same tree kind (readers may
        rely on the model never changing under them) and carry a higher
        number (``number=None`` bumps by one). Publication is a single
        reference assignment: in-flight queries that already captured the
        old generation finish on it untouched — its snapshot is retired,
        not closed, until the engine itself closes.
        """
        with self._swap_lock:
            old = self._gen
            generation = ServingGeneration(
                number if number is not None else old.number + 1,
                snapshot=snapshot,
                tree=tree,
                cache_size=self._cache_size,
            )
            if generation.number <= old.number:
                generation.close()
                raise TCIndexError(
                    f"generation {generation.number} does not advance "
                    f"the served generation {old.number}"
                )
            if generation.kind != old.kind:
                generation.close()
                raise TCIndexError(
                    f"cannot swap a {generation.kind!r} index under a "
                    f"{old.kind!r} engine"
                )
            self._retired.append(old)
            # The publication point: one atomic reference store.
            self._gen = generation
        default_registry().counter(
            "repro_engine_swaps_total",
            help="Serving generations published by hot swap.",
        ).inc()
        return generation.number

    def materialize_tree(self):
        """The current generation's index as an in-memory tree.

        The writer-side entry point of the live tier: overlays apply to
        a materialized tree, not to the mmap. On the memory backend this
        is the served tree itself (treat it as immutable — apply-delta
        clones before mutating).
        """
        generation = self._gen
        if generation.tree is not None:
            return generation.tree
        return generation.snapshot.materialize_tree()

    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        return self._gen.backend

    @property
    def kind(self) -> str:
        """Tree model served: ``"vertex"`` or ``"edge"``.

        Snapshots carry it in their header flags (REPROTCS v2 payload
        kind); in-memory trees tag themselves via their class. Queries
        dispatch transparently — edge decompositions answer the same
        ``truss_at`` contract — so the kind is informational (the CLI's
        ``--kind`` guard and ``/stats``).
        """
        return self._gen.kind

    @property
    def num_indexed_trusses(self) -> int:
        generation = self._gen
        if generation.snapshot is not None:
            return generation.snapshot.num_nodes
        return generation.tree.num_nodes  # type: ignore[union-attr]

    @property
    def num_items(self) -> int:
        generation = self._gen
        if generation.snapshot is not None:
            return generation.snapshot.num_items
        return generation.tree.num_items  # type: ignore[union-attr]

    def patterns(self) -> list:
        generation = self._gen
        if generation.snapshot is not None:
            return generation.snapshot.patterns()
        return generation.tree.patterns()  # type: ignore[union-attr]

    def alpha_range(self) -> tuple[float, float]:
        """The non-trivial query range ``[0, α*)`` — TOC-only on snapshots."""
        generation = self._gen
        if generation.snapshot is not None:
            snapshot = generation.snapshot
            return (
                0.0,
                max(
                    (
                        snapshot.prune_alpha(i)
                        for i in range(snapshot.num_nodes)
                    ),
                    default=0.0,
                ),
            )
        return (0.0, generation.tree.max_alpha())  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    def query(
        self,
        pattern: Iterable[int] | None = None,
        alpha: float = 0.0,
    ) -> QueryAnswer:
        """Answer ``(q, α_q)`` — Algorithm 5 over the lazy backend."""
        # Captured exactly once: everything below reads this one
        # generation, so a concurrent swap cannot tear the answer.
        generation = self._gen
        with self._count_lock:
            self._queries_served += 1
        start = time.perf_counter()
        try:
            if generation.tree is not None:
                answer = query_tc_tree(
                    generation.tree, pattern=pattern, alpha=alpha
                )
            else:
                answer = self._query_snapshot(generation, pattern, alpha)
            answer.generation = generation.number
            return answer
        finally:
            default_registry().histogram(
                "repro_query_seconds",
                help="End-to-end warehouse query latency.",
                backend=generation.backend,
            ).observe(time.perf_counter() - start)

    def query_batch(
        self, queries: Iterable[QuerySpec]
    ) -> list[QueryAnswer]:
        """Answer many ``(pattern, alpha)`` pairs against one warm cache.

        Answers come back in input order; the shared carrier cache makes
        the batch asymptotically one decode per distinct retrieved node.
        """
        return [
            self.query(pattern=pattern, alpha=alpha)
            for pattern, alpha in queries
        ]

    def top_k(
        self,
        k: int,
        pattern: Iterable[int] | None = None,
        alpha: float = 0.0,
        score: Score = default_score,
        min_size: int = 3,
    ) -> list[ThemeCommunity]:
        """The ``k`` best-scoring communities of a query answer."""
        return top_k_communities(
            self.query(pattern=pattern, alpha=alpha),
            k,
            score=score,
            min_size=min_size,
        )

    def theme_strength(self, pattern: Iterable[int]) -> float:
        """``max_alpha`` of the indexed node of ``pattern`` (0.0 if none).

        On the snapshot backend this is a TOC lookup plus one cached
        decode — after a query retrieved the node, the carrier cache
        already holds its decomposition, so ranking reads are hits.
        """
        key = make_pattern(pattern)
        generation = self._gen
        if generation.snapshot is not None:
            index = generation.snapshot.node_index(key)
            if index is None:
                return 0.0
            return self._node(generation, index).max_alpha
        node = generation.tree.find_node(key)  # type: ignore[union-attr]
        if node is None or node.decomposition is None:
            return 0.0
        return node.decomposition.max_alpha

    def search(
        self,
        query_vertices: Iterable[int],
        query_attributes: Iterable[int],
        alpha: float = 0.0,
        limit: int | None = None,
    ):
        """Attributed community search over this warehouse (ATC-style)."""
        from repro.search.attributed import attributed_community_search

        return attributed_community_search(
            self,
            query_vertices,
            query_attributes,
            alpha=alpha,
            limit=limit,
        )

    # ------------------------------------------------------------------
    def _node(self, generation: ServingGeneration, index: int) -> NodeView:
        cached = generation.cache.get(index)
        if cached is not None:
            return cached
        node = generation.snapshot.view(index)  # type: ignore[union-attr]
        generation.cache.put(index, node)
        return node

    def _query_snapshot(
        self,
        generation: ServingGeneration,
        pattern: Iterable[int] | None,
        alpha: float,
    ) -> QueryAnswer:
        if alpha < 0.0:
            raise TCIndexError(f"alpha must be >= 0, got {alpha}")
        snapshot = generation.snapshot
        assert snapshot is not None
        query_pattern = None if pattern is None else make_pattern(pattern)
        query_items = (
            None if query_pattern is None else set(query_pattern)
        )
        answer = QueryAnswer(query_pattern=query_pattern, alpha=alpha)
        bound = alpha + COHESION_TOLERANCE

        start = time.perf_counter()
        decode_seconds = view_seconds = 0.0
        pruned_pattern = pruned_alpha = 0
        queue: deque[int] = deque([ROOT])
        while queue:
            node = queue.popleft()
            for child in snapshot.children(node):
                # Same RN/VN accounting as query_tc_tree: a touched child
                # counts as visited even when a prune discards it.
                answer.visited_nodes += 1
                if (
                    query_items is not None
                    and snapshot.item(child) not in query_items
                ):
                    pruned_pattern += 1
                    continue  # prune subtree: s_{n_c} ∉ q
                if not snapshot.prune_alpha(child) > bound:
                    # Proposition 5.2 prune straight from the offset
                    # table: C*_p(α) reconstructs empty, so neither this
                    # node nor any descendant needs decoding.
                    pruned_alpha += 1
                    continue
                decode_start = time.perf_counter()
                node = self._node(generation, child)
                view_start = time.perf_counter()
                truss = node.truss_at(alpha)
                empty = truss.is_empty()
                if not empty:
                    truss.communities()  # memoised for the serializer
                view_end = time.perf_counter()
                decode_seconds += view_start - decode_start
                view_seconds += view_end - view_start
                if empty:
                    continue  # unreachable on well-formed snapshots
                answer.trusses.append(truss)
                answer.retrieved_nodes += 1
                queue.append(child)
        total = time.perf_counter() - start
        with self._count_lock:
            qstats = self._qstats
            qstats["queries"] += 1
            qstats["visited_nodes"] += answer.visited_nodes
            qstats["pruned_pattern"] += pruned_pattern
            qstats["pruned_alpha"] += pruned_alpha
            qstats["retrieved_nodes"] += answer.retrieved_nodes
            qstats["toc_seconds"] += total - decode_seconds - view_seconds
            qstats["decode_seconds"] += decode_seconds
            qstats["view_seconds"] += view_seconds
        default_registry().histogram(
            "repro_query_decode_seconds",
            help="Cache-fill share of snapshot query latency: payload "
            "parse plus level-view build.",
        ).observe(decode_seconds)
        return answer

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Operational counters for the ``/stats`` endpoint."""
        from repro.engine import registry

        generation = self._gen
        with self._count_lock:
            breakdown = dict(self._qstats)
            queries_served = self._queries_served
        info: dict = {
            "backend": generation.backend,
            "kind": generation.kind,
            "model": registry.get_model(generation.kind).display,
            "generation": generation.number,
            "retired_generations": self.retired_generations,
            "indexed_trusses": self.num_indexed_trusses,
            "num_items": self.num_items,
            "queries_served": queries_served,
            "cache": generation.cache.stats(),
            "query_breakdown": breakdown,
        }
        snapshot = generation.snapshot
        if snapshot is not None and snapshot.path is not None:
            info["snapshot_path"] = str(snapshot.path)
            info["snapshot_bytes"] = generation.snapshot_bytes
        return info

    def __repr__(self) -> str:
        return (
            f"IndexedWarehouse(backend={self.backend!r}, "
            f"trusses={self.num_indexed_trusses})"
        )


__all__ = [
    "IndexedWarehouse",
    "CarrierCache",
    "ServingGeneration",
    "DEFAULT_CACHE_SIZE",
]
