"""One run of one workload.

The end-to-end path, timed with tracing off: generate the network, mine
it, build and write the served snapshot, spawn ``repro serve --live``,
drive it over HTTP with a closed-loop query mix, publish delta batches
through the live writer, and check every answer against an in-memory
oracle. The traced run (``trace=True``) goes through the same path and
additionally times the public functions of each layer, writing every
span it records as a Chrome trace.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import shutil
import time
from contextlib import nullcontext
from multiprocessing import resource_tracker
from pathlib import Path
from statistics import fmean, median

from repro.core.tcfi import tcfi
from repro.edgenet.decomposition import decompose_edge_network_pattern
from repro.edgenet.finder import edge_tcfi
from repro.edgenet.index import build_edge_tc_tree
from repro.index.decomposition import decompose_network_pattern
from repro.index.tctree import build_tc_tree
from repro.obs.trace import Tracer, span, tracing
from repro.search.attributed import attributed_community_search
from repro.search.topk import top_k_communities
from repro.serve.engine import IndexedWarehouse
from repro.serve.snapshot import TCTreeSnapshot, write_snapshot

from perfbench import oracle as oracles
from perfbench.calibrate import Calibrated, clean_heap, new_run, run_speed
from perfbench.client import Connection, ServerProcess, closed_loop
from perfbench.workloads import (
    COMPACT_EVERY,
    DECK,
    PROBE_BATCHES,
    ROUND,
    Workload,
    apply_to_databases,
    base_ids,
    delta_batches,
    make_network,
    make_pool,
    network_sizes,
    request_stream,
)
from perfbench.writer import Writer, WriterProcess

#: Closed-loop connections (one per core of the reference 2-core host).
CONNECTIONS = 2
#: Reader connections in ``churn``: one, beside the writer's process.
CHURN_CONNECTIONS = 1
#: ``repro serve --cache-size`` (the program default).
CACHE_SIZE = 1024
#: Build-and-serve chains per run (the first one serves the window).
SERVE_REPS = 3
#: Speed probes on each side of a build-and-serve chain.
SERVE_PROBES = 2
#: Mining repetitions per run, each on a fresh network.
MINE_REPS = 3
#: Delta batches the churn writer publishes (6 compaction cycles at
#: ``--compact-every 2``); the read window lasts until the last one.
CHURN_BATCHES = 12
#: Requests replayed in-process against the engine (traced run).
REPLAY_REQUESTS = 40
#: Speed probes on each side of the read window.
WINDOW_PROBES = 5
#: Traced/untraced build pairs behind ``trace.build_overhead_s``.
OVERHEAD_PAIRS = 3
#: /healthz round trips of the transport probe before the read window.
TRANSPORT_PROBES = 15


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def build(spec: Workload, network, backend: str, workers: int):
    if spec.model == "edge":
        return build_edge_tc_tree(network, workers=workers, backend=backend)
    return build_tc_tree(network, workers=workers, backend=backend)


def mine(spec: Workload, network, alpha: float):
    if spec.model == "edge":
        return edge_tcfi(network, alpha)
    return tcfi(network, alpha)


class Gate:
    """Correctness bookkeeping: wrong answers count as failed requests."""

    def __init__(self) -> None:
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, count: int, note: str) -> None:
        if count:
            self.failed += count
            if len(self.notes) < 10:
                self.notes.append(note)

    def check_answers(self, expected: dict, conn: Connection, requests):
        """Ask the server every request once; compare with the oracle."""
        for request in requests:
            status, body, _ = conn.get(request.path())
            if status != 200 or not oracles.matches(expected[request], body):
                self.fail(1, f"wrong final answer to {request.path()}")


def run(
    spec: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    oracle=oracles.expected_payloads,
) -> dict:
    """Run ``spec`` once; returns the result object the CLI prints."""
    out_dir = root / ".perfbench"
    work = out_dir / f"work-{spec.name}-{seed}-{time.time_ns()}"
    live = work / "live"
    live.mkdir(parents=True)
    new_run()
    tracer = Tracer() if trace else None
    state = _Run(spec, seed, seconds, tracer, root, work, live, oracle)
    try:
        result = state.execute()
        if tracer is not None:
            trace_path = out_dir / "traces" / f"{spec.name}-seed{seed}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps(chrome_trace(tracer)))
            result["record"]["trace_file"] = str(trace_path.relative_to(root))
        return result
    finally:
        if state.writer_process is not None:
            state.writer_process.kill()
        if state.server is not None:
            state.server.stop()
        stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker and wait for it.

    The process-backend build starts the tracker for its shared-memory
    carriers. Left alone it outlives this process by a moment; stopped
    here, it has ended before the result is printed. A later build in
    the same process starts a new one.
    """
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


class _Run:
    """The steps of one run, sharing their intermediate state."""

    def __init__(self, spec, seed, seconds, tracer, root, work, live, oracle):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.root = root
        self.work = work
        self.live = live
        self.oracle = oracle
        self.gate = Gate()
        self.e2e: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        self.record: dict = {}
        self.phase_s: dict[str, float] = {}
        self._mark = time.perf_counter()
        self.server: ServerProcess | None = None
        self.writer_process: WriterProcess | None = None
        #: Per-sample values of the repeated measurements.
        self.samples: dict[str, list[float]] = {
            key: [] for key in (
                "setup", "serve", "serve_ref", "build", "write", "mine",
                "mine_wall",
            )
        }

    # ------------------------------------------------------------------
    def traced(self):
        """Install the run's tracer for a block (no-op when untraced)."""
        return tracing(self.tracer) if self.tracer else nullcontext()

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (value, unit)

    def phase(self, name: str) -> None:
        """Close a wall-clock phase of the run (kept in the record)."""
        now = time.perf_counter()
        self.phase_s[name] = round(now - self._mark, 3)
        self._mark = now

    # ------------------------------------------------------------------
    def fresh_network(self):
        """A new copy of the workload's network (one ``setup_s`` sample)."""
        start = time.perf_counter()
        network = make_network(self.spec, self.seed)
        self.samples["setup"].append(time.perf_counter() - start)
        return network

    def serve_chain(self, directory: Path):
        """One ``time_to_serve_s`` sample: from a fresh network in memory
        to the first 200 on ``/healthz`` of a server on its snapshot.

        Returns ``(network, tree, server, snapshot)``; the caller owns
        the server.
        """
        spec = self.spec
        directory.mkdir(parents=True, exist_ok=True)
        snapshot = directory / "base.tcsnap"
        network = self.fresh_network()
        server = None
        try:
            # Probes as wide as the build: a pool build runs at the
            # speed of all its cores at once (see calibrate.py).
            with clean_heap(), Calibrated(SERVE_PROBES,
                                          width=spec.workers) as timing:
                start = time.perf_counter()
                tree = build(spec, network, spec.backend, spec.workers)
                built = time.perf_counter()
                write_snapshot(tree, snapshot)
                written = time.perf_counter()
                server = ServerProcess(
                    snapshot, self.root / "src", CACHE_SIZE,
                    live_dir=directory, compact_every=COMPACT_EVERY,
                )
                server.wait_healthy()
                served = time.perf_counter()
        except BaseException:
            if server is not None:
                server.stop()
            raise
        self.samples["serve"].append(served - start)
        self.samples["serve_ref"].append((served - start) * timing.speed)
        self.samples["build"].append(built - start)
        self.samples["write"].append(written - built)
        return network, tree, server, snapshot

    def mine_once(self):
        """One ``mine_s`` sample on a fresh network."""
        fresh = self.fresh_network()
        with clean_heap(), Calibrated() as timing:
            mined = mine(self.spec, fresh, self.spec.mine_alpha)
        self.samples["mine"].append(timing.value)
        self.samples["mine_wall"].append(timing.raw)
        return mined

    def transport_s(self, host: str, port: int) -> float:
        """The fixed per-request transport cost: the median ``/healthz``
        round trip on a keep-alive connection (also a per-layer metric)."""
        with Connection(host, port) as conn:
            probes = [conn.get("/healthz")[2] for _ in range(TRANSPORT_PROBES)]
        seconds = median(probes)
        self.layer("server.transport_p50_ms", seconds * 1000, "ms")
        return seconds

    def extra_chain(self, index: int) -> None:
        """A further serve sample on a server of its own, then stopped."""
        _, _, server, _ = self.serve_chain(self.work / f"extra-{index}")
        server.stop()

    # ------------------------------------------------------------------
    def execute(self) -> dict:
        spec, seed = self.spec, self.seed

        # -- serve and mine (first samples; the rest follow the window,
        # so the medians span the whole run) -----------------------------
        network, tree, self.server, snapshot = self.serve_chain(self.live)
        self.e2e["build_rss_mb"] = (_peak_rss_mb(), "MB")
        snapshot_bytes = snapshot.stat().st_size
        mined = self.mine_once()
        if not oracles.mining_matches_tree(mined, tree, spec.mine_alpha):
            self.gate.fail(1, "TCFI patterns differ from the TC-Tree answer")
        self.phase("serve_and_mine")

        # -- the oracle for every distinct request of the mix ------------
        base_of = base_ids(spec, seed)
        pool = make_pool(spec, tree, base_of)
        requests = pool.served(spec.model)
        if not spec.churn:
            expected = self.oracle(tree, requests)
        self.phase("oracle")
        if self.tracer is not None:
            self.layer_probes(tree, snapshot, pool)
            self.phase("layer_probes")

        # -- the read window (and, in churn, the writer beside it) ------
        host, port = self.server.host, self.server.port
        with Connection(host, port) as conn:
            before = conn.get_json("/stats")
        stream = request_stream(pool, spec.model, seed)
        transport = self.transport_s(host, port)
        readers = CHURN_CONNECTIONS if spec.churn else CONNECTIONS
        gc.collect()
        if spec.churn:
            # Probes run only while the program is idle: before the writer
            # is forked and after it has finished. A probe beside the
            # loaded server and writer would divide out the interference
            # churn measures. The window and the writer's batches are
            # scaled by the run's speed at the end.
            batches = delta_batches(network, CHURN_BATCHES, base_of)
            writer = Writer(network, tree, host, port, self.live,
                            calibrate=False)
            with Calibrated(WINDOW_PROBES):
                self.writer_process = WriterProcess(writer, batches)
                start = time.perf_counter()
                with self.traced():
                    # The writer sets this window's length; it ends on
                    # a whole deck, not a round, to stay short.
                    logs = closed_loop(
                        host, port, stream, readers, self.seconds, DECK,
                        keep_going=self.writer_process.busy,
                    )
                window_s = time.perf_counter() - start
                rounds = self.writer_process.wait()
                self.writer_process = None
        else:
            with Calibrated(WINDOW_PROBES) as window, self.traced():
                logs = closed_loop(host, port, stream, readers,
                                   self.seconds, ROUND)
            speed, window_s = window.speed, window.raw
        self.e2e["serve_rss_mb"] = (self.server.peak_rss_mb(), "MB")
        with Connection(host, port) as conn:
            after = conn.get_json("/stats")
        self.phase("window")

        latencies = [s for log in logs for s in log.latencies]
        attempted = len(latencies) + sum(len(log.errors) for log in logs)
        for log in logs:
            self.gate.fail(log.non_200, "non-200 answer in the read window")
            self.gate.fail(len(log.errors), f"reader error: {log.errors[:1]}")
        if not latencies:
            self.gate.fail(1, "no request completed in the read window")
            latencies = [float("nan")]

        if spec.churn:
            for log in logs:
                if log.generations != sorted(log.generations):
                    self.gate.fail(1, "generation stamps went backwards")
            self.more_samples()
            # Final answers against a scratch build of the writer's final
            # network (the pristine network plus the published batches).
            final = make_network(spec, seed)
            apply_to_databases(final, batches[: len(rounds)])
            scratch = build(spec, final, "serial", 1)
            final_expected = self.oracle(scratch, requests)
            with Connection(host, port) as conn:
                self.gate.check_answers(final_expected, conn, requests)
            snapshot_bytes = _dir_bytes(self.live)
        else:
            wrong, notes = oracles.wrong_answers(expected, logs)
            self.gate.fail(wrong, "; ".join(notes))
            # The publish probe: batches through the live writer (between
            # the remaining serve and mine samples), then the served
            # answers against the writer's tree.
            batches = delta_batches(network, PROBE_BATCHES, base_of)
            writer = Writer(network, tree, host, port, self.live,
                            calibrate=True)
            try:
                self.more_samples(lambda: writer.publish(batches.pop(0)),
                                  len(batches))
            finally:
                writer.close()
            rounds = writer.rounds
            probe_expected = self.oracle(writer.tree, requests)
            with Connection(host, port) as conn:
                self.gate.check_answers(probe_expected, conn, requests)

        self.phase("tail")
        samples = self.samples
        host_speed = run_speed()
        if spec.churn:
            speed = host_speed
            for record in rounds:
                record["staleness_s"] = record["staleness_wall_s"] * speed
        self.e2e["setup_s"] = (median(samples["setup"]) * host_speed, "s")
        self.e2e["mine_s"] = (median(samples["mine"]), "s")
        self.e2e["time_to_serve_s"] = (median(samples["serve_ref"]), "s")
        self.layer("network.generate_s", median(samples["setup"]), "s")
        self.layer("mine.tcfi_s", median(samples["mine_wall"]), "s")
        self.layer("mine.patterns", mined.num_patterns, "count")
        self.layer("index.build_s", median(samples["build"]), "s")
        self.layer("index.tree_nodes", tree.num_nodes, "count")
        self.layer("snapshot.write_s", median(samples["write"]), "s")
        # Reference terms: the fixed transport stall stays as measured,
        # the rest of each request scales with the host's speed.
        reference = [
            transport + (latency - transport) * speed
            for latency in latencies
        ]
        self.e2e["query_p50_ms"] = (median(reference) * 1000, "ms")
        self.e2e["query_qps"] = (
            len(reference) * readers / sum(reference), "1/s"
        )
        self.record["window_speed"] = speed
        self.record["run_speed"] = host_speed
        self.record["transport_ms"] = transport * 1000
        self.record["wall"] = {
            "query_qps": len(latencies) / window_s,
            **{
                f"query_p{q}_ms": _quantile(latencies, q / 100) * 1000
                for q in (50, 90, 95, 99)
            },
        }
        samples["staleness"] = [r["staleness_s"] for r in rounds]
        samples["staleness_wall"] = [r["staleness_wall_s"] for r in rounds]
        self.record["samples"] = samples
        self.e2e["staleness_p50_s"] = (
            median(r["staleness_s"] for r in rounds), "s"
        )
        self.e2e["snapshot_mb"] = (snapshot_bytes / 2**20, "MB")
        self.writer_layers(rounds)
        self.window_layers(before, after, logs, latencies)

        self.record |= {
            "workload": spec.name,
            "why": spec.why,
            "seed": seed,
            "network": network_sizes(network),
            "shape_seed": spec.shape_seed,
            "tree_nodes": tree.num_nodes,
            "tree_depth": tree.depth,
            "alpha_max": pool.alpha_max,
            "mine_alpha": spec.mine_alpha,
            "build": f"{spec.backend}, {spec.workers} worker(s)",
            "loop": "closed",
            "connections": readers,
            "cache_size": CACHE_SIZE,
            "compact_every": COMPACT_EVERY,
            "flush_policy": "program default (no fsync)",
            "window_s": round(window_s, 3),
            "requests": attempted,
            "distinct_requests": len(requests),
            "delta_batches": len(rounds),
            "query_fail_ratio": self.gate.failed / max(1, attempted),
            "failures": self.gate.notes,
            "phase_s": self.phase_s,
        }
        metrics = self.layers if self.tracer is not None else self.e2e
        return {
            "record": self.record,
            "correct": self.gate.failed == 0,
            "attempted": max(1, attempted),
            "failed": self.gate.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }

    def more_samples(self, publish=None, batches: int = 0) -> None:
        """The remaining serve and mine samples, interleaved with the
        static workloads' publish batches."""
        for index in range(max(SERVE_REPS - 1, MINE_REPS - 1, batches)):
            if index < batches:
                publish()
            if index < SERVE_REPS - 1:
                self.extra_chain(index)
            if index < MINE_REPS - 1:
                self.mine_once()

    # ------------------------------------------------------------------
    def writer_layers(self, rounds: list[dict]) -> None:
        self.layer("updates.maintain_p50_s",
                   median(r["maintain_s"] for r in rounds), "s")
        self.layer("updates.affected_fraction",
                   median(r["affected_fraction"] for r in rounds), "ratio")
        self.layer("updates.reuse_ratio",
                   median(r["reuse_ratio"] for r in rounds), "ratio")
        self.layer("updates.full_routes",
                   sum(r["route"] == "full" for r in rounds), "count")
        self.layer("snapshot.diff_p50_s",
                   median(r["diff_s"] for r in rounds), "s")
        self.layer("snapshot.overlay_kb",
                   median(r["overlay_bytes"] for r in rounds) / 1024, "KB")
        self.layer("live.publish_p50_s",
                   median(r["publish_s"] for r in rounds), "s")
        self.layer("live.compactions",
                   sum(r["compacted"] for r in rounds), "count")

    def window_layers(self, before, after, logs, latencies) -> None:
        """Engine counters of the read window (``/stats`` deltas)."""
        b, a = before["query_breakdown"], after["query_breakdown"]
        queries = max(1, a["queries"] - b["queries"])
        visited = max(1, a["visited_nodes"] - b["visited_nodes"])
        self.layer("engine.toc_ms_per_query",
                   (a["toc_seconds"] - b["toc_seconds"]) * 1000 / queries, "ms")
        self.layer("engine.decode_ms_per_query",
                   (a["decode_seconds"] - b["decode_seconds"]) * 1000
                   / queries, "ms")
        self.layer("engine.visited_per_query",
                   (a["visited_nodes"] - b["visited_nodes"]) / queries,
                   "count")
        self.layer("engine.retrieved_per_query",
                   (a["retrieved_nodes"] - b["retrieved_nodes"]) / queries,
                   "count")
        self.layer("engine.pruned_alpha_ratio",
                   (a["pruned_alpha"] - b["pruned_alpha"]) / visited, "ratio")
        sizes = [size for log in logs for size in log.sizes]
        self.layer("server.response_kb",
                   fmean(sizes) / 1024 if sizes else 0.0, "KB")
        self.layer("server.http_p50_ms", median(latencies) * 1000, "ms")
        self.layer("server.http_p99_ms", _quantile(latencies, 0.99) * 1000,
                   "ms")

    def layer_probes(self, tree, snapshot: Path, pool) -> None:
        """Per-layer timings of the public functions, outside the window.

        Only the blocks that feed the trace run with the tracer
        installed; the rest time the plain calls.
        """
        spec, seed = self.spec, self.seed

        # graphs: layer-1 decomposition of every item on a fresh network
        network = make_network(spec, seed)
        decompose = (
            decompose_edge_network_pattern if spec.model == "edge"
            else decompose_network_pattern
        )
        start = time.perf_counter()
        for item in network.item_universe():
            decompose(network, (item,))
        self.layer("graphs.layer1_decompose_s",
                   time.perf_counter() - start, "s")

        # index: the build phases, serial and process, from the Tracer
        phases: dict[str, float] = {}
        for backend, workers in (("serial", 1), ("process", 2)):
            network = make_network(spec, seed)
            with self.traced(), span("bench.build", backend=backend) as sp:
                start = time.perf_counter()
                build(spec, network, backend, workers)
                elapsed = time.perf_counter() - start
            for child in sp.walk():
                if child is not sp:
                    phases[f"{backend}:{child.name}"] = (
                        phases.get(f"{backend}:{child.name}", 0.0)
                        + child.duration
                    )
            if backend == "serial":
                frontier = phases.get("serial:build.frontier", 0.0)
                self.layer("index.build.frontier_s", frontier, "s")
                # Everything before the frontier loop: triangle warm-up
                # plus the layer-1 decompositions.
                self.layer("index.build.layer1_s", elapsed - frontier, "s")
        self.layer("index.build.warm_s",
                   phases.get("process:build.warm_triangles", 0.0), "s")
        self.layer("index.build.phaseA_s",
                   phases.get("process:build.phaseA", 0.0), "s")
        self.layer("index.build.phaseB_s",
                   phases.get("process:build.phaseB", 0.0), "s")

        # tracing overhead on the build: traced and untraced builds of the
        # workload's backend in alternating order, each in reference
        # seconds; the difference of the two medians
        builds: dict[bool, list[float]] = {False: [], True: []}
        for index in range(OVERHEAD_PAIRS):
            for with_trace in (False, True) if index % 2 else (True, False):
                network = make_network(spec, seed)
                with self.traced() if with_trace else nullcontext():
                    with clean_heap(), Calibrated() as timing:
                        build(spec, network, spec.backend, spec.workers)
                builds[with_trace].append(timing.value)
        self.layer("trace.build_overhead_s",
                   median(builds[True]) - median(builds[False]), "s")

        # snapshot: open (TOC parse)
        opens = []
        for _ in range(5):
            start = time.perf_counter()
            TCTreeSnapshot.open(snapshot).close()
            opens.append(time.perf_counter() - start)
        self.layer("snapshot.open_s", median(opens), "s")

        # engine + serialize: in-process replay of the mix, each request
        # once with spans recorded and once without (alternating order)
        stream = request_stream(pool, spec.model, seed)
        plain: list[float] = []
        spanned: list[float] = []
        serialize: list[float] = []
        with IndexedWarehouse.open(snapshot, cache_size=CACHE_SIZE) as engine:
            for index in range(REPLAY_REQUESTS):
                request = next(stream)
                order = (False, True) if index % 2 else (True, False)
                for with_span in order:
                    with self.traced() if with_span else nullcontext():
                        with span("engine.request", path=request.path()):
                            start = time.perf_counter()
                            answer = _engine_call(engine, request)
                            elapsed = time.perf_counter() - start
                    (spanned if with_span else plain).append(elapsed)
                if request.kind == "query":
                    start = time.perf_counter()
                    json.dumps(answer.to_payload())
                    serialize.append(time.perf_counter() - start)
            cache = engine.stats()["cache"]
        # (the served engine's counters restart with every published
        # generation, so the ratio comes from this replay's engine)
        self.layer("engine.cache_hit_ratio",
                   cache["hits"] / max(1, cache["hits"] + cache["misses"]),
                   "ratio")
        self.layer("engine.query_p50_ms", median(plain) * 1000, "ms")
        self.layer("trace.replay_overhead_ms",
                   (median(spanned) - median(plain)) * 1000, "ms")
        self.layer("server.serialize_p50_ms",
                   median(serialize) * 1000 if serialize else 0.0, "ms")


        # search: attributed search and top-k over the in-memory tree
        searches = []
        for request in pool.search:
            start = time.perf_counter()
            attributed_community_search(
                tree, request.vertices, request.pattern, alpha=request.alpha
            )
            searches.append(time.perf_counter() - start)
        self.layer("search.attributed_p50_ms",
                   median(searches) * 1000 if searches else 0.0, "ms")
        topk = []
        for request in pool.by_alpha:
            start = time.perf_counter()
            top_k_communities(tree, 10, alpha=request.alpha)
            topk.append(time.perf_counter() - start)
        self.layer("search.topk_p50_ms", median(topk) * 1000, "ms")


def _engine_call(engine: IndexedWarehouse, request):
    if request.kind == "query":
        return engine.query(pattern=request.pattern, alpha=request.alpha)
    if request.kind == "top-k":
        return engine.top_k(request.k, pattern=request.pattern,
                            alpha=request.alpha)
    return engine.search(request.vertices, request.pattern,
                         alpha=request.alpha)


def chrome_trace(tracer: Tracer) -> dict:
    """Chrome trace events carrying name, start, end, parent and request id."""
    events = []
    counter = iter(range(1, 1 << 62))
    epoch = min((root.start for root in tracer.roots), default=0.0)

    def emit(node, parent_id, parent_name):
        span_id = next(counter)
        args = {key: value for key, value in node.attrs.items()}
        args["span_id"] = span_id
        args["parent_id"] = parent_id
        args["parent"] = parent_name
        args["end_us"] = (node.start + node.duration - epoch) * 1e6
        events.append({
            "name": node.name,
            "ph": "X",
            "ts": (node.start - epoch) * 1e6,
            "dur": node.duration * 1e6,
            "pid": 1,
            "tid": node.tid,
            "args": args,
        })
        for child in node.children:
            emit(child, span_id, node.name)

    for root in tracer.roots:
        emit(root, None, None)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
