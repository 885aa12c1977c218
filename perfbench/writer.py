"""The live-index writer: maintain, diff, publish.

One batch goes through the path a remote writer of ``repro serve
--live`` takes: ``apply_deltas(mode="auto")`` on the writer's own
network and tree, ``write_delta_snapshot`` of old against new tree, then
``POST /admin/apply-delta`` naming the overlay file. Staleness is the
time from the batch being handed to the writer until the publish ack.

In ``churn`` the writer runs in its own forked process, so its
CPU-bound maintenance does not hold the readers' GIL. There it records
wall time only: a speed probe taken while readers load the cores would
divide out the very interference ``churn`` measures, so the caller
scales staleness by a host speed probed while the program is idle.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time
from pathlib import Path

from repro.index.updates import apply_deltas
from repro.serve.snapshot import write_delta_snapshot

from perfbench.calibrate import Calibrated, clean_heap
from perfbench.client import Connection

#: The generation ``repro serve`` gives the snapshot it starts on.
BASE_GENERATION = 1


class Writer:
    """Publishes delta batches to a live server, one generation each.

    With ``calibrate`` each batch's staleness is also given in reference
    seconds (``staleness_s``), from speed probes around the batch;
    otherwise only its wall time (``staleness_wall_s``) is recorded.
    """

    def __init__(self, network, tree, host: str, port: int,
                 overlay_dir: Path, calibrate: bool) -> None:
        self.network = network
        self.tree = tree
        self.overlay_dir = overlay_dir
        self.calibrate = calibrate
        self.generation = BASE_GENERATION
        self.conn = Connection(host, port)
        self.rounds: list[dict] = []

    def publish(self, batch) -> dict:
        with clean_heap():
            if self.calibrate:
                with Calibrated() as timing:
                    record = self._publish(batch)
                record["staleness_s"] = timing.value
                record["staleness_wall_s"] = timing.raw
            else:
                start = time.perf_counter()
                record = self._publish(batch)
                record["staleness_wall_s"] = time.perf_counter() - start
        self.rounds.append(record)
        return record

    def _publish(self, batch) -> dict:
        start = time.perf_counter()
        result = apply_deltas(self.network, self.tree, batch, mode="auto")
        maintained = time.perf_counter()
        target = self.generation + 1
        # Not *.tcdelta: the server's spool watcher must not race the
        # admin endpoint for the same overlay.
        path = self.overlay_dir / f"gen-{target:08d}.overlay"
        write_delta_snapshot(
            self.tree, result.tree, path,
            generation=target, base_generation=self.generation,
        )
        diffed = time.perf_counter()
        status, body, _ = self.conn.request(
            "POST", "/admin/apply-delta",
            json.dumps({"path": str(path)}).encode(),
        )
        acked = time.perf_counter()
        if status != 200:
            raise RuntimeError(f"apply-delta -> {status}: {body[:200]!r}")
        ack = json.loads(body)
        if ack["generation"] != target:
            raise RuntimeError(f"published {ack['generation']}, not {target}")
        self.generation = target
        self.tree = result.tree
        return {
            "maintain_s": maintained - start,
            "diff_s": diffed - maintained,
            "publish_s": acked - diffed,
            "overlay_bytes": path.stat().st_size,
            "route": result.route,
            "affected_fraction": result.affected_fraction,
            "reuse_ratio": result.reused / max(1, result.tree.num_nodes),
            "compacted": bool(ack["compacted"]),
        }

    def close(self) -> None:
        self.conn.close()


def _writer_main(channel, writer: Writer, batches) -> None:
    try:
        for batch in batches:
            writer.publish(batch)
        channel.send(("ok", writer.rounds))
    except Exception as exc:  # noqa: BLE001 — reported to the parent
        channel.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        writer.close()
        channel.close()


class WriterProcess:
    """A forked writer publishing every batch of ``batches`` in turn.

    Fork it before any reader thread starts.
    """

    def __init__(self, writer: Writer, batches):
        # Fork hands the child the network and tree copy-on-write; it is
        # only safe while this process runs no other thread.
        if threading.active_count() != 1:
            raise RuntimeError("fork the writer before starting threads")
        ctx = multiprocessing.get_context("fork")
        self._recv, send = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_writer_main, args=(send, writer, batches),
            name="perfbench-writer",
        )
        self.process.start()
        send.close()

    def busy(self) -> bool:
        """True until the writer has reported (or exited)."""
        return not self._recv.poll()

    def wait(self) -> list[dict]:
        """Wait for the writer and return its per-batch records."""
        try:
            status, payload = self._recv.recv()
        except EOFError:
            status, payload = "error", "writer exited without a report"
        self.process.join()
        self._recv.close()
        if status != "ok":
            raise RuntimeError(f"writer failed: {payload}")
        return payload

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
