"""Host-speed calibration for compute-bound timings.

On a shared host the speed of a core drifts by ±20-30% over tens of
seconds, and process CPU time drifts with it, so the drift cannot be
read away. Each compute-bound sample is therefore taken between two
runs of a fixed pure-Python probe and reported in *reference seconds*:
the wall time scaled by ``REFERENCE_PROBE_S / probe``, i.e. what the
operation would have taken on a host that runs the probe in
``REFERENCE_PROBE_S``. The probe never touches the package, so a change
that speeds the program up shows in full; only the host's drift cancels.

The probe does what the mining and indexing code does most: set
intersections, dict and tuple building. In 28 trials spread over four
minutes on the reference host, probes of this kind cut the spread
(IQR / median) of a TCFI timing from 0.28 to 0.07-0.09.

Work that spans several processes (a writer beside a loaded server)
does not follow a one-core probe from moment to moment, but it does
follow the host's speed over minutes. Such work is scaled by
:func:`run_speed`, the median of every one-core probe taken in the run.

A build that fans out over ``n`` worker processes also depends on
whether the host runs ``n`` of its cores at once: on the reference host
a 2-worker build takes either ~0.45 s or ~0.85 s, as the second core is
there or not. Its samples are calibrated by a probe ``width`` wide: the
same probe run at once in ``width`` forked processes, timed until the
last one ends.
"""

from __future__ import annotations

import gc
import multiprocessing
import statistics
import time
from contextlib import contextmanager

#: Probe time on the reference host (a 2-core x86-64 container, CPython
#: 3.11); only the ratio to it matters.
REFERENCE_PROBE_S = 0.055

#: Every probe time ``Calibrated`` has taken since :func:`new_run`.
_taken: list[float] = []

_EVENS = frozenset(range(0, 3000, 2))
_THIRDS = frozenset(range(0, 3000, 3))


def probe(width: int = 1) -> float:
    """Seconds the fixed probe takes on this host right now, run at once
    in ``width`` processes (this one alone when ``width`` is 1).

    The collector is off while it runs: otherwise the probe would time
    collections over whatever heap the caller holds, not the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _probe() if width == 1 else _wide_probe(width)
    finally:
        if enabled:
            gc.enable()


def _probe_child(barrier, channel) -> None:
    barrier.wait()
    _probe()
    channel.send(time.perf_counter())
    channel.close()


def _wide_probe(width: int) -> float:
    """From a common start until the last of ``width`` forked probes ends
    (``perf_counter`` is the system-wide monotonic clock on Linux).

    Fork it only while this process runs no other thread.
    """
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(width + 1)
    channels, children = [], []
    try:
        for _ in range(width):
            receive, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_probe_child, args=(barrier, send))
            child.start()
            send.close()
            channels.append(receive)
            children.append(child)
        barrier.wait()
        start = time.perf_counter()
        return max(channel.recv() for channel in channels) - start
    finally:
        for channel in channels:
            channel.close()
        for child in children:
            if child.is_alive():
                child.kill()
            child.join()


def _probe() -> float:
    start = time.perf_counter()
    total = 0
    for _ in range(400):
        common = _EVENS & _THIRDS
        table = {x: x for x in common}
        total += len(table) + len(sorted(common)[:10])
    rows: list[tuple] = []
    for i in range(60000):
        rows.append((i, str(i), [i, i + 1]))
        if len(rows) > 1000:
            rows = []
    return time.perf_counter() - start


class Calibrated:
    """``with Calibrated() as c: work()``, then read ``c.raw`` (wall
    seconds), ``c.speed`` (reference / measured probe time) and
    ``c.value`` (reference seconds).

    ``probes`` probes ``width`` processes wide run on each side and the
    median of all of them is taken; one probe reads within ±25% of the
    host's current speed. One-core probes count towards
    :func:`run_speed`.
    """

    def __init__(self, probes: int = 1, width: int = 1) -> None:
        self.probes = probes
        self.width = width

    def __enter__(self) -> "Calibrated":
        self._times = [probe(self.width) for _ in range(self.probes)]
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.raw = time.perf_counter() - self._start
        self._times += [probe(self.width) for _ in range(self.probes)]
        if self.width == 1:
            _taken.extend(self._times)
        self.speed = REFERENCE_PROBE_S / statistics.median(self._times)
        self.value = self.raw * self.speed


def new_run() -> None:
    """Forget the probes of earlier runs in this process."""
    _taken.clear()


def run_speed() -> float:
    """The host's speed over the run so far: the reference probe time
    over the median of every probe ``Calibrated`` has taken. Every such
    probe runs while the program is idle."""
    return REFERENCE_PROBE_S / statistics.median(_taken)


@contextmanager
def clean_heap():
    """Run a timed sample from a collected heap, with every object that
    exists before it frozen out of later collections (``gc.freeze``).

    Neither garbage nor the benchmark's own live objects (oracle
    answers, response logs) are then charged to the sample, and the
    sample costs the same before and after the read window.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
