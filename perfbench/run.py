"""Repo benchmark: mining input to HTTP answer, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wide-themes --seed 1 \\
        --seconds 15 --trace 0

Runs the package from ``./src`` (no install needed). Prints a record of
the run's setup, then, as the last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones plus the tracing overhead, and writes a Chrome trace
under ``.perfbench/traces/``. A wrong answer anywhere makes the run
exit 1 with ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_paths() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}/repro")
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != Path(here)]
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured read window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long smoke inputs")
    return parser.parse_args(argv)


def main(argv=None, oracle=None) -> int:
    args = parse_args(argv)
    _import_paths()
    # A terminated run still stops the server and writer it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    from perfbench import bench
    from perfbench.workloads import NAMES, workload

    if args.workload not in NAMES:
        sys.exit(f"perfbench: unknown workload {args.workload!r} "
                 f"(choose from {', '.join(NAMES)})")
    spec = workload(args.workload, args.scale)
    kwargs = {} if oracle is None else {"oracle": oracle}
    result = bench.run(spec, args.seed, args.seconds, bool(args.trace),
                       ROOT, **kwargs)
    record = result.pop("record")
    print("record " + json.dumps(record, sort_keys=True))
    if args.trace:
        metrics = result["metrics"]
        print(
            "latency split p50 (ms): engine "
            f"{metrics['engine.query_p50_ms']['value']:.1f} + serialize "
            f"{metrics['server.serialize_p50_ms']['value']:.1f} + transport "
            f"{metrics['server.transport_p50_ms']['value']:.1f}; over HTTP "
            f"{metrics['server.http_p50_ms']['value']:.1f}"
        )
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
