"""Tests of the benchmark itself, on tiny inputs (seconds per run).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _smoke(workload: str, trace: int) -> dict:
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    # A window sends whole rounds of the mix (whole decks in churn).
    record = json.loads(proc.stdout.splitlines()[0].removeprefix("record "))
    assert record["requests"] % (20 if workload == "churn" else 80) == 0
    return result


def _declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_appears_with_its_unit(workload):
    metrics = _smoke(workload, trace=0)["metrics"]
    declared = _declared("end_to_end")
    assert set(metrics) == set(declared)
    for name, unit in declared.items():
        assert metrics[name]["unit"] == unit
        assert isinstance(metrics[name]["value"], (int, float))
        assert metrics[name]["value"] > 0, name


@pytest.mark.parametrize("workload", ["churn", "edge-themes"])
def test_every_per_layer_metric_appears_with_its_unit(workload):
    metrics = _smoke(workload, trace=1)["metrics"]
    declared = _declared("per_layer")
    assert set(metrics) == set(declared)
    for name, unit in declared.items():
        assert metrics[name]["unit"] == unit


def test_traced_run_writes_a_chrome_trace_with_request_ids():
    proc = _run("--workload", "dense-themes", "--seed", "5", "--seconds",
                "1", "--trace", "1", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout.splitlines()[0].removeprefix("record "))
    assert "latency split p50" in proc.stdout
    events = json.loads((ROOT / record["trace_file"]).read_text())
    events = events["traceEvents"]
    requests = [e for e in events if e["name"] == "http.request"]
    assert requests and all("rid" in e["args"] for e in requests)
    names = {e["name"] for e in events}
    assert {"build.frontier", "build.phaseA", "build.phaseB"} <= names
    assert all("parent" in e["args"] and "end_us" in e["args"]
               for e in events)


def test_tampered_oracle_fails_the_gate(capsys):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import run
    from perfbench.oracle import expected_payloads

    def tampered(tree, requests):
        expected = expected_payloads(tree, requests)
        first = next(r for r in requests if r.kind == "query")
        expected[first] = dict(expected[first])
        expected[first]["num_trusses"] += 1
        return expected

    code = run.main(
        ["--workload", "wide-themes", "--seed", "2", "--seconds", "1",
         "--scale", "tiny"],
        oracle=tampered,
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def _children() -> list[int]:
    """Pids of this process's children, zombies included."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid():
            children.append(int(stat.parent.name))
    return children


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc")
def test_run_leaves_no_process_behind(capsys):
    # wide-themes builds with the process backend, whose shared-memory
    # carriers start the multiprocessing resource tracker.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import run

    before = set(_children())
    code = run.main(["--workload", "wide-themes", "--seed", "6",
                     "--seconds", "1", "--scale", "tiny"])
    capsys.readouterr()
    assert code == 0
    assert set(_children()) - before == set()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "dense-themes", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_mix_decks_hold_exact_shares():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import build
    from perfbench.workloads import (
        base_ids, make_network, make_pool, request_stream, workload,
    )

    spec = workload("wide-themes", "tiny")
    tree = build(spec, make_network(spec, 1), "serial", 1)
    pool = make_pool(spec, tree, base_ids(spec, 1))
    stream = request_stream(pool, spec.model, 1)
    deck = [next(stream) for _ in range(40)]
    kinds = Counter(
        "alpha" if r.kind == "query" and r.pattern is None else r.kind
        for r in deck
    )
    assert kinds == {"alpha": 16, "query": 12, "top-k": 6, "search": 6}
    top_k_alphas = {r.alpha for r in deck if r.kind == "top-k"}
    assert top_k_alphas == {r.alpha for r in pool.top_k}


def test_every_round_of_a_full_pool_is_the_same_work():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import (
        POOL_PATTERNS, ROUND, QueryPool, Request, request_stream,
    )

    levels = [0.0, 0.25, 0.5, 0.75]
    patterns = [(i,) for i in range(POOL_PATTERNS)]
    pool = QueryPool(
        alpha_max=1.0,
        by_alpha=[Request("query", None, a) for a in levels],
        by_pattern=[Request("query", p, 0.25) for p in patterns],
        top_k=[Request("top-k", None, a, k=10) for a in levels],
        search=[Request("search", p, 0.25, vertices=p) for p in patterns],
        alt=[],
    )
    for seed in (1, 2):
        stream = request_stream(pool, "vertex", seed)
        rounds = [Counter(next(stream) for _ in range(ROUND))
                  for _ in range(3)]
        assert rounds[0] == rounds[1] == rounds[2]
        assert set(rounds[0]) == set(pool.served("vertex"))


def test_delta_stream_is_valid_in_order_and_seeded():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.index.updates import validate_deltas
    from perfbench.workloads import (
        base_ids, delta_batches, make_network, relabeling, workload,
    )

    for name in ("wide-themes", "edge-themes"):
        spec = workload(name, "tiny")
        network = make_network(spec, 4)
        batches = delta_batches(network, 30, base_ids(spec, 4))
        validate_deltas(network, [d for batch in batches for d in batch])
        # Another seed maintains the same batches under its own ids.
        other = delta_batches(make_network(spec, 5), 30, base_ids(spec, 5))
        to_5 = relabeling(spec, 5)

        def moved(target, base_of=base_ids(spec, 4)):
            if isinstance(target, tuple):
                return tuple(sorted(to_5[base_of[v]] for v in target))
            return to_5[base_of[target]]

        assert [[(d.op, moved(d.target), d.items, d.tid) for d in b]
                for b in batches] == [
            [(d.op, d.target, d.items, d.tid) for d in b] for b in other
        ]


def test_records_name_the_declared_why():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import NAMES, WHY

    declared = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert tuple(declared) == NAMES
    assert WHY == declared
