"""Self-tests of the benchmark: the gates catch bad output, counts repeat.

Run from the checkout root with ``python3 -m pytest perfbench``.  Each
workload runs at a tiny size, so the whole file takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from legendre_pairs import search, sequences  # noqa: E402

#: a stage-2 survivor: the first published l=117 Case (I) pair member
SURVIVOR_117 = 10327421105

TINY = {
    "slice-117": lambda: workloads.Slice117(window=40, windows=3, sample_every=1),
    "sweep-15": lambda: workloads.Sweep15(length=9),
    "certify-published": workloads.CertifyPublished,
}


def survivor_slice(tmp_path: Path):
    """A tiny slice whose only window holds a known record."""
    w = workloads.Slice117(window=20, windows=1, sample_every=1)
    w.setup(1)
    w.offsets = lambda i: [SURVIVOR_117 - 7]
    return w, iterate(w, 0, tmp_path / "slice")


def iterate(workload, i: int, directory: Path):
    return workload.summarize(i, directory, workload.run(i, directory))


def gate_of(workload, result) -> workloads.Gate:
    gate = workloads.Gate()
    workload.check(result, gate)
    return gate


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = run.measure(TINY[name], 7, 0, True, tmp_path / "a")
    second = run.measure(TINY[name], 7, 0, True, tmp_path / "b")
    assert first["gate"].attempted > 0 and first["gate"].failed == 0, first["gate"].messages
    assert json.dumps(first["counts"]) == json.dumps(second["counts"])
    assert set(first["counts"]) | set(first["timings"]) | {run.TRACE_OVERHEAD} == set(run.per_layer_units())


def test_slice_gate_catches_tampered_record(tmp_path):
    w, result = survivor_slice(tmp_path)
    assert result.stats[0].stage2_survivors >= 1
    gate = gate_of(w, result)
    assert gate.failed == 0 and gate.attempted > 0, gate.messages

    path = result.directory / "w0000.rec"
    clean = path.read_text()
    rank, fp1, fp2 = clean.splitlines()[0].split()
    flipped = format((int(fp1[0], 16) + 1) % 16, "x") + fp1[1:]
    path.write_text(clean.replace(f"{rank} {fp1} ", f"{rank} {flipped} ", 1))
    assert gate_of(w, result).fail_ratio > 0

    path.write_text(clean.replace(f"{rank} ", f"{int(rank) + 1} ", 1))
    assert gate_of(w, result).fail_ratio > 0

    path.write_text("".join(clean.splitlines(keepends=True)[1:]))  # a dropped record
    assert gate_of(w, result).fail_ratio > 0


def test_slice_gate_catches_a_short_scan(tmp_path):
    w, result = survivor_slice(tmp_path)
    result.stats[0] = search.SearchStats(scanned=w.window - 1)
    assert gate_of(w, result).fail_ratio > 0


def test_sweep_gate_catches_dropped_pair(tmp_path):
    w = TINY["sweep-15"]()
    w.setup(1)
    result = iterate(w, 0, tmp_path / "sweep")
    assert result.pairs > 0 and gate_of(w, result).failed == 0

    pairs_json = result.directory / "pairs.json"
    records = json.loads(pairs_json.read_text())
    pairs_json.write_text(json.dumps(records[1:]))
    assert gate_of(w, result).fail_ratio > 0

    pairs_json.write_text(json.dumps(records))
    result.pairs_digest = workloads.digest([])
    assert gate_of(w, result).fail_ratio > 0


def test_certify_gate_catches_dropped_pair_and_bad_matrix(tmp_path):
    w = workloads.CertifyPublished()
    w.setup(1)
    first = iterate(w, 0, tmp_path)
    later = iterate(w, 1, tmp_path)
    assert gate_of(w, first).failed == 0 and gate_of(w, later).failed == 0

    first.psd_third.pop()
    assert gate_of(w, first).fail_ratio > 0

    first = iterate(w, 0, tmp_path)
    first.matrices[0] = first.matrices[0].copy()
    first.matrices[0][0, 0] *= -1
    assert gate_of(w, first).fail_ratio > 0

    later.images[0] = False
    assert gate_of(w, later).fail_ratio > 0


def test_tracer_wraps_every_lookup_name():
    recorder = spans.SpanRecorder()
    original = sequences.psd
    recorder.install()
    try:
        assert search.psd is sequences.psd is not original
        with recorder.phase("bench.iteration", 1):
            search.fingerprint(sequences.BinarySequence((1, 1, -1, 1, -1)))
    finally:
        recorder.uninstall()
    assert search.psd is sequences.psd is original
    table = spans.SpanTable(recorder)
    assert table.calls("search.fingerprint", 1) == 1
    assert table.child_calls("sequences.psd", "search.fingerprint", 1) == 2  # lags 1 and 2
    assert np.all(table.self_s >= 0)


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_line(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-published",
         "--seed", "2", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.per_layer_units() if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "slice-117",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
