"""Benchmark of the legendre_pairs search, pipeline and verification layers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload slice-117 --seed 1 --seconds 30 --trace 0

One process runs one workload on one core (workers=1), in a closed loop: one
caller starts the next timed iteration only after the previous one finished.
It builds its inputs from the seed, times iterations for ``--seconds``
seconds, checks every output after the timing, prints a readable summary and,
as the last line of stdout, one JSON object.  With ``--trace 0`` the JSON
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run, whose spans are written to ``.perfbench/`` at exit.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("slice-117", "sweep-15", "certify-published")
SETUP_SAMPLES = 5  # this process plus four fresh probe processes
MIN_ITERATIONS = 2

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: self time per iteration, median over the traced iterations
ITERATION_SELF_S = (
    "ranking.subset_unrank",
    "ranking.decode_selection",
    "sequences.psd",
    "sequences.paf",
    "search.fingerprint",
    "search.run_chunk",
    "search.read_records",
    "search.match_candidates",
    "verify.verify_pair",
    "verify.pair_class_id",
    "verify.hadamard_from_pair",
    "verify.compression_certificate",
    "verify.symmetry_reduce",
    "pipeline.write_pairs",
)
#: self time during set-up
SETUP_SELF_S = (
    "nt.orbit_decomposition",
    "nt.spectrum_mod3",
    "nt.orbit_psd_values",
    "pipeline.third_psd_filter",
)
#: calls in the first traced iteration
CALLS = (
    "ranking.subset_unrank",
    "ranking.decode_selection",
    "sequences.psd",
    "sequences.paf",
    "search.fingerprint",
    "verify.verify_pair",
    "verify.hadamard_from_pair",
)
#: exact counts of the first traced iteration, reported by the workloads
COUNTS = {
    "search.stage1.pass_ratio": "ratio",
    "search.stage2.pass_ratio": "ratio",
    "search.stage2.lags_per_candidate": "count",
    "search.records": "count",
    "search.record_bytes": "bytes",
    "search.match.candidates": "count",
    "search.match.verified_ratio": "ratio",
    "verify.hadamard.variants_per_pair": "count",
    "pipeline.pairs_json_bytes": "bytes",
}
TRACE_OVERHEAD = "bench.trace_overhead"


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in ITERATION_SELF_S + SETUP_SELF_S}
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update(COUNTS)
    units[TRACE_OVERHEAD] = "ratio"
    return units


def load(name: str):
    """Import the package and the workloads, and build the named workload."""
    import workloads

    return workloads.WORKLOADS[name]()


def setup_probe(name: str, seed: int) -> float:
    """Scaled set-up time of this process: imports, plans, decompositions, filters."""
    _, elapsed, factor = speed.timed(lambda: load(name).setup(seed))
    return elapsed * factor


def probe_in_subprocess(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Iterations:
    """Scaled and unscaled times of timed iterations, with their outputs."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.factors: list[float] = []
        self.scaled: list[float] = []
        self.results: list = []

    def run(self, workload, i: int, directory: Path) -> None:
        gc.collect()
        output, elapsed, factor = speed.timed(workload.run, i, directory)
        self.results.append(workload.summarize(i, directory, output))
        self.raw.append(elapsed)
        self.factors.append(factor)
        self.scaled.append(elapsed * factor)


def measure(make: Callable, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, time iterations until ``seconds`` are spent, then check outputs.

    ``make`` imports what the workload needs and returns it; its time counts
    as set-up.
    """
    recorder = None
    if trace:
        import spans

        recorder = spans.SpanRecorder()

    def setup():
        workload = make()
        if trace:
            recorder.install()
            with recorder.phase("bench.setup", 0):
                workload.setup(seed)
            recorder.uninstall()
        else:
            workload.setup(seed)
        return workload

    workload, setup_raw, setup_factor = speed.timed(setup)
    setup_s = [setup_raw * setup_factor]
    if not trace:
        setup_s += [probe_in_subprocess(workload.name, seed) for _ in range(SETUP_SAMPLES - 1)]

    plain, traced = Iterations(), Iterations()
    start = time.perf_counter()
    i = 0
    while True:
        plain.run(workload, i, work / f"u{i:03d}")
        if trace:
            recorder.install()
            with recorder.phase("bench.iteration", i + 1):
                traced.run(workload, i, work / f"t{i:03d}")
            recorder.uninstall()
        i += 1
        spent = time.perf_counter() - start
        last = plain.raw[-1] + (traced.raw[-1] if trace else 0.0)
        if (trace or i >= MIN_ITERATIONS) and spent + last > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import workloads

    gate = workloads.Gate()
    for result in plain.results + traced.results:
        workload.check(result, gate)

    rates = [workload.items(r) / t for r, t in zip(plain.results, plain.scaled)]
    out = {
        "gate": gate,
        "e2e": {
            "setup_s": (statistics.median(setup_s), len(setup_s)),
            "wall_s": (statistics.median(plain.scaled), len(plain.scaled)),
            "items_per_s": (statistics.median(rates), len(rates)),
            "peak_rss_mb": (peak_rss_mb, 1),
        },
        "item": workload.item,
        "raw_wall_s": statistics.median(plain.raw),
        "speed": statistics.median(plain.factors),
    }
    if trace:
        table = spans.SpanTable(recorder)
        out.update(layer_metrics(workload, table, traced.results, traced.factors, setup_factor))
        out["overhead"] = statistics.median(traced.scaled) / statistics.median(plain.scaled)
        out["recorder"] = recorder
    return out


def layer_metrics(workload, table, traced_results, factors, setup_factor) -> dict:
    """Per-layer self times (scaled) and exact counts of a traced run."""
    runs = range(1, len(traced_results) + 1)
    timings = {
        f"{name}.self_s": statistics.median(table.self_time(name, r) * f for r, f in zip(runs, factors))
        for name in ITERATION_SELF_S
    }
    timings.update({f"{name}.self_s": table.self_time(name, 0) * setup_factor for name in SETUP_SELF_S})
    counts = {f"{name}.calls": table.calls(name, 1) for name in CALLS}
    counts.update({name: 0 for name in COUNTS})
    counts.update(workload.counts(traced_results[0], table, 1))
    return {"timings": timings, "counts": counts, "traced": len(traced_results)}


def report(name: str, seed: int, trace: bool, m: dict) -> dict:
    """Print the readable summary and return the JSON result."""
    gate = m["gate"]
    e2e = m["e2e"]
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  (times in reference-speed seconds)"]
    for metric, (value, n) in e2e.items():
        lines.append(f"  {metric:<16} {value:>14.6g} {END_TO_END[metric]:<5} median of {n}")
    rate, n = e2e["items_per_s"]
    lines.append(f"  {m['item']:<16} {rate:>14.6g} 1/s   median of {n}")
    lines.append(f"  {'fail_ratio':<16} {gate.fail_ratio:>14.6g} ratio {gate.failed}/{gate.attempted} checks")
    lines.append(f"  {'raw_wall_s':<16} {m['raw_wall_s']:>14.6g} s     unscaled, median of {n}")
    lines.append(f"  {'speed':<16} {m['speed']:>14.6g} ratio machine speed / reference speed, median")
    lines += [f"  FAILED {msg}" for msg in gate.messages]
    if trace:
        units = per_layer_units()
        lines.append(f"  per-layer timings, median over {m['traced']} traced iterations:")
        lines += [f"    {k:<40} {v:>14.6g} {units[k]}" for k, v in m["timings"].items()]
        lines.append("  per-layer counts, exact for a seed (first traced iteration):")
        lines += [f"    {k:<40} {v!r:>14} {units[k]}" for k, v in m["counts"].items()]
        lines.append(f"    {TRACE_OVERHEAD:<40} {m['overhead']:>14.6g} ratio  traced/untraced wall_s")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in {**m["timings"], **m["counts"]}.items()}
        metrics[TRACE_OVERHEAD] = {"value": m["overhead"], "unit": "ratio"}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in e2e.items()}
    print("\n".join(lines))
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "legendre_pairs"
    fixtures = ROOT / "tests" / "known_pairs.py"
    if not package.is_dir() or not fixtures.is_file():
        print(f"perfbench: run from a source checkout; {package} or {fixtures} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{os.getpid()}-", dir=OUT))
    tempfile.tempdir = str(work)  # keep the join's spill files inside the checkout
    try:
        m = measure(lambda: load(args.workload), args.seed, args.seconds, bool(args.trace), work)
        result = report(args.workload, args.seed, bool(args.trace), m)
        if args.trace:
            stem = f"{args.workload}-seed{args.seed}"
            m["recorder"].write(OUT / f"spans-{stem}.npz")
            (OUT / f"trace-{stem}.json").write_text(
                json.dumps({k: m[k] for k in ("counts", "timings", "overhead")}, indent=2) + "\n"
            )
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
