"""The three benchmark workloads and their correctness gates.

Each workload builds its inputs from the seed in ``setup``.  ``run`` is one
timed iteration and does nothing but call the program; ``summarize`` turns
its output into a compact result outside the timed region, and ``check``
gates that result after all timing is over.  Package functions are always
called through their module (``search.run_chunk``), so that a traced run
sees every call.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from legendre_pairs import nt, oracle, pipeline, ranking, search, sequences, verify

ROOT = Path(__file__).resolve().parent.parent


class Gate:
    """Counts correctness checks attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def search_counts(stats: list, record_files: list[Path], table, run_id: int) -> dict:
    """Exact per-stage counts of the search layer for one iteration."""
    scanned = sum(s.scanned for s in stats)
    stage1 = sum(s.stage1_survivors for s in stats)
    stage2 = sum(s.stage2_survivors for s in stats)
    lags = table.child_calls("sequences.psd", "search.run_chunk", run_id)
    return {
        "search.stage1.pass_ratio": stage1 / scanned,
        "search.stage2.pass_ratio": stage2 / stage1 if stage1 else 0.0,
        "search.stage2.lags_per_candidate": lags / stage1 if stage1 else 0.0,
        "search.records": stage2,
        "search.record_bytes": sum(p.stat().st_size for p in record_files),
    }


# ---------------------------------------------------------------------------
# slice-117: seeded rank windows of the l=117 Case (I) search space


@dataclass
class SliceResult:
    iteration: int
    directory: Path
    offsets: list[int]
    stats: list


class Slice117:
    """``run_chunk`` over many seeded rank windows of the l=117 Case (I) space.

    One iteration scans ``windows`` windows of ``window`` consecutive ranks.
    Window j of iteration i starts at a seeded point of the j-th of
    ``windows`` equal strata of the C(38,19)-rank space, so every iteration
    samples the whole space and iterations are alike.
    """

    name = "slice-117"
    item = "ranks_per_s"
    LENGTH = 117
    SUBGROUP = (1, 16, 22)
    COMPOSITION = "2x1+19x3"

    def __init__(self, window: int = 200, windows: int = 40, sample_every: int = 4) -> None:
        self.window = window
        self.windows = windows
        # the first window of every sample_every-th iteration is also rerun
        # and checked rank by rank
        self.sample_every = sample_every

    def setup(self, seed: int) -> None:
        self.seed = seed
        sub = nt.Subgroup(self.LENGTH, self.SUBGROUP)
        self.comp = ranking.parse_composition(self.COMPOSITION)
        self.decomp = nt.orbit_decomposition(self.LENGTH, sub)
        allowed = pipeline.third_psd_filter(
            self.LENGTH, sub, ranking.composition_counts(self.decomp, self.comp)
        )
        self.plan = search.SearchPlan(self.LENGTH, self.SUBGROUP, self.comp, 1, allowed_third_psd=allowed)
        self.space = self.plan.space_size()

    def offsets(self, i: int) -> list[int]:
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        stratum = (self.space - self.window) / self.windows
        return [int((j + rng.random()) * stratum) for j in range(self.windows)]

    def run(self, i: int, directory: Path) -> SliceResult:
        directory.mkdir(parents=True)
        offsets = self.offsets(i)
        stats = [
            search.run_chunk(self.plan, lo, lo + self.window, directory / f"w{j:04d}.rec")
            for j, lo in enumerate(offsets)
        ]
        return SliceResult(i, directory, offsets, stats)

    def summarize(self, i: int, directory: Path, result: SliceResult) -> SliceResult:
        return result

    def items(self, result: SliceResult) -> int:
        return sum(s.scanned for s in result.stats)

    def counts(self, result: SliceResult, table, run_id: int) -> dict:
        files = [result.directory / f"w{j:04d}.rec" for j in range(len(result.offsets))]
        return search_counts(result.stats, files, table, run_id)

    def reference_record(self, rank: int):
        """The record the search must emit for ``rank``, or None, from reference kernels."""
        seq = ranking.rank_to_sequence(rank, self.decomp, self.comp, self.plan.polarity)
        bound = self.plan.psd_bound
        third = sequences.psd_exact_third(seq)
        if third not in self.plan.allowed_third_psd or third > bound:
            return None
        # PSD(k) = PSD(l - k), so lags 1..(l-1)/2 are all of them
        half = (self.LENGTH - 1) // 2
        psd = [sequences.psd(seq, k) for k in range(1, half + 1)]
        if max(psd) > bound:
            return None
        # fingerprint: hex digit of each rounded PSD value and of its
        # complement to 2l+2, mod 16, at every lag but l/3
        lags = [k for k in range(1, half + 1) if 3 * k != self.LENGTH]
        fp1 = "".join(format(math.floor(psd[k - 1] + 0.5) % 16, "x") for k in lags)
        fp2 = "".join(format(math.floor(2 * self.LENGTH + 2 - psd[k - 1] + 0.5) % 16, "x") for k in lags)
        return search.CandidateRecord(rank, fp1, fp2)

    def check(self, result: SliceResult, gate: Gate) -> None:
        for j, (lo, stats) in enumerate(zip(result.offsets, result.stats)):
            hi = lo + self.window
            path = result.directory / f"w{j:04d}.rec"
            where = f"{self.name} {path.name} [{lo}, {hi})"
            gate.expect(stats.scanned == self.window, f"{where}: scanned {stats.scanned}")
            lines = path.read_text().splitlines(keepends=True)
            try:
                records = [search.CandidateRecord.parse(line) for line in lines]
            except ValueError as exc:
                gate.expect(False, f"{where}: {exc}")
                continue
            ranks = [r.rank for r in records]
            gate.expect(len(records) == stats.stage2_survivors, f"{where}: {len(records)} records")
            gate.expect(
                ranks == sorted(set(ranks)) and all(lo <= r < hi for r in ranks),
                f"{where}: ranks out of order or out of range",
            )
            for rec in records:
                gate.expect(self.reference_record(rec.rank) == rec, f"{where}: record {rec.line()!r}")
            if j or result.iteration % self.sample_every:
                continue
            # a rerun of the window's first half reproduces its records byte for byte
            mid = lo + self.window // 2
            prefix = path.with_suffix(".prefix.rec")
            search.run_chunk(self.plan, lo, mid, prefix)
            expected = "".join(line for line, r in zip(lines, ranks) if r < mid)
            gate.expect(prefix.read_text() == expected, f"{where}: prefix rerun differs")
            # every rank of the window is recorded exactly when the reference keeps it
            recorded = set(ranks)
            for rank in range(lo, hi):
                kept = self.reference_record(rank) is not None
                gate.expect(kept == (rank in recorded), f"{where}: rank {rank} kept={kept}")


# ---------------------------------------------------------------------------
# sweep-15: the full l=15 pipeline, dense in pairs


@dataclass
class SweepResult:
    directory: Path
    stats: list
    pairs: int
    distinct_pairs: int
    pairs_digest: str
    candidates: int
    false_candidates: int


def pair_key(a, b) -> tuple:
    """Order-free key of an unordered pair of sequence entry tuples."""
    return tuple(sorted({tuple(a), tuple(b)}))


def digest(keys) -> str:
    """Digest of a set of pair keys, independent of their order."""
    h = hashlib.sha256()
    for key in sorted(set(keys)):
        h.update(repr(key).encode())
    return h.hexdigest()


class Sweep15:
    """``build_plans`` plus ``run_pipeline`` over the whole l=15 space.

    The seed does not change the inputs: the full sweep is one fixed input.
    """

    name = "sweep-15"
    item = "pairs_per_s"

    def __init__(self, length: int = 15) -> None:
        self.length = length

    def setup(self, seed: int) -> None:
        self.plans = pipeline.build_plans(self.length, nt.Subgroup(self.length, (1,)))

    def run(self, i: int, directory: Path):
        return pipeline.run_pipeline(directory, self.plans)

    def summarize(self, i: int, directory: Path, res) -> SweepResult:
        keys = [pair_key(p.a.entries, p.b.entries) for p in res.pairs]
        return SweepResult(
            directory, res.stats, len(keys), len(set(keys)), digest(keys),
            len(res.matches), res.false_candidates,
        )

    def items(self, result: SweepResult) -> int:
        return result.pairs

    def counts(self, result: SweepResult, table, run_id: int) -> dict:
        files = sorted(result.directory.glob("plan-*/part-*.rec"))
        out = search_counts(result.stats, files, table, run_id)
        out["search.match.candidates"] = result.candidates
        out["search.match.verified_ratio"] = result.pairs / result.candidates
        out["pipeline.pairs_json_bytes"] = (result.directory / "pairs.json").stat().st_size
        return out

    def check(self, result: SweepResult, gate: Gate) -> None:
        if not hasattr(self, "_oracle"):
            self._oracle = {tuple(sorted(p)) for p in oracle.brute_force_pairs(self.length)}
        expected = self._oracle
        gate.expect(
            sum(s.scanned for s in result.stats) == sum(p.space_size() for p in self.plans),
            f"{self.name}: scanned count differs from the space size",
        )
        gate.expect(result.false_candidates == 0, f"{self.name}: {result.false_candidates} false candidates")
        gate.expect(result.pairs_digest == digest(expected), f"{self.name}: pairs differ from the oracle")
        gate.expect(
            result.pairs == result.distinct_pairs == len(expected),
            f"{self.name}: {result.pairs} pairs, {result.distinct_pairs} distinct, oracle {len(expected)}",
        )
        # pairs.json decodes to exactly the oracle's pairs
        records = json.loads((result.directory / "pairs.json").read_text())
        decomp = nt.orbit_decomposition(self.length, nt.Subgroup(self.length, (1,)))
        decoded = {}

        def seq(indices: list[int], polarity: str) -> tuple[int, ...]:
            key = (tuple(indices), polarity)
            if key not in decoded:
                sel = ranking.indices_to_selection(decomp, indices, 1 if polarity == "plus" else -1)
                decoded[key] = ranking.decode_selection(sel).entries
            return decoded[key]

        found = [pair_key(seq(r["I_A"], r["polarity_a"]), seq(r["I_B"], r["polarity_b"])) for r in records]
        gate.expect(len(found) == len(expected), f"{self.name}: pairs.json holds {len(found)} pairs")
        gate.expect(set(found) == expected, f"{self.name}: pairs.json differs from the oracle")


# ---------------------------------------------------------------------------
# certify-published: decode, verify and certify every published pair


def matrix_digest(h: np.ndarray) -> str:
    return hashlib.sha256(h.astype(np.int8).tobytes()).hexdigest()


def load_known_pairs():
    path = ROOT / "tests" / "known_pairs.py"
    spec = importlib.util.spec_from_file_location("known_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Published:
    label: str
    length: int
    subgroup: tuple[int, ...]
    composition: str | None  # None: the pair is given as index sets
    sides: tuple  # two index sets, or two ranks
    polarity: int
    psd_third: tuple[int, int] | None  # exact lag-l/3 PSD values, sorted
    psd_19: tuple[int, int] | None  # compression-certificate PSD values at lags 19k


@dataclass
class CertifyResult:
    psd_third: list
    certificates: list
    matrices: list  # Hadamard matrices (first pass) or their digests
    variants: list
    images: list  # verification outcome of every image pair
    classes: list  # (structure, complete, members, published labels) per class
    verified: int


class CertifyPublished:
    """Verify, certify and build Hadamard matrices for all 21 published pairs.

    The ten l=117 pairs also get shift/revert images on each side, chosen by
    the seed, and the pairs with their images are reduced to symmetry classes.
    """

    name = "certify-published"
    item = "pairs_per_s"
    EXPECTED_CLASSES = 9  # published l=117 pairs 4 and 6 are one class

    def setup(self, seed: int) -> None:
        kp = load_known_pairs()
        self.pairs = (
            [Published(f"117/{i + 1}", 117, kp.SUBGROUP_117, None, p, 1, (64, 172), None)
             for i, p in enumerate(kp.PAIRS_117)]
            + [Published(f"129/{i + 1}", 129, kp.SUBGROUP_129, None, p, 1, (112, 148), None)
               for i, p in enumerate(kp.PAIRS_129)]
            + [Published("147/1", 147, kp.SUBGROUP_147, None, kp.PAIR_147_INDEX_SETS, 1, (148, 148), None)]
            + [Published(f"147/{i + 2}", 147, kp.SUBGROUP_147, kp.COMPOSITION_147, p, 1, (4, 292), None)
               for i, p in enumerate(kp.RANKS_147_LOW_HIGH)]
            + [Published(f"133/{i + 1}", 133, kp.SUBGROUP_133, kp.COMPOSITION_133, p, -1, None, psd)
               for i, (p, psd) in enumerate(zip(kp.RANKS_133, kp.PSD_19_133))]
        )
        self.decomps = {
            (p.length, p.subgroup): nt.orbit_decomposition(p.length, nt.Subgroup(p.length, p.subgroup))
            for p in self.pairs
        }
        rng = random.Random(f"{self.name}:{seed}")
        self.images = [
            (rng.randrange(1, p.length), rng.random() < 0.5, rng.randrange(1, p.length), rng.random() < 0.5)
            for p in self.pairs
            if p.length == 117
        ]

    def decode(self, p: Published):
        decomp = self.decomps[(p.length, p.subgroup)]
        if p.composition is None:
            return [
                ranking.decode_selection(ranking.indices_to_selection(decomp, sorted(s), p.polarity))
                for s in p.sides
            ]
        comp = ranking.parse_composition(p.composition)
        return [ranking.rank_to_sequence(r, decomp, comp, p.polarity) for r in p.sides]

    def run(self, i: int, directory: Path) -> tuple:
        results = [verify.verify_pair(*self.decode(p)) for p in self.pairs]
        certificates = [
            verify.compression_certificate(r.a, r.b, 19) if r and p.psd_19 else None
            for p, r in zip(self.pairs, results)
        ]
        hadamard = [verify.hadamard_from_pair(r) if r else None for r in results]
        base = [r for p, r in zip(self.pairs, results) if p.length == 117 and r]
        images = []
        for r, (shift_a, rev_a, shift_b, rev_b) in zip(base, self.images):
            image_a = sequences.apply_symmetry(r.a, shift_a, rev_a)
            image_b = sequences.apply_symmetry(r.b, shift_b, rev_b)
            images += [
                verify.verify_pair(image_a, r.b),
                verify.verify_pair(r.a, image_b),
                verify.verify_pair(image_a, image_b),
            ]
        classes = verify.symmetry_reduce(base + [m for m in images if m])
        return results, certificates, hadamard, images, classes

    def summarize(self, i: int, directory: Path, output: tuple) -> CertifyResult:
        results, certificates, hadamard, images, classes = output
        labels = {pair_key(r.a.entries, r.b.entries): p.label for p, r in zip(self.pairs, results) if r}
        return CertifyResult(
            psd_third=[tuple(sorted(r.psd_third)) if r and r.psd_third else None for r in results],
            certificates=[
                (c.predicted_psd_a, c.predicted_psd_b, c.lags) if c else None for c in certificates
            ],
            # the first pass keeps its matrices for the exact check, later
            # passes only a digest to compare with them
            matrices=[
                None if h is None else (h[0].astype(np.int8) if i == 0 else matrix_digest(h[0]))
                for h in hadamard
            ],
            variants=[None if h is None else h[1] for h in hadamard],
            images=[bool(m) for m in images],
            classes=[
                (c.structure, c.complete_bipartite, len(c.pairs),
                 sorted(labels[k] for k in (pair_key(a.entries, b.entries) for a, b in c.pairs) if k in labels))
                for c in classes
            ],
            verified=sum(1 for r in results if r) + sum(1 for m in images if m),
        )

    def items(self, result: CertifyResult) -> int:
        return result.verified

    def counts(self, result: CertifyResult, table, run_id: int) -> dict:
        variants = [v for v in result.variants if v is not None]
        return {"verify.hadamard.variants_per_pair": sum(v + 1 for v in variants) / len(variants)}

    def check(self, result: CertifyResult, gate: Gate) -> None:
        n117 = sum(1 for p in self.pairs if p.length == 117)
        gate.expect(len(result.psd_third) == len(self.pairs), f"{self.name}: {len(result.psd_third)} pairs")
        for p, third, cert in zip(self.pairs, result.psd_third, result.certificates):
            if p.psd_third is not None:
                gate.expect(third == p.psd_third, f"{self.name} {p.label}: psd_third {third}")
            else:
                gate.expect(
                    cert is not None and cert[:2] == p.psd_19 and cert[2] == (19, 38, 57),
                    f"{self.name} {p.label}: certificate {cert}",
                )
        if any(isinstance(h, np.ndarray) for h in result.matrices):
            self._digests = [None if h is None else matrix_digest(h) for h in result.matrices]
            for p, h in zip(self.pairs, result.matrices):
                order = 2 * p.length + 2
                h = None if h is None else h.astype(np.int64)
                gate.expect(
                    h is not None
                    and h.shape == (order, order)
                    and bool(np.all(np.abs(h) == 1))
                    and np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64)),
                    f"{self.name} {p.label}: no orthogonal Hadamard matrix",
                )
        else:
            for p, h, ref in zip(self.pairs, result.matrices, self._digests):
                gate.expect(h is not None and h == ref, f"{self.name} {p.label}: Hadamard matrix differs")
        gate.expect(
            len(result.images) == 3 * n117 and all(result.images),
            f"{self.name}: image pairs fail verification",
        )
        gate.expect(len(result.classes) == self.EXPECTED_CLASSES, f"{self.name}: {len(result.classes)} classes")
        for structure, complete, size, labels in result.classes:
            if len(labels) == 1:
                ok = structure == "K_{2,2}" and complete and size == 4
            else:
                ok = labels == ["117/4", "117/6"] and size == 8
            gate.expect(ok, f"{self.name}: class of {labels} is {structure} with {size} pairs")


WORKLOADS = {w.name: w for w in (Slice117, Sweep15, CertifyPublished)}
