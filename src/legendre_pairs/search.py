"""Streaming union-of-orbits search with the two-stage PSD filter, hex
fingerprint records, and a bucketed join of candidates on their fingerprints.

A candidate is a union of orbits, and for s != 0 (mod l) its DFT is
2 * polarity * (sum over the chosen orbits O of the Gauss period
eta_O(s) = sum_{x in O} w^(s x)), because all l-th roots of unity sum to 0.
So the search sums precomputed per-orbit table rows over blocks of ranks and
compares the sums with the bound.  Stage 1 rejects candidates in exact
integer arithmetic from the lag-l/3 PSD value alone (when 3 | l); stage 2
tests the floating-point PSD bound at one lag per orbit-equivalence class of
lags.  Survivors are written as ``<rank> <fp1> <fp2>`` record lines; a true
Legendre pair appears as two records whose fingerprints match crosswise.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cache, lru_cache
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import ranking
from .nt import (
    OrbitDecomposition,
    Subgroup,
    orbit_decomposition,
    orbit_residues,
    representative_lags,
    third_psd_from_counts,
)
from .ranking import Composition
from .sequences import EPS, BinarySequence, psd, roots_of_unity
from .verify import LegendrePairResult, verify_pair


def fingerprint_lags(length: int) -> list[int]:
    """Lags covered by the fingerprint: 1..(l-1)/2 minus l/3 when 3 | l."""
    excluded = length // 3 if length % 3 == 0 else None
    return [k for k in range(1, (length - 1) // 2 + 1) if k != excluded]


_HEX_DIGITS = "0123456789abcdef"


def _fingerprint_digits(length: int, psd_values: Sequence[float]) -> tuple[str, str]:
    """Hex strings of the rounded PSD values and of their complements to
    2l+2, mod 16.  Rounds half up (values are never negative beyond float
    noise)."""
    bound = 2 * length + 2
    return (
        "".join(_HEX_DIGITS[math.floor(v + 0.5) % 16] for v in psd_values),
        "".join(_HEX_DIGITS[math.floor(bound - v + 0.5) % 16] for v in psd_values),
    )


def fingerprint(a: BinarySequence) -> tuple[str, str]:
    """Reference fingerprint of one sequence, from ``sequences.psd``."""
    return _fingerprint_digits(len(a), [psd(a, k) for k in fingerprint_lags(len(a))])


#: a canonical ASCII decimal: no sign, underscore or leading zero
_RANK = re.compile("0|[1-9][0-9]*")


@dataclass(frozen=True)
class CandidateRecord:
    rank: int
    fp1: str
    fp2: str

    def line(self) -> str:
        return f"{self.rank} {self.fp1} {self.fp2}\n"

    @classmethod
    def parse(cls, line: str) -> "CandidateRecord":
        parts = line.rstrip("\n").split(" ")
        if len(parts) != 3 or not _RANK.fullmatch(parts[0]):
            raise ValueError(f"malformed record line: {line!r}")
        return cls(int(parts[0]), parts[1], parts[2])


def _int_list(value, what: str) -> list[int]:
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return value


@dataclass(frozen=True)
class SearchPlan:
    """Everything needed to enumerate and filter one slice of a search space.
    An invalid plan raises ValueError when it is built."""

    length: int
    subgroup: tuple[int, ...]
    composition: Composition
    polarity: int
    rank_range: tuple[int, int] | None = None  # None = full space
    allowed_third_psd: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if type(self.length) is not int or self.length % 2 == 0:
            raise ValueError(f"length must be an odd integer, got {self.length!r}")
        decomp = orbit_decomposition(self.length, Subgroup(self.length, self.subgroup))
        object.__setattr__(self, "_decomposition", decomp)  # not a field: eq and hash skip it
        covered = ranking.coverage(self.composition)
        target = ranking.coverage_target(self.length, self.polarity)
        if covered != target:
            comp = ranking.format_composition(self.composition)
            raise ValueError(f"composition {comp} covers {covered} positions, need {target}")
        size = ranking.space_size(decomp, self.composition)
        if self.rank_range is not None:
            lo, hi = self.rank_range
            if not (type(lo) is type(hi) is int and 0 <= lo <= hi <= size):
                raise ValueError(f"rank range [{lo}, {hi}) outside space [0, {size})")
        if self.allowed_third_psd is not None and self.length % 3 != 0:
            raise ValueError("allowed_third_psd requires a length divisible by 3")

    @property
    def psd_bound(self) -> float:
        return 2 * self.length + 2 + EPS

    def decomposition(self) -> OrbitDecomposition:
        return self._decomposition

    def space_size(self) -> int:
        return ranking.space_size(self._decomposition, self.composition)

    def resolved_range(self) -> tuple[int, int]:
        return self.rank_range if self.rank_range is not None else (0, self.space_size())

    def decode(self, rank: int) -> BinarySequence:
        return ranking.rank_to_sequence(rank, self._decomposition, self.composition, self.polarity)

    def to_dict(self) -> dict:
        return {
            "length": self.length,
            "subgroup": list(self.subgroup),
            "composition": ranking.format_composition(self.composition),
            "polarity": ranking.format_polarity(self.polarity),
            "rank_range": None if self.rank_range is None else list(self.rank_range),
            "allowed_third_psd": None if self.allowed_third_psd is None else sorted(self.allowed_third_psd),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchPlan":
        """Inverse of ``to_dict``; ignores other keys, such as older files' ``eps``."""
        if not isinstance(data, dict):
            raise ValueError(f"a plan must be a JSON object, got {data!r}")
        for key in ("composition", "polarity"):
            if not isinstance(data[key], str):
                raise ValueError(f"plan {key} must be a string, got {data[key]!r}")
        rank_range, allowed = data.get("rank_range"), data.get("allowed_third_psd")
        return cls(
            length=data["length"],
            subgroup=tuple(_int_list(data["subgroup"], "plan subgroup")),
            composition=ranking.parse_composition(data["composition"]),
            polarity=ranking.parse_polarity(data["polarity"]),
            rank_range=None if rank_range is None else tuple(_int_list(rank_range, "plan rank_range")),
            allowed_third_psd=None if allowed is None else frozenset(_int_list(allowed, "plan allowed_third_psd")),
        )


@dataclass(slots=True)
class SearchStats:
    scanned: int = 0
    stage1_survivors: int = 0
    stage2_survivors: int = 0


@dataclass(frozen=True)
class GaussTables:
    """Per-orbit tables of one (length, subgroup, composition), rows in the
    order of ``ranking.composition_orbits``."""

    #: Gauss periods eta_O(s) at the representative lags
    representative: np.ndarray
    #: Gauss periods eta_O(s) at the fingerprint lags
    fingerprint: np.ndarray
    #: numbers of orbit elements = 0, 1, 2 (mod 3)
    residues: np.ndarray

    def __post_init__(self) -> None:
        # shared by every caller of the cache
        for table in (self.representative, self.fingerprint, self.residues):
            table.flags.writeable = False

    @staticmethod
    def sums(table: np.ndarray, chosen: np.ndarray) -> np.ndarray:
        """Row sums of ``table`` over each row of orbit positions in ``chosen``,
        one orbit column at a time."""
        acc = np.zeros((len(chosen), table.shape[1]), dtype=table.dtype)
        for column in chosen.T:
            acc += table[column]
        return acc

    @classmethod
    def psd(cls, table: np.ndarray, chosen: np.ndarray) -> np.ndarray:
        """PSD = 4 |sum of the chosen orbits' Gauss periods|^2 at the table's lags."""
        dft = cls.sums(table, chosen)
        return 4 * (dft.real * dft.real + dft.imag * dft.imag)


@lru_cache(maxsize=64)
def gauss_tables(length: int, subgroup: tuple[int, ...], composition: Composition) -> GaussTables:
    """The kernel's tables for one plan, built once and shared by its chunks."""
    decomp = orbit_decomposition(length, Subgroup(length, subgroup))
    orbits = ranking.composition_orbits(decomp, composition)
    w = roots_of_unity(length)

    def periods(lags: list[int]) -> np.ndarray:
        table = np.empty((len(orbits), len(lags)), dtype=complex)
        for row, orb in zip(table, orbits):
            row[:] = [sum(w[s * x % length] for x in orb) for s in lags]
        return table

    return GaussTables(
        periods(representative_lags(decomp)),
        periods(fingerprint_lags(length)),
        np.array([orbit_residues(orb) for orb in orbits], dtype=np.int64).reshape(len(orbits), 3),
    )


@lru_cache(maxsize=64)
def _stage1_verdicts(length: int, bound: float, allowed: frozenset[int] | None) -> np.ndarray:
    """Stage-1 verdict on every value the exact lag-l/3 PSD can take, which is
    at most 6 (l/3)^2: within the bound, and allowed."""
    m = length // 3
    verdicts = np.array([v <= bound and (allowed is None or v in allowed) for v in range(6 * m * m + 1)])
    verdicts.flags.writeable = False
    return verdicts


#: Ranks filtered together; a block also ends at every checkpoint.
BLOCK_SIZE = 4096
#: Ranks between two checkpoints.
CHECKPOINT_EVERY = 100_000


def run_search(
    plan: SearchPlan,
    sink: Callable[[CandidateRecord], None],
    checkpoint: Callable[[int], None] | None = None,
) -> SearchStats:
    """Scan the plan's rank range, filter, and emit survivor records.

    Deterministic: identical plans produce an identical record stream.
    ``checkpoint`` (if given) receives the last completed rank after every
    ``CHECKPOINT_EVERY`` ranks and once at the end.
    """
    every = CHECKPOINT_EVERY
    decomp = plan.decomposition()
    lo, hi = plan.resolved_range()
    stats = SearchStats()
    mod3 = plan.length % 3 == 0
    allowed = plan.allowed_third_psd
    if allowed is not None and not allowed:
        # stage 1 annihilates the whole range without any decoding
        stats.scanned = hi - lo
        if checkpoint and hi > lo:
            checkpoint(hi - 1)
        return stats

    tables = gauss_tables(plan.length, plan.subgroup, plan.composition)
    bound = plan.psd_bound
    verdicts = _stage1_verdicts(plan.length, bound, allowed) if mod3 else None
    rank = lo
    while rank < hi:
        count = min(hi - rank, BLOCK_SIZE, every - stats.scanned % every)
        chosen = np.array(list(ranking.lex_walk(rank, count, decomp, plan.composition)))
        if mod3:
            # stage 1: the verdict on the exact lag-l/3 value
            third = third_psd_from_counts(plan.length, [tables.sums(tables.residues, chosen).T])
            stage1 = np.flatnonzero(verdicts[third])
        else:
            stage1 = np.arange(count)
        # stage 2: the PSD bound at the representative lags
        passed = (tables.psd(tables.representative, chosen[stage1]) <= bound).all(axis=1)
        stage2 = stage1[passed]
        stats.stage1_survivors += len(stage1)
        stats.stage2_survivors += len(stage2)
        psd_values = tables.psd(tables.fingerprint, chosen[stage2]).tolist()
        for offset, values in zip(stage2.tolist(), psd_values):
            sink(CandidateRecord(rank + offset, *_fingerprint_digits(plan.length, values)))
        rank += count
        stats.scanned += count
        if checkpoint and (stats.scanned % every == 0 or rank == hi):
            checkpoint(rank - 1)
    return stats


def split_ranges(space_size: int, chunks: int) -> list[tuple[int, int]]:
    """Contiguous disjoint covering ranges with sizes differing by at most 1."""
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    base, extra = divmod(space_size, chunks)
    out = []
    lo = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        if size == 0:
            continue
        out.append((lo, lo + size))
        lo += size
    return out


@dataclass(frozen=True)
class MatchResult:
    plan_a: SearchPlan
    rank_a: int
    plan_b: SearchPlan
    rank_b: int
    pair: LegendrePairResult | None = None

    @property
    def verified(self) -> bool:
        return self.pair is not None


def _sorted_entries(
    record_sets: Sequence[tuple[SearchPlan, Iterable[CandidateRecord]]],
) -> Iterator[tuple[str, int, int, int]]:
    """Both sides of every record as sorted ``(fp, side, plan index, rank)``
    tuples, fp1 tagged 0 and fp2 tagged 1.  One pass writes them to temporary
    files by the fingerprint's leading byte; then each bucket in turn is
    sorted in memory.  Fingerprints of one width make prefix order the
    fingerprint order, so memory holds one bucket."""
    buckets = defaultdict(lambda: tempfile.TemporaryFile("w+"))
    try:
        for pi, (_, records) in enumerate(record_sets):
            for rec in records:
                for side, fp in enumerate((rec.fp1, rec.fp2)):
                    buckets[fp[:2]].write(f"{fp} {side} {pi} {rec.rank}\n")
        for prefix in sorted(buckets):
            with buckets[prefix] as f:
                f.seek(0)
                # split on " ": at l = 3 the fingerprints are empty
                rows = (line.split(" ") for line in f)
                entries = sorted((fp, int(side), int(pi), int(rank)) for fp, side, pi, rank in rows)
            yield from entries
    finally:
        for f in buckets.values():
            f.close()


def match_candidates(
    record_sets: Sequence[tuple[SearchPlan, Iterable[CandidateRecord]]],
) -> list[MatchResult]:
    """Bucketed join of records on fp1(x) = fp2(y), with exact re-verification.

    All record sets must come from plans of the same length (hence the same
    fingerprint width).  Each fingerprint group of ``_sorted_entries`` pairs
    its fp1 side with its fp2 side.  Each unordered candidate pair is
    reported once; hash collisions that fail the exact PAF check are kept
    unverified.
    """
    lengths = {plan.length for plan, _ in record_sets}
    if len(lengths) > 1:
        raise ValueError(f"record sets mix lengths {sorted(lengths)}")
    plans = [plan for plan, _ in record_sets]
    results = []
    seen = set()

    @cache
    def decode(pi: int, rank: int) -> BinarySequence:
        return plans[pi].decode(rank)

    for _, group in groupby(_sorted_entries(record_sets), key=itemgetter(0)):
        sides: tuple[list, list] = ([], [])
        for _, side, pi, rank in group:
            sides[side].append((pi, rank))
        for ka in sides[0]:
            for kb in sides[1]:
                pair_key = (ka, kb) if ka <= kb else (kb, ka)
                if pair_key in seen:
                    continue
                seen.add(pair_key)
                res = verify_pair(decode(*ka), decode(*kb))
                results.append(
                    MatchResult(plans[ka[0]], ka[1], plans[kb[0]], kb[1], res if res else None)
                )
    return results


# ---------------------------------------------------------------------------
# on-disk layout: one directory per plan holding plan.json, part-*.rec and
# part-*.ckpt checkpoint sidecars


def write_plan(directory: Path, plan: SearchPlan) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "plan.json").write_text(json.dumps(plan.to_dict(), indent=2) + "\n")


def read_plan(directory: Path) -> SearchPlan:
    return SearchPlan.from_dict(json.loads((directory / "plan.json").read_text()))


def _parse_record(path: Path, line: str) -> CandidateRecord:
    try:
        return CandidateRecord.parse(line)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_records(path: Path, plan: SearchPlan) -> Iterator[CandidateRecord]:
    """The records of one of the plan's record files, read lazily.  A line
    whose rank is not canonical or lies outside the plan's range, or whose
    fingerprints are not lowercase hex of the plan's width, raises a
    ValueError that names the file; so does a blank line."""
    lo, hi = plan.resolved_range()
    hex_fp = re.compile(f"[0-9a-f]{{{len(fingerprint_lags(plan.length))}}}")
    with open(path, errors="surrogateescape") as f:
        for line in f:
            rec = _parse_record(path, line)
            if not (hex_fp.fullmatch(rec.fp1) and hex_fp.fullmatch(rec.fp2) and lo <= rec.rank < hi):
                raise ValueError(f"{path}: malformed record {rec.line()!r}")
            yield rec


def _drop_records_after(path: Path, last: int) -> None:
    """Truncate a record file to its complete lines of rank <= ``last``: a
    buffer flushed after the last checkpoint, or a hard kill, leaves more."""
    keep = 0
    with open(path, "rb+") as f:
        for line in f:
            if not line.endswith(b"\n") or _parse_record(path, line.decode(errors="surrogateescape")).rank > last:
                break
            keep += len(line)
        f.truncate(keep)


def run_chunk(plan: SearchPlan, lo: int, hi: int, record_path: Path) -> SearchStats:
    """Run one worker chunk, writing records and a resumable checkpoint.

    If a checkpoint sidecar exists, the record file is cut back to the
    records it covers and the scan resumes after the last completed rank,
    appending to the record file.
    """
    ckpt = record_path.with_suffix(".ckpt")
    start = lo
    mode = "w"
    if ckpt.exists():
        last = int(ckpt.read_text().strip())
        _drop_records_after(record_path, last)
        start = max(lo, last + 1)
        mode = "a"
    if start >= hi:
        return SearchStats(scanned=0)
    chunk_plan = replace(plan, rank_range=(start, hi))
    with open(record_path, mode) as out:

        def sink(rec: CandidateRecord) -> None:
            out.write(rec.line())

        def checkpoint(rank: int) -> None:
            out.flush()
            tmp = ckpt.with_suffix(".ckpt.tmp")
            tmp.write_text(f"{rank}\n")
            os.replace(tmp, ckpt)

        return run_search(chunk_plan, sink, checkpoint)
