"""End-to-end orchestration: plan construction, worker fan-out over rank
ranges, record matching, exact verification, and the pairs.json codec.

A run directory holds one subdirectory per plan (a composition/polarity
combination), each with its plan.json, per-worker record files and
checkpoint sidecars; matching joins records across all plans of the run.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from . import ranking
from .nt import (
    Subgroup,
    orbit_decomposition,
    orbit_psd_values,
    spectrum_mod3,
)
from .ranking import Composition
from .search import (
    CandidateRecord,
    MatchResult,
    SearchPlan,
    SearchStats,
    _int_list,
    match_candidates,
    read_plan,
    read_records,
    run_chunk,
    split_ranges,
    write_plan,
)
from .sequences import BinarySequence
from .verify import LegendrePairResult


def third_psd_filter(
    length: int, subgroup: Subgroup, counts: tuple[int, ...]
) -> frozenset[int] | None:
    """Sound stage-1 filter set for one plan, or None when 3 does not divide l.

    A sequence of a true pair has its exact lag-l/3 PSD value both in the
    spectrum (as one component of some admissible pair) and among the values
    achievable with the plan's orbit counts, so the intersection never drops
    a true pair.
    """
    if length % 3 != 0:
        return None
    components = {v for e in spectrum_mod3(length) for v in e.psd_pair}
    achievable = orbit_psd_values(orbit_decomposition(length, subgroup), counts)
    return frozenset(components.intersection(achievable))


def build_plans(
    length: int,
    subgroup: Subgroup,
    compositions: list[Composition] | None = None,
    polarities: tuple[int, ...] = (1, -1),
) -> list[SearchPlan]:
    """Plans for the given compositions, or a full sweep when none are given.
    A given composition that fits none of the polarities raises ValueError."""
    decomp = orbit_decomposition(length, subgroup)
    targets = [ranking.coverage_target(length, polarity) for polarity in polarities]
    for comp in compositions or []:
        if ranking.coverage(comp) not in targets:
            text, need = ranking.format_composition(comp), " or ".join(map(str, targets))
            raise ValueError(f"composition {text} covers {ranking.coverage(comp)} positions, need {need}")
    plans = []
    for polarity, target in zip(polarities, targets):
        if compositions is None:
            comps = ranking.compositions_for(decomp, polarity)
        else:
            comps = [c for c in compositions if ranking.coverage(c) == target]
        for comp in comps:
            counts = ranking.composition_counts(decomp, comp)
            plans.append(
                SearchPlan(
                    length=length,
                    subgroup=subgroup.elements,
                    composition=comp,
                    polarity=polarity,
                    allowed_third_psd=third_psd_filter(length, subgroup, counts),
                )
            )
    return plans


@dataclass
class PipelineResult:
    stats: list[SearchStats]
    matches: list[MatchResult]

    @property
    def pairs(self) -> list[LegendrePairResult]:
        return [m.pair for m in self.matches if m.verified]

    @property
    def false_candidates(self) -> int:
        return sum(1 for m in self.matches if not m.verified)


def run_plan_workers(plan: SearchPlan, directory: Path, workers: int = 1) -> list[SearchStats]:
    """Run one plan's rank range split into parts, one record file each, on at
    most ``workers`` processes.  A fresh directory gets ``workers`` parts; a
    rerun keeps the number of part files the directory holds, so it resumes
    their checkpoints.  A directory whose plan.json holds another plan raises
    ValueError: its records and checkpoints belong to that plan."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if (directory / "plan.json").exists() and read_plan(directory) != plan:
        raise ValueError(f"{directory} holds the records of another plan")
    write_plan(directory, plan)
    lo, hi = plan.resolved_range()
    parts = len(list(directory.glob("part-*.rec"))) or workers
    jobs = [
        (plan, lo + rlo, lo + rhi, directory / f"part-{i:04d}.rec")
        for i, (rlo, rhi) in enumerate(split_ranges(hi - lo, parts))
    ]
    # every part file exists before any chunk runs, so a rerun sees the split
    for *_, path in jobs:
        path.touch()
    pool_size = min(workers, len(jobs))
    if pool_size <= 1:
        return [run_chunk(*job) for job in jobs]
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        futures = [pool.submit(run_chunk, *job) for job in jobs]
        return [f.result() for f in futures]


def load_record_sets(
    record_files: Iterable[Path],
) -> list[tuple[SearchPlan, Iterator[CandidateRecord]]]:
    """Record sets for ``match_candidates``: one per plan directory, with the
    records of its files read lazily and checked by ``read_records``."""
    by_plan_dir: dict[Path, list[Path]] = {}
    for path in record_files:
        by_plan_dir.setdefault(path.parent, []).append(path)
    record_sets = []
    for plan_dir, paths in sorted(by_plan_dir.items()):
        plan = read_plan(plan_dir)
        # each reader opens its file at its first record, so one file is open at a time
        record_sets.append((plan, chain(*[read_records(path, plan) for path in sorted(paths)])))
    return record_sets


def write_pairs(path: Path, matches: list[MatchResult]) -> None:
    """Write the verified pairs as JSON records.  Each (plan, rank) side is
    unranked and formatted once per call, however many pairs share it."""

    @cache
    def side(plan: SearchPlan, rank: int) -> tuple[list[int], str, str]:
        sel = ranking.rank_to_selection(rank, plan.decomposition(), plan.composition, plan.polarity)
        return (
            list(sel.chosen),
            ranking.format_composition(plan.composition),
            ranking.format_polarity(plan.polarity),
        )

    records = []
    for m in matches:
        if not m.verified:
            continue
        i_a, composition_a, polarity_a = side(m.plan_a, m.rank_a)
        i_b, composition_b, polarity_b = side(m.plan_b, m.rank_b)
        records.append(
            {
                "l": m.plan_a.length,
                "subgroup": list(m.plan_a.subgroup),
                "I_A": i_a,
                "I_B": i_b,
                "rank_a": m.rank_a,
                "rank_b": m.rank_b,
                "psd_third": list(m.pair.psd_third) if m.pair.psd_third else None,
                "composition_a": composition_a,
                "composition_b": composition_b,
                "polarity_a": polarity_a,
                "polarity_b": polarity_b,
            }
        )
    with open(path, "w") as f:
        json.dump(records, f, indent=2)
        f.write("\n")


def read_pairs(path: Path) -> list[tuple[BinarySequence, BinarySequence]]:
    """The (a, b) sequences of a pairs file written by ``write_pairs``.  A
    record without ``polarity_a``/``polarity_b`` decodes that side as plus.
    A top level that is not a list, a record that is not an object, an ``l``
    that is not an integer, or a ``subgroup``, ``I_A`` or ``I_B`` that is not
    a list of integers raises ValueError."""
    records = json.loads(path.read_text())
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a list of pair records")
    pairs = []
    for i, rec in enumerate(records):
        where = f"{path}: pair {i}"
        if not isinstance(rec, dict):
            raise ValueError(f"{where} is not an object")
        length = rec["l"]
        if type(length) is not int:
            raise ValueError(f"{where}: l must be an integer, got {length!r}")
        subgroup = Subgroup(length, tuple(_int_list(rec["subgroup"], f"{where}: subgroup")))
        decomp = orbit_decomposition(length, subgroup)

        def side(indices: str, polarity: str) -> BinarySequence:
            chosen = _int_list(rec[indices], f"{where}: {indices}")
            polarity_value = ranking.parse_polarity(rec.get(polarity, "plus"))
            return ranking.decode_selection(ranking.indices_to_selection(decomp, chosen, polarity_value))

        pairs.append((side("I_A", "polarity_a"), side("I_B", "polarity_b")))
    return pairs


def run_pipeline(run_dir: Path, plans: list[SearchPlan], workers: int = 1) -> PipelineResult:
    """Search every plan, then match the records of these plans alone,
    verify and write pairs.json."""
    run_dir.mkdir(parents=True, exist_ok=True)
    plan_dirs = [run_dir / f"plan-{i:03d}" for i in range(len(plans))]
    stats = []
    for plan, plan_dir in zip(plans, plan_dirs):
        stats.extend(run_plan_workers(plan, plan_dir, workers))
    matches = match_candidates(load_record_sets(chain(*[d.glob("part-*.rec") for d in plan_dirs])))
    write_pairs(run_dir / "pairs.json", matches)
    return PipelineResult(stats, matches)
