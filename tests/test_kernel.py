"""Differential tests of the Gauss-period search kernel against the reference
kernels: ``ranking.rank_to_sequence``, ``sequences.psd`` and ``fingerprint``."""

from dataclasses import replace
from math import comb
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from legendre_pairs import nt, ranking, search, sequences
from legendre_pairs.pipeline import build_plans
from legendre_pairs.search import CandidateRecord, SearchStats, fingerprint, run_search


#: the paper's Case (I) subgroup, and H = {1}, whose ranks exceed 2^63
LONG = [(117, (1, 16, 22)), (117, (1,))]


def _short_cases() -> list[tuple[int, tuple[int, ...]]]:
    """(l, H) with at least one orbit-closed candidate: lengths with and
    without 3 | l, subgroups with elements = 2 (mod 3), several size classes."""
    cases = []
    for length in (7, 9, 11, 13, 15, 21, 25, 27, 33, 35, 39):
        for order in (1, 2, 3, 4, 6):
            for sub in nt.subgroups_of_order(length, order):
                decomp = nt.orbit_decomposition(length, sub)
                if any(ranking.compositions_for(decomp, p) for p in (1, -1)):
                    cases.append((length, sub.elements))
    return cases


SHORT = _short_cases()
MAX_WINDOW = 60


@st.composite
def windows(draw):
    """A plan restricted to a rank window: anywhere in the space, at its end,
    or across a carry out of the last size-class digit."""
    length, elements = draw(st.sampled_from(LONG) | st.sampled_from(SHORT))
    sub = nt.Subgroup(length, elements)
    decomp = nt.orbit_decomposition(length, sub)
    polarity = draw(st.sampled_from([p for p in (1, -1) if ranking.compositions_for(decomp, p)]))
    comp = draw(st.sampled_from(ranking.compositions_for(decomp, polarity)))
    [plan] = build_plans(length, sub, [comp], (polarity,))
    if not draw(st.booleans()):
        plan = replace(plan, allowed_third_psd=None)
    size = plan.space_size()
    count = draw(st.integers(1, min(size, MAX_WINDOW)))
    where = draw(st.sampled_from(["anywhere", "end", "carry"]))
    if where == "end":
        lo = size - count
    elif where == "carry":
        size_last, count_last = comp[-1]
        radix = comb(decomp.size_counts.get(size_last, 0), count_last)
        lo = radix * draw(st.integers(1, max(1, size // radix))) - draw(st.integers(1, count))
        lo = min(max(lo, 0), size - count)
    else:
        lo = draw(st.integers(0, size - count))
    return replace(plan, rank_range=(lo, lo + count))


def reference_search(plan) -> tuple[list[CandidateRecord], SearchStats]:
    """The records and stats of ``plan`` from the reference kernels, rank by rank."""
    decomp = plan.decomposition()
    lo, hi = plan.resolved_range()
    bound = plan.psd_bound
    half = (plan.length - 1) // 2
    records, stats = [], SearchStats(scanned=hi - lo)
    for rank in range(lo, hi):
        seq = ranking.rank_to_sequence(rank, decomp, plan.composition, plan.polarity)
        if plan.length % 3 == 0:
            third = sequences.psd_exact_third(seq)
            allowed = plan.allowed_third_psd
            if third > bound or (allowed is not None and third not in allowed):
                continue
        stats.stage1_survivors += 1
        # PSD(k) = PSD(l - k), so lags 1..(l-1)/2 are all of them
        if any(sequences.psd(seq, k) > bound for k in range(1, half + 1)):
            continue
        stats.stage2_survivors += 1
        records.append(CandidateRecord(rank, *fingerprint(seq)))
    return records, stats


@settings(max_examples=80, deadline=None)
@given(plan=windows(), block=st.integers(1, 64), checkpoint_every=st.integers(1, 100))
def test_kernel_equals_reference(plan, block, checkpoint_every):
    records, log = [], []
    with mock.patch.object(search, "BLOCK_SIZE", block), \
            mock.patch.object(search, "CHECKPOINT_EVERY", checkpoint_every):
        stats = run_search(plan, records.append, log.append)
    assert (records, stats) == reference_search(plan)
    lo, hi = plan.resolved_range()
    if plan.allowed_third_psd == frozenset():
        # stage 1 rejects every rank: the range is skipped with one checkpoint
        assert log == [hi - 1]
    else:
        assert log == [r for r in range(lo, hi) if (r - lo + 1) % checkpoint_every == 0 or r == hi - 1]


@settings(max_examples=60, deadline=None)
@given(plan=windows())
def test_kernel_psd_matches_reference(plan):
    decomp = plan.decomposition()
    lo, hi = plan.resolved_range()
    tables = search.gauss_tables(plan.length, plan.subgroup, plan.composition)
    chosen = np.array(list(ranking.lex_walk(lo, hi - lo, decomp, plan.composition)))
    for table, lags in (
        (tables.representative, nt.representative_lags(decomp)),
        (tables.fingerprint, search.fingerprint_lags(plan.length)),
    ):
        kernel = tables.psd(table, chosen)
        for rank, row in zip(range(lo, hi), kernel):
            seq = ranking.rank_to_sequence(rank, decomp, plan.composition, plan.polarity)
            assert np.abs(row - [sequences.psd(seq, k) for k in lags]).max(initial=0) < 1e-9


@settings(max_examples=100, deadline=None)
@given(plan=windows())
def test_lex_walk_equals_rank_to_selection(plan):
    decomp = plan.decomposition()
    lo, hi = plan.resolved_range()
    orbits = ranking.composition_orbits(decomp, plan.composition)
    walked = [
        tuple(sorted(orbits[p][0] for p in positions))
        for positions in ranking.lex_walk(lo, hi - lo, decomp, plan.composition)
    ]
    expected = [
        ranking.rank_to_selection(r, decomp, plan.composition, plan.polarity).chosen
        for r in range(lo, hi)
    ]
    assert walked == expected
