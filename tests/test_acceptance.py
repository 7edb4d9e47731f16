"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 10's full exhaustive searches (hundreds of CPU hours) are provided
as opt-in jobs marked ``slow`` and excluded from the default run; the
deterministic smoke slice runs here.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from legendre_pairs.nt import (
    Subgroup,
    admissible_psd_pairs,
    orbit_decomposition,
    orbit_psd_values,
    spectrum_candidates,
    spectrum_mod3,
    subgroups_of_order,
)
from legendre_pairs.oracle import brute_force_pairs
from legendre_pairs.pipeline import build_plans, run_pipeline, third_psd_filter
from legendre_pairs.ranking import composition_counts, parse_composition, subset_rank, subset_unrank
from legendre_pairs.search import SearchPlan, read_records, run_chunk
from legendre_pairs.sequences import (
    EPS,
    BinarySequence,
    apply_symmetry,
    compress,
    paf,
    psd,
    psd_exact_third,
)
from legendre_pairs.verify import compression_certificate, hadamard_from_pair, symmetry_reduce, verify_pair

import known_pairs as kp
from helpers import decode_indices, decode_rank, decomp_for


@contextmanager
def criterion(capsys, number: int, description: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:2d}: FAIL  {description}")
        raise
    with capsys.disabled():
        print(f"criterion {number:2d}: PASS  {description}")


def test_criterion_01_spectrum_tables(capsys):
    with criterion(capsys, 1, "spectrum tables for 117/129/147 with witnesses"):
        t0 = time.perf_counter()
        assert [e.psd_pair for e in spectrum_mod3(117)] == [
            (28, 208), (64, 172), (112, 124),
        ]
        rows = {r.psd_pair: r for r in spectrum_candidates(117)}
        # discarded row
        assert not rows[(4, 232)].admissible
        assert rows[(4, 232)].triples_a == ((1, 1, 1),)
        assert rows[(4, 232)].triples_b == ((3, 5, 11), (5, 7, 9))
        # surviving rows: witness triples and compatible assignments
        assert rows[(28, 208)].triples_a == ((1, 3, 3),)
        assert rows[(28, 208)].triples_b == ((3, 3, 11), (3, 7, 9))
        assert (1, -3, 3) in rows[(28, 208)].witnesses_a
        assert (3, 7, -9) in rows[(28, 208)].witnesses_b
        assert rows[(64, 172)].triples_a == ((3, 3, 5),)
        assert rows[(64, 172)].triples_b == ((3, 5, 9),)
        assert (3, 3, -5) in rows[(64, 172)].witnesses_a
        assert (-3, -5, 9) in rows[(64, 172)].witnesses_b
        assert rows[(112, 124)].triples_a == ((1, 5, 7), (5, 5, 5))
        assert rows[(112, 124)].triples_b == ((1, 1, 9), (3, 5, 7))
        assert (-1, -5, 7) in rows[(112, 124)].witnesses_a
        assert (3, 5, -7) in rows[(112, 124)].witnesses_b
        t117 = time.perf_counter() - t0

        t0 = time.perf_counter()
        assert [e.psd_pair for e in spectrum_mod3(129)] == [
            (4, 256), (16, 244), (52, 208), (64, 196), (112, 148),
        ]
        t129 = time.perf_counter() - t0

        t0 = time.perf_counter()
        assert [e.psd_pair for e in spectrum_mod3(147)] == [
            (4, 292), (28, 268), (52, 244), (100, 196), (124, 172), (148, 148),
        ]
        t147 = time.perf_counter() - t0
        assert max(t117, t129, t147) < 1.0


def test_criterion_02_orbit_psd_values(capsys):
    with criterion(capsys, 2, "orbit-compatible PSD values for 117/129/147"):
        t0 = time.perf_counter()
        decomp117 = decomp_for(117, kp.SUBGROUP_117)
        values = orbit_psd_values(decomp117, (2, 19))
        assert {28, 64, 100, 172, 208, 244, 316, 388, 496} <= set(values)
        assert max(values) == 4564
        assert 112 not in values
        values_minus = orbit_psd_values(decomp117, (1, 19))
        assert 112 not in values_minus

        decomp129 = decomp_for(129, kp.SUBGROUP_129)
        assert orbit_psd_values(decomp129, (2, 21))[:8] == [
            4, 76, 112, 148, 256, 292, 364, 400,
        ]

        pairs147 = [
            e.psd_pair
            for e in admissible_psd_pairs(147, Subgroup(147, kp.SUBGROUP_147), (2, 24))
        ]
        assert pairs147 == [(4, 292), (148, 148)]
        assert time.perf_counter() - t0 < 10.0


def test_criterion_03_subgroups(capsys):
    with criterion(capsys, 3, "subgroup listings for 117/129/147/133 and 87"):
        assert [g.elements for g in subgroups_of_order(117, 3)] == [
            (1, 16, 22), (1, 40, 79), (1, 55, 100), (1, 61, 94),
        ]
        assert [g.elements for g in subgroups_of_order(129, 3)] == [(1, 49, 79)]
        assert [g.elements for g in subgroups_of_order(147, 3)] == [(1, 67, 79)]
        assert (1, 11, 121) in [g.elements for g in subgroups_of_order(133, 3)]
        assert [g.elements for g in subgroups_of_order(87, 7)] == [
            kp.SUBGROUP_87_ORDER_7
        ]
        assert [g.elements for g in subgroups_of_order(87, 2)] == kp.SUBGROUPS_87_ORDER_2
        order4 = {g.elements for g in subgroups_of_order(87, 4)}
        assert set(kp.SUBGROUPS_87_ORDER_4) <= order4
        # any further order-4 subgroup is the non-cyclic one, which the
        # published listing does not count
        for extra in order4 - set(kp.SUBGROUPS_87_ORDER_4):
            assert all(x * x % 87 == 1 for x in extra)


def test_criterion_04_published_pair_regression(capsys):
    with criterion(capsys, 4, "all published pairs decode and verify"):
        t0 = time.perf_counter()
        for ia, ib in kp.PAIRS_117:
            a = decode_indices(117, kp.SUBGROUP_117, ia)
            b = decode_indices(117, kp.SUBGROUP_117, ib)
            result = verify_pair(a, b)
            assert result and result.psd_third == (64, 172)
        for ia, ib in kp.PAIRS_129:
            a = decode_indices(129, kp.SUBGROUP_129, ia)
            b = decode_indices(129, kp.SUBGROUP_129, ib)
            result = verify_pair(a, b)
            assert result and result.psd_third == (148, 112)
        a = decode_indices(147, kp.SUBGROUP_147, kp.PAIR_147_INDEX_SETS[0])
        b = decode_indices(147, kp.SUBGROUP_147, kp.PAIR_147_INDEX_SETS[1])
        result = verify_pair(a, b)
        assert result and result.psd_third == (148, 148)
        for (ra, rb), expect in zip(kp.RANKS_133, kp.PSD_19_133):
            a = decode_rank(133, kp.SUBGROUP_133, kp.COMPOSITION_133, ra, polarity=-1)
            b = decode_rank(133, kp.SUBGROUP_133, kp.COMPOSITION_133, rb, polarity=-1)
            result = verify_pair(a, b)
            assert result
            # exact integer PSD at lags 19/38/57 via the compression certificate
            cert = compression_certificate(a, b, 19)
            assert cert
            assert (cert.predicted_psd_a, cert.predicted_psd_b) == expect
            assert cert.lags == (19, 38, 57)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_05_lexrank_consistency(capsys):
    with criterion(capsys, 5, "LexRank encodings decode to the printed sets"):
        # the printed 19-subset of the 38 size-3 orbits
        assert subset_unrank(kp.SUBSET_117_RANK, 19, 38) == kp.SUBSET_117
        assert subset_rank(kp.SUBSET_117, 38) == kp.SUBSET_117_RANK
        # the full ranks address the printed index sets
        decomp = decomp_for(117, kp.SUBGROUP_117)
        comp = parse_composition(kp.COMPOSITION_117)
        from legendre_pairs.ranking import rank_to_selection

        for (ra, rb), (ia, ib) in zip(kp.RANKS_117, kp.PAIRS_117):
            assert set(rank_to_selection(ra, decomp, comp, 1).chosen) == ia
            assert set(rank_to_selection(rb, decomp, comp, 1).chosen) == ib
        # l = 147: the printed rank pair decodes to the printed index sets
        decomp147 = decomp_for(147, kp.SUBGROUP_147)
        comp147 = parse_composition(kp.COMPOSITION_147)
        ra, rb = kp.PAIR_147_RANKS
        assert set(rank_to_selection(ra, decomp147, comp147, 1).chosen) == (
            kp.PAIR_147_INDEX_SETS[0]
        )
        assert set(rank_to_selection(rb, decomp147, comp147, 1).chosen) == (
            kp.PAIR_147_INDEX_SETS[1]
        )
        # the three further l = 147 rank pairs verify with values [4, 292]
        for ra, rb in kp.RANKS_147_LOW_HIGH:
            a = decode_rank(147, kp.SUBGROUP_147, kp.COMPOSITION_147, ra)
            b = decode_rank(147, kp.SUBGROUP_147, kp.COMPOSITION_147, rb)
            result = verify_pair(a, b)
            assert result and tuple(sorted(result.psd_third)) == (4, 292)


def test_criterion_06_compression_certificates(capsys):
    with criterion(capsys, 6, "compression certificates for l=133 pairs 3 and 5"):
        expectations = {
            2: ((1, 1, 1, 1, 1, 1, -5), (-1, -1, 5, -1, 5, 5, -11), (-5, -33), (36, 232)),
            4: ((1, 1, -3, 1, -3, -3, 7), (-5, -5, 5, -5, 5, 5, 1), (-13, -25), (92, 176)),
        }
        for index, (ca, cb, consts, preds) in expectations.items():
            ra, rb = kp.RANKS_133[index]
            a = decode_rank(133, kp.SUBGROUP_133, kp.COMPOSITION_133, ra, polarity=-1)
            b = decode_rank(133, kp.SUBGROUP_133, kp.COMPOSITION_133, rb, polarity=-1)
            cert = compression_certificate(a, b, 19)
            assert cert
            assert cert.compressed_a == ca and cert.compressed_b == cb
            assert (cert.paf_constant_a, cert.paf_constant_b) == consts
            assert (cert.predicted_psd_a, cert.predicted_psd_b) == preds
            for lag in (19, 38, 57):
                assert abs(psd(a, lag) - preds[0]) < 1e-6
                assert abs(psd(b, lag) - preds[1]) < 1e-6


def test_criterion_07_hadamard(capsys):
    with criterion(capsys, 7, "Hadamard matrices of orders 8 and 268"):
        t0 = time.perf_counter()
        tiny = BinarySequence((1, 1, -1))
        h, _ = hadamard_from_pair(verify_pair(tiny, tiny))
        assert h.shape == (8, 8)
        assert np.array_equal(h @ h.T, 8 * np.eye(8, dtype=np.int64))
        for ra, rb in kp.RANKS_133:
            a = decode_rank(133, kp.SUBGROUP_133, kp.COMPOSITION_133, ra, polarity=-1)
            b = decode_rank(133, kp.SUBGROUP_133, kp.COMPOSITION_133, rb, polarity=-1)
            h, _ = hadamard_from_pair(verify_pair(a, b))
            assert h.shape == (268, 268)
            assert np.array_equal(h @ h.T, 268 * np.eye(268, dtype=np.int64))
        assert time.perf_counter() - t0 < 60.0


def test_criterion_08_oracle_equivalence(capsys, tmp_path):
    with criterion(capsys, 8, "pipeline equals brute-force oracle for small l"):
        t0 = time.perf_counter()
        for length in (3, 5, 7, 9, 11, 13, 15):
            sub = Subgroup(length, (1,))
            plans = build_plans(length, sub)
            result = run_pipeline(tmp_path / f"l{length}", plans)
            found = {frozenset((p.a.entries, p.b.entries)) for p in result.pairs}
            assert found == brute_force_pairs(length)
            assert result.false_candidates == 0
        sub = Subgroup(15, (1, 4))
        plans = build_plans(15, sub)
        result = run_pipeline(tmp_path / "l15h", plans)
        found = {frozenset((p.a.entries, p.b.entries)) for p in result.pairs}
        assert found == brute_force_pairs(15, sub)
        assert time.perf_counter() - t0 < 600.0


def test_criterion_09_invariant_suites(capsys):
    with criterion(capsys, 9, "randomized invariants, 1000+ instances each"):
        rng = random.Random(20230817)

        def random_seq(length):
            return BinarySequence(
                tuple(rng.choice((-1, 1)) for _ in range(length))
            )

        # PAF/PSD symmetry
        for _ in range(1000):
            length = rng.choice((7, 9, 11, 13, 15))
            a = random_seq(length)
            s = rng.randrange(1, length)
            assert paf(a, s) == paf(a, length - s)
            assert abs(psd(a, s) - psd(a, length - s)) < EPS

        # Parseval
        for _ in range(1000):
            length = rng.choice((5, 7, 9, 11))
            a = random_seq(length)
            total = sum(psd(a, s) for s in range(1, length + 1))
            assert abs(total - length * length) < length * EPS

        # Wiener-Khinchin: PSD is the cosine transform of the PAF vector
        for _ in range(1000):
            length = rng.choice((5, 7, 9))
            a = random_seq(length)
            s = rng.randrange(1, length)
            vec = [paf(a, t) for t in range(length)]
            expect = sum(
                vec[t] * math.cos(2 * math.pi * s * t / length)
                for t in range(length)
            )
            assert abs(psd(a, s) - expect) < length * EPS

        # compression preserves PSD at multiplied lags
        for _ in range(1000):
            length, m = rng.choice(((9, 3), (15, 3), (15, 5), (21, 3), (21, 7)))
            a = random_seq(length)
            n = length // m
            c = compress(a.entries, m)
            for s in range(1, (n - 1) // 2 + 1):
                assert abs(psd(a, m * s) - psd(c, s)) < length * EPS

        # exact third-lag PSD agrees with the float value
        for _ in range(1000):
            length = rng.choice((9, 15, 21, 33))
            a = random_seq(length)
            assert abs(psd(a, length // 3) - psd_exact_third(a)) < EPS

        # subset rank/unrank bijection
        for _ in range(1000):
            n = rng.randrange(1, 40)
            k = rng.randrange(0, n + 1)
            r = rng.randrange(math.comb(n, k))
            assert subset_rank(subset_unrank(r, k, n), n) == r


def test_criterion_10_smoke_slice(capsys, tmp_path):
    with criterion(capsys, 10, "deterministic 10^6-rank smoke slice of 117 Case (I)"):
        sub = Subgroup(117, kp.SUBGROUP_117)
        comp = parse_composition(kp.COMPOSITION_117)
        decomp = orbit_decomposition(117, sub)
        allowed = third_psd_filter(117, sub, composition_counts(decomp, comp))
        plan = SearchPlan(117, kp.SUBGROUP_117, comp, 1, allowed_third_psd=allowed)
        t0 = time.perf_counter()
        big = tmp_path / "slice.rec"
        stats = run_chunk(plan, 0, 1_000_000, big)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        assert stats.scanned == 1_000_000
        # rerunning a prefix of the range reproduces the records byte for byte
        small = tmp_path / "prefix.rec"
        run_chunk(plan, 0, 100_000, small)
        prefix = [r for r in read_records(big, plan) if r.rank < 100_000]
        assert list(read_records(small, plan)) == prefix


@pytest.mark.slow
def test_full_search_117_case1(tmp_path):
    """Full l=117 Case (I) exhaustive search (about 31 CPU hours).

    Expected outcome: 69,735,984 stage-2 survivors and 192 verified pairs.
    Opt in with ``pytest -m slow``.
    """
    sub = Subgroup(117, kp.SUBGROUP_117)
    plans = build_plans(117, sub, [parse_composition(kp.COMPOSITION_117)], (1,))
    result = run_pipeline(tmp_path / "full117", plans, workers=8)
    assert sum(s.stage2_survivors for s in result.stats) == 69_735_984
    assert len(result.pairs) == 192


@pytest.mark.slow
def test_full_search_117_h3_empty(tmp_path):
    """Full sweep of the l=117 subgroup {1, 55, 100}: no Legendre pair exists."""
    sub = Subgroup(117, (1, 55, 100))
    plans = build_plans(117, sub)
    result = run_pipeline(tmp_path / "full117h3", plans, workers=8)
    assert result.pairs == []


def test_criterion_11_symmetry_structure(capsys):
    with criterion(capsys, 11, "published pairs plus images form K_{2,2} classes"):
        results = []
        for ia, ib in kp.PAIRS_117:
            a = decode_indices(117, kp.SUBGROUP_117, ia)
            b = decode_indices(117, kp.SUBGROUP_117, ib)
            sa = apply_symmetry(a, 1, True)
            sb = apply_symmetry(b, 1, True)
            for x in (a, sa):
                for y in (b, sb):
                    result = verify_pair(x, y)
                    assert result
                    results.append(result)
        classes = symmetry_reduce(results)
        # published pairs 4 and 6 are shift/revert images of each other, so
        # the ten listed pairs span nine distinct four-cycles
        a4 = decode_indices(117, kp.SUBGROUP_117, kp.PAIRS_117[3][0])
        a6 = decode_indices(117, kp.SUBGROUP_117, kp.PAIRS_117[5][0])
        assert a6 == apply_symmetry(a4, 1, True)
        assert len(classes) == 9
        for cls in classes:
            assert cls.structure == "K_{2,2}" and cls.complete_bipartite
            edges = {(x.entries, y.entries) for x, y in cls.pairs}
            assert len(edges) == 4
