"""Two-stage search, fingerprint records, matching and checkpointing."""

import hashlib
import itertools
import re
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legendre_pairs import pipeline, ranking, search
from legendre_pairs.nt import Subgroup, orbit_decomposition, representative_lags, subgroups_of_order, unit_group
from legendre_pairs.oracle import brute_force_pairs
from legendre_pairs.pipeline import build_plans, load_record_sets, run_pipeline, run_plan_workers, third_psd_filter
from legendre_pairs.search import (
    CandidateRecord,
    SearchPlan,
    fingerprint,
    fingerprint_lags,
    match_candidates,
    read_plan,
    read_records,
    run_chunk,
    run_search,
    split_ranges,
    write_plan,
)

import known_pairs as kp
from helpers import decode_indices, decomp_for, reference_join, selection_to_rank


def collect(plan: SearchPlan):
    records = []
    stats = run_search(plan, records.append)
    return records, stats


class TestFingerprint:
    def test_lags_exclude_third(self):
        assert fingerprint_lags(9) == [1, 2, 4]
        assert fingerprint_lags(7) == [1, 2, 3]

    def test_pair_fingerprints_cross_match(self):
        a = decode_indices(117, kp.SUBGROUP_117, kp.PAIRS_117[0][0])
        b = decode_indices(117, kp.SUBGROUP_117, kp.PAIRS_117[0][1])
        fa1, fa2 = fingerprint(a)
        fb1, fb2 = fingerprint(b)
        assert fa1 == fb2 and fa2 == fb1

    def test_record_line_round_trip(self):
        rec = CandidateRecord(42, "ab3", "9f0")
        assert CandidateRecord.parse(rec.line()) == rec

    def test_record_empty_fingerprint(self):
        rec = CandidateRecord(7, "", "")
        assert CandidateRecord.parse(rec.line()) == rec

    def test_malformed_record(self):
        with pytest.raises(ValueError):
            CandidateRecord.parse("1 2\n")


class TestSplitRanges:
    def test_partition(self):
        ranges = split_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]

    def test_more_chunks_than_items(self):
        assert split_ranges(2, 5) == [(0, 1), (1, 2)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_ranges(10, 0)


class TestRepresentativeLags:
    def test_psd_constant_on_lag_orbits(self):
        from legendre_pairs.sequences import psd

        decomp = orbit_decomposition(117, Subgroup(117, kp.SUBGROUP_117))
        reps = representative_lags(decomp)
        assert len(reps) < (117 - 1) // 2
        seq = decode_indices(117, kp.SUBGROUP_117, kp.PAIRS_117[0][0])
        # every lag's PSD equals its representative's PSD
        half = (117 - 1) // 2
        covered = set()
        for rep in reps:
            orbit = {rep, 117 - rep}
            frontier = set(orbit)
            while frontier:
                frontier = {
                    (h * x) % 117 for h in kp.SUBGROUP_117 for x in frontier
                } - orbit
                orbit |= frontier
            for lag in orbit:
                if 1 <= lag <= half:
                    covered.add(lag)
                    assert abs(psd(seq, lag) - psd(seq, rep)) < 1e-6
        assert covered == set(range(1, half + 1))


def _oracle_cases():
    """Every subgroup of the units mod every odd l <= 17: 36 cases.  The ids
    at l = 15 name the subgroup alone."""
    for length in range(3, 18, 2):
        for order in range(1, len(unit_group(length)) + 1):
            for sub in subgroups_of_order(length, order):
                name = "H" + "-".join(map(str, sub.elements))
                yield pytest.param(length, sub.elements, id=name if length == 15 else f"l{length}-{name}")


class TestRunSearch:
    @pytest.mark.parametrize("length,elements", list(_oracle_cases()))
    def test_small_space_finds_oracle_pairs(self, length, elements):
        # search both polarities and match.  At l = 15, elements = 2 (mod 3)
        # mix residue classes within an orbit, which stage 1 must account for.
        sub = Subgroup(length, elements)
        plans = build_plans(length, sub)
        record_sets = []
        for plan in plans:
            records, _ = collect(plan)
            record_sets.append((plan, records))
        matches = match_candidates(record_sets)
        found = {
            frozenset((m.pair.a.entries, m.pair.b.entries))
            for m in matches
            if m.verified
        }
        assert found == brute_force_pairs(length, sub)

    def test_stage1_annihilates_on_empty_filter(self):
        plan = SearchPlan(
            9, (1,), (( 1, 5),), 1, allowed_third_psd=frozenset(), rank_range=(0, 50)
        )
        records, stats = collect(plan)
        assert records == [] and stats.scanned == 50 and stats.stage1_survivors == 0

    def test_filter_is_sound(self):
        # with and without the stage-1 filter, identical survivors pass stage 2
        # for rank windows containing a known pair's rank
        decomp = orbit_decomposition(9, Subgroup(9, (1,)))
        comp = ((1, 5),)
        filt = third_psd_filter(9, Subgroup(9, (1,)), (5,))
        base = SearchPlan(9, (1,), comp, 1)
        filtered = SearchPlan(9, (1,), comp, 1, allowed_third_psd=filt)
        rec_a, _ = collect(base)
        rec_b, _ = collect(filtered)
        # the filter may only remove records that are never part of a pair
        matches_a = match_candidates([(base, rec_a)])
        matches_b = match_candidates([(filtered, rec_b)])
        pairs_a = {
            frozenset((m.pair.a.entries, m.pair.b.entries))
            for m in matches_a
            if m.verified
        }
        pairs_b = {
            frozenset((m.pair.a.entries, m.pair.b.entries))
            for m in matches_b
            if m.verified
        }
        assert pairs_a == pairs_b

    def test_filter_for_orbits_that_mix_residues(self):
        # 8 = 2 (mod 3): the lag-7 values no union reaches leave the filter
        plans = build_plans(21, Subgroup(21, (1, 8)))
        assert sorted(map(sorted, (p.allowed_third_psd for p in plans))) == [[]] * 5 + [[16]] * 2

    def test_determinism(self):
        plan = SearchPlan(13, (1,), ((1, 7),), 1, rank_range=(0, 400))
        rec_a, _ = collect(plan)
        rec_b, _ = collect(plan)
        assert rec_a == rec_b

    def test_wrong_coverage_rejected(self):
        # five size-1 orbits of l = 9 cover five positions; polarity -1 needs four
        with pytest.raises(ValueError, match="covers 5 positions, need 4"):
            SearchPlan(9, (1,), ((1, 5),), -1, rank_range=(0, 10))

    def test_invalid_range(self):
        with pytest.raises(ValueError, match=r"outside space \[0, 56\)"):
            SearchPlan(9, (1,), ((1, 5),), 1, rank_range=(0, 10**9))


class TestMatching:
    def test_mixed_lengths_rejected(self):
        p1 = SearchPlan(9, (1,), ((1, 5),), 1)
        p2 = SearchPlan(15, (1,), ((1, 8),), 1)
        with pytest.raises(ValueError):
            match_candidates([(p1, []), (p2, [])])

    def test_false_candidates_flagged(self):
        # force a fingerprint collision by pairing a record with itself when
        # the underlying sequences do not form a pair
        plan = SearchPlan(9, (1,), ((1, 5),), 1)
        records, _ = collect(plan)
        matches = match_candidates([(plan, records)])
        assert any(m.verified for m in matches)
        for m in matches:
            if not m.verified:
                assert m.pair is None

    def test_join_equals_reference_join(self):
        # l = 15, H = {1, 11}: 40 records, 100 pairs
        record_sets = []
        for plan in build_plans(15, Subgroup(15, (1, 11))):
            records, _ = collect(plan)
            record_sets.append((plan, records))
        matches = match_candidates(record_sets)
        assert matches == reference_join(record_sets)
        assert len(matches) == 100 and all(m.verified for m in matches)

    # l = 9, H = {1}: one plan of each polarity, 126 ranks each
    PLANS_9 = (SearchPlan(9, (1,), ((1, 5),), 1), SearchPlan(9, (1,), ((1, 4),), -1))

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(
            *(
                st.lists(
                    st.builds(
                        CandidateRecord,
                        st.integers(0, plan.space_size() - 1),
                        st.text("01", min_size=3, max_size=3),
                        st.text("01", min_size=3, max_size=3),
                    ),
                    max_size=30,
                )
                for plan in PLANS_9
            )
        )
    )
    def test_join_equals_reference_join_on_dense_fingerprints(self, records):
        # two-letter fingerprints: large groups, self matches, matches across
        # the plans and false candidates
        record_sets = list(zip(self.PLANS_9, records))
        assert match_candidates(record_sets) == reference_join(record_sets)

    def test_join_keeps_ranks_past_2_63(self):
        # l = 117, H = {1}: ranks exceed 2^63 and must come back exactly
        plan = build_plans(117, Subgroup(117, (1,)), polarities=(1,))[0]
        top = plan.space_size() - 1
        fp, other = "0" * 57, "1" * 57
        records = [CandidateRecord(top, fp, other), CandidateRecord(top - 1, other, fp), CandidateRecord(2**63, fp, fp)]
        matches = match_candidates([(plan, records)])
        assert matches == reference_join([(plan, records)])
        assert {m.rank_a for m in matches} | {m.rank_b for m in matches} == {top, top - 1, 2**63}
        assert top > 2**64


class TestLoadRecordSets:
    @pytest.fixture
    def plan_dir(self, tmp_path):
        plan = SearchPlan(9, (1,), ((1, 5),), 1, rank_range=(0, 40))
        run_chunk(plan, 0, 40, tmp_path / "part-0000.rec")
        write_plan(tmp_path, plan)
        return tmp_path

    def test_reads_every_record(self, plan_dir):
        [(plan, records)] = load_record_sets([plan_dir / "part-0000.rec"])
        assert plan == read_plan(plan_dir)
        assert list(records) == list(read_records(plan_dir / "part-0000.rec", plan))

    def test_records_before_a_malformed_line_are_read(self, plan_dir):
        # records are read lazily: the two ahead of a bad third line come out
        path = plan_dir / "part-0000.rec"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]) + "7\n" + "".join(lines[2:]))
        [(_, records)] = load_record_sets([path])
        assert [next(records), next(records)] == [CandidateRecord.parse(line) for line in lines[:2]]
        with pytest.raises(ValueError, match="malformed record"):
            next(records)

    @pytest.mark.parametrize(
        "line",
        [
            "1 000 00\n", "1 000 0000\n", "1 00A 000\n", "1 00g 000\n", "40 000 000\n", "-1 000 000\n",
            "7\n", "1_0 000 000\n", "+16 000 000\n", "010 000 000\n", "\u0661\u0660 000 000\n", "\n", "   \n",
        ],
        ids=[
            "short", "long", "uppercase", "not-hex", "rank-past-range", "negative-rank", "rank-only",
            "rank-underscore", "rank-plus-sign", "rank-leading-zero", "rank-non-ascii-digits", "blank",
            "whitespace-only",
        ],
    )
    def test_malformed_record_rejected(self, plan_dir, line):
        # l = 9 fingerprints have 4 lags minus lag 3: three hex digits
        path = plan_dir / "part-0001.rec"
        path.write_text(line, encoding="utf-8")
        [(_, records)] = load_record_sets(sorted(plan_dir.glob("part-*.rec")))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed record"):
            list(records)

    @pytest.mark.parametrize(
        "line", [b"\n", b"   \n", b"1\xff 000 000\n"], ids=["blank", "whitespace-only", "not-utf-8"]
    )
    def test_malformed_line_error_names_the_file(self, plan_dir, line):
        # the reader and the resume's truncation both reject the line ahead
        # of the file's records, and both name the file
        path = plan_dir / "part-0000.rec"
        path.write_bytes(line + path.read_bytes())
        plan = read_plan(plan_dir)
        named = f"^{re.escape(str(path))}: malformed record"
        with pytest.raises(ValueError, match=named):
            list(read_records(path, plan))
        with pytest.raises(ValueError, match=named):
            run_chunk(plan, 0, 40, path)


def failing_record(n: int):
    """A stand-in for ``CandidateRecord`` that raises at its n-th record."""
    calls = itertools.count(1)

    def record(*args):
        if next(calls) == n:
            raise RuntimeError("injected fault")
        return CandidateRecord(*args)

    return record


class TestPlanPersistence:
    def test_plan_polarity_is_strict(self):
        data = SearchPlan(9, (1,), ((1, 5),), 1).to_dict()
        data["polarity"] = "pluss"
        with pytest.raises(ValueError):
            SearchPlan.from_dict(data)

    def test_plan_json_round_trip(self, tmp_path):
        plan = SearchPlan(
            117,
            kp.SUBGROUP_117,
            ((1, 2), (3, 19)),
            1,
            rank_range=(5, 100),
            allowed_third_psd=frozenset({28, 64}),
        )
        write_plan(tmp_path, plan)
        assert read_plan(tmp_path) == plan

    def test_empty_filter_round_trip(self, tmp_path):
        # stage 1 passes nothing, which is not the same as no filter
        plan = SearchPlan(9, (1,), ((1, 5),), 1, allowed_third_psd=frozenset())
        write_plan(tmp_path, plan)
        assert read_plan(tmp_path) == plan

    def test_checkpoint_resume(self, tmp_path, monkeypatch):
        monkeypatch.setattr(search, "CHECKPOINT_EVERY", 50)
        plan = SearchPlan(13, (1,), ((1, 7),), 1)
        full = tmp_path / "full.rec"
        run_chunk(plan, 0, 700, full)
        # interrupted run: first 300 ranks, then resume to 700
        part = tmp_path / "part.rec"
        run_chunk(plan, 0, 300, part.with_name("part.rec"))
        ckpt = part.with_suffix(".ckpt")
        assert int(ckpt.read_text()) == 299
        run_chunk(plan, 0, 700, part)
        assert list(read_records(part, plan)) == list(read_records(full, plan))

    @pytest.mark.parametrize("torn", [b"", b"2999 5"], ids=["flushed", "torn-line"])
    def test_resume_after_fault_is_byte_identical(self, tmp_path, monkeypatch, torn):
        # The search raises at the 250th survivor, between the checkpoints at
        # ranks 999 and 1499; close() flushes the records after rank 999.  A
        # hard kill can also leave a torn last line.  Resuming must drop both.
        monkeypatch.setattr(search, "CHECKPOINT_EVERY", 500)
        plan = build_plans(15, Subgroup(15, (1,)), polarities=(1,))[0]
        hi = plan.space_size()
        full = tmp_path / "full.rec"
        run_chunk(plan, 0, hi, full)
        part = tmp_path / "part.rec"
        with monkeypatch.context() as m:
            m.setattr(search, "CandidateRecord", failing_record(250))
            with pytest.raises(RuntimeError, match="injected fault"):
                run_chunk(plan, 0, hi, part)
        assert int(part.with_suffix(".ckpt").read_text()) == 999
        with open(part, "ab") as f:
            f.write(torn)
        run_chunk(plan, 0, hi, part)
        assert part.read_bytes() == full.read_bytes()

    def test_resume_noop_when_complete(self, tmp_path):
        plan = SearchPlan(13, (1,), ((1, 7),), 1)
        path = tmp_path / "done.rec"
        run_chunk(plan, 0, 200, path)
        before = path.read_text()
        stats = run_chunk(plan, 0, 200, path)
        assert stats.scanned == 0 and path.read_text() == before


class TestPipeline:
    def test_end_to_end_small(self, tmp_path):
        sub = Subgroup(13, (1,))
        plans = build_plans(13, sub)
        result = run_pipeline(tmp_path, plans, workers=1)
        found = {
            frozenset((p.a.entries, p.b.entries)) for p in result.pairs
        }
        assert found == brute_force_pairs(13)
        assert (tmp_path / "pairs.json").exists()

    def test_workers_agree_with_single(self, tmp_path):
        sub = Subgroup(11, (1,))
        plans = build_plans(11, sub)
        r1 = run_pipeline(tmp_path / "one", plans, workers=1)
        r2 = run_pipeline(tmp_path / "two", plans, workers=3)
        pairs1 = {frozenset((p.a.entries, p.b.entries)) for p in r1.pairs}
        pairs2 = {frozenset((p.a.entries, p.b.entries)) for p in r2.pairs}
        assert pairs1 == pairs2

    @pytest.mark.parametrize("first, resume, checkpoint", [(1, 2, 2099), (3, 1, 2101)])
    def test_resume_after_fault_with_other_workers(self, tmp_path, monkeypatch, first, resume, checkpoint):
        # The search raises at the 500th survivor, rank 2176: with one part,
        # past where a 2-way split would begin its second part; with three,
        # inside the third, which starts at rank 2002.  The resume keeps the
        # directory's parts whatever its workers.
        monkeypatch.setattr(search, "CHECKPOINT_EVERY", 100)
        plan = build_plans(15, Subgroup(15, (1,)), polarities=(1,))[0]
        run_plan_workers(plan, tmp_path / "fresh")
        out = tmp_path / "out"
        with monkeypatch.context() as m:
            m.setattr(search, "CandidateRecord", failing_record(500))
            # the parts run one after another in this process, where the fault is
            m.setattr(pipeline, "ProcessPoolExecutor", lambda max_workers: ThreadPoolExecutor(1))
            with pytest.raises(RuntimeError, match="injected fault"):
                run_plan_workers(plan, out, first)
        assert int((out / f"part-{first - 1:04d}.ckpt").read_text()) == checkpoint
        run_plan_workers(plan, out, resume)
        parts = sorted(out.glob("part-*.rec"))
        assert len(parts) == first
        joined = b"".join(path.read_bytes() for path in parts)
        assert joined == (tmp_path / "fresh" / "part-0000.rec").read_bytes()


#: sha256 of pairs.json from the full l = 15, H = {1} sweep
PAIRS_JSON_15_SHA256 = "5b02f67731390ccdbb616d639783d112bd88f0a96c8638c16438d02c462fb6b9"


def test_full_sweep_15_pairs_json_is_golden(tmp_path):
    run_pipeline(tmp_path, build_plans(15, Subgroup(15, (1,))))
    digest = hashlib.sha256((tmp_path / "pairs.json").read_bytes()).hexdigest()
    assert digest == PAIRS_JSON_15_SHA256


def _published_rank_pairs(length: int) -> tuple[tuple[int, ...], str, int, list[tuple[int, int]]]:
    """Subgroup, composition, polarity and rank pairs of the published pairs."""
    if length == 117:
        return kp.SUBGROUP_117, kp.COMPOSITION_117, 1, kp.RANKS_117
    if length == 129:
        decomp = decomp_for(129, kp.SUBGROUP_129)
        comp = ranking.parse_composition(kp.COMPOSITION_129)
        ranks = [
            tuple(
                selection_to_rank(ranking.indices_to_selection(decomp, sorted(s), 1), comp)
                for s in pair
            )
            for pair in kp.PAIRS_129
        ]
        return kp.SUBGROUP_129, kp.COMPOSITION_129, 1, ranks
    if length == 133:
        return kp.SUBGROUP_133, kp.COMPOSITION_133, -1, kp.RANKS_133
    return kp.SUBGROUP_147, kp.COMPOSITION_147, 1, [kp.PAIR_147_RANKS, *kp.RANKS_147_LOW_HIGH]


@pytest.mark.parametrize("length,expected", [(117, 10), (129, 2), (133, 5), (147, 4)])
def test_published_pairs_found_through_the_search(tmp_path, length, expected):
    # run_chunk over 100 ranks either side of each published side, stage 1
    # on wherever 3 | l, then the loader and the join: every published pair
    # is found and verified, and no candidate is false
    subgroup, composition, polarity, rank_pairs = _published_rank_pairs(length)
    (plan,) = build_plans(
        length, Subgroup(length, subgroup), [ranking.parse_composition(composition)], (polarity,)
    )
    assert (plan.allowed_third_psd is not None) == (length % 3 == 0)
    assert len(rank_pairs) == expected
    space = plan.space_size()
    windows: list[list[int]] = []
    for rank in sorted(r for pair in rank_pairs for r in pair):
        lo, hi = max(0, rank - 100), min(space, rank + 101)
        if windows and lo <= windows[-1][1]:
            windows[-1][1] = max(windows[-1][1], hi)
        else:
            windows.append([lo, hi])
    plan_dir = tmp_path / "plan-000"
    write_plan(plan_dir, plan)
    for i, (lo, hi) in enumerate(windows):
        run_chunk(plan, lo, hi, plan_dir / f"part-{i:04d}.rec")
    matches = match_candidates(load_record_sets(plan_dir.glob("part-*.rec")))
    assert all(m.verified for m in matches)
    found = {frozenset((m.rank_a, m.rank_b)) for m in matches}
    assert {frozenset(pair) for pair in rank_pairs} <= found


class TestOracle:
    def test_no_orbit_closed_sequences(self):
        assert brute_force_pairs(21, Subgroup(21, (1, 4, 10, 13, 16, 19))) == set()
