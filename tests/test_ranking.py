"""Lexicographic subset ranking and orbit-selection decoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from legendre_pairs.nt import Subgroup, orbit_decomposition
from legendre_pairs.ranking import (
    compositions_for,
    composition_counts,
    coverage,
    coverage_target,
    decode_selection,
    format_composition,
    format_polarity,
    indices_to_selection,
    parse_composition,
    parse_polarity,
    rank_to_selection,
    rank_to_sequence,
    space_size,
    subset_rank,
    subset_unrank,
    OrbitSelection,
)

import known_pairs as kp
from helpers import decode_union, decomp_for, selection_to_rank


class TestSubsetRanking:
    def test_first_and_last(self):
        assert subset_unrank(0, 3, 5) == (1, 2, 3)
        assert subset_unrank(9, 3, 5) == (3, 4, 5)

    def test_enumeration_order(self):
        subsets = [subset_unrank(r, 2, 4) for r in range(6)]
        assert subsets == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_published_rank(self):
        assert subset_unrank(kp.SUBSET_117_RANK, 19, 38) == kp.SUBSET_117
        assert subset_rank(kp.SUBSET_117, 38) == kp.SUBSET_117_RANK

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            subset_unrank(10, 3, 5)
        with pytest.raises(ValueError):
            subset_rank((0, 1), 5)

    @given(st.data())
    def test_round_trip(self, data):
        n = data.draw(st.integers(min_value=1, max_value=24))
        k = data.draw(st.integers(min_value=0, max_value=n))
        import math

        rank = data.draw(st.integers(min_value=0, max_value=math.comb(n, k) - 1))
        assert subset_rank(subset_unrank(rank, k, n), n) == rank


class TestComposition:
    def test_parse_and_format(self):
        comp = parse_composition("2x1+19x3")
        assert comp == ((1, 2), (3, 19))
        assert format_composition(comp) == "2x1+19x3"
        assert coverage(comp) == 59

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ValueError):
            parse_composition("2x1+1x1")

    def test_space_sizes_match_published(self):
        decomp117 = decomp_for(117, kp.SUBGROUP_117)
        assert space_size(decomp117, parse_composition("2x1+19x3")) == 35_345_263_800
        assert space_size(decomp117, parse_composition("1x1+19x3")) == 70_690_527_600
        decomp133 = decomp_for(133, kp.SUBGROUP_133)
        assert space_size(decomp133, parse_composition("22x3")) == 2_104_098_963_720

    def test_compositions_for_covers_targets(self):
        decomp = decomp_for(117, kp.SUBGROUP_117)
        plus = compositions_for(decomp, 1)
        minus = compositions_for(decomp, -1)
        assert all(coverage(c) == 59 for c in plus)
        assert all(coverage(c) == 58 for c in minus)
        assert ((1, 2), (3, 19)) in plus
        assert ((1, 1), (3, 19)) in minus

    def test_composition_counts(self):
        decomp = decomp_for(117, kp.SUBGROUP_117)
        assert composition_counts(decomp, parse_composition("2x1+19x3")) == (2, 19)


class TestPolarity:
    def test_round_trip(self):
        for polarity in (1, -1):
            assert parse_polarity(format_polarity(polarity)) == polarity
        assert format_polarity(1) == "plus" and format_polarity(-1) == "minus"

    @pytest.mark.parametrize("name", ["pluss", "Plus", "", "+1"])
    def test_parse_is_strict(self, name):
        with pytest.raises(ValueError):
            parse_polarity(name)

    def test_format_is_strict(self):
        with pytest.raises(ValueError):
            format_polarity(0)

    def test_coverage_target(self):
        assert coverage_target(117, 1) == 59 and coverage_target(117, -1) == 58
        with pytest.raises(ValueError):
            coverage_target(117, 0)


class TestSelection:
    def test_coverage_validated(self):
        decomp = decomp_for(117, kp.SUBGROUP_117)
        with pytest.raises(ValueError):
            OrbitSelection(decomp, (1, 2), 1)

    def test_bad_representative(self):
        decomp = decomp_for(117, kp.SUBGROUP_117)
        with pytest.raises(ValueError):
            indices_to_selection(decomp, [16] + list(range(2, 20)), 1)
        # four size-2 representatives cover 8 positions only when distinct
        with pytest.raises(ValueError, match="repeat"):
            indices_to_selection(decomp_for(15, (1, 4)), [1, 1, 2, 3], 1)

    def test_decode_entry_sum_is_one(self):
        for indices, _ in kp.PAIRS_117:
            decomp = decomp_for(117, kp.SUBGROUP_117)
            seq = decode_selection(indices_to_selection(decomp, sorted(indices), 1))
            assert sum(seq) == 1

    def test_polarity_complement(self):
        # flipping the polarity of the raw decoder negates the sequence
        decomp = decomp_for(117, kp.SUBGROUP_117)
        chosen = tuple(sorted(kp.PAIRS_117[0][0]))
        plus = decode_union(decomp, chosen, 1)
        minus = decode_union(decomp, chosen, -1)
        assert minus.entries == tuple(-e for e in plus.entries)

    def test_decoded_positions(self):
        decomp = decomp_for(117, kp.SUBGROUP_117)
        sel = indices_to_selection(decomp, sorted(kp.PAIRS_117[0][0]), 1)
        seq = decode_selection(sel)
        assert seq.plus_residues() == frozenset(x for r in sel.chosen for x in decomp.orbit_of_rep[r])


class TestMixedRadixRanks:
    def test_rank_to_selection_matches_published(self):
        decomp = decomp_for(117, kp.SUBGROUP_117)
        comp = parse_composition(kp.COMPOSITION_117)
        sel = rank_to_selection(kp.SUBSET_117_RANK, decomp, comp, 1)
        assert set(sel.chosen) == kp.PAIRS_117[0][0]

    def test_selection_to_rank_inverse(self):
        decomp = decomp_for(117, kp.SUBGROUP_117)
        comp = parse_composition(kp.COMPOSITION_117)
        for rank_a, rank_b in kp.RANKS_117:
            for rank in (rank_a, rank_b):
                sel = rank_to_selection(rank, decomp, comp, 1)
                assert selection_to_rank(sel, comp) == rank

    def test_rank_out_of_range(self):
        decomp = decomp_for(117, kp.SUBGROUP_117)
        comp = parse_composition(kp.COMPOSITION_117)
        with pytest.raises(ValueError):
            rank_to_selection(space_size(decomp, comp), decomp, comp, 1)

    @given(st.integers(min_value=0, max_value=6434))
    def test_round_trip_small(self, rank):
        # l = 15, trivial subgroup, 8 of 14 nonzero singleton orbits: C(14,8) = 3003
        decomp = decomp_for(15, (1,))
        comp = parse_composition("8x1")
        rank %= 3003
        sel = rank_to_selection(rank, decomp, comp, 1)
        assert selection_to_rank(sel, comp) == rank

    def test_rank_to_sequence_consistency(self):
        decomp = decomp_for(117, kp.SUBGROUP_117)
        comp = parse_composition(kp.COMPOSITION_117)
        seq = rank_to_sequence(kp.SUBSET_117_RANK, decomp, comp, 1)
        direct = decode_selection(
            indices_to_selection(decomp, sorted(kp.PAIRS_117[0][0]), 1)
        )
        assert seq == direct
