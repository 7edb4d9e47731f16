"""Exact and floating-point sequence kernels."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legendre_pairs.nt import Subgroup, orbit_decomposition
from legendre_pairs.sequences import (
    EPS,
    BinarySequence,
    LagError,
    apply_symmetry,
    compress,
    cyclic_shift,
    dft,
    paf,
    power_sums,
    psd,
    psd_exact_third,
    residue_sums_mod3,
    revert,
)

from helpers import decode_union, pm, symmetry_images


def random_pm(rng: random.Random, length: int) -> BinarySequence:
    return BinarySequence(tuple(rng.choice((-1, 1)) for _ in range(length)))


odd_lengths = st.integers(min_value=1, max_value=10).map(lambda k: 2 * k + 1)


@st.composite
def pm_sequences(draw, lengths=odd_lengths):
    length = draw(lengths)
    entries = draw(
        st.lists(st.sampled_from((-1, 1)), min_size=length, max_size=length)
    )
    return BinarySequence(tuple(entries))


class TestBinarySequence:
    def test_rejects_even_length(self):
        with pytest.raises(ValueError):
            BinarySequence((1, -1))

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            BinarySequence((1, 0, -1))

    def test_pm_string_round_trip(self):
        s = pm("++-+-")
        assert s.entries == (1, 1, -1, 1, -1)
        assert s.pm_string() == "++-+-"

    def test_plus_residues_round_trip(self):
        # the decoder marks the chosen residues, and residue 0 takes the other sign
        s = pm("++--+-+")
        decomp = orbit_decomposition(7, Subgroup(7, (1,)))
        rebuilt = decode_union(decomp, sorted(set(range(1, 7)) - s.plus_residues()), -1)
        assert rebuilt == s

    def test_position_l_is_residue_zero(self):
        s = BinarySequence((-1, -1, -1, -1, 1))
        # residue 0 corresponds to the last position
        assert s.plus_residues() == frozenset({0})

    def test_normalized(self):
        assert BinarySequence((1, 1, -1)).normalized
        assert not BinarySequence((1, -1, -1)).normalized


class TestPaf:
    def test_lag_zero_is_length(self):
        assert paf([1, -1, 1, 1, -1], 0) == 5

    def test_known_value(self):
        # [1,1,-1]: lag 1 -> 1*1 + 1*(-1) + (-1)*1 = -1
        assert paf([1, 1, -1], 1) == -1

    def test_lag_out_of_range(self):
        with pytest.raises(LagError):
            paf([1, 1, -1], 3)

    @given(pm_sequences())
    def test_symmetry(self, a):
        l = len(a)
        for s in range(1, l):
            assert paf(a, s) == paf(a, l - s)

    @given(pm_sequences())
    def test_shift_revert_invariance(self, a):
        vec = [paf(a, s) for s in range(len(a))]
        assert [paf(cyclic_shift(a, 2), s) for s in range(len(a))] == vec
        assert [paf(revert(a), s) for s in range(len(a))] == vec


class TestDftPsd:
    def test_dft_at_l_is_entry_sum(self):
        a = BinarySequence((1, 1, -1, 1, -1))
        assert abs(dft(a, 5) - sum(a)) < EPS

    def test_lag_out_of_range(self):
        with pytest.raises(LagError):
            dft([1, 1, -1], 0)

    @given(pm_sequences())
    def test_parseval(self, a):
        l = len(a)
        total = sum(psd(a, s) for s in range(1, l + 1))
        assert abs(total - l * l) < l * EPS

    @given(pm_sequences())
    @settings(max_examples=40)
    def test_wiener_khinchin(self, a):
        # PSD at lag s equals the DFT of the PAF vector at lag s
        l = len(a)
        vec = [paf(a, s) for s in range(l)]
        for s in range(1, l):
            expect = sum(
                vec[t] * math.cos(2 * math.pi * s * t / l) for t in range(l)
            )
            assert abs(psd(a, s) - expect) < l * EPS

    def test_deterministic_repetition(self):
        a = pm("++-+--+")
        assert psd(a, 3) == psd(a, 3)


class TestCompress:
    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            compress([1, 1, -1], 2)

    def test_known_compression(self):
        # l = 9, m = 3, n = 3: entry j sums a[3i+j]
        a = [1, 1, -1, 1, -1, -1, 1, 1, 1]
        assert compress(a, 3) == [3, 1, -1]

    @given(pm_sequences(st.sampled_from([9, 15, 21])))
    def test_preserves_entry_sum(self, a):
        assert sum(compress(a.entries, 3)) == sum(a)

    @given(pm_sequences(st.sampled_from([9, 15, 21])))
    @settings(max_examples=40)
    def test_psd_at_multiplied_lags(self, a):
        m = 3
        n = len(a) // m
        c = compress(a.entries, m)
        for s in range(1, (n - 1) // 2 + 1):
            assert abs(psd(a, m * s) - psd(c, s)) < len(a) * EPS


class TestThirdLagExact:
    def test_residue_sums(self):
        a = [1, 1, -1, 1, -1, -1, 1, 1, 1]
        a1, a2, a3 = residue_sums_mod3(a)
        assert (a1, a2, a3) == (sum(a[0::3]), sum(a[1::3]), sum(a[2::3]))
        assert a1 + a2 + a3 == sum(a)

    def test_requires_divisibility(self):
        with pytest.raises(ValueError):
            residue_sums_mod3([1, 1, -1, 1, -1])

    @given(pm_sequences(st.sampled_from([9, 15, 21, 33])))
    def test_exact_matches_float(self, a):
        assert abs(psd(a, len(a) // 3) - psd_exact_third(a)) < EPS


class TestSymmetries:
    def test_shift_moves_plus_positions(self):
        a = pm("+++-+--")
        assert a.plus_residues() == frozenset({1, 2, 3, 5})
        shifted = cyclic_shift(a, 2)
        assert shifted.plus_residues() == frozenset({3, 4, 5, 0})

    def test_revert_is_involution(self):
        a = pm("++-+--+")
        assert revert(revert(a)) == a

    def test_symmetry_images_count(self):
        a = pm("++-+--+")
        assert len(list(symmetry_images(a))) == 2 * len(a)

    def test_apply_symmetry_matches_composition(self):
        a = pm("++-+--+")
        assert apply_symmetry(a, 3, True) == revert(cyclic_shift(a, 3))


def test_power_sums():
    assert power_sums([1, 1, -5]) == (-3, 27)
