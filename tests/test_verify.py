"""Pair verification, compression certificates, Hadamard and symmetry classes."""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legendre_pairs import sequences as sq
from legendre_pairs import verify
from legendre_pairs.nt import spectrum_mod3
from legendre_pairs.oracle import brute_force_pairs
from legendre_pairs.sequences import EPS, BinarySequence, apply_symmetry
from legendre_pairs.verify import (
    PremiseNotMet,
    VerificationError,
    compression_certificate,
    format_matrix,
    hadamard_from_pair,
    pair_class_id,
    symmetry_reduce,
    verify_pair,
)

import known_pairs as kp
from helpers import (
    decode_indices,
    decode_rank,
    reference_canonical_string,
    reference_pair_class_id,
    reference_verify_pair,
)


def pair_117(i: int):
    ia, ib = kp.PAIRS_117[i]
    return (
        decode_indices(117, kp.SUBGROUP_117, ia),
        decode_indices(117, kp.SUBGROUP_117, ib),
    )


def pair_133(i: int):
    ra, rb = kp.RANKS_133[i]
    return (
        decode_rank(133, kp.SUBGROUP_133, kp.COMPOSITION_133, ra, polarity=-1),
        decode_rank(133, kp.SUBGROUP_133, kp.COMPOSITION_133, rb, polarity=-1),
    )


class TestVerifyPair:
    def test_trivial_pair(self):
        a = BinarySequence((1, 1, -1))
        result = verify_pair(a, a)
        assert result and result.paf_sums == (-2,)

    def test_published_pair(self):
        a, b = pair_117(0)
        result = verify_pair(a, b)
        assert result
        assert result.psd_third == (64, 172)
        assert all(v == -2 for v in result.paf_sums)

    def test_cross_pairing_fails(self):
        a1, _ = pair_117(0)
        _, b2 = pair_117(1)
        result = verify_pair(a1, b2)
        assert not result and result.lag is not None

    def test_length_mismatch(self):
        result = verify_pair(BinarySequence((1, 1, -1)), BinarySequence((1, 1, -1, 1, -1)))
        assert not result

    def test_unnormalized_rejected(self):
        a = BinarySequence((1, -1, -1))
        assert not verify_pair(a, a)

    def test_spectrum_membership(self):
        a, b = pair_117(0)
        result = verify_pair(a, b)
        assert tuple(sorted(result.psd_third)) in {e.psd_pair for e in spectrum_mod3(117)}


#: primes p = 3 (mod 4) below 62: the quadratic-residue sequence q with
#: q_0 = +1 has PAF -1 at every nonzero lag, so (q, q) is a Legendre pair
QR_PRIMES = (3, 7, 11, 19, 23, 31, 43, 47, 59)
#: lengths small enough for the brute-force oracle's every pair
ORACLE_LENGTHS = (3, 5, 7, 9, 11, 13)


def qr_sequence(p: int) -> BinarySequence:
    squares = {x * x % p for x in range(p)}
    return BinarySequence(tuple(1 if (k + 1) % p in squares else -1 for k in range(p)))


@lru_cache(maxsize=None)
def oracle_pairs(length: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    pairs = []
    for pair in sorted(brute_force_pairs(length), key=sorted):
        a, b = sorted(pair) if len(pair) == 2 else (next(iter(pair)),) * 2
        pairs.append((a, b))
    return pairs


@st.composite
def sequence_pairs(draw):
    """Random +/-1 pairs, normalized pairs, true pairs (oracle pairs and
    quadratic-residue pairs under random shift/revert images, a swap), true
    pairs with one +1 and one -1 of a side exchanged, and pairs of different
    lengths; eps = -1 makes even a true pair fail the PSD identity at lag 1."""
    kind = draw(st.sampled_from(["random", "normalized", "true", "near-true", "lengths"]))
    eps = draw(st.sampled_from([EPS, -1.0]))
    if kind in ("true", "near-true"):
        length = draw(st.sampled_from(sorted(set(ORACLE_LENGTHS + QR_PRIMES))))
        if length in ORACLE_LENGTHS:
            a, b = map(BinarySequence, draw(st.sampled_from(oracle_pairs(length))))
        else:
            a = b = qr_sequence(length)
        images = st.tuples(st.integers(0, length - 1), st.booleans())
        a = apply_symmetry(a, *draw(images))
        b = apply_symmetry(b, *draw(images))
        if draw(st.booleans()):
            a, b = b, a
        if kind == "near-true":
            entries = list(b.entries)
            i = draw(st.sampled_from([k for k, e in enumerate(entries) if e == 1]))
            j = draw(st.sampled_from([k for k, e in enumerate(entries) if e == -1]))
            entries[i], entries[j] = -1, 1
            b = BinarySequence(tuple(entries))
        return a, b, eps, kind
    length = draw(st.sampled_from(range(3, 62, 2)))
    if kind == "normalized":
        half = [1] * ((length + 1) // 2) + [-1] * (length // 2)
        sides = [BinarySequence(tuple(draw(st.permutations(half)))) for _ in range(2)]
    else:
        other = length
        if kind == "lengths":
            other = draw(st.sampled_from(range(1, 62, 2)).filter(lambda n: n != length))
        sides = [
            BinarySequence(tuple(draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))))
            for n in (length, other)
        ]
    return sides[0], sides[1], eps, kind


class TestAgainstReference:
    """``verify_pair``, ``BinarySequence.canonical`` and ``pair_class_id`` against
    the per-lag and image-by-image references of ``helpers``."""

    @settings(max_examples=400, deadline=None)
    @given(sequence_pairs())
    def test_verify_pair_equals_reference(self, case):
        a, b, eps, kind = case
        expected = reference_verify_pair(a, b, eps)
        with mock.patch.object(verify, "EPS", eps):
            result = verify_pair(a, b)
        assert type(result) is type(expected)
        assert result == expected
        if result:
            assert all(type(v) is int for v in result.paf_sums)
        else:
            assert type(result.lag) is type(expected.lag)
        if kind == "true":
            assert bool(expected) == (eps > 0)
        for x in (a, b):
            lags = range(1, len(x) // 2 + 1)
            assert x.paf_half.tolist() == [sq.paf(x, s) for s in lags]
            # double-precision sums of l <= 61 unit terms: far inside 1e-9
            assert np.allclose(x.psd_half, [sq.psd(x, s) for s in lags], rtol=0, atol=1e-9)
            assert x.canonical == reference_canonical_string(x)
        assert pair_class_id(a, b) == reference_pair_class_id(a, b)

    def test_quadratic_residue_pairs_are_pairs(self):
        for p in QR_PRIMES:
            q = qr_sequence(p)
            assert verify_pair(q, q) == reference_verify_pair(q, q)
            assert verify_pair(q, q)

    def test_published_pairs_equal_reference(self):
        pairs = [pair_117(i) for i in range(len(kp.PAIRS_117))]
        pairs += [pair_133(i) for i in range(len(kp.RANKS_133))]
        pairs += [
            (decode_indices(129, kp.SUBGROUP_129, ia), decode_indices(129, kp.SUBGROUP_129, ib))
            for ia, ib in kp.PAIRS_129
        ]
        pairs.append(tuple(decode_indices(147, kp.SUBGROUP_147, s) for s in kp.PAIR_147_INDEX_SETS))
        pairs += [
            tuple(decode_rank(147, kp.SUBGROUP_147, kp.COMPOSITION_147, r) for r in ranks)
            for ranks in kp.RANKS_147_LOW_HIGH
        ]
        assert len(pairs) == 21
        for a, b in pairs:
            result = verify_pair(a, b)
            assert result and result == reference_verify_pair(a, b)
        # a cross pairing fails at the reference's first failing lag
        (a1, _), (_, b2) = pairs[0], pairs[1]
        assert verify_pair(a1, b2) == reference_verify_pair(a1, b2)


class TestClassId:
    def test_canonical_string_invariant(self):
        a, _ = pair_117(0)
        assert a.canonical == apply_symmetry(a, 5, True).canonical

    def test_class_id_symmetric_in_order(self):
        a, b = pair_117(0)
        assert pair_class_id(a, b) == pair_class_id(b, a)


class TestCompressionCertificate:
    def test_pair3_matches_published(self):
        a, b = pair_133(2)
        cert = compression_certificate(a, b, 19)
        assert cert.compressed_a == (1, 1, 1, 1, 1, 1, -5)
        assert cert.compressed_b == (-1, -1, 5, -1, 5, 5, -11)
        assert (cert.paf_constant_a, cert.paf_constant_b) == (-5, -33)
        assert (cert.predicted_psd_a, cert.predicted_psd_b) == (36, 232)
        assert cert.lags == (19, 38, 57)

    def test_pair5_matches_published(self):
        a, b = pair_133(4)
        cert = compression_certificate(a, b, 19)
        assert cert.compressed_a == (1, 1, -3, 1, -3, -3, 7)
        assert cert.compressed_b == (-5, -5, 5, -5, 5, 5, 1)
        assert (cert.paf_constant_a, cert.paf_constant_b) == (-13, -25)
        assert (cert.predicted_psd_a, cert.predicted_psd_b) == (92, 176)

    def test_premise_not_met(self):
        a, b = pair_117(0)
        report = compression_certificate(a, b, 13)
        assert isinstance(report, PremiseNotMet) and not report

    def test_divisibility_required(self):
        a, b = pair_117(0)
        with pytest.raises(ValueError):
            compression_certificate(a, b, 5)


class TestHadamard:
    def test_order_8(self):
        a = BinarySequence((1, 1, -1))
        h, _ = hadamard_from_pair(verify_pair(a, a))
        assert h.shape == (8, 8)
        assert np.array_equal(h @ h.T, 8 * np.eye(8, dtype=np.int64))

    def test_order_268(self):
        a, b = pair_133(0)
        h, _ = hadamard_from_pair(verify_pair(a, b))
        assert h.shape == (268, 268)
        assert np.array_equal(h @ h.T, 268 * np.eye(268, dtype=np.int64))

    def test_circulant_rows_are_rolls(self):
        entries = (1, -1, -1, 1, 1, -1, 1)
        expected = np.stack([np.roll(np.array(entries, dtype=np.int64), k) for k in range(7)])
        assert np.array_equal(verify._circulant(entries), expected)

    def test_format_matrix(self):
        h = np.array([[1, -1], [-1, 1]])
        assert format_matrix(h) == "+-\n-+"


class TestSymmetryReduce:
    def test_single_pair_is_one_class(self):
        a, b = pair_117(0)
        classes = symmetry_reduce([verify_pair(a, b)])
        assert len(classes) == 1
        assert classes[0].structure == "K_{1,1}"

    def test_four_cycle(self):
        a, b = pair_117(0)
        sa, sb = apply_symmetry(a, 1, True), apply_symmetry(b, 1, True)
        results = [
            verify_pair(x, y) for x in (a, sa) for y in (b, sb)
        ]
        assert all(results)
        classes = symmetry_reduce(results)
        assert len(classes) == 1
        cls = classes[0]
        assert cls.structure == "K_{2,2}" and cls.complete_bipartite

    def test_classes_closed_under_symmetry(self):
        a, b = pair_117(0)
        base = verify_pair(a, b)
        moved = verify_pair(apply_symmetry(a, 1, True), b)
        classes = symmetry_reduce([base, moved])
        assert len(classes) == 1

    def test_distinct_pairs_distinct_classes(self):
        results = [verify_pair(*pair_117(i)) for i in (0, 1)]
        assert len(symmetry_reduce(results)) == 2


def test_verification_error_is_value_error():
    assert issubclass(VerificationError, ValueError)
