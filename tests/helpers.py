"""Shared decoding helpers, reference symmetry and multiplier checks,
per-lag reference verifiers and the reference join for the test suite."""

from __future__ import annotations

import math
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from legendre_pairs import sequences as sq
from legendre_pairs.nt import OrbitDecomposition, Subgroup, orbit_decomposition
from legendre_pairs.search import CandidateRecord, MatchResult, SearchPlan
from legendre_pairs.sequences import EPS, BinarySequence, cyclic_shift, revert
from legendre_pairs.verify import LegendrePairResult, PairFailure, verify_pair
from legendre_pairs.ranking import (
    Composition,
    OrbitSelection,
    decode_selection,
    indices_to_selection,
    parse_composition,
    rank_to_selection,
    subset_rank,
)


def pm(text: str) -> BinarySequence:
    """The sequence of a ``+``/``-`` string such as ``"++-"``."""
    return BinarySequence(tuple({"+": 1, "-": -1}[c] for c in text))


def decode_union(decomp: OrbitDecomposition, chosen: Sequence[int], value: int) -> BinarySequence:
    """Unchecked reference decoder: the union of the chosen orbits, of any
    coverage, gets ``value`` and every other position the opposite."""
    covered = {x for r in chosen for x in decomp.orbit_of_rep[r]}
    length = decomp.modulus
    return BinarySequence(tuple(value if i % length in covered else -value for i in range(1, length + 1)))


def selection_to_rank(sel: OrbitSelection, comp: Composition) -> int:
    """Mixed-radix rank of an orbit selection; the inverse of rank_to_selection."""
    chosen = set(sel.chosen)
    rank = 0
    for size, count in comp:
        class_orbits = sel.decomp.orbits_of_size(size)
        indices = [i + 1 for i, orb in enumerate(class_orbits) if orb[0] in chosen]
        if len(indices) != count:
            raise ValueError(f"selection has {len(indices)} size-{size} orbits, composition says {count}")
        rank = rank * math.comb(len(class_orbits), count) + subset_rank(indices, len(class_orbits))
    return rank


def symmetry_images(a: BinarySequence) -> Iterator[BinarySequence]:
    """All 2*l shift/revert images of a sequence."""
    for j in range(len(a)):
        shifted = cyclic_shift(a, j)
        yield shifted
        yield revert(shifted)


def is_multiplier(modulus: int, t: int, positions: Iterable[int]) -> tuple[bool, int | None]:
    """Whether t*I = I + g for some shift g; returns (flag, smallest g)."""
    if math.gcd(t, modulus) != 1:
        raise ValueError(f"{t} not coprime to {modulus}")
    base = frozenset(x % modulus for x in positions)
    mapped = frozenset((t * x) % modulus for x in base)
    for g in range(modulus):
        if mapped == frozenset((x + g) % modulus for x in base):
            return True, g
    return False, None


def decomp_for(length: int, subgroup: tuple[int, ...]):
    return orbit_decomposition(length, Subgroup(length, subgroup))


def decode_indices(
    length: int, subgroup: tuple[int, ...], indices, polarity: int = 1
) -> BinarySequence:
    """Decode an index set of orbit representatives into a sequence."""
    decomp = decomp_for(length, subgroup)
    return decode_selection(indices_to_selection(decomp, sorted(indices), polarity))


def decode_rank(
    length: int,
    subgroup: tuple[int, ...],
    composition: str,
    rank: int,
    polarity: int = 1,
) -> BinarySequence:
    """Decode a mixed-radix rank into a sequence."""
    decomp = decomp_for(length, subgroup)
    comp = parse_composition(composition)
    return decode_selection(rank_to_selection(rank, decomp, comp, polarity))


def polarity_of(length: int, composition: str) -> int:
    """The polarity implied by a composition's coverage."""
    from legendre_pairs.ranking import coverage

    return 1 if coverage(parse_composition(composition)) == (length + 1) // 2 else -1


def rank_indices(
    length: int, subgroup: tuple[int, ...], composition: str, rank: int
) -> tuple[int, ...]:
    """The orbit representatives selected by a rank."""
    decomp = decomp_for(length, subgroup)
    comp = parse_composition(composition)
    return rank_to_selection(rank, decomp, comp, polarity_of(length, composition)).chosen


def reference_canonical_string(a: BinarySequence) -> str:
    """Smallest +/- string over the 2l shift/revert images, image by image."""
    return min(img.pm_string() for img in symmetry_images(a))


def reference_pair_class_id(a: BinarySequence, b: BinarySequence) -> tuple[str, str]:
    ca, cb = reference_canonical_string(a), reference_canonical_string(b)
    return (ca, cb) if ca <= cb else (cb, ca)


def reference_verify_pair(
    a: BinarySequence, b: BinarySequence, eps: float = EPS
) -> LegendrePairResult | PairFailure:
    """``verify_pair`` lag by lag from ``sequences.paf`` and ``sequences.psd``."""
    if len(a) != len(b):
        return PairFailure(f"length mismatch: {len(a)} vs {len(b)}")
    length = len(a)
    if not a.normalized or not b.normalized:
        return PairFailure("sequences must sum to +1")
    half = (length - 1) // 2
    sums = []
    for s in range(1, half + 1):
        total = sq.paf(a, s) + sq.paf(b, s)
        if total != -2:
            return PairFailure(f"PAF sum {total} != -2", lag=s)
        sums.append(total)
    bound = 2 * length + 2
    for s in range(1, half + 1):
        if abs(sq.psd(a, s) + sq.psd(b, s) - bound) > eps:
            return PairFailure("PSD complement identity violated", lag=s)
    psd_third = None
    if length % 3 == 0:
        psd_third = (sq.psd_exact_third(a), sq.psd_exact_third(b))
    return LegendrePairResult(a, b, tuple(sums), psd_third, reference_pair_class_id(a, b))


def reference_join(
    record_sets: Sequence[tuple[SearchPlan, Iterable[CandidateRecord]]],
) -> list[MatchResult]:
    """``search.match_candidates`` as one in-memory sort of every record's two
    tagged sides, ``(fp, side, plan index, rank)``, with fp1 tagged 0 and fp2
    tagged 1; each unordered pair of a fingerprint group is reported once."""
    plans = [plan for plan, _ in record_sets]
    entries = sorted(
        entry
        for pi, (_, records) in enumerate(record_sets)
        for rec in records
        for entry in ((rec.fp1, 0, pi, rec.rank), (rec.fp2, 1, pi, rec.rank))
    )
    results = []
    seen = set()
    for _, group in groupby(entries, key=itemgetter(0)):
        sides: tuple[list, list] = ([], [])
        for _, side, pi, rank in group:
            sides[side].append((pi, rank))
        for ka in sides[0]:
            for kb in sides[1]:
                pair_key = (ka, kb) if ka <= kb else (kb, ka)
                if pair_key not in seen:
                    seen.add(pair_key)
                    res = verify_pair(plans[ka[0]].decode(ka[1]), plans[kb[0]].decode(kb[1]))
                    results.append(MatchResult(plans[ka[0]], ka[1], plans[kb[0]], kb[1], res if res else None))
    return results
