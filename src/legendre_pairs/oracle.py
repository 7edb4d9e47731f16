"""Brute-force reference for small lengths.

Enumerates every normalized {-1,+1} sequence directly from the definition and
joins on complementary PAF profiles, with no PSD filtering or orbit
structure, so it is an independent ground truth for the search pipeline.
Feasible up to roughly l = 17.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .nt import Subgroup
from .sequences import BinarySequence


def _paf_profiles(seqs: list[BinarySequence], length: int) -> np.ndarray:
    """PAF values at lags 1..(l-1)/2 for each sequence, one row per sequence."""
    arr = np.array([s.entries for s in seqs], dtype=np.int64).reshape(len(seqs), length)
    half = (length - 1) // 2
    profiles = np.empty((len(seqs), half), dtype=np.int64)
    for lag in range(1, half + 1):
        profiles[:, lag - 1] = np.sum(arr * np.roll(arr, -lag, axis=1), axis=1)
    return profiles


def brute_force_pairs(
    length: int, subgroup: Subgroup | None = None
) -> set[frozenset[tuple[int, ...]]]:
    """All normalized Legendre pairs of the given length, as unordered pairs.

    With a subgroup given, both sequences are additionally required to have
    orbit-closed +1 position sets (h * I = I for every subgroup element),
    matching the union-of-orbits search space.
    """
    seqs = []  # every sequence summing to +1
    for plus_positions in combinations(range(length), (length + 1) // 2):
        entries = [-1] * length
        for p in plus_positions:
            entries[p] = 1
        seqs.append(BinarySequence(tuple(entries)))
    if subgroup is not None:
        kept = []
        for s in seqs:
            plus = s.plus_residues()
            if all(frozenset((h * x) % length for x in plus) == plus for h in subgroup):
                kept.append(s)
        seqs = kept
    profiles = _paf_profiles(seqs, length)
    by_profile: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(profiles):
        by_profile.setdefault(tuple(row), []).append(i)
    pairs: set[frozenset[tuple[int, ...]]] = set()
    for profile, indices in by_profile.items():
        complement = tuple(-2 - v for v in profile)
        partners = by_profile.get(complement)
        if not partners:
            continue
        for i in indices:
            for j in partners:
                if complement == profile and j < i:
                    continue  # unordered pair seen from the other side
                pairs.add(frozenset((seqs[i].entries, seqs[j].entries)))
    return pairs
