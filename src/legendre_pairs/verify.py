"""Exact verification of Legendre pairs, compression certificates, symmetry
classes, and Hadamard matrix construction.

All accept/reject decisions are exact integer checks; floating-point PSD
identities are asserted as an additional consistency layer within EPS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import sequences as sq
from .sequences import BinarySequence, EPS


class VerificationError(ValueError):
    """A pair presented as verified fails an exact check."""


@dataclass(frozen=True)
class PairFailure:
    """Why a candidate pair is not a Legendre pair."""

    reason: str
    lag: int | None = None

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class LegendrePairResult:
    """A verified Legendre pair with its exact certificates."""

    a: BinarySequence
    b: BinarySequence
    paf_sums: tuple[int, ...]  # over lags 1..(l-1)/2, each -2
    psd_third: tuple[int, int] | None  # exact PSD values at lag l/3, when 3 | l
    class_id: tuple[str, str]  # canonical shift/revert/swap representative

    def __bool__(self) -> bool:
        return True

    @property
    def length(self) -> int:
        return len(self.a)


def pair_class_id(a: BinarySequence, b: BinarySequence) -> tuple[str, str]:
    """Canonical id of the pair's class under per-side shift/revert and swap."""
    ca, cb = a.canonical, b.canonical
    return (ca, cb) if ca <= cb else (cb, ca)


def verify_pair(a: BinarySequence, b: BinarySequence) -> LegendrePairResult | PairFailure:
    """Exact check that (a, b) is a normalized Legendre pair.

    Requires PAF(a,s) + PAF(b,s) = -2 for every lag 1..(l-1)/2 in integer
    arithmetic; on success also asserts the complementary PSD identity at
    every such lag within ``EPS``.  A failure names the first failing lag.  The
    PAF and PSD vectors, lag-l/3 values and canonical forms are computed once
    per sequence object (``BinarySequence.paf_half``, ``psd_half``,
    ``psd_third``, ``canonical``).
    """
    if len(a) != len(b):
        return PairFailure(f"length mismatch: {len(a)} vs {len(b)}")
    length = len(a)
    if not a.normalized or not b.normalized:
        return PairFailure("sequences must sum to +1")
    sums = a.paf_half + b.paf_half
    (off,) = (sums != -2).nonzero()
    if off.size:
        return PairFailure(f"PAF sum {sums[off[0]]} != -2", lag=int(off[0]) + 1)
    (off,) = (np.abs(a.psd_half + b.psd_half - (2 * length + 2)) > EPS).nonzero()
    if off.size:
        return PairFailure("PSD complement identity violated", lag=int(off[0]) + 1)
    psd_third = (a.psd_third, b.psd_third) if length % 3 == 0 else None
    return LegendrePairResult(a, b, tuple(sums.tolist()), psd_third, pair_class_id(a, b))


@dataclass(frozen=True)
class CompressionCertificate:
    """Constant-PAF compression certificate predicting integer PSD values."""

    m: int
    n: int
    compressed_a: tuple[int, ...]
    compressed_b: tuple[int, ...]
    paf_constant_a: int
    paf_constant_b: int
    predicted_psd_a: int
    predicted_psd_b: int
    lags: tuple[int, ...]  # multiples of m where the predictions hold


@dataclass(frozen=True)
class PremiseNotMet:
    """The compressed sequences are not both constant-PAF."""

    m: int
    compressed_a: tuple[int, ...]
    compressed_b: tuple[int, ...]
    reason: str

    def __bool__(self) -> bool:
        return False


def compression_certificate(
    a: BinarySequence, b: BinarySequence, m: int
) -> CompressionCertificate | PremiseNotMet:
    """Certificate that the m-compression forces integer PSDs at multiples of m.

    Checks that both compressed sequences have one constant PAF value over
    lags 1..(n-1)/2 with the two constants summing to -2m; when that holds,
    the PSD of the original pair at lags m, 2m, ..., m*(n-1)/2 equals the
    second power sum minus the PAF constant, which is verified against the
    floating-point PSD within ``EPS``.
    """
    length = len(a)
    if length % m != 0:
        raise ValueError(f"{m} does not divide {length}")
    n = length // m
    ca = tuple(sq.compress(a.entries, m))
    cb = tuple(sq.compress(b.entries, m))
    half = (n - 1) // 2
    pafs_a = {sq.paf(ca, s) for s in range(1, half + 1)}
    pafs_b = {sq.paf(cb, s) for s in range(1, half + 1)}
    if len(pafs_a) != 1 or len(pafs_b) != 1:
        return PremiseNotMet(m, ca, cb, "compressed sequences are not constant-PAF")
    const_a, const_b = pafs_a.pop(), pafs_b.pop()
    if const_a + const_b != -2 * m:
        return PremiseNotMet(m, ca, cb, f"PAF constants sum to {const_a + const_b}, expected {-2 * m}")
    pred_a = sq.power_sums(ca)[1] - const_a
    pred_b = sq.power_sums(cb)[1] - const_b
    lags = tuple(m * s for s in range(1, half + 1))
    for lag in lags:
        if abs(sq.psd(a, lag) - pred_a) > EPS or abs(sq.psd(b, lag) - pred_b) > EPS:
            raise VerificationError(f"predicted PSD does not match float PSD at lag {lag}")
    return CompressionCertificate(m, n, ca, cb, const_a, const_b, pred_a, pred_b, lags)


def _circulant(entries: Sequence[int]) -> np.ndarray:
    """Row k is the sequence rolled forward by k, a view of the shift window."""
    l = len(entries)
    return sq.shift_window(np.array(entries, dtype=np.int64))[l:0:-1]


def hadamard_from_pair(
    result: LegendrePairResult,
) -> tuple[np.ndarray, int]:
    """Bordered two-circulant-core Hadamard matrix of order 2l+2, and its
    template variant, always 0.

    The core blocks are the circulants A and B of the two sequences.  Rows
    of [A B] and of [B^T -A^T] are orthogonal to each other because
    circulants commute, rows within each because PAF_A + PAF_B = -2, and the
    border rows to the rest because both sequences sum to 1.  The exact check
    H H^T = (2l+2) I guards this, and a failure raises.
    """
    length = result.length
    order = 2 * length + 2
    core_a = _circulant(result.a.entries)
    core_b = _circulant(result.b.entries)
    ones = np.ones((length, 1), dtype=np.int64)
    h = np.block(
        [
            [np.array([[1, 1]]), -ones.T, -ones.T],
            [np.array([[1, -1]]), -ones.T, ones.T],
            [ones, ones, core_a, core_b],
            [ones, -ones, core_b.T, -core_a.T],
        ]
    ).astype(np.int64)
    if not np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64)):
        raise VerificationError("the two-circulant-core template is not orthogonal")
    return h, 0


def format_matrix(h: np.ndarray) -> str:
    """Render a +/-1 matrix as a text grid of + and - characters."""
    return "\n".join("".join("+" if v == 1 else "-" for v in row) for row in h)


@dataclass(frozen=True)
class SymmetryClass:
    """One equivalence class of pairs under shift/revert/swap."""

    class_id: tuple[str, str]
    pairs: tuple[tuple[BinarySequence, BinarySequence], ...]
    left: tuple[BinarySequence, ...]
    right: tuple[BinarySequence, ...]
    complete_bipartite: bool

    @property
    def structure(self) -> str:
        """K_{r,s} label of the bipartite graph formed by the member pairs."""
        return f"K_{{{len(self.left)},{len(self.right)}}}"


def symmetry_reduce(
    pairs: Sequence[LegendrePairResult],
) -> list[SymmetryClass]:
    """Group pairs into shift/revert/swap classes and report their structure.

    Within one class, the member pairs form a bipartite graph on the distinct
    sequences appearing on either side; complete bipartite K_{r,r} structure
    (four-cycles when r = 2) is detected and reported.
    """
    groups: dict[tuple[str, str], list[LegendrePairResult]] = {}
    for p in pairs:
        groups.setdefault(p.class_id, []).append(p)
    out = []
    for class_id, members in sorted(groups.items()):
        ca, _ = class_id
        left: dict[tuple[int, ...], BinarySequence] = {}
        right: dict[tuple[int, ...], BinarySequence] = {}
        edges = set()
        for p in members:
            # orient each pair so its left side matches the class's first
            # canonical string (arbitrary but consistent within the class)
            if p.a.canonical == ca:
                l_seq, r_seq = p.a, p.b
            else:
                l_seq, r_seq = p.b, p.a
            left.setdefault(l_seq.entries, l_seq)
            right.setdefault(r_seq.entries, r_seq)
            edges.add((l_seq.entries, r_seq.entries))
        complete = len(edges) == len(left) * len(right)
        out.append(
            SymmetryClass(
                class_id,
                tuple((p.a, p.b) for p in members),
                tuple(left.values()),
                tuple(right.values()),
                complete,
            )
        )
    return out
