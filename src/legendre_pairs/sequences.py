"""Exact and floating-point kernels on {-1,+1} and integer sequences.

All formula-facing interfaces are 1-indexed, i.e. a sequence ``[a1, ..., al]``
is passed as a Python list whose element 0 is ``a1``.  PAF and residue-sum
computations are exact integer arithmetic; DFT/PSD use double precision with
a per-length table of roots of unity so that repeated evaluations of the same
lag are bit-identical.  ``paf`` and ``psd`` are the per-lag references; a
``BinarySequence`` computes its PAF and PSD vectors and its canonical form
once, with numpy, for verification.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Tolerance for all float-vs-exact comparisons.
EPS = 1e-6

IntSequence = Sequence[int]


class LagError(ValueError):
    """Lag argument outside the valid range for the given sequence."""


@dataclass(frozen=True)
class BinarySequence:
    """A {-1,+1} sequence of odd length.

    ``entries[k]`` holds ``a_{k+1}``.  Under the residue convention used by
    the orbit machinery, position ``i`` corresponds to the residue
    ``i mod l``, so position ``l`` is residue 0.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) % 2 == 0 or not self.entries:
            raise ValueError(f"length must be odd and positive, got {len(self.entries)}")
        if any(e not in (-1, 1) for e in self.entries):
            raise ValueError("entries must be -1 or +1")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, k: int) -> int:
        return self.entries[k]

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    @property
    def normalized(self) -> bool:
        """True when the entry sum is +1 (the standard convention)."""
        return sum(self.entries) == 1

    def pm_string(self) -> str:
        return "".join("+" if e == 1 else "-" for e in self.entries)

    def plus_residues(self) -> frozenset[int]:
        """Residues (elements of Z_l) at which the sequence equals +1."""
        l = len(self.entries)
        return frozenset((k + 1) % l for k, e in enumerate(self.entries) if e == 1)

    # Verification invariants, computed once per object: the join decodes
    # each (plan, rank) once, so all pairs sharing a sequence share these.

    @cached_property
    def paf_half(self) -> np.ndarray:
        """Exact int64 PAF at lags 1..(l-1)/2."""
        x = np.array(self.entries, dtype=np.int64)
        return shift_window(x)[1 : len(x) // 2 + 1] @ x

    @cached_property
    def psd_half(self) -> np.ndarray:
        """PSD at lags 1..(l-1)/2, from the roots of unity at lag * i mod l."""
        l = len(self.entries)
        w = np.array(roots_of_unity(l))
        v = w[np.outer(np.arange(1, l // 2 + 1), np.arange(l)) % l] @ np.array(self.entries)
        return v.real * v.real + v.imag * v.imag

    @cached_property
    def psd_third(self) -> int:
        """Exact PSD at lag l/3; requires 3 | l."""
        return psd_exact_third(self.entries)

    @cached_property
    def canonical(self) -> str:
        """Lexicographically smallest +/- string over all shift/revert images."""
        l = len(self.entries)
        forward = self.pm_string() * 2
        backward = forward[::-1]
        return min(min(forward[i : i + l], backward[i : i + l]) for i in range(l))


@lru_cache(maxsize=None)
def roots_of_unity(length: int) -> tuple[complex, ...]:
    """The l-th roots of unity, w^k for k = 0..l-1, computed once per length."""
    return tuple(cmath.exp(2j * math.pi * k / length) for k in range(length))


def shift_window(x: np.ndarray) -> np.ndarray:
    """Zero-copy view of the doubled sequence whose row s, for 0 <= s <= l,
    is ``x`` cyclically advanced by s: row s, column i holds x[(i + s) mod l]."""
    return sliding_window_view(np.concatenate([x, x]), len(x))


def paf(a: IntSequence, s: int) -> int:
    """Periodic autocorrelation of ``a`` at lag ``s``, exact integers."""
    l = len(a)
    if not 0 <= s < l:
        raise LagError(f"lag {s} out of range [0, {l})")
    return sum(a[i] * a[(i + s) % l] for i in range(l))


def dft(a: IntSequence, s: int) -> complex:
    """DFT of ``a`` at lag ``s`` (1 <= s <= l), summed in ascending index order."""
    l = len(a)
    if not 1 <= s <= l:
        raise LagError(f"lag {s} out of range [1, {l}]")
    w = roots_of_unity(l)
    acc = 0j
    for i in range(l):
        acc += a[i] * w[(s * i) % l]
    return acc


def psd(a: IntSequence, s: int) -> float:
    """Power spectral density |DFT(a, s)|^2; always non-negative."""
    v = dft(a, s)
    return v.real * v.real + v.imag * v.imag


def compress(a: IntSequence, m: int) -> list[int]:
    """m-compression: entry j is the sum of a_{n*i+j} for i = 0..m-1, n = l/m.

    Preserves the entry sum; for a {-1,+1} input every output entry has
    absolute value at most m.
    """
    l = len(a)
    if l % m != 0:
        raise ValueError(f"{m} does not divide the length {l}")
    n = l // m
    return [sum(a[n * i + j] for i in range(m)) for j in range(n)]


def power_sums(a: IntSequence) -> tuple[int, int]:
    """First and second power sums (sum of entries, sum of squares)."""
    return sum(a), sum(e * e for e in a)


def residue_sums_mod3(a: IntSequence) -> tuple[int, int, int]:
    """Sums over positions congruent to 1, 2, 0 (mod 3); requires 3 | l."""
    l = len(a)
    if l % 3 != 0:
        raise ValueError(f"length {l} not divisible by 3")
    a1 = sum(a[0::3])
    a2 = sum(a[1::3])
    a3 = sum(a[2::3])
    return a1, a2, a3


def psd_quadratic_form(a1: int, a2: int, a3: int) -> int:
    """x^2 + y^2 + z^2 - xy - xz - yz, the exact value of PSD at lag l/3."""
    return a1 * a1 + a2 * a2 + a3 * a3 - a1 * a2 - a1 * a3 - a2 * a3


def psd_exact_third(a: IntSequence) -> int:
    """Exact integer PSD at lag l/3 via the mod-3 residue sums."""
    return psd_quadratic_form(*residue_sums_mod3(a))


def cyclic_shift(a: BinarySequence, j: int = 1) -> BinarySequence:
    """Forward cyclic shift by j positions; +1 positions move by +j mod l."""
    l = len(a)
    j %= l
    return BinarySequence(a.entries[-j:] + a.entries[:-j] if j else a.entries)


def revert(a: BinarySequence) -> BinarySequence:
    """Reversal of the sequence; an involution that preserves all PAF values."""
    return BinarySequence(a.entries[::-1])


def apply_symmetry(a: BinarySequence, shift: int, do_revert: bool) -> BinarySequence:
    """Apply the forward shift ``shift`` times, then optionally revert."""
    l = len(a)
    if not 0 <= shift < l:
        raise ValueError(f"shift {shift} out of range [0, {l})")
    out = cyclic_shift(a, shift)
    return revert(out) if do_revert else out
