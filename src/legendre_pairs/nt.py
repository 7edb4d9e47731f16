"""Unit groups mod l, orbit machinery, and the exact PSD spectrum algorithms.

The two central entry points are :func:`spectrum_mod3` (complete spectrum of
admissible PSD value pairs at lag l/3, via all-odd three-squares solutions)
and :func:`orbit_psd_values` (PSD values compatible with a chosen number of
orbits of a multiplier subgroup).  Their intersection is
:func:`admissible_psd_pairs`, the strongest exact pre-filter available to the
search engine.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Sequence

from .sequences import psd_quadratic_form


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of the multiplicative group of units mod ``modulus``."""

    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elems = set(self.elements)
        if 1 not in elems:
            raise ValueError("subgroup must contain 1")
        for x in elems:
            if not 1 <= x < self.modulus:
                raise ValueError(f"element {x} outside 1..{self.modulus - 1}")
            if math.gcd(x, self.modulus) != 1:
                raise ValueError(f"element {x} not coprime to {self.modulus}")
            for y in elems:
                if (x * y) % self.modulus not in elems:
                    raise ValueError("element set not closed under multiplication")
        object.__setattr__(self, "elements", tuple(sorted(elems)))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @classmethod
    def generated_by(cls, modulus: int, generators: Iterable[int]) -> "Subgroup":
        elems = {1}
        frontier = {g % modulus for g in generators}
        while frontier:
            elems |= frontier
            frontier = {
                (x * y) % modulus for x in elems for y in elems
            } - elems
        return cls(modulus, tuple(sorted(elems)))


def unit_group(modulus: int) -> list[int]:
    return [x for x in range(1, modulus) if math.gcd(x, modulus) == 1]


def element_order(x: int, modulus: int) -> int:
    order, acc = 1, x % modulus
    while acc != 1:
        acc = (acc * x) % modulus
        order += 1
    return order


def subgroups_of_order(modulus: int, k: int) -> list[Subgroup]:
    """All order-k subgroups of the units mod ``modulus``.

    Cyclic subgroups come from elements of order k; for k = 4 the subgroups
    generated by pairs of distinct involutions are added, which covers the
    non-cyclic (Klein) case.  Sorted by smallest non-identity element.
    """
    units = unit_group(modulus)
    found: set[tuple[int, ...]] = set()
    if k == 1:
        return [Subgroup(modulus, (1,))]
    for x in units:
        if x != 1 and element_order(x, modulus) == k:
            found.add(Subgroup.generated_by(modulus, [x]).elements)
    if k == 4:
        involutions = [x for x in units if x != 1 and (x * x) % modulus == 1]
        for u, v in permutations(involutions, 2):
            sub = Subgroup.generated_by(modulus, [u, v])
            if len(sub) == 4:
                found.add(sub.elements)
    groups = [Subgroup(modulus, e) for e in found]
    groups.sort(key=lambda g: g.elements[1] if len(g) > 1 else 0)
    return groups


def orbit_residues(orbit: Iterable[int]) -> tuple[int, int, int]:
    """Numbers of the orbit's elements = 0, 1, 2 (mod 3)."""
    residues = [x % 3 for x in orbit]
    return residues.count(0), residues.count(1), residues.count(2)


@dataclass(frozen=True)
class OrbitDecomposition:
    """Orbits of a subgroup H acting on Z_l by multiplication.

    ``orbits`` partitions all of Z_l, zero orbit included, and is sorted by
    ascending minimal representative.  Size classes and residue counts follow
    the published convention and cover only the nonzero orbits; the orbit of
    0 is handled separately by the decoder (it always receives the polarity
    opposite to the chosen orbits).
    """

    subgroup: Subgroup
    orbits: tuple[tuple[int, ...], ...]
    #: distinct sizes of nonzero orbits, ascending
    sizes: tuple[int, ...] = field(init=False)
    #: size -> number of nonzero orbits of that size
    size_counts: dict[int, int] = field(init=False)
    #: (size, numbers of elements = 0, 1, 2 (mod 3)) -> number of nonzero orbits
    residue_counts: dict[tuple[int, tuple[int, int, int]], int] = field(init=False)
    #: every orbit but the orbit of 0
    nonzero_orbits: tuple[tuple[int, ...], ...] = field(init=False, compare=False)
    #: size -> nonzero orbits of that size, ascending minimal representative
    orbits_by_size: dict[int, tuple[tuple[int, ...], ...]] = field(init=False, compare=False)
    #: minimal representative -> its nonzero orbit
    orbit_of_rep: dict[int, tuple[int, ...]] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        nonzero = tuple(orb for orb in self.orbits if orb != (0,))
        sizes = tuple(sorted({len(orb) for orb in nonzero}))
        by_size = {size: tuple(orb for orb in nonzero if len(orb) == size) for size in sizes}
        object.__setattr__(self, "nonzero_orbits", nonzero)
        object.__setattr__(self, "orbits_by_size", by_size)
        object.__setattr__(self, "orbit_of_rep", {orb[0]: orb for orb in nonzero})
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "size_counts", {size: len(by_size[size]) for size in sizes})
        rc = Counter((len(orb), orbit_residues(orb)) for orb in nonzero)
        object.__setattr__(self, "residue_counts", rc)

    @property
    def modulus(self) -> int:
        return self.subgroup.modulus

    def orbits_of_size(self, size: int) -> tuple[tuple[int, ...], ...]:
        """Nonzero orbits of one size, ascending minimal representative."""
        return self.orbits_by_size.get(size, ())


def representative_lags(decomp: OrbitDecomposition) -> list[int]:
    """One lag per orbit of <H, -1> acting on 1..(l-1)/2.

    PSD is constant on these classes for orbit-closed sequences, so the
    bound test only needs the representatives.
    """
    length = decomp.modulus
    half = (length - 1) // 2
    seen = set()
    reps = []
    for k in range(1, half + 1):
        if k in seen:
            continue
        orbit = set()
        frontier = {k, length - k}
        while frontier:
            orbit |= frontier
            frontier = {
                (h * x) % length for h in decomp.subgroup for x in orbit
            } - orbit
        reps.append(k)
        seen |= {x if x <= half else length - x for x in orbit}
    return reps


@lru_cache(maxsize=256)
def orbit_decomposition(modulus: int, subgroup: Subgroup) -> OrbitDecomposition:
    """Decompose Z_l into orbits under multiplication by the subgroup."""
    if subgroup.modulus != modulus:
        raise ValueError("subgroup modulus mismatch")
    seen = [False] * modulus
    orbits = []
    for start in range(modulus):
        if seen[start]:
            continue
        orb = sorted({(start * h) % modulus for h in subgroup})
        for x in orb:
            seen[x] = True
        orbits.append(tuple(orb))
    orbits.sort(key=lambda o: o[0])
    return OrbitDecomposition(subgroup, tuple(orbits))


def three_squares_all_odd(n: int) -> list[tuple[int, int, int]]:
    """All-odd positive triples x <= y <= z with x^2 + y^2 + z^2 = n.

    Complete up to order and sign, by direct enumeration.  All-odd solutions
    require n = 3 (mod 8); for other n the list is empty.
    """
    out = []
    x = 1
    while 3 * x * x <= n:
        y = x
        while x * x + 2 * y * y <= n:
            rest = n - x * x - y * y
            z = math.isqrt(rest)
            if z * z == rest and z >= y and z % 2 == 1:
                out.append((x, y, z))
            y += 2
        x += 2
    return out


def signed_assignments(triple: Sequence[int]) -> list[tuple[int, int, int]]:
    """All signed orderings of a triple whose entries sum to 1."""
    out = set()
    for perm in permutations(triple):
        for signs in product((1, -1), repeat=3):
            cand = tuple(s * v for s, v in zip(signs, perm))
            if sum(cand) == 1:
                out.add(cand)
    return sorted(out)


@dataclass(frozen=True)
class SpectrumEntry:
    """One candidate pair of PSD values at lag l/3 with its all-odd triples,
    witness assignments and verdict, kept or discarded."""

    psd_pair: tuple[int, int]
    square_sum_a: int
    square_sum_b: int
    triples_a: tuple[tuple[int, int, int], ...]
    triples_b: tuple[tuple[int, int, int], ...]
    witnesses_a: tuple[tuple[int, int, int], ...]
    witnesses_b: tuple[tuple[int, int, int], ...]
    admissible: bool
    reason: str


def spectrum_candidates(length: int) -> list[SpectrumEntry]:
    """All candidate PSD value pairs at lag l/3, each with its verdict.

    Candidates are [12s+4, 2l+2-(12s+4)] for ascending s, canonicalized so
    the smaller value comes first, each unordered pair reported once.
    """
    if length % 2 == 0 or length % 3 != 0:
        raise ValueError(f"length must be odd and divisible by 3, got {length}")
    rows = []
    seen = set()
    for s in range(0, (length - 1) // 6 + 1):
        a_hat = 12 * s + 4
        b_hat = 2 * length + 2 - a_hat
        pair = (min(a_hat, b_hat), max(a_hat, b_hat))
        if pair in seen:
            continue
        seen.add(pair)
        sq_a = (2 * pair[0] + 1) // 3
        sq_b = (2 * pair[1] + 1) // 3
        triples_a = tuple(three_squares_all_odd(sq_a))
        triples_b = tuple(three_squares_all_odd(sq_b))
        wit_a = tuple(w for t in triples_a for w in signed_assignments(t))
        wit_b = tuple(w for t in triples_b for w in signed_assignments(t))
        if not triples_a or not triples_b:
            admissible, reason = False, "no all-odd three-squares solution"
        elif not wit_a or not wit_b:
            admissible, reason = False, "no compatible assignments"
        else:
            admissible, reason = True, ""
        rows.append(
            SpectrumEntry(pair, sq_a, sq_b, triples_a, triples_b, wit_a, wit_b, admissible, reason)
        )
    rows.sort(key=lambda r: r.psd_pair)
    return rows


def spectrum_mod3(length: int) -> list[SpectrumEntry]:
    """The complete admissible spectrum of PSD value pairs at lag l/3."""
    return [r for r in spectrum_candidates(length) if r.admissible]


def third_psd_from_counts(length: int, residue_counts: Iterable[Sequence[int]]) -> int:
    """Exact PSD at lag l/3 from the residues mod 3 of the marked positions.

    Each item gives the numbers of marked positions = 0, 1, 2 (mod 3) in one
    orbit, or in one group of orbits.  The marked positions hold one sign and
    every other position, 0 included, the opposite sign; the value is the same
    for either sign.  Counts given as arrays, one entry per candidate, give
    an array of values.
    """
    m = length // 3
    k0 = k1 = k2 = 0
    for n0, n1, n2 in residue_counts:
        k0 += n0
        k1 += n1
        k2 += n2
    return psd_quadratic_form(2 * k1 - m, 2 * k2 - m, 2 * k0 - m)


def orbit_psd_values(decomp: OrbitDecomposition, counts: Sequence[int]) -> list[int]:
    """PSD values at lag l/3 of the unions of counts[i] orbits of each size.

    ``counts`` is indexed by the ascending nonzero orbit sizes of the
    decomposition.  The value depends only on the residue counts of the
    chosen orbits, so within a size class only the number of chosen orbits of
    each residue-count vector matters.  The result is the same whether the
    chosen orbits mark the +1 or the -1 positions.
    """
    length = decomp.modulus
    if length % 3 != 0:
        raise ValueError("length not divisible by 3")
    sizes = decomp.sizes
    if len(counts) != len(sizes):
        raise ValueError(f"expected {len(sizes)} counts for sizes {sizes}")
    per_class = []
    for c, size in zip(counts, sizes):
        if not 0 <= c <= decomp.size_counts[size]:
            raise ValueError(f"count {c} out of range for size-{size} orbits")
        groups = [(vec, n) for (s, vec), n in decomp.residue_counts.items() if s == size]
        sums = set()
        # picks[i] orbits of vector i are chosen; the last vector takes the rest
        for picks in product(*(range(min(c, n) + 1) for _, n in groups[:-1])):
            picks += (c - sum(picks),)
            if 0 <= picks[-1] <= groups[-1][1]:
                sums.add(tuple(sum(k * vec[j] for k, (vec, _) in zip(picks, groups)) for j in range(3)))
        per_class.append(sums)
    return sorted({third_psd_from_counts(length, combo) for combo in product(*per_class)})


def admissible_psd_pairs(
    length: int, subgroup: Subgroup, counts: Sequence[int]
) -> list[SpectrumEntry]:
    """Spectrum entries whose both values are achievable with the given orbits."""
    decomp = orbit_decomposition(length, subgroup)
    achievable = set(orbit_psd_values(decomp, counts))
    return [
        e
        for e in spectrum_mod3(length)
        if e.psd_pair[0] in achievable and e.psd_pair[1] in achievable
    ]
