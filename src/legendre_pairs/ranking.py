"""Lexicographic ranking/unranking of k-subsets and orbit-selection decoding.

This is the bridge between published rank integers and concrete sequences:
a rank addresses, per orbit-size class, a lex-ordered subset of that class's
orbits (orbits ordered by ascending minimal representative), and the chosen
orbits mark the positions of one polarity.  The residue 0 always takes the
opposite polarity, so decoded sequences sum to +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb
from typing import Iterator, Sequence

from .nt import OrbitDecomposition
from .sequences import BinarySequence


def subset_unrank(rank: int, k: int, n: int) -> tuple[int, ...]:
    """The rank-th k-subset of {1..n} in lexicographic order (ranks from 0)."""
    total = comb(n, k)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range [0, {total})")
    out = []
    x = 1
    for i in range(k):
        while rank >= comb(n - x, k - i - 1):
            rank -= comb(n - x, k - i - 1)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def subset_rank(subset: Sequence[int], n: int) -> int:
    """Lexicographic rank of a k-subset of {1..n}; inverse of subset_unrank."""
    s = sorted(subset)
    k = len(s)
    if s and (s[0] < 1 or s[-1] > n):
        raise ValueError(f"subset elements must lie in 1..{n}")
    if len(set(s)) != k:
        raise ValueError("subset elements must be distinct")
    rank = 0
    prev = 0
    for i, x in enumerate(s):
        for y in range(prev + 1, x):
            rank += comb(n - y, k - i - 1)
        prev = x
    return rank


#: orbit counts per size class, ascending size, e.g. ((1, 2), (3, 19))
Composition = tuple[tuple[int, int], ...]


def parse_composition(text: str) -> Composition:
    """Parse a composition such as ``2x1+19x3`` (count x orbit-size terms)."""
    terms = []
    for part in text.split("+"):
        count_str, _, size_str = part.strip().partition("x")
        terms.append((int(size_str), int(count_str)))
    terms.sort()
    if len({size for size, _ in terms}) != len(terms):
        raise ValueError(f"duplicate size class in composition {text!r}")
    return tuple(terms)


def format_composition(comp: Composition) -> str:
    return "+".join(f"{count}x{size}" for size, count in comp)


def composition_counts(decomp: OrbitDecomposition, comp: Composition) -> tuple[int, ...]:
    """Counts vector indexed by the decomposition's ascending size classes."""
    by_size = dict(comp)
    return tuple(by_size.get(size, 0) for size in decomp.sizes)


def coverage(comp: Composition) -> int:
    return sum(size * count for size, count in comp)


def space_size(decomp: OrbitDecomposition, comp: Composition) -> int:
    """Number of orbit selections addressed by the composition."""
    total = 1
    for size, count in comp:
        available = decomp.size_counts.get(size, 0)
        if count > available:
            raise ValueError(f"composition asks for {count} size-{size} orbits, only {available} exist")
        total *= comb(available, count)
    return total


_POLARITY_NAMES = {1: "plus", -1: "minus"}


def format_polarity(polarity: int) -> str:
    """``plus`` or ``minus`` for the value +1 or -1 placed on the chosen orbits."""
    try:
        return _POLARITY_NAMES[polarity]
    except KeyError:
        raise ValueError(f"polarity must be +1 or -1, got {polarity!r}") from None


def parse_polarity(name: str) -> int:
    """Inverse of :func:`format_polarity`; any other string is an error."""
    for polarity, known in _POLARITY_NAMES.items():
        if name == known:
            return polarity
    raise ValueError(f"polarity must be plus or minus, got {name!r}")


def coverage_target(length: int, polarity: int) -> int:
    """Positions the chosen orbits must cover so that decoded sequences sum to +1.

    That is (l+1)/2 when they mark +1's and (l-1)/2 when they mark -1's.
    """
    format_polarity(polarity)  # rejects anything but +1 and -1
    return (length + polarity) // 2


def compositions_for(decomp: OrbitDecomposition, polarity: int) -> list[Composition]:
    """All compositions whose coverage matches the polarity's target size."""
    target = coverage_target(decomp.modulus, polarity)
    sizes = decomp.sizes
    ranges = [range(decomp.size_counts[s] + 1) for s in sizes]
    out = []
    for counts in product(*ranges):
        if sum(s * c for s, c in zip(sizes, counts)) == target:
            out.append(tuple((s, c) for s, c in zip(sizes, counts)))
    return out


@dataclass(frozen=True)
class OrbitSelection:
    """A choice of orbits marking the positions of one polarity value."""

    decomp: OrbitDecomposition
    chosen: tuple[int, ...]  # minimal representatives, sorted
    polarity: int  # +1 or -1: the value placed on the chosen orbits

    def __post_init__(self) -> None:
        target = coverage_target(self.decomp.modulus, self.polarity)
        if len(set(self.chosen)) != len(self.chosen):
            raise ValueError(f"orbit representatives repeat in {list(self.chosen)}")
        orbit_of_rep = self.decomp.orbit_of_rep
        covered = 0
        for r in self.chosen:
            if r not in orbit_of_rep:
                raise ValueError(f"{r} is not a nonzero orbit representative")
            covered += len(orbit_of_rep[r])
        if covered != target:
            raise ValueError(
                f"chosen orbits cover {covered} positions, need {target} for polarity {self.polarity:+d}"
            )


def decode_selection(sel: OrbitSelection) -> BinarySequence:
    """Decode an orbit selection into a normalized {-1,+1} sequence: the
    chosen orbits get the polarity, every other position the opposite."""
    length = sel.decomp.modulus
    covered = {x for r in sel.chosen for x in sel.decomp.orbit_of_rep[r]}
    value = sel.polarity
    return BinarySequence(tuple(value if i % length in covered else -value for i in range(1, length + 1)))


def composition_orbits(decomp: OrbitDecomposition, comp: Composition) -> tuple[tuple[int, ...], ...]:
    """The orbits a composition draws from: its size classes in order, each
    in ascending minimal representative.  Selections are positions in it."""
    return tuple(orb for size, _ in comp for orb in decomp.orbits_of_size(size))


def _rank_to_positions(rank: int, decomp: OrbitDecomposition, comp: Composition) -> list[int]:
    """Positions in ``composition_orbits`` of the orbits a rank selects.

    Size classes are taken in ascending size order with the first class most
    significant; within a class the rank addresses the lex-ordered subset of
    that class's orbits.
    """
    total = space_size(decomp, comp)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range [0, {total})")
    digits = []
    for size, count in reversed(comp):
        radix = comb(decomp.size_counts.get(size, 0), count)
        digits.append(rank % radix)
        rank //= radix
    digits.reverse()
    positions: list[int] = []
    start = 0
    for (size, count), digit in zip(comp, digits):
        available = len(decomp.orbits_of_size(size))
        positions.extend(start + idx - 1 for idx in subset_unrank(digit, count, available))
        start += available
    return positions


def rank_to_selection(
    rank: int, decomp: OrbitDecomposition, comp: Composition, polarity: int
) -> OrbitSelection:
    """Decode a mixed-radix rank into an orbit selection."""
    orbits = composition_orbits(decomp, comp)
    chosen = sorted(orbits[p][0] for p in _rank_to_positions(rank, decomp, comp))
    return OrbitSelection(decomp, tuple(chosen), polarity)


def lex_walk(
    rank: int, count: int, decomp: OrbitDecomposition, comp: Composition
) -> Iterator[tuple[int, ...]]:
    """Selections of the ``count`` >= 1 ranks from ``rank`` on, in rank order,
    as positions in ``composition_orbits`` (size class by size class).

    Unranks the first rank once, then steps by lex successor: the last size
    class advances, and a class that has run through its subsets starts over
    and carries into the class before it.
    """
    chosen = _rank_to_positions(rank, decomp, comp)
    classes = []  # (first slot, end slot, first position, end position)
    slot = start = 0
    for size, k in comp:
        available = len(decomp.orbits_of_size(size))
        classes.append((slot, slot + k, start, start + available))
        slot += k
        start += available
    classes.reverse()
    yield tuple(chosen)
    for _ in range(count - 1):
        for first, end, bottom, top in classes:
            # the last slot of the class that can still move up, and its ceiling
            i, ceiling = end - 1, top - 1
            while i >= first and chosen[i] == ceiling:
                i -= 1
                ceiling -= 1
            if i >= first:
                chosen[i:end] = range(chosen[i] + 1, chosen[i] + 1 + end - i)
                break
            chosen[first:end] = range(bottom, bottom + end - first)
        yield tuple(chosen)


def rank_to_sequence(
    rank: int, decomp: OrbitDecomposition, comp: Composition, polarity: int
) -> BinarySequence:
    """Deterministic bijection from [0, space size) to candidate sequences."""
    return decode_selection(rank_to_selection(rank, decomp, comp, polarity))


def indices_to_selection(
    decomp: OrbitDecomposition, indices: Sequence[int], polarity: int
) -> OrbitSelection:
    """Build a selection from explicit orbit representatives (published I sets)."""
    return OrbitSelection(decomp, tuple(sorted(indices)), polarity)
