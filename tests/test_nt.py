"""Unit groups, orbits, three-squares solver and the exact PSD spectrum."""

from collections import defaultdict
from itertools import combinations_with_replacement

import pytest

from legendre_pairs.nt import (
    Subgroup,
    admissible_psd_pairs,
    orbit_decomposition,
    orbit_psd_values,
    representative_lags,
    signed_assignments,
    spectrum_candidates,
    spectrum_mod3,
    subgroups_of_order,
    three_squares_all_odd,
    unit_group,
)
from legendre_pairs.ranking import (
    composition_counts,
    compositions_for,
    rank_to_sequence,
    space_size,
)
from legendre_pairs.sequences import psd_exact_third

import known_pairs as kp
from helpers import decode_union, is_multiplier


class TestSubgroup:
    def test_must_contain_one(self):
        with pytest.raises(ValueError):
            Subgroup(7, (2, 4))

    def test_closure_required(self):
        with pytest.raises(ValueError):
            Subgroup(7, (1, 2))

    def test_coprimality_required(self):
        with pytest.raises(ValueError):
            Subgroup(9, (1, 3))

    @pytest.mark.parametrize("elements", [(1, 16), (-1, 1, 14), (0, 1)])
    def test_elements_must_be_residues(self, elements):
        # (1, 16) would act as the trivial group with two elements, and
        # (-1, 1, 14) as {1, 14} with three
        with pytest.raises(ValueError, match="outside 1..14"):
            Subgroup(15, elements)

    def test_elements_sorted(self):
        assert Subgroup(117, (22, 1, 16)).elements == (1, 16, 22)


class TestSubgroupsOfOrder:
    def test_117_order_3(self):
        got = [g.elements for g in subgroups_of_order(117, 3)]
        assert got == [(1, 16, 22), (1, 40, 79), (1, 55, 100), (1, 61, 94)]

    def test_129_order_3(self):
        assert [g.elements for g in subgroups_of_order(129, 3)] == [(1, 49, 79)]

    def test_147_order_3(self):
        assert [g.elements for g in subgroups_of_order(147, 3)] == [(1, 67, 79)]

    def test_133_order_3_contains_published(self):
        got = [g.elements for g in subgroups_of_order(133, 3)]
        assert (1, 11, 121) in got

    def test_87_order_7(self):
        assert [g.elements for g in subgroups_of_order(87, 7)] == [
            kp.SUBGROUP_87_ORDER_7
        ]

    def test_87_order_2(self):
        assert [g.elements for g in subgroups_of_order(87, 2)] == kp.SUBGROUPS_87_ORDER_2

    def test_87_order_4_includes_cyclic_and_klein(self):
        got = {g.elements for g in subgroups_of_order(87, 4)}
        assert set(kp.SUBGROUPS_87_ORDER_4) <= got
        extras = got - set(kp.SUBGROUPS_87_ORDER_4)
        # the one additional subgroup is the non-cyclic (Klein) one
        assert all(
            all(x * x % 87 == 1 for x in elems) for elems in extras
        )

    def test_trivial_subgroup(self):
        assert [g.elements for g in subgroups_of_order(15, 1)] == [(1,)]

    def test_117_order_9_contains_published(self):
        got = [g.elements for g in subgroups_of_order(117, 9)]
        assert got == [(1, 16, 22, 40, 55, 61, 79, 94, 100)]
        assert set(kp.SUBGROUP_117) <= set(got[0])

    @pytest.mark.parametrize("length, count", [(85, 7), (87, 1), (145, 3), (15, 1)])
    def test_order_8_non_cyclic(self, length, count):
        got = subgroups_of_order(length, 8)
        assert len(got) == count and all(len(g) == 8 for g in got)

    def test_every_subgroup_against_closures(self):
        # an odd l < 200 has at most 3 distinct prime factors, so its unit
        # group has rank <= 3 and every subgroup is generated by 3 units
        def closure(length, gens):
            elems = frontier = {1}
            while frontier:
                frontier = {x * g % length for x in frontier for g in gens} - elems
                elems = elems | frontier
            return tuple(sorted(elems))

        for length in range(3, 50, 2):
            units = unit_group(length)
            closures = {closure(length, gens) for gens in combinations_with_replacement(units, 3)}
            for k in range(1, len(units) + 1):
                got = [g.elements for g in subgroups_of_order(length, k)]
                assert got == sorted(e for e in closures if len(e) == k), (length, k)


class TestOrbitDecomposition:
    def test_117_h1_shape(self):
        decomp = orbit_decomposition(117, Subgroup(117, kp.SUBGROUP_117))
        assert decomp.size_counts == {1: 2, 3: 38}
        assert {0} == set(decomp.orbits[0])
        assert (1, 16, 22) in decomp.orbits
        assert (39,) in decomp.orbits and (78,) in decomp.orbits

    def test_published_orbit_content(self):
        decomp = orbit_decomposition(117, Subgroup(117, kp.SUBGROUP_117))
        by_rep = {orb[0]: orb for orb in decomp.nonzero_orbits}
        assert by_rep[2] == (2, 32, 44)
        assert by_rep[47] == (47, 50, 98)
        assert by_rep[95] == (95, 101, 116)

    def test_residue_counts_117(self):
        decomp = orbit_decomposition(117, Subgroup(117, kp.SUBGROUP_117))
        assert decomp.residue_counts[(3, (3, 0, 0))] == 12
        assert decomp.residue_counts[(3, (0, 3, 0))] == 13
        assert decomp.residue_counts[(3, (0, 0, 3))] == 13
        assert decomp.residue_counts[(1, (1, 0, 0))] == 2

    def test_residue_counts_of_orbits_that_mix_residues(self):
        # 2 = 2 (mod 3): {1, 2, 4, 8}, {5, 10} and {7, 11, 13, 14} mix 1 and 2
        decomp = orbit_decomposition(15, Subgroup(15, (1, 2, 4, 8)))
        assert decomp.residue_counts == {(2, (0, 1, 1)): 1, (4, (0, 2, 2)): 2, (4, (4, 0, 0)): 1}

    def test_orbits_partition(self):
        decomp = orbit_decomposition(147, Subgroup(147, kp.SUBGROUP_147))
        flat = [x for orb in decomp.orbits for x in orb]
        assert sorted(flat) == list(range(147))

    def test_147_singleton_orbits(self):
        decomp = orbit_decomposition(147, Subgroup(147, kp.SUBGROUP_147))
        assert (49,) in decomp.orbits and (98,) in decomp.orbits
        assert decomp.size_counts == {1: 2, 3: 48}


@pytest.mark.parametrize(
    "length, subgroup",
    [(13, (1,)), (13, (1, 12)), (13, (1, 3, 9)), (15, (1, 4)), (21, (1, 8)), (117, (1, 16, 22)), (147, (1, 67, 79))],
)
def test_representative_lags_are_the_smallest_of_each_lag_class(length, subgroup):
    # the class of lag k is {+-h k mod l}, folded into 1..(l-1)/2
    half = (length - 1) // 2
    expected = sorted({
        min(min(h * k % length, length - h * k % length) for h in subgroup) for k in range(1, half + 1)
    })
    assert representative_lags(orbit_decomposition(length, Subgroup(length, subgroup))) == expected


class TestMultiplier:
    def test_subgroup_elements_are_multipliers(self):
        a = kp.PAIRS_117[0][0]
        decomp = orbit_decomposition(117, Subgroup(117, kp.SUBGROUP_117))
        by_rep = {orb[0]: orb for orb in decomp.nonzero_orbits}
        positions = {x for rep in a for x in by_rep[rep]}
        for h in kp.SUBGROUP_117:
            ok, shift = is_multiplier(117, h, positions)
            assert ok and shift == 0

    def test_non_multiplier(self):
        ok, shift = is_multiplier(7, 3, {1, 2, 3})
        assert not ok and shift is None

    def test_requires_coprime(self):
        with pytest.raises(ValueError):
            is_multiplier(9, 3, {1})


class TestThreeSquares:
    def test_known_decompositions(self):
        assert three_squares_all_odd(3) == [(1, 1, 1)]
        assert three_squares_all_odd(19) == [(1, 3, 3)]
        assert three_squares_all_odd(139) == [(3, 3, 11), (3, 7, 9)]
        assert three_squares_all_odd(75) == [(1, 5, 7), (5, 5, 5)]

    def test_no_solution(self):
        # all-odd solutions require n = 3 (mod 8)
        assert three_squares_all_odd(5) == []
        assert three_squares_all_odd(17) == []

    def test_completeness_small(self):
        for n in range(1, 400):
            brute = sorted(
                (x, y, z)
                for x in range(1, 21, 2)
                for y in range(x, 21, 2)
                for z in range(y, 21, 2)
                if x * x + y * y + z * z == n
            )
            assert three_squares_all_odd(n) == brute


class TestSignedAssignments:
    def test_sum_to_one(self):
        for cand in signed_assignments((1, 3, 3)):
            assert sum(cand) == 1
        assert (1, -3, 3) in signed_assignments((1, 3, 3))

    def test_incompatible_triple(self):
        assert signed_assignments((3, 5, 11)) == []
        assert signed_assignments((5, 7, 9)) == []


class TestSpectrum:
    def test_117_admissible_pairs(self):
        assert [e.psd_pair for e in spectrum_mod3(117)] == [
            (28, 208),
            (64, 172),
            (112, 124),
        ]

    def test_117_discarded_candidate(self):
        rows = {r.psd_pair: r for r in spectrum_candidates(117)}
        row = rows[(4, 232)]
        assert not row.admissible
        assert row.triples_a == ((1, 1, 1),)
        assert row.triples_b == ((3, 5, 11), (5, 7, 9))
        assert row.reason == "no compatible assignments"

    def test_129_admissible_pairs(self):
        assert [e.psd_pair for e in spectrum_mod3(129)] == [
            (4, 256),
            (16, 244),
            (52, 208),
            (64, 196),
            (112, 148),
        ]

    def test_147_admissible_pairs(self):
        assert [e.psd_pair for e in spectrum_mod3(147)] == [
            (4, 292),
            (28, 268),
            (52, 244),
            (100, 196),
            (124, 172),
            (148, 148),
        ]

    def test_requires_odd_multiple_of_three(self):
        with pytest.raises(ValueError):
            spectrum_mod3(12)
        with pytest.raises(ValueError):
            spectrum_mod3(25)

    def test_pairs_sum_to_bound(self):
        for l in (9, 15, 21, 117, 129, 147):
            for e in spectrum_mod3(l):
                assert sum(e.psd_pair) == 2 * l + 2


def exact_third_values(decomp) -> dict[tuple[int, ...], set[int]]:
    """The exact lag-l/3 PSD value of every union of nonzero orbits, keyed by
    its number of orbits of each size; every rank of a composition is one such
    union.  Unions grow one orbit at a time.  Those with equal orbit counts and
    equal numbers of positions = 0, 1, 2 (mod 3) have one value, so each is
    kept once, with the representatives of one union that has them."""
    sizes = decomp.sizes
    unions = {((0,) * len(sizes), (0, 0, 0)): ()}
    for orb in decomp.nonzero_orbits:
        i = sizes.index(len(orb))
        for (counts, residues), chosen in list(unions.items()):
            key = (
                counts[:i] + (counts[i] + 1,) + counts[i + 1 :],
                tuple(n + sum(1 for x in orb if x % 3 == j) for j, n in enumerate(residues)),
            )
            unions.setdefault(key, chosen + (orb[0],))
    values = defaultdict(set)
    for (counts, _), chosen in unions.items():
        values[counts].add(psd_exact_third(decode_union(decomp, chosen, 1)))
    return values


class TestOrbitPsdValues:
    def test_117_case1_values(self):
        decomp = orbit_decomposition(117, Subgroup(117, kp.SUBGROUP_117))
        values = orbit_psd_values(decomp, (2, 19))
        assert values[:9] == [28, 64, 100, 172, 208, 244, 316, 388, 496]
        assert values[-3:] == [4132, 4348, 4564]
        assert 112 not in values

    def test_117_case2_same_exclusion(self):
        decomp = orbit_decomposition(117, Subgroup(117, kp.SUBGROUP_117))
        values = orbit_psd_values(decomp, (1, 19))
        assert 112 not in values and 28 in values

    def test_129_prefix(self):
        decomp = orbit_decomposition(129, Subgroup(129, kp.SUBGROUP_129))
        values = orbit_psd_values(decomp, (2, 21))
        assert values[:8] == [4, 76, 112, 148, 256, 292, 364, 400]

    def test_exact_for_every_subgroup(self):
        # 13 of these 24 subgroups have an element = 2 (mod 3)
        for length in (9, 15, 21, 27):
            for order in (1, 2, 3, 4, 6):
                for sub in subgroups_of_order(length, order):
                    decomp = orbit_decomposition(length, sub)
                    exact = exact_third_values(decomp)
                    for polarity in (1, -1):
                        for comp in compositions_for(decomp, polarity):
                            counts = composition_counts(decomp, comp)
                            assert orbit_psd_values(decomp, counts) == sorted(exact[counts])
                            size = space_size(decomp, comp)
                            if size <= 20_000:
                                # the reference itself, rank by rank, on 45 of the 49
                                # plans (l = 21, 27 with H = {1} have 20.6M ranks)
                                assert exact[counts] == {
                                    psd_exact_third(rank_to_sequence(r, decomp, comp, polarity))
                                    for r in range(size)
                                }

    def test_counts_validated(self):
        decomp = orbit_decomposition(117, Subgroup(117, kp.SUBGROUP_117))
        with pytest.raises(ValueError):
            orbit_psd_values(decomp, (3, 19))


class TestAdmissiblePairs:
    def test_117(self):
        pairs = [
            e.psd_pair
            for e in admissible_psd_pairs(117, Subgroup(117, kp.SUBGROUP_117), (2, 19))
        ]
        assert pairs == [(28, 208), (64, 172)]

    def test_129(self):
        pairs = [
            e.psd_pair
            for e in admissible_psd_pairs(129, Subgroup(129, kp.SUBGROUP_129), (2, 21))
        ]
        assert pairs == [(4, 256), (112, 148)]

    def test_147(self):
        pairs = [
            e.psd_pair
            for e in admissible_psd_pairs(147, Subgroup(147, kp.SUBGROUP_147), (2, 24))
        ]
        assert pairs == [(4, 292), (148, 148)]


def test_unit_group_size():
    assert len(unit_group(117)) == 72
    assert len(unit_group(87)) == 56
