import itertools

import pytest
from hypothesis import example, given, strategies as st

from glracks import classify, perm
from glracks.perm import (
    CycleParseError,
    DegreeMismatchError,
    GroupTooLargeError,
    Permutation,
    closure,
    conjugation_orbits,
    orbit_centralizers,
    parse_cycles,
    print_cycles,
    row_cycle_type,
    symmetric_group,
)
from glracks.racks import check_rack

from oracles import are_conjugate, centralizer, conjugacy_classes


def perms(max_degree=10):
    return st.integers(min_value=0, max_value=max_degree).flatmap(
        lambda d: st.permutations(range(d)).map(Permutation)
    )


def perm_pairs(max_degree=8):
    return st.integers(min_value=0, max_value=max_degree).flatmap(
        lambda d: st.tuples(
            st.permutations(range(d)).map(Permutation),
            st.permutations(range(d)).map(Permutation),
        )
    )


class TestPermutation:
    def test_compose_right_to_left(self):
        a = parse_cycles("(12)", 3)
        b = parse_cycles("(23)", 3)
        # (a*b)(i) = a(b(i))
        assert (a * b).images == (1, 2, 0)
        assert (b * a).images == (2, 0, 1)

    def test_identity_and_inverse(self):
        p = parse_cycles("(1234)(56)", 6)
        e = Permutation.identity(6)
        assert p * p.inverse() == e
        assert p.inverse() * p == e
        assert p**0 == e
        assert p**-1 == p.inverse()
        assert p**4 == p * p * p * p

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            parse_cycles("(12)", 2) * parse_cycles("(12)", 3)

    def test_cycle_type(self):
        assert parse_cycles("(123)(45)", 6).cycle_type() == (3, 2, 1)
        assert Permutation.identity(4).cycle_type() == (1, 1, 1, 1)

    @given(perms(max_degree=9))
    @example(Permutation(()))
    @example(Permutation.identity(1))
    @example(Permutation.identity(9))
    def test_row_cycle_type_matches_cycles(self, p):
        # oracle: the cycle type read off the cycles() tuples
        lengths = [len(c) for c in p.cycles()]
        fixed = p.degree - sum(lengths)
        expected = tuple(sorted(lengths + [1] * fixed, reverse=True))
        assert row_cycle_type(p.images) == expected
        assert p.cycle_type() == expected

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_ordering_is_lexicographic(self):
        assert Permutation.identity(3) < parse_cycles("(23)", 3)
        assert sorted(symmetric_group(3).elements)[0] == Permutation.identity(3)

    @given(st.integers(min_value=0, max_value=8).flatmap(
        lambda d: st.tuples(*(st.permutations(range(d)).map(Permutation),) * 3)
    ))
    def test_associativity(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)

    @given(perm_pairs())
    def test_inverse_of_product(self, pair):
        a, b = pair
        assert (a * b).inverse() == b.inverse() * a.inverse()


class TestCycleNotation:
    @given(perms(max_degree=12))
    def test_round_trip(self, p):
        assert parse_cycles(print_cycles(p), p.degree) == p

    def test_identity_forms(self):
        for text in ("id", "()", ""):
            assert parse_cycles(text, 5) == Permutation.identity(5)
        assert print_cycles(Permutation.identity(0)) == "id"

    def test_multidigit_needs_separator(self):
        p = parse_cycles("(1,10,3)", 10)
        assert p.images[0] == 9
        assert "," in print_cycles(p)

    @pytest.mark.parametrize(
        "bad", ["(12", "(1)", "(12)(13)", "(09)", "(12)x", "(1 1)"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(CycleParseError):
            parse_cycles(bad, 9)


class TestGroups:
    def test_symmetric_group_orders(self):
        for d in range(5):
            import math

            assert symmetric_group(d).order == math.factorial(d)

    def test_closure_matches_brute_force(self):
        gens = [parse_cycles("(12)", 4), parse_cycles("(1234)", 4)]
        group = closure(gens, 4)
        assert set(group.elements) == set(symmetric_group(4).elements)

    def test_closure_drops_repeated_generators(self):
        a, b = parse_cycles("(12)", 4), parse_cycles("(1234)", 4)
        group = closure([a, b, parse_cycles("(12)", 4), b], 4)
        assert group.generators == (a, b)
        assert group == closure([a, b], 4)

    def test_closure_cap(self, monkeypatch):
        monkeypatch.setattr(perm, "GROUP_CAP", 10)
        with pytest.raises(GroupTooLargeError):
            closure([parse_cycles("(12)", 5), parse_cycles("(12345)", 5)], 5)

    def test_centralizer_brute_force(self):
        s4 = symmetric_group(4)
        target = parse_cycles("(12)(34)", 4)
        cent = centralizer(s4, [target])
        brute = {g for g in s4.elements if g * target == target * g}
        assert set(cent.elements) == brute
        assert cent.order == 8

    def test_conjugacy_classes_of_s4(self):
        classes = conjugacy_classes(symmetric_group(4))
        assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
        # each class carries one cycle type
        for c in classes:
            assert len({g.cycle_type() for g in c}) == 1

    def test_conjugation_orbits_must_stay_in_members(self):
        s3 = symmetric_group(3)
        transpositions = [(1, 0, 2), (0, 2, 1), (2, 1, 0)]
        assert conjugation_orbits(transpositions, s3) == [sorted(transpositions)]
        with pytest.raises(ValueError):
            conjugation_orbits(transpositions[:2], s3)
        with pytest.raises(ValueError, match="leaves the member set"):
            orbit_centralizers(transpositions[:2], s3)

    @pytest.mark.parametrize("n", range(8))
    def test_orbit_walk_centralizers(self, n):
        # the stabilizer that orbit_centralizers gives is the centralizer of
        # the orbit's least member, for every conjugacy class of S_n and for
        # U(Q) under Aut Q for every quandle class Q of order n, as the
        # enumeration takes them; its size is |group| / |orbit|, and an
        # orbit of one keeps the whole group, in order
        symmetric = symmetric_group(n)
        cases = [([g.images for g in symmetric.elements], symmetric)]
        for table, aut in classify._labeled_racks(n):
            structures = classify.gl_structures(check_rack(n, table), aut)
            cases.append(([u.images for u in structures.elements], aut))
        for members, group in cases:
            walked = orbit_centralizers(members, group)
            assert [orbit for orbit, _ in walked] == conjugation_orbits(members, group)
            for orbit, stabilizer in walked:
                rep = Permutation(orbit[0])
                assert stabilizer.elements == centralizer(group, [rep]).elements
                assert len(stabilizer.elements) * len(orbit) == len(group.elements)
                if len(orbit) == 1:
                    assert stabilizer.elements == group.elements

    def test_are_conjugate_witness(self):
        s5 = symmetric_group(5)
        a = parse_cycles("(123)", 5)
        b = parse_cycles("(345)", 5)
        ok, witness = are_conjugate(s5, a, b)
        assert ok
        assert witness * a * witness.inverse() == b
        ok, _ = are_conjugate(s5, a, parse_cycles("(12)", 5))
        assert not ok

    def test_are_conjugate_in_symmetric_groups(self):
        # oracle: in S_d, conjugacy is equality of cycle types
        for d in range(5):
            group = symmetric_group(d)
            for a, b in itertools.product(group.elements, repeat=2):
                ok, witness = are_conjugate(group, a, b)
                assert ok == (a.cycle_type() == b.cycle_type())
                if ok:
                    assert witness in group
                    assert witness * a * witness.inverse() == b
                else:
                    assert witness is None

    def test_are_conjugate_in_proper_subgroup(self):
        # <(1234)> is abelian, so distinct elements are never conjugate
        group = closure([parse_cycles("(1234)", 4)], 4)
        a = parse_cycles("(1234)", 4)
        b = parse_cycles("(1432)", 4)
        ok, _ = are_conjugate(group, a, b)
        assert not ok

    @given(perm_pairs(max_degree=5))
    def test_conjugation_preserves_cycle_type(self, pair):
        a, g = pair
        assert (g * a * g.inverse()).cycle_type() == a.cycle_type()
