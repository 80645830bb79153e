import itertools
import pickle

import pytest
from hypothesis import strategies as st

from glracks.perm import Permutation, parse_cycles, symmetric_group
from glracks.racks import (
    NotABijectionError,
    SelfDistributivityError,
    associated_quandle,
    check_rack,
    conjugation_quandle,
    dihedral,
    dual,
    inn_group,
    is_medial,
    is_quandle,
    medialization,
    permutation_rack,
    profile,
    takasaki,
    theta,
    trivial_quandle,
)

from oracles import (
    is_abelian,
    is_left_distributive,
    is_subrack,
    medialization_brute,
    transvection_group,
)


def nonmedial_quandle_4():
    return check_rack(4, [parse_cycles(c, 4) for c in ["id", "(34)", "(24)", "(23)"]])


class TestValidation:
    def test_self_distributivity_enforced(self):
        # s_1 = (12) with s_2 = id breaks s_1 s_2 = s_{s_1(2)} s_1
        rows = [parse_cycles("(12)", 3), Permutation.identity(3), Permutation.identity(3)]
        with pytest.raises(SelfDistributivityError):
            check_rack(3, rows)

    def test_rows_must_be_bijections(self):
        with pytest.raises((NotABijectionError, ValueError)):
            check_rack(2, [(0, 0), (0, 1)])

    def test_accepts_image_arrays(self):
        rack = check_rack(2, [(1, 0), (1, 0)])
        assert rack.s[0] == parse_cycles("(12)", 2)

    def test_empty_rack(self):
        rack = check_rack(0, [])
        assert is_quandle(rack) and is_medial(rack)


class TestRackForm:
    """A rack holds its rows; ``s`` wraps them as permutations."""

    def test_permutations_tuples_and_lists_give_one_rack(self, small_racks):
        for n, rack in small_racks:
            forms = [rack.s, rack.tables(), [list(row) for row in rack.tables()]]
            racks = [check_rack(n, form) for form in forms]
            assert racks[0] == racks[1] == racks[2] == rack
            assert len({hash(r) for r in racks + [rack]}) == 1

    def test_tables_are_the_rows(self, small_racks):
        for _n, rack in small_racks:
            assert rack.tables() is rack.rows
            assert [p.images for p in rack.s] == list(rack.rows)
            assert check_rack(rack.n, rack.s) == rack

    def test_pickle_round_trip(self, small_racks):
        for _n, rack in small_racks:
            assert pickle.loads(pickle.dumps(rack)) == rack

    def test_row_readers_keep_nothing(self, small_racks):
        for n, rack in small_racks:
            fresh = check_rack(n, rack.tables())
            is_quandle(fresh)
            theta(fresh)
            profile(fresh)
            inn_group(fresh)
            assert set(vars(fresh)) == {"n", "rows"}


class TestConstructors:
    def test_trivial_quandle(self):
        rack = trivial_quandle(4)
        assert is_quandle(rack) and is_medial(rack)
        assert all(p == Permutation.identity(4) for p in rack.s)

    def test_takasaki_law(self):
        for m in (1, 2, 3, 5, 8):
            rack = takasaki(m)
            assert is_quandle(rack) and is_medial(rack)
            for b, a in itertools.product(range(m), repeat=2):
                assert rack.s[b].images[a] == (2 * b - a) % m
            # involutory: every s_b squares to the identity
            assert all(p * p == Permutation.identity(m) for p in rack.s)

    def test_dihedral_is_takasaki(self):
        for m in (3, 4, 7):
            assert dihedral(m).tables() == takasaki(m).tables()

    def test_permutation_rack(self):
        sigma = parse_cycles("(123)", 4)
        rack = permutation_rack(4, sigma)
        assert all(p == sigma for p in rack.s)
        assert not is_quandle(rack)
        assert is_medial(rack)

    def test_conjugation_quandle_s3(self):
        s3 = symmetric_group(3)
        elems = list(s3.elements)
        index = {g: i for i, g in enumerate(elems)}
        table = [[index[a * b] for b in elems] for a in elems]
        rack = conjugation_quandle(table)
        assert rack.n == 6
        assert is_quandle(rack)
        assert not is_medial(rack)
        # s_x(y) = xyx^-1
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                assert rack.s[i].images[j] == index[x * y * x.inverse()]

    def test_conjugation_quandle_subset_must_be_closed(self):
        s3 = symmetric_group(3)
        elems = list(s3.elements)
        index = {g: i for i, g in enumerate(elems)}
        table = [[index[a * b] for b in elems] for a in elems]
        transpositions = [i for i, g in enumerate(elems) if g.cycle_type() == (2, 1)]
        sub = conjugation_quandle(table, transpositions)
        assert sub.n == 3
        assert is_quandle(sub)
        # a single transposition and one 3-cycle is not conjugation-closed
        three_cycle = next(i for i, g in enumerate(elems) if g.cycle_type() == (3,))
        with pytest.raises(ValueError):
            conjugation_quandle(table, [transpositions[0], three_cycle])

    def test_bad_cayley_table(self):
        with pytest.raises(ValueError):
            conjugation_quandle([[0, 1], [0, 1]])


class TestPredicates:
    def test_nonmedial_quandle_of_order_4(self):
        rack = nonmedial_quandle_4()
        assert is_quandle(rack)
        assert not is_medial(rack)
        assert not is_abelian(transvection_group(rack))

    def test_medial_iff_abelian_transvection(self, small_racks):
        for _n, rack in small_racks:
            assert is_medial(rack) == is_abelian(transvection_group(rack))

    def test_group_generators_are_first_occurrences(self, small_racks):
        # inn_group and transvection_group keep one generator per distinct
        # permutation, in the order the rows give them
        for _n, rack in small_racks:
            rows = rack.s
            assert inn_group(rack).generators == tuple(
                p for i, p in enumerate(rows) if p not in rows[:i]
            )
            quotients = [p * q.inverse() for p in rows for q in rows]
            assert transvection_group(rack).generators == tuple(
                g for i, g in enumerate(quotients) if g not in quotients[:i]
            )

    def test_left_distributive_iff_quandle_for_these(self, small_racks):
        # left distributivity implies the quandle axiom on every rack here
        for _n, rack in small_racks:
            if is_left_distributive(rack):
                assert is_quandle(rack)

    def test_subrack(self):
        rack = dihedral(6)
        assert is_subrack(rack, [0, 2, 4])
        assert is_subrack(rack, [0, 3])
        assert not is_subrack(rack, [0, 1])


class TestDualAndTheta:
    def test_dual_is_involution(self, small_racks):
        for _n, rack in small_racks:
            assert dual(dual(rack)).tables() == rack.tables()

    def test_dual_rows_are_inverses(self):
        rack = permutation_rack(4, parse_cycles("(1234)", 4))
        assert all(q == p.inverse() for p, q in zip(rack.s, dual(rack).s))

    def test_theta_identity_iff_quandle(self, small_racks):
        for n, rack in small_racks:
            assert (theta(rack) == Permutation.identity(n)) == is_quandle(rack)

    def test_theta_commutes_with_every_row(self, small_racks):
        for _n, rack in small_racks:
            th = theta(rack)
            assert all(th * p == p * th for p in rack.s)

    def test_theta_of_dual_is_inverse(self, small_racks):
        for _n, rack in small_racks:
            assert theta(dual(rack)) == theta(rack).inverse()


class TestQuotients:
    def test_associated_quandle_is_quandle(self, small_racks):
        for _n, rack in small_racks:
            quotient, proj = associated_quandle(rack)
            assert is_quandle(quotient)
            self._check_projection(rack, quotient, proj)

    def test_medialization_is_medial(self, small_racks):
        for _n, rack in small_racks:
            quotient, proj = medialization(rack)
            assert is_medial(quotient)
            self._check_projection(rack, quotient, proj)

    def test_medialization_agrees_with_the_seed_loop(self, racks_by_order, small_racks):
        # the hom racks repeat rows; the racks of order <= 6 include
        # non-medial ones with repeated rows, whose quotient is proper
        from glracks.classify import enumerate_racks
        from glracks.morphisms import hom_rack

        targets = [t for n in range(4) for t in racks_by_order[n] if is_medial(t)]
        homs = [hom_rack(source, t)[0] for source in racks_by_order[3] for t in targets]
        proper = 0
        for rack in [r for _n, r in small_racks] + enumerate_racks(6) + homs:
            quotient, proj = medialization(rack)
            assert (quotient, proj) == medialization_brute(rack)
            proper += quotient.n < rack.n
        assert proper and max(rack.n for rack in homs) > 5

    def test_quandle_quotients_to_itself(self):
        rack = dihedral(5)
        quotient, proj = associated_quandle(rack)
        assert quotient.n == 5
        assert sorted(proj) == list(range(5))

    def test_permutation_rack_collapses(self):
        rack = permutation_rack(3, parse_cycles("(123)", 3))
        quotient, _proj = associated_quandle(rack)
        assert quotient.n == 1

    @staticmethod
    def _check_projection(rack, quotient, proj):
        assert len(proj) == rack.n
        for x, y in itertools.product(range(rack.n), repeat=2):
            assert proj[rack.s[x].images[y]] == quotient.s[proj[x]].images[proj[y]]


class TestProfile:
    def test_profile_distinguishes(self):
        p1 = profile(trivial_quandle(3))
        p2 = profile(dihedral(3))
        assert p1 != p2

    def test_profile_is_isomorphism_invariant(self):
        rack = dihedral(4)
        relabeled = check_rack(
            4,
            [
                Permutation([2, 3, 0, 1]) * rack.s[i] * Permutation([2, 3, 0, 1]).inverse()
                for i in (2, 3, 0, 1)
            ],
        )
        assert profile(rack) == profile(relabeled)
