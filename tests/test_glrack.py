import pytest

from glracks.glrack import (
    DoesNotCommuteError,
    GLFlags,
    NotAutomorphismError,
    check_gl,
    down_map,
    flags,
    is_legendrian,
)
from glracks.perm import Permutation, parse_cycles, symmetric_group
from glracks.racks import (
    check_rack,
    dihedral,
    is_quandle,
    permutation_rack,
    theta,
    trivial_quandle,
)

from oracles import is_gl_structure


class TestValidation:
    def test_trivial_structure_always_valid(self, small_racks):
        for n, rack in small_racks:
            gl = check_gl(rack, Permutation.identity(n))
            assert down_map(gl) == theta(rack).inverse()

    def test_rejects_non_automorphism(self):
        rack = check_rack(3, [parse_cycles(c, 3) for c in ["id", "(23)", "(23)"]])
        with pytest.raises(NotAutomorphismError):
            check_gl(rack, parse_cycles("(12)", 3))

    def test_rejects_non_commuting_automorphism(self):
        # (123) conjugates Inn(R_3) nontrivially even though it is a rack
        # automorphism
        rack = dihedral(3)
        with pytest.raises(DoesNotCommuteError):
            check_gl(rack, parse_cycles("(123)", 3))

    def test_is_gl_structure_matches_check(self, small_racks):
        for n, rack in small_racks[:20]:
            for u in symmetric_group(n).elements:
                ok = is_gl_structure(rack, u)
                if ok:
                    check_gl(rack, u)
                else:
                    with pytest.raises(Exception):
                        check_gl(rack, u)


class TestDownMap:
    def test_all_three_axioms(self, small_racks):
        # u d s_x(x) = x = d u s_x(x); u and d commute with each s_x;
        # s_{u(x)} = s_x = s_{d(x)}
        from glracks.classify import gl_structures

        for n, rack in small_racks:
            if n > 4:
                continue
            for u in gl_structures(rack).elements:
                gl = check_gl(rack, u)
                d = down_map(gl)
                for x in range(n):
                    sx = rack.s[x]
                    y = sx.images[x]
                    assert u.images[d.images[y]] == x
                    assert d.images[u.images[y]] == x
                    assert u * sx == sx * u
                    assert d * sx == sx * d
                    assert rack.s[u.images[x]] == sx
                    assert rack.s[d.images[x]] == sx

    def test_quandle_iff_d_inverts_u(self, small_racks):
        from glracks.classify import gl_structures

        for n, rack in small_racks:
            if n > 4:
                continue
            for u in gl_structures(rack).elements:
                gl = check_gl(rack, u)
                assert (down_map(gl) == u.inverse()) == is_quandle(rack)


class TestFlags:
    def test_legendrian_means_theta_is_u_minus_2(self):
        rack = permutation_rack(3, parse_cycles("(123)", 3))
        u = parse_cycles("(123)", 3)
        gl = check_gl(rack, u)
        assert is_legendrian(gl)
        assert theta(rack) == u.inverse() * u.inverse()
        assert not is_legendrian(check_gl(rack, parse_cycles("(132)", 3)))

    def test_quandle_legendrian_iff_involutory_u(self):
        rack = trivial_quandle(4)
        assert is_legendrian(check_gl(rack, parse_cycles("(12)(34)", 4)))
        assert not is_legendrian(check_gl(rack, parse_cycles("(1234)", 4)))

    def test_flags_record(self):
        gl = check_gl(trivial_quandle(2), Permutation.identity(2))
        assert flags(gl) == GLFlags(gl_quandle=True, medial=True, legendrian=True)
