import itertools

import pytest

from glracks.classify import classify_gl, gl_classes
from glracks.functors import (
    functor_f,
    functor_g,
    roundtrip_check,
)
from glracks.glrack import check_gl
from glracks.morphisms import is_gl_hom, is_rack_hom
from glracks.perm import Permutation, parse_cycles
from glracks.racks import is_medial, is_quandle, permutation_rack, theta, trivial_quandle


class TestFunctorF:
    def test_output_is_gl_quandle(self, small_racks):
        for _n, rack in small_racks:
            gl = functor_f(rack)
            assert is_quandle(gl.rack)
            assert gl.u == theta(rack)

    def test_on_quandles_is_trivial_structure(self, small_racks):
        for n, rack in small_racks:
            if is_quandle(rack):
                gl = functor_f(rack)
                assert gl.rack.tables() == rack.tables()
                assert gl.u == Permutation.identity(n)

    def test_on_permutation_rack(self):
        sigma = parse_cycles("(1234)", 4)
        gl = functor_f(permutation_rack(4, sigma))
        assert gl.rack.tables() == trivial_quandle(4).tables()
        assert gl.u == sigma


class TestFunctorG:
    def test_defined_on_every_gl_rack(self, racks_by_order):
        for n in (2, 3, 4):
            for rack in racks_by_order[n]:
                for u, _size in gl_classes(rack):
                    functor_g(check_gl(rack, u))

    def test_recovers_permutation_rack(self):
        sigma = parse_cycles("(123)", 3)
        gl = check_gl(trivial_quandle(3), sigma)
        assert functor_g(gl).tables() == permutation_rack(3, sigma).tables()


class TestRoundTrips:
    def test_gf_identity_on_racks(self, small_racks):
        report = roundtrip_check(racks=[rack for _n, rack in small_racks])
        assert report.ok, report.failures
        assert report.racks_checked == len(small_racks)

    def test_fg_identity_on_gl_quandles(self, racks_by_order):
        corpus = []
        for n in (0, 1, 2, 3, 4):
            for rec in classify_gl(n, racks_by_order[n]).records:
                if rec.flags.gl_quandle:
                    corpus.append(rec.glrack())
        report = roundtrip_check(gl_quandles=corpus)
        assert report.ok, report.failures
        assert report.gl_quandles_checked == len(corpus)

    def test_mediality_preserved_both_ways(self, small_racks):
        for _n, rack in small_racks:
            assert is_medial(functor_f(rack).rack) == is_medial(rack)


class TestHomTransport:
    def test_exact_on_order_3_pairs(self, racks_by_order):
        # a map is a rack hom exactly when it is a GL-hom between the images
        for source, target in itertools.product(racks_by_order[3], repeat=2):
            for phi in itertools.product(range(3), repeat=3):
                assert is_rack_hom(source, target, phi) == is_gl_hom(
                    functor_f(source), functor_f(target), phi
                )
