"""Acceptance gate: ten numbered criteria, one pass/fail line each.

The terminal summary (see conftest) prints ``criterion N: PASS/FAIL`` for
every test in this module.  Criteria whose inputs sit behind the long-run
gate (orders 7 and 8) run only when GLRACKS_LONG_RUN=1 is set.
"""

import itertools
import math
import os
import time
from functools import lru_cache

import pytest

from glracks.classify import (
    classify_gl,
    count_report,
    enumerate_racks,
    gl_classes,
    gl_structures,
)
from glracks.functors import functor_f, functor_g
from glracks.glrack import check_gl, down_map
from glracks.morphisms import (
    aut_glr,
    aut_group,
    enumerate_gl_homs,
    enumerate_homs,
    find_gl_iso,
    find_iso,
    hom_glrack,
    hom_rack,
    is_gl_hom,
)
from glracks.perm import Permutation, parse_cycles, symmetric_group
from glracks.racks import (
    check_rack,
    conjugation_quandle,
    dihedral,
    dual,
    is_medial,
    is_quandle,
    permutation_rack,
    profile,
    takasaki,
    theta,
)

from golden_tables import EXPECTED_COUNTS, GOLDEN, RACK_COUNTS
from oracles import gl_structures_brute, is_abelian, transvection_group

LONG_RUN = os.environ.get("GLRACKS_LONG_RUN") == "1"
long_run_only = pytest.mark.skipif(
    not LONG_RUN, reason="orders 7 and 8 run only with GLRACKS_LONG_RUN=1"
)


@lru_cache(maxsize=None)
def racks(n):
    return enumerate_racks(n, long_run=n > 6)


@lru_cache(maxsize=None)
def classified(n):
    return classify_gl(n, racks(n), long_run=n > 6)


@lru_cache(maxsize=None)
def structures_up_to(n_max):
    out = []
    for n in range(n_max + 1):
        for rec in classified(n).records:
            out.append(rec.glrack())
    return out


def test_criterion_01_rack_enumeration():
    start = time.time()
    for n in range(7):
        assert len(racks(n)) == RACK_COUNTS[n], f"order {n}"
    assert time.time() - start <= 60


@long_run_only
def test_criterion_01_rack_enumeration_long_run():
    assert len(racks(7)) == RACK_COUNTS[7]
    assert len(racks(8)) == RACK_COUNTS[8]


def test_criterion_02_classification_counts():
    start = time.time()
    for n in range(7):
        report = count_report(n, classified(n))
        got = (
            report.g,
            report.g_m,
            report.g_q,
            report.g_qm,
            report.r,
            report.r_m,
            report.r_q,
            report.r_qm,
        )
        assert got == EXPECTED_COUNTS[n], f"order {n}: {got}"
    assert time.time() - start <= 300


@long_run_only
def test_criterion_02_classification_counts_long_run():
    for n in (7, 8):
        report = count_report(n, classified(n))
        got = (
            report.g,
            report.g_m,
            report.g_q,
            report.g_qm,
            report.r,
            report.r_m,
            report.r_q,
            report.r_qm,
        )
        assert got == EXPECTED_COUNTS[n], f"order {n}: {got}"


def test_criterion_03_golden_tables():
    for n, rows in GOLDEN.items():
        golden_structures = []
        for s_texts, pairs, gl_quandle, medial in rows:
            rack = check_rack(n, [parse_cycles(t, n) for t in s_texts])
            assert is_quandle(rack) == gl_quandle
            assert is_medial(rack) == medial
            for u_text, d_text in pairs:
                gl = check_gl(rack, parse_cycles(u_text, n))
                assert down_map(gl) == parse_cycles(d_text, n), (s_texts, u_text)
                golden_structures.append(gl)
        records = classified(n).records
        assert len(golden_structures) == len(records) == EXPECTED_COUNTS[n][0]
        # every golden structure matches exactly one emitted class, with a
        # recorded witness isomorphism
        matched = set()
        for gl in golden_structures:
            hits = []
            for i, rec in enumerate(records):
                witness = find_gl_iso(gl, rec.glrack())
                if witness is not None:
                    assert is_gl_hom(gl, rec.glrack(), witness.images)
                    hits.append(i)
            assert len(hits) == 1
            matched.add(hits[0])
        assert matched == set(range(len(records)))


def test_criterion_04_dihedral_law():
    for m in range(3, 17):
        rack = dihedral(m)
        aut = aut_group(rack)
        classes = gl_classes(rack, aut)
        if m % 2 == 1:
            expected_classes = 1
        elif m % 4 == 2:
            expected_classes = 2
        else:
            expected_classes = 3
        assert len(classes) == expected_classes, f"m={m}"

        if m % 2 == 1:
            expected_u = {Permutation.identity(m)}
        else:
            ks = (1,) if m % 4 else (1, 1 + m // 2)
            expected_u = {
                Permutation([(k * a + c) % m for a in range(m)])
                for c in (0, m // 2)
                for k in ks
            }
        assert set(gl_structures(rack, aut).elements) == expected_u, f"m={m}"


def test_criterion_05_centralizer_oracle_equivalence():
    for n in range(6):
        for rack in racks(n):
            aut = aut_group(rack)
            fast = set(gl_structures(rack, aut).elements)
            assert fast == set(gl_structures_brute(rack))
            # class partition agrees with exhaustive pairwise GL-isomorphism:
            # every structure matches exactly one class representative, so by
            # transitivity the pairwise relation induces the same partition
            reps = [check_gl(rack, rep) for rep, _size in gl_classes(rack, aut)]
            for u in fast:
                gl = check_gl(rack, u)
                hits = [r for r in reps if find_gl_iso(gl, r) is not None]
                assert len(hits) == 1


def test_criterion_06_functor_round_trips_and_matching():
    # table-exact round trips on order <= 5
    for n in range(6):
        for rack in racks(n):
            gl = functor_f(rack)
            assert functor_g(gl).tables() == rack.tables()
        for gl in structures_up_to(5):
            if not is_quandle(gl.rack):
                continue
            back = functor_f(functor_g(gl))
            assert back.rack.tables() == gl.rack.tables() and back.u == gl.u

    # the untwist functor matches GL-quandle classes bijectively onto rack
    # classes, proving the two count columns coincide without counting
    for n in range(7):
        rack_list = racks(n)
        profiles = [profile(r) for r in rack_list]
        gl_quandles = [
            rec for rec in classified(n).records if rec.flags.gl_quandle
        ]
        assert len(gl_quandles) == len(rack_list)
        image_indices = []
        for rec in gl_quandles:
            untwisted = functor_g(rec.glrack())
            p = profile(untwisted)
            hits = [
                i
                for i, r in enumerate(rack_list)
                if profiles[i] == p and find_iso(untwisted, r) is not None
            ]
            assert len(hits) == 1
            image_indices.append(hits[0])
            # mediality carried along the matching
            assert is_medial(untwisted) == rec.flags.medial
        assert sorted(image_indices) == list(range(len(rack_list)))
        medial_gl = sum(1 for rec in gl_quandles if rec.flags.medial)
        medial_racks = sum(1 for r in rack_list if is_medial(r))
        assert medial_gl == medial_racks


def test_criterion_07_theta_duality_suite():
    for n in range(6):
        for rack in racks(n):
            th = theta(rack)
            th_inv = th.inverse()
            for x in range(n):
                assert th.images[x] == rack.s[x].images[x]
                assert th_inv.images[x] == rack.s[x].inverse().images[x]
                for k in range(-3, 4):
                    assert (th**k).images[x] == (rack.s[x] ** k).images[x]
                assert rack.s[th.images[x]] == rack.s[x]
            op = dual(rack)
            assert set(aut_group(rack).elements) == set(aut_group(op).elements)
            medial = is_medial(rack)
            assert medial == is_medial(op)
            assert medial == is_abelian(transvection_group(rack))


def test_criterion_08_bilegendrian_equivalence():
    structs = structures_up_to(5)
    downs = [down_map(gl) for gl in structs]
    for gl, d in zip(structs, downs):
        u = gl.u
        for x in range(gl.n):
            sx = gl.rack.s[x]
            y = sx.images[x]
            assert u.images[d.images[y]] == x and d.images[u.images[y]] == x
            assert u * sx == sx * u and d * sx == sx * d
            assert gl.rack.s[u.images[x]] == sx and gl.rack.s[d.images[x]] == sx
    for (g1, d1), (g2, d2) in itertools.product(zip(structs, downs), repeat=2):
        for phi in enumerate_gl_homs(g1, g2):
            assert all(
                phi[d1.images[x]] == d2.images[phi[x]] for x in range(g1.n)
            )


def test_criterion_09_hom_rack_construction():
    rack, homs = hom_rack(dihedral(3), dihedral(3))
    assert rack.n == len(homs) == 9
    assert is_quandle(rack) and is_medial(rack)
    check_rack(rack.n, rack.s)

    structs = structures_up_to(3)
    for g1, g2 in itertools.product(structs, repeat=2):
        # oracle: brute-force hom enumeration agrees with the backtracker
        brute = enumerate_homs(g1.rack, g2.rack, brute_force=True)
        assert enumerate_homs(g1.rack, g2.rack) == brute
        gl, gl_homs = hom_glrack(g1, g2)
        check_gl(gl.rack, gl.u)
        assert gl_homs == [phi for phi in brute if is_gl_hom(g1, g2, phi)]


def test_criterion_10_closed_form_spot_checks():
    # conjugation quandles of the two smallest nonabelian symmetric groups
    for deg in (3, 4):
        elems = list(symmetric_group(deg).elements)
        index = {g: i for i, g in enumerate(elems)}
        table = [[index[a * b] for b in elems] for a in elems]
        rack = conjugation_quandle(table)
        assert set(gl_structures(rack).elements) == {
            Permutation.identity(rack.n)
        }

    for m in range(1, 16, 2):
        rack = takasaki(m)
        assert set(gl_structures(rack).elements) == {Permutation.identity(m)}

    for n in range(1, 8):
        sigma = Permutation([(a + 1) % n for a in range(n)])
        rack = permutation_rack(n, sigma)
        aut = aut_group(rack)
        structures = gl_structures(rack, aut)
        assert structures.order == n
        assert set(structures.elements) == {sigma**k for k in range(n)}
        assert len(gl_classes(rack, aut)) == n

    r4 = dihedral(4)
    u = parse_cycles("(24)", 4)  # a |-> 3a mod 4
    assert u == Permutation([(3 * a) % 4 for a in range(4)])
    assert aut_glr(check_gl(r4, u)).order == 4
