import itertools
import math
import os
import pickle
import random
import subprocess
import sys

import pytest

from glracks.formats import (
    gl_records,
    parse_record_line,
    read_racks,
    scan_records,
    write_records,
)
from glracks.glrack import check_gl
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
    is_rack_hom,
    _pointwise_rack,
)
from glracks import classify, morphisms, perm
from glracks.perm import GroupTooLargeError, Permutation, parse_cycles
from glracks.racks import (
    _SHARED,
    check_rack,
    dihedral,
    is_medial,
    is_quandle,
    profile,
    takasaki,
    trivial_quandle,
)

from oracles import centralizer, is_bihom, is_gl_bihom, pointwise_tables


def _relabel(rack, p):
    """The rack whose ``s_{p(x)}`` is ``p s_x p^-1``: ``p`` is an
    isomorphism onto it."""
    pinv = p.inverse()
    return check_rack(rack.n, [p * rack.s[pinv.images[x]] * pinv for x in range(rack.n)])


def _relabel_gl(gl, p):
    return check_gl(_relabel(gl.rack, p), p * gl.u * p.inverse())


def _random_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


def _least_iso(a, b, is_hom):
    """Brute force over S_n: the lexicographically least isomorphism."""
    if a.n != b.n:
        return None
    return next(
        (phi for phi in itertools.permutations(range(a.n)) if is_hom(a, b, phi)),
        None,
    )


class TestHoms:
    def test_constant_maps_to_fixed_points(self):
        # constants land exactly on the elements fixed by their own action
        source = dihedral(3)
        target = dihedral(3)
        homs = enumerate_homs(source, target)
        constants = [phi for phi in homs if len(set(phi)) == 1]
        assert len(constants) == 3

    def test_endomorphisms_of_dihedral_3_are_affine(self):
        homs = enumerate_homs(dihedral(3), dihedral(3))
        assert len(homs) == 9
        affine = {
            tuple((k * a + c) % 3 for a in range(3))
            for k in range(3)
            for c in range(3)
        }
        assert set(homs) == affine

    def test_matches_brute_force(self, racks_by_order):
        # every ordered pair of orders 3 and 4; the pair (r4[10], r4[2])
        # has a non-hom whose broken constraint has s_a(b) assigned last
        racks = racks_by_order[3] + racks_by_order[4]
        for source in racks:
            for target in racks:
                fast = enumerate_homs(source, target)
                brute = enumerate_homs(source, target, brute_force=True)
                assert fast == brute

    def test_is_rack_hom_agrees_with_enumeration(self):
        source, target = dihedral(3), trivial_quandle(3)
        homs = set(enumerate_homs(source, target))
        for phi in itertools.product(range(3), repeat=3):
            assert is_rack_hom(source, target, phi) == (phi in homs)

    def test_empty_source(self):
        assert enumerate_homs(trivial_quandle(0), dihedral(3)) == [()]


class TestIsomorphism:
    def test_witness_is_an_isomorphism(self, racks_by_order):
        for rack in racks_by_order[4]:
            phi = find_iso(rack, rack)
            assert phi is not None

    def test_distinct_classes_never_isomorphic(self, racks_by_order):
        for a, b in itertools.combinations(racks_by_order[4], 2):
            assert find_iso(a, b) is None

    def test_relabeling_is_isomorphic(self):
        rack = dihedral(4)
        p = Permutation([1, 3, 0, 2])
        relabeled = check_rack(
            4, [p * rack.s[p.inverse().images[x]] * p.inverse() for x in range(4)]
        )
        phi = find_iso(rack, relabeled)
        assert phi is not None
        for x, y in itertools.product(range(4), repeat=2):
            assert phi.images[rack.s[x].images[y]] == relabeled.s[phi.images[x]].images[phi.images[y]]

    def test_different_orders(self):
        assert find_iso(dihedral(3), dihedral(4)) is None


class TestIsoWitnesses:
    """``find_iso`` and ``find_gl_iso`` return exactly the lexicographically
    least isomorphism, as brute force over ``S_n`` finds it."""

    def test_find_iso_is_the_least_isomorphism(self, racks_by_order):
        rng = random.Random(20)
        racks = []
        for n in range(5):
            for rack in racks_by_order[n]:
                racks += [rack, _relabel(rack, _random_perm(rng, n))]
        found = 0
        for a, b in itertools.product(racks, repeat=2):
            expected = _least_iso(a, b, is_rack_hom)
            phi = find_iso(a, b)
            assert (phi.images if phi else None) == expected
            found += expected is not None
        assert found > len(racks)

    def test_find_gl_iso_is_the_least_isomorphism(self, racks_by_order):
        from glracks.classify import gl_classes

        rng = random.Random(21)
        for n in range(5):
            reps = [
                check_gl(rack, u)
                for rack in racks_by_order[n]
                for u, _size in gl_classes(rack)
            ]
            copies = [_relabel_gl(gl, _random_perm(rng, n)) for gl in reps]
            for i, a in enumerate(reps):
                for j, b in enumerate(reps + copies):
                    expected = _least_iso(a, b, is_gl_hom)
                    phi = find_gl_iso(a, b)
                    assert (phi.images if phi else None) == expected
                    # GL-class representatives are pairwise non-isomorphic
                    assert (expected is not None) == (j % len(reps) == i)

    def test_different_profiles_are_never_isomorphic(self, racks_by_order):
        rng = random.Random(22)
        racks = racks_by_order[5]
        copies = [_relabel(rack, _random_perm(rng, 5)) for rack in racks]
        profiles = [profile(rack) for rack in racks]
        searched = 0
        for (i, a), (j, b) in itertools.product(enumerate(racks), enumerate(copies)):
            if profiles[i] != profiles[j]:
                assert find_iso(a, b) is None
                # equal s cycle types, so the search itself must say no
                searched += profiles[i].s_cycle_types == profiles[j].s_cycle_types
        assert searched > 0


def _fresh(rack):
    """An equal rack with nothing cached on it."""
    return check_rack(rack.n, rack.s)


def _schedule_oracle(rack):
    """The search schedule rebuilt the direct way: each ``(a, b, s_a(b))``
    under its largest point, in row order."""
    checks = [[] for _ in range(rack.n)]
    for a in range(rack.n):
        for b in range(rack.n):
            c = rack.s[a].images[b]
            checks[max(a, b, c)].append((a, b, c))
    return tuple(map(tuple, checks))


def _cache_cases(racks_by_order):
    """Every rack of order at most 5 and seeded relabeled order-6 racks."""
    rng = random.Random(23)
    cases = [rack for n in range(6) for rack in racks_by_order[n]]
    sixes = rng.sample(classify.enumerate_racks(6), 40)
    return cases + [_relabel(rack, _random_perm(rng, 6)) for rack in sixes]


class TestSearchCache:
    """Each rack keeps its search schedule, row cycle types and type index
    once built, and each GL-rack the cycle type of ``u``; what they keep
    must equal a fresh build and depend on nothing else."""

    def test_cached_data_equals_a_fresh_build(self, racks_by_order):
        for rack in _cache_cases(racks_by_order):
            copy = _fresh(rack)
            assert copy._checks == _schedule_oracle(rack)
            assert copy._row_types == tuple(p.cycle_type() for p in rack.s)
            # built once: a second read is the same object
            assert copy._checks is copy._checks
            assert copy._row_types is copy._row_types
            # the schedule holds only shared steps and triples
            for step in copy._checks:
                assert _SHARED[step] is step
                assert all(_SHARED[t] is t for t in step)

    def test_type_index_equals_a_fresh_grouping(self, racks_by_order):
        for rack in _cache_cases(racks_by_order):
            copy = _fresh(rack)
            types, points = copy._type_index
            cycle_types = [p.cycle_type() for p in rack.s]
            assert types == tuple(sorted(cycle_types))
            assert points == {
                key: [x for x in range(rack.n) if cycle_types[x] == key]
                for key in set(cycle_types)
            }
            # built once, with the multiset shared
            assert copy._type_index is copy._type_index
            assert _SHARED[types] is types

    def test_shuffled_queries_match_fresh_copies(self, racks_by_order):
        rng = random.Random(24)
        queries = []
        for n in (3, 4):
            pool = racks_by_order[n] + [
                _relabel(rack, _random_perm(rng, n)) for rack in racks_by_order[n]
            ]
            gls = [
                check_gl(rack, u)
                for rack in pool
                for u, _size in classify.gl_classes(rack)
            ]
            for a, b in itertools.product(pool, repeat=2):
                queries += [(find_iso, a, b), (enumerate_homs, a, b)]
            for a, b in itertools.product(gls, repeat=2):
                if a.u.cycle_type() == b.u.cycle_type():
                    queries.append((find_gl_iso, a, b))
        rng.shuffle(queries)
        for query, a, b in queries:
            if query is find_gl_iso:
                fresh = find_gl_iso(
                    check_gl(_fresh(a.rack), a.u), check_gl(_fresh(b.rack), b.u)
                )
            else:
                fresh = query(_fresh(a), _fresh(b))
            assert query(a, b) == fresh

    def test_aut_group_and_aut_glr_store_nothing(self, small_racks):
        for _n, rack in small_racks:
            copy = _fresh(rack)
            aut = aut_group(copy)
            for u in classify.gl_structures(copy, aut).elements:
                aut_glr(check_gl(copy, u))
            assert set(vars(copy)) == {"n", "rows"}

    def test_record_layer_stores_nothing(self, small_racks, tmp_path):
        # the GL check's column bytes stay on the record layer's table
        path = str(tmp_path / "records.txt")
        for _n, rack in small_racks:
            copy = _fresh(rack)
            us = classify.gl_structures(rack, aut_group(rack)).elements
            write_records(path, gl_records(copy, us))
            assert set(vars(copy)) == {"n", "rows"}
            assert all(not isinstance(found, ValueError) for _, found in scan_records(path))
            assert set(vars(copy)) == {"n", "rows"}
            for _record, read in read_racks(path):
                assert set(vars(read)) == {"n", "rows"}

    def test_one_query_from_a_large_source_interns_nothing(self):
        # the classification orders keep their schedules; an order-300
        # source builds its 90,000 triples for the one search alone
        assert classify.MAX_ORDER <= morphisms._KEPT_ORDER
        before = len(_SHARED)
        source = trivial_quandle(300)
        assert enumerate_homs(source, trivial_quandle(1)) == [(0,) * 300]
        assert len(_SHARED) == before
        assert "_checks" not in vars(source)

    def test_filled_cache_keeps_equality_hash_and_pickling(self, racks_by_order):
        for rack in _cache_cases(racks_by_order):
            filled = _fresh(rack)
            assert find_iso(filled, rack) == Permutation.identity(rack.n)
            assert {"_checks", "_row_types"} <= set(vars(filled))
            assert filled == rack and hash(filled) == hash(rack)
            loaded = pickle.loads(pickle.dumps(filled))
            assert loaded == rack and hash(loaded) == hash(rack)
            assert loaded._checks == _schedule_oracle(rack)
            assert loaded._row_types == filled._row_types
            assert loaded._type_index == filled._type_index
            assert find_iso(loaded, filled) == Permutation.identity(rack.n)

    def test_filled_gl_cache_keeps_u_type_equality_hash_and_pickling(
        self, racks_by_order
    ):
        for rack in racks_by_order[4] + racks_by_order[5]:
            for u, _size in classify.gl_classes(rack):
                gl = check_gl(rack, u)
                filled = check_gl(_fresh(rack), u)
                assert find_gl_iso(filled, gl) == Permutation.identity(rack.n)
                # kept, shared, and the cycle type of u
                assert vars(filled)["_u_type"] is filled._u_type
                assert _SHARED[filled._u_type] is filled._u_type
                assert filled._u_type == u.cycle_type()
                assert filled == gl and hash(filled) == hash(gl)
                loaded = pickle.loads(pickle.dumps(filled))
                assert loaded == gl and hash(loaded) == hash(gl)
                assert loaded._u_type == u.cycle_type()
                assert find_gl_iso(loaded, filled) == Permutation.identity(rack.n)


class TestSearchDepth:
    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        # one search step per source point: 300 points under a recursion
        # limit of 200
        code = (
            "import sys\n"
            "from glracks.morphisms import enumerate_homs, find_iso\n"
            "from glracks.racks import trivial_quandle\n"
            "big, point = trivial_quandle(300), trivial_quandle(1)\n"
            "sys.setrecursionlimit(200)\n"
            "print(enumerate_homs(big, point) == [(0,) * 300])\n"
            "print(find_iso(big, big).images == tuple(range(300)))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True"]


class TestAutGroups:
    def test_aut_of_dihedral_is_affine(self):
        # f(a) = ka + c with k invertible
        import math

        for m in (3, 4, 5, 6, 7, 8):
            expected = m * sum(1 for k in range(1, m) if math.gcd(k, m) == 1)
            assert aut_group(dihedral(m)).order == expected

    def test_aut_of_trivial_quandle_is_symmetric(self):
        assert aut_group(trivial_quandle(4)).order == math.factorial(4)

    def test_aut_elements_are_automorphisms(self, racks_by_order):
        for rack in racks_by_order[4]:
            for g in aut_group(rack).elements:
                assert is_rack_hom(rack, rack, g.images)

    def test_aut_of_order_7_rack_1961(self):
        # rack 1961 of the canonical order-7 list: a search that skips the
        # constraints whose s_a(b) is assigned last finds 12 maps here
        line = (
            "n=7 s=1,3,4,2,6,7,5;1,5,6,7,2,3,4;1,5,6,7,2,3,4;1,5,6,7,2,3,4;"
            "1,5,6,7,2,3,4;1,5,6,7,2,3,4;1,5,6,7,2,3,4"
        )
        rack = parse_record_line(line).rack()
        group = aut_group(rack)
        assert group.order == 6
        for g in group.elements:
            assert is_rack_hom(rack, rack, g.images)

    def test_aut_group_is_the_ordered_filter_of_s_n(self, small_racks):
        # the exhaustive search path: every automorphism, in lexicographic
        # order, and nothing else
        for n, rack in small_racks:
            expected = [
                phi
                for phi in itertools.permutations(range(n))
                if is_rack_hom(rack, rack, phi)
            ]
            assert [g.images for g in aut_group(rack).elements] == expected

    def test_aut_glr_is_the_ordered_filter_of_s_n(self, racks_by_order):
        for n in range(5):
            for rack in racks_by_order[n]:
                for u, _size in classify.gl_classes(rack):
                    gl = check_gl(rack, u)
                    expected = [
                        phi
                        for phi in itertools.permutations(range(n))
                        if is_gl_hom(gl, gl, phi)
                    ]
                    assert [g.images for g in aut_glr(gl).elements] == expected

    def test_aut_group_type_pruning_is_exact(self, small_racks):
        # candidates drawn by row cycle type drop no automorphism and keep
        # the lexicographic order of the search over every target point
        rng = random.Random(19)
        racks = [rack for _n, rack in small_racks] + classify.enumerate_racks(6)
        for rack in racks:
            for case in (rack, _relabel(rack, _random_perm(rng, rack.n))):
                unpruned = morphisms._search(case, case, injective=True, store=False)
                assert [g.images for g in aut_group(case).elements] == unpruned

    def test_aut_closed_under_composition(self, racks_by_order):
        for rack in racks_by_order[3]:
            group = aut_group(rack)
            for a, b in itertools.product(group.elements, repeat=2):
                assert a * b in group


class TestGLMorphisms:
    def test_gl_homs_are_the_equivariant_rack_homs(self, racks_by_order):
        from glracks.classify import gl_classes

        pairs = []
        for rack in racks_by_order[3]:
            for u, _size in gl_classes(rack):
                pairs.append(check_gl(rack, u))
        for g1, g2 in itertools.product(pairs, repeat=2):
            gl_homs = set(enumerate_gl_homs(g1, g2))
            homs = enumerate_homs(g1.rack, g2.rack)
            assert gl_homs <= set(homs)
            for phi in homs:
                expected = all(
                    phi[g1.u.images[x]] == g2.u.images[phi[x]] for x in range(3)
                )
                assert (phi in gl_homs) == expected
                assert is_gl_hom(g1, g2, phi) == expected

    def test_find_gl_iso_distinguishes_u(self):
        rack = trivial_quandle(4)
        g1 = check_gl(rack, parse_cycles("(12)", 4))
        g2 = check_gl(rack, parse_cycles("(34)", 4))
        g3 = check_gl(rack, parse_cycles("(12)(34)", 4))
        phi = find_gl_iso(g1, g2)
        assert phi is not None
        assert is_gl_hom(g1, g2, phi.images)
        assert find_gl_iso(g1, g3) is None

    def test_aut_glr_two_routes_agree(self, racks_by_order):
        from glracks.classify import gl_classes

        for n in (2, 3, 4):
            for rack in racks_by_order[n]:
                for u, _size in gl_classes(rack):
                    gl = check_gl(rack, u)
                    autos = aut_glr(gl)
                    bijective = {
                        phi for phi in enumerate_gl_homs(gl, gl) if len(set(phi)) == n
                    }
                    assert {g.images for g in autos.elements} == bijective
                    assert autos.elements == centralizer(aut_group(rack), [u]).elements


class TestHomRacks:
    def test_hom_rack_of_dihedral_3(self):
        rack, homs = hom_rack(dihedral(3), dihedral(3))
        assert rack.n == 9
        assert is_quandle(rack) and is_medial(rack)
        # the rack operation is pointwise twisted composition:
        # (f * g)(x) = s_{g(x)}(f(x)) in the target
        target = dihedral(3)
        for i, f in enumerate(homs):
            for j, g in enumerate(homs):
                image = tuple(target.s[g[x]].images[f[x]] for x in range(3))
                assert homs[rack.s[j].images[i]] == image

    def test_hom_rack_requires_medial_target(self):
        nonmedial = check_rack(
            4, [parse_cycles(c, 4) for c in ["id", "(34)", "(24)", "(23)"]]
        )
        with pytest.raises(ValueError):
            hom_rack(dihedral(3), nonmedial)

    def test_hom_glrack_is_subrack_construction(self):
        rack = trivial_quandle(3)
        g1 = check_gl(rack, parse_cycles("(12)", 3))
        g2 = check_gl(rack, parse_cycles("(23)", 3))
        gl, gl_homs = hom_glrack(g1, g2)
        assert gl.n == len(gl_homs)
        for phi in gl_homs:
            assert is_gl_hom(g1, g2, phi)
        # u acts by postcomposition with g2's u
        for i, phi in enumerate(gl_homs):
            assert gl_homs[gl.u.images[i]] == tuple(g2.u.images[v] for v in phi)

    def test_hom_glrack_is_the_gl_subrack_of_hom_rack(self, racks_by_order):
        # oracle: the full hom rack restricted to the maps is_gl_hom keeps,
        # with its subrack closure checked by hand
        from glracks.classify import gl_classes

        gls = [
            check_gl(rack, u)
            for n in (0, 1, 2, 3)
            for rack in racks_by_order[n]
            for u, _size in gl_classes(rack)
        ]
        for g1 in gls:
            for g2 in gls:
                if not is_medial(g2.rack):
                    continue
                full_rack, full_homs = hom_rack(g1.rack, g2.rack)
                positions = [
                    i for i, phi in enumerate(full_homs) if is_gl_hom(g1, g2, phi)
                ]
                pos_index = {p: i for i, p in enumerate(positions)}
                for p in positions:
                    row, inv = full_rack.s[p], full_rack.s[p].inverse()
                    for q in positions:
                        assert row.images[q] in pos_index and inv.images[q] in pos_index
                gl_homs = [full_homs[p] for p in positions]
                u2 = g2.u.images
                gl, homs = hom_glrack(g1, g2)
                assert homs == gl_homs
                assert gl.rack.tables() == tuple(
                    tuple(pos_index[full_rack.s[p].images[q]] for q in positions)
                    for p in positions
                )
                assert gl.u.images == tuple(
                    gl_homs.index(tuple(u2[v] for v in phi)) for phi in gl_homs
                )

    def test_hom_rack_over_the_cap_raises(self, monkeypatch):
        # the 27 homs T_3 -> T_3 give a table of 27**2 entries
        source = target = trivial_quandle(3)
        assert len(hom_rack(source, target)[1]) == 27
        monkeypatch.setattr(perm, "GROUP_CAP", 27**2)
        assert len(hom_rack(source, target)[1]) == 27
        monkeypatch.setattr(perm, "GROUP_CAP", 27**2 - 1)
        with pytest.raises(GroupTooLargeError):
            hom_rack(source, target)
        gl = check_gl(source, Permutation.identity(3))
        with pytest.raises(GroupTooLargeError):
            hom_glrack(gl, gl)

    def test_hom_rack_over_the_code_points_raises(self, monkeypatch):
        # the pointwise table codes each pair (x, f(x)) as one code point
        source = target = dihedral(3)
        monkeypatch.setattr(morphisms, "_CODE_POINTS", 9)
        assert len(hom_rack(source, target)[1]) == 9
        monkeypatch.setattr(morphisms, "_CODE_POINTS", 8)
        with pytest.raises(GroupTooLargeError):
            hom_rack(source, target)
        gl = check_gl(source, Permutation.identity(3))
        with pytest.raises(GroupTooLargeError):
            hom_glrack(gl, gl)

    def test_hom_racks_agree_with_the_tuple_oracle(self, racks_by_order):
        from glracks.classify import gl_classes

        sources = [r for n in range(4) for r in racks_by_order[n]]
        targets = [r for n in range(5) for r in racks_by_order[n] if is_medial(r)]
        gl_targets = [check_gl(t, u) for t in targets for u, _size in gl_classes(t)]
        sizes = set()
        for source in sources:
            for target in targets:
                rack, homs = hom_rack(source, target)
                assert homs == enumerate_homs(source, target, brute_force=True)
                assert rack.tables() == pointwise_tables(target, homs)
                sizes.add(rack.n)
            for u, _size in gl_classes(source):
                g1 = check_gl(source, u)
                for g2 in gl_targets:
                    gl, gl_homs = hom_glrack(g1, g2)
                    u2 = g2.u.images
                    assert gl_homs == [
                        phi
                        for phi in enumerate_homs(source, g2.rack, brute_force=True)
                        if is_gl_hom(g1, g2, phi)
                    ]
                    assert gl.rack.tables() == pointwise_tables(g2.rack, gl_homs)
                    assert gl.u.images == tuple(
                        gl_homs.index(tuple(u2[v] for v in phi)) for phi in gl_homs
                    )
        assert max(sizes) == 64

    def test_hom_list_missing_a_hom_fails_as_the_tuple_oracle_does(self, racks_by_order):
        # dropping a hom leaves a subrack only when every remaining row
        # fixes it; otherwise some product leaves the list
        def outcome(fn, *args):
            try:
                result = fn(*args)
            except AssertionError as exc:
                return ("raised", str(exc))
            return ("ok", result.tables() if hasattr(result, "tables") else result)

        targets = [r for n in range(5) for r in racks_by_order[n] if is_medial(r)]
        raised = 0
        for source in racks_by_order[3]:
            for target in targets:
                homs = enumerate_homs(source, target)
                for i in range(len(homs)):
                    rest = homs[:i] + homs[i + 1 :]
                    got = outcome(_pointwise_rack, source, target, rest)
                    assert got == outcome(pointwise_tables, target, rest)
                    raised += got == ("raised", "a pointwise product leaves the hom set")
        assert raised

    def test_pointwise_product_leaving_the_carrier_raises(self):
        # the identity and the constant map 0 of R_3: the product of the
        # constant by the identity is x -> 2x mod 3, which is not listed
        source = target = dihedral(3)
        homs = [(0, 0, 0), (0, 1, 2)]
        with pytest.raises(AssertionError):
            _pointwise_rack(source, target, homs)

    def test_is_bihom(self):
        target = dihedral(3)
        # beta(a, b) = a + b is a bihom T(Z/3) x T(Z/3) -> R_3? check both slots
        r3 = takasaki(3)
        beta = lambda a, b: (a + b) % 3
        assert is_bihom(r3, r3, target, beta) == all(
            beta(r3.s[x].images[a], b) == target.s[beta(x, b)].images[beta(a, b)]
            and beta(a, r3.s[y].images[b]) == target.s[beta(a, y)].images[beta(a, b)]
            for a in range(3)
            for b in range(3)
            for x in range(3)
            for y in range(3)
        )

    def test_is_gl_bihom(self):
        # with u the identity everywhere, GL-homs are rack homs; the a^2
        # term makes two thirds of these maps fail to be bihoms
        r3, target = takasaki(3), dihedral(3)
        ident = Permutation.identity(3)
        g3, gt = check_gl(r3, ident), check_gl(target, ident)
        for h, i, j, c in itertools.product(range(3), repeat=4):
            beta = lambda a, b: (h * a * a + i * a + j * b + c) % 3
            assert is_gl_bihom(g3, g3, gt, beta) == is_bihom(r3, r3, target, beta)
        # every map of trivial quandles is a rack hom, but the slices of
        # beta(a, b) = a do not commute with the swap u on the first factor
        t2 = trivial_quandle(2)
        swap = check_gl(t2, parse_cycles("(12)", 2))
        fixed = check_gl(t2, Permutation.identity(2))
        beta = lambda a, b: a
        assert is_bihom(t2, t2, t2, beta)
        assert not is_gl_bihom(swap, fixed, fixed, beta)
