import itertools
import math
import random

import pytest

from glracks import classify
from glracks.classify import (
    LongRunRequired,
    classify_gl,
    count_report,
    enumerate_racks,
    gl_classes,
    gl_structures,
)
from glracks.functors import functor_g
from glracks.glrack import check_gl
from glracks.morphisms import aut_group, find_gl_iso, find_iso
from glracks.perm import Permutation, conjugation_orbits
from glracks.racks import check_rack, dihedral, is_medial, is_quandle

from golden_tables import EXPECTED_COUNTS, RACK_COUNTS
from oracles import (
    centralizer,
    gl_structures_brute,
    oracle_min,
    orderly_racks,
    rack_first,
    relabel_by,
    sweep_dedupe,
)
from test_acceptance import long_run_only


class TestEnumeration:
    def test_counts_up_to_5(self, racks_by_order):
        for n, racks in racks_by_order.items():
            assert len(racks) == RACK_COUNTS[n]

    def test_no_two_classes_isomorphic_order_4(self, racks_by_order):
        for a, b in itertools.combinations(racks_by_order[4], 2):
            assert find_iso(a, b) is None

    def test_every_rack_validates(self, small_racks):
        for n, rack in small_racks:
            check_rack(n, rack.s)

    def test_deterministic(self):
        assert [r.tables() for r in enumerate_racks(4)] == [
            r.tables() for r in enumerate_racks(4)
        ]

    def test_long_run_gate(self):
        with pytest.raises((LongRunRequired, ValueError)):
            enumerate_racks(7)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_racks(-1)
        with pytest.raises(ValueError):
            enumerate_racks(9, long_run=True)


def _conjugate(p, s):
    """p s p^-1 as an image tuple."""
    out = [0] * len(s)
    for i, v in enumerate(s):
        out[p[i]] = p[v]
    return tuple(out)


def _images(group):
    return [a.images for a in group.elements]


class TestQuandleFirst:
    def test_quandle_search_keeps_the_least_table_of_every_class(self):
        for n in range(7):
            quandles = {
                t for t in rack_first(n) if all(t[x][x] == x for x in range(n))
            }
            oracle = sweep_dedupe(quandles, n)
            labeled = [table for table, _aut in classify._labeled_racks(n)]
            assert labeled == oracle

    def test_labeled_quandle_counts(self):
        # one labeled table per quandle class: the r_q column
        counts = [len(classify._labeled_racks(n)) for n in range(7)]
        assert counts == [1, 1, 1, 3, 7, 22, 73]

    def test_quandle_classes_order_7(self):
        classes = classify._labeled_racks(7)
        assert len(classes) == EXPECTED_COUNTS[7][6]  # r_q

    @pytest.mark.parametrize("n", [*range(8), pytest.param(8, marks=long_run_only)])
    def test_dedupe_carries_aut_group(self, n):
        # one table per class, and the relabelings that give it back are its
        # whole automorphism group; for the trivial quandle that is S_n
        classes = classify._labeled_racks(n)
        assert len(classes) == EXPECTED_COUNTS[n][6]  # r_q
        for table, aut in classes:
            quandle = check_rack(n, table)
            assert aut.elements == aut_group(quandle).elements
        assert classes[0][1].order == math.factorial(n)

    def test_search_raises_on_a_table_emitted_twice(self, monkeypatch):
        # every branch emitting its tables twice
        real = classify._search
        monkeypatch.setattr(classify, "_search", lambda *args: real(*args) * 2)
        with pytest.raises(RuntimeError, match="emitted a table twice"):
            classify._labeled_racks(4)

    def test_block_key_is_least_conjugate(self):
        # every identity set up to degree 4, the prefixes {0..k-1} at degree
        # 5; x outside the set, fixed or moved by the row
        for n in range(6):
            perms = list(itertools.permutations(range(n)))
            for k in range(n):
                sets = itertools.combinations(range(n), k) if n <= 4 else [range(k)]
                for ids in map(set, sets):
                    relabelings = [q for q in perms if all(q[a] < k for a in ids)]
                    for s in perms:
                        if any(s[a] not in ids for a in ids):
                            continue
                        for x in set(range(n)) - ids:
                            key, p = classify._block_form(s, ids, x)
                            least = min(
                                _conjugate(q, s) for q in relabelings if q[x] == k
                            )
                            assert key == least
                            assert p[x] == k and all(p[a] < k for a in ids)
                            assert _conjugate(p, s) == key

    def test_canonical_is_lex_least_relabeling_up_to_order_4(self):
        for n in range(5):
            for table in rack_first(n):
                assert classify._canonical(table, ())[0] == oracle_min(table, n)
                # the same table with the automorphisms, and p gives it
                autos = _images(aut_group(check_rack(n, table)))
                canon, (p, pinv, _then) = classify._canonical(table, autos)
                assert canon == oracle_min(table, n)
                assert relabel_by(table, n, p) == canon
                assert [p[v] for v in pinv] == list(range(n))

    @pytest.mark.parametrize("n", [5, 6])
    def test_canonical_of_random_relabelings(self, n):
        # enumerated racks are already lex-least: at order 5 by the S_n
        # oracle, at order 6 by test_enumeration_equals_rack_first_oracle
        rng = random.Random(n)
        for rack in enumerate_racks(n):
            table = rack.tables()
            if n == 5:
                assert oracle_min(table, n) == table
            autos = _images(aut_group(rack))
            for _ in range(3):
                p = list(range(n))
                rng.shuffle(p)
                assert classify._canonical(relabel_by(table, n, p), ())[0] == table
                # with aut_group moved onto the relabeled table: p a p^-1
                relabeled = relabel_by(table, n, p)
                pinv = sorted(range(n), key=p.__getitem__)
                moved = sorted(tuple(p[a[j]] for j in pinv) for a in autos)
                relabeled_rack = check_rack(n, relabeled)
                assert moved == _images(aut_group(relabeled_rack))
                canon, (q, _qinv, _then) = classify._canonical(relabeled, moved)
                assert canon == table
                assert relabel_by(relabeled, n, q) == table

    @pytest.mark.parametrize("n", range(7))
    def test_enumeration_equals_rack_first_oracle(self, n):
        oracle = sweep_dedupe(rack_first(n), n)
        got = [r.tables() for r in enumerate_racks(n)]
        assert got == oracle

    @pytest.mark.parametrize("n", [*range(8), pytest.param(8, marks=long_run_only)])
    def test_enumeration_equals_orderly_rack_search(self, n):
        # the least table of each class straight from the orderly search run
        # over racks, with no untwist, orbit walk or canonical form
        got = [r.tables() for r in enumerate_racks(n, long_run=True)]
        assert got == list(orderly_racks(n))

    def test_equal_canonical_forms_raise(self, monkeypatch):
        # every GL-quandle class met twice untwists to the same rack twice
        real = classify.orbit_centralizers
        monkeypatch.setattr(
            classify,
            "orbit_centralizers",
            lambda members, group: real(members, group) * 2,
        )
        with pytest.raises(RuntimeError):
            enumerate_racks(3)


class TestCarriedAutomorphisms:
    """``Aut G(Q, u) = C_{Aut Q}(u)`` and ``U(G(Q, u)) = C_{U(Q)}(u)``,
    taken from the quandle class and carried through ``_canonical``."""

    @pytest.mark.parametrize("n", range(7))
    def test_one_relabeling_per_automorphism_coset(self, n):
        # the normal relabelings split into cosets p Aut R, one table each;
        # with all of Aut R exactly one relabeling per coset is yielded
        for rack in enumerate_racks(n):
            table = rack.tables()
            autos = _images(aut_group(rack))
            every = [rel[:2] for rel in classify._normal_relabelings(table)]
            fewer = [rel[:2] for rel in classify._normal_relabelings(table, autos)]
            if table == (tuple(range(n)),) * n:  # the trivial rack: identity only
                assert fewer == every == [(tuple(range(n)), tuple(range(n)))]
                continue
            assert len(fewer) * len(autos) == len(every)
            tables = {relabel_by(table, n, p) for p, _pinv in fewer}
            assert len(tables) == len(fewer)

    @pytest.mark.parametrize("n", range(7))
    def test_carried_group_is_aut_group(self, n, monkeypatch):
        # the group that the orbit walk hands _canonical is the whole
        # automorphism group of the untwisted table
        real = classify._canonical
        seen = []

        def canonical(table, autos=()):
            seen.append((table, autos))
            return real(table, autos)

        monkeypatch.setattr(classify, "_canonical", canonical)
        assert len(enumerate_racks(n)) == len(seen)
        for table, autos in seen:
            assert autos == _images(aut_group(check_rack(n, table)))

    @pytest.mark.parametrize("n", [*range(8), pytest.param(8, marks=long_run_only)])
    def test_carried_classes_are_gl_classes(self, n):
        # the classes taken from the quandle's groups are the rack's own,
        # also for a central u, whose classes are the quandle's orbits
        for rack, reps, medial in classify._enumerate(n, long_run=True):
            assert reps == [u.images for u, _ in gl_classes(rack, aut_group(rack))]
            assert medial == is_medial(rack)

    def test_central_structures_take_the_quandle_orbits(self, monkeypatch):
        # a central u, an orbit of one, has Aut R = Aut Q and U(R) = U(Q),
        # so its rack's classes are the quandle's orbits, walked once: the
        # enumeration walks orbits again only for each orbit of more than one
        moving = []
        for n in range(7):
            moving.append(0)
            for table, aut in classify._labeled_racks(n):
                structures = gl_structures(check_rack(n, table), aut)
                members = [u.images for u in structures.elements]
                for orbit in conjugation_orbits(members, aut):
                    moving[n] += len(orbit) > 1
        assert moving == [0, 0, 0, 2, 5, 16, 68]
        real = classify.conjugation_orbits
        calls = []

        def counting(members, group):
            calls.append(group)
            return real(members, group)

        monkeypatch.setattr(classify, "conjugation_orbits", counting)
        for n in range(7):
            calls.clear()
            classify._enumerate(n, long_run=False)
            assert len(calls) == moving[n]

    def test_aut_of_untwist_centralizes_u(self):
        # every u in U(Q), not only the class representatives:
        # Aut G(Q, u) = C_{Aut Q}(u), U(G(Q, u)) = C_{U(Q)}(u), and
        # G(Q, u) is medial exactly when Q is
        for n in range(6):
            for table, _aut in classify._labeled_racks(n):
                quandle = check_rack(n, table)
                aut_q = aut_group(quandle)
                u_q = gl_structures(quandle, aut_q)
                medial = is_medial(quandle)
                for u in u_q.elements:
                    rack = functor_g(check_gl(quandle, u))
                    aut_r = aut_group(rack)
                    assert aut_r.elements == centralizer(aut_q, [u]).elements
                    assert (
                        gl_structures(rack, aut_r).elements
                        == centralizer(u_q, [u]).elements
                    )
                    assert is_medial(rack) == medial

    def test_enumerate_path_never_runs_aut_group(self, monkeypatch):
        # every group comes from the search's Aut Q; a library rack has no
        # quandle stage and still runs aut_group once
        expected = {n: classify_gl(n) for n in range(7)}
        real = classify.aut_group

        def failing(rack):
            raise AssertionError("aut_group on the enumerate path")

        monkeypatch.setattr(classify, "aut_group", failing)
        for n, result in expected.items():
            assert enumerate_racks(n) == result.racks
            assert classify_gl(n).records == result.records
        calls = []

        def counting(rack):
            calls.append(rack)
            return real(rack)

        monkeypatch.setattr(classify, "aut_group", counting)
        racks = expected[4].racks
        assert classify_gl(4, racks).records == expected[4].records
        assert calls == racks

    def test_count_report_needs_a_record_per_rack(self):
        result = classify_gl(3)
        result.records = [r for r in result.records if r.rack_index != 2]
        with pytest.raises(RuntimeError, match=r"\[2\]"):
            count_report(3, result)


class TestGLStructures:
    def test_centralizer_equals_brute_force(self, racks_by_order):
        for n in (0, 1, 2, 3, 4, 5):
            for rack in racks_by_order[n]:
                fast = set(gl_structures(rack).elements)
                assert fast == set(gl_structures_brute(rack))

    def test_row_kernel_equals_centralizer_at_order_6(self):
        # U(R) as the automorphisms that keep every row, against its
        # definition C_{Aut R}(Inn R)
        racks = enumerate_racks(6)
        assert len(racks) == 353
        for rack in racks:
            aut = aut_group(rack)
            assert gl_structures(rack, aut) == centralizer(aut, rack.s)

    def test_structures_form_normal_subgroup_of_aut(self, small_racks):
        for _n, rack in small_racks:
            aut = aut_group(rack)
            u_group = gl_structures(rack, aut)
            for g in aut.elements:
                for u in u_group.elements:
                    assert g * u * g.inverse() in u_group

    def test_dual_has_same_structures(self, small_racks):
        from glracks.racks import dual

        for _n, rack in small_racks:
            assert set(gl_structures(rack).elements) == set(
                gl_structures(dual(rack)).elements
            )

    def test_classes_partition_structures(self, small_racks):
        for _n, rack in small_racks:
            aut = aut_group(rack)
            structures = gl_structures(rack, aut)
            classes = gl_classes(rack, aut)
            assert sum(size for _rep, size in classes) == structures.order
            reps = [rep for rep, _size in classes]
            assert reps == sorted(reps)

    def test_classes_are_aut_orbits_not_u_orbits(self):
        # on R_4 the two nontrivial-u classes fuse under the full
        # automorphism group but not under U itself
        rack = dihedral(4)
        classes = gl_classes(rack)
        assert len(classes) == 3
        assert sorted(size for _rep, size in classes) == [1, 1, 2]


class TestClassification:
    def test_full_counts_small(self):
        for n in range(5):
            report = count_report(n)
            assert (
                report.g,
                report.g_m,
                report.g_q,
                report.g_qm,
                report.r,
                report.r_m,
                report.r_q,
                report.r_qm,
            ) == EXPECTED_COUNTS[n]

    @pytest.mark.parametrize(
        "n",
        [*range(7), *(pytest.param(n, marks=long_run_only) for n in (7, 8))],
    )
    def test_counts_from_quandle_classes(self, n):
        # An independent route to the eight counts, with no rack canonical
        # form and no per-rack aut_group.  R = G(Q, u) has F(R) = (Q, u), so
        # the rack classes are the Aut Q-classes u in U(Q), one quandle
        # class Q at a time; Aut R = C_{Aut Q}(u) and U(R) = C_{U(Q)}(u),
        # so R has the C_{Aut Q}(u)-classes in C_{U(Q)}(u) as GL-classes.
        # R is a quandle exactly when u = id, and medial exactly when Q is:
        # its transvections are those of Q conjugated by u.
        identity = Permutation.identity(n)
        counts = [0] * 8
        for table, _aut in classify._labeled_racks(n):
            quandle = check_rack(n, table)
            aut = aut_group(quandle)
            structures = gl_structures(quandle, aut)
            medial = is_medial(quandle)
            for u, _size in gl_classes(quandle, aut):
                members = (v.images for v in centralizer(structures, [u]).elements)
                g = len(conjugation_orbits(members, centralizer(aut, [u])))
                is_q = u == identity
                for k, counted in enumerate((True, medial, is_q, is_q and medial)):
                    counts[k] += g if counted else 0
                    counts[4 + k] += counted
        assert tuple(counts) == EXPECTED_COUNTS[n]

    def test_complete_against_all_pairs_brute_force(self, racks_by_order):
        # every GL-structure on every rack of order <= 3 is GL-isomorphic to
        # exactly one classified representative
        for n in (0, 1, 2, 3):
            result = classify_gl(n, racks_by_order[n])
            reps = [rec.glrack() for rec in result.records]
            for rack in racks_by_order[n]:
                for u in gl_structures(rack).elements:
                    gl = check_gl(rack, u)
                    matches = [r for r in reps if find_gl_iso(gl, r) is not None]
                    assert len(matches) == 1

    def test_jobs_deterministic(self, racks_by_order):
        serial = classify_gl(4, racks_by_order[4], jobs=1)
        parallel = classify_gl(4, racks_by_order[4], jobs=2)
        key = lambda rec: (rec.rack_index, rec.u)
        assert [key(r) for r in serial.records] == [key(r) for r in parallel.records]

    @pytest.mark.parametrize(
        "jobs, cpus, racks, pool",
        [
            (100_000, 4, 19, 4),
            (100_000, 64, 19, 19),
            (3, 64, 19, 3),
            (8, 1, 19, None),
            (8, 64, 1, None),
            (8, None, 19, None),
        ],
    )
    def test_jobs_open_at_most_one_process_per_rack_and_cpu(
        self, racks_by_order, monkeypatch, jobs, cpus, racks, pool
    ):
        # the fake pool maps in this process, so no process is started
        import multiprocessing

        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, iterable, chunksize=1):
                return map(func, iterable)

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(classify.os, "cpu_count", lambda: cpus)
        rack_list = racks_by_order[4][:racks]
        result = classify_gl(4, rack_list, jobs=jobs)
        assert sizes == ([] if pool is None else [pool])
        assert result.records == classify_gl(4, rack_list).records

    def test_jobs_open_no_pool_for_a_finished_checkpoint(
        self, racks_by_order, monkeypatch, tmp_path
    ):
        import multiprocessing

        def no_pool(processes):
            raise AssertionError(f"a pool of {processes} for no racks")

        ckpt = str(tmp_path / "ckpt")
        done = classify_gl(4, racks_by_order[4], checkpoint_path=ckpt)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        resumed = classify_gl(4, racks_by_order[4], jobs=8, checkpoint_path=ckpt)
        assert resumed.records == done.records

    def test_jobs_only_with_a_rack_list(self):
        with pytest.raises(ValueError, match="rack list"):
            classify_gl(4, jobs=2)

    def test_records_carry_consistent_down_maps(self, racks_by_order):
        from glracks.glrack import down_map

        for rec in classify_gl(4, racks_by_order[4]).records:
            assert rec.d == down_map(rec.glrack()).images
            assert rec.flags.gl_quandle == is_quandle(rec.rack())
            assert rec.flags.medial == is_medial(rec.rack())
