"""The row kernels of check_rack, is_medial, check_gl, centralizer and
conjugation_orbits against the element-wise loops they replaced, kept
here as reference oracles."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glracks.classify import enumerate_racks, gl_classes
from glracks.formats import StructureRecord, gl_records, scan_records, write_records
from glracks.glrack import (
    DoesNotCommuteError,
    GLRackError,
    NotAutomorphismError,
    _columns,
    _is_gl,
    check_gl,
)
from glracks.morphisms import aut_group, hom_rack
from glracks.perm import (
    DegreeMismatchError,
    Permutation,
    SmallGroup,
    _strong_generators,
    closure,
    conjugation_orbits,
    symmetric_group,
)
from glracks.racks import (
    NotABijectionError,
    Rack,
    RackError,
    SelfDistributivityError,
    check_rack,
    is_medial,
    permutation_rack,
)

from oracles import centralizer

# ---------------------------------------------------------------------------
# Oracles: one point at a time


def check_rack_oracle(n, s):
    if len(s) != n:
        raise RackError(f"expected {n} permutations, got {len(s)}")
    perms = []
    for x, entry in enumerate(s):
        try:
            p = entry if isinstance(entry, Permutation) else Permutation(entry)
        except ValueError as exc:
            raise NotABijectionError(x, str(exc)) from exc
        if p.degree != n:
            raise NotABijectionError(x, f"degree {p.degree} != {n}")
        perms.append(p)
    rows = [p.images for p in perms]
    for x in range(n):
        rx = rows[x]
        for y in range(n):
            ry = rows[y]
            rz = rows[rx[y]]
            if any(rx[ry[i]] != rz[rx[i]] for i in range(n)):
                raise SelfDistributivityError(x, y)
    return Rack(n, tuple(p.images for p in perms))


def is_medial_oracle(rack):
    rows = rack.tables()
    n = rack.n
    for x in range(n):
        rx = rows[x]
        for y in range(n):
            ry = rows[y]
            for z in range(y + 1, n):
                rz = rows[z]
                if any(rows[rx[z]][ry[i]] != rows[rx[y]][rz[i]] for i in range(n)):
                    return False
    return True


def check_gl_oracle(rack, u):
    if u.degree != rack.n:
        raise GLRackError(f"u has degree {u.degree}, rack has order {rack.n}")
    ui = u.images
    rows = rack.tables()
    n = rack.n
    for x in range(n):
        rx = rows[x]
        target = rows[ui[x]]
        if any(ui[rx[i]] != target[ui[i]] for i in range(n)):
            raise NotAutomorphismError(x)
    for x in range(n):
        rx = rows[x]
        if any(ui[rx[i]] != rx[ui[i]] for i in range(n)):
            raise DoesNotCommuteError(x)
    return rack


def centralizer_oracle(group, others):
    others = list(others)
    for s in others:
        if s.degree != group.degree:
            raise DegreeMismatchError("centralized elements must match group degree")
    other_images = [s.images for s in others]
    members = []
    for g in group.elements:
        gi = g.images
        if all(
            tuple(gi[j] for j in si) == tuple(si[j] for j in gi) for si in other_images
        ):
            members.append(g)
    return SmallGroup(group.degree, tuple(members), tuple(members))


def conjugation_orbits_oracle(members, group):
    remaining = set(members)
    elems = [g.images for g in group.elements]
    n = group.degree
    orbits = []
    while remaining:
        a = min(remaining)
        orbit = set()
        for gi in elems:
            conj = [0] * n
            for i in range(n):
                conj[gi[i]] = gi[a[i]]
            orbit.add(tuple(conj))
        if not orbit <= remaining:
            raise ValueError(f"conjugation orbit of {a} leaves the member set")
        remaining -= orbit
        orbits.append(sorted(orbit))
    return orbits


def outcome(fn, *args):
    """What a check did: its result, or its error's class, point and text."""
    try:
        return ("ok", fn(*args))
    except RackError as exc:
        return (type(exc), getattr(exc, "x", None), getattr(exc, "y", None), str(exc))


# ---------------------------------------------------------------------------
# Inputs

RACKS = [rack for n in range(6) for rack in enumerate_racks(n)]


@st.composite
def random_tables(draw):
    """n <= 5 rows, each a random permutation or (rarely) a random list."""
    n = draw(st.integers(0, 5))
    row = st.one_of(
        st.permutations(range(n)).map(tuple),
        st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n).map(tuple),
    )
    return n, draw(st.lists(row, min_size=n, max_size=n))


@st.composite
def pooled_tables(draw):
    """n <= 7 rows, each drawn from a pool of 1-3 random permutations, so
    that rows repeat (random rows of order <= 5 almost never do)."""
    n = draw(st.integers(0, 7))
    pool = draw(st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3))
    return n, draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@st.composite
def perturbed_racks(draw):
    """A rack of order <= 5 with one row replaced by a permutation."""
    rack = draw(st.sampled_from([r for r in RACKS if r.n]))
    rows = list(rack.tables())
    x = draw(st.integers(0, rack.n - 1))
    rows[x] = tuple(draw(st.permutations(range(rack.n))))
    return rack.n, rows


class TestCheckRack:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(random_tables(), perturbed_racks()))
    def test_agrees_with_oracle(self, table):
        n, rows = table
        assert outcome(check_rack, n, rows) == outcome(check_rack_oracle, n, rows)

    def test_agrees_on_every_rack_of_order_at_most_5(self):
        for rack in RACKS:
            assert check_rack(rack.n, rack.tables()) == check_rack_oracle(rack.n, rack.tables())

    @settings(max_examples=400, deadline=None)
    @given(pooled_tables())
    # rows 1 and 2 repeat row 0, and the axiom first fails at (3, 2)
    @example((4, [(0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 3, 2)]))
    def test_agrees_with_oracle_on_repeated_rows(self, table):
        n, rows = table
        assert outcome(check_rack, n, rows) == outcome(check_rack_oracle, n, rows)

    def test_first_failing_pair(self):
        # s_2 = (23), the others the identity: s_2 s_1 = s_2 but
        # s_{s_2(1)} s_2 = s_2 s_2 = id, so the axiom first fails at
        # x=2, y=1 (0-based)
        rows = [(0, 1, 2), (0, 1, 2), (0, 2, 1)]
        with pytest.raises(SelfDistributivityError) as info:
            check_rack(3, rows)
        assert (info.value.x, info.value.y) == (2, 1)


class TestIsMedial:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=n, max_size=n)
    ))
    @example([(0, 1, 2), (0, 1, 2), (0, 2, 1)])  # fails only at the last x
    def test_agrees_with_oracle_on_any_table(self, rows):
        # the identity is defined on any table, rack or not
        table = Rack(len(rows), tuple(map(tuple, rows)))
        assert is_medial(table) == is_medial_oracle(table)

    @settings(max_examples=400, deadline=None)
    @given(pooled_tables())
    def test_agrees_with_oracle_on_repeated_rows(self, table):
        n, rows = table
        table = Rack(n, tuple(map(tuple, rows)))
        assert is_medial(table) == is_medial_oracle(table)

    def test_agrees_on_every_rack_of_order_at_most_5(self):
        medial = [is_medial(rack) for rack in RACKS]
        assert medial == [is_medial_oracle(rack) for rack in RACKS]
        assert True in medial and False in medial

    def test_agrees_on_hom_racks(self):
        targets = [r for r in enumerate_racks(3) if is_medial_oracle(r)]
        sizes = set()
        for source in enumerate_racks(3):
            for target in targets:
                rack, _homs = hom_rack(source, target)
                sizes.add(rack.n)
                assert is_medial(rack) == is_medial_oracle(rack)
        assert max(sizes) > 5


def _cycle(n):
    return Permutation(tuple(range(1, n)) + (0,))


# orders 6 to 8: every order-6 rack, and trivial and permutation racks of
# orders 7 and 8, whose rows all repeat the first
LARGER = enumerate_racks(6) + [
    permutation_rack(n, sigma)
    for n in (7, 8)
    for sigma in (
        Permutation.identity(n),
        _cycle(n),
        Permutation((1, 0) + tuple(range(2, n))),
    )
]


@st.composite
def racks_and_maps(draw):
    """A rack of order <= 8 and a random permutation, one of its
    automorphisms or GL-structures (order <= 6), or a power of its first
    row (a GL-structure on a permutation rack)."""
    rack = draw(st.sampled_from(RACKS + LARGER))
    maps = [st.permutations(range(rack.n)).map(Permutation)]
    if rack.n <= 6:
        maps.append(st.sampled_from([u for u, _size in gl_classes(rack)]))
        maps.append(st.sampled_from(aut_group(rack).elements))
    else:
        maps.append(st.integers(0, rack.n - 1).map(rack.s[0].__pow__))
    return rack, draw(st.one_of(maps))


@pytest.fixture(scope="module")
def record_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("records") / "records.txt")


def record_outcomes(rack, u, path):
    """What the record layer made of ``(rack, u)``: the outcome of
    ``gl_records``, and that of a ``scan_records`` read of the record of
    ``u`` (with no ``d`` or flags) written to ``path``."""
    built = outcome(gl_records, rack, [u])
    write_records(path, [StructureRecord(rack.n, rack.tables(), u.images)])
    [(_lineno, found)] = scan_records(path)
    if isinstance(found, StructureRecord):
        read = ("ok", found)
    else:
        read = (type(found), getattr(found, "x", None), None, str(found))
    return built, read


def two_block_rack(half):
    """A rack of order ``2 half``: ``s_x`` is the cycle of the first half
    for ``x`` in it, and the cycle of the second half for ``x`` in that.
    The swap of the halves is an automorphism that commutes with no
    ``s_x``; the first cycle is a GL-structure."""
    a = tuple(range(1, half)) + (0,) + tuple(range(half, 2 * half))
    b = tuple(range(half)) + tuple(range(half + 1, 2 * half)) + (half,)
    return check_rack(2 * half, [a] * half + [b] * half), Permutation(a)


class TestCheckGL:
    @settings(max_examples=400, deadline=None)
    @given(racks_and_maps())
    def test_agrees_with_oracle(self, pair):
        rack, u = pair
        got = outcome(check_gl, rack, u)
        want = outcome(check_gl_oracle, rack, u)
        if rack.n > 1:
            # the whole-table kernel, which check_gl runs first
            rows = rack.tables()
            assert _is_gl(rows, _columns(rows), u.images) == (want[0] == "ok")
        if want[0] == "ok":
            assert got[0] == "ok" and got[1].rack is rack and got[1].u is u
        else:
            assert got == want

    @settings(max_examples=400, deadline=None)
    @given(racks_and_maps())
    def test_record_layer_agrees_with_oracle(self, record_path, pair):
        rack, u = pair
        want = outcome(check_gl_oracle, rack, u)
        built, read = record_outcomes(rack, u, record_path)
        if want[0] == "ok":
            assert built[0] == "ok" and built[1][0].u == u.images
            assert read[0] == "ok" and read[1].u == u.images
        else:
            assert built == want and read == want

    def test_wrong_degree(self):
        rack = RACKS[5]
        u = Permutation.identity(rack.n + 1)
        assert outcome(check_gl, rack, u) == outcome(check_gl_oracle, rack, u)
        assert outcome(gl_records, rack, [u]) == outcome(check_gl_oracle, rack, u)

    @pytest.mark.parametrize("case", ["permutation", "two_block"])
    def test_beyond_the_byte_range(self, record_path, case):
        # past 256 points no point is a byte, and every u goes to the row scan
        if case == "permutation":
            sigma = _cycle(300)
            rack, good = permutation_rack(300, sigma), sigma**7
            # on a permutation rack a u that does not commute with sigma
            # is no automorphism either
            bad = Permutation((1, 0) + tuple(range(2, 300)))
            error = NotAutomorphismError
        else:
            rack, good = two_block_rack(150)
            bad = Permutation(tuple(range(150, 300)) + tuple(range(150)))
            error = DoesNotCommuteError
        assert outcome(check_gl_oracle, rack, good)[0] == "ok"
        want = outcome(check_gl_oracle, rack, bad)
        assert want[0] is error
        assert check_gl(rack, good).u is good
        assert outcome(check_gl, rack, bad) == want
        built, read = record_outcomes(rack, good, record_path)
        assert built[0] == "ok" and read[0] == "ok"
        assert record_outcomes(rack, bad, record_path) == (want, want)


# ---------------------------------------------------------------------------
# The group layer


def group_outcome(fn, *args):
    """What a group function did: its result, or its error's class and text."""
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return (type(exc), str(exc))


@st.composite
def groups_and_perms(draw):
    """A group generated by random permutations of degree <= 5, with a
    list of random permutations of the same degree."""
    n = draw(st.integers(0, 5))
    perm = st.permutations(range(n)).map(Permutation)
    group = closure(draw(st.lists(perm, max_size=3)), degree=n)
    return group, draw(st.lists(perm, max_size=4))


class TestCentralizer:
    def test_agrees_on_every_aut_group_of_order_at_most_5(self):
        for rack in RACKS:
            aut = aut_group(rack)
            assert centralizer(aut, rack.s) == centralizer_oracle(aut, rack.s)

    @settings(max_examples=300, deadline=None)
    @given(groups_and_perms())
    def test_agrees_with_oracle(self, case):
        group, others = case
        assert centralizer(group, others) == centralizer_oracle(group, others)

    def test_degree_mismatch(self):
        group = closure([Permutation((1, 2, 0))])
        with pytest.raises(DegreeMismatchError):
            centralizer(group, [Permutation((1, 0))])


class TestConjugationOrbits:
    def test_agrees_on_every_aut_group_of_order_at_most_5(self):
        for rack in RACKS:
            aut = aut_group(rack)
            for members in (
                [g.images for g in aut.elements],
                [u.images for u in centralizer_oracle(aut, rack.s).elements],
            ):
                assert conjugation_orbits(members, aut) == conjugation_orbits_oracle(
                    members, aut
                )

    @settings(max_examples=300, deadline=None)
    @given(groups_and_perms(), st.booleans())
    def test_agrees_with_oracle(self, case, closed):
        # the group's own elements are closed under its conjugation;
        # ``others`` are usually not, and both raise at the same orbit
        group, others = case
        members = [g.images for g in (group.elements if closed else others)]
        assert group_outcome(conjugation_orbits, members, group) == group_outcome(
            conjugation_orbits_oracle, members, group
        )

    def test_orbit_leaving_the_members_raises(self):
        group = closure([Permutation((1, 2, 0)), Permutation((1, 0, 2))])
        with pytest.raises(ValueError, match=r"conjugation orbit of \(1, 0, 2\) leaves"):
            conjugation_orbits([(0, 1, 2), (1, 0, 2)], group)


class TestStrongGenerators:
    """conjugation_orbits searches over _strong_generators, so its orbits
    are whole only if these generate the group."""

    @staticmethod
    def assert_generates(group):
        generators = _strong_generators(group)
        assert closure(generators, degree=group.degree).elements == group.elements
        return generators

    def test_every_aut_group_of_order_at_most_5(self):
        for rack in RACKS:
            self.assert_generates(aut_group(rack))

    @pytest.mark.parametrize("n", range(7))
    def test_symmetric_groups(self, n):
        # pruned to the adjacent transpositions (i, i+1), the least element
        # moving i to i+1 at each level
        assert len(self.assert_generates(symmetric_group(n))) == max(n - 1, 0)

    @settings(max_examples=300, deadline=None)
    @given(groups_and_perms())
    def test_random_closures(self, case):
        group, _others = case
        self.assert_generates(group)

    def test_element_order_does_not_matter(self):
        # the transversal and the pruning read the elements in list order
        group = symmetric_group(5)
        shuffled = SmallGroup(5, group.generators, group.elements[::-1])
        generators = _strong_generators(shuffled)
        assert closure(generators, degree=5).elements == group.elements
