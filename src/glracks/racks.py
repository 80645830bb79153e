"""Finite racks: axioms, derived structure, constructors, and quotients.

A rack is a finite carrier ``{0, ..., n-1}`` together with one permutation
``s[x]`` per element, satisfying self-distributivity
``s_x s_y = s_{s_x(y)} s_x``.  Quandles additionally fix every point:
``s_x(x) = x``.  A :class:`Rack` holds its table as rows, ``rows[x]``
being the image array of ``s_x``, which is what every algorithm here
reads; ``Rack.s`` wraps them as permutations for the group-level callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Optional, Sequence

from .perm import (
    GroupTooLargeError,
    Permutation,
    SmallGroup,
    closure,
    row_cycle_type,
)

__all__ = [
    "Rack",
    "RackProfile",
    "RackError",
    "NotABijectionError",
    "SelfDistributivityError",
    "check_rack",
    "is_quandle",
    "is_medial",
    "inn_group",
    "dual",
    "theta",
    "permutation_rack",
    "trivial_quandle",
    "takasaki",
    "dihedral",
    "conjugation_quandle",
    "associated_quandle",
    "medialization",
    "profile",
]


class RackError(ValueError):
    """Base class for rack validation failures."""


class NotABijectionError(RackError):
    def __init__(self, x: int, reason: str = ""):
        self.x = x
        super().__init__(f"s[{x}] is not a bijection on the carrier" + (f": {reason}" if reason else ""))


class SelfDistributivityError(RackError):
    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y
        super().__init__(f"self-distributivity fails at (x={x}, y={y}): s_x s_y != s_(s_x(y)) s_x")


_Schedule = tuple[tuple[tuple[int, int, int], ...], ...]

# One tuple per value for the small tuples that racks and GL-racks keep:
# schedule triples (at most n^3 of order n), cycle types, multisets of row
# cycle types, and schedule steps, which repeat across racks and
# relabelings; so a kept schedule is mostly pointers.  The table only
# grows, by the new steps and multisets of each rack that keeps them.
_SHARED: dict[tuple, tuple] = {}


def _schedule(rows: Sequence[Sequence[int]]) -> _Schedule:
    """``checks[x]``: the triples ``(a, b, s_a(b))`` whose largest point is
    ``x``, in row order.  ``morphisms._search`` checks each one at the step
    that assigns its largest point."""
    checks: list[list[tuple[int, int, int]]] = [[] for _ in rows]
    for a, row in enumerate(rows):
        for b, c in enumerate(row):
            checks[max(a, b, c)].append((a, b, c))
    return tuple(map(tuple, checks))


@dataclass(frozen=True)
class Rack:
    """A validated finite rack, held as its rows: ``rows[x]`` is the image
    array of ``s_x``.  Construct via :func:`check_rack`."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def tables(self) -> tuple[tuple[int, ...], ...]:
        """The image arrays of the ``s_x``: ``rows`` itself, built once."""
        return self.rows

    @property
    def s(self) -> tuple[Permutation, ...]:
        """The ``s_x`` as permutations, wrapped from ``rows`` on each access
        and not kept."""
        return tuple(map(Permutation.unchecked, self.rows))

    # Derived data, built on first use and then kept on the instance:
    # ``cached_property`` writes to ``__dict__``, which the frozen dataclass
    # allows, and equality and hashing read only ``n`` and ``rows``.

    @cached_property
    def _checks(self) -> _Schedule:
        """The search schedule of ``morphisms._search`` from this rack
        (see :func:`_schedule`), made of shared steps and triples."""
        share = _SHARED.setdefault
        steps = (tuple(share(t, t) for t in step) for step in _schedule(self.tables()))
        return tuple(share(step, step) for step in steps)

    @cached_property
    def _row_types(self) -> tuple[tuple[int, ...], ...]:
        """The cycle type of each ``s_x``, in row order."""
        share = _SHARED.setdefault
        return tuple(share(t, t) for t in map(row_cycle_type, self.tables()))

    @cached_property
    def _type_index(self) -> tuple[tuple, dict[tuple[int, ...], list[int]]]:
        """The sorted multiset of row cycle types, shared, and the points
        of each type, ascending: what ``morphisms.find_iso`` compares and
        searches by."""
        points: dict[tuple[int, ...], list[int]] = {}
        for x, key in enumerate(self._row_types):
            points.setdefault(key, []).append(x)
        types = tuple(sorted(self._row_types))
        return _SHARED.setdefault(types, types), points

    def __repr__(self) -> str:
        return f"Rack(n={self.n}, s={[str(p) for p in self.s]})"


def check_rack(n: int, s: Sequence[Permutation | Sequence[int]]) -> Rack:
    """Validate and build a rack, reporting the first violated axiom.

    Raises :class:`NotABijectionError` at the first ``x`` where ``s[x]`` is
    not a bijection, else :class:`SelfDistributivityError` at the first
    failing pair ``(x, y)``.

    Each check runs once per distinct row: a row equal to an earlier one
    passes as that one did, since each pair ``(x, y)`` depends on ``x``
    only through ``s_x``.  A table with ``d`` distinct rows of ``n``
    points costs ``d n^2``, not ``n^3`` (hom racks repeat rows heavily).
    """
    if len(s) != n:
        raise RackError(f"expected {n} permutations, got {len(s)}")
    rows = []
    # each distinct row, keyed to the first x that has it
    first: dict[tuple[int, ...], int] = {}
    for x, entry in enumerate(s):
        row = entry.images if isinstance(entry, Permutation) else tuple(entry)
        if first.setdefault(row, x) == x:
            if sorted(row) != list(range(len(row))):
                raise NotABijectionError(x, f"not a bijection on 0..{len(row) - 1}: {row!r}")
            if len(row) != n:
                raise NotABijectionError(x, f"degree {len(row)} != {n}")
        rows.append(row)
    # then[y](f) is the row of f s_y (s_y, then f), built in C
    then = [itemgetter(*row) for row in rows]
    for rx, x in first.items():
        for y in range(n):
            if then[y](rx) != then[x](rows[rx[y]]):
                raise SelfDistributivityError(x, y)
    return Rack(n, tuple(rows))


def is_quandle(rack: Rack) -> bool:
    return all(row[x] == x for x, row in enumerate(rack.tables()))


def is_medial(rack: Rack) -> bool:
    """Whether ``s_{s_x(z)} s_y == s_{s_x(y)} s_z`` for all triples.

    Exact on any table of permutations, rack or not, and paid for by
    distinct rows: with ``d`` of them it builds ``d^2`` products and one
    symmetry matrix per distinct row, of side at most ``min(n, d^2)``.
    """
    rows = rack.tables()
    row_id: dict[tuple[int, ...], int] = {}
    ids = [row_id.setdefault(row, len(row_id)) for row in rows]
    # products[a][b] is the row of s_a s_b for distinct rows a and b, as a
    # string of code points: one byte a point up to order 256, and composed
    # in C by str.translate
    text_rows = ["".join(map(chr, row)) for row in row_id]
    products = [tuple(tb.translate(ra) for tb in text_rows) for ra in row_id]
    for rx in row_id:
        # entry (y, z) of this matrix is s_{s_x(y)} s_z, and the identity
        # says that it is symmetric.  Entries (y, z) and (z, y) depend on y
        # only through its pair (row of s_x(y), row of y), and on z alike,
        # so the matrix on the distinct pairs is symmetric exactly when the
        # whole one is
        pairs = list(dict.fromkeys(zip(map(ids.__getitem__, rx), ids)))
        matrix = [tuple(products[a][b] for _a, b in pairs) for a, _b in pairs]
        if list(zip(*matrix)) != matrix:
            return False
    return True


def inn_group(rack: Rack) -> SmallGroup:
    """The inner automorphism group, the closure of ``{s_x}``."""
    return closure(rack.s, degree=rack.n)


def dual(rack: Rack) -> Rack:
    """The dual rack, with every ``s_x`` replaced by its inverse."""
    return check_rack(rack.n, [p.inverse() for p in rack.s])


def theta(rack: Rack) -> Permutation:
    """The canonical automorphism ``x -> s_x(x)``.

    Bijectivity is forced by the rack axioms; a non-bijective result would
    indicate corrupted input and raises ``ValueError``.
    """
    return Permutation([row[x] for x, row in enumerate(rack.tables())])


# ---------------------------------------------------------------------------
# Constructors


def permutation_rack(n: int, sigma: Permutation) -> Rack:
    """The constant-action rack where every ``s_x`` is ``sigma``."""
    if sigma.degree != n:
        raise RackError(f"sigma has degree {sigma.degree}, expected {n}")
    return check_rack(n, [sigma] * n)


def trivial_quandle(n: int) -> Rack:
    return permutation_rack(n, Permutation.identity(n))


def takasaki(m: int) -> Rack:
    """The Takasaki kei on Z/m: ``s_b(a) = 2b - a``."""
    if m < 1:
        raise RackError("takasaki requires m >= 1")
    s = [Permutation([(2 * b - a) % m for a in range(m)]) for b in range(m)]
    return check_rack(m, s)


def dihedral(m: int) -> Rack:
    """The dihedral quandle R_m, i.e. the Takasaki kei on Z/m."""
    return takasaki(m)


def _validate_cayley_table(table: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Check a multiplication table is a group; return (identity, inverses)."""
    m = len(table)
    for row in table:
        if len(row) != m or sorted(row) != list(range(m)):
            raise RackError("Cayley table rows must be permutations of 0..m-1")
    for j in range(m):
        if sorted(table[i][j] for i in range(m)) != list(range(m)):
            raise RackError("Cayley table columns must be permutations of 0..m-1")
    identity = None
    for e in range(m):
        if all(table[e][x] == x and table[x][e] == x for x in range(m)):
            identity = e
            break
    if identity is None:
        raise RackError("Cayley table has no identity element")
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise RackError(f"Cayley table is not associative at ({a},{b},{c})")
    inverses = [0] * m
    for a in range(m):
        inv = next(b for b in range(m) if table[a][b] == identity)
        inverses[a] = inv
    return identity, inverses


def conjugation_quandle(
    cayley_table: Sequence[Sequence[int]], subset: Optional[Sequence[int]] = None
) -> Rack:
    """The conjugation quandle on a conjugation-closed subset of a group.

    ``cayley_table[a][b]`` is the product ``a * b``; ``subset`` defaults to
    the whole group.  ``s_x(y) = x y x^-1``.
    """
    m = len(cayley_table)
    _, inverses = _validate_cayley_table(cayley_table)
    carrier = sorted(set(range(m) if subset is None else subset))
    if subset is not None and any(not 0 <= g < m for g in carrier):
        raise RackError("subset contains elements outside the group")
    index = {g: i for i, g in enumerate(carrier)}
    n = len(carrier)
    s = []
    for x in carrier:
        images = []
        for y in carrier:
            z = cayley_table[cayley_table[x][y]][inverses[x]]
            if z not in index:
                raise RackError(f"subset is not closed under conjugation: {x}*{y}*{x}^-1 = {z}")
            images.append(index[z])
        s.append(Permutation(images))
    return check_rack(n, s)


# ---------------------------------------------------------------------------
# Congruence quotients


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


def _finest_congruence(rack: Rack, seed_pairs: list[tuple[int, int]]) -> list[int]:
    """Close ``seed_pairs`` to the finest congruence compatible with the rack
    operations; returns a class label per element (the least member).

    Worklist fixpoint: whenever x ~ y is discovered, force
    ``s_z(x) ~ s_z(y)``, ``s_x(z) ~ s_y(z)``, and ``s_x^-1(z) ~ s_y^-1(z)``
    for all z.
    """
    n = rack.n
    uf = _UnionFind(n)
    rows = rack.tables()
    inv_rows = tuple(p.inverse().images for p in rack.s)
    work = [pair for pair in seed_pairs if uf.union(*pair)]
    while work:
        x, y = work.pop()
        for z in range(n):
            for a, b in (
                (rows[z][x], rows[z][y]),
                (rows[x][z], rows[y][z]),
                (inv_rows[x][z], inv_rows[y][z]),
            ):
                if uf.union(a, b):
                    work.append((a, b))
    return [uf.find(x) for x in range(n)]


def _quotient_by_labels(rack: Rack, labels: list[int]) -> tuple[Rack, list[int]]:
    """Quotient rack and projection, representatives being least members."""
    reps = sorted(set(labels))
    idx = {r: i for i, r in enumerate(reps)}
    proj = [idx[lbl] for lbl in labels]
    rows = rack.tables()
    return check_rack(len(reps), [[proj[rows[r][rep]] for rep in reps] for r in reps]), proj


def associated_quandle(rack: Rack) -> tuple[Rack, list[int]]:
    """Quotient by the finest congruence with ``s_x(x) ~ x``; a quandle.

    Returns the quotient and the projection as a list mapping each element
    to its class index.
    """
    seeds = [(row[x], x) for x, row in enumerate(rack.tables())]
    quotient, proj = _quotient_by_labels(rack, _finest_congruence(rack, seeds))
    assert is_quandle(quotient)
    return quotient, proj


def medialization(rack: Rack) -> tuple[Rack, list[int]]:
    """Quotient by the finest congruence forcing the mediality identity.

    Its seeds are the pairs ``(s_{s_x(z)} s_y (a), s_{s_x(y)} s_z (a))``,
    and those of ``x = 0`` give the whole congruence.  As ``s_{s_x(z)} =
    s_x s_z s_x^-1``, with ``t_y = s_0^-1 s_y`` the seeds of ``x`` say
    ``t_z t_x^-1 t_y = t_y t_x^-1 t_z`` in the quotient.  Those of ``x = 0``
    make the ``t_y`` commute there, which gives all the others.  Class
    labels are least members, so the quotient does not depend on the order
    of the seeds.
    """
    n = rack.n
    rows = rack.tables()
    seeds = []
    for rx in rows[:1]:
        for y, ry in enumerate(rows):
            for z, rz in enumerate(rows):
                left = rows[rx[z]]
                right = rows[rx[y]]
                for a in range(n):
                    u, v = left[ry[a]], right[rz[a]]
                    if u != v:
                        seeds.append((u, v))
    quotient, proj = _quotient_by_labels(rack, _finest_congruence(rack, seeds))
    assert is_medial(quotient)
    return quotient, proj


# ---------------------------------------------------------------------------
# Profiles and subracks


@dataclass(frozen=True)
class RackProfile:
    """Cheap isomorphism invariants; equality is necessary for isomorphism,
    never sufficient (profiles can collide)."""

    quandle: bool
    medial: bool
    theta_cycle_type: tuple[int, ...]
    s_cycle_types: tuple[tuple[int, ...], ...]
    inn_order: Optional[int]


def profile(rack: Rack) -> RackProfile:
    try:
        inn_order = inn_group(rack).order
    except GroupTooLargeError:
        inn_order = None
    return RackProfile(
        quandle=is_quandle(rack),
        medial=is_medial(rack),
        theta_cycle_type=theta(rack).cycle_type(),
        s_cycle_types=tuple(sorted(map(row_cycle_type, rack.tables()))),
        inn_order=inn_order,
    )
