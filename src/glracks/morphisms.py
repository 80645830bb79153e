"""Homomorphisms, isomorphisms, and automorphism groups of (GL-)racks.

Maps between carriers are plain tuples of ints: ``phi[x]`` is the image of
``x``.  Every hom, GL-hom, iso, GL-iso and automorphism query runs the one
backtracking search ``_search``: it assigns points in index order and
checks each constraint ``phi(s_a(b)) = t_phi(a)(phi(b))`` (and, for
GL-racks, ``phi u_1 = u_2 phi``) as soon as all its points are assigned,
whichever of them comes last, so every map it returns is a homomorphism.
The search is one loop over a stack of candidate iterators, one per
point, not a recursion, so the order of the source is not bounded by the
interpreter's recursion limit.

What a query needs of a rack alone is built on first use and kept on it:
a :class:`~glracks.racks.Rack` keeps the schedule of which constraints
each step checks (``_checks``), the cycle type of each row
(``_row_types``), and their sorted multiset with the points grouped by
type (``_type_index``), which ``find_iso`` and ``find_gl_iso`` compare
and draw candidates from; a :class:`~glracks.glrack.GLRack` keeps the
cycle type of ``u`` (``_u_type``).  Nothing else is kept per query: the
candidate lists and the ``u`` constraints are built per search, since a
query GL-rack is seldom asked twice, and a source above the orders
``classify`` reaches keeps no schedule (``_KEPT_ORDER``).  ``aut_group``
and ``aut_glr`` build the schedule without keeping it: ``classify`` calls
them once per rack and holds every rack until its records are written,
so a kept schedule would only take memory.  They draw each point's candidates from
the points whose row has the same cycle type (``_type_candidates``),
which is exact since ``s_phi(x) = phi s_x phi^-1``; the grouping too is
built per call, and nothing is kept on the rack.
``hom_rack`` and ``hom_glrack`` put one pointwise structure
(``_pointwise_rack``) on the hom set it returns, and refuse a hom set whose
table would exceed ``perm.GROUP_CAP`` entries before building it.  Hom
racks repeat rows heavily (the 64 homs between trivial quandles of
orders 3 and 4 give one distinct row), so building the table and checking
it (``check_rack``, ``is_medial``) cost by distinct rows, not by points.
The exhaustive ``|S|^|R|`` loop is kept as a test oracle behind
``brute_force=True``.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Optional, Sequence

from . import perm
from .glrack import GLRack, check_gl
from .perm import GroupTooLargeError, Permutation, SmallGroup, row_cycle_type
from .racks import Rack, _schedule, check_rack, is_medial, is_quandle

__all__ = [
    "is_rack_hom",
    "enumerate_homs",
    "find_iso",
    "aut_group",
    "is_gl_hom",
    "enumerate_gl_homs",
    "find_gl_iso",
    "aut_glr",
    "hom_rack",
    "hom_glrack",
]

Map = tuple[int, ...]

# The largest source order whose search schedule is kept on the rack and
# interned: the orders ``classify`` reaches (``classify.MAX_ORDER``), where
# the same racks are searched again.  A larger source is a one-off query,
# and interning its up to n^3 triples would only grow ``racks._SHARED``.
_KEPT_ORDER = 8


def is_rack_hom(source: Rack, target: Rack, phi: Sequence[int]) -> bool:
    """Whether ``phi s_x = t_phi(x) phi`` holds at every x."""
    if len(phi) != source.n:
        return False
    if any(not 0 <= v < target.n for v in phi):
        return False
    s_rows = source.tables()
    t_rows = target.tables()
    for x in range(source.n):
        sx = s_rows[x]
        tx = t_rows[phi[x]]
        if any(phi[sx[y]] != tx[phi[y]] for y in range(source.n)):
            return False
    return True


def _search(
    source: Rack,
    target: Rack,
    candidates: Optional[Sequence[Sequence[int]]] = None,
    *,
    injective: bool,
    u: Optional[tuple[Permutation, Permutation]] = None,
    limit: Optional[int] = None,
    store: bool = True,
) -> list[Map]:
    """The one backtracking search behind every hom, iso and Aut query,
    plain or GL.

    Assigns ``phi[0], phi[1], ...`` in index order, trying ``candidates[x]``
    (default: every target point) in ascending order, so results come out
    lexicographically.  Each constraint ``phi(s_a(b)) = t_phi(a)(phi(b))``
    is checked exactly once, at the step that assigns the last of its three
    points ``a``, ``b`` and ``s_a(b)``; so every result is a homomorphism.
    With ``u = (u_1, u_2)`` each ``phi(u_1(y)) = u_2(phi(y))`` is checked
    the same way, after that step's rack constraints.  ``injective``
    restricts to injective maps and ``limit`` stops once that many results
    are found; otherwise the search is exhaustive.

    The search is one loop over a stack of per-point candidate iterators:
    it descends by starting the next point's iterator, and backtracks by
    resuming the previous one where it stopped, so the order of tries is
    that of a depth-first recursion without its call depth, and the order
    of the source is not bounded by the recursion limit.

    The rack constraints come grouped by their last point from the source
    rack's ``_checks``, built on its first search and kept on it; with
    ``store=False``, or from a source above order ``_KEPT_ORDER``, they are
    built for this search alone.  The ``u`` constraints are built per
    search, and only when ``u`` is given: each
    pair ``(y, u_1(y))`` joins the step of its later point as the triple
    ``(n, y, u_1(y))``, where the extra entry ``phi[n] = m`` names the
    extra target row ``u_2``, so one check loop serves both kinds.
    """
    n, m = source.n, target.n
    # checks[x]: the constraints whose last-assigned point is x
    checks: Sequence[Sequence[tuple[int, int, int]]]
    if store and n <= _KEPT_ORDER:
        checks = source._checks
    else:
        checks = _schedule(source.tables())
    if n == 0:
        return [()]
    if candidates is None:
        candidates = [range(m)] * n
    t_rows = target.tables()
    phi = [0] * n
    if u is not None:
        steps = list(checks)
        for y, w in enumerate(u[0].images):
            steps[max(y, w)] += ((n, y, w),)
        checks = steps
        t_rows += (u[1].images,)
        phi.append(m)
    # used[v]: v is an image of phi[:x]; only an injective search marks it
    used = [False] * m
    last = n - 1
    results: list[Map] = []
    tries = [iter(candidates[0])] + [iter(())] * last
    x = 0
    while True:
        for v in tries[x]:
            if used[v]:
                continue
            phi[x] = v
            for a, b, c in checks[x]:
                if phi[c] != t_rows[phi[a]][phi[b]]:
                    break
            else:
                if x < last:
                    used[v] = injective
                    x += 1
                    tries[x] = iter(candidates[x])
                    break
                results.append(tuple(phi[:n]))
                if len(results) == limit:
                    return results
        else:
            # every candidate of x is tried: resume the point before it
            if x == 0:
                return results
            x -= 1
            used[phi[x]] = False


def enumerate_homs(
    source: Rack,
    target: Rack,
    *,
    brute_force: bool = False,
) -> list[Map]:
    """All rack homomorphisms from ``source`` to ``target``, lexicographic.

    ``brute_force=True`` filters all ``|target|^|source|`` maps instead
    (a test oracle).
    """
    if brute_force:
        return [
            phi
            for phi in itertools.product(range(target.n), repeat=source.n)
            if is_rack_hom(source, target, phi)
        ]
    return _search(source, target, injective=False)


def _iso_candidates(source: Rack, target: Rack) -> Optional[list[list[int]]]:
    """For each source point ``x``, the target points ``v`` whose ``t_v``
    has the cycle type of ``s_x``, ascending; ``None`` when the multisets of
    cycle types differ, so that no isomorphism exists.

    Both come from each rack's ``_type_index``, built once and kept on it.
    """
    s_types, _ = source._type_index
    t_types, t_points = target._type_index
    if s_types != t_types:
        return None
    return list(map(t_points.__getitem__, source._row_types))


def find_iso(source: Rack, target: Rack) -> Optional[Permutation]:
    """The lexicographically least rack isomorphism, or ``None``.

    Fast-rejects on order and on the multiset of ``s_x`` cycle types, then
    searches the bijections that map each point to one of the same cycle
    type.
    """
    if source.n != target.n:
        return None
    candidates = _iso_candidates(source, target)
    if candidates is None:
        return None
    found = _search(source, target, candidates, injective=True, limit=1)
    # an injective map between carriers of one size is a bijection
    return Permutation.unchecked(found[0]) if found else None


def _type_candidates(rack: Rack) -> list[list[int]]:
    """For each point ``x``, the points whose row has the cycle type of
    ``s_x``, ascending: the only images an automorphism ``phi`` can give
    ``x``, since ``s_phi(x) = phi s_x phi^-1``.  Built per call from the
    distinct rows and not kept on the rack (see the module docstring)."""
    rows = rack.tables()
    types = {row: row_cycle_type(row) for row in dict.fromkeys(rows)}
    keys = list(map(types.__getitem__, rows))
    points: dict[tuple[int, ...], list[int]] = {}
    for x, key in enumerate(keys):
        points.setdefault(key, []).append(x)
    return list(map(points.__getitem__, keys))


def aut_group(rack: Rack) -> SmallGroup:
    """All rack automorphisms, materialized as a :class:`SmallGroup`."""
    autos = _search(rack, rack, _type_candidates(rack), injective=True, store=False)
    elements = tuple(Permutation.unchecked(phi) for phi in autos)
    return SmallGroup(rack.n, elements, elements)


# ---------------------------------------------------------------------------
# GL-rack morphisms


def is_gl_hom(g1: GLRack, g2: GLRack, phi: Sequence[int]) -> bool:
    """Rack hom plus u-equivariance: ``phi u_1 = u_2 phi``."""
    if not is_rack_hom(g1.rack, g2.rack, phi):
        return False
    u1, u2 = g1.u.images, g2.u.images
    return all(phi[u1[x]] == u2[phi[x]] for x in range(g1.n))


def enumerate_gl_homs(g1: GLRack, g2: GLRack) -> list[Map]:
    """All GL-rack homomorphisms from ``g1`` to ``g2``, lexicographic."""
    return _search(g1.rack, g2.rack, injective=False, u=(g1.u, g2.u))


def find_gl_iso(g1: GLRack, g2: GLRack) -> Optional[Permutation]:
    """The lexicographically least GL-rack isomorphism, or ``None``.

    Fast-rejects on order, on the cycle type of ``u`` and on the multiset
    of ``s_x`` cycle types, then searches as :func:`find_iso` does.
    """
    if g1.n != g2.n or g1._u_type != g2._u_type:
        return None
    candidates = _iso_candidates(g1.rack, g2.rack)
    if candidates is None:
        return None
    found = _search(
        g1.rack, g2.rack, candidates, injective=True, u=(g1.u, g2.u), limit=1
    )
    return Permutation.unchecked(found[0]) if found else None


def aut_glr(gl: GLRack) -> SmallGroup:
    """The GL-rack automorphism group, ``C_{Aut R}(u)``."""
    autos = _search(
        gl.rack,
        gl.rack,
        _type_candidates(gl.rack),
        injective=True,
        u=(gl.u, gl.u),
        store=False,
    )
    elements = tuple(Permutation.unchecked(phi) for phi in autos)
    return SmallGroup(gl.n, elements, elements)


# ---------------------------------------------------------------------------
# Hom racks

# ``_pointwise_rack`` codes each pair ``(x, f(x))`` as one code point
_CODE_POINTS = sys.maxunicode + 1


def _bounded_homs(
    source: Rack, target: Rack, u: Optional[tuple[Permutation, Permutation]] = None
) -> list[Map]:
    """The (GL-)homs of a hom rack's carrier, lexicographic.

    Raises :class:`GroupTooLargeError` once there are more than
    ``isqrt(GROUP_CAP)``, whose pointwise table would hold more than
    ``GROUP_CAP`` entries; the search stops at the first hom past that.
    Raises it before the search when the ``|source| |target|`` pairs
    ``(x, f(x))`` outnumber the code points.
    """
    if source.n * target.n > _CODE_POINTS:
        raise GroupTooLargeError(
            f"hom rack exceeds cap: {source.n} x {target.n} source-target "
            f"pairs, more than {_CODE_POINTS} code points"
        )
    bound = math.isqrt(perm.GROUP_CAP)
    homs = _search(source, target, injective=False, u=u, limit=bound + 1)
    if len(homs) > bound:
        raise GroupTooLargeError(
            f"hom rack exceeds cap: more than {bound} homs, so more than "
            f"{perm.GROUP_CAP} table entries"
        )
    return homs


def _pointwise_rack(source: Rack, target: Rack, homs: list[Map]) -> Rack:
    """The rack on ``homs`` whose structure is pointwise in ``target``:
    ``t~_g(f)(x) = t_{g(x)}(f(x))``.

    Each hom ``f`` is the string of code points ``x*m + f(x)`` (``m`` the
    target's order), so that a product ``g . f`` is one ``str.translate``
    of ``f``'s string and one dict lookup; each distinct row is built once.
    Raises ``AssertionError`` when a product leaves ``homs``: a hom set
    into a medial target is closed, so that would be a bug.  The result is
    checked medial, and a quandle when ``source`` or ``target`` is one.
    """
    m = target.n
    t_rows = target.tables()
    codes = ["".join([chr(x * m + v) for x, v in enumerate(f)]) for f in homs]
    index = {code: i for i, code in enumerate(codes)}
    # the row of g depends on g only through the rows t_{g(x)}, and equal
    # rows share one tuple
    row_of: dict[tuple[tuple[int, ...], ...], tuple[int, ...]] = {}
    s = []
    for g in homs:
        key = tuple(map(t_rows.__getitem__, g))
        if key not in row_of:
            # table[x*m + v] = x*m + t_{g(x)}(v)
            table = [x * m + t for x, row in enumerate(key) for t in row]
            try:
                row_of[key] = tuple([index[code.translate(table)] for code in codes])
            except KeyError:
                raise AssertionError("a pointwise product leaves the hom set") from None
        s.append(row_of[key])
    rack = check_rack(len(homs), s)
    assert is_medial(rack)
    if is_quandle(source) or is_quandle(target):
        assert is_quandle(rack)
    return rack


def hom_rack(source: Rack, target: Rack) -> tuple[Rack, list[Map]]:
    """The canonical medial rack on ``Hom(source, target)``.

    Requires ``target`` medial.  The carrier is the hom list in lexicographic
    order; the structure is pointwise: ``t~_g(f)(x) = t_{g(x)}(f(x))``.
    Returns the rack together with the carrier list.  Raises
    :class:`GroupTooLargeError` when the table would have more than
    ``GROUP_CAP`` entries, or ``|source| |target|`` exceeds the number of
    code points (see :func:`_bounded_homs`).
    """
    if not is_medial(target):
        raise ValueError("hom_rack requires a medial target rack")
    homs = _bounded_homs(source, target)
    return _pointwise_rack(source, target, homs), homs


def hom_glrack(g1: GLRack, g2: GLRack) -> tuple[GLRack, list[Map]]:
    """The canonical medial GL-rack on the GL-hom-set.

    Requires ``g2``'s underlying rack medial.  The carrier is the GL-hom
    list in lexicographic order with the pointwise structure of
    :func:`hom_rack`, of whose rack it is a subrack; ``u`` acts by
    postcomposition with ``u_2``.  Raises :class:`GroupTooLargeError` as
    :func:`hom_rack` does.
    """
    if not is_medial(g2.rack):
        raise ValueError("hom_glrack requires a medial target rack")
    gl_homs = _bounded_homs(g1.rack, g2.rack, (g1.u, g2.u))
    rack = _pointwise_rack(g1.rack, g2.rack, gl_homs)
    index = {phi: i for i, phi in enumerate(gl_homs)}
    u2 = g2.u.images
    u = Permutation([index[tuple(u2[v] for v in phi)] for phi in gl_homs])
    return check_gl(rack, u), gl_homs
