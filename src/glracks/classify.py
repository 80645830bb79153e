"""Exhaustive enumeration and GL-structure classification of finite racks.

Racks are enumerated quandle-first, through the paper's isomorphism
between racks and GL-quandles: the twist ``F(R) = (theta^-1 s, theta)`` is
a GL-quandle, the untwist ``G(Q, u)`` with rows ``u s_x`` is a rack, and the
two are mutually inverse on isomorphism classes.  A table is the tuple of
its rows ``s_x``.  A labeled search backtracks over quandle tables
(``s_x(x) = x``), propagating the forced identity
``s_{s_x(y)} = s_x s_y s_x^-1`` as soon as both sides are determined, and
only over tables in a normal form that the lexicographically least table
of every class has: identity rows first, then the row with the least
cycle-type key.  Relabeled by ``p``, a table has row ``p s_x p^-1`` at
``p(x)`` (:func:`_moved`), and one comparator (:func:`_first_difference`)
walks those rows against a reference table up to the first that differs.
The search compares each partial table with the relabelings that keep the
normal form and cuts it when one is smaller, so it emits just the least
table of each quandle class, and the relabelings that give it back are its
``Aut Q``.  Each quandle ``Q`` with each class of GL-structures ``u`` on it
gives one rack class ``G(Q, u)``, whose lexicographically least table
comes from the same comparator run over its normal-form relabelings
against the least table so far.

The GL-structures on a rack ``R`` form ``U(R)``, the centralizer of the
inner automorphism group inside ``Aut R``, and their isomorphism classes
are the conjugacy orbits in ``U(R)`` under ``Aut R``.  An enumerated rack
``R = G(Q, u)`` has ``F(R) = (Q, u)``, so every group it needs comes from
its quandle class, whose ``U(Q) = C_{Aut Q}(Inn Q)`` and medial flag are
computed once per quandle: ``Aut R = C_{Aut Q}(u)``, for the least member
``u`` of each class, comes from :func:`perm.orbit_centralizers` (and skips
repeated relabelings in the canonical form), ``U(R) = C_{U(Q)}(u)``, and
``R`` is medial exactly when ``Q`` is.  A central ``u``, alone in its
class, has ``Aut R = Aut Q`` and ``U(R) = U(Q)``, so the GL-classes of
``R`` are the quandle's own orbits, walked once.  Every conjugation orbit
comes from :func:`perm.conjugation_orbits`, a breadth-first search over a
small generating set of the acting group.  A rack from an ingested library
has no quandle stage: its group comes from :func:`morphisms.aut_group`, its
``U(R)`` from :func:`gl_structures` and its classes from
:func:`gl_classes`.  The brute-force and orderly oracles live in the tests.

Each GL-rack class is one :class:`formats.StructureRecord`, the type that
results files hold; the records of a rack come from
:func:`formats.gl_records`, which checks each class and derives its down
map and flags; a checkpoint stores each finished rack's ``u`` list, and a
resume rebuilds its records through the same builder.  A rack that runs
out of memory is reported as a diagnostic, and the result is then not
exhaustive.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Container, Iterator, Optional, Sequence

from . import formats
from .glrack import GLFlags
from .morphisms import aut_group
from .perm import (
    Permutation,
    SmallGroup,
    _row_getter,
    conjugation_orbits,
    orbit_centralizers,
    symmetric_group,
)
from .racks import Rack, check_rack, is_medial

__all__ = [
    "CountReport",
    "ClassificationResult",
    "LongRunRequired",
    "OrderOutOfRange",
    "check_order",
    "gl_structures",
    "gl_classes",
    "enumerate_racks",
    "classify_gl",
    "count_report",
]

MAX_ORDER = 8
LONG_RUN_THRESHOLD = 6
CHECKPOINT_EVERY = 1000  # finished racks per checkpoint append


class OrderOutOfRange(ValueError):
    """Raised for an order outside ``0..MAX_ORDER``."""


class LongRunRequired(ValueError):
    """Raised when an order beyond the interactive threshold is requested
    without the explicit long-run opt-in."""


def check_order(n: int, long_run: bool) -> None:
    """The order gate: ``n`` must lie in ``0..MAX_ORDER``, and orders above
    ``LONG_RUN_THRESHOLD`` need the long-run opt-in."""
    if not 0 <= n <= MAX_ORDER:
        raise OrderOutOfRange(f"order must be in 0..{MAX_ORDER}")
    if n > LONG_RUN_THRESHOLD and not long_run:
        raise LongRunRequired(f"order {n} requires --long-run")


# ---------------------------------------------------------------------------
# Labeled rack enumeration


def _block_form(
    row: Sequence[int], ids: Container[int], x: int
) -> tuple[tuple[int, ...], list[int]]:
    """The block key of ``row`` at ``x``, and a relabeling that yields it.

    ``row`` keeps the ``k``-point set ``ids``, and ``x`` lies outside it.
    Its cycles inside ``ids`` go in ascending length onto ``0..k-1``, the
    cycle of ``x`` goes onto ``k, k+1, ...`` starting from ``x``, and its
    other cycles follow in ascending length, each cycle onto consecutive
    labels.  The key is ``p row p^-1`` for that relabeling ``p`` (old -> new
    label): the least conjugate of ``row`` over all relabelings that send
    ``ids`` onto ``0..k-1`` and ``x`` to ``k``.
    """
    n = len(row)
    seen = [False] * n

    def cycle_of(a: int) -> list[int]:
        cycle = []
        while not seen[a]:
            seen[a] = True
            cycle.append(a)
            a = row[a]
        return cycle

    own = cycle_of(x)
    cycles = [cycle_of(a) for a in range(n) if not seen[a]]
    inside = [c for c in cycles if c[0] in ids]
    outside = [c for c in cycles if c[0] not in ids]
    key = [0] * n
    p = [0] * n
    start = 0
    for cycle in sorted(inside, key=len) + [own] + sorted(outside, key=len):
        for i, a in enumerate(cycle):
            p[a] = start + i
            key[start + i] = start + (i + 1) % len(cycle)
        start += len(cycle)
    return tuple(key), p


@functools.lru_cache(maxsize=None)
def _key_centralizer(k: int, key: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The relabelings that keep ``{0..k-1}``, fix ``k`` and commute with
    the block key ``key``."""
    n = len(key)
    return [
        c
        for low in itertools.permutations(range(k))
        for high in itertools.permutations(range(k + 1, n))
        for c in [low + (k,) + high]
        if all(c[key[i]] == key[c[i]] for i in range(n))
    ]


Row = tuple[int, ...]  # an image array
Table = tuple[Row, ...]  # the rows s_0, ..., s_{n-1}
# a relabeling p (old -> new label) as (p, p^-1, q -> q p^-1)
Relabeling = tuple[Row, Row, Callable[[Row], Row]]


def _relabeling(p: Row) -> Relabeling:
    """The relabeling ``p`` as ``(p, p^-1, q -> q p^-1)``."""
    inverse = [0] * len(p)
    for i, v in enumerate(p):
        inverse[v] = i
    pinv = tuple(inverse)
    return p, pinv, _row_getter(pinv)


def _moved(relabeling: Relabeling, s: Row) -> Row:
    """``p s p^-1``: the row that ``s_x`` gives at ``p(x)`` in the table
    relabeled by ``p``.  A permutation of at most one point is its own."""
    p, _pinv, then_pinv = relabeling
    return itemgetter(*then_pinv(s))(p) if len(p) > 1 else s


def _key_relabelings(
    k: int, d: Row, pb: Sequence[int], stabilizer: Sequence[Callable[[Row], Row]] = ()
) -> Iterator[Relabeling]:
    """The relabelings ``p = c p_b``, for ``c`` in ``_key_centralizer(k, d)``
    and ``p_b`` the image array ``pb``.  ``stabilizer`` holds getters
    ``q -> q a`` for automorphisms ``a`` of the table that fix ``b``: ``p a``
    gives the table that ``p`` does, so a ``p`` met as such a product is
    skipped, and only the relabelings yielded are inverted."""
    through_pb = itemgetter(*pb)  # c -> c p_b; n >= 2 here
    seen: set[Row] = set()
    for c in _key_centralizer(k, d):
        p = through_pb(c)
        if p not in seen:
            for then_a in stabilizer:
                seen.add(then_a(p))  # p a
            yield _relabeling(p)


def _normal_relabelings(
    rows: Table, autos: Sequence[Sequence[int]] = ()
) -> Iterator[Relabeling]:
    """Each relabeling ``p`` (old -> new label) that takes the rack table
    ``rows`` to a table whose rows ``0..k-1`` are the identity and whose row
    ``k`` is ``D``, the least block key (:func:`_block_form`) of the
    non-identity rows; just the identity when every row is.

    Every row keeps the set ``I`` of identity points, since
    ``s_{s_x(a)} = s_x s_a s_x^-1``, so these are exactly ``p = c p_b``
    (:func:`_key_relabelings`): ``b`` is a row outside ``I`` whose key is
    ``D``, and ``p_b`` turns ``s_b`` into ``D``.  The identity is the least
    row, so the least relabeling of ``rows`` is one of these.

    ``autos`` (image arrays of automorphisms of the rack, any subset of
    ``Aut R``) are skipped over: ``p a`` gives the same table as ``p``.
    For ``a`` in ``autos``, ``p_{a(b)} a = c p_b`` for some ``c`` above, so
    one row ``b`` per orbit of ``autos`` is tried; and a relabeling already
    met as ``p a``, for ``a`` in ``autos`` fixing ``b``, is not yielded
    again.  With all of ``Aut R`` that is one relabeling per coset
    ``p Aut R``, i.e. one per distinct table.
    """
    n = len(rows)
    identity = tuple(range(n))
    ids = {x for x in range(n) if rows[x] == identity}
    if len(ids) == n:
        yield _relabeling(identity)
        return
    # keys are invariant under automorphisms, so one row per orbit suffices
    reps = []
    covered: set[int] = set()
    for b in range(n):
        if b not in ids and b not in covered:
            reps.append(b)
            covered.update(a[b] for a in autos)
    keyed = [(b, *_block_form(rows[b], ids, b)) for b in reps]
    d = min(key for _b, key, _p in keyed)
    for b, key, pb in keyed:
        if key == d:
            stabilizer = [itemgetter(*a) for a in autos if a[b] == b]
            yield from _key_relabelings(len(ids), d, pb, stabilizer)


def _labeled_racks(n: int) -> list[tuple[Table, SmallGroup]]:
    """The lexicographically least quandle table on {0..n-1} of each
    isomorphism class, with its automorphism group ``Aut Q``, sorted by
    table.

    The least table is in normal form: with ``k`` its number of identity
    rows, rows ``0..k-1`` are the identity, rows ``k..n-1`` are not, and
    row ``k`` is ``D``, the least block key (:func:`_block_form`) of the
    non-identity rows.  The identity is the least row, so it comes first;
    every row keeps the identity set, since ``s_{s_b(a)} = s_b s_a s_b^-1``;
    and the least row ``k`` over the relabelings that keep that set is the
    least key.  So the search runs once per ``k`` and ``D``: row ``x > k``
    takes the non-identity rows that fix ``x``, keep ``{0..k-1}`` and have
    key at least ``D`` (keys are invariant under those relabelings, so
    forced rows obey this too).

    The relabelings that keep a table of the branch in normal form are
    ``c p_b`` (:func:`_key_relabelings`) for each row ``b`` whose key is
    ``D``.  Each joins the search once row ``b`` is set, and :func:`_search`
    cuts every partial table that one of them makes smaller (orderly
    generation: Read, "Every one a winner", 1978; McKay, "Isomorph-free
    exhaustive generation", 1998).  So every table it emits is the least of
    its class, and the relabelings that give it back are ``Aut Q``.  The
    all-identity table is not searched; its ``Aut Q`` is ``S_n``.  A table
    emitted twice raises ``RuntimeError``.
    """
    identity = tuple(range(n))
    found: list[tuple[Table, Optional[list[Row]]]] = [((identity,) * n, None)]
    for k in range(n):
        # the block key and relabeling of each non-identity row that fixes k
        # and keeps {0..k-1}; row x > k gets those of its conjugate by (k x)
        forms = {
            row: _block_form(row, range(k), k)
            for low in itertools.permutations(range(k))
            for high in itertools.permutations(range(k + 1, n))
            for row in [low + (k,) + high]
            if row != identity
        }
        swaps = _transpositions(n, k)
        keyed = [
            [(key, _swapped(swaps[x], row)) for row, (key, _pb) in forms.items()]
            for x in range(k + 1, n)
        ]
        for d in sorted({key for key, _pb in forms.values()}):
            rows: list[Optional[Row]] = [identity] * k + [d] + [None] * (n - k - 1)
            candidates = [[]] * (k + 1) + [
                [row for key, row in at_x if key >= d] for at_x in keyed
            ]
            relabelings = _branch_relabelings(k, d, forms, swaps)
            found.extend(_search(rows, candidates, relabelings))
    found.sort(key=itemgetter(0))
    for (a, _), (b, _) in zip(found, found[1:]):
        if a == b:
            raise RuntimeError(f"the quandle search emitted a table twice: {list(a)}")
    classes = []
    for table, autos in found:
        if autos is None:
            classes.append((table, symmetric_group(n)))
        else:
            elements = tuple(map(Permutation.unchecked, autos))
            classes.append((table, SmallGroup(n, elements, elements)))
    return classes


def _transpositions(n: int, k: int) -> list[tuple[int, ...]]:
    """The transposition ``(k x)`` of {0..n-1} for each ``x``, the identity
    at ``x = k``."""
    swaps = []
    for x in range(n):
        t = list(range(n))
        t[k], t[x] = x, k
        swaps.append(tuple(t))
    return swaps


def _swapped(t: tuple[int, ...], q: Sequence[int]) -> tuple[int, ...]:
    """``t q t`` for an involution ``t``."""
    return tuple(t[q[a]] for a in t)


def _branch_relabelings(
    k: int, d: Row, forms: dict[Row, tuple[Row, list[int]]], swaps: list[Row]
) -> Callable[[int, Row], list[Relabeling]]:
    """For the search branch ``(k, d)``: the relabelings ``p = c p_b`` that
    row ``b`` set to ``row`` brings (:func:`_key_relabelings`), each list
    made once.  ``forms`` holds the block key and relabeling of each row
    that fixes ``k``, and ``swaps[b]`` is ``t = (k b)``: ``row`` at ``b``
    has the key of ``t row t`` at ``k``, and its relabeling ``p_b`` is that
    row's times ``t``.  A row whose key is not ``d``, or an identity row
    ``b < k``, brings none.
    """
    made: dict[tuple[int, Row], list[Relabeling]] = {}

    def relabelings(b: int, row: Row) -> list[Relabeling]:
        got = made.get((b, row))
        if got is None:
            got = made[b, row] = []
            if b >= k:
                t = swaps[b]
                key, pb = forms[_swapped(t, row)]
                if key == d:
                    got += _key_relabelings(k, d, [pb[a] for a in t])
        return got

    return relabelings


def _first_difference(
    rows: Sequence[Optional[Row]],
    reference: Sequence[Optional[Row]],
    relabeling: Relabeling,
    j: int,
) -> tuple[int, Optional[Row]]:
    """The first row ``i >= j`` at which ``rows`` relabeled by ``p`` (row
    ``p s_{p^-1(i)} p^-1`` at ``i``, :func:`_moved`) differs from
    ``reference`` or either is open (``None``), with the relabeled row there
    (``None`` when open); ``(n, None)`` when all rows from ``j`` on agree.
    Only the rows compared are built."""
    pinv = relabeling[1]
    n = len(reference)
    while j < n:
        want = reference[j]
        source = rows[pinv[j]]
        if want is None or source is None:
            return j, None
        image = _moved(relabeling, source)
        if image != want:
            return j, image
        j += 1
    return n, None


def _search(
    rows: list[Optional[Row]],
    candidates: list[list[Row]],
    relabelings: Callable[[int, Row], list[Relabeling]],
) -> list[tuple[Table, list[Row]]]:
    """Every rack table that extends the preset ``rows`` (``None`` where
    open; the preset rows must satisfy the rack axioms among themselves)
    with open row ``x`` drawn from ``candidates[x]`` or forced, and that no
    relabeling makes smaller, each with the relabelings that give it back.

    ``relabelings(b, row)`` gives the relabelings ``(p, p^-1, q -> q p^-1)``
    that join once row ``b`` is set to ``row``; each must keep the preset
    rows.  Each joined ``p`` compares the relabeled table with the table
    itself (:func:`_first_difference`), from the first open row on, and
    goes on from where it stopped each time a row is set.  A smaller row
    cuts the node and a larger one drops ``p``; ``p`` waits at an open row,
    and gives the finished table back when every row is equal.

    Backtracking with forced-conjugate propagation: once ``s_a`` and ``s_b``
    are known, ``s_{s_a(b)}`` must equal ``s_a s_b s_a^-1``.
    """
    n = len(rows)
    assigned = [i for i in range(n) if rows[i] is not None]
    results: list[tuple[Table, list[Row]]] = []
    rng = range(n)
    first_open = next((i for i in rng if rows[i] is None), n)

    def try_assign(x: int, p: tuple[int, ...], trail: list[int]) -> bool:
        stack = [(x, p)]
        while stack:
            i, q = stack.pop()
            cur = rows[i]
            if cur is not None:
                if cur != q:
                    return False
                continue
            rows[i] = q
            trail.append(i)
            assigned.append(i)
            for j in assigned:
                rj = rows[j]
                # pair (i, j): s_{q[j]} = q rj q^-1
                conj = [0] * n
                for k in rng:
                    conj[q[k]] = q[rj[k]]
                stack.append((q[j], tuple(conj)))
                if j != i:
                    # pair (j, i): s_{rj[i]} = rj q rj^-1
                    conj = [0] * n
                    for k in rng:
                        conj[rj[k]] = rj[q[k]]
                    stack.append((rj[i], tuple(conj)))
        return True

    def undo(trail: list[int]) -> None:
        for i in reversed(trail):
            rows[i] = None
            assigned.pop()

    def candidate_ok(x: int, p: tuple[int, ...]) -> bool:
        """Cheap rejection against already-assigned rows before committing."""
        rc = rows[p[x]]
        if rc is not None and rc != p:  # s_{s_x(x)} = s_x
            return False
        for j in assigned:
            rj = rows[j]
            rc = rows[p[j]]
            if rc is not None:
                # needs rc = p rj p^-1
                for k in rng:
                    if rc[p[k]] != p[rj[k]]:
                        return False
            rc = rows[rj[x]]
            if rc is not None:
                # needs rc = rj p rj^-1
                for k in rng:
                    if rc[rj[k]] != rj[p[k]]:
                        return False
        return True

    def compare(live: list[tuple[Relabeling, int]]) -> Optional[list]:
        """The live relabelings that wait at an open row or give the table
        back, each with the row it stopped at; ``None`` when one gives a
        smaller table."""
        kept = []
        for relabeling, j in live:
            j, image = _first_difference(rows, rows, relabeling, j)
            if image is None:
                kept.append((relabeling, j))
            elif image < rows[j]:
                return None
        return kept

    def search(live: list[tuple[Relabeling, int]]) -> None:
        x = next((i for i in rng if rows[i] is None), None)
        if x is None:
            results.append((tuple(rows), sorted(rel[0] for rel, _j in live)))
            return
        for p in candidates[x]:
            if not candidate_ok(x, p):
                continue
            trail: list[int] = []
            if try_assign(x, p, trail):
                joined = [
                    (rel, first_open) for i in trail for rel in relabelings(i, rows[i])
                ]
                kept = compare(live + joined if joined else live)
                if kept is not None:
                    search(kept)
            undo(trail)

    preset = [(rel, first_open) for i in assigned for rel in relabelings(i, rows[i])]
    kept = compare(preset)
    if kept is not None:
        search(kept)
    return results


def _canonical(rows: Table, autos: Sequence[Sequence[int]]) -> tuple[Table, Relabeling]:
    """The lexicographically least relabeling of the rack table ``rows``
    (the least over all of ``S_n``), with a relabeling ``(p, p^-1,
    q -> q p^-1)`` that gives it.

    Taken over the relabelings of :func:`_normal_relabelings` only, skipping
    those that the automorphisms ``autos`` show to repeat a table: with all
    of ``Aut R``, as :func:`_enumerate` passes, each distinct table is tried
    once, and any subset, even an empty one, gives the same result with more
    work.  Each is compared with the least table so far by
    :func:`_first_difference`, dropped at its first larger row and built on
    from its first smaller one.
    """
    best, chosen = rows, _relabeling(tuple(range(len(rows))))
    for relabeling in _normal_relabelings(rows, autos):
        j, image = _first_difference(rows, best, relabeling, 0)
        if image is not None and image < best[j]:
            moved = (_moved(relabeling, rows[i]) for i in relabeling[1][j:])
            best, chosen = best[:j] + tuple(moved), relabeling
    return best, chosen


def _enumerate(
    n: int, long_run: bool, classes: bool = True
) -> list[tuple[Rack, Optional[list[tuple[int, ...]]], bool]]:
    """Each rack class of order ``n`` as its canonical table, with the
    representatives of its GL-classes (image arrays on that table, in
    ascending order, as :func:`gl_classes` gives them; ``None`` when
    ``classes`` is false, for a caller that wants the racks alone) and
    whether it is medial; sorted by table.

    ``R = G(Q, u)`` has ``F(R) = (Q, u)`` and ``theta_R = u``, so every
    group that ``R`` needs comes from its quandle class ``Q``, whose
    ``Aut Q`` the search returns with its least table (:func:`_labeled_racks`;
    no :func:`aut_group` runs here) and whose ``U(Q) = C_{Aut Q}(Inn Q)`` and
    medial flag are computed once: the classes ``u`` are the ``Aut Q``-orbits
    on ``U(Q)``, each with ``Aut R = C_{Aut Q}(u)`` (:func:`orbit_centralizers`),
    which :func:`_canonical` uses; ``U(R) = C_{U(Q)}(u)`` is ``U(Q) & Aut R``;
    the GL-classes on ``R`` are the ``Aut R``-orbits on ``U(R)``, which for
    a central ``u`` (an orbit of one) are the ``Aut Q``-orbits on ``U(Q)``
    already walked, as ``Aut R = Aut Q`` and ``U(R) = U(Q)``; each class is
    moved onto the canonical table by the relabeling ``p`` that gives it
    (:func:`_moved`), with the least ``p v p^-1`` as representative; and
    ``R`` is medial exactly when ``Q`` is (its transvections are those of
    ``Q`` conjugated by ``u``).
    """
    check_order(n, long_run)
    found = []
    for table, aut_q in _labeled_racks(n):
        quandle = check_rack(n, table)
        structures = gl_structures(quandle, aut_q)
        medial = is_medial(quandle)
        members = [v.images for v in structures.elements]
        walked = orbit_centralizers(members, aut_q)
        orbits = [orbit for orbit, _ in walked]
        for orbit, aut_r in walked:
            u = orbit[0]
            untwisted = tuple(_row_getter(s)(u) for s in table)  # rows u s_x
            autos = [a.images for a in aut_r.elements]
            canon, relabeling = _canonical(untwisted, autos)
            reps = None
            if classes:
                gl_orbits = orbits  # u central: Aut R = Aut Q, U(R) = U(Q)
                if len(orbit) > 1:
                    fixing = set(autos)
                    on_r = [v for v in members if v in fixing]  # C_{U(Q)}(u)
                    gl_orbits = conjugation_orbits(on_r, aut_r)
                reps = sorted(
                    min(_moved(relabeling, v) for v in gl_orbit)
                    for gl_orbit in gl_orbits
                )
            found.append((canon, reps, medial))
    found.sort(key=itemgetter(0))
    for (a, *_), (b, *_) in zip(found, found[1:]):
        if a == b:
            raise RuntimeError(
                f"two GL-quandle classes untwist to isomorphic racks: {list(a)}"
            )
    return [(check_rack(n, table), reps, medial) for table, reps, medial in found]


def enumerate_racks(n: int, long_run: bool = False) -> list[Rack]:
    """All racks of order ``n`` up to isomorphism, deterministically ordered.

    Each rack is the lexicographically least table in its isomorphism
    class, and the list is sorted by table.  It is built quandle-first: the
    quandle classes ``Q`` of order ``n`` come from a labeled search over the
    normal-form quandle tables that cuts every table some relabeling makes
    smaller, and so gives just the lex-least table of each class, with its
    ``Aut Q`` (:func:`_labeled_racks`); then every class of GL-structures
    ``u`` on ``Q`` gives the rack ``G(Q, u)`` with rows ``u s_x``, brought
    to canonical form with the help of ``Aut G(Q, u) = C_{Aut Q}(u)`` (see
    :func:`_enumerate`).  ``F`` and ``G`` are inverse bijections between
    rack classes and GL-quandle classes, so these racks are exhaustive and
    pairwise non-isomorphic; two equal canonical forms would contradict that
    and raise ``RuntimeError``.

    Orders above 6 must be requested with ``long_run=True``; 8 is the
    supported maximum.
    """
    return [rack for rack, _reps, _medial in _enumerate(n, long_run, False)]


# ---------------------------------------------------------------------------
# GL-structures on a fixed rack


def gl_structures(rack: Rack, aut: Optional[SmallGroup] = None) -> SmallGroup:
    """The group U of GL-structures: the centralizer of ``Inn R`` in
    ``Aut R``.  Normality in Aut R is guaranteed; tests assert it.

    ``U`` is the kernel of the action of ``Aut R`` on the rows: an
    automorphism ``g`` has ``g s_x g^-1 = s_{g(x)}``, so it commutes with
    every ``s_x`` exactly when ``s_{g(x)} = s_x`` for all ``x``.  Each
    ``g`` is tested by one comparison of the rows read at ``g`` with the
    rows.  Every element of ``aut`` must be an automorphism of ``rack``;
    the default, :func:`morphisms.aut_group`, is one.
    """
    if aut is None:
        aut = aut_group(rack)
    rows = rack.tables()
    members = tuple(g for g in aut.elements if _row_getter(g.images)(rows) == rows)
    return SmallGroup(aut.degree, members, members)


def gl_classes(
    rack: Rack, aut: Optional[SmallGroup] = None
) -> list[tuple[Permutation, int]]:
    """Isomorphism classes of GL-structures on ``rack``.

    Partition of U under conjugation by the full automorphism group (not by
    U itself, which would be wrong); each class is reported as its
    lexicographically least member with the class size, ordered by
    representative.  U is normal in Aut R, so every class lies in U; a
    class that leaves U (a wrong ``aut``) raises ``ValueError``.
    """
    if aut is None:
        aut = aut_group(rack)
    structures = gl_structures(rack, aut)
    orbits = conjugation_orbits((u.images for u in structures.elements), aut)
    return [(Permutation.unchecked(orbit[0]), len(orbit)) for orbit in orbits]


# ---------------------------------------------------------------------------
# Full classification


@dataclass(frozen=True)
class CountReport:
    """The eight per-order counts: GL-racks and racks, each total, medial,
    quandle, and medial-quandle."""

    n: int
    g: int
    g_m: int
    g_q: int
    g_qm: int
    r: int
    r_m: int
    r_q: int
    r_qm: int


@dataclass
class ClassificationResult:
    n: int
    racks: list[Rack]
    records: list[formats.StructureRecord]
    diagnostics: list[str] = field(default_factory=list)

    @property
    def exhaustive(self) -> bool:
        return not self.diagnostics


def _classify_one_rack(
    task: tuple[int, Rack, Optional[list[tuple[int, ...]]], Optional[bool]]
) -> tuple[int, list[formats.StructureRecord], Optional[str]]:
    """The records of one rack, built by :func:`formats.gl_records`.

    An enumerated rack comes with its GL-class representatives and medial
    flag (see :func:`_enumerate`); for a library rack both are ``None``,
    and the classes come from :func:`aut_group` and :func:`gl_classes`.
    """
    rack_index, rack, reps, medial = task
    try:
        if reps is None:
            us = [u for u, _size in gl_classes(rack)]
        else:
            us = [Permutation.unchecked(u) for u in reps]
        return rack_index, formats.gl_records(rack, us, rack_index, medial), None
    except MemoryError as exc:
        return rack_index, [], f"rack {rack_index}: {exc}"


def classify_gl(
    n: int,
    racks: Optional[Sequence[Rack]] = None,
    *,
    long_run: bool = False,
    jobs: int = 1,
    checkpoint_path: Optional[str] = None,
) -> ClassificationResult:
    """Classify all GL-racks of order ``n`` up to isomorphism.

    ``racks`` defaults to the racks of :func:`enumerate_racks`, each with
    its GL-classes and medial flag, taken from its quandle class's groups
    (see :func:`_enumerate`); pass an ingested library list to classify
    external data, and each rack's classes are then found from its own
    :func:`aut_group`.  Either way each class becomes a record through
    :func:`formats.gl_records`, which checks it and derives its down map
    and flags.  The global result has one record per GL-rack isomorphism
    class because GL-isomorphic structures have isomorphic underlying
    racks and the rack list holds one rack per class.
    Per-rack failures are recorded as diagnostics and make the result
    non-exhaustive rather than aborting the whole run.

    With ``jobs > 1`` the library racks, each with its own
    :func:`aut_group`, run in a pool of that many processes, but of no
    more than the racks left to do or the CPUs, and in this process when
    that leaves one; the enumerate path, whose group work is done before
    any rack exists, takes none.

    With ``checkpoint_path``, the racks already finished there are not
    redone, and this process appends each further ``CHECKPOINT_EVERY``
    finished racks (under any ``jobs``); a failed rack is not checkpointed.
    """
    if racks is None:
        if jobs > 1:
            raise ValueError("jobs applies only to a given rack list")
        enumerated = _enumerate(n, long_run)
        racks = [rack for rack, _reps, _medial in enumerated]
    else:
        enumerated = [(rack, None, None) for rack in racks]
    tasks = [(i, *entry) for i, entry in enumerate(enumerated)]

    records: list[formats.StructureRecord] = []
    diagnostics: list[str] = []

    if checkpoint_path is not None:
        done, records = formats.read_checkpoint(checkpoint_path, racks)
        tasks = [t for t in tasks if t[0] not in done]

    # no more processes than racks left to do or CPUs to run them
    jobs = min(jobs, len(tasks), os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        if jobs > 1:
            import multiprocessing

            pool = stack.enter_context(multiprocessing.Pool(jobs))
            # ordered, so that this process checkpoints racks in list order;
            # chunks of about the size Pool.map picks
            chunksize = max(1, len(tasks) // (4 * jobs))
            outcomes = pool.imap(_classify_one_rack, tasks, chunksize)
        else:
            outcomes = map(_classify_one_rack, tasks)
        finished: list[tuple[int, list[formats.StructureRecord]]] = []
        for rack_index, recs, error in outcomes:
            records.extend(recs)
            if error is not None:
                # not checkpointed: a resumed run retries the rack
                diagnostics.append(error)
            elif checkpoint_path is not None:
                finished.append((rack_index, recs))
                if len(finished) >= CHECKPOINT_EVERY:
                    formats.append_checkpoint(checkpoint_path, finished, racks)
                    finished = []
        if finished:
            formats.append_checkpoint(checkpoint_path, finished, racks)

    records.sort(key=lambda r: (r.rack_index, r.u))
    return ClassificationResult(n, list(racks), records, diagnostics)


def count_report(
    n: int,
    result: Optional[ClassificationResult] = None,
    *,
    long_run: bool = False,
) -> CountReport:
    """The eight per-order isomorphism counts; the rack counts read each
    rack's quandle and medial flags from its records."""
    if result is None:
        result = classify_gl(n, long_run=long_run)
    if not result.exhaustive:
        raise RuntimeError(
            "cannot report counts from a non-exhaustive classification: "
            + "; ".join(result.diagnostics)
        )
    recs = result.records
    # the quandle and medial flags are the rack's own, and every rack has
    # a record (u = id)
    by_rack: dict[int, GLFlags] = {rec.rack_index: rec.flags for rec in recs}
    missing = [i for i in range(len(result.racks)) if i not in by_rack]
    if missing:
        raise RuntimeError(f"racks without a record: {missing}")
    rack_flags = [by_rack[i] for i in range(len(result.racks))]
    return CountReport(
        n=n,
        g=len(recs),
        g_m=sum(1 for r in recs if r.flags.medial),
        g_q=sum(1 for r in recs if r.flags.gl_quandle),
        g_qm=sum(1 for r in recs if r.flags.gl_quandle and r.flags.medial),
        r=len(result.racks),
        r_m=sum(f.medial for f in rack_flags),
        r_q=sum(f.gl_quandle for f in rack_flags),
        r_qm=sum(f.gl_quandle and f.medial for f in rack_flags),
    )
