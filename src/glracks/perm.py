"""Permutation arithmetic and small, fully materialized permutation groups.

Permutations act on the points ``{0, ..., n-1}``.  Composition is right to
left throughout: ``(a * b)(i) == a(b(i))``, i.e. ``b`` is applied first.
Printed cycle notation is 1-based; see :func:`parse_cycles` and
:func:`print_cycles`.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property, total_ordering
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "Permutation",
    "SmallGroup",
    "DegreeMismatchError",
    "GroupTooLargeError",
    "CycleParseError",
    "compose",
    "row_cycle_type",
    "parse_cycles",
    "print_cycles",
    "closure",
    "conjugation_orbits",
    "orbit_centralizers",
]

# the most elements ``closure`` materializes
GROUP_CAP = math.factorial(10)


class DegreeMismatchError(ValueError):
    """Raised when operands act on point sets of different sizes."""


class GroupTooLargeError(RuntimeError):
    """Raised when a closure exceeds the materialization cap."""


class CycleParseError(ValueError):
    """Raised on malformed, repeated, or out-of-range cycle text."""


@total_ordering
class Permutation:
    """An immutable bijection on ``{0, ..., n-1}``, stored as an image array.

    ``p.images[i]`` is the image of ``i``.  The empty tuple is the unique
    permutation of degree 0.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection on 0..{len(images) - 1}: {images!r}")
        object.__setattr__(self, "images", images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(range(degree))

    @staticmethod
    def unchecked(images: tuple[int, ...]) -> "Permutation":
        """Wrap a tuple already known to be a bijection (hot paths only)."""
        p = object.__new__(Permutation)
        object.__setattr__(p, "images", images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation.unchecked(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length >= 2, each starting at its smallest
        point, ordered by smallest moved point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, sorted descending."""
        return row_cycle_type(self.images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __reduce__(self):
        # __slots__ plus the frozen __setattr__ breaks default pickling
        return (Permutation.unchecked, (self.images,))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __str__(self) -> str:
        return print_cycles(self)


def row_cycle_type(images: Sequence[int]) -> tuple[int, ...]:
    """The cycle type of the permutation with image array ``images``:
    cycle lengths including fixed points, sorted descending.

    One pass over the images; each cycle is walked once from its least
    point, which is never revisited, so only the later points are marked.
    """
    seen = [False] * len(images)
    lengths = []
    for start, j in enumerate(images):
        if seen[start]:
            continue
        length = 1
        while j != start:
            seen[j] = True
            j = images[j]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Right-to-left composition: apply ``b`` first, then ``a``."""
    if a.degree != b.degree:
        raise DegreeMismatchError(f"degrees differ: {a.degree} vs {b.degree}")
    ai = a.images
    return Permutation.unchecked(tuple(ai[j] for j in b.images))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based disjoint-cycle notation, e.g. ``"(13)(24)"`` or ``"id"``.

    Points above 9 must be separated by commas or whitespace, e.g.
    ``"(1,10,3)"``; single-digit cycles may be written without separators.
    """
    text = text.strip()
    if text in ("id", "()", ""):
        return Permutation.identity(degree)
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise CycleParseError(f"malformed cycle text: {text!r}")
    images = list(range(degree))
    used: set[int] = set()
    for body in _CYCLE_RE.findall(text):
        body = body.strip()
        if not body:
            raise CycleParseError("empty cycle '()'; use 'id' for the identity")
        if re.search(r"[,\s]", body):
            points_txt = [t for t in re.split(r"[,\s]+", body) if t]
        else:
            points_txt = list(body)
        points = []
        for t in points_txt:
            if not t.isdigit():
                raise CycleParseError(f"bad point {t!r} in {text!r}")
            try:
                p = int(t)
            except ValueError as exc:  # a digit int() does not read, or too many
                raise CycleParseError(f"bad point {t!r} in {text!r}") from exc
            if not 1 <= p <= degree:
                raise CycleParseError(f"point {p} out of range 1..{degree}")
            if p - 1 in used:
                raise CycleParseError(f"repeated point {p} in {text!r}")
            used.add(p - 1)
            points.append(p - 1)
        if len(points) < 2:
            raise CycleParseError(f"cycle of length {len(points)} in {text!r}")
        for i, p in enumerate(points):
            images[p] = points[(i + 1) % len(points)]
    return Permutation(images)


def print_cycles(a: Permutation) -> str:
    """1-based disjoint-cycle notation; the identity prints as ``"id"``.

    Inverse of :func:`parse_cycles`: cycles are sorted by smallest moved
    point and each starts at its smallest point.
    """
    cycles = a.cycles()
    if not cycles:
        return "id"
    sep = "," if a.degree > 9 else ""
    return "".join("(" + sep.join(str(p + 1) for p in c) + ")" for c in cycles)


@dataclass(frozen=True)
class SmallGroup:
    """A permutation group with its complete element list materialized.

    ``elements`` is the closure of ``generators``, sorted lexicographically
    on image arrays; this ordering makes representatives reproducible.
    The member set behind ``in`` is built on the first test.
    """

    degree: int
    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(p.images for p in self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p.images in self._members

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)


def symmetric_group(degree: int) -> SmallGroup:
    """The full symmetric group S_degree, materialized."""
    elements = tuple(
        Permutation.unchecked(p) for p in itertools.permutations(range(degree))
    )
    gens: tuple[Permutation, ...]
    if degree >= 2:
        transposition = list(range(degree))
        transposition[0], transposition[1] = 1, 0
        cycle = list(range(1, degree)) + [0]
        gens = (Permutation(transposition), Permutation(cycle))
    else:
        gens = ()
    return SmallGroup(degree, gens, elements)


def closure(
    generators: Iterable[Permutation], degree: Optional[int] = None
) -> SmallGroup:
    """Materialize the group generated by ``generators``.

    Breadth-first product closure; raises :class:`GroupTooLargeError` once
    more than :data:`GROUP_CAP` elements are found.  A repeated generator
    is dropped, the first of each kept in order.  ``degree`` is required
    when the generator list is empty (the result is then the trivial group).
    """
    gens = list(dict.fromkeys(generators))
    if gens:
        degs = {g.degree for g in gens}
        if len(degs) != 1:
            raise DegreeMismatchError(f"mixed generator degrees: {sorted(degs)}")
        if degree is not None and degree != gens[0].degree:
            raise DegreeMismatchError("stated degree disagrees with generators")
        degree = gens[0].degree
    elif degree is None:
        raise ValueError("degree required for an empty generator list")

    cap = GROUP_CAP
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    gen_images = [g.images for g in gens]
    while frontier:
        new = []
        for elem in frontier:
            for g in gen_images:
                prod = tuple(g[j] for j in elem)
                if prod not in seen:
                    seen.add(prod)
                    if len(seen) > cap:
                        raise GroupTooLargeError(
                            f"closure exceeds cap of {cap} elements"
                        )
                    new.append(prod)
        frontier = new
    elements = tuple(Permutation.unchecked(t) for t in sorted(seen))
    return SmallGroup(degree, tuple(gens), elements)


def _row_getter(row: tuple[int, ...]):
    """``f`` with ``f(seq) == tuple(seq[i] for i in row)``, built in C by
    ``itemgetter`` for rows of two or more points."""
    if len(row) > 1:
        return itemgetter(*row)
    return lambda seq: tuple(seq[i] for i in row)


def _strong_generators(group: SmallGroup) -> list[Permutation]:
    """A small generating set of ``group``, read off its element list.

    Every element ``g`` other than the identity lies in ``G_i``, the
    pointwise stabilizer of ``0..i-1``, for its first moved point ``i``,
    and one element for each pair ``(i, g(i))`` is a transversal of
    ``G_{i+1}`` in ``G_i``: together these generate ``group`` (the
    Schreier-Sims stabilizer chain).  Levels are then pruned from the
    deepest up, keeping an element only if its image of ``i`` is not yet in
    the orbit of ``i`` under the elements kept so far.  The kept ones still
    generate ``G_i`` at each level: by induction they hold ``G_{i+1}``, the
    stabilizer of ``i`` in ``G_i``, and they reach the whole orbit of ``i``,
    so they make up ``|orbit| * |G_{i+1}| = |G_i|`` elements.  This holds
    whatever order the elements come in.
    """
    levels: list[dict[int, Permutation]] = [{} for _ in range(group.degree)]
    for g in group.elements:
        for i, j in enumerate(g.images):
            if i != j:
                levels[i].setdefault(j, g)
                break
    kept: list[Permutation] = []
    for i in reversed(range(group.degree)):
        orbit = {i}
        for j, g in levels[i].items():
            if j in orbit:
                continue
            kept.append(g)
            frontier = orbit.copy()
            while frontier:
                frontier = {h.images[p] for p in frontier for h in kept} - orbit
                orbit |= frontier
    return kept


def conjugation_orbits(
    members: Iterable[tuple[int, ...]], group: SmallGroup
) -> list[list[tuple[int, ...]]]:
    """Partition ``members`` (image arrays) into orbits under conjugation
    by ``group``, each sorted, in the order of their least members; raises
    ``ValueError`` if an orbit leaves ``members``.

    Each orbit is found by a breadth-first search from its least member
    over the small generating set of :func:`_strong_generators`, not over
    every element: the cost is ``|members| * |generators|`` conjugations,
    and only the generators are inverted.
    """
    # each generator g with the getter of the row of g b at g^-1, for any b
    gens = [
        (g.images, _row_getter(g.inverse().images)) for g in _strong_generators(group)
    ]
    members = set(members)
    met: set[tuple[int, ...]] = set()
    orbits = []
    # orbits partition the members, so a walk from the least member not
    # yet met never meets an earlier orbit
    for a in sorted(members):
        if a in met:
            continue
        orbit = {a}
        frontier = [a]
        while frontier:
            found = []
            for b in frontier:
                then_b = _row_getter(b)
                for gi, at_inv in gens:
                    c = at_inv(then_b(gi))  # g b g^-1
                    if c not in orbit:
                        if c not in members:
                            raise ValueError(
                                f"conjugation orbit of {a} leaves the member set"
                            )
                        orbit.add(c)
                        found.append(c)
            frontier = found
        met |= orbit
        orbits.append(sorted(orbit))
    return orbits


def orbit_centralizers(
    members: Iterable[tuple[int, ...]], group: SmallGroup
) -> list[tuple[list[tuple[int, ...]], SmallGroup]]:
    """The orbits of :func:`conjugation_orbits`, each with the centralizer
    in ``group`` of its least member ``a``, its elements in the order of
    ``group.elements`` (the tests' ``oracles.centralizer(group, [a])``).

    An orbit of one member is central in ``group``, so its centralizer is
    ``group`` itself, with no scan.  Any other orbit's centralizer is one
    scan of ``group`` for the ``g`` with ``g a == a g``, which stops once
    it has ``|group| / |orbit|`` of them (orbit-stabilizer).  The getter
    of each element is built once per call, and only if some orbit needs
    a scan, not once per orbit as a centralizer call for each orbit would.
    That per-orbit rebuild, and Schreier generators of each stabilizer
    closed by :func:`closure`, both measured slower than this scan.
    """
    orbits = conjugation_orbits(members, group)
    scan = []  # each g with the getter of the row of a g, for any a
    if any(len(orbit) > 1 for orbit in orbits):
        scan = [(g, _row_getter(g.images)) for g in group.elements]
    out = []
    for orbit in orbits:
        if len(orbit) == 1:
            out.append((orbit, group))
            continue
        a = orbit[0]
        then_a = _row_getter(a)  # the row of g a, for any g
        fixes = (g for g, then_g in scan if then_a(g.images) == then_g(a))
        fixing = tuple(itertools.islice(fixes, len(group.elements) // len(orbit)))
        out.append((orbit, SmallGroup(group.degree, fixing, fixing)))
    return out
