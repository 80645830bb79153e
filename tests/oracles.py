"""Brute-force oracles that the tests check the package against.

Each one runs a definition directly over every candidate (every
permutation, every table, every triple), with none of the normal forms,
orbit walks or group theory that the package uses, so that the two agree
only if the package's shortcuts are exact.
"""

import functools
import itertools

from glracks import classify, racks
from glracks.glrack import GLRackError, check_gl
from glracks.morphisms import is_gl_hom, is_rack_hom
from glracks.perm import (
    DegreeMismatchError,
    Permutation,
    SmallGroup,
    _row_getter,
    closure,
    conjugation_orbits,
    symmetric_group,
)


def relabel_by(table, n, p):
    """The table ``table`` (its rows ``s_x``) relabeled by ``p`` (old -> new
    label), from the definition: the new ``s_{p(x)}`` is ``p s_x p^-1``."""
    new = [None] * n
    for x, s in enumerate(table):
        row = [0] * n
        for y in range(n):
            row[p[y]] = p[s[y]]
        new[p[x]] = tuple(row)
    return tuple(new)


def oracle_min(table, n):
    """The lex-least relabeling by brute force over S_n."""
    return min(relabel_by(table, n, p) for p in itertools.permutations(range(n)))


def sweep_dedupe(labeled, n):
    """The lex-least table of each relabeling orbit, by applying all of S_n
    to each representative, in ascending order."""
    perms = list(itertools.permutations(range(n)))
    remaining = set(labeled)
    reps = []
    while remaining:
        rep = min(remaining)
        remaining -= {relabel_by(rep, n, p) for p in perms}
        reps.append(rep)
    return reps


@functools.lru_cache(maxsize=None)
def rack_first(n):
    """Every rack table on {0..n-1}, by the labeled search with every row
    open to every permutation and no relabelings."""
    perms = list(itertools.permutations(range(n)))
    found = classify._search([None] * n, [perms] * n, lambda b, row: [])
    return tuple(table for table, _autos in found)


@functools.lru_cache(maxsize=None)
def orderly_racks(n):
    """The lex-least rack table of each class, ascending, by the branch loop
    of the quandle search run over racks.

    Every rack row keeps the identity set, as in a quandle, so the least
    table has the same normal form: with ``k`` identity rows, rows
    ``0..k-1`` are the identity and row ``k`` is the least block key ``D``.
    Here row ``k`` may move ``k``, so the block forms range over every
    non-identity row that keeps ``{0..k-1}``; the search and its
    relabelings are the package's, so this checks the untwist, the orbit
    walks and the canonical form, not the search.
    """
    identity = tuple(range(n))
    found = [(identity,) * n]
    for k in range(n):
        forms = {
            row: classify._block_form(row, range(k), k)
            for row in itertools.permutations(range(n))
            if row != identity and set(row[:k]) == set(range(k))
        }
        swaps = classify._transpositions(n, k)
        keyed = [
            [(key, classify._swapped(swaps[x], r)) for r, (key, _p) in forms.items()]
            for x in range(k + 1, n)
        ]
        for d in sorted({key for key, _p in forms.values()}):
            rows = [identity] * k + [d] + [None] * (n - k - 1)
            candidates = [[]] * (k + 1) + [
                [row for key, row in at_x if key >= d] for at_x in keyed
            ]
            relabelings = classify._branch_relabelings(k, d, forms, swaps)
            found += [t for t, _a in classify._search(rows, candidates, relabelings)]
    return tuple(sorted(found))


def is_gl_structure(rack, u):
    """Whether ``u`` passes the GL-structure definition on ``rack``."""
    try:
        check_gl(rack, u)
    except GLRackError:
        return False
    return True


def gl_structures_brute(rack):
    """Every permutation of the carrier that the GL-structure definition
    accepts."""
    return [u for u in symmetric_group(rack.n).elements if is_gl_structure(rack, u)]


def is_left_distributive(rack):
    """Whether ``s_{s_a(b)}(x) == s_{s_a(x)}(s_b(x))`` for all a, b, x."""
    rows = rack.tables()
    n = rack.n
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            target = rows[ra[b]]
            rb = rows[b]
            if any(target[x] != rows[ra[x]][rb[x]] for x in range(n)):
                return False
    return True


def is_subrack(rack, subset):
    """Whether ``subset`` is closed under ``s_y`` and ``s_y^-1`` for y in it."""
    members = set(subset)
    for y in members:
        p = rack.s[y]
        inv = p.inverse()
        for z in members:
            if p.images[z] not in members or inv.images[z] not in members:
                return False
    return True


def transvection_group(rack):
    """Closure of ``{s_x s_y^-1}``; abelian exactly when the rack is medial."""
    return closure((p * q.inverse() for p in rack.s for q in rack.s), degree=rack.n)


def is_abelian(group):
    """Whether the generators of ``group`` (its elements, if it has none)
    commute pairwise."""
    gens = group.generators if group.generators else group.elements
    return all((a * b).images == (b * a).images for a in gens for b in gens)


def medialization_brute(rack):
    """The medialization with a seed for every ``(x, y, z, a)``, repeated
    rows of ``x`` included."""
    n = rack.n
    rows = rack.tables()
    seeds = []
    for x in range(n):
        rx = rows[x]
        for y in range(n):
            ry = rows[y]
            for z in range(n):
                rz = rows[z]
                left = rows[rx[z]]
                right = rows[rx[y]]
                for a in range(n):
                    u, v = left[ry[a]], right[rz[a]]
                    if u != v:
                        seeds.append((u, v))
    labels = racks._finest_congruence(rack, seeds)
    return racks._quotient_by_labels(rack, labels)


def pointwise_tables(target, homs):
    """The table of the pointwise rack on ``homs``, ``t~_g(f)(x) =
    t_{g(x)}(f(x))``, one product tuple at a time; raises
    ``AssertionError`` when a product leaves ``homs``."""
    index = {phi: i for i, phi in enumerate(homs)}
    t_rows = target.tables()
    table = []
    for g in homs:
        try:
            table.append(
                tuple(index[tuple(t_rows[gx][fx] for gx, fx in zip(g, f))] for f in homs)
            )
        except KeyError:
            raise AssertionError("a pointwise product leaves the hom set") from None
    return tuple(table)


def are_conjugate(group, a, b):
    """Decide whether ``g a g^-1 = b`` for some ``g`` in ``group``, by a
    scan of its elements.

    Returns ``(True, witness)`` or ``(False, None)``.
    """
    if a.degree != group.degree or b.degree != group.degree:
        raise DegreeMismatchError("permutations must match group degree")
    if a == b:
        return True, Permutation.identity(group.degree)
    bi = b.images
    for g in group.elements:
        gi = g.images
        # g a g^-1 == b  <=>  g(a(i)) == b(g(i)) for all i
        if all(gi[a.images[i]] == bi[gi[i]] for i in range(group.degree)):
            return True, g
    return False, None


def conjugacy_classes(group):
    """Partition of ``group.elements`` into conjugacy classes.

    Each class lists its lexicographically least member first and the rest in
    sorted order; classes are ordered by representative.
    """
    return [
        tuple(Permutation.unchecked(t) for t in orbit)
        for orbit in conjugation_orbits((p.images for p in group.elements), group)
    ]


def centralizer(group, others):
    """The subgroup of ``group`` commuting with every permutation in ``others``."""
    others = list(others)
    for s in others:
        if s.degree != group.degree:
            raise DegreeMismatchError("centralized elements must match group degree")
    # each distinct s with the getter of the row of g s, for any g
    then_s = [(si, _row_getter(si)) for si in {s.images for s in others}]
    members = []
    for g in group.elements:
        gi = g.images
        then_g = _row_getter(gi)  # the row of s g, for any s
        if all(then(gi) == then_g(si) for si, then in then_s):
            members.append(g)
    return SmallGroup(group.degree, tuple(members), tuple(members))


def is_bihom(r1, r2, r3, beta):
    """Whether ``beta`` on the product carrier is a rack bihomomorphism:
    every slice ``beta(-, y)`` and ``beta(x, -)`` is a rack homomorphism."""
    for y in range(r2.n):
        if not is_rack_hom(r1, r3, tuple(beta(x, y) for x in range(r1.n))):
            return False
    for x in range(r1.n):
        if not is_rack_hom(r2, r3, tuple(beta(x, y) for y in range(r2.n))):
            return False
    return True


def is_gl_bihom(g1, g2, g3, beta):
    """Whether every slice of ``beta`` is a GL-rack homomorphism."""
    for y in range(g2.n):
        if not is_gl_hom(g1, g3, tuple(beta(x, y) for x in range(g1.n))):
            return False
    for x in range(g1.n):
        if not is_gl_hom(g2, g3, tuple(beta(x, y) for y in range(g2.n))):
            return False
    return True
