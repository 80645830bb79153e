"""Brute-force oracles that the tests check the package against.

Each one runs a definition directly over every candidate (every
permutation, every table, every triple), with none of the normal forms,
orbit walks or group theory that the package uses, so that the two agree
only if the package's shortcuts are exact.
"""

import functools
import itertools

from glracks import classify
from glracks.glrack import is_gl_structure
from glracks.perm import symmetric_group


def relabel_by(flat, n, p):
    """The flattened table ``flat`` relabeled by ``p`` (old -> new label)."""
    pinv = tuple(sorted(range(n), key=p.__getitem__))
    return classify._relabel(flat, n, tuple(p), pinv)


def oracle_min(flat, n):
    """The lex-least relabeling by brute force over S_n."""
    return min(relabel_by(flat, n, p) for p in itertools.permutations(range(n)))


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
    open to every permutation."""
    perms = list(itertools.permutations(range(n)))
    return tuple(classify._search([None] * n, [perms] * n))


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
