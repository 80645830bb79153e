"""GL-racks: racks with a distinguished commuting automorphism.

A GL-structure on a rack is an automorphism ``u`` that commutes with every
``s_x``; the derived down map ``d = theta^-1 u^-1`` recovers the
bi-Legendrian presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .perm import Permutation
from .racks import _SHARED, Rack, RackError, is_medial, is_quandle, theta

__all__ = [
    "GLRack",
    "GLFlags",
    "GLRackError",
    "NotAutomorphismError",
    "DoesNotCommuteError",
    "check_gl",
    "down_map",
    "is_legendrian",
    "flags",
]


class GLRackError(RackError):
    """Base class for GL-structure validation failures."""


class NotAutomorphismError(GLRackError):
    def __init__(self, x: int):
        self.x = x
        super().__init__(f"u is not a rack automorphism: u s_x != s_u(x) u at x={x}")


class DoesNotCommuteError(GLRackError):
    def __init__(self, x: int):
        self.x = x
        super().__init__(f"u does not commute with s_x at x={x}")


@dataclass(frozen=True)
class GLRack:
    """A validated GL-rack.  Construct via :func:`check_gl`."""

    rack: Rack
    u: Permutation

    @property
    def n(self) -> int:
        return self.rack.n

    @cached_property
    def _u_type(self) -> tuple[int, ...]:
        """The cycle type of ``u``, shared as the rack's row types are;
        built on first use and kept, as ``Rack`` keeps its derived data."""
        key = self.u.cycle_type()
        return _SHARED.setdefault(key, key)

    def __repr__(self) -> str:
        return f"GLRack(rack={self.rack!r}, u={self.u})"


@dataclass(frozen=True)
class GLFlags:
    gl_quandle: bool
    medial: bool
    legendrian: bool


def _columns(rows) -> tuple[bytes, ...]:
    """The columns of a table of at most 256 points as bytes:
    ``columns[y][x] = s_x(y)``."""
    return tuple(map(bytes, zip(*rows)))


def _is_gl(rows, columns: tuple[bytes, ...], ui: tuple[int, ...]) -> bool:
    """Whether the permutation ``ui`` of the ``2 <= n <= 256`` points of
    the table ``rows`` (a tuple of rows, whose ``_columns`` are
    ``columns``) is a GL-structure on it, tested on the whole table at
    once by its two conditions:

    - rows invariant, ``s_{u(x)} = s_x`` for every ``x``: one getter
      call on ``rows``;
    - commuting, ``u s_x(y) = s_x u(y)`` for every ``x`` and ``y``: the
      joined columns, translated by ``u``, equal the columns reordered
      by ``u`` and joined.

    Together they are exactly :func:`check_gl`'s condition: given
    commuting, ``u s_x = s_{u(x)} u`` holds exactly when
    ``s_x = s_{u(x)}``.  Bytes past ``n`` never occur in a column, so
    the translation table is padded with anything.
    """
    get = itemgetter(*ui)
    return get(rows) == rows and (
        b"".join(columns).translate(bytes(ui).ljust(256)) == b"".join(get(columns))
    )


def check_gl(rack: Rack, u: Permutation) -> GLRack:
    """Validate that ``u`` is a GL-structure on ``rack``.

    Raises :class:`NotAutomorphismError` at the first ``x`` where
    ``u s_x != s_u(x) u``, else :class:`DoesNotCommuteError` at the first
    ``x`` where ``u s_x != s_x u``.

    Up to 256 points a ``u`` is tested on the whole table by
    :func:`_is_gl`, four calls in C.  Past 256 points, where a point is
    no byte, and for a ``u`` that fails, the rows ``(u s_x)_x``,
    ``(s_{u(x)} u)_x`` and ``(s_x u)_x`` are built and compared whole,
    then scanned for the first failing ``x``.
    """
    if u.degree != rack.n:
        raise GLRackError(f"u has degree {u.degree}, rack has order {rack.n}")
    ui = u.images
    # below two points u is the identity
    if rack.n > 1:
        rows = rack.tables()
        if rack.n > 256 or not _is_gl(rows, _columns(rows), ui):
            # the rows of u s_x, one getter per row, and of s_x u, the one
            # getter of u; that getter also lists the rows s_{u(x)} u in x order
            then_u = itemgetter(*ui)
            u_s = tuple([itemgetter(*rx)(ui) for rx in rows])
            s_u = tuple(map(then_u, rows))
            if u_s != s_u or u_s != then_u(s_u):
                for x, row in enumerate(u_s):
                    if row != s_u[ui[x]]:
                        raise NotAutomorphismError(x)
                for x, row in enumerate(u_s):
                    if row != s_u[x]:
                        raise DoesNotCommuteError(x)
    return GLRack(rack, u)


def down_map(gl: GLRack) -> Permutation:
    """The down map ``d = theta^-1 u^-1`` of the bi-Legendrian presentation."""
    return theta(gl.rack).inverse() * gl.u.inverse()


def is_legendrian(gl: GLRack) -> bool:
    """Whether ``theta = u^-2``, i.e. the GL-rack is a Legendrian rack."""
    u_inv = gl.u.inverse()
    return theta(gl.rack) == u_inv * u_inv


def flags(gl: GLRack) -> GLFlags:
    return GLFlags(
        gl_quandle=is_quandle(gl.rack),
        medial=is_medial(gl.rack),
        legendrian=is_legendrian(gl),
    )
