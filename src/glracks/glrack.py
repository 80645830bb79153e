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


def check_gl(rack: Rack, u: Permutation) -> GLRack:
    """Validate that ``u`` is a GL-structure on ``rack``.

    Raises :class:`NotAutomorphismError` at the first ``x`` where
    ``u s_x != s_u(x) u``, else :class:`DoesNotCommuteError` at the first
    ``x`` where ``u s_x != s_x u``.

    Both tests compare whole rows: ``(u s_x)_x == (s_{u(x)} u)_x`` and
    ``(u s_x)_x == (s_x u)_x``, each one comparison of tuples built in C.
    Only when one fails are the rows scanned for the first failing ``x``.
    """
    if u.degree != rack.n:
        raise GLRackError(f"u has degree {u.degree}, rack has order {rack.n}")
    ui = u.images
    # below two points u is the identity
    if rack.n > 1:
        rows = rack.tables()
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
