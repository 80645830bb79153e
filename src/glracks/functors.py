"""The object-level isomorphism between racks and GL-quandles.

``functor_f`` twists a rack into a GL-quandle via its canonical
automorphism; ``functor_g`` untwists any GL-rack.  Restricted to
GL-quandles the two are strict inverses, table for table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .glrack import GLRack, check_gl
from .racks import Rack, check_rack, is_medial, is_quandle, theta

__all__ = [
    "functor_f",
    "functor_g",
    "RoundTripReport",
    "roundtrip_check",
]


def functor_f(rack: Rack) -> GLRack:
    """Twist: the GL-quandle with ``s~_x = theta^-1 s_x`` and ``u = theta``."""
    th = theta(rack)
    th_inv = th.inverse()
    twisted = check_rack(rack.n, [th_inv * p for p in rack.s])
    gl = check_gl(twisted, th)
    assert is_quandle(twisted)
    return gl


def functor_g(gl: GLRack) -> Rack:
    """Untwist: the rack with ``s^_x = u s_x``; defined on every GL-rack."""
    return check_rack(gl.n, [gl.u * p for p in gl.rack.s])


@dataclass
class RoundTripReport:
    racks_checked: int = 0
    gl_quandles_checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def roundtrip_check(racks=(), gl_quandles=()) -> RoundTripReport:
    """Assert G(F(R)) = R and F(G(Q)) = Q table-exactly, plus mediality
    preservation, over the given corpus."""
    report = RoundTripReport()
    for rack in racks:
        report.racks_checked += 1
        gl = functor_f(rack)
        back = functor_g(gl)
        if back.tables() != rack.tables():
            report.failures.append(f"G(F(R)) != R for {rack!r}")
        if is_medial(rack) != is_medial(gl.rack):
            report.failures.append(f"mediality not preserved by F for {rack!r}")
    for gl in gl_quandles:
        report.gl_quandles_checked += 1
        if not is_quandle(gl.rack):
            report.failures.append(f"corpus entry is not a GL-quandle: {gl!r}")
            continue
        back = functor_f(functor_g(gl))
        if back.rack.tables() != gl.rack.tables() or back.u != gl.u:
            report.failures.append(f"F(G(Q)) != Q for {gl!r}")
    return report
