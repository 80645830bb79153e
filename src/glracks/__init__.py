"""Computational algebra for finite racks, quandles, and GL-racks.

The package enumerates racks up to isomorphism, classifies GL-structures on
them via automorphism-group centralizers, and exposes the morphism, functor,
and quotient machinery needed to cross-check every step independently.
"""

from .perm import (
    Permutation,
    SmallGroup,
    closure,
    parse_cycles,
    print_cycles,
)
from .racks import (
    Rack,
    check_rack,
    inn_group,
    is_quandle,
    is_medial,
    dual,
    theta,
    permutation_rack,
    trivial_quandle,
    takasaki,
    dihedral,
    conjugation_quandle,
    associated_quandle,
    medialization,
    profile,
)
from .glrack import GLRack, GLFlags, check_gl, down_map, is_legendrian, flags
from .morphisms import (
    is_rack_hom,
    enumerate_homs,
    find_iso,
    aut_group,
    is_gl_hom,
    enumerate_gl_homs,
    find_gl_iso,
    aut_glr,
    hom_rack,
    hom_glrack,
)
from .classify import (
    CountReport,
    gl_structures,
    gl_classes,
    enumerate_racks,
    classify_gl,
    count_report,
)
from .functors import functor_f, functor_g, roundtrip_check
from .formats import StructureRecord, ingest_rack_library

__version__ = "0.1.0"
