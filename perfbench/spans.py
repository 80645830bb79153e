"""In-memory spans around the public functions of each glracks module.

The traced run replaces every module attribute bound to a traced function
(``from .morphisms import aut_group`` makes ``classify.aut_group``,
``cli.aut_group`` and ``morphisms.aut_group`` three bindings of one
object) with a wrapper that records a span and a few counts.  Spans are
kept in memory as ``(pass, id, parent, name, start_ns, end_ns)`` and
written out once the run ends.  No file of the package is changed.
"""

from __future__ import annotations

import gzip
import os
import time
from typing import Callable, Iterable, Optional

# (module, attribute, span name).  Private names are traced only while
# they exist; a refactor that removes them simply stops those spans.
TRACED = [
    ("cli", "main", "cli.main"),
    ("classify", "_labeled_racks", "classify.search"),
    ("classify", "_dedupe_by_orbits", "classify.dedupe"),
    ("classify", "enumerate_racks", "classify.enumerate_racks"),
    ("classify", "classify_gl", "classify.classify_gl"),
    ("classify", "gl_classes", "classify.gl_classes"),
    ("classify", "gl_structures", "classify.gl_structures"),
    ("classify", "count_report", "classify.count_report"),
    ("morphisms", "aut_group", "morphisms.aut_group"),
    ("morphisms", "find_iso", "morphisms.find_iso"),
    ("morphisms", "find_gl_iso", "morphisms.find_gl_iso"),
    ("morphisms", "enumerate_homs", "morphisms.enumerate_homs"),
    ("morphisms", "hom_rack", "morphisms.hom_rack"),
    ("perm", "centralizer", "perm.centralizer"),
    ("perm", "closure", "perm.closure"),
    ("racks", "check_rack", "racks.check_rack"),
    ("racks", "profile", "racks.profile"),
    ("glrack", "check_gl", "glrack.check_gl"),
    ("formats", "parse_record_line", "formats.parse_record_line"),
    ("formats", "read_records", "formats.read_records"),
    ("formats", "write_records", "formats.write_records"),
    ("formats", "ingest_rack_library", "formats.ingest_rack_library"),
]

# Span name of the non-homomorphism check that follows each aut_group
# call.  It is benchmark work, so it gets a span of its own rather than
# inflating its caller's self time.
CHECK_SPAN = "bench.non_hom_check"
PASS_SPAN = "pass"


class Tracer:
    """Collects spans and counts while a pass is open."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [pass, id, parent, name, start, end]
        self.counts: dict[tuple[int, str], float] = {}
        self.pass_id: Optional[int] = None
        self._stack: list[int] = []

    @property
    def active(self) -> bool:
        return self.pass_id is not None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.pass_id, sid, parent, name, time.perf_counter_ns(), 0])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        key = (self.pass_id, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.open(PASS_SPAN)

    def end_pass(self) -> None:
        if len(self._stack) != 1:
            raise RuntimeError(f"unclosed spans at end of pass: {self._stack}")
        self.close(self._stack[0])
        self.pass_id = None

    def write(self, path: str) -> None:
        """One tab-separated line per span; times in ns from the first span."""
        base = self.spans[0][4] if self.spans else 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("pass\tid\tparent\tname\tstart_ns\tend_ns\n")
            for p, sid, parent, name, start, end in self.spans:
                fh.write(f"{p}\t{sid}\t{parent}\t{name}\t{start - base}\t{end - base}\n")


def self_times(spans: Iterable[list]) -> dict[int, int]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent and merged, so overlapping or
    out-of-bounds children are never subtracted twice.
    """
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = {}
    for _p, _sid, parent, _name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for _p, sid, _parent, _name, start, end in spans:
        covered = 0
        cur_start = cur_end = None
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if cur_end is None or c_start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c_start, c_end
            else:
                cur_end = max(cur_end, c_end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[sid] = (end - start) - covered
    return out


def check_self_times() -> bool:
    """Self times on a hand-built tree, including overlapping children."""
    tree = [
        # pass, id, parent, name, start, end
        [0, 0, -1, "pass", 0, 100],
        [0, 1, 0, "a", 10, 60],
        [0, 2, 1, "b", 20, 30],
        [0, 3, 1, "c", 25, 40],  # overlaps b: together they cover 20..40
        [0, 4, 0, "d", 70, 120],  # runs past its parent: only 70..100 counts
        [0, 5, 4, "e", 80, 90],
    ]
    return self_times(tree) == {0: 20, 1: 30, 2: 10, 3: 15, 4: 40, 5: 10}


def pass_summary(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Per-layer self seconds and counts for one pass.

    ``pass.unattributed.s`` is the pass span's own self time, so the
    ``.s`` entries plus it add up to ``pass.wall_s`` exactly.
    """
    spans = [s for s in tracer.spans if s[0] == pass_id]
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for _p, sid, _parent, name, start, end in spans:
        key = "pass.unattributed.s" if name == PASS_SPAN else name + ".s"
        out[key] = out.get(key, 0.0) + selfs[sid] / 1e9
        if name == PASS_SPAN:
            out["pass.wall_s"] = (end - start) / 1e9
    for (p, name), value in tracer.counts.items():
        if p == pass_id:
            out[name] = value
    return out


# ---------------------------------------------------------------------------
# Wrappers


def _counting(records: Iterable, tracer: Tracer, name: str):
    for record in records:
        tracer.count(name)
        yield record


def _make_wrapper(fn: Callable, name: str, tracer: Tracer, mods: dict) -> Callable:
    is_rack_hom = mods["morphisms"].is_rack_hom

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if name == "formats.write_records":
            args = (args[0], _counting(args[1], tracer, name + ".records")) + args[2:]
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
            tracer.count(name + ".calls")
        _record_counts(name, args, result, tracer, is_rack_hom)
        return result

    return wrapper


def _record_counts(name, args, result, tracer: Tracer, is_rack_hom) -> None:
    count = tracer.count
    if name == "classify.search":
        count("classify.labeled", len(result))
    elif name == "classify.dedupe":
        count("classify.dedupe.in", len(args[0]))
        count("classify.dedupe.out", len(result))
    elif name == "classify.gl_classes":
        count("classify.classes", len(result))
    elif name == "morphisms.aut_group":
        count(name + ".elements", result.order)
        sid = tracer.open(CHECK_SPAN)
        rack = args[0]
        bad = sum(1 for g in result.elements if not is_rack_hom(rack, rack, g.images))
        tracer.close(sid)
        count(name + ".non_hom", bad)
    elif name == "perm.centralizer":
        count(name + ".scanned", args[0].order)
    elif name in ("morphisms.find_iso", "morphisms.find_gl_iso"):
        count(name + ".found", result is not None)
    elif name == "morphisms.enumerate_homs":
        count(name + ".results", len(result))
    elif name == "morphisms.hom_rack":
        count(name + ".carrier", len(result[1]))
    elif name == "formats.read_records":
        count(name + ".records", len(result))
    elif name in ("formats.write_records", "formats.ingest_rack_library"):
        count(name + ".bytes", os.path.getsize(args[0]))


def install(tracer: Tracer, mods: dict) -> list[tuple[object, str, object]]:
    """Wrap every binding of every traced function; returns what to undo.

    ``mods`` maps short module names to the imported glracks modules.
    ``StructureRecord.validate`` is a method and is wrapped on its class.
    """
    undo = []
    for mod_name, attr, span in TRACED:
        original = getattr(mods[mod_name], attr, None)
        if original is None:
            continue
        wrapper = _make_wrapper(original, span, tracer, mods)
        for module in mods.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, value))
                    setattr(module, key, wrapper)
    record_cls = mods["formats"].StructureRecord
    original = record_cls.validate
    undo.append((record_cls, "validate", original))
    record_cls.validate = _make_wrapper(original, "formats.validate", tracer, mods)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, key, value in reversed(undo):
        setattr(owner, key, value)
