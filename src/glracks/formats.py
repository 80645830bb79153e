"""On-disk formats: structure records, checkpoints, and the bracketed
rack-library interchange syntax.

All files are line-oriented text.  Image arrays are written 1-based to match
printed tables; internal representation stays 0-based.

Every GL record is made by one builder, :func:`gl_records`: it checks ``u``
and derives the down map ``d = theta^-1 u^-1`` and the flags (Legendrian,
``theta = u^-2``, exactly when ``d = u``) from the table's cached
``theta^-1``, quandle and medial checks.  A read checks each stored record
by the same step, and keeps its per-read work (each distinct ``s=``,
``u=`` and ``d=`` text parsed once, each distinct table checked once)
inside this module; :func:`read_racks` hands each record over with its
checked rack.  A write formats each distinct table and array once.

A checkpoint holds one line per finished rack, with only the ``u`` of
each record: a resume builds the records again through :func:`gl_records`.

Both text readers have a fast path for the text glracks writes, and a
general parser that gives every error and message.  A record line with
the eight fields in the order :func:`format_record_lines` writes them
and flags ``0`` or ``1`` is read from one split; any other line, or one
whose ``n``, ``rack`` or flags that path does not take, goes to the
token loop of :func:`_parse_line`.  A library text made only of
brackets, commas, ``-``, ASCII digits and `` \t\r\n`` is decoded by
``json.loads``; any text it refuses goes to the character loop of
:func:`parse_bracketed_lists`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .glrack import GLFlags, GLRack, _columns, _is_gl, check_gl
from .perm import Permutation, print_cycles
from .racks import Rack, RackError, check_rack, is_medial, is_quandle, theta

__all__ = [
    "StructureRecord",
    "gl_records",
    "RecordFormatError",
    "EncodingError",
    "BracketParseError",
    "AmbiguousOrientationError",
    "parse_record_line",
    "format_record_line",
    "format_record_lines",
    "scan_records",
    "read_records",
    "read_racks",
    "write_records",
    "format_record_table",
    "checkpoint_header",
    "append_checkpoint",
    "read_checkpoint",
    "parse_bracketed_lists",
    "ingest_rack_library",
]


class RecordFormatError(ValueError):
    """Malformed or inconsistent structure-record text."""


class EncodingError(ValueError):
    """A file that is not UTF-8 text."""


def _read_lines(path: str) -> list[str]:
    """The lines of ``path``; :class:`EncodingError` when it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{path}: not UTF-8 text: {exc.reason}") from exc


# the one GLFlags object of each value, shared by every record built or read
_FLAGS = {
    (q, m, l): GLFlags(q, m, l)
    for q in (False, True)
    for m in (False, True)
    for l in (False, True)
}


class _Table:
    """One rack table ``(n, s)`` with the checks made on it: ``check_rack``
    (its rack, or the error it raised; a rack already checked is taken as
    it is), and ``theta^-1`` and ``is_quandle`` and ``is_medial``, each made
    when first asked for.  :meth:`record` builds the record of a
    GL-structure on the table, and :meth:`validate` checks a stored one;
    both go through :meth:`_derive`.

    Each ``u`` is tested by the whole-table kernel
    :func:`glracks.glrack._is_gl` on the table's own rows ``s`` and its
    column bytes.  The column bytes are built once per table and are the
    only GL state it keeps; nothing is kept on the ``Rack``.  A ``u``
    that fails, and every ``u`` on a table of fewer than 2 or more than
    256 points, goes to :func:`check_gl`, which gives the exact error."""

    def __init__(self, n: int, s, rack: Optional[Rack] = None) -> None:
        self.n = n
        self.s = s
        if rack is None:
            try:
                rack = check_rack(n, s)
            except RackError as exc:
                rack = exc
        self._rack = rack

    @property
    def rack(self) -> Rack:
        if isinstance(self._rack, RackError):
            raise self._rack.with_traceback(None)
        return self._rack

    @cached_property
    def theta_inv(self) -> tuple[int, ...]:
        return theta(self.rack).inverse().images

    @cached_property
    def quandle_medial(self) -> tuple[bool, bool]:
        return is_quandle(self.rack), is_medial(self.rack)

    @cached_property
    def columns(self) -> Optional[tuple[bytes, ...]]:
        """The column bytes of a rack table of 2 to 256 points, else None."""
        return _columns(self.rack.tables()) if 1 < self.n <= 256 else None

    def _derive(self, u: Permutation) -> tuple[tuple[int, ...], GLFlags]:
        """Check ``u`` on this rack table, and derive its down map
        ``d = theta^-1 u^-1`` and its flags from image tuples."""
        ui = u.images
        columns = self.columns
        # an s given as lists never passes the kernel's row test
        if columns is None or len(ui) != self.n or not _is_gl(self.s, columns, ui):
            check_gl(self.rack, u)
        down = [0] * self.n
        for ux, t in zip(ui, self.theta_inv):
            down[ux] = t  # d(u(x)) = theta^-1(x)
        d = tuple(down)
        # Legendrian, theta = u^-2, exactly when the down map is u
        return d, _FLAGS[(*self.quandle_medial, d == ui)]

    def record(
        self, u: Permutation, rack_index: Optional[int] = None
    ) -> StructureRecord:
        """The record of the GL-structure ``u``: its down map and flags."""
        d, fl = self._derive(u)
        return StructureRecord(self.n, self.s, u.images, d, fl, rack_index)

    def validate(self, record: StructureRecord) -> None:
        """Check ``record``, a record of this table whose ``u``, if any, is
        known to be a bijection (a parsed one is): its ``u``, and its ``d``
        and flags against those :meth:`_derive` gives."""
        self.rack  # raises for a table that is not a rack
        if record.u is not None:
            d, fl = self._derive(Permutation.unchecked(tuple(record.u)))
            if record.d is not None and d != tuple(record.d):
                raise RecordFormatError(
                    f"stored d {_one_based(record.d)} != derived down map "
                    f"{_one_based(d)}"
                )
            if record.flags is not None and fl != record.flags:
                raise RecordFormatError("stored flags disagree with recomputation")
        elif record.d is not None:
            raise RecordFormatError("d present without u")
        elif record.flags is not None:
            raise RecordFormatError("flags present without u")


def gl_records(
    rack: Rack,
    us: Iterable[Permutation],
    rack_index: Optional[int] = None,
    medial: Optional[bool] = None,
) -> list[StructureRecord]:
    """The record of each GL-structure in ``us`` on the checked ``rack``
    (``check_rack`` is not run again), with ``d`` and the flags derived;
    :class:`glracks.glrack.GLRackError` for a ``u`` that is not one.
    ``medial``, when given, is taken as the rack's medial flag in place of
    :func:`is_medial` (a caller that knows it from the rack's quandle)."""
    table = _Table(rack.n, rack.tables(), rack)
    if medial is not None:
        # a cached_property is set like a plain attribute
        table.quandle_medial = (is_quandle(rack), medial)
    return [table.record(u, rack_index) for u in us]


class _RackTables:
    """The table-level work on the records of one file read.

    Each distinct ``s=``, ``u=`` and ``d=`` text under each ``n`` is parsed
    once, to one tuple that all its records share (or to the error it
    raised, re-raised for every later line with that text), and each
    distinct table ``(n, s)`` is checked once (:class:`_Table`).  A results
    file repeats each rack table once per GL-structure on it, and each
    ``u`` and ``d`` array across tables.
    """

    def __init__(self) -> None:
        # (field, n, text) -> its parsed tuple, or its RecordFormatError
        self._texts: dict = {}
        self._tables: dict[tuple, _Table] = {}

    def parse(self, what: str, n: int, text: str) -> tuple:
        key = (what, n, text)
        found = self._texts.get(key)
        if found is None:
            try:
                if what == "s":
                    found = _parse_table(n, text)
                else:
                    found = _parse_images(text, n, what)
            except RecordFormatError as exc:
                found = exc
            self._texts[key] = found
        if isinstance(found, RecordFormatError):
            raise found.with_traceback(None)
        return found

    def table(self, n: int, s) -> _Table:
        found = self._tables.get((n, s))
        if found is None:
            found = self._tables[n, s] = _Table(n, s)
        return found


@dataclass(frozen=True)
class StructureRecord:
    """One rack or GL-rack, as stored in results files and as
    :func:`glracks.classify.classify_gl` returns each class (a checkpoint
    stores only its ``u``, and :func:`read_checkpoint` builds it again).

    On load, ``s`` must pass rack validation; when ``u`` is present the pair
    must pass GL validation; when ``d`` is present it must equal the derived
    down map exactly.
    """

    n: int
    s: tuple[tuple[int, ...], ...]  # 0-based image arrays
    u: Optional[tuple[int, ...]] = None
    d: Optional[tuple[int, ...]] = None
    flags: Optional[GLFlags] = None
    rack_index: Optional[int] = None

    def rack(self) -> Rack:
        """The checked rack."""
        return check_rack(self.n, self.s)

    def glrack(self) -> Optional[GLRack]:
        if self.u is None:
            return None
        return check_gl(self.rack(), Permutation(self.u))

    def validate(self) -> None:
        """Full cross-check; raises on any inconsistency."""
        table = _Table(self.n, self.s)
        if self.u is not None:
            table.rack  # a table that is not a rack is reported first
            Permutation(self.u)  # raises for a u that is no bijection
        table.validate(self)


def _one_based(images: Sequence[int]) -> str:
    return ",".join(str(i + 1) for i in images)


def _parse_images(text: str, n: int, what: str) -> tuple[int, ...]:
    try:
        values = [int(t) for t in text.split(",")] if text else []
    except ValueError as exc:
        raise RecordFormatError(f"bad {what} array {text!r}") from exc
    if len(values) != n or sorted(values) != list(range(1, n + 1)):
        raise RecordFormatError(f"{what} array {text!r} is not 1-based over 1..{n}")
    return tuple(v - 1 for v in values)


def _parse_table(n: int, text: str) -> tuple[tuple[int, ...], ...]:
    rows = text.split(";") if n else []
    if n and len(rows) != n:
        raise RecordFormatError(f"expected {n} rows in s, got {len(rows)}")
    return tuple(_parse_images(row, n, "s") for row in rows)


_BOOL = {"0": False, "1": True, "true": True, "false": False}
_BIT = {"0": False, "1": True}
_FLAG_KEYS = ("quandle", "medial", "legendrian")


def parse_record_line(line: str) -> StructureRecord:
    """The record of one line, not yet validated."""
    return _parse_line(line, _RackTables())


def _parse_line(line: str, tables: _RackTables) -> StructureRecord:
    """The record of one line; ``tables`` holds the ``s=``, ``u=`` and
    ``d=`` texts already parsed in the same file read, and the other
    fields are parsed every time.

    A line in the written field order (see the module docstring) is read
    from its one split, with ``s``, ``u`` and ``d`` parsed in the order
    the token loop parses them, so that they raise as it would; every
    other line goes to the token loop."""
    tokens = line.split()
    if len(tokens) == 8:
        n_t, rack_t, s_t, u_t, d_t, q_t, m_t, l_t = tokens
        fl = (_BIT.get(q_t[8:]), _BIT.get(m_t[7:]), _BIT.get(l_t[11:]))
        if (
            n_t[:2] == "n="
            and rack_t[:5] == "rack="
            and s_t[:2] == "s="
            and u_t[:2] == "u="
            and d_t[:2] == "d="
            and q_t[:8] == "quandle="
            and m_t[:7] == "medial="
            and l_t[:11] == "legendrian="
            and None not in fl
        ):
            try:
                n = int(n_t[2:])
                rack_index = int(rack_t[5:])
            except ValueError:
                rack_index = -1
            if rack_index >= 0:  # any other line is the token loop's to report
                parse = tables.parse
                s = parse("s", n, s_t[2:])
                u = parse("u", n, u_t[2:])
                d = parse("d", n, d_t[2:])
                return StructureRecord(n, s, u, d, _FLAGS[fl], rack_index)
    fields: dict[str, str] = {}
    for token in tokens:
        if "=" not in token:
            raise RecordFormatError(f"bad token {token!r} in record line")
        key, value = token.split("=", 1)
        if key in fields:
            raise RecordFormatError(f"duplicate field {key!r}")
        fields[key] = value
    if "n" not in fields or "s" not in fields:
        raise RecordFormatError("record line must carry n= and s=")
    try:
        n = int(fields.pop("n"))
    except ValueError as exc:
        raise RecordFormatError("bad n field") from exc
    s = tables.parse("s", n, fields.pop("s"))
    u = tables.parse("u", n, fields.pop("u")) if "u" in fields else None
    d = tables.parse("d", n, fields.pop("d")) if "d" in fields else None
    rack_index = None
    if "rack" in fields:
        try:
            rack_index = int(fields.pop("rack"))
        except ValueError as exc:
            raise RecordFormatError("bad rack field") from exc
        if rack_index < 0:  # an index into the rack list
            raise RecordFormatError("bad rack field")
    fl = None
    flag_texts = [fields.pop(k, None) for k in _FLAG_KEYS]
    if flag_texts != [None, None, None]:
        if None in flag_texts:
            raise RecordFormatError("flags must be given all together or not at all")
        try:
            fl = _FLAGS[tuple(map(_BOOL.__getitem__, map(str.lower, flag_texts)))]
        except KeyError as exc:
            raise RecordFormatError(f"bad flag value: {exc}") from exc
    if fields:
        raise RecordFormatError(f"unknown fields: {sorted(fields)}")
    return StructureRecord(n=n, s=s, u=u, d=d, flags=fl, rack_index=rack_index)


def format_record_line(record: StructureRecord) -> str:
    return next(format_record_lines([record]))


def format_record_lines(records: Iterable[StructureRecord]) -> Iterator[str]:
    """The line of each record, the ``s=`` text of each distinct table and
    the text of each distinct ``u`` or ``d`` array formatted once."""
    table_text = _kept(_format_table)
    array_text = _kept(_one_based)
    for record in records:
        parts = [f"n={record.n}"]
        if record.rack_index is not None:
            parts.append(f"rack={record.rack_index}")
        parts.append("s=" + table_text(record.s))
        if record.u is not None:
            parts.append("u=" + array_text(record.u))
        if record.d is not None:
            parts.append("d=" + array_text(record.d))
        if record.flags is not None:
            parts.append(f"quandle={int(record.flags.gl_quandle)}")
            parts.append(f"medial={int(record.flags.medial)}")
            parts.append(f"legendrian={int(record.flags.legendrian)}")
        yield " ".join(parts)


def _kept(format_text):
    """``format_text`` with each text kept by its value; a value given as
    lists, which cannot key the texts, is formatted each time."""
    texts: dict = {}

    def text(value) -> str:
        try:
            found = texts.get(value)
        except TypeError:  # given as lists
            return format_text(value)
        if found is None:
            found = texts[value] = format_text(value)
        return found

    return text


def _format_table(s) -> str:
    return ";".join(_one_based(row) for row in s)


def scan_records(path: str) -> Iterator[tuple[int, StructureRecord | ValueError]]:
    """``(lineno, record)`` for each record line of ``path``, or
    ``(lineno, error)`` for one that does not parse or validate.

    The whole file is read before this returns, so ``OSError``, or
    :class:`EncodingError` when it is not UTF-8, comes before any line.
    Each distinct rack table is parsed and checked once per call, and
    each distinct ``u=`` and ``d=`` text parsed once; ``u``, ``d`` and
    the flags are checked once per record.
    """
    return _scan_lines(_read_lines(path), _RackTables())


def _scan_lines(lines: list[str], tables: _RackTables):
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            found = _parse_line(line, tables)
            tables.table(found.n, found.s).validate(found)
        except (RecordFormatError, RackError, ValueError) as exc:
            found = exc
        yield lineno, found


def read_records(path: str) -> list[StructureRecord]:
    """The records of ``path``; :class:`RecordFormatError` names the
    ``path:line`` of the first bad one.  The records of one table share
    one ``s``."""
    return [record for record, _rack in read_racks(path)]


def read_racks(path: str) -> list[tuple[StructureRecord, Rack]]:
    """Each record of ``path`` with its checked rack, as :func:`read_records`
    reads them; the records of one table share one ``s`` and one rack."""
    tables = _RackTables()
    pairs = []
    for lineno, found in _scan_lines(_read_lines(path), tables):
        if isinstance(found, ValueError):
            raise RecordFormatError(f"{path}:{lineno}: {found}") from found
        pairs.append((found, tables.table(found.n, found.s).rack))
    return pairs


def write_records(path: str, records: Iterable[StructureRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# glracks structure records v1\n")
        fh.writelines(line + "\n" for line in format_record_lines(records))


def format_record_table(record: StructureRecord) -> str:
    """Human-readable one-liner in cycle notation, matching printed tables."""
    s_part = "[" + ",".join(
        print_cycles(Permutation(row)) for row in record.s
    ) + "]"
    parts = [f"n={record.n}", s_part]
    if record.u is not None:
        u_txt = print_cycles(Permutation(record.u))
        d_txt = print_cycles(Permutation(record.d)) if record.d is not None else "?"
        parts.append(f"[{u_txt},{d_txt}]")
    if record.flags is not None:
        parts.append(
            f"quandle={'yes' if record.flags.gl_quandle else 'no'} "
            f"medial={'yes' if record.flags.medial else 'no'} "
            f"legendrian={'yes' if record.flags.legendrian else 'no'}"
        )
    return "  ".join(parts)


# ---------------------------------------------------------------------------
# Checkpoints


def checkpoint_header(racks: Sequence[Rack]) -> str:
    """The first line of a checkpoint for ``racks``: their order and count
    and a sha256 of their tables, in list order."""
    return _checkpoint_header(racks, [_format_table(r.tables()) for r in racks])


def _checkpoint_header(racks: Sequence[Rack], tables: Sequence[str]) -> str:
    """:func:`checkpoint_header` from the formatted table of each rack."""
    digest = hashlib.sha256()
    for table in tables:
        digest.update(f"s={table}\n".encode())
    n = racks[0].n if racks else 0
    return (
        f"# glracks checkpoint v2 n={n} racks={len(racks)} "
        f"sha256={digest.hexdigest()}"
    )


def append_checkpoint(path: str, completed: list, racks: Sequence[Rack]) -> None:
    """Append one line per finished rack, ``rack=<i> s=<table>
    u=<u_1>;<u_2>;...``: its table and the ``u`` of each of its records,
    1-based and in ascending order.

    ``completed`` holds ``(rack_index, records)`` pairs for racks of
    ``racks``; a new file starts with :func:`checkpoint_header`.
    """
    with open(path, "a", encoding="utf-8") as fh:
        if fh.tell() == 0:
            fh.write(checkpoint_header(racks) + "\n")
        for rack_index, records in completed:
            table = _format_table(racks[rack_index].tables())
            us = ";".join(_one_based(u) for u in sorted(r.u for r in records))
            fh.write(f"rack={rack_index} s={table} u={us}\n")


_RACK_LINE = re.compile(r"rack=(\d+)\s+s=(\S*)\s+u=(\S*)")


def read_checkpoint(path: str, racks: Sequence[Rack]):
    """Recover completed rack indices and their records from a checkpoint.

    The file must start with the :func:`checkpoint_header` of ``racks``;
    a checkpoint written for another rack list or format raises
    :class:`RecordFormatError`, as does any malformed complete line (see
    :func:`append_checkpoint`), and a complete line that is not UTF-8
    raises :class:`EncodingError`.  Each rack's records are built again
    by :func:`gl_records`, which checks each ``u`` and derives its ``d``
    and flags.  A torn last line (one with no trailing newline) is
    discarded and cut from the file, so its rack is redone and appended.
    An interrupted run thus resumes to the same final output as an
    uninterrupted one.  A missing file is a fresh start.
    """
    done: set[int] = set()
    records: list[StructureRecord] = []
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return done, records
    kept = data.rfind(b"\n") + 1  # what follows is empty or a torn line
    try:
        lines = data[:kept].decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    tables = [_format_table(rack.tables()) for rack in racks]
    header = _checkpoint_header(racks, tables)
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        try:
            if lineno == 1 and line != header:
                raise RecordFormatError(
                    f"checkpoint belongs to another rack list: found "
                    f"{line!r}, expected {header!r}"
                )
            if lineno == 1 or not line or line.startswith("#"):
                continue
            fields = _RACK_LINE.fullmatch(line)
            if fields is None:
                raise RecordFormatError(f"bad checkpoint line {line!r}")
            index = int(fields[1])
            if index >= len(racks):
                raise RecordFormatError(f"rack={index} outside 0..{len(racks) - 1}")
            if index in done:
                raise RecordFormatError(f"second line for rack {index}")
            rack = racks[index]
            if fields[2] != tables[index]:
                raise RecordFormatError(f"s is not the table of rack {index}")
            us = [_parse_images(text, rack.n, "u") for text in fields[3].split(";")]
            rising = all(a < b for a, b in zip(us, us[1:]))
            # every rack has its u = id record, the least u
            if us[0] != tuple(range(rack.n)) or not rising:
                raise RecordFormatError("u list does not rise from the identity")
            records += gl_records(rack, map(Permutation.unchecked, us), index)
            done.add(index)
        except (RecordFormatError, RackError, ValueError) as exc:
            raise RecordFormatError(f"{path}:{lineno}: {exc}") from exc
    if kept < len(data):
        os.truncate(path, kept)
    return done, records


# ---------------------------------------------------------------------------
# Bracketed-list interchange (external rack libraries)


class BracketParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class AmbiguousOrientationError(ValueError):
    """Both table orientations validate; an explicit flag is required."""


# the texts that ``json.loads`` reads as the library grammar does, or refuses
_JSON_TEXT = re.compile(r"[\[\],\-0-9 \t\r\n]*\Z")


def parse_bracketed_lists(text: str):
    """Parse nested bracketed integer lists, e.g. ``[[[1,2],[2,1]], ...]``.

    Returns the top-level value (a possibly nested list of ints).  Errors
    carry 1-based line and column positions.  The open lists are kept on
    an explicit stack, so any depth of nesting parses.

    A text made only of brackets, commas, ``-``, ASCII digits and the
    whitespace `` \\t\\r\\n`` is first decoded by ``json.loads``: on that
    alphabet JSON's grammar is this one without leading zeros, and its
    values are the same.  Any text ``json.loads`` refuses (leading zeros,
    ``[1,]``, deep nesting, an integer past the digit limit, no value)
    goes to the loop below, which gives every value and error.
    """
    if _JSON_TEXT.match(text):
        try:
            return json.loads(text)
        except (ValueError, RecursionError):
            pass
    pos = 0
    line = 1
    col = 1
    length = len(text)

    def error(message: str):
        return BracketParseError(message, line, col)

    def advance():
        nonlocal pos, line, col
        if text[pos] == "\n":
            line += 1
            col = 1
        else:
            col += 1
        pos += 1

    def skip_ws():
        while pos < length and text[pos] in " \t\r\n":
            advance()

    stack: list[list] = []  # the lists opened and not yet closed
    while True:
        # a value starts here
        skip_ws()
        if pos >= length:
            raise error("unexpected end of input")
        ch = text[pos]
        if ch == "[":
            advance()
            skip_ws()
            if pos >= length or text[pos] != "]":
                stack.append([])
                continue
            advance()
            value = []
        elif ch == "-" or ch.isdigit():
            start = pos
            if ch == "-":
                advance()
            if pos >= length or not text[pos].isdigit():
                raise error("malformed integer")
            while pos < length and text[pos].isdigit():
                advance()
            try:
                value = int(text[start:pos])
            except ValueError:  # a digit int() does not read, or too many
                raise error("malformed integer") from None
        else:
            raise error(f"unexpected character {ch!r}")
        # the value is complete: add it to the innermost open list, and
        # close every list that ends after it
        while stack:
            stack[-1].append(value)
            skip_ws()
            if pos >= length:
                raise error("unterminated list")
            if text[pos] == ",":
                advance()
                break
            if text[pos] != "]":
                raise error(f"expected ',' or ']', found {text[pos]!r}")
            advance()
            value = stack.pop()
        else:
            break
    skip_ws()
    if pos < length:
        raise error(f"trailing content {text[pos]!r}")
    return value


def _racks_from_tables(tables, transpose: bool) -> list[Rack]:
    """Interpret each table as 1-based s-rows (or s-columns if transposed)."""
    racks = []
    for table in tables:
        if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
            raise RackError("each rack entry must be a list of integer rows")
        n = len(table)
        if any(len(row) != n for row in table):
            raise RackError(f"rack table is not square (order {n})")
        for row in table:
            for v in row:
                if not isinstance(v, int):
                    raise RackError("table entry is a list, not an integer")
                if not 1 <= v <= n:
                    raise RackError(f"table entry {v} outside 1..{n}")
        if transpose:
            rows = [[table[x][y] - 1 for x in range(n)] for y in range(n)]
        else:
            rows = [[v - 1 for v in row] for row in table]
        racks.append(check_rack(n, rows))
    return racks


def ingest_rack_library(path: str, orientation: str = "auto") -> list[Rack]:
    """Load and validate racks from an external bracketed-list library file.

    ``orientation`` selects how a table entry ``T[x][y]`` is read:
    ``"rows"`` means ``s_x(y)``, ``"cols"`` means ``s_y(x)``, and ``"auto"``
    tries both and requires exactly one to validate across the whole file.
    """
    tables = parse_bracketed_lists("".join(_read_lines(path)))
    if not isinstance(tables, list):
        raise RackError("library file must contain a top-level list of racks")
    if orientation == "rows":
        return _racks_from_tables(tables, transpose=False)
    if orientation == "cols":
        return _racks_from_tables(tables, transpose=True)
    if orientation != "auto":
        raise ValueError(f"unknown orientation {orientation!r}")
    outcomes = {}
    for name, transpose in (("rows", False), ("cols", True)):
        try:
            outcomes[name] = _racks_from_tables(tables, transpose)
        except RackError as exc:
            outcomes[name] = exc
    rows_ok = not isinstance(outcomes["rows"], Exception)
    cols_ok = not isinstance(outcomes["cols"], Exception)
    if rows_ok and cols_ok:
        # Identical interpretations (symmetric tables) are not ambiguous.
        if [r.tables() for r in outcomes["rows"]] == [
            r.tables() for r in outcomes["cols"]
        ]:
            return outcomes["rows"]
        raise AmbiguousOrientationError(
            "both orientations validate; pass orientation='rows' or 'cols'"
        )
    if rows_ok:
        return outcomes["rows"]
    if cols_ok:
        return outcomes["cols"]
    raise RackError(
        f"neither orientation validates: rows: {outcomes['rows']}; "
        f"cols: {outcomes['cols']}"
    )
