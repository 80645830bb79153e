"""Command-line surface: validation, enumeration, classification, reports.

Exit codes: 0 success, 1 validation failure or usage error, 2 result not
exhaustive, 3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import classify as _classify
from . import formats
from .formats import StructureRecord, RecordFormatError
from .functors import functor_f, functor_g
from .glrack import check_gl
from .morphisms import aut_group, enumerate_homs, hom_rack
from .perm import GroupTooLargeError, Permutation, print_cycles
from .racks import Rack, RackError, associated_quandle, inn_group, medialization

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NONEXHAUSTIVE = 2
EXIT_IO = 3


def _load_records(path: str) -> list[tuple[StructureRecord, Rack]]:
    """The records of ``path``, each with the rack that reading it checked."""
    try:
        return formats.read_racks(path)
    except OSError as exc:
        raise SystemExit(_fail(str(exc), EXIT_IO))
    except RecordFormatError as exc:
        raise SystemExit(_fail(str(exc), EXIT_INVALID))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _check_out(out: Optional[str]) -> None:
    """Fail at once on an ``out`` or checkpoint path that cannot be opened
    for writing, so that a bad path costs no search.  The check opens it
    for append, which keeps an existing file as it is, and removes a file
    that it made."""
    if out is None:
        return
    existed = os.path.lexists(out)
    try:
        with open(out, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise SystemExit(_fail(str(exc), EXIT_IO))
    if not existed:
        os.remove(out)


def _emit_records(records: list[StructureRecord], out: Optional[str], table: bool) -> None:
    if out is not None:
        try:
            formats.write_records(out, records)
        except OSError as exc:
            raise SystemExit(_fail(str(exc), EXIT_IO))
    elif table:
        for rec in records:
            print(formats.format_record_table(rec))
    else:
        for line in formats.format_record_lines(records):
            print(line)


def _count_line(report: _classify.CountReport) -> str:
    return (
        f"n={report.n} g={report.g} g_m={report.g_m} g_q={report.g_q} "
        f"g_qm={report.g_qm} r={report.r} r_m={report.r_m} "
        f"r_q={report.r_q} r_qm={report.r_qm}"
    )


def _not_exhaustive(result: _classify.ClassificationResult) -> int:
    for diag in result.diagnostics:
        print(f"non-exhaustive: {diag}", file=sys.stderr)
    return EXIT_NONEXHAUSTIVE


def cmd_check(args) -> int:
    try:
        scanned = formats.scan_records(args.file)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    violations = 0
    count = 0
    for lineno, found in scanned:
        count += 1
        if isinstance(found, ValueError):
            violations += 1
            print(f"{args.file}:{lineno}: INVALID: {found}")
        else:
            print(f"{args.file}:{lineno}: ok")
    print(f"{count - violations}/{count} structures valid")
    return EXIT_OK if violations == 0 else EXIT_INVALID


def cmd_classify(args) -> int:
    _classify.check_order(args.n, args.long_run)
    if args.jobs < 1:
        return _fail(f"--jobs must be at least 1, not {args.jobs}", EXIT_INVALID)
    if args.jobs > 1 and args.source == "enumerate":
        return _fail("--jobs applies only to --source libraries", EXIT_INVALID)
    if args.orientation != "auto" and args.source == "enumerate":
        return _fail("--orientation applies only to --source libraries", EXIT_INVALID)
    _check_out(args.out)
    _check_out(args.checkpoint)
    racks = None
    if args.source != "enumerate":
        try:
            racks = formats.ingest_rack_library(args.source, args.orientation)
        except (OSError, formats.BracketParseError) as exc:
            return _fail(str(exc), EXIT_IO)
        except formats.AmbiguousOrientationError:
            return _fail(
                "both orientations validate; pass --orientation rows or cols",
                EXIT_INVALID,
            )
        except RackError as exc:
            return _fail(str(exc), EXIT_INVALID)
        if any(r.n != args.n for r in racks):
            return _fail("library racks do not all have the requested order", EXIT_INVALID)
        first: dict[Rack, int] = {}
        for i, rack in enumerate(racks, 1):
            if first.setdefault(rack, i) != i:
                same = f"library entries {first[rack]} and {i} are the same table"
                return _fail(same, EXIT_INVALID)
    try:
        result = _classify.classify_gl(
            args.n,
            racks,
            long_run=args.long_run,
            jobs=args.jobs,
            checkpoint_path=args.checkpoint,
        )
    except MemoryError:
        return _fail("classification ran out of memory", EXIT_NONEXHAUSTIVE)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    records = result.records
    if args.quandles:
        records = [r for r in records if r.flags.gl_quandle]
    if args.medial:
        records = [r for r in records if r.flags.medial]
    _emit_records(records, args.out, args.table)
    if result.exhaustive and args.source == "enumerate" and not (args.quandles or args.medial):
        print(_count_line(_classify.count_report(args.n, result)))
    else:
        print(f"n={args.n} records={len(records)}")
    if not result.exhaustive:
        return _not_exhaustive(result)
    return EXIT_OK


def cmd_enumerate_racks(args) -> int:
    _classify.check_order(args.n, args.long_run)
    _check_out(args.out)
    racks = _classify.enumerate_racks(args.n, long_run=args.long_run)
    records = [
        StructureRecord(n=args.n, s=r.tables(), rack_index=i)
        for i, r in enumerate(racks)
    ]
    _emit_records(records, args.out, args.table)
    print(f"n={args.n} racks={len(racks)}")
    return EXIT_OK


def cmd_aut(args) -> int:
    for rec, rack in _load_records(args.file):
        aut = aut_group(rack)
        try:
            inn = inn_group(rack)
        except GroupTooLargeError as exc:
            return _fail(str(exc), EXIT_NONEXHAUSTIVE)
        print(f"n={rec.n} |Aut|={aut.order} |Inn|={inn.order}")
    return EXIT_OK


def cmd_glstructures(args) -> int:
    for rec, rack in _load_records(args.file):
        classes = _classify.gl_classes(rack)
        structures = sum(size for _u, size in classes)  # the classes partition U
        reps = " ".join(print_cycles(u) for u, _size in classes)
        print(f"n={rec.n} structures={structures} classes={len(classes)} reps=[{reps}]")
    return EXIT_OK


def cmd_functor(args) -> int:
    _check_out(args.out)
    out_records = []
    for rec, rack in _load_records(args.file):
        if args.direction == "f":
            gl = functor_f(rack)
            out_records.extend(formats.gl_records(gl.rack, [gl.u]))
        else:
            if rec.u is None:
                return _fail("functor g requires records with a u field", EXIT_INVALID)
            rack = functor_g(check_gl(rack, Permutation(rec.u)))
            out_records.append(StructureRecord(n=rack.n, s=rack.tables()))
    _emit_records(out_records, args.out, args.table)
    return EXIT_OK


def cmd_hom(args) -> int:
    sources = _load_records(args.source)
    targets = _load_records(args.target)
    if len(sources) != 1 or len(targets) != 1:
        return _fail("hom expects exactly one structure per file", EXIT_INVALID)
    [(_rec, source)] = sources
    [(_rec, target)] = targets
    if args.rack_structure:
        try:
            rack, homs = hom_rack(source, target)
        except GroupTooLargeError as exc:
            return _fail(str(exc), EXIT_NONEXHAUSTIVE)
        except ValueError as exc:  # a target that is not medial
            return _fail(str(exc), EXIT_INVALID)
        print(f"homs={len(homs)}")
        print(
            formats.format_record_line(StructureRecord(n=rack.n, s=rack.tables()))
        )
    else:
        homs = enumerate_homs(source, target)
        for phi in homs:
            print(",".join(str(v + 1) for v in phi) if phi else "()")
        print(f"homs={len(homs)}")
    return EXIT_OK


def cmd_quotient(args) -> int:
    _check_out(args.out)
    out_records = []
    for _rec, rack in _load_records(args.file):
        if args.kind == "assoc":
            quotient, proj = associated_quandle(rack)
        else:
            quotient, proj = medialization(rack)
        out_records.append(StructureRecord(n=quotient.n, s=quotient.tables()))
        print("projection:", ",".join(str(v + 1) for v in proj))
    _emit_records(out_records, args.out, args.table)
    return EXIT_OK


def cmd_count(args) -> int:
    try:
        result = _classify.classify_gl(args.n, long_run=args.long_run)
    except MemoryError:
        return _fail("classification ran out of memory", EXIT_NONEXHAUSTIVE)
    if not result.exhaustive:
        return _not_exhaustive(result)
    print(_count_line(_classify.count_report(args.n, result)))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # also for the subcommands' parsers
        raise SystemExit(_fail(message, EXIT_INVALID))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="glracks", description="Finite rack and GL-rack computations."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a structure-record file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="classify GL-racks of a given order")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--source", default="enumerate", help="'enumerate' or a rack-library file")
    p.add_argument("--quandles", action="store_true", help="keep only GL-quandles")
    p.add_argument("--medial", action="store_true", help="keep only medial GL-racks")
    p.add_argument("--jobs", type=int, default=1, help="processes for a --source library")
    p.add_argument(
        "--orientation",
        choices=["auto", "rows", "cols"],
        default="auto",
        help="read a --source entry T[x][y] as s_x(y) (rows) or s_y(x) (cols); "
        "auto takes the one that validates",
    )
    p.add_argument("--long-run", action="store_true")
    p.add_argument("--checkpoint", default=None, help="append-only checkpoint file")
    p.add_argument("--out", default=None)
    p.add_argument("--table", action="store_true", help="human-readable cycle notation")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate-racks", help="racks of a given order up to isomorphism")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--long-run", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=cmd_enumerate_racks)

    p = sub.add_parser("aut", help="automorphism and inner group orders")
    p.add_argument("file")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("glstructures", help="GL-structures and their classes per rack")
    p.add_argument("file")
    p.set_defaults(func=cmd_glstructures)

    p = sub.add_parser("functor", help="apply the rack/GL-quandle twist functors")
    p.add_argument("direction", choices=["f", "g"])
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=cmd_functor)

    p = sub.add_parser("hom", help="enumerate rack homomorphisms")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--rack-structure", action="store_true", help="print the hom rack")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("quotient", help="associated quandle or medialization")
    p.add_argument("kind", choices=["assoc", "medial"])
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("count", help="the eight per-order counts")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--long-run", action="store_true")
    p.set_defaults(func=cmd_count)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except _classify.OrderOutOfRange as exc:
        return _fail(str(exc), EXIT_INVALID)
    except _classify.LongRunRequired as exc:
        return _fail(str(exc), EXIT_NONEXHAUSTIVE)
    except (formats.BracketParseError, formats.EncodingError) as exc:
        return _fail(str(exc), EXIT_IO)
    except (RackError, RecordFormatError) as exc:
        return _fail(str(exc), EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
