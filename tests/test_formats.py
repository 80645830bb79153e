import functools
import os
import re
import tempfile
from dataclasses import astuple, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glracks.classify import classify_gl, enumerate_racks
from glracks.formats import (
    BracketParseError,
    RecordFormatError,
    StructureRecord,
    append_checkpoint,
    format_record_line,
    format_record_lines,
    format_record_table,
    ingest_rack_library,
    parse_bracketed_lists,
    parse_record_line,
    read_checkpoint,
    read_racks,
    read_records,
    scan_records,
    write_records,
)
from glracks.glrack import GLFlags, GLRack, GLRackError, down_map, flags
from glracks.perm import Permutation
from glracks.racks import check_rack, dihedral, trivial_quandle

from test_row_kernel import check_gl_oracle


class TestRecordLines:
    def test_round_trip(self, racks_by_order):
        records = classify_gl(3, racks_by_order[3]).records
        for record in records:
            assert parse_record_line(format_record_line(record)) == record

    def test_file_round_trip(self, tmp_path, racks_by_order):
        path = str(tmp_path / "records.txt")
        records = [
            StructureRecord(n=4, s=rack.tables(), rack_index=i)
            for i, rack in enumerate(racks_by_order[4])
        ]
        write_records(path, records)
        assert read_records(path) == records

    def test_one_based_on_disk(self):
        line = format_record_line(StructureRecord(n=2, s=((1, 0), (1, 0))))
        assert line == "n=2 s=2,1;2,1"

    def test_parse_rejects_with_position(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write("n=2 s=2,1;2,1\n")
            fh.write("n=2 s=1,1;1,2\n")
        with pytest.raises(RecordFormatError, match=r"bad\.txt:2"):
            read_records(path)

    @pytest.mark.parametrize(
        "line",
        [
            "s=1,2",  # missing n
            "n=2 s=1,2",  # wrong row count
            "n=2 s=1,2;1,2 u=1,2 u=2,1",  # duplicate field
            "n=2 s=1,2;1,2 d=2,1",  # d without u
            "n=2 s=1,2;1,2 u=1,2 quandle=1",  # partial flags
            "n=2 s=1,2;1,2 color=red",  # unknown field
            "n=2 s=0,1;0,1",  # 0-based rows rejected
            "n=3 rack=-1 s=1,2,3;1,2,3;1,2,3",  # negative rack index
            # the same in the written field order
            "n=3 rack=-1 s=1,2,3;1,2,3;1,2,3 u=1,2,3 d=1,2,3 quandle=1 medial=1 legendrian=1",
        ],
    )
    def test_malformed_lines(self, line):
        with pytest.raises(RecordFormatError):
            record = parse_record_line(line)
            record.validate()

    def test_validate_catches_wrong_down_map(self):
        line = "n=2 s=1,2;1,2 u=2,1 d=1,2"
        record = parse_record_line(line)
        with pytest.raises(RecordFormatError, match="down map"):
            record.validate()

    def test_validate_accepts_image_lists(self):
        StructureRecord(n=2, s=[[1, 0], [1, 0]], u=[0, 1], d=[1, 0]).validate()

    def test_validate_rejects_a_u_that_is_no_bijection(self):
        # on the trivial quandle u = (0, 0) passes both row tests, so only
        # the bijection check of a record built by hand refuses it
        record = StructureRecord(n=2, s=((0, 1), (0, 1)), u=(0, 0), d=(0, 1))
        with pytest.raises(ValueError, match="not a bijection"):
            record.validate()

    def test_validate_catches_wrong_flags(self):
        line = "n=2 s=1,2;1,2 u=1,2 d=1,2 quandle=0 medial=1 legendrian=1"
        record = parse_record_line(line)
        with pytest.raises(RecordFormatError, match="flags"):
            record.validate()

    def test_table_format(self):
        record = parse_record_line("n=2 s=2,1;2,1 u=1,2 d=2,1")
        assert format_record_table(record) == "n=2  [(12),(12)]  [id,(12)]"


# Records on one rack (the permutation rack of (123), rack 5 of order 3)
# and one non-rack table (rack 9): line 3 has a wrong d, line 4 a wrong
# medial flag, line 6 a u that is no automorphism, line 7 is no record
# line (a v1 checkpoint's watermark), and the bad table is on lines 5, 9
# and 10.
MIXED = """\
# glracks structure records v1
n=3 rack=5 s=2,3,1;2,3,1;2,3,1 u=1,2,3 d=3,1,2 quandle=0 medial=1 legendrian=0
n=3 rack=5 s=2,3,1;2,3,1;2,3,1 u=2,3,1 d=1,2,3 quandle=0 medial=1 legendrian=1
n=3 rack=5 s=2,3,1;2,3,1;2,3,1 u=3,1,2 d=1,2,3 quandle=0 medial=0 legendrian=0
n=3 rack=9 s=1,2,3;1,2,3;1,3,2 u=1,2,3 d=1,2,3 quandle=1 medial=1 legendrian=1
n=3 rack=5 s=2,3,1;2,3,1;2,3,1 u=2,1,3 d=1,2,3 quandle=0 medial=1 legendrian=0
watermark rack=5
n=3 rack=5 s=2,3,1;2,3,1;2,3,1 u=2,3,1 d=2,3,1 quandle=0 medial=1 legendrian=1
n=3 rack=9 s=1,2,3;1,2,3;1,3,2 u=1,2,3 d=1,2,3 quandle=1 medial=1 legendrian=1
n=3 s=1,2,3;1,2,3;1,3,2
"""

_NOT_A_RACK = "self-distributivity fails at (x=2, y=1): s_x s_y != s_(s_x(y)) s_x"
MIXED_ERRORS = {
    3: "stored d 1,2,3 != derived down map 2,3,1",
    4: "stored flags disagree with recomputation",
    5: _NOT_A_RACK,
    6: "u is not a rack automorphism: u s_x != s_u(x) u at x=0",
    7: "bad token 'watermark' in record line",
    9: _NOT_A_RACK,
    10: _NOT_A_RACK,
}


class TestOneCheckPerTable:
    """Each rack table is checked once per read; no bad record hides
    behind an earlier good one on the same table."""

    def test_scan_reports_every_bad_line(self, tmp_path):
        from glracks.formats import scan_records

        path = str(tmp_path / "mixed.txt")
        with open(path, "w") as fh:
            fh.write(MIXED)
        scanned = list(scan_records(path))
        assert [lineno for lineno, _ in scanned] == [2, 3, 4, 5, 6, 7, 8, 9, 10]
        errors = {
            lineno: str(found) for lineno, found in scanned if isinstance(found, ValueError)
        }
        assert errors == MIXED_ERRORS

    def test_read_records_raises_at_first_bad_line(self, tmp_path):
        path = str(tmp_path / "mixed.txt")
        with open(path, "w") as fh:
            fh.write(MIXED)
        with pytest.raises(RecordFormatError, match=r"mixed\.txt:3: stored d"):
            read_records(path)
        # without the bad lines, the rest reads
        lines = MIXED.splitlines(keepends=True)
        with open(path, "w") as fh:
            fh.writelines(lines[i - 1] for i in (1, 2, 8))
        assert len(read_records(path)) == 2
        with open(path, "w") as fh:
            fh.writelines(lines[i - 1] for i in (1, 2, 7, 8))
        with pytest.raises(RecordFormatError, match=r"mixed\.txt:3: bad token 'watermark'"):
            read_records(path)
        with open(path, "w") as fh:
            fh.writelines(lines[i - 1] for i in (1, 2, 8, 10))
        with pytest.raises(RecordFormatError, match=r"mixed\.txt:4: self-distributivity"):
            read_records(path)

    def test_validate_alone_is_unchanged(self):
        for lineno, line in enumerate(MIXED.splitlines(), start=1):
            if line.startswith(("#", "watermark")):
                continue
            record = parse_record_line(line)
            if lineno in MIXED_ERRORS:
                with pytest.raises(ValueError, match=re.escape(MIXED_ERRORS[lineno])):
                    record.validate()
            else:
                record.validate()

    @pytest.mark.parametrize(
        "field, tampered, error",
        [
            pytest.param(";3,1,2", ";3,1,1", "u array", id="u-not-a-bijection"),
            pytest.param(";3,1,2", ";3,2,1", "u is not a rack", id="u-not-gl"),
            pytest.param(";3,1,2", ";2,3,1;3,1,2", "u list", id="u-repeated"),
            pytest.param("u=1,2,3;", "u=", "u list", id="no-identity"),
            pytest.param(
                "s=2,3,1;2,3,1;2,3,1", "s=1,3,2;3,2,1;2,1,3", "s is not", id="s-of-rack-4"
            ),
        ],
    )
    def test_checkpoint_refuses_a_tampered_later_record(
        self, tmp_path, field, tampered, error
    ):
        racks = enumerate_racks(3)
        path = str(tmp_path / "ckpt.txt")
        classify_gl(3, racks, checkpoint_path=path)
        with open(path) as fh:
            lines = fh.readlines()
        # the line of rack 5, the last one, after five good lines
        lineno = len(lines)
        assert lines[-1] == "rack=5 s=2,3,1;2,3,1;2,3,1 u=1,2,3;2,3,1;3,1,2\n"
        lines[-1] = lines[-1].replace(field, tampered, 1)
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(RecordFormatError, match=f":{lineno}: {error}"):
            read_checkpoint(path, racks)

    def test_checkpoint_records_use_the_checked_rack(self, tmp_path):
        racks = enumerate_racks(4)
        path = str(tmp_path / "ckpt.txt")
        full = classify_gl(4, racks, checkpoint_path=path)
        done, records = read_checkpoint(path, racks)
        assert done == set(range(len(racks)))
        assert records == full.records


class TestOneParsePerTable:
    """Each ``s=`` text is parsed once per read and each table checked and
    formatted once, and every error still reaches every line it is on."""

    def scan(self, tmp_path, text):
        path = str(tmp_path / "records.txt")
        with open(path, "w") as fh:
            fh.write(text)
        return {
            lineno: str(found) if isinstance(found, ValueError) else found
            for lineno, found in scan_records(path)
        }

    def test_same_text_under_another_n(self, tmp_path):
        scanned = self.scan(
            tmp_path, "n=2 s=2,1;2,1\nn=3 s=2,1;2,1\nn=2 s=2,1;2,1 u=2,1 d=1,2\n"
        )
        assert scanned[2] == "expected 3 rows in s, got 2"
        assert scanned[1].s is scanned[3].s == ((1, 0), (1, 0))

    def test_bad_text_is_reported_on_each_line(self, tmp_path):
        bad = "n=2 s=1,x;2,1 u=1,2\n"
        scanned = self.scan(tmp_path, bad + bad + "n=2 s=2,1;2,1\n" + bad)
        message = "bad s array '1,x'"
        assert scanned[1] == scanned[2] == scanned[4] == message
        assert isinstance(scanned[3], StructureRecord)

    def test_two_texts_of_one_table_are_checked_once(self, tmp_path, monkeypatch):
        from glracks import formats

        calls = []
        real = formats.check_rack
        monkeypatch.setattr(
            formats, "check_rack", lambda n, s: calls.append(s) or real(n, s)
        )
        scanned = self.scan(
            tmp_path,
            "n=2 s=2,1;2,1 u=1,2 d=2,1 quandle=0 medial=1 legendrian=0\n"
            "n=2 s=02,1;2,01 u=2,1 d=1,2 quandle=0 medial=1 legendrian=0\n"
            "n=2 s=02,1;2,01 u=2,1 d=2,1\n",
        )
        assert scanned[1].s == scanned[2].s and scanned[1].u != scanned[2].u
        assert scanned[3] == "stored d 2,1 != derived down map 1,2"
        assert len(calls) == 1

    def test_records_of_one_table_share_s(self, tmp_path, racks_by_order):
        path = str(tmp_path / "records.txt")
        write_records(path, classify_gl(4, racks_by_order[4]).records)
        tables = {}
        for record in read_records(path):
            assert tables.setdefault(record.rack_index, record.s) is record.s
        assert len({id(s) for s in tables.values()}) == len(racks_by_order[4])

    def test_records_of_one_table_share_one_rack(self, tmp_path, racks_by_order):
        path = str(tmp_path / "records.txt")
        write_records(path, classify_gl(4, racks_by_order[4]).records)
        pairs = read_racks(path)
        assert [record for record, _rack in pairs] == read_records(path)
        racks = {}
        for record, rack in pairs:
            assert racks.setdefault(record.rack_index, rack) is rack
            assert rack == racks_by_order[4][record.rack_index]
        assert len(racks) == len(racks_by_order[4])

    def test_lines_are_formatted_as_one_at_a_time(self, racks_by_order):
        records = classify_gl(4, racks_by_order[4]).records
        records.append(StructureRecord(n=2, s=[[1, 0], [1, 0]], u=[0, 1]))
        # rows, u and d given as lists cannot key the formatted texts
        listed = StructureRecord(n=2, s=[[1, 0], [1, 0]], u=[0, 1], d=[1, 0])
        records += [listed, listed]
        assert list(format_record_lines(records)) == [
            format_record_line(record) for record in records
        ]

    def test_bad_u_text_is_reported_on_each_line(self, tmp_path):
        bad = "n=2 s=2,1;2,1 u=1,1 d=2,1\n"
        good = "n=2 s=2,1;2,1 u=1,2 d=2,1\n"
        bad_d = "n=2 s=2,1;2,1 u=1,2 d=1,1\n"
        scanned = self.scan(tmp_path, bad + good + bad + bad + bad_d)
        message = "u array '1,1' is not 1-based over 1..2"
        assert scanned[1] == scanned[3] == scanned[4] == message
        assert isinstance(scanned[2], StructureRecord)
        # the same text as a d array is a d error
        assert scanned[5] == "d array '1,1' is not 1-based over 1..2"

    def test_records_share_each_u_and_d_array(self, tmp_path, racks_by_order):
        path = str(tmp_path / "records.txt")
        write_records(path, classify_gl(4, racks_by_order[4]).records)
        arrays = {"u": {}, "d": {}}
        for record in read_records(path):
            assert arrays["u"].setdefault(record.u, record.u) is record.u
            assert arrays["d"].setdefault(record.d, record.d) is record.d


@functools.lru_cache(maxsize=None)
def _valid_records(n):
    return tuple(classify_gl(n, enumerate_racks(n)).records)


def _oracle_outcome(record):
    """What a read must make of ``record``: the record, or the text of its
    error, from the element-wise GL check, ``down_map`` and ``flags``."""
    rack = check_rack(record.n, record.s)
    u = Permutation(record.u)
    try:
        check_gl_oracle(rack, u)
    except GLRackError as exc:
        return str(exc)
    gl = GLRack(rack, u)
    d = down_map(gl).images
    if d != record.d:
        return (
            f"stored d {','.join(str(i + 1) for i in record.d)} != derived "
            f"down map {','.join(str(i + 1) for i in d)}"
        )
    if flags(gl) != record.flags:
        return "stored flags disagree with recomputation"
    return record


class TestRecordOracle:
    """A read gives each line the outcome that the element-wise oracles
    give it, whatever the caches have seen on earlier lines."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_scan_matches_the_oracle(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        pool = _valid_records(n)
        perms = st.permutations(range(n)).map(tuple)
        records = []
        for _ in range(data.draw(st.integers(1, 8), label="lines")):
            record = data.draw(st.sampled_from(pool))
            change = data.draw(st.sampled_from(["none", "u", "d", "flags"]))
            if change in ("u", "d"):
                record = replace(record, **{change: data.draw(perms)})
            elif change == "flags":
                values = list(astuple(record.flags))
                flip = data.draw(st.sampled_from(range(3)))
                values[flip] = not values[flip]
                record = replace(record, flags=GLFlags(*values))
            records.append(record)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "records.txt")
            write_records(path, records)
            scanned = [
                str(found) if isinstance(found, ValueError) else found
                for _lineno, found in scan_records(path)
            ]
        assert scanned == [_oracle_outcome(record) for record in records]


class TestCheckpoints:
    def test_resume_equivalence(self, tmp_path):
        racks = enumerate_racks(5)
        full = classify_gl(5, racks)
        # simulate a kill after an arbitrary prefix of racks, plus a torn
        # trailing line: the next rack's line with no newline
        path = str(tmp_path / "ckpt.txt")
        prefix = 30
        by_rack = {}
        for rec in full.records:
            by_rack.setdefault(rec.rack_index, []).append(rec)
        append_checkpoint(
            path, [(i, by_rack.get(i, [])) for i in range(prefix)], racks
        )
        size = os.path.getsize(path)
        append_checkpoint(path, [(prefix, by_rack[prefix])], racks)
        os.truncate(path, os.path.getsize(path) - 1)
        done, recovered = read_checkpoint(path, racks)
        assert done == set(range(prefix))
        assert os.path.getsize(path) == size
        assert all(rec.rack_index < prefix for rec in recovered)
        resumed = classify_gl(5, racks, checkpoint_path=path)
        key = lambda rec: (rec.rack_index, rec.u)
        assert [key(r) for r in resumed.records] == [key(r) for r in full.records]

    def test_failed_rack_is_redone_on_resume(self, tmp_path, monkeypatch):
        from glracks import classify

        racks = enumerate_racks(3)
        full = classify_gl(3, racks)
        real = classify.aut_group

        def failing(rack):
            if rack is racks[2]:
                raise MemoryError("injected")
            return real(rack)

        path = str(tmp_path / "ckpt.txt")
        monkeypatch.setattr(classify, "aut_group", failing)
        assert not classify_gl(3, racks, checkpoint_path=path).exhaustive
        monkeypatch.setattr(classify, "aut_group", real)
        resumed = classify_gl(3, racks, checkpoint_path=path)
        assert resumed.exhaustive
        key = lambda rec: (rec.rack_index, rec.u)
        assert [key(r) for r in resumed.records] == [key(r) for r in full.records]

    def test_header_names_the_rack_list(self, tmp_path):
        path = str(tmp_path / "ckpt.txt")
        classify_gl(3, enumerate_racks(3), checkpoint_path=path)
        assert len(read_checkpoint(path, enumerate_racks(3))[0]) == 6
        with pytest.raises(RecordFormatError):
            read_checkpoint(path, enumerate_racks(3)[::-1])

    def test_record_without_u_is_rejected(self, tmp_path):
        from glracks.formats import checkpoint_header

        racks = enumerate_racks(2)
        path = str(tmp_path / "ckpt.txt")
        with open(path, "w") as fh:
            fh.write(checkpoint_header(racks) + "\n")
            fh.write("n=2 rack=0 s=1,2;1,2\nwatermark rack=0\n")
        with pytest.raises(RecordFormatError, match=":2:"):
            read_checkpoint(path, racks)

    def test_a_rack_line_written_twice_is_rejected(self, tmp_path):
        # rack 0's line written twice would count its records twice
        racks = enumerate_racks(3)
        path = str(tmp_path / "ckpt.txt")
        classify_gl(3, racks, checkpoint_path=path)
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines + lines[1:2])
        with pytest.raises(RecordFormatError, match=f":{len(lines) + 1}: second"):
            read_checkpoint(path, racks)

    @pytest.mark.parametrize("us", ["", "1,3,2"], ids=["empty", "id-less"])
    def test_an_empty_or_id_less_u_list_is_rejected(self, tmp_path, us):
        # every rack has its u = id record, so a list without it loses some
        from glracks.formats import checkpoint_header

        racks = enumerate_racks(3)
        path = str(tmp_path / "ckpt.txt")
        with open(path, "w") as fh:
            fh.write(checkpoint_header(racks) + f"\nrack=0 s=1,2,3;1,2,3;1,2,3 u={us}\n")
        with pytest.raises(RecordFormatError, match=":2: u "):
            read_checkpoint(path, racks)

    def test_a_read_formats_each_table_once(self, tmp_path, monkeypatch):
        from glracks import formats

        racks = enumerate_racks(4)
        path = str(tmp_path / "ckpt.txt")
        classify_gl(4, racks, checkpoint_path=path)
        real = formats._format_table
        calls = []

        def counting(s):
            calls.append(s)
            return real(s)

        monkeypatch.setattr(formats, "_format_table", counting)
        done, _records = read_checkpoint(path, racks)
        assert done == set(range(len(racks)))
        assert len(calls) == len(racks)

    def test_missing_checkpoint_is_fresh_start(self, tmp_path):
        done, records = read_checkpoint(str(tmp_path / "nope.txt"), [])
        assert done == set() and records == []


class TestBracketedLists:
    def test_parses_nested(self):
        data = parse_bracketed_lists("[[1, 2],\n [3, [4, -5]],\n []]")
        assert data == [[1, 2], [3, [4, -5]], []]

    def test_error_carries_position(self):
        with pytest.raises(BracketParseError) as info:
            parse_bracketed_lists("[[1, 2]\n[3]]")
        assert info.value.line == 2 and info.value.column >= 1

    def test_rejects_garbage(self):
        for text in ("[1, ]", "[1 2]", "]", "[a]"):
            with pytest.raises(BracketParseError):
                parse_bracketed_lists(text)


class TestIngest:
    def _write(self, tmp_path, text):
        path = str(tmp_path / "lib.txt")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def test_row_oriented(self, tmp_path):
        rack = dihedral(3)
        rows = [[v + 1 for v in p.images] for p in rack.s]
        path = self._write(tmp_path, repr([rows]))
        loaded = ingest_rack_library(path, orientation="rows")
        assert loaded[0].tables() == rack.tables()

    def test_column_oriented(self, tmp_path):
        rack = dihedral(3)
        cols = [
            [rack.s[y].images[x] + 1 for y in range(3)] for x in range(3)
        ]
        path = self._write(tmp_path, repr([cols]))
        loaded = ingest_rack_library(path, orientation="cols")
        assert loaded[0].tables() == rack.tables()

    def test_auto_detect_unambiguous(self, tmp_path):
        # this table is a rack read by rows; read by columns its first
        # column is not even a bijection, so auto-detect is unambiguous
        from glracks.racks import check_rack

        rack = check_rack(3, [(0, 1, 2), (0, 1, 2), (1, 0, 2)])
        ok_rows = [[v + 1 for v in p.images] for p in rack.s]
        path = self._write(tmp_path, repr([ok_rows]))
        loaded = ingest_rack_library(path)
        assert loaded[0].tables() == rack.tables()

    def test_symmetric_table_is_not_ambiguous(self, tmp_path):
        # both orientations give the identical rack, so auto succeeds
        rack = trivial_quandle(2)
        rows = [[v + 1 for v in p.images] for p in rack.s]
        path = self._write(tmp_path, repr([rows]))
        loaded = ingest_rack_library(path)
        assert loaded[0].tables() == rack.tables()

    def test_rejects_non_rack(self, tmp_path):
        path = self._write(tmp_path, "[[[1, 1], [1, 2]]]")
        with pytest.raises(Exception):
            ingest_rack_library(path)
