import hashlib
import multiprocessing
import os
import random
import subprocess
import sys
import time

import pytest

from glracks.classify import enumerate_racks
from glracks.cli import main
from glracks.formats import RecordFormatError, read_records, write_records, StructureRecord
from glracks.racks import dihedral

from test_acceptance import long_run_only


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env():
    """The environment with this checkout's ``src`` on ``PYTHONPATH``."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def write_library(path, racks, rng):
    """Write ``racks`` to ``path`` as a rack library, each relabeled by
    ``rng``, in an order shuffled by ``rng``."""
    tables = []
    for rack in racks:
        n = rack.n
        p = list(range(n))
        rng.shuffle(p)
        table = [[0] * n for _ in range(n)]
        for x, row in enumerate(rack.tables()):
            for y, v in enumerate(row):
                table[p[x]][p[y]] = p[v] + 1
        tables.append(table)
    rng.shuffle(tables)
    with open(path, "w") as fh:
        fh.write(repr(tables))


class TestCheck:
    def test_valid_file(self, capsys, tmp_path):
        path = str(tmp_path / "ok.txt")
        write_records(path, [StructureRecord(n=2, s=((1, 0), (1, 0)))])
        code, out, _err = run(capsys, "check", path)
        assert code == 0
        assert "1/1 structures valid" in out

    def test_invalid_file(self, capsys, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write("n=2 s=2,1;2,1 u=2,1 d=2,1\n")  # wrong d: should be id
        code, out, _err = run(capsys, "check", path)
        assert code == 1
        assert "INVALID" in out

    def test_flags_without_u(self, capsys, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write("n=1 s=1 quandle=0 medial=0 legendrian=1\n")
        code, out, _err = run(capsys, "check", path)
        assert code == 1
        assert out.splitlines()[0] == f"{path}:1: INVALID: flags present without u"
        with pytest.raises(RecordFormatError, match="flags present without u"):
            read_records(path)

    def test_missing_file(self, capsys, tmp_path):
        code, _out, err = run(capsys, "check", str(tmp_path / "nope.txt"))
        assert code == 3

    def test_each_bad_record_is_reported(self, capsys, tmp_path):
        from test_formats import MIXED, MIXED_ERRORS

        path = str(tmp_path / "mixed.txt")
        with open(path, "w") as fh:
            fh.write(MIXED)
        code, out, _err = run(capsys, "check", path)
        expected = [
            f"{path}:{lineno}: INVALID: {MIXED_ERRORS[lineno]}"
            if lineno in MIXED_ERRORS
            else f"{path}:{lineno}: ok"
            for lineno in (2, 3, 4, 5, 6, 7, 8, 9, 10)
        ]
        assert code == 1
        assert out.splitlines() == expected + ["2/9 structures valid"]


class TestUnreadableInput:
    """Input that is not UTF-8 text, or nested too deep for a recursive
    parser, ends in an ``error:`` line and an exit code, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "FILE"),
            ("aut", "FILE"),
            ("glstructures", "FILE"),
            ("functor", "f", "FILE"),
            ("functor", "g", "FILE"),
            ("hom", "FILE", "FILE"),
            ("quotient", "assoc", "FILE"),
            ("classify", "-n", "1", "--source", "FILE"),
            ("classify", "-n", "1", "--checkpoint", "FILE"),
        ],
    )
    def test_not_utf8_exits_3(self, capsys, tmp_path, argv):
        path = str(tmp_path / "utf16.txt")
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfen\x00=\x001\x00 \x00s\x00=\x001\x00\n\x00")
        code, out, err = run(capsys, *(path if a == "FILE" else a for a in argv))
        assert code == 3
        assert out == ""
        assert err == f"error: {path}: not UTF-8 text: invalid start byte\n"

    def test_directory_exits_3(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["aut", str(tmp_path)])
        assert info.value.code == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_deep_nesting_exits_3(self, capsys, tmp_path):
        lib = str(tmp_path / "deep.txt")
        with open(lib, "w") as fh:
            fh.write("[" * 3000)
        code, _out, err = run(capsys, "classify", "-n", "1", "--source", lib)
        assert code == 3
        assert err == "error: line 1, column 3001: unexpected end of input\n"

    def test_deep_table_entry_exits_1(self, capsys, tmp_path):
        lib = str(tmp_path / "deep.txt")
        with open(lib, "w") as fh:
            fh.write("[[[" + "[" * 3000 + "]" * 3000 + "]]]")
        code, _out, err = run(capsys, "classify", "-n", "1", "--source", lib)
        assert code == 1
        assert err.startswith("error:") and "not an integer" in err


class TestUnwritableOutput:
    """An ``--out`` that cannot be written ends in an ``error:`` line and
    exit 3, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "-n", "2"),
            ("enumerate-racks", "-n", "2"),
            ("functor", "f", "FILE"),
            ("quotient", "assoc", "FILE"),
        ],
    )
    def test_out_is_a_directory_exits_3(self, capsys, tmp_path, argv):
        path = str(tmp_path / "racks.txt")
        write_records(path, [StructureRecord(n=3, s=dihedral(3).tables())])
        argv = [path if a == "FILE" else a for a in argv]
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(tmp_path)])
        assert info.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["classify", "enumerate-racks"])
    @pytest.mark.parametrize("out", ["DIR", "DIR/missing/racks.txt"])
    def test_bad_out_fails_before_the_search(
        self, capsys, tmp_path, monkeypatch, command, out
    ):
        from glracks import classify

        def searched(n):
            raise AssertionError("the search ran before --out was checked")

        monkeypatch.setattr(classify, "_labeled_racks", searched)
        out = out.replace("DIR", str(tmp_path))
        with pytest.raises(SystemExit) as info:
            main([command, "-n", "7", "--long-run", "--out", out])
        assert info.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_checkpoint_fails_before_the_search(
        self, capsys, tmp_path, monkeypatch
    ):
        from glracks import classify

        def searched(n):
            raise AssertionError("the search ran before --checkpoint was checked")

        monkeypatch.setattr(classify, "_labeled_racks", searched)
        ckpt = str(tmp_path / "missing" / "ckpt.txt")
        with pytest.raises(SystemExit) as info:
            main(["classify", "-n", "7", "--long-run", "--checkpoint", ckpt])
        assert info.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [("quotient", "medial"), ("functor", "f")], ids=["quotient", "functor"]
    )
    def test_bad_out_fails_before_any_output(self, capsys, tmp_path, argv):
        path = str(tmp_path / "t3.txt")
        write_records(path, [StructureRecord(n=3, s=dihedral(3).tables())])
        out = str(tmp_path / "missing" / "x.txt")
        with pytest.raises(SystemExit) as info:
            main([*argv, path, "--out", out])
        assert info.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["classify", "enumerate-racks"])
    @pytest.mark.parametrize("existed", [False, True])
    def test_out_is_untouched_until_the_records_are_ready(
        self, capsys, tmp_path, monkeypatch, command, existed
    ):
        # the early check neither truncates an existing file nor leaves a
        # new one behind while the search runs
        from glracks import classify

        path = tmp_path / "out.txt"
        if existed:
            path.write_text("old contents\n")
        real = classify._labeled_racks
        during = []

        def searched(n):
            during.append(path.read_text() if path.exists() else None)
            return real(n)

        monkeypatch.setattr(classify, "_labeled_racks", searched)
        code, _out, _err = run(capsys, command, "-n", "3", "--out", str(path))
        assert code == 0
        assert during == ["old contents\n" if existed else None]
        assert read_records(str(path))


class TestClassify:
    def test_stdout_counts(self, capsys):
        code, out, _err = run(capsys, "classify", "-n", "3")
        assert code == 0
        assert "g=13" in out and "r_qm=3" in out
        assert out.count("\n") == 14  # 13 records + summary

    @pytest.mark.parametrize("command", ["classify"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_1(self, capsys, command, jobs):
        code, out, err = run(capsys, command, "-n", "3", "--jobs", jobs)
        assert code == 1
        assert out == ""
        assert err == f"error: --jobs must be at least 1, not {jobs}\n"

    def test_out_file_validates(self, capsys, tmp_path):
        path = str(tmp_path / "cls.txt")
        code, _out, _err = run(capsys, "classify", "-n", "4", "--out", path)
        assert code == 0
        assert len(read_records(path)) == 62

    # sha256 of ``classify -n N --out`` for N = 0..6; N = 6 is also
    # ``classify-6.txt`` in perfbench/data/expected.json
    OUT_SHA256 = [
        "caa337db99446a59e65b8a9e9e1a213e4fa054b0ddfb36a68c3684f42264742f",
        "4e318e8ad049d988c1ef5a75224221ca2dda3703f27c2f70055b0a8e3a06b946",
        "e8edf16aaa449411b82de9d000f7e935323e96febe0ef49ebc980c1777411251",
        "da7c649cc8028d76f6a40528a951478d6a450bb22ac3adb7080d80679b082e79",
        "8a91d30a0070e11c878caa0fc5812157c4b0153929680ba29165ca8b8e3a4a60",
        "6b6a82a52242d4521cf81a73b087870398b7ceabad33fc67a50b2959df6ca349",
        "6103b8e5fcf628f7460191ba4de5ad64f80d909453a1a2ba4ae9bf4b8dcb7635",
    ]

    @pytest.mark.parametrize("n", range(7))
    def test_out_file_bytes(self, capsys, tmp_path, n):
        path = str(tmp_path / "cls.txt")
        code, _out, _err = run(capsys, "classify", "-n", str(n), "--out", path)
        assert code == 0
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == self.OUT_SHA256[n]

    # sha256 of ``classify -n N --long-run --out`` for N = 7 and 8
    LONG_OUT_SHA256 = {
        7: "be88eaa1540a5b35a27778acab43df5c7647d7f9d32c80178b1dd5bc1c3a0b09",
        8: "99ac3e0e91eac48a72717d6d5df2083ebfb49cccce5414685c95fe45638bb9e1",
    }
    # and the last line of ``check`` on that file
    LONG_CHECK_LAST_LINE = {
        7: "17268/17268 structures valid",
        8: "189373/189373 structures valid",
    }

    @pytest.mark.parametrize("n", [7, pytest.param(8, marks=long_run_only)])
    def test_long_run_out_file_bytes(self, capsys, tmp_path, n):
        path = str(tmp_path / "cls.txt")
        code, _out, _err = run(
            capsys, "classify", "-n", str(n), "--long-run", "--out", path
        )
        assert code == 0
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == self.LONG_OUT_SHA256[n]
        code, out, _err = run(capsys, "check", path)
        assert code == 0
        assert out.splitlines()[-1] == self.LONG_CHECK_LAST_LINE[n]

    @pytest.mark.parametrize("n", [7, pytest.param(8, marks=long_run_only)])
    def test_long_run_resume_from_a_torn_checkpoint(self, capsys, tmp_path, n):
        ckpt, path = str(tmp_path / "ckpt.txt"), str(tmp_path / "cls.txt")
        argv = ("classify", "-n", str(n), "--long-run", "--checkpoint", ckpt)
        assert run(capsys, *argv)[0] == 0
        os.truncate(ckpt, os.path.getsize(ckpt) // 2)
        with open(ckpt, "rb") as fh:
            assert not fh.read().endswith(b"\n")  # cut mid-line
        assert run(capsys, *argv, "--out", path)[0] == 0
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == self.LONG_OUT_SHA256[n]

    def test_enumerate_racks_order_7_bytes(self, capsys, tmp_path):
        # ``racks-7.txt`` in perfbench/data/expected.json: 2080 canonical
        # forms, each one lex-least table of its class, in sorted order
        path = str(tmp_path / "racks.txt")
        code, _out, _err = run(
            capsys, "enumerate-racks", "-n", "7", "--long-run", "--out", path
        )
        assert code == 0
        with open(path, "rb") as fh:
            assert (
                hashlib.sha256(fh.read()).hexdigest()
                == "3fba7654af75268d20c2be65f3ef145316a9248ee1ee107c19bd512e2c3337a5"
            )

    def test_quandle_filter(self, capsys, tmp_path):
        path = str(tmp_path / "q.txt")
        code, out, _err = run(capsys, "classify", "-n", "4", "--quandles", "--out", path)
        assert code == 0
        assert len(read_records(path)) == 19
        assert "records=19" in out

    def test_filtered_out_file_bytes(self, capsys, tmp_path):
        # sha256 and record count of ``classify -n 5 --out`` per filter
        expected = {
            ("--quandles",): (
                74,
                "a8f5afac8ffdda645f81b4426a87777a6556bee5c8300e2edcc8b45791ce8455",
            ),
            ("--medial",): (
                298,
                "a68d8b8d2fb1549f27cf13ded33b7baebe6dc2c93e37009c9b1bdb9400995967",
            ),
            ("--quandles", "--medial"): (
                68,
                "36184a4ecab35d3c8b1ceeb3cd80aae6a1ddc12ac9612bdf403657a0fb949066",
            ),
        }
        for flags, (records, digest) in expected.items():
            path = str(tmp_path / "cls.txt")
            code, out, _err = run(capsys, "classify", "-n", "5", *flags, "--out", path)
            assert code == 0
            assert out.strip() == f"n=5 records={records}"
            with open(path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest

    def test_long_run_gate(self, capsys):
        code, _out, err = run(capsys, "classify", "-n", "7")
        assert code == 2
        assert "--long-run" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "-n", "-1"),
            ("classify", "-n", "9", "--long-run"),
            ("classify", "-n", "9"),
            ("enumerate-racks", "-n", "-2"),
        ],
    )
    def test_order_out_of_range(self, capsys, argv):
        code, _out, err = run(capsys, *argv)
        assert code == 1
        assert err.strip() == "error: order must be in 0..8"

    @pytest.mark.parametrize("command", ["enumerate-racks", "count"])
    def test_long_run_gate_other_commands(self, capsys, command):
        code, _out, err = run(capsys, command, "-n", "7")
        assert code == 2
        assert "--long-run" in err

    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "glracks", "count", "-n", "9"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 1
        assert proc.stderr.strip() == "error: order must be in 0..8"

    def test_jobs_output_identical(self, capsys, tmp_path):
        lib = str(tmp_path / "lib.txt")
        write_library(lib, enumerate_racks(4), random.Random(4))
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        argv = ("classify", "-n", "4", "--source", lib)
        assert run(capsys, *argv, "--out", p1)[0] == 0
        assert run(capsys, *argv, "--jobs", "2", "--out", p2)[0] == 0
        assert open(p1).read() == open(p2).read()

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_jobs_output_identical_under_every_start_method(self, capsys, tmp_path, method):
        # the pool pickles every library rack to its workers, and the start
        # method decides what else they inherit (forkserver is the Linux
        # default from Python 3.14)
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        lib = str(tmp_path / "lib.txt")
        write_library(lib, enumerate_racks(4), random.Random(4))
        argv = ["classify", "-n", "4", "--source", lib]
        code, serial, _err = run(capsys, *argv)
        assert code == 0
        script = (
            "import multiprocessing, sys\n"
            "from glracks.cli import main\n"
            "if __name__ == '__main__':\n"
            f"    multiprocessing.set_start_method({method!r})\n"
            "    sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv, "--jobs", "2"],
            capture_output=True,
            env=subprocess_env(),
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == serial.encode()

    def test_jobs_without_source_exits_1(self, capsys, tmp_path):
        out = tmp_path / "out.txt"
        code, stdout, err = run(capsys, "classify", "-n", "4", "--jobs", "2", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == "error: --jobs applies only to --source libraries\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "-n", "abc"),
            ("classify", "-n", "3", "--bogus"),
            (),
            ("count", "-n", "3", "--jobs", "2"),
        ],
        ids=["bad-int", "unknown-option", "no-command", "count-jobs"],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["count", "--help"])
        assert info.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_source_library(self, capsys, tmp_path):
        lib = str(tmp_path / "lib.txt")
        rack = dihedral(4)
        with open(lib, "w") as fh:
            fh.write(repr([[[v + 1 for v in p.images] for p in rack.s]]))
        code, out, _err = run(capsys, "classify", "-n", "4", "--source", lib)
        assert code == 0
        assert "records=3" in out

    def test_library_classify_and_check_bytes(self, capsys, tmp_path, monkeypatch):
        # a seeded library of every order-6 rack, each relabeled, in
        # shuffled order, through classify --source and then check: the
        # pinned digests catch any change to the bytes of this path
        monkeypatch.chdir(tmp_path)
        write_library("lib.txt", enumerate_racks(6), random.Random(6))
        code, out, _err = run(
            capsys, "classify", "-n", "6", "--source", "lib.txt", "--out", "out.txt"
        )
        assert (code, out) == (0, "n=6 records=2132\n")
        with open("out.txt", "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == (
                "74462f377f64249798f5e9a41dcbca7f85cadfb8b29dcbcc8be5bbbb9bd9d905"
            )
        code, out, _err = run(capsys, "check", "out.txt")
        assert code == 0
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "bbf6a65ee3b76e3ca5a9ddacdd75f39645a0bf231398b1bc5adebf2c0272becf"
        )

    @pytest.mark.parametrize(
        "orientation, code",
        [((), 1), (("--orientation", "auto"), 1), (("--orientation", "rows"), 0)],
        ids=["default", "auto", "rows"],
    )
    def test_source_orientation(self, capsys, tmp_path, orientation, code):
        # every table of this library is a rack both ways, and the two
        # readings differ
        lib = str(tmp_path / "lib.txt")
        with open(lib, "w") as fh:
            fh.write("[[[1,3,4,2],[4,2,1,3],[2,4,3,1],[3,1,2,4]]]")
        argv = ("classify", "-n", "4", "--source", lib, *orientation)
        got, out, err = run(capsys, *argv)
        assert got == code
        if code:
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert "--orientation" in err
        else:
            assert out.endswith("n=4 records=1\n")
            assert "s=1,3,4,2;4,2,1,3;2,4,3,1;3,1,2,4 " in out

    def test_orientation_without_source_exits_1(self, capsys):
        code, out, err = run(capsys, "classify", "-n", "3", "--orientation", "rows")
        assert (code, out) == (1, "")
        assert err == "error: --orientation applies only to --source libraries\n"

    def test_source_order_mismatch(self, capsys, tmp_path):
        lib = str(tmp_path / "lib.txt")
        rack = dihedral(3)
        with open(lib, "w") as fh:
            fh.write(repr([[[v + 1 for v in p.images] for p in rack.s]]))
        code, _out, err = run(capsys, "classify", "-n", "4", "--source", lib)
        assert code == 1

    def test_source_with_a_table_twice_exits_1(self, capsys, tmp_path):
        # refused before any classification, and no --out is left behind; a
        # relabeled copy is not the same table and still passes
        lib, out = str(tmp_path / "lib.txt"), str(tmp_path / "out.txt")
        table = "[[2,3,1],[2,3,1],[2,3,1]]"
        with open(lib, "w") as fh:
            fh.write(f"[[[1,2,3],[1,2,3],[1,2,3]],{table},{table}]")
        code, out_text, err = run(
            capsys, "classify", "-n", "3", "--source", lib, "--out", out
        )
        assert (code, out_text) == (1, "")
        assert err == "error: library entries 2 and 3 are the same table\n"
        assert not os.path.exists(out)
        with open(lib, "w") as fh:
            fh.write(f"[{table},[[3,1,2],[3,1,2],[3,1,2]]]")
        code, out_text, _err = run(capsys, "classify", "-n", "3", "--source", lib)
        assert code == 0 and out_text.endswith("n=3 records=6\n")

    def test_checkpoint_resume_same_output(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt.txt")
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        assert run(capsys, "classify", "-n", "4", "--out", p1)[0] == 0
        # first pass writes the checkpoint; second resumes from it
        assert run(capsys, "classify", "-n", "4", "--checkpoint", ckpt, "--out", p2)[0] == 0
        assert open(p1).read() == open(p2).read()
        assert run(capsys, "classify", "-n", "4", "--checkpoint", ckpt, "--out", p2)[0] == 0
        assert open(p1).read() == open(p2).read()

    def test_checkpoint_under_jobs(self, capsys, tmp_path):
        lib = str(tmp_path / "lib.txt")
        write_library(lib, enumerate_racks(4), random.Random(4))
        ckpt = str(tmp_path / "ckpt.txt")
        p1, p2, p3 = (str(tmp_path / f"{k}.txt") for k in "abc")
        assert run(capsys, "classify", "-n", "4", "--source", lib, "--out", p1)[0] == 0
        argv = ("classify", "-n", "4", "--source", lib, "--jobs", "2", "--checkpoint", ckpt)
        assert run(capsys, *argv, "--out", p2)[0] == 0
        assert os.path.exists(ckpt)
        assert run(capsys, *argv, "--out", p3)[0] == 0
        assert open(p1).read() == open(p2).read() == open(p3).read()

    def test_checkpoint_of_another_order_is_refused(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt.txt")
        assert run(capsys, "classify", "-n", "4", "--checkpoint", ckpt)[0] == 0
        code, _out, err = run(capsys, "classify", "-n", "5", "--checkpoint", ckpt)
        assert code == 1
        assert err.startswith("error:") and "another rack list" in err

    def test_checkpoint_torn_tail_resumes(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt.txt")
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        argv = ("classify", "-n", "4", "--checkpoint", ckpt)
        assert run(capsys, *argv, "--out", p1)[0] == 0
        os.truncate(ckpt, os.path.getsize(ckpt) - 20)  # cut mid-line
        # resuming twice checks that the first resume left a clean file
        for _ in range(2):
            assert run(capsys, *argv, "--out", p2)[0] == 0
            assert open(p1).read() == open(p2).read()

    def test_checkpoint_unwritable_exits_3(self, capsys, tmp_path):
        # checked before the search, as --out is, so the exit comes from
        # the early check's SystemExit
        ckpt = str(tmp_path / "missing-dir" / "ckpt.txt")
        with pytest.raises(SystemExit) as info:
            main(["classify", "-n", "2", "--checkpoint", ckpt])
        assert info.value.code == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_checkpoint_malformed_middle_line(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt.txt")
        argv = ("classify", "-n", "4", "--checkpoint", ckpt)
        assert run(capsys, *argv)[0] == 0
        with open(ckpt) as fh:
            lines = fh.readlines()
        assert lines[2].startswith("rack=1 ")
        lines[2] = lines[2].replace(" u=1,2,3,4;", " u=1,2,3,x;", 1)
        with open(ckpt, "w") as fh:
            fh.writelines(lines)
        code, _out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and ":3:" in err

    @pytest.mark.parametrize("case", ["u-twice", "line-twice", "no-identity", "v1-header"])
    def test_checkpoint_tampered_exits_1(self, capsys, tmp_path, case):
        # each is refused at its line; rack 0's u = id read twice would
        # print g=63 g_m=62 g_q=20 g_qm=19, and check would pass that output
        ckpt = str(tmp_path / "ckpt.txt")
        argv = ("classify", "-n", "4", "--checkpoint", ckpt)
        assert run(capsys, *argv)[0] == 0
        with open(ckpt) as fh:
            header, rack0, *rest = fh.readlines()
        assert rack0.startswith("rack=0 ") and " u=1,2,3,4;" in rack0
        lineno, lines = {
            "u-twice": (2, [header, rack0.replace(" u=1,2,3,4;", " u=1,2,3,4;1,2,3,4;")]),
            "line-twice": (3, [header, rack0, rack0]),
            "no-identity": (2, [header, rack0.replace(" u=1,2,3,4;", " u=")]),
            "v1-header": (1, [header.replace(" v2 ", " v1 "), rack0]),
        }[case]
        with open(ckpt, "w") as fh:
            fh.writelines(lines + rest)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f":{lineno}:" in err

    @pytest.mark.parametrize(
        "rack, old, new",
        [
            # a dropped class: the resume would print g=61
            ("3", "u=1,2,3,4;1,2,4,3;2,1,3,4;", "u=1,2,3,4;1,2,4,3;"),
            # (2 3) in place of (3 4), the least member of its class
            ("0", "u=1,2,3,4;1,2,4,3;", "u=1,2,3,4;1,3,2,4;"),
            # the class of (3 4) listed twice, again as (2 4)
            ("0", "1,3,4,2;2,1,4,3;", "1,3,4,2;1,4,3,2;2,1,4,3;"),
        ],
        ids=["dropped", "not-least", "twice"],
    )
    def test_checkpoint_with_other_classes_exits_1(self, capsys, tmp_path, rack, old, new):
        # each line is well formed and each u a GL-structure on its rack;
        # only the classes the enumerate path computes show the change
        ckpt = str(tmp_path / "ckpt.txt")
        argv = ("classify", "-n", "4", "--checkpoint", ckpt)
        assert run(capsys, *argv)[0] == 0
        with open(ckpt) as fh:
            lines = fh.readlines()
        [at] = [i for i, line in enumerate(lines) if line.startswith(f"rack={rack} ")]
        assert old in lines[at]
        lines[at] = lines[at].replace(old, new, 1)
        with open(ckpt, "w") as fh:
            fh.writelines(lines)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{ckpt}: rack={rack}:" in err

    @pytest.mark.parametrize("quandles", [(), ("--quandles",)])
    def test_checkpoint_bare_watermark_exits_1(self, capsys, tmp_path, quandles):
        # a rack marked done with no records would print a short count
        from glracks.formats import checkpoint_header

        ckpt = str(tmp_path / "ckpt.txt")
        with open(ckpt, "w") as fh:
            fh.write(checkpoint_header(enumerate_racks(3)) + "\nwatermark rack=0\n")
        code, out, err = run(capsys, "classify", "-n", "3", *quandles, "--checkpoint", ckpt)
        assert code == 1 and out == ""
        assert err.startswith("error:") and ":2:" in err


class TestOtherCommands:
    def test_enumerate_racks(self, capsys, tmp_path):
        path = str(tmp_path / "racks.txt")
        code, out, _err = run(capsys, "enumerate-racks", "-n", "4", "--out", path)
        assert code == 0
        assert "racks=19" in out
        assert len(read_records(path)) == 19

    def test_count(self, capsys):
        code, out, _err = run(capsys, "count", "-n", "4")
        assert code == 0
        assert out.strip() == "n=4 g=62 g_m=61 g_q=19 g_qm=18 r=19 r_m=18 r_q=7 r_qm=6"

    def test_count_not_exhaustive(self, capsys, monkeypatch):
        # one rack's records run out of memory: classify and count both
        # exit 2 with the same non-exhaustive lines, and count prints none
        from glracks import classify, formats

        failing = classify.enumerate_racks(3)[5]
        real = formats.gl_records

        def gl_records(rack, us, rack_index=None, medial=None):
            if rack == failing:
                raise MemoryError("injected")
            return real(rack, us, rack_index, medial)

        monkeypatch.setattr(formats, "gl_records", gl_records)
        code, _out, classify_err = run(capsys, "classify", "-n", "3")
        assert code == 2
        assert classify_err.splitlines() == ["non-exhaustive: rack 5: injected"]
        code, out, err = run(capsys, "count", "-n", "3")
        assert code == 2
        assert out == ""
        assert err == classify_err

    def test_aut(self, capsys, tmp_path):
        path = str(tmp_path / "r.txt")
        write_records(path, [StructureRecord(n=3, s=dihedral(3).tables())])
        code, out, _err = run(capsys, "aut", path)
        assert code == 0
        assert "|Aut|=6" in out and "|Inn|=6" in out

    def test_glstructures(self, capsys, tmp_path):
        path = str(tmp_path / "r.txt")
        write_records(path, [StructureRecord(n=4, s=dihedral(4).tables())])
        code, out, _err = run(capsys, "glstructures", path)
        assert code == 0
        assert "structures=4 classes=3" in out

    def test_functor_round_trip(self, capsys, tmp_path):
        src = str(tmp_path / "racks.txt")
        mid = str(tmp_path / "gl.txt")
        back = str(tmp_path / "back.txt")
        assert run(capsys, "enumerate-racks", "-n", "4", "--out", src)[0] == 0
        assert run(capsys, "functor", "f", src, "--out", mid)[0] == 0
        assert run(capsys, "functor", "g", mid, "--out", back)[0] == 0
        original = [r.s for r in read_records(src)]
        returned = [r.s for r in read_records(back)]
        assert original == returned

    def test_functor_g_needs_u(self, capsys, tmp_path):
        path = str(tmp_path / "r.txt")
        write_records(path, [StructureRecord(n=3, s=dihedral(3).tables())])
        code, _out, err = run(capsys, "functor", "g", path)
        assert code == 1

    def test_hom(self, capsys, tmp_path):
        path = str(tmp_path / "r3.txt")
        write_records(path, [StructureRecord(n=3, s=dihedral(3).tables())])
        code, out, _err = run(capsys, "hom", path, path)
        assert code == 0
        assert "homs=9" in out
        code, out, _err = run(capsys, "hom", path, path, "--rack-structure")
        assert code == 0
        assert "n=9" in out

    def test_hom_rack_over_the_cap_exits_2(self, capsys, tmp_path):
        # 6**6 = 46,656 homs T_6 -> T_6: a table of about 2e9 entries
        from glracks.racks import trivial_quandle

        path = str(tmp_path / "t6.txt")
        write_records(path, [StructureRecord(n=6, s=trivial_quandle(6).tables())])
        start = time.perf_counter()
        code, out, err = run(capsys, "hom", path, path, "--rack-structure")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_aut_over_the_cap_exits_2(self, capsys, tmp_path, monkeypatch):
        # Inn R_5 is the dihedral group of order 10
        from glracks import perm

        path = str(tmp_path / "r5.txt")
        write_records(path, [StructureRecord(n=5, s=dihedral(5).tables())])
        monkeypatch.setattr(perm, "GROUP_CAP", 4)
        code, out, err = run(capsys, "aut", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_hom_rack_needs_medial_target(self, capsys, tmp_path):
        from glracks.perm import parse_cycles
        from glracks.racks import check_rack

        path = str(tmp_path / "nm.txt")
        rack = check_rack(4, [parse_cycles(c, 4) for c in ["id", "(34)", "(24)", "(23)"]])
        write_records(path, [StructureRecord(n=4, s=rack.tables())])
        code, out, err = run(capsys, "hom", path, path, "--rack-structure")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_quotient(self, capsys, tmp_path):
        from glracks.racks import permutation_rack
        from glracks.perm import parse_cycles

        path = str(tmp_path / "p.txt")
        rack = permutation_rack(3, parse_cycles("(123)", 3))
        write_records(path, [StructureRecord(n=3, s=rack.tables())])
        code, out, _err = run(capsys, "quotient", "assoc", path)
        assert code == 0
        assert "n=1" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["aut", "{racks}"],
            ["glstructures", "{racks}"],
            ["quotient", "assoc", "{racks}"],
            ["functor", "f", "{racks}"],
            ["functor", "g", "{classes}"],
            ["hom", "{one}", "{one}"],
        ],
    )
    def test_each_table_is_checked_once(self, capsys, tmp_path, monkeypatch, argv):
        # the commands use the racks that reading their records checked
        from glracks import formats

        paths = {name: str(tmp_path / f"{name}.txt") for name in ("racks", "classes", "one")}
        assert run(capsys, "enumerate-racks", "-n", "4", "--out", paths["racks"])[0] == 0
        assert run(capsys, "classify", "-n", "3", "--out", paths["classes"])[0] == 0
        write_records(paths["one"], [StructureRecord(n=3, s=dihedral(3).tables())])
        argv = [arg.format(**paths) for arg in argv]
        # each file read checks each of its distinct tables once
        expected = sum(
            len({rec.s for rec in read_records(arg)}) for arg in argv if arg in paths.values()
        )
        calls = []
        real = formats.check_rack
        monkeypatch.setattr(
            formats, "check_rack", lambda n, s: calls.append(s) or real(n, s)
        )
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == expected
