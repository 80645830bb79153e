"""The benchmark workloads: seeded inputs, one timed pass, checks.

Each workload is built once per process (its set-up), then runs passes.
A pass calls only public entry points of glracks, always through the
module attribute, so that the traced run's wrappers see every call.
Checks run after a pass, outside its timing, and count each operation
whose output is wrong as failed.  A failure is *explained* when it is
what the known ``morphisms._extend_ok`` defect produces on these inputs
(see README.md); any other failure makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

with open(os.path.join(DATA, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


class SetupError(RuntimeError):
    """The committed data or the generated inputs failed a check."""


def _sha256(path: str) -> str:
    return hashlib.sha256(_read_bytes(path)).hexdigest()


def _read_bytes(path: str) -> bytes:
    """A file's bytes, or none when the program did not write it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def _count_line(n: int) -> str:
    g, g_m, g_q, g_qm, r, r_m, r_q, r_qm = EXPECTED["counts"][str(n)]
    return (
        f"n={n} g={g} g_m={g_m} g_q={g_q} g_qm={g_qm} "
        f"r={r} r_m={r_m} r_q={r_q} r_qm={r_qm}"
    )


def load_rack_list(mods: dict, n: int) -> list:
    """Read ``data/racks-n.txt`` and check it before anything is timed.

    Every table passes ``check_rack`` (``read_records`` validates each
    record), the indices run 0..r-1, and r, r_m, r_q, r_qm equal the
    golden row.
    """
    path = os.path.join(DATA, f"racks-{n}.txt")
    if _sha256(path) != EXPECTED["sha256"][f"racks-{n}.txt"]:
        raise SetupError(f"{path}: digest differs from data/expected.json")
    records = mods["formats"].read_records(path)
    if [rec.rack_index for rec in records] != list(range(len(records))):
        raise SetupError(f"{path}: rack indices are not 0..{len(records) - 1}")
    racks_mod = mods["racks"]
    rack_list = [rec.rack() for rec in records]
    quandle = [racks_mod.is_quandle(r) for r in rack_list]
    medial = [racks_mod.is_medial(r) for r in rack_list]
    got = [len(rack_list), sum(medial), sum(quandle), sum(q and m for q, m in zip(quandle, medial))]
    if got != EXPECTED["counts"][str(n)][4:]:
        raise SetupError(f"{path}: r, r_m, r_q, r_qm = {got}, expected {EXPECTED['counts'][str(n)][4:]}")
    return rack_list


def _random_perm(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    p = list(range(n))
    rng.shuffle(p)
    pinv = [0] * n
    for i, j in enumerate(p):
        pinv[j] = i
    return p, pinv


def _relabel_rows(rows, p, pinv) -> list[list[int]]:
    """New rows of the rack relabeled by p: s'_{p(x)} = p s_x p^-1."""
    n = len(rows)
    return [[p[rows[pinv[x]][pinv[y]]] for y in range(n)] for x in range(n)]


def _call_cli(mods: dict, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mods["cli"].main(argv)
    return code, buf.getvalue()


def defect_map(source, target, phi) -> bool:
    """Whether ``phi`` is a non-hom that only the known defect lets through.

    The searches assign points in index order, and ``_extend_ok`` checks
    the constraint ``phi(s_x(y)) == t_phi(x)(phi(y))`` only when
    ``s_x(y) <= max(x, y)``.  Such a ``phi`` keeps every constraint that
    is checked and breaks one that is skipped.
    """
    s_rows, t_rows = source.tables(), target.tables()
    skipped_broken = False
    for x, sx in enumerate(s_rows):
        tx = t_rows[phi[x]]
        for y, z in enumerate(sx):
            if phi[z] != tx[phi[y]]:
                if z <= max(x, y):
                    return False
                skipped_broken = True
    return skipped_broken


class Workload:
    """Base: ``run_pass`` returns an opaque output, ``check`` grades it.

    ``check`` returns ``(attempted, failed, unexplained, digest)``:
    ``unexplained`` counts the failed operations that the known defect
    does not account for (see the module docstring); ``digest`` hashes
    everything the program produced, so traced and untraced passes can be
    compared byte for byte.  ``latencies_ms`` and ``latencies_corr_ms``
    list the pass's per-query latencies, raw and corrected for host
    speed, when the workload has queries finer than a pass.  ``clock`` is
    the process's ``hostclock.HostClock``, set before the first pass.
    """

    def __init__(self, mods: dict, seed: int, workdir: str):
        self.mods = mods
        os.makedirs(workdir, exist_ok=True)
        self.racks6 = load_rack_list(mods, 6)
        self.racks7 = load_rack_list(mods, 7)
        self.latencies_ms: list[float] = []
        self.latencies_corr_ms: list[float] = []
        self.clock = None

    def run_pass(self) -> Any:
        raise NotImplementedError

    def check(self, output: Any) -> tuple[int, int, int, str]:
        raise NotImplementedError

    def notes(self) -> list[str]:
        """Lines for people about this seed's inputs."""
        return []


class Enumerate6(Workload):
    """``classify -n 6 --out f`` from an empty state; the seed is unused."""

    def __init__(self, mods, seed, workdir):
        super().__init__(mods, seed, workdir)
        self.out = os.path.join(workdir, "classify-6.txt")

    def run_pass(self):
        if os.path.exists(self.out):
            os.remove(self.out)
        return _call_cli(self.mods, ["classify", "-n", "6", "--out", self.out])

    def check(self, output):
        code, stdout = output
        data = _read_bytes(self.out)
        ok = (
            code == 0
            and stdout.strip() == _count_line(6)
            and hashlib.sha256(data).hexdigest() == EXPECTED["sha256"]["classify-6.txt"]
        )
        # No order-6 rack meets the defect, so every failure is unexplained.
        failed = 0 if ok else 1
        return 1, failed, failed, hashlib.sha256(stdout.encode() + data).hexdigest()


def _counts_from_records(data: bytes) -> list[int]:
    """The eight counts of a classify output file, read from its flags."""
    g = g_m = g_q = g_qm = 0
    rack_flags: dict[str, tuple[bool, bool]] = {}
    for line in data.decode().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        fields = dict(tok.split("=", 1) for tok in line.split())
        q, m = fields["quandle"] == "1", fields["medial"] == "1"
        g += 1
        g_m += m
        g_q += q
        g_qm += q and m
        rack_flags[fields["rack"]] = (q, m)
    flags = list(rack_flags.values())
    return [
        g, g_m, g_q, g_qm,
        len(flags),
        sum(m for _q, m in flags),
        sum(q for q, _m in flags),
        sum(q and m for q, m in flags),
    ]


class Library7(Workload):
    """Classify a seeded, relabeled and shuffled library of all order-7
    racks, then ``check`` the result file."""

    def __init__(self, mods, seed, workdir):
        super().__init__(mods, seed, workdir)
        rng = random.Random(seed)
        tables = []
        for rack in self.racks7:
            p, pinv = _random_perm(rng, 7)
            tables.append(_relabel_rows(rack.tables(), p, pinv))
        rng.shuffle(tables)
        self.library = os.path.join(workdir, "library-7.txt")
        with open(self.library, "w", encoding="utf-8") as fh:
            fh.write("[\n")
            fh.write(",\n".join(
                "[" + ",".join("[" + ",".join(str(v + 1) for v in row) + "]" for row in t) + "]"
                for t in tables
            ))
            fh.write("\n]\n")
        self.out = os.path.join(workdir, "classify-7.txt")
        self._expect_under_defect([mods["racks"].check_rack(7, t) for t in tables])

    def _expect_under_defect(self, library: list) -> None:
        """Work out what the known defect does to this seed's output.

        ``aut_group`` may return extra maps that are not automorphisms
        (``defect_map``); it never drops a real one.  On each library
        rack where it does, the classes are counted twice: with the group
        as returned, as the program counts them, and with the extra maps
        removed, which is the true group.  The golden row shifted by the
        differences is the output the defect explains, and only records
        of these racks may fail ``check``.
        """
        morphisms, classify = self.mods["morphisms"], self.mods["classify"]
        racks_mod, perm = self.mods["racks"], self.mods["perm"]
        self.affected: set[int] = set()
        self.extra_maps = 0
        counts = list(EXPECTED["counts"]["7"])
        for index, rack in enumerate(library):
            aut = morphisms.aut_group(rack)
            true = [e for e in aut.elements if morphisms.is_rack_hom(rack, rack, e.images)]
            extra = [e for e in aut.elements if e not in true]
            if not extra or not all(defect_map(rack, rack, e.images) for e in extra):
                # Maps the defect cannot produce are left unexplained.
                continue
            self.affected.add(index)
            self.extra_maps += len(extra)
            true_group = perm.SmallGroup(rack.n, tuple(true), tuple(sorted(true)))
            shift = len(classify.gl_classes(rack, aut)) - len(classify.gl_classes(rack, true_group))
            q, m = racks_mod.is_quandle(rack), racks_mod.is_medial(rack)
            for k, counted in enumerate((True, m, q, q and m)):
                counts[k] += shift if counted else 0
        self.expected_counts = counts

    def notes(self):
        return [
            f"aut_group returns {self.extra_maps} non-automorphisms on "
            f"{len(self.affected)} library racks; counts the defect explains: "
            + " ".join(map(str, self.expected_counts))
        ]

    def run_pass(self):
        if os.path.exists(self.out):
            os.remove(self.out)
        classify = _call_cli(self.mods, [
            "classify", "--source", self.library, "-n", "7", "--long-run", "--out", self.out,
        ])
        check = _call_cli(self.mods, ["check", self.out])
        return classify, check

    def check(self, output):
        """Operations: the classify exit code and line, each of the eight
        counts, each record that ``check`` reports on, and the ``check``
        exit code and summary line.

        ``failed`` grades them against the golden row.  The failures are
        explained when the output is exactly the one the defect gives
        (``_expect_under_defect``).
        """
        (c_code, c_out), (k_code, k_out) = output
        data = _read_bytes(self.out)
        got = _counts_from_records(data)
        k_lines = k_out.splitlines()
        ok_lines = sum(1 for line in k_lines if line.endswith(": ok"))
        invalid = _invalid_racks(k_lines, data)

        golden = EXPECTED["counts"]["7"]
        g = golden[0]
        attempted = 1 + len(golden) + g + 1
        failed = int(c_code != 0 or c_out.strip() != f"n=7 records={g}")
        failed += sum(a != b for a, b in zip(got, golden))
        failed += max(0, g - ok_lines)
        failed += int(k_code != 0 or not k_lines or k_lines[-1] != f"{g}/{g} structures valid")

        g_defect = self.expected_counts[0]
        explained = (
            c_code == 0
            and c_out.strip() == f"n=7 records={g_defect}"
            and got == self.expected_counts
            and set(invalid) <= self.affected
            and ok_lines + len(invalid) == g_defect
            and bool(k_lines) and k_lines[-1] == f"{ok_lines}/{g_defect} structures valid"
            and k_code == (self.mods["cli"].EXIT_INVALID if invalid else 0)
        )
        unexplained = 0 if explained else failed
        digest = hashlib.sha256(c_out.encode() + k_out.encode() + data).hexdigest()
        return attempted, failed, unexplained, digest


def _invalid_racks(check_lines: list[str], data: bytes) -> list[int]:
    """The rack index of each record that ``check`` called INVALID, read
    from the record's line in the checked file (-1 when it has none)."""
    records = data.decode().splitlines()
    racks = []
    for line in check_lines:
        head, sep, _reason = line.partition(": INVALID: ")
        if not sep:
            continue
        lineno = int(head.rsplit(":", 1)[1])
        fields = dict(t.split("=", 1) for t in records[lineno - 1].split() if "=" in t)
        racks.append(int(fields.get("rack", -1)))
    return racks


class MorphismQueries:
    """Seeded isomorphism, GL-isomorphism, hom-set and hom-rack queries.

    - ``find_iso`` of each order-6 rack against a relabeled copy (found),
      and against every other rack with an equal profile (``None``);
    - ``find_gl_iso`` of each GL-class representative against its
      relabeled copy (found), and against the next class on the same rack,
      cyclically (``None``);
    - ``enumerate_homs`` over all ordered pairs of order-4 racks;
    - ``hom_rack`` from each order-3 rack to each medial order-4 rack.
    The seed picks the relabelings and the query order.
    """

    def __init__(self, mods, racks6, seed):
        self.mods = mods
        racks_mod, classify, glrack = mods["racks"], mods["classify"], mods["glrack"]
        perm = mods["perm"]
        rng = random.Random(seed)
        queries: list[tuple] = []
        profiles = [racks_mod.profile(r) for r in racks6]
        for i, rack in enumerate(racks6):
            p, pinv = _random_perm(rng, 6)
            copy = racks_mod.check_rack(6, _relabel_rows(rack.tables(), p, pinv))
            queries.append(("find_iso", rack, copy, True))
            for j, other in enumerate(racks6):
                if j != i and profiles[j] == profiles[i]:
                    queries.append(("find_iso", rack, other, False))
            reps = [u for u, _size in classify.gl_classes(rack)]
            for k, u in enumerate(reps):
                gl = glrack.check_gl(rack, u)
                u_copy = perm.Permutation([p[u.images[pinv[x]]] for x in range(6)])
                queries.append(("find_gl_iso", gl, glrack.check_gl(copy, u_copy), True))
                if len(reps) > 1:
                    nxt = glrack.check_gl(rack, reps[(k + 1) % len(reps)])
                    queries.append(("find_gl_iso", gl, nxt, False))
        racks3 = classify.enumerate_racks(3)
        racks4 = classify.enumerate_racks(4)
        for a in racks4:
            for b in racks4:
                queries.append(("enumerate_homs", a, b, None))
        for a in racks3:
            for b in racks4:
                if racks_mod.is_medial(b):
                    queries.append(("hom_rack", a, b, None))
        rng.shuffle(queries)
        self.queries = queries
        self._brute: dict[tuple[int, int], list] = {}
        self.latencies_ms: list[float] = []

    def run(self, host) -> list:
        """Every query once.  Each one's latency, less the time of any
        host-speed probe taken during it, goes to ``latencies_ms``, and
        the same corrected for host speed to ``latencies_corr_ms``."""
        m = self.mods["morphisms"]
        clock = time.perf_counter_ns
        results = []
        latencies = self.latencies_ms = []
        corrected = self.latencies_corr_ms = []
        for name, a, b, _expect in self.queries:
            call = getattr(m, name)  # looked up per query, so wrappers apply
            t0 = clock()
            p0 = host.probe_ns
            result = call(a, b)
            p1 = host.probe_ns
            latency = (clock() - t0 - (p1 - p0)) / 1e6
            latencies.append(latency)
            corrected.append(latency * host.current_factor())
            results.append(result)
        return results

    def _brute_homs(self, a, b) -> list:
        key = (id(a), id(b))
        if key not in self._brute:
            self._brute[key] = sorted(
                self.mods["morphisms"].enumerate_homs(a, b, brute_force=True)
            )
        return self._brute[key]

    def _grade(self, query, result) -> str:
        """``ok``, ``defect`` or ``wrong``.

        The known defect only lets the search accept maps it should have
        pruned (``defect_map``); it never loses a valid one.  So a failure
        is ``defect`` when the answer errs only by such maps: a bijection
        that is one, or a hom set that holds every true hom plus some of
        them.  Anything else is ``wrong``.
        """
        name, a, b, expect = query
        m = self.mods["morphisms"]
        if name in ("find_iso", "find_gl_iso"):
            if result is None:
                return "wrong" if expect else "ok"
            if sorted(result.images) != list(range(a.n)):
                return "wrong"
            racks = (a, b) if name == "find_iso" else (a.rack, b.rack)
            if not m.is_rack_hom(*racks, result.images):
                return "defect" if defect_map(*racks, result.images) else "wrong"
            if name == "find_gl_iso" and not m.is_gl_hom(a, b, result.images):
                return "wrong"
            return "ok" if expect else "wrong"
        if name == "enumerate_homs":
            maps = result
        else:
            rack, maps = result
            if rack.n != len(maps):
                return "wrong"
        brute = self._brute_homs(a, b)
        if len(set(maps)) != len(maps):
            return "wrong"
        if sorted(maps) == brute:
            return "ok"
        extra = set(maps) - set(brute)
        if set(brute) <= set(maps) and all(defect_map(a, b, phi) for phi in extra):
            return "defect"
        return "wrong"

    def check(self, output) -> tuple[int, int, int, bytes]:
        """``(attempted, failed, unexplained, digest)``; one operation per query."""
        grades = [self._grade(q, r) for q, r in zip(self.queries, output)]
        digest = hashlib.sha256()
        for result in output:
            if isinstance(result, tuple):  # hom_rack: (rack, carrier)
                result = (result[0].tables(), result[1])
            elif result is not None and hasattr(result, "images"):
                result = result.images
            digest.update(repr(result).encode())
        failed = len(grades) - grades.count("ok")
        return len(self.queries), failed, grades.count("wrong"), digest.digest()


class Morphisms6(Workload):
    """The seeded morphism queries (``MorphismQueries``) on the order-6
    rack list; never enters ``classify``'s search."""

    def __init__(self, mods, seed, workdir):
        super().__init__(mods, seed, workdir)
        self.queries = MorphismQueries(mods, self.racks6, seed)

    def run_pass(self):
        results = self.queries.run(self.clock)
        self.latencies_ms = self.queries.latencies_ms
        self.latencies_corr_ms = self.queries.latencies_corr_ms
        return results

    def check(self, output):
        attempted, failed, unexplained, digest = self.queries.check(output)
        return attempted, failed, unexplained, digest.hex()


WORKLOADS = {
    "enumerate-6": Enumerate6,
    "library-7": Library7,
    "morphisms-6": Morphisms6,
}
