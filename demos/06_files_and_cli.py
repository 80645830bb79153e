"""Result files, external rack libraries, and the command-line interface.

Run as: python3 demos/06_files_and_cli.py
"""

import os
import subprocess
import sys
import tempfile

from glracks import classify_gl, enumerate_racks
from glracks.formats import ingest_rack_library, read_records, write_records

workdir = tempfile.mkdtemp(prefix="glracks-demo-")

# Records are one-per-line, 1-based, and self-describing; the reader
# revalidates every structure, including the stored down map and flags.
records = classify_gl(3, enumerate_racks(3)).records
path = os.path.join(workdir, "order3.txt")
write_records(path, records)
print("wrote", len(records), "records to", path)
print("first line:", open(path).readlines()[1].strip())
assert read_records(path) == records

# External libraries arrive as bracketed tables.  Orientation (whether
# T[x][y] means s_x(y) or s_y(x)) is auto-detected when only one reading
# validates, and must be stated explicitly when both do.
lib = os.path.join(workdir, "library.txt")
with open(lib, "w") as fh:
    fh.write("[[[1, 2, 3], [1, 2, 3], [2, 1, 3]]]")
racks = ingest_rack_library(lib)
print("\ningested", len(racks), "rack(s) from the bracketed library")

# The same operations are available from the shell, as ``glracks`` or
# ``python -m glracks``.  Exit codes: 0 fine, 1 validation failure (or an
# order outside 0..8), 2 needs --long-run, 3 unreadable input.
for args in (
    ["check", path],
    ["count", "-n", "4"],
    ["classify", "-n", "7"],  # refused without --long-run
    ["count", "-n", "9"],  # no such order
):
    proc = subprocess.run(
        [sys.executable, "-m", "glracks", *args], capture_output=True, text=True
    )
    tail = (proc.stdout or proc.stderr).strip().splitlines()[-1]
    print(f"$ glracks {' '.join(args)}\n  -> exit {proc.returncode}: {tail}")
