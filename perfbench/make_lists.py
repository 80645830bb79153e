"""Regenerate the committed canonical rack lists in ``perfbench/data``.

    python3 perfbench/make_lists.py 6 7

Each order is written with ``glracks enumerate-racks -n N --out`` into
``perfbench/data/racks-N.txt``.  Order 6 takes seconds; order 7 takes
about eight minutes and 200 MB on a 2-vCPU machine.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from glracks import cli  # noqa: E402


def main(orders: list[int]) -> int:
    for n in orders:
        path = os.path.join(HERE, "data", f"racks-{n}.txt")
        argv = ["enumerate-racks", "-n", str(n), "--out", path]
        if n > 6:
            argv.append("--long-run")
        code = cli.main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]] or [6, 7]))
