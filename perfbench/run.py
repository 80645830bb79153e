"""The glracks benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload enumerate-6 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Workloads (see README.md in this
directory): ``enumerate-6``, ``library-7``, ``morphisms-6``.

This script starts one child process at a time (``perfbench/child.py``):
first ``SETUP_RUNS - 1`` children that only set up, then one that sets up
and times passes for ``--seconds``.  Every child's set-up, from process
start to its ready event, is one ``setup_s`` sample.  Times are
corrected for host speed (``hostclock.py``).  With ``--trace 0``
the last line printed is the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it is the per-layer metrics of the traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _child(args, workdir: str, setup_only: bool, deadline: float) -> tuple[dict, dict]:
    """Run one child; returns its set-up seconds, raw and corrected for
    host speed, and its result event."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    spawned = _monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    events = {}
    for line in proc.stdout.decode().splitlines():
        event = json.loads(line)
        events[event["event"]] = event
    if "ready" not in events or (not setup_only and "result" not in events):
        raise BenchError("child ended without reporting")
    ready = events["ready"]
    setup = {
        "raw": (ready["t_ns"] - spawned) / 1e9,
        "corr": (ready["start_ns"] - spawned) / 1e9 * ready["start_factor"]
        + ready["after_start_corr_s"],
    }
    return setup, events.get("result", {})


def end_to_end(result: dict, setup: list[dict]) -> dict[str, float]:
    """The gated metrics.  Times are corrected for host speed
    (``hostclock``); the raw figures are printed beside them."""
    walls = result["walls_corr"]
    return {
        "wall_s": statistics.median(walls),
        # With fewer than eleven passes no percentile has ten samples
        # beyond it, so the upper figure is the slowest pass.
        "wall_s.hi": max(walls),
        "cpu_s": statistics.median(result["cpus_corr"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(s["corr"] for s in setup),
        "ok_ratio": 1.0 - result["failed"] / result["attempted"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "glracks", "__init__.py")):
        print("error: no glracks sources under src/; run from a source checkout", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup = []
        for i in range(SETUP_RUNS - 1):
            seconds, _ = _child(args, os.path.join(workdir, f"setup{i}"), True, deadline)
            setup.append(seconds)
        seconds, result = _child(args, os.path.join(workdir, "run"), False, deadline)
        setup.append(seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    if args.trace:
        values = result["per_layer"]
        values["raw.setup_s"] = statistics.median(s["raw"] for s in setup)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(result, setup)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    walls = result["walls"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(walls)} "
          f"queries={result['queries']} setup_samples={len(setup)}")
    print(("traced " if args.trace else "") + "pass wall_s: " + " ".join(f"{w:.4f}" for w in walls))
    if args.trace:
        print("untraced pass wall_s: " + " ".join(f"{w:.4f}" for w in result["untraced_walls"]))
    print(("untraced " if args.trace else "") + "pass wall_s corrected for host speed: "
          + " ".join(f"{w:.4f}" for w in result["walls_corr"]))
    print("setup_s raw: " + " ".join(f"{s['raw']:.4f}" for s in setup)
          + "  corrected: " + " ".join(f"{s['corr']:.4f}" for s in setup))
    print(f"failed={result['failed']} attempted={result['attempted']} "
          f"fail_ratio={result['failed'] / result['attempted']:.6g} "
          f"failed per pass={result['failed_per_pass']} "
          f"not explained by the known defect={result['unexplained']}")
    for note in result["notes"]:
        print(f"note: {note}")
    if args.trace:
        print(f"spans: {result['trace_file']}")
    for name, value in result["query_ms"].items():
        print(f"{name} = {value:.6g} ms (median over passes)")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not result["problems"] and result["unexplained"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
