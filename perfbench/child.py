"""One benchmark process: set up a workload, then time passes over it.

    python3 perfbench/child.py --workload W --seed S --seconds T
        --trace 0|1 --workdir D [--setup-only]

Prints JSON lines on stdout: ``{"event": "ready", ...}`` once set-up is
done (interpreter start, imports, loading and checking the committed rack
lists, generating the seeded inputs), then ``{"event": "result", ...}``.
A ``hostclock.HostClock`` starts before glracks is imported, so set-up
and every untraced pass are timed both raw and corrected for the host's
speed.
``perfbench/run.py`` starts this process and turns the events into
metrics; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostclock  # noqa: E402
import spans as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRACE_DIR = os.path.join(ROOT, ".bench_trace")
SETUP_PASS = -1  # pass id of the traced set-up in the span file


def _emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def _monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _modules() -> dict:
    """Import glracks; short name -> module, for the package and each of
    its modules."""
    import glracks
    import glracks.cli  # noqa: F401  (not imported by the package itself)

    mods = {"glracks": glracks}
    for name, module in list(sys.modules.items()):
        if name.startswith("glracks.") and module is not None:
            mods[name.split(".", 1)[1]] = module
    return mods


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    """The q-quantile by nearest rank (q = 0.99 gives p99)."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_passes(workload, clock, seconds: float, min_passes: int, tracer=None) -> list[dict]:
    """Time passes until the next one would end past ``seconds``.

    Checks and a garbage collection run between passes and count toward
    ``seconds`` but not toward a pass's own time.  Each pass is timed
    raw (``wall_s``, ``cpu_s``) and corrected for host speed
    (``wall_corr``, ``cpu_corr``).  The probe timer is paused during
    traced passes, so that no probe lands inside a span.  A pass's query
    latencies, when the workload has queries, are summarised by their
    p50 and p99, raw and corrected.
    """
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            clock.stop()
        begin = clock.mark()
        if tracer is not None:
            tracer.begin_pass(len(passes))
        output = workload.run_pass()
        if tracer is not None:
            tracer.end_pass()
        times = clock.between(begin, clock.mark())
        if tracer is not None:
            clock.start()
        attempted, failed, unexplained, digest = workload.check(output)
        passes.append({
            "wall_s": times["wall"],
            "cpu_s": times["cpu"],
            "wall_corr": times["wall_corr"],
            "cpu_corr": times["cpu_corr"],
            "attempted": attempted,
            "failed": failed,
            "unexplained": unexplained,
            "digest": digest,
        })
        if workload.latencies_ms:
            raw = sorted(workload.latencies_ms)
            corrected = sorted(workload.latencies_corr_ms)
            passes[-1].update(
                queries=len(raw),
                p50_ms=_nearest_rank(corrected, 0.50),
                p99_ms=_nearest_rank(corrected, 0.99),
                raw_p50_ms=_nearest_rank(raw, 0.50),
                raw_p99_ms=_nearest_rank(raw, 0.99),
            )
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _query_ms(passes: list[dict]) -> dict[str, float]:
    """``query_ms.p50`` and ``.p99`` (corrected for host speed) and their
    ``raw.`` twins: the median over passes of each pass's figure; empty
    for a workload without queries."""
    if "p50_ms" not in passes[0]:
        return {}
    return {
        f"{prefix}query_ms.{q}": statistics.median(p[f"{prefix.replace('.', '_')}{q}_ms"] for p in passes)
        for prefix in ("", "raw.")
        for q in ("p50", "p99")
    }


def _additivity_problems(summary: dict, label: str) -> list[str]:
    total = sum(v for k, v in summary.items() if k.endswith(".s"))
    if abs(total - summary["pass.wall_s"]) > 1e-6:
        return [f"{label}: self times sum to {total}, pass took {summary['pass.wall_s']}"]
    return []


def _per_layer(tracer: tracing.Tracer, n_passes: int) -> tuple[dict, list[str]]:
    """Per-layer figures of the traced pass with the median wall time,
    plus the traced set-up under ``setup.*``."""
    problems = []
    summaries = [tracing.pass_summary(tracer, i) for i in range(n_passes)]
    for i, summary in enumerate(summaries):
        problems += _additivity_problems(summary, f"traced pass {i}")
    median_id = sorted(range(n_passes), key=lambda i: summaries[i]["pass.wall_s"])[(n_passes - 1) // 2]
    chosen = summaries[median_id]
    dedupe_in = chosen.get("classify.dedupe.in", 0)
    chosen["classify.dedupe.yield"] = chosen.get("classify.dedupe.out", 0) / dedupe_in if dedupe_in else 0.0
    chosen["trace.spans"] = sum(1 for s in tracer.spans if s[0] == median_id)
    setup = tracing.pass_summary(tracer, SETUP_PASS)
    problems += _additivity_problems(setup, "traced set-up")
    for key, value in setup.items():
        chosen["setup." + key.removeprefix("pass.")] = value
    return chosen, problems


def main() -> int:
    start_ns = _monotonic_ns()
    clock = hostclock.HostClock()
    clock.start()
    first = clock.mark()

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    mods = _modules()
    workload = WORKLOADS[args.workload](mods, args.seed, args.workdir)
    workload.clock = clock
    ready = clock.mark()
    ready_ns = _monotonic_ns()
    # Set-up as run.py sees it: from spawn to the ready event.  The part
    # before the first probe (interpreter start) is corrected by the
    # first probes' factor, the rest stretch by stretch.
    _emit({
        "event": "ready",
        "t_ns": ready_ns,
        "start_ns": start_ns,
        "start_factor": clock.factor(first),
        "after_start_corr_s": clock.between(first, ready)["wall_corr"],
    })
    if args.setup_only:
        clock.stop()
        return 0

    problems: list[str] = []
    result: dict = {"event": "result"}
    plain: list[dict] = []
    if not args.trace:
        passes = run_passes(workload, clock, args.seconds, min_passes=3)
    else:
        if not tracing.check_self_times():
            problems.append("self times on the hand-built span tree are wrong")
        plain = run_passes(workload, clock, args.seconds / 2, min_passes=1)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer, mods)
        try:
            passes = run_passes(workload, clock, args.seconds / 2, min_passes=1, tracer=tracer)
            # Set-up again, traced, to show what setup_s is made of
            # (all but interpreter start and imports).
            clock.stop()
            tracer.begin_pass(SETUP_PASS)
            WORKLOADS[args.workload](mods, args.seed, os.path.join(args.workdir, "traced-setup"))
            tracer.end_pass()
            clock.start()
        finally:
            tracing.uninstall(undo)
        per_layer, sum_problems = _per_layer(tracer, len(passes))
        problems += sum_problems
        # Both corrected; a traced pass only by the probes at its ends.
        per_layer["trace.overhead_s"] = (
            statistics.median(p["wall_corr"] for p in passes)
            - statistics.median(p["wall_corr"] for p in plain)
        )
        # Raw figures of the untraced passes, beside the corrected ones
        # that are gated.
        per_layer["raw.wall_s"] = statistics.median(p["wall_s"] for p in plain)
        per_layer["raw.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
        # Query latencies from the untraced passes, free of tracing cost.
        per_layer.update(_query_ms(plain))
        digests = {p["digest"] for p in plain + passes}
        if len(digests) != 1:
            problems.append(f"traced and untraced passes produced {len(digests)} different outputs")
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.tsv.gz")
        tracer.write(trace_path)
        result["per_layer"] = per_layer
        result["trace_file"] = os.path.relpath(trace_path, ROOT)
        result["untraced_walls"] = [p["wall_s"] for p in plain]

    clock.stop()
    if clock.bad_probes:
        problems.append(f"{clock.bad_probes} host-speed probes gave a wrong result")
    result.update(
        walls=[p["wall_s"] for p in passes],
        cpus=[p["cpu_s"] for p in passes],
        walls_corr=[p["wall_corr"] for p in plain or passes],
        cpus_corr=[p["cpu_corr"] for p in plain or passes],
        probes=len(clock.samples),
        attempted=sum(p["attempted"] for p in plain + passes),
        failed=sum(p["failed"] for p in plain + passes),
        failed_per_pass=[p["failed"] for p in plain + passes],
        unexplained=sum(p["unexplained"] for p in plain + passes),
        queries=sum(p.get("queries", 0) for p in passes),
        query_ms=_query_ms(plain if args.trace else passes),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        problems=problems,
        notes=workload.notes(),
    )
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
