"""The repository benchmark: one command, every metric, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm_http --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the workload untraced and prints its end-to-end
metrics.  ``--trace 1`` runs it twice, untraced and then with every
layer boundary wrapped in spans, and prints the per-layer metrics, the
tracing overhead (``trace.overhead_share``) and the source line counts.
``--recheck-seed N`` repeats the run on a second, unseen seed and
prints that result too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it stamps the run (seeds, commit, interpreter, host).  The exit code is
non-zero when a correctness check failed or the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import srclines  # noqa: E402
from quantiles import median, percentile  # noqa: E402

UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "slo_met_share": "share",
    "error_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: End-to-end metrics on the final line, the ones BENCHMARK.json gates.
#: The stamp line prints all of UNITS.  error_share is 0 on a healthy
#: run (``failed`` carries it); latency_tail_ms follows the host's
#: stalls and, on cold_search_http, which hard games a seed draws, more
#: than any bound allows.  Both are reported, not gated.
GATED = ("throughput_rps", "latency_p50_ms", "slo_met_share", "setup_s",
         "peak_rss_mb")
SETUP_REPS = 3


def end_to_end(spec, run) -> dict[str, float]:
    """Every end-to-end metric; timings are read at the reference speed
    (``hostspeed``)."""
    lat = run.ref_latencies_ms
    return {
        "throughput_rps": run.completed / run.ref_elapsed_s,
        "latency_p50_ms": median(lat),
        "latency_tail_ms": percentile(lat, spec.tail_pct),
        "slo_met_share": run.slo_met / run.attempted,
        "error_share": run.failed / run.attempted,
        "setup_s": median(run.ref_setup_s),
        "peak_rss_mb": run.peak_rss_mb,
    }


def wall_clock(spec, run) -> dict[str, float]:
    """The timings as the wall clock read them, and the host's speed."""
    lat = run.latencies_ms
    return {
        "throughput_rps": run.completed / run.elapsed_s,
        "latency_p50_ms": median(lat),
        "latency_tail_ms": percentile(lat, spec.tail_pct),
        "setup_s": median(run.setup_s),
        "host_speed": run.speed,
    }


def _git(*args) -> str | None:
    """``git <args>`` in this checkout; None outside a git checkout (git
    itself would answer for an enclosing repository)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def stamp(args, seed: int, traced: bool) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    status = _git("status", "--porcelain")
    return {
        "workload": args.workload,
        "seed": seed,
        "recheck_seed": args.recheck_seed,
        "seconds": args.seconds,
        "traced": traced,
        "git_head": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
    }


def measure(args, seed: int) -> dict:
    """One invocation's worth of work on one seed."""
    import workloads

    spec, workload = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    spec = workloads.resolve_spec(spec, args.seconds)

    def context(reps: int):
        return workloads.Context(spec, ROOT, out_dir, seed, args.seconds,
                                 reps)

    runs = []
    if args.trace:
        runs.append(workload(context(1), traced=False))
        runs.append(workload(context(1), traced=True))
    else:
        runs.append(workload(context(SETUP_REPS), traced=False))
    problems = [p for run in runs for p in run.problems]
    main = runs[-1]
    e2e = end_to_end(spec, runs[0])
    if args.trace:
        metrics = dict(main.layers)
        metrics.update(main.loadgen)
        metrics["trace.overhead_share"] = (
            median(main.ref_latencies_ms) / e2e["latency_p50_ms"] - 1.0
        )
        metrics.update(srclines.src_lines(ROOT))
        result_metrics = {name: {"value": value, "unit": _unit(name)}
                          for name, value in sorted(metrics.items())}
    else:
        result_metrics = {name: {"value": e2e[name], "unit": UNITS[name]}
                          for name in GATED}
    info = stamp(args, seed, bool(args.trace))
    info.update({
        "tail_percentile": spec.tail_pct,
        "slo_ms": spec.slo_ms,
        "rate_per_s": spec.rate_per_s,
        "completed": main.completed,
        "end_to_end": {name: {"value": value, "unit": UNITS[name]}
                       for name, value in e2e.items()},
        "wall_clock": wall_clock(spec, runs[0]),
        "loadgen": main.loadgen,
        "notes": main.notes,
        "problems": problems[:20],
    })
    return {
        "stamp": info,
        "result": {
            "correct": not problems,
            "attempted": sum(run.attempted for run in runs),
            "failed": sum(run.failed for run in runs),
            "metrics": result_metrics,
        },
    }


def _unit(name: str) -> str:
    """A per-layer metric's unit, read off the naming conventions of
    ``layers.py``."""
    if name.startswith("src_lines.") or name.endswith(
        ("_calls", ".lookups", ".drains", ".flushes", ".frames",
         "backlog_end")
    ):
        return "count"
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith(".bytes") or name.endswith("bytes_per_consult"):
        return "bytes"
    if name.endswith("_per_consult") or name.endswith("_per_drain"):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True,
                        choices=("warm_http", "cold_small_http",
                                 "cold_search_http", "mixed_open"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--recheck-seed", type=int, default=None,
                        help="also run on this second, unseen seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    seeds = [args.seed]
    if args.recheck_seed is not None:
        seeds.append(args.recheck_seed)
    # The benchmark, the server it starts (which inherits this) and the
    # host-speed kernel share one CPU: a closed loop then never waits for
    # an idle CPU of a shared host to be woken, and the kernel measures
    # the CPU that does the work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    outcomes = [measure(args, seed) for seed in seeds]
    for outcome in outcomes[1:]:
        print(json.dumps({"recheck": outcome}, sort_keys=True))
    print(json.dumps({"stamp": outcomes[0]["stamp"]}, sort_keys=True))
    result = dict(outcomes[0]["result"])
    result["correct"] = all(o["result"]["correct"] for o in outcomes)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
