"""Benchmark of lie-split: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout; the package is imported from
its ``src/``.  The load is one client in a closed loop: passes over the
workload's job list run back to back, each in a fresh interpreter with
BLAS/OpenMP pinned to one thread, so every pass pays the import and memo
costs a command-line user pays.  Passes start until S seconds have gone,
at least MIN_PASSES of them.

With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
alternates plain and traced passes and carries the per-layer metrics, the
import-time split from ``python -X importtime`` and the tracing overhead.
A traced run also checks that every hardware-independent count repeats
exactly between its traced passes, and writes all spans once, at the end,
to .bench_out/trace-WORKLOAD-seedN.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A job fails when it raises or when its
output fails its check; a known, documented defect is reported above that
line and does not fail the job.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SCRATCH = ROOT / ".bench_out"
MIN_PASSES = 2
PASS_TIMEOUT_S = 150
IMPORTTIME_RUNS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PACKAGES = ("numpy", "scipy", "mpmath", "lie_split")
# jobs that run lie-split commands, reported per command by a traced run
CLI_JOBS = ("terms", "expand", "structconst", "fig2", "fig3", "eval", "scan")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_pass(workload: str, seed: int, trace: bool, run_id: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         "1" if trace else "0", run_id],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {run_id} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def import_split() -> dict:
    """Seconds of import self time per package (median of runs), from
    python -X importtime."""
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import lie_split.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S, check=True)
        own = defaultdict(int)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            us, _, name = line[len("import time:"):].split("|")
            own[name.strip().split(".")[0]] += int(us)
        for pkg in IMPORT_PACKAGES:
            samples[pkg].append(own[pkg] / 1e6)
    return {f"import.{pkg}_s": statistics.median(samples[pkg])
            for pkg in IMPORT_PACKAGES}


def job_medians(passes, key="seconds") -> dict:
    """{job name: (kind, median over passes of its seconds)}."""
    names = [(j["name"], j["kind"]) for j in passes[0]["jobs"]]
    return {name: (kind, statistics.median(
                j[key] for p in passes for j in p["jobs"] if j["name"] == name))
            for name, kind in names}


def kind_seconds(passes, kind) -> float:
    """The part of a pass spent in jobs of one kind: the sum of those
    jobs' median times."""
    return sum(secs for k, secs in job_medians(passes).values() if k == kind)


def wall_seconds(passes) -> float:
    """One pass over the job list, timed as a whole: median over passes."""
    return statistics.median(p["pass_s"] for p in passes)


def end_to_end(passes) -> dict:
    return {
        "wall_s": (wall_seconds(passes), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "peak_rss_mib": (max(p["peak_rss_mib"] for p in passes), "MiB"),
        "cli_s": (kind_seconds(passes, "cli"), "s"),
        "lib_s": (kind_seconds(passes, "lib"), "s"),
    }


def per_layer(plain, traced) -> dict:
    metrics = {name: (v, "s") for name, v in import_split().items()}
    jobs = job_medians(plain)
    for name in CLI_JOBS:
        metrics[f"cli.{name}_s"] = (jobs[name][1] if name in jobs else 0.0, "s")
    for name, (value, unit) in traced[0]["layers"].items():
        if unit == "s":
            value = statistics.median(t["layers"][name][0] for t in traced)
        metrics[name] = (value, unit)
    overhead = wall_seconds(traced) / wall_seconds(plain) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def unstable_counts(traced) -> list:
    """Hardware-independent metrics (all but times) that differ between
    traced passes of one seed."""
    first = traced[0]["layers"]
    return sorted(k for k, (_, unit) in first.items() if unit != "s"
                  and any(t["layers"][k] != first[k] for t in traced[1:]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lie_split" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'lie_split'};"
              " run it from a lie-split checkout", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)

    # plain passes; a traced run puts two traced passes after the first
    # plain one, then alternates
    plan = [False, True, True] if args.trace else [False] * MIN_PASSES
    plain, traced = [], []
    started = time.monotonic()
    try:
        i = 0
        while i < len(plan) or time.monotonic() - started < args.seconds:
            trace = plan[i] if i < len(plan) else bool(args.trace) and i % 2 == 0
            run_id = f"{args.workload}-seed{args.seed}-pass{i}"
            (traced if trace else plain).append(
                run_pass(args.workload, args.seed, trace, run_id))
            i += 1
        passes = plain + traced
        metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    except (BenchError, subprocess.TimeoutExpired,
            subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = []
    attempted = failed = 0
    for p in passes:
        for j in p["jobs"]:
            attempted += 1
            if j["error"] or j["problems"]:
                failed += 1
            problems += [f"{j['name']}: {m}" for m in
                         ([j["error"]] if j["error"] else []) + j["problems"]]
    known = sorted({f"{j['name']}: {m}" for p in passes for j in p["jobs"]
                    for m in j["known"]})

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} plain "
          f"and {len(traced)} traced passes")
    raw = job_medians(plain, "raw_seconds")
    for name, (kind, secs) in job_medians(plain).items():
        print(f"  {kind} {name:<12} median {secs:.4f} s at reference speed, "
              f"{raw[name][1]:.4f} s measured")
    print(f"  pass         median {wall_seconds(plain):.4f} s at reference "
          f"speed, {statistics.median(p['pass_raw_s'] for p in plain):.4f} s "
          "measured")
    for line in known:
        print(f"known defect: {line}")
    for line in problems[:20]:
        print(f"FAILED {line}")

    if args.trace:
        drift = unstable_counts(traced)
        if drift:
            print(f"FAILED counts differ between traced passes: {', '.join(drift)}")
        spans = [s for t in traced for s in t["spans"]]
        out = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps(spans))
        print(f"spans: {out.relative_to(ROOT)} ({len(spans)} spans)")
    else:
        drift = []
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")

    print(json.dumps({
        "correct": not problems and not drift,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
