"""Baseline of the benchmark on this machine, written to baseline.json.

    python3 perfbench/baseline.py

Run from the repository root; it takes about forty minutes.  For every
workload of BENCHMARK.json it runs run.py once per seed 0..SEEDS-1, SETS
times over, each run in its own process exactly as
BENCHMARK.json describes, and records per end-to-end metric the median and
quartiles of each set, the spread (quartile distance over median) and how
far the medians of the sets differ, against the metric's bound.  It then
runs the traced run of seed 0 twice: the per-layer metrics are recorded,
and every count must repeat exactly between the two.  The machine record
names the hardware and library builds the numbers belong to.  Each run
writes baseline.json afresh.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = 10
SETS = 2


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(SPEC["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']}"
          f" failed={result['failed']}/{result['attempted']}", flush=True)
    return result


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sys.path.insert(0, str(HERE))
    import run
    import worker
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "pinned_threads": {var: "1" for var in run.THREAD_VARS},
        "speed_sampling": {"every_s": worker.SAMPLE_EVERY_S,
                           "reference_loop_s": worker.SAMPLE_REF_S},
    }


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main() -> int:
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    out_path = HERE / "baseline.json"
    report = {"machine": machine(), "run_seconds": SPEC["run_seconds"],
              "workloads": {}}
    for name in (w["name"] for w in SPEC["workloads"]):
        sets = [[run_once(name, seed, 0) for seed in range(SEEDS)]
                for _ in range(SETS)]
        entry = {"seeds": SEEDS, "sets": SETS,
                 "seed0": sets[0][0]["metrics"],
                 "failed": [[r["failed"] for r in s] for s in sets],
                 "correct": all(r["correct"] for s in sets for r in s),
                 "end_to_end": {}}
        for metric, spec in bounds.items():
            per_set = [summary([r["metrics"][metric]["value"] for r in s])
                       for s in sets]
            first = per_set[0]["median"]
            worst = max(s["median"] for s in per_set[1:])
            entry["end_to_end"][metric] = {
                "unit": spec["unit"], "bound": spec["bound"], "sets": per_set,
                "max_spread": max(s["spread"] for s in per_set),
                "median_shift": worst / first - 1,
            }
        traced = [run_once(name, 0, 1) for _ in range(2)]
        layers = traced[0]["metrics"]
        entry["per_layer_seed0"] = layers
        entry["counts_repeat"] = all(
            traced[1]["metrics"][k] == v for k, v in layers.items()
            if v["unit"] not in ("s", "ratio"))
        report["workloads"][name] = entry
        out_path.write_text(json.dumps(report, indent=1) + "\n")
        for metric, e in entry["end_to_end"].items():
            print(f"  {name} {metric}: spread {e['max_spread']:.3f}, "
                  f"median shift {e['median_shift']:+.3f}, bound {e['bound']}")
        print(f"  {name} counts repeat: {entry['counts_repeat']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
