"""One pass over a workload's job list, in the interpreter it starts in.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD SEED TRACE RUN_ID

run.py starts one of these per pass, from the repository root.  The pass
times the import of ``lie_split.cli`` (set-up), then runs the jobs back to
back, then checks their outputs outside the timed region.  With TRACE 1
the tracing wrappers are installed before the jobs run.  The last line of
standard output is the pass's result as JSON.

Speed sampling: the virtual CPUs this benchmark was built on switch between
a fast state and one about half as fast, every few seconds, by load outside
the machine.  So while set-up and every job run, a timer signal every
SAMPLE_EVERY_S times a fixed loop of interpreter work, and each time is
also reported scaled to the reference speed (the loop taking SAMPLE_REF_S):
seconds x SAMPLE_REF_S x mean(1 / loop time).  The loops' own time is
taken out of the job's time first.  The whole job loop is scaled the same
way, from all of the pass's samples, for the pass's own time.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

SCRATCH = Path(__file__).resolve().parent.parent / ".bench_out"
SAMPLE_EVERY_S = 0.01
SAMPLE_LOOP = 2000
SAMPLE_REF_S = 0.00021   # the loop's time on the reference machine, fast state


def _loop() -> None:
    d = {}
    for i in range(SAMPLE_LOOP):
        k = i % 61
        d[k] = d.get(k, 0) + i * i % 7


class SpeedSampler:
    """Times _loop on a timer signal while a measured region runs."""

    def __init__(self):
        self.samples = []          # loop seconds, this region
        self.spent = 0.0           # seconds inside the handler, this region
        self.all_samples = []      # loop seconds, every region
        self.all_spent = 0.0       # seconds inside the handler, every region

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took
        self.all_samples.append(took)
        self.all_spent += took

    def __enter__(self):
        self.samples = []
        self._tick(None, None)     # one sample even for a region shorter
        self.spent = 0.0           # than the period, taken before it starts
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.raw = time.perf_counter() - self._start

    @staticmethod
    def speed(samples) -> float:
        """Mean speed over samples, as a share of the reference speed."""
        return SAMPLE_REF_S * sum(1 / s for s in samples) / len(samples)

    def result(self) -> tuple:
        """(raw seconds, seconds scaled to the reference speed) of the last
        region."""
        return self.raw, (self.raw - self.spent) * self.speed(self.samples)

    def mark(self) -> tuple:
        return time.perf_counter(), len(self.all_samples), self.all_spent

    def since(self, mark) -> tuple:
        """(raw seconds, seconds scaled to the reference speed) from mark to
        now, scaled by the samples of the regions run in between."""
        start, n, spent = mark
        raw = time.perf_counter() - start
        return raw, (raw - self.all_spent + spent) * self.speed(
            self.all_samples[n:])


def main() -> int:
    workload, seed, trace, run_id = sys.argv[1:5]
    sampler = SpeedSampler()
    with sampler:
        import lie_split.cli  # noqa: F401  -- the timed set-up
    setup_raw, setup_s = sampler.result()

    import tracing
    import workloads

    if workload not in workloads.WORKLOADS:
        print(f"unknown workload {workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    jobs = workloads.WORKLOADS[workload](int(seed))
    tracer = None
    if trace == "1":
        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)

    outputs, results = {}, []
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        loop_start = sampler.mark()
        for job in jobs:
            span = tracer.start(f"{job.kind}.{job.name}") if tracer else None
            error = None
            with sampler:
                try:
                    outputs[job.name] = job.run(Path(tmp))
                except Exception as exc:     # a crashing job is a failed job
                    error = f"{type(exc).__name__}: {exc}"
                    traceback.print_exc()
            if tracer:
                tracer.stop(span)
            raw, scaled = sampler.result()
            results.append({"name": job.name, "kind": job.kind,
                            "raw_seconds": raw, "seconds": scaled,
                            "error": error, "problems": [], "known": []})
        pass_raw, pass_s = sampler.since(loop_start)
        # the program's peak, before the checks call the package again
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # snapshot before the checks, which call the package again; span
        # times are scaled to the reference speed by the pass's own factor
        layers = spans = None
        if tracer:
            factor = (sum(r["seconds"] for r in results)
                      / sum(r["raw_seconds"] for r in results))
            layers = {name: (value * factor if unit == "s" else value, unit)
                      for name, (value, unit)
                      in tracing.layer_metrics(tracer).items()}
            spans = tracer.records()

        for job, res in zip(jobs, results):
            if res["error"] is not None:
                continue
            try:
                findings = list(job.check(outputs))
            except Exception as exc:     # a crashing check is a failed check
                traceback.print_exc()
                findings = [f"check raised {type(exc).__name__}: {exc}"]
            for f in findings:
                known = isinstance(f, workloads.KnownDefect)
                res["known" if known else "problems"].append(str(f))

    result = {
        "setup_raw_s": setup_raw,
        "setup_s": setup_s,
        "pass_raw_s": pass_raw,
        "pass_s": pass_s,
        "peak_rss_mib": peak_rss_mib,
        "jobs": results,
        "layers": layers,
        "spans": spans,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
