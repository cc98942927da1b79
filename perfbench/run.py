"""Benchmark of the polyfunctor package: four seeded workloads, one process each.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rank1 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

The package is imported from `src/` next to this directory; nothing needs to
be installed.  A run is a closed loop: one caller, one thread, and the next
job starts when the previous one has returned and been checked.  `--seconds`
sizes the job list: the run executes the most whole cycles of the workload's
job mix that fit in that time at the reference speed (see below), so every
run of a workload times the same jobs and later commits are compared on equal
work.

The machine this was written on is a shared VM whose speed flips by up to 2x,
alike for all code it runs, from one fraction of a second to the
next.  So a short fixed calibration loop (`calibrate`) runs before and after
every job and, from a timer signal, every SAMPLE_PERIOD_S inside it; the time
the loop takes inside a job is taken off the job's time.  Each job's time is
reported at the reference speed: multiplied by CALIBRATION_REF_S over the mean
of its calibrations.  A change to the program moves the job times and not the
calibration, so it shows in full; a change of the machine's speed moves both
and cancels.  The wall-clock figures are printed too.

With `--trace 0` the run prints the end-to-end metrics of the named workload.
With `--trace 1` it makes the traced pass instead: a fixed subset of one
cycle of every workload, run untraced and then with every package function
wrapped (see spans.py); it prints the per-layer metrics, summed over the
workloads and listed per workload, the number of traced jobs and the tracing
overhead.  The traced pass does the same jobs whatever `--seconds` says, so
its counts compare across commits.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("rank1", "groebner", "functors", "hasse")
SETUP_SAMPLES = 5  # set-ups per run; setup_s is their median
TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail percentile
CALIBRATION_ROUNDS = 5000
# One calibration at the reference speed: about the median speed of the
# 2-vCPU VM the benchmark was written on, so job times read close to its wall
# clock.
CALIBRATION_REF_S = 0.0012
SAMPLE_PERIOD_S = 0.02  # calibrations inside a job, one per period
_CALIBRATION_KEYS = tuple((i, i * 7 % 13) for i in range(256))

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _check_sources():
    if not (SRC / "polyfunctor" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'polyfunctor'} not found; run from a checkout with its sources")


def _import_package():
    """Import polyfunctor from this checkout's src/, refusing any other copy."""
    _check_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("polyfunctor")
    if Path(package.__file__).resolve().parent != SRC / "polyfunctor":
        sys.exit(f"error: polyfunctor imported from {package.__file__}, not from {SRC}")
    return package


def calibrate() -> float:
    """Seconds taken by a fixed loop of dict and int work, the kind of work the
    package does.  Apart from one dict it allocates no container, so a gc
    pause hardly ever falls in it."""
    table = {}
    start = perf_counter()
    for k in range(CALIBRATION_ROUNDS):
        key = _CALIBRATION_KEYS[k & 255]
        table[key] = table.get(key, 0) + k * k % 1009
    return perf_counter() - start


class SpeedLog:
    """Calibrations around and inside timed intervals, and each interval's
    time at the reference speed."""

    def __init__(self):
        self.took = []  # every calibration's duration
        self.scaled = []  # each interval's time at the reference speed
        self._current = []

    def _sample(self, signum, frame):
        self._current.append(calibrate())

    def start(self):
        """Calibrate, then start sampling inside the interval that follows."""
        self._current = [calibrate()]
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self, elapsed: float) -> float:
        """End the interval, which took `elapsed` seconds of wall clock with
        the calibrations inside it; returns its wall clock without them."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        elapsed -= sum(self._current[1:])
        self._current.append(calibrate())
        self.took += self._current
        self.scaled.append(elapsed * CALIBRATION_REF_S / statistics.mean(self._current))
        return elapsed


def setup(workload: str, seed: int, seconds: float):
    """Import the package and generate the job list, SETUP_SAMPLES times.

    Before each set-up the package's modules are dropped from sys.modules, so
    every import runs the package's module code again.  Returns the workload
    and jobs of the last set-up, the cycle count, and every set-up's duration
    in wall-clock seconds and at the reference speed."""
    import workloads
    cycles = workloads.cycles_for(workload, seconds)
    speed = SpeedLog()
    wall = []
    for _ in range(SETUP_SAMPLES):
        w = jobs = None
        for name in [m for m in sys.modules if m == "polyfunctor" or m.startswith("polyfunctor.")]:
            del sys.modules[name]
        gc.collect()
        speed.start()
        start = perf_counter()
        try:
            _import_package()
            w, jobs = workloads.make_jobs(workload, seed, cycles)
        finally:
            wall.append(speed.stop(perf_counter() - start))
    return w, jobs, cycles, (wall, speed.scaled)


def run_jobs(w, jobs, tracer=None, speed=None):
    """Run the jobs one after another; returns (job, seconds, error) records.

    With a SpeedLog, the log calibrates around and inside each job, the
    seconds leave out the calibrations inside, and `speed.scaled` gets each
    job's time at the reference speed."""
    records = []
    for job in jobs:
        if speed is not None:
            speed.start()
        if tracer is not None:
            tracer.start_job(job.index)
        start = perf_counter()
        try:
            result, error = w.run(job.inputs), None
        except Exception as exc:
            result, error = None, exc
        elapsed = perf_counter() - start
        if speed is not None:
            elapsed = speed.stop(elapsed)
        if error is not None:
            error = traceback.format_exception_only(type(error), error)[-1].strip()
        if tracer is not None:
            tracer.end_job()
        if error is None:
            try:
                error = w.check(job, result)
            except Exception:
                error = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        records.append((job, elapsed, error))
    return records


def jobs_per_s(records, times=None) -> float:
    """Correct jobs over the summed job time; `times` replaces the records' own."""
    correct = sum(1 for _, _, error in records if error is None)
    return correct / sum(times if times is not None else [t for _, t, _ in records])


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def end_to_end(records, setup_times, speed=None):
    """The end-to-end metrics and the lines that show them.

    `setup_times` is the (wall-clock, reference-speed) pair of set-up
    durations from `setup`.  With the SpeedLog the jobs ran with, the metrics
    are at the reference speed and the lines show the wall-clock figures too."""
    wall = [t for _, t, _ in records]
    times = speed.scaled if speed is not None else wall

    def figures(ts, setups):
        return {"jobs_per_s": jobs_per_s(records, ts), "job_s_p50": statistics.median(ts),
                "job_s_tail": tail(ts)[0], "setup_s": statistics.median(setups)}

    metrics = figures(times, setup_times[1])
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    clock = figures(wall, setup_times[0])
    failed = sum(1 for _, _, error in records if error is not None)
    notes = {name: f"wall clock {value:.6g}" for name, value in clock.items()}
    notes["job_s_tail"] += f", p{tail(times)[1]:.1f} of {len(times)} jobs"
    notes["setup_s"] += f", median of {len(setup_times[1])}"
    lines = [f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}  {notes.get(name, '')}".rstrip()
             for name, value in metrics.items()]
    lines.insert(3, f"  {'fail_ratio':<14} {failed / len(records):.6g} ratio  ({failed} of {len(records)})")
    if speed is not None:
        lines.append(f"  machine speed  {CALIBRATION_REF_S / statistics.median(speed.took):.4g}"
                     f" x reference (median of {len(speed.took)} calibrations)")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, lines


def traced(seed: int):
    """The traced pass: the fixed traced subset of one cycle of every workload
    (see `traced` in workloads.py), run untraced and then traced, whichever
    workload the command line names, so every layer appears in it."""
    import spans
    import workloads
    tracer = spans.Tracer()
    lines, untraced_all, traced_all = [], [], []
    before = tracer.layer_metrics()
    for name in WORKLOAD_NAMES:
        w, jobs = workloads.make_jobs(name, seed, 1)
        subset = w.traced(jobs)
        untraced = run_jobs(w, subset)
        tracer.install()
        try:
            traced_records = run_jobs(w, subset, tracer)
        finally:
            tracer.uninstall()
        after = tracer.layer_metrics()
        lines.append(f"  {name}: {len(subset)} of {len(jobs)} jobs, "
                     f"{sum(t for _, t, _ in untraced):.3g} s untraced, "
                     f"{sum(t for _, t, _ in traced_records):.3g} s traced; nonzero layer metrics:")
        lines += [f"    {k:<42} {after[k] - before[k]:.6g}" for k in after
                  if k in spans.ADDITIVE and after[k] != before[k]]
        before = after
        untraced_all += untraced
        traced_all += traced_records
    values = tracer.layer_metrics()
    units = spans.metric_units()
    base, slow = jobs_per_s(untraced_all), jobs_per_s(traced_all)
    values["trace.untraced_jobs_per_s"] = base
    values["trace.traced_jobs_per_s"] = slow
    values["trace.overhead_ratio"] = base / slow
    values["trace.jobs"] = len(traced_all)
    units.update({"trace.untraced_jobs_per_s": "1/s", "trace.traced_jobs_per_s": "1/s",
                  "trace.overhead_ratio": "ratio", "trace.jobs": "count"})
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    lines.append("  all workloads:")
    lines += [f"    {k:<42} {values[k]:.6g} {units[k]}" for k in units]
    return untraced_all + traced_all, metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    if trace:
        _import_package()
        records, metrics, lines = traced(seed)
        title = f"traced pass over all workloads, seed {seed}"
    else:
        w, jobs, cycles, setup_times = setup(workload, seed, seconds)
        speed = SpeedLog()
        records = run_jobs(w, jobs, speed=speed)
        metrics, lines = end_to_end(records, setup_times, speed)
        title = f"{workload}: {len(jobs)} jobs ({cycles} cycles of {len(jobs) // cycles}), seed {seed}"
    failures = [(job, error) for job, _, error in records if error is not None]
    for job, error in failures[:10]:
        print(f"FAILED job {job.index} [{job.kind}]: {error}", file=sys.stderr)
    print(title)
    print("\n".join(lines))
    result = {"correct": not failures, "attempted": len(records), "failed": len(failures),
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process; one table, then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"{workload}: exit code {out.returncode}", file=sys.stderr)
            return out.returncode
        lines = out.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all" and not args.trace:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
