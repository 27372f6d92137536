"""adsem benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload reach|check|execute --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src and
driven in-process through `adsem.cli.main(argv)` with stdout captured,
one job at a time (a closed loop with one client).  Every job's output
is compared with an answer worked out without adsem (see inputs.py).

--trace 0 runs one untimed warm-up round, then times whole rounds of the
job mix until S seconds have passed and reports the end-to-end metrics,
with times scaled to a nominal host speed (see hostspeed.py).
--trace 1 runs rounds untraced for S/3 seconds, then the same number of
rounds with spans at adsem's public function boundaries (see
tracing.py), and reports per-layer metrics.

The last line of stdout is the result object; the line before it is a
summary with sample counts, the tail percentile and any failed jobs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

# Set-up is repeated and its median reported, so one slow process start
# does not move setup_s.
SETUP_REPEATS = 7
# Reference runs timed before and after each set-up, to scale it.
SETUP_REFERENCE_TIMES = 20
TAIL_BEYOND = 10
WORK_UNIT = {"reach": "reachability edges", "check": "state pairs judged",
             "execute": "trace states recorded"}


def import_adsem():
    """Import `adsem.cli` from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import adsem.cli
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import adsem from {SRC}: {e}")
    if Path(adsem.cli.__file__).resolve().parent != SRC / "adsem":
        raise SystemExit(f"perfbench: adsem was imported from {adsem.cli.__file__}, not {SRC}")
    return adsem.cli


def set_up(workload: str, seed: int, cli, workdir: Path) -> tuple[float, float, list[workloads.Job]]:
    """Median over SETUP_REPEATS of: interpreter start plus `import adsem`
    in a fresh process, then writing this workload's inputs.  Returns the
    median scaled to the nominal host speed by the reference timed before
    and after each set-up (see hostspeed.py), the raw median, and the jobs."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples, raw, jobs = [], [], []
    refs = [hostspeed.time_reference(SETUP_REFERENCE_TIMES)]
    for r in range(SETUP_REPEATS):
        target = workdir / f"setup{r}"
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import adsem.cli"], env=env, cwd=ROOT, check=True)
        jobs = workloads.build(workload, seed, target, cli.main)
        raw.append(perf_counter() - t0)
        refs.append(hostspeed.time_reference(SETUP_REFERENCE_TIMES))
        samples.append(raw[-1] * hostspeed.NOMINAL_S / statistics.mean(refs[-2:]))
        if r:
            shutil.rmtree(workdir / f"setup{r - 1}")
    return statistics.median(samples), statistics.median(raw), jobs


@dataclass
class Rounds:
    jobs_per_round: int
    latencies: list[float] = field(default_factory=list)    # per job, round after round
    round_work: list[int] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)        # before each job, and after the last
    work_by_binding: Counter = field(default_factory=Counter)
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.round_work)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def timed(self, scaled: bool = True) -> tuple[list[float], list[float]]:
        """Job latencies, and work per busy second of each round, at the
        nominal host speed (see hostspeed.py) or, unscaled, as timed."""
        scales = hostspeed.scales(self.ref_s) if scaled else [1.0] * len(self.latencies)
        latencies = [t * scale for t, scale in zip(self.latencies, scales)]
        n = self.jobs_per_round
        throughput = [work / sum(latencies[i * n:(i + 1) * n])
                      for i, work in enumerate(self.round_work)]
        return latencies, throughput


def run_rounds(jobs, call, seconds: float | None = None, rounds: int | None = None) -> Rounds:
    """Whole rounds of `jobs`, one after another: until `seconds` have
    passed (at least one round), or exactly `rounds` rounds.  Each round
    starts on a collected heap, so garbage a round leaves does not make
    the next one's collections slower, and each job follows a timed run
    of the host-speed reference; neither is part of the job times."""
    r = Rounds(len(jobs))
    start = perf_counter()
    while (r.rounds < rounds) if rounds is not None else (
            r.rounds == 0 or perf_counter() - start < seconds):
        gc.collect()
        work = 0
        for job in jobs:
            r.ref_s.append(hostspeed.time_reference())
            t0 = perf_counter()
            try:
                code, out, _ = call(job.argv)
                t1 = perf_counter()
                outcome = job.check(code, out)
            except Exception as e:  # a job that raises is counted as failed
                t1 = perf_counter()
                outcome = "".join(traceback.format_exception_only(e)).strip()
            r.latencies.append(t1 - t0)
            if isinstance(outcome, str):
                r.failures.append((job.label, outcome))
            else:
                work += outcome
                if job.binding:
                    r.work_by_binding[job.binding] += outcome
        r.round_work.append(work)
    r.ref_s.append(hostspeed.time_reference())
    return r


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile that still has at
    least TAIL_BEYOND jobs beyond it."""
    ordered = sorted(latencies)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    t0 = perf_counter()
    cli = import_adsem()
    import_s = perf_counter() - t0
    os.environ.pop("ADSEM_SEED", None)  # it would override the seeded scenarios

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        setup_s, setup_raw_s, jobs = set_up(args.workload, args.seed, cli, workdir)
        # What set-up left on the heap is kept out of the collector's
        # reach, as in a fresh `adsem` process that has only its modules.
        gc.collect()
        gc.freeze()

        def call(argv):
            return workloads.call_cli(cli.main, argv)

        if not args.trace:
            runs = [run_rounds(jobs, call, rounds=1), run_rounds(jobs, call, seconds=args.seconds)]
            lat, throughput = runs[1].timed()
            tail_ms, tail_pct = tail(lat)
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "work_per_s": metric(statistics.median(throughput), "1/s"),
                "job_ms.p50": metric(statistics.median(lat) * 1e3, "ms"),
                "job_ms.tail": metric(tail_ms * 1e3, "ms"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                      "MB"),
            }
            raw_lat, raw_throughput = runs[1].timed(scaled=False)
            ref_s = runs[1].ref_s
            extra = {"samples": len(lat), "tail_percentile": tail_pct,
                     "reference_ms": {"nominal": hostspeed.NOMINAL_S * 1e3,
                                      "median": statistics.median(ref_s) * 1e3,
                                      "min": min(ref_s) * 1e3, "max": max(ref_s) * 1e3},
                     "unscaled": {"setup_s": setup_raw_s,
                                  "work_per_s": statistics.median(raw_throughput),
                                  "job_ms.p50": statistics.median(raw_lat) * 1e3,
                                  "job_ms.tail": tail(raw_lat)[0] * 1e3}}
        else:
            untraced = run_rounds(jobs, call, seconds=args.seconds / 3)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_rounds(jobs, tracer.wrap("bench.job", call), rounds=untraced.rounds)
            finally:
                tracer.uninstall()
            runs = [untraced, traced]
            per_layer = tracing.per_layer_metrics(
                tracer, traced.rounds, traced.work_by_binding, import_s,
                untraced.busy_s, traced.busy_s)
            metrics = {name: metric(v, unit) for name, (v, unit) in per_layer.items()}
            job_s = tracer.inclusive_s("bench.job")
            extra = {"spans": len(tracer.spans),
                     "self_time_accounted": sum(t[2] for t in tracer.totals.values()) / job_s}
            tracer.dump(OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json")
    except workloads.SetupError as e:
        print(f"perfbench: set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    attempted = sum(len(r.latencies) for r in runs)
    failures = [f for r in runs for f in r.failures]
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "work_unit": WORK_UNIT[args.workload], "jobs_per_round": len(jobs),
               "rounds": [r.rounds for r in runs], "failed_ratio": len(failures) / attempted,
               **extra, "failures": [f"{label}: {why}" for label, why in failures[:20]]}
    print(json.dumps(summary))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
