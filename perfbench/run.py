"""distshor benchmark: closed-loop factoring and census jobs.

    python3 perfbench/run.py --workload mono-factor --seed 1 --seconds 25 \
        --trace 0

One client runs jobs one after another through ``distshor.cli.run`` (the
command line minus argument parsing and printing) for ``--seconds``, checks
every report, and prints a table followed by one JSON line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if not (SRC / "distshor" / "__init__.py").is_file():
    sys.exit(f"distshor sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import distshor  # noqa: E402
from distshor import cli, shor  # noqa: E402

import checks  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS, Job, make_blocks  # noqa: E402

if Path(distshor.__file__).resolve().parent != SRC / "distshor":
    sys.exit(f"imported distshor from {distshor.__file__}, not {SRC}")

perf = time.perf_counter
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUP_REPEATS = 11
DIGESTS = HERE / "digests.json"
SPANS_DIR = HERE / "out"
SETUP_CODE = (
    "import sys; sys.path[:0] = [{src!r}, {here!r}]; import distshor.cli; "
    "import workloads; workloads.make_blocks({workload!r}, {seed!r}); "
    "import speed; print(*speed.probe_times(5))")


@dataclass
class JobRecord:
    job: Job
    start: float
    end: float
    factor_s: float = 0.0
    probe_s: float = 0.0  # speed-probe time inside the job
    speed: float = 1.0  # reference seconds per wall second during the job
    rounds: int = 0
    rounds_found: int = 0
    ebits: int = 0
    teleports: int = 0
    digest: str | None = None
    error: str | None = None
    mismatch: bool = False
    gates: int = 0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def one_round_host_s(self) -> float:
        """Job time, less the probe's, with the order-finding share scaled
        to one round.

        How many rounds a job needs is drawn by its measurements; taking
        the extra rounds out keeps the job time a property of the code,
        not of the seed.
        """
        return self.wall_s - self.probe_s - extra_rounds_s(self)

    @property
    def one_round_s(self) -> float:
        """One-round job time in reference seconds (see speed.py)."""
        return self.one_round_host_s * self.speed


def extra_rounds_s(record: JobRecord) -> float:
    """Time, less the probe's, that the job spent in order-finding rounds
    beyond the first."""
    if record.rounds <= 1:
        return 0.0
    share = record.factor_s / record.wall_s
    return (record.wall_s - record.probe_s) * share * (1 - 1 / record.rounds)


class FactorTimer:
    """Times ``shor.factor`` from outside during an untraced run, so a
    job's wall time splits into order finding and the report."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        original = shor.factor

        def timed(*args, **kwargs):
            t0 = perf()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds += perf() - t0

        self._original = original
        shor.factor = timed
        return self

    def __exit__(self, *exc):
        shor.factor = self._original


def run_job(job: Job,
            call=lambda fn: fn()) -> tuple[JobRecord, dict | None]:
    """Run one job through ``call`` (which may wrap it in a span) and
    return its timing record and report."""
    config = cli.RunConfig(N=job.N, a=job.a, m=job.m, mode=job.mode,
                           seed=job.seed, counts_only=job.counts_only)
    t0 = perf()
    try:
        status, report = call(lambda: cli.run(config))
    except Exception:  # a crashing job is a failed job, not a dead run
        record = JobRecord(job, t0, perf(), error=traceback.format_exc())
        return record, None
    record = JobRecord(job, t0, perf())
    try:
        record.mismatch = checks.check_report(job, status, report)
        record.digest = checks.digest(report)
    except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
        return record, report
    rounds = report.get("rounds", [])
    record.rounds = len(rounds)
    record.rounds_found = sum(r["r_found"] is not None for r in rounds)
    if "ledger" in report:
        record.ebits = report["ledger"]["ebits"]
        record.teleports = report["ledger"]["teleports"]
    return record, report


def run_blocks(blocks: list[list[Job]], seconds: float,
               recorded: dict[str, str]) -> tuple[list[JobRecord], float,
                                                  float]:
    """Closed loop: start blocks until ``seconds`` have passed, always
    finishing the block in progress.  Returns the records and the loop's
    start and end."""
    records = []
    with FactorTimer() as timer:
        start = perf()
        for block in blocks:
            if perf() - start >= seconds:
                break
            for job in block:
                timer.seconds = 0.0
                record, _report = run_job(job)
                record.factor_s = timer.seconds
                records.append(record)
        end = perf()
    for record in records:
        compare_digest(record, recorded)
    return records, start, end


def compare_digest(record: JobRecord, recorded: dict[str, str]):
    if record.error is not None:
        return
    key = checks.digest_key(record.job)
    expected = recorded.get(key)
    if expected is None:
        record.error = f"no recorded digest for {key}"
    elif record.digest != expected:
        record.error = (f"digest {record.digest[:12]} differs from the "
                        f"recorded {expected[:12]}")


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time, unscaled and in reference seconds, from process start
    until the first job may start: a fresh interpreter imports the package
    and builds the job list, then times the speed probe to scale its own
    wall time."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE),
                             workload=workload, seed=seed)
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf()
        child = subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True, timeout=120)
        probes = [float(x) for x in child.stdout.split()]
        times.append(perf() - t0 - sum(probes))
        scaled.append(times[-1] * REFERENCE_S / statistics.median(probes))
    return statistics.median(times), statistics.median(scaled)


def metrics(kind: str, values: dict[str, float]) -> dict:
    """The ``kind`` metrics of BENCHMARK.json with their units, in its
    order; every one must have a value."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in BENCHMARK[kind]}


def job_median(records: list[JobRecord], time_of) -> float:
    """Median over the strata of each stratum's median job time.

    Every run holds the same number of jobs per stratum, and job times
    cluster by stratum; a plain median over all jobs would fall between
    two clusters and swing with the slowest job of one and the fastest of
    the other.
    """
    strata: dict[tuple, list[float]] = {}
    for r in records:
        key = (r.job.n, r.job.m) if r.job.counts_only else (r.job.N, r.job.m)
        strata.setdefault(key, []).append(time_of(r))
    return statistics.median(statistics.median(v) for v in strata.values())


def print_failures(records: list[JobRecord]):
    for r in records:
        if r.error is not None:
            print(f"FAILED {r.job}: {r.error}", file=sys.stderr)


def print_table(title: str, metrics: dict):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")


def untraced(args, blocks, recorded) -> dict:
    setup_s, setup_ref_s = measure_setup(args.workload, args.seed)
    with SpeedProbe() as probe:
        records, start, end = run_blocks(blocks, args.seconds, recorded)
    for record in records:
        record.probe_s, record.speed = probe.window(record.start, record.end)
    print_failures(records)
    failed = sum(r.error is not None for r in records)
    loop_probe_s, loop_speed = probe.window(start, end)
    one_round_loop_s = (end - start - loop_probe_s
                        - sum(extra_rounds_s(r) for r in records))
    values = {
        "setup_s": setup_ref_s,
        "job_s_p50": job_median(records, lambda r: r.one_round_s),
        "jobs_per_s": len(records) / (one_round_loop_s * loop_speed),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unscaled = {
        "setup_s": setup_s,
        "job_s_p50": job_median(records, lambda r: r.one_round_host_s),
        "jobs_per_s": len(records) / one_round_loop_s,
        "reference_s_per_s": loop_speed,
    }
    print(f"{args.workload} seed={args.seed}: {len(records)} jobs in "
          f"{end - start:.1f} s, {failed} failed "
          f"(fail_ratio {failed / max(len(records), 1):.3f})")
    result = metrics("end_to_end", values)
    print_table("end-to-end", result)
    print("unscaled " + json.dumps(unscaled))
    return {"correct": failed == 0 and bool(records),
            "attempted": len(records), "failed": failed, "metrics": result}


def traced(args, blocks, recorded) -> dict:
    """Run the workload's first ``trace_blocks`` blocks untraced, then the
    same jobs traced: a fixed job set, so the counts repeat whatever the
    timing."""
    from layers import per_layer, simulated_gates
    from tracing import Tracer

    jobs = [job for block in blocks[:WORKLOADS[args.workload].trace_blocks]
            for job in block]
    tracer = Tracer()
    runs = []
    with SpeedProbe() as probe:
        base, _start, _end = run_blocks([jobs], float("inf"), recorded)
        with tracer.installed():
            for index, job in enumerate(jobs):
                record, _report = run_job(
                    job, lambda fn, i=index: tracer.job_span(i, fn))
                runs.append(record)
    for record in base + runs:
        record.probe_s, record.speed = probe.window(record.start, record.end)
    for record, ref in zip(runs, base):
        if record.error is None and record.digest != ref.digest:
            record.error = "traced digest differs from the untraced run"
    for record in base:
        record.gates = simulated_gates(record.job)
    records = base + runs
    print_failures(records)
    failed = sum(r.error is not None for r in records)
    result = metrics("per_layer", per_layer(tracer, base, runs))
    tracer.write(SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz")
    print(f"{args.workload} seed={args.seed}: {len(base)} jobs untraced, "
          f"then traced; {failed} failed")
    print_table("per-layer", result)
    return {"correct": failed == 0 and bool(base), "attempted": len(records),
            "failed": failed, "metrics": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    recorded = json.loads(DIGESTS.read_text())
    blocks = make_blocks(args.workload, args.seed)
    result = (traced if args.trace else untraced)(args, blocks, recorded)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
