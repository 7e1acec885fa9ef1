"""Record the determinism digests every benchmark job must reproduce.

    python3 perfbench/record_digests.py

Runs every job the generator can produce, for every workload: for the
factoring workloads each stratum's (N, m) with every base and every job
seed; for the census, several (N, a) pairs per register width, which must
agree, since a counts-only report depends on n and m alone.  Every report
must pass the output checks.  Rewrites digests.json from scratch, so the
file always matches one version of the program.
"""

from __future__ import annotations

import json
import random
import sys

import checks
from run import DIGESTS, run_job
from workloads import (JOB_SEEDS, WORKLOADS, Job, census_pairs,
                       factoring_bases)

CENSUS_SAMPLES = 6


def universe(workload: str) -> list[Job]:
    spec = WORKLOADS[workload]
    jobs = []
    for key in spec.strata:
        if spec.counts_only:
            n, m = key
            jobs += [Job(N, a, m, 0, spec.mode, True) for N, a in
                     random.Random(n).sample(census_pairs(n),
                                             CENSUS_SAMPLES)]
        else:
            N, m = key
            jobs += [Job(N, a, m, seed, spec.mode, False)
                     for a in factoring_bases(N)
                     for seed in range(JOB_SEEDS)]
    return jobs


def main() -> int:
    recorded: dict[str, str] = {}
    for name in WORKLOADS:
        for job in universe(name):
            record, _report = run_job(job)
            if record.error is not None:
                print(f"{job}: {record.error}", file=sys.stderr)
                return 1
            key = checks.digest_key(job)
            if recorded.get(key, record.digest) != record.digest:
                print(f"{job}: census digest depends on more than (n, m)",
                      file=sys.stderr)
                return 1
            recorded[key] = record.digest
            print(f"{key} {record.digest[:12]} {record.wall_s:.2f} s",
                  flush=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
