"""Job generator for the benchmark workloads.

A workload is a closed loop: one client runs jobs one after another.  The
generator turns a workload seed into a sequence of *blocks*.  Every block
holds exactly one job per stratum of the workload (a stratum fixes N and m;
the block draws the base a and the job's seed), so any number of complete
blocks has the same mix of circuit sizes whatever the seed.  No two jobs of
one run share (N, a, m): a cache shared across jobs would otherwise look
like a speed-up that a command-line user, who pays every build, never sees.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

MONOLITHIC = "monolithic"
DISTRIBUTED = "distributed"

# Factoring jobs draw their seed from this many values, so the recorded
# determinism digests cover every job a workload can produce.
JOB_SEEDS = 4
MAX_BLOCKS = 6


@dataclass(frozen=True)
class Job:
    N: int
    a: int
    m: int
    seed: int
    mode: str
    counts_only: bool

    @property
    def n(self) -> int:
        return self.N.bit_length()


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    counts_only: bool
    strata: tuple[tuple[int, int], ...]  # (N, m) for factoring, (n, m) census
    trace_blocks: int  # blocks the traced run runs: five or six jobs


WORKLOADS = {
    w.name: w for w in (
        Workload("mono-factor", MONOLITHIC, False,
                 ((15, 6), (15, 7), (15, 8), (21, 8), (21, 9), (21, 10)), 1),
        Workload("dist-factor", DISTRIBUTED, False,
                 ((15, 4), (15, 5), (15, 6)), 2),
        Workload("census", MONOLITHIC, True,
                 tuple((n, 2 * n) for n in range(4, 9)), 1),
    )
}


def multiplicative_order(a: int, N: int) -> int:
    """Least r >= 1 with a^r = 1 (mod N); a must be coprime to N."""
    if math.gcd(a, N) != 1:
        raise ValueError(f"{a} shares a factor with {N}")
    r, value = 1, a % N
    while value != 1:
        value = value * a % N
        r += 1
    return r


def factoring_bases(N: int) -> list[int]:
    """Bases that make order finding split N: coprime, even order r and
    a^(r/2) != -1 (mod N)."""
    bases = []
    for a in range(2, N - 1):
        if math.gcd(a, N) != 1:
            continue
        r = multiplicative_order(a, N)
        if r % 2 == 0 and pow(a, r // 2, N) != N - 1:
            bases.append(a)
    return bases


def _is_prime(k: int) -> bool:
    return k >= 2 and all(k % f for f in range(2, math.isqrt(k) + 1))


def _is_prime_power(k: int) -> bool:
    return any(k % p == 0 and _is_power_of(k, p)
               for p in range(2, math.isqrt(k) + 1) if _is_prime(p))


def _is_power_of(k: int, p: int) -> bool:
    while k % p == 0:
        k //= p
    return k == 1


def census_moduli(n: int) -> list[int]:
    """Odd composites of bit length n that are not prime powers."""
    return [N for N in range(max(3, 1 << (n - 1)) | 1, 1 << n, 2)
            if not _is_prime(N) and not _is_prime_power(N)]


def census_pairs(n: int) -> list[tuple[int, int]]:
    """Every (N, a) a census job of register width n can draw: a census
    modulus and a base coprime to it."""
    return [(N, a) for N in census_moduli(n) for a in range(2, N)
            if math.gcd(a, N) == 1]


def make_blocks(workload: str, seed: int) -> list[list[Job]]:
    """The job blocks of one run, in the order the client runs them.

    Within a block the strata run in a fixed order, so every job follows
    a job of the same size whatever the seed.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    columns = [_stratum_jobs(spec, key, rng) for key in spec.strata]
    return [[column[b] for column in columns] for b in range(MAX_BLOCKS)]


def _stratum_jobs(spec: Workload, key: tuple[int, int],
                  rng: random.Random) -> list[Job]:
    """MAX_BLOCKS jobs of one stratum with pairwise distinct (N, a, m)."""
    if spec.counts_only:
        n, m = key
        return [Job(N, a, m, 0, spec.mode, True)
                for N, a in rng.sample(census_pairs(n), MAX_BLOCKS)]
    N, m = key
    bases = rng.sample(factoring_bases(N), MAX_BLOCKS)
    return [Job(N, a, m, rng.randrange(JOB_SEEDS), spec.mode, False)
            for a in bases]
