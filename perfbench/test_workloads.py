"""Self-tests of the job generator and the output checker.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import math

import pytest

import checks
from run import run_job
from workloads import (MAX_BLOCKS, WORKLOADS, Job, census_moduli,
                       factoring_bases, make_blocks, multiplicative_order)

SEEDS = range(20)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_jobs(workload):
    for seed in SEEDS:
        assert make_blocks(workload, seed) == make_blocks(workload, seed)
    assert make_blocks(workload, 0) != make_blocks(workload, 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_repeated_instance_within_a_run(workload):
    for seed in SEEDS:
        jobs = [job for block in make_blocks(workload, seed) for job in block]
        assert len(jobs) == MAX_BLOCKS * len(WORKLOADS[workload].strata)
        assert len({(j.N, j.a, j.m) for j in jobs}) == len(jobs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_block_covers_every_stratum_once(workload):
    spec = WORKLOADS[workload]
    for seed in SEEDS:
        for block in make_blocks(workload, seed):
            if spec.counts_only:
                keys = sorted((job.n, job.m) for job in block)
            else:
                keys = sorted((job.N, job.m) for job in block)
            assert keys == sorted(spec.strata)


@pytest.mark.parametrize("workload", ["mono-factor", "dist-factor"])
def test_factoring_bases_meet_the_order_criterion(workload):
    for seed in SEEDS:
        for block in make_blocks(workload, seed):
            for job in block:
                r = multiplicative_order(job.a, job.N)
                assert r % 2 == 0
                assert pow(job.a, r // 2, job.N) != job.N - 1


def test_factoring_bases_of_the_paper_instances():
    assert factoring_bases(15) == [2, 4, 7, 8, 11, 13]
    assert factoring_bases(21) == [2, 8, 10, 11, 13, 19]


def test_census_moduli_and_bases():
    assert census_moduli(4) == [15]
    assert census_moduli(5) == [21]
    assert 45 in census_moduli(6) and 49 not in census_moduli(6)
    for seed in SEEDS:
        for block in make_blocks("census", seed):
            for job in block:
                assert job.N in census_moduli(job.n)
                assert math.gcd(job.a, job.N) == 1 and 1 < job.a < job.N
                assert job.m == 2 * job.n


@pytest.fixture(scope="module")
def factoring_report():
    job = Job(15, 7, 4, 0, "monolithic", False)
    record, report = run_job(job)
    assert record.error is None
    return job, report


def _tampered(report, edit):
    bad = copy.deepcopy(report)
    edit(bad)
    return bad


@pytest.mark.parametrize("edit", [
    lambda r: r["outcome"].update(factors=[1, 15]),
    lambda r: r["rounds"][-1].update(r_found=2),
    lambda r: r["ledger"].update(ebits=1),
    lambda r: r["counts"]["NL_T"]["per_level"]["XAN"].update(NL=1),
    lambda r: r["counts"]["NL_T"]["per_level"]["c_m(M)"].update(T=1),
])
def test_checker_rejects_tampered_reports(factoring_report, edit):
    job, report = factoring_report
    assert checks.check_report(job, 0, report) is False
    with pytest.raises(checks.CheckError):
        checks.check_report(job, 0, _tampered(report, edit))


def test_digest_ignores_wall_time_only(factoring_report):
    _job, report = factoring_report
    timed = _tampered(report, lambda r: r.update(wall_time_s=99.0))
    assert checks.digest(timed) == checks.digest(report)
    moved = _tampered(report, lambda r: r["rounds"][0].update(j=1))
    assert checks.digest(moved) != checks.digest(report)
