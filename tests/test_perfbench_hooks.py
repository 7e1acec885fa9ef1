"""The benchmark's own files, read from the tests: its tracer patches
program functions by name, and its recorded digests pin the reports of
the jobs it runs."""

import json
from pathlib import Path

import pytest

from distshor import cli, partition, shor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    originals = (shor.execute, partition.execute_distributed,
                 cli.count_gates)
    with Tracer().installed():
        assert shor.execute is not originals[0]
    assert (shor.execute, partition.execute_distributed,
            cli.count_gates) == originals


# Two recorded (a, seed) jobs for each mono-factor stratum (N, m).
MONO_FACTOR_JOBS = [
    (15, 6, 2, 3), (15, 6, 13, 0),
    (15, 7, 4, 1), (15, 7, 11, 2),
    (15, 8, 7, 1), (15, 8, 8, 3),
    (21, 8, 2, 0), (21, 8, 19, 2),
    (21, 9, 10, 3), (21, 9, 13, 1),
    (21, 10, 8, 2), (21, 10, 11, 0),
]


@pytest.mark.parametrize("N,m,a,seed", MONO_FACTOR_JOBS)
def test_mono_factor_reports_reproduce_recorded_digests(monkeypatch, N, m,
                                                        a, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    recorded = json.loads((PERFBENCH / "digests.json").read_text())
    status, report = cli.run(cli.RunConfig(N=N, a=a, m=m, seed=seed))
    assert status == cli.EXIT_OK
    key = f"monolithic/N={N}/a={a}/m={m}/seed={seed}"
    assert checks.digest(report) == recorded[key]


def _reproduces_recorded_digest(monkeypatch, config, key):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    recorded = json.loads((PERFBENCH / "digests.json").read_text())
    status, report = cli.run(config)
    assert status == cli.EXIT_OK
    assert checks.digest(report) == recorded[key]


# One recorded (a, seed) job for each dist-factor stratum (N, m).
DIST_FACTOR_JOBS = [(15, 4, 11, 0), (15, 5, 2, 1), (15, 6, 7, 3)]


@pytest.mark.parametrize("N,m,a,seed", DIST_FACTOR_JOBS)
def test_dist_factor_reports_reproduce_recorded_digests(monkeypatch, N, m,
                                                        a, seed):
    config = cli.RunConfig(N=N, a=a, m=m, mode=shor.DISTRIBUTED, seed=seed)
    _reproduces_recorded_digest(
        monkeypatch, config, f"distributed/N={N}/a={a}/m={m}/seed={seed}")


# One modulus for each census register width n = 4..8.
@pytest.mark.parametrize("N", [15, 21, 33, 77, 187])
def test_census_reports_reproduce_recorded_digests(monkeypatch, N):
    n = N.bit_length()
    config = cli.RunConfig(N=N, a=2, m=2 * n, counts_only=True)
    _reproduces_recorded_digest(monkeypatch, config,
                                f"census/n={n}/m={2 * n}")
