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


def test_tracer_sees_a_monolithic_round(monkeypatch):
    """A traced monolithic job builds through the patched builders and
    runs its round through ``shor.execute``: were the round to reach the
    interpreter by another name, ``circuit.insts_walked`` would read 0."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        status, _report = tracer.job_span(
            0, lambda: cli.run(cli.RunConfig(N=15, a=7, m=4, seed=1)))
    assert status == cli.EXIT_OK
    _duration, _self_s, calls, counts = tracer.totals()
    assert counts["circuit.insts_walked"] > 0
    assert calls["shor.order_circuit_parts"] > 0
    assert calls["qft.build"] > 0


def test_tracer_sees_every_distributed_session(monkeypatch):
    """A traced distributed job counts its sessions as they return from
    ``Network.run_session``: were the walk to bill a unit without calling
    it, ``netsim.sessions`` would read 0."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    config = cli.RunConfig(N=15, a=7, m=4, mode=shor.DISTRIBUTED, seed=1)
    with tracer.installed():
        status, _report = tracer.job_span(0, lambda: cli.run(config))
    assert status == cli.EXIT_OK
    _duration, _self_s, calls, counts = tracer.totals()
    assert counts["netsim.sessions"] > 0
    assert calls["netsim.run_session"] > 0


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
