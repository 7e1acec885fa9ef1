"""The benchmark's tracer patches program functions by name: installing
it fails here when one of them is renamed or deleted."""

from pathlib import Path

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
