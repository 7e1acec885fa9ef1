"""Per-layer metrics of a traced run.

Times and counts are per job of the traced pass unless the name says
otherwise, with each job's order-finding phase (inside ``shor.factor``)
scaled to one round, as the end-to-end job times are: how many rounds a
job needs is drawn by its measurements.  Ratios are taken over the raw
totals.  A layer a workload never reaches reads 0.
"""

from __future__ import annotations

from distshor import partition, shor

from tracing import PROTOCOL_METHODS, Tracer
from workloads import DISTRIBUTED, Job


def simulated_gates(job: Job) -> int:
    """Enabled gate instructions (classical constant not 0) of the
    order-finding program one round of the job executes; counted from the
    built circuits, so the kernel's implementation cannot change it."""
    if job.counts_only:
        return 0
    if job.mode == DISTRIBUTED:
        plan = partition.plan_placement(job.n, job.m)
        circuits = [partition.build_distributed_order_program(job.a, job.N,
                                                              plan)]
    else:
        circuits = shor.order_circuit_parts(job.a, job.N, job.m)[:2]
    return sum(1 for circ in circuits for inst in circ.instructions
               if inst.is_gate() and inst.classical_constant != 0)


def _reference_s(record) -> float:
    """A job's whole time, less the probe's, in reference seconds."""
    return (record.wall_s - record.probe_s) * record.speed


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, base: list, runs: list) -> dict[str, float]:
    """Per-layer metric values from the traced pass ``runs`` and the
    untraced pass ``base`` over the same jobs (the same list order)."""
    rounds = [max(r.rounds, 1) for r in runs]

    def one_round(job: int, in_factor: bool) -> float:
        return 1 / rounds[job] if in_factor and job >= 0 else 1.0

    duration, self_s, calls, counts = tracer.totals(one_round)
    raw_duration, raw_self_s, _raw_calls, raw_counts = tracer.totals()
    jobs = len(runs)
    ebits = sum(r.ebits for r in runs)
    teleports = sum(r.teleports for r in runs)
    base_s = sum(r.one_round_s for r in base)
    job_wall = raw_duration["cli.run"]
    distributed = raw_duration["netsim.execute_distributed"]
    return {
        "qstate.apply_gate.calls": calls["qstate.apply_gate"] / jobs,
        "qstate.apply_gate.self_s": self_s["qstate.apply_gate"] / jobs,
        "qstate.apply_gate.ns_per_amp": _ratio(
            raw_self_s["qstate.apply_gate"] * 1e9,
            tracer.kernel_support("qstate.apply_gate")),
        "qstate.measure.calls": calls["qstate.measure"] / jobs,
        "qstate.measure.self_s": self_s["qstate.measure"] / jobs,
        "qstate.prob_one.self_s": self_s["qstate.prob_one"] / jobs,
        "qstate.peak_support": tracer.peak_support,
        "circuit.execute.self_s": self_s["circuit.execute"] / jobs,
        "circuit.insts_walked": counts["circuit.insts_walked"] / jobs,
        "circuit.disabled_ratio": _ratio(raw_counts["circuit.insts_disabled"],
                                         raw_counts["circuit.insts_walked"]),
        "circuit.sim_gates_per_s": _ratio(sum(r.gates for r in base),
                                          base_s),
        "revarith.build_cm_m.calls_per_job":
            calls["revarith.build_cm_m"] / jobs,
        "revarith.build_cm_m.self_s": self_s["revarith.build_cm_m"] / jobs,
        "revarith.insts_built": counts["revarith.insts_built"] / jobs,
        "qft.build.self_s": self_s["qft.build"] / jobs,
        "netsim.execute_distributed.self_s":
            self_s["netsim.execute_distributed"] / jobs,
        "netsim.protocol.self_s": sum(
            self_s[f"netsim.{m}"] for m in PROTOCOL_METHODS) / jobs,
        "netsim.sessions": counts["netsim.sessions"] / jobs,
        "netsim.ebits": sum(r.ebits / n for r, n in zip(runs, rounds)) / jobs,
        "netsim.teleports": sum(
            r.teleports / n for r, n in zip(runs, rounds)) / jobs,
        "netsim.ebits_per_s": _ratio(
            sum(r.ebits / max(r.rounds, 1) for r in base), base_s),
        "netsim.host_us_per_ebit": _ratio(distributed * 1e6, ebits),
        "netsim.host_us_per_teleport": _ratio(distributed * 1e6, teleports),
        "partition.plan.self_s": self_s["partition.plan"] / jobs,
        "partition.build_program.calls_per_job":
            calls["partition.build_program"] / jobs,
        "partition.build_program.self_s":
            self_s["partition.build_program"] / jobs,
        "partition.census.self_s": self_s["partition.census"] / jobs,
        "partition.census.blocks": counts["partition.census.blocks"] / jobs,
        "partition.prediction_mismatch": sum(r.mismatch for r in runs) / jobs,
        "shor.rounds_per_job": sum(r.rounds for r in runs) / jobs,
        "shor.round_success_ratio": _ratio(
            sum(r.rounds_found for r in runs), sum(r.rounds for r in runs)),
        "shor.post.self_s": self_s["shor.factor"] / jobs,
        "cli.report.self_s": (job_wall - raw_duration["shor.factor"]) / jobs,
        "trace.overhead_ratio": _ratio(sum(map(_reference_s, runs)),
                                       sum(map(_reference_s, base))),
        "trace.unattributed_ratio": _ratio(raw_self_s["cli.run"], job_wall),
    }
