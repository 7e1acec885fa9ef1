"""Batch driver: run a factoring job or a static count report.

Reports are JSON documents with a fixed key order; the wall time lives in
a single ``wall_time_s`` key so golden comparisons can mask it.  Exit
codes: 0 success, 2 invalid configuration or an output path that cannot
be written, 3 resource exhaustion (the retry budget ran out, or, checked
before anything is built, a factoring run's m is over the cap that
``shor.admission_error`` derives from ``shor.SUPPORT_BUDGET``, or the
gates a run builds, its report's plus a factoring run's order-finding
program and a circuit dump's ladder, are over ``GATE_BUDGET``).  The budgets are checked before N is tested for
primes and prime powers, so an N over a budget exits 3 either way.

A factoring run does not create the whole order-finding program's
instructions: its ladder's pieces are the first controlled multiplier,
a list of instructions, and for every later multiplier a repeat that
names that list (``build_cm_m``), which the run reads from that list
with k_0 renamed k_i and the repeat's constants.  The budget still
counts every gate of the program, as a circuit dump spells every
repeat.

The counts section builds the power ladder's first controlled multiplier
and the distributed inverse transform, never the whole order-finding
program: the ladder's m multipliers have one shape, so every count is the
instance's times m, plus the transform's.  That keeps a count report
quadratic in n, so ``--counts-only`` has no support budget, but its
inverse transforms are quadratic in m.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import partition, shor
from .circuit import count_gates, dump
from .netsim import ResourceLedger
from .qstate import RandomSource
from .revarith import RegisterLayout, build_cm_m, gate_count_formula
from .qft import build_inverse_qft

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_EXHAUSTED = 3

# The most gates a run may build: a report's share (the ladder's first
# controlled multiplier and two inverse transforms, one packed and one
# distributed), plus a factoring run's whole order-finding program and a
# circuit dump's whole ladder.
GATE_BUDGET = 1 << 21


@dataclass
class RunConfig:
    N: int
    a: int | None = None
    m: int | None = None
    mode: str = shor.MONOLITHIC
    seed: int = 0
    counts_only: bool = False

    def validate(self) -> str | None:
        if self.N < 3 or self.N % 2 == 0:
            return "N must be odd and at least 3"
        if self.a is not None:
            if not 1 < self.a < self.N:
                return "base must lie strictly between 1 and N"
            if math.gcd(self.a, self.N) != 1:
                return "base shares a factor with N"
        if self.mode not in (shor.MONOLITHIC, shor.DISTRIBUTED):
            return f"unknown mode {self.mode!r}"
        if self.m is not None and self.m < 1:
            return "m must be positive"
        return None

    @property
    def n(self) -> int:
        return self.N.bit_length()

    @property
    def m_effective(self) -> int:
        return self.m if self.m is not None else 2 * self.n


def _config_dict(config: RunConfig) -> dict:
    return {
        "N": config.N,
        "a": config.a,
        "m": config.m_effective,
        "mode": config.mode,
        "seed": config.seed,
    }


def _counts_section(config: RunConfig) -> dict:
    """Static analysis: measured gate counts of the built circuits next to
    the closed-form predictions, plus the communication rollup.

    The ladder's m controlled multipliers differ only in their constants,
    and a constant never changes a circuit's shape, so the report builds
    the first one alone and counts the ladder as m copies of it."""
    n, m = config.n, config.m_effective
    a = config.a if config.a is not None else _default_base(config.N)
    plan = partition.plan_placement(n, m)
    # labelled cm/M[0]/... exactly as in the full distributed program
    instance = build_cm_m(a, config.N, 1, plan.layout, slicing=plan.slicing)
    transform = partition.build_distributed_transform_program(plan)

    # each level is read off its first instance; the transform is counted
    # packed, as the distributed one's cross-node swaps are MOVEs and do
    # not count as gates
    adder = "cm/M[0]/MF0/A[0]"
    levels = {"FA": f"{adder}/XAN0/AN/FA", "HA": f"{adder}/XAN0/AN/HA",
              "AN": f"{adder}/XAN0/AN", "XAN": f"{adder}/XAN0", "A": adder,
              "MF": "cm/M[0]/MF0", "M": "cm/M[0]", "c_m(M)": "cm"}
    measured = dict(zip(levels,
                        count_gates(instance).counts_under(levels.values())))
    measured["c_m(M)"] *= m
    measured["QFT_inv"] = count_gates(build_inverse_qft(range(m))).total

    predicted = {lvl: gate_count_formula(lvl, n, m)
                 for lvl in ("FA", "HA", "AN", "XAN", "A", "MF", "M",
                             "c_m(M)", "QFT_inv")}
    # the transform prediction excludes its swap network
    deltas = {lvl: measured[lvl] - predicted[lvl] for lvl in predicted}

    nl_t = partition.count_nl_t(
        partition.census_from_program(instance, plan), n, m, copies=m,
        transform=partition.census_from_program(transform, plan))
    slices = len(plan.adder_nodes)
    return {
        "G_measured": measured,
        "G_closed_form": predicted,
        "G_delta": deltas,
        "NL_T": nl_t,
        "predictions": {
            "NL(AN)": 2 * slices,
            "NL(c_m(M))": 11 * slices * m * n,
            "T(SHOR)": 4 * (slices - 1) * m * n,
            "G(c_m(M))": gate_count_formula("c_m(M)", n, m),
            "qubits_monolithic": 5 * n + m + 1,
            "qubits_distributed": 5 * n + m + 1,
            "nodes": 7,
            "node_capacity": plan.capacity,
        },
    }


def _default_base(N: int) -> int:
    for cand in range(2, N):
        if math.gcd(cand, N) == 1:
            return cand
    raise ValueError("no coprime base exists")


def gate_budget_error(n: int, m: int, *, factoring: bool = False,
                      dump: bool = False) -> str | None:
    """Why a run for an n-bit modulus and an m-bit estimation register is
    refused before anything is built, or None.  Every report builds the
    ladder's first controlled multiplier and two inverse transforms; a
    factoring run also builds its whole order-finding program (the
    ``SHOR`` count), and a circuit dump the whole ladder.  A program's
    repeated multipliers count in full, though a run creates their
    instructions only for a dump."""
    if m > GATE_BUDGET:  # no count: the two transforms alone are m(m + 1)
        return (f"n = {n}, m = {m} builds m(m + 1) gates or more for its "
                f"report's transforms, over the budget of {GATE_BUDGET}")
    report = (gate_count_formula("M", n)
              + 2 * gate_count_formula("QFT_inv", n, m))
    shares = [f"{report} gates for its report"]
    built = report
    for wanted, what, level in ((factoring, "order-finding program", "SHOR"),
                                (dump, "circuit dump", "c_m(M)")):
        if wanted:
            count = gate_count_formula(level, n, m)
            shares.append(f"{count} for its {what}")
            built += count
    if built <= GATE_BUDGET:
        return None
    what = shares[0]
    if len(shares) > 1:
        what = (f"{', '.join(shares[:-1])} and {shares[-1]}, {built} in "
                f"all")
    return f"n = {n}, m = {m} builds {what}, over the budget of {GATE_BUDGET}"


def run(config: RunConfig, *, dump: bool = False) -> tuple[int, dict]:
    """Execute one factoring job and build its report; ``dump`` admits the
    whole ladder that ``--dump-circuit`` builds afterwards."""
    started = time.perf_counter()
    status, error = EXIT_BAD_CONFIG, config.validate()
    if error is None:
        # the budgets first: they cost nothing, and the classical checks
        # then only run on an N small enough to factor
        status = EXIT_EXHAUSTED
        if not config.counts_only:  # a factoring run's m is capped
            error = shor.admission_error(config.m_effective)
        if error is None:
            error = gate_budget_error(config.n, config.m_effective,
                                      factoring=not config.counts_only,
                                      dump=dump)
    if error is None and not config.counts_only:
        status, error = EXIT_BAD_CONFIG, shor.classical_rejection(config.N)
    if error is not None:
        return status, {"config": _config_dict(config), "error": error}

    report: dict = {"config": _config_dict(config)}
    status = EXIT_OK
    if config.counts_only:
        report["counts"] = _counts_section(config)
    else:
        rng = RandomSource(config.seed)
        outcome = shor.factor(config.N, rng, a=config.a,
                              m=config.m_effective, mode=config.mode)
        rounds = []
        ledger = ResourceLedger()
        for order in outcome.order_results:
            for rnd in order.transcript:
                rounds.append({"a": order.a, "j": rnd.j,
                               "candidates": rnd.candidates,
                               "r_found": rnd.r_found})
            ledger.merge(order.ledger)
        report["outcome"] = (
            {"factors": sorted(outcome.factors)} if outcome.factors
            else {"failure": outcome.failure})
        report["rounds"] = rounds
        report["ledger"] = ledger.as_dict()
        report["counts"] = _counts_section(config)
        if outcome.factors is None:
            status = EXIT_EXHAUSTED
    report["wall_time_s"] = round(time.perf_counter() - started, 3)
    return status, report


def _write_dump(config: RunConfig, path: str):
    a = config.a if config.a is not None else _default_base(config.N)
    layout = RegisterLayout.packed(config.n, config.m_effective)
    circ = build_cm_m(a, config.N, config.m_effective, layout)
    with open(path, "w") as fh:
        fh.write(dump(circ))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="distshor",
        description="Factor an odd composite on a simulated quantum "
                    "network and account for every entangled pair and "
                    "classical bit.")
    parser.add_argument("--N", type=int, required=True,
                        help="odd composite to factor")
    parser.add_argument("--a", type=int, default=None,
                        help="fixed base (default: random per attempt)")
    parser.add_argument("--m", type=int, default=None,
                        help="estimation register width (default 2n)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=[shor.MONOLITHIC,
                                           shor.DISTRIBUTED],
                        default=shor.MONOLITHIC)
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the JSON report here (default stdout)")
    parser.add_argument("--dump-circuit", default=None, metavar="PATH",
                        help="write the power-ladder circuit text here")
    parser.add_argument("--counts-only", action="store_true",
                        help="static gate/communication analysis, no "
                             "quantum execution")
    args = parser.parse_args(argv)
    # an output path is checked before anything is built
    for flag, path in (("--report", args.report),
                       ("--dump-circuit", args.dump_circuit)):
        if path == "":
            print(f"error: {flag} needs a file path", file=sys.stderr)
            return EXIT_BAD_CONFIG
        if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            print(f"error: {flag} {path} is a directory or lies in a "
                  "missing one", file=sys.stderr)
            return EXIT_BAD_CONFIG

    config = RunConfig(N=args.N, a=args.a, m=args.m, mode=args.mode,
                       seed=args.seed, counts_only=args.counts_only)
    status, report = run(config, dump=args.dump_circuit is not None)
    if "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
    text = json.dumps(report, indent=2)
    try:
        if args.report is not None:
            with open(args.report, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        if args.dump_circuit is not None and status == EXIT_OK:
            _write_dump(config, args.dump_circuit)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    return status


if __name__ == "__main__":
    sys.exit(main())
