"""Output checks and determinism digests for one job's report."""

from __future__ import annotations

import hashlib
import json

from workloads import Job, multiplicative_order

# n at which all four adder nodes hold a register slice; only there do
# the measured leaves reach NL(c_m) = 44mn and T = 12mn.
FULL_SLICE_WIDTHS = (4, 7, 8)
DIGEST_KEYS = ("outcome", "rounds", "ledger")


class CheckError(Exception):
    """A report that contradicts the program's stated invariants."""


def digest_key(job: Job) -> str:
    """Key of the recorded digest a job must reproduce.

    Counts-only reports depend on the register widths alone (the circuit
    structure does not depend on the constants), so they share one digest
    per (n, m).
    """
    if job.counts_only:
        return f"census/n={job.n}/m={job.m}"
    return f"{job.mode}/N={job.N}/a={job.a}/m={job.m}/seed={job.seed}"


def digest(report: dict) -> str:
    """Hash of the simulated statistics: outcome, rounds, ledger and the
    gate and communication counts.  Timings are left out."""
    stats = {key: report.get(key) for key in DIGEST_KEYS}
    stats["G_measured"] = report["counts"]["G_measured"]
    stats["NL_T"] = report["counts"]["NL_T"]
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(job: Job, status: int, report: dict) -> bool:
    """Raise CheckError if the report is wrong; return whether the NL/T
    predictions in the report disagree with the measured rollup (a known
    gap at n = 5, 6 that is counted, not failed)."""
    if status != 0:
        raise CheckError(f"exit status {status}: {report.get('error')}")
    counts = report["counts"]
    n, m = job.n, job.m
    _check_rollup(counts["NL_T"], n, m)
    c_m = counts["NL_T"]["per_level"]["c_m(M)"]
    if n in FULL_SLICE_WIDTHS and (c_m["NL"], c_m["T"]) != (44 * m * n,
                                                          12 * m * n):
        raise CheckError(f"NL/T of c_m is {c_m}, expected 44mn/12mn")
    predictions = counts["predictions"]
    mismatch = (c_m["NL"] != predictions["NL(c_m(M))"]
                or c_m["T"] != predictions["T(SHOR)"])
    if not job.counts_only:
        _check_factoring(job, report)
    return mismatch


def _check_factoring(job: Job, report: dict):
    factors = report["outcome"].get("factors")
    if not factors or len(factors) != 2:
        raise CheckError(f"no factors: {report['outcome']}")
    p, q = factors
    if not (1 < p < job.N and 1 < q < job.N and p * q == job.N):
        raise CheckError(f"factors {factors} do not split {job.N}")
    order = multiplicative_order(job.a, job.N)
    for rnd in report["rounds"]:
        if rnd["r_found"] is not None and rnd["r_found"] != order:
            raise CheckError(f"round found r={rnd['r_found']}, "
                             f"true order is {order}")
    ledger = report["ledger"]
    if job.mode == "monolithic":
        if any(ledger[key] for key in ledger):
            raise CheckError(f"monolithic job used the network: {ledger}")
    elif not (ledger["cbits_total"] == 2 * ledger["ebits"]
              == 2 * ledger["pairs_established"] > 0):
        raise CheckError(f"ledger breaks 1 ebit + 2 cbits: {ledger}")


def _check_rollup(nlt: dict, n: int, m: int):
    """The per-level table must follow from the measured leaves."""
    leaves = nlt["leaves_measured"]
    an, copy, swap = leaves["AN"], leaves["COPY"], leaves["SWAP"]
    levels = nlt["per_level"]
    xan = (2 * an["NL"] + copy["NL"], 2 * an["T"])
    adder = (2 * xan[0] + swap["NL"], xan[1])
    expect = {
        "AN": (an["NL"], an["T"]),
        "XAN": xan,
        "A": adder,
        "M": (n * adder[0], n * adder[1]),
        "c_m(M)": (m * n * adder[0], m * n * adder[1]),
    }
    for level, (nl, t) in expect.items():
        got = levels[level]
        if (got["NL"], got["T"]) != (nl, t):
            raise CheckError(f"rollup {level} is {got}, leaves give "
                             f"{nl}/{t}")
    c_m, qft, shor = levels["c_m(M)"], levels["QFT_inv"], levels["SHOR"]
    if (shor["NL"], shor["T"]) != (c_m["NL"] + qft["NL"],
                                   c_m["T"] + qft["T"]):
        raise CheckError(f"rollup SHOR {shor} is not c_m + QFT_inv")
