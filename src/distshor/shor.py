"""Phase estimation, order finding, and the classical factoring wrapper.

Order finding runs phase estimation on the in-place modular multiplier
with the second register prepared in |1>, an even mixture of the
multiplier's eigenvectors, so each round samples an m-bit estimate j of
some t/r.  Continued fractions of j/2^m then propose candidate orders,
each verified classically by modular exponentiation before acceptance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import partition
from .circuit import Circuit, execute
from .netsim import Network, ResourceLedger
from .qft import build_inverse_qft
from .qstate import QuantumState, RandomSource
from .revarith import RegisterLayout, build_cm_m

MONOLITHIC = "monolithic"
DISTRIBUTED = "distributed"


@dataclass(frozen=True)
class PhaseEstimate:
    j: int
    m: int

    @property
    def theta(self) -> Fraction:
        return Fraction(self.j, 1 << self.m)


@dataclass
class OrderRound:
    j: int
    candidates: list[int]
    r_found: int | None


@dataclass
class OrderResult:
    a: int
    N: int
    r: int | None
    rounds_used: int
    transcript: list[OrderRound] = field(default_factory=list)
    ledger: ResourceLedger | None = None  # distributed-mode totals


@dataclass
class FactoringOutcome:
    N: int
    factors: tuple[int, int] | None
    failure: str | None
    attempts: list[int]
    seed: int
    order_results: list[OrderResult] = field(default_factory=list)


# -- phase estimation -------------------------------------------------------

def phase_estimate(controlled_power: Callable[[int, int], Circuit],
                   prepare: Circuit, m: int, n_target: int,
                   rng: RandomSource) -> PhaseEstimate:
    """Estimate the eigenphase of a unitary given its controlled powers.

    ``controlled_power(i, control_qubit)`` must return a circuit applying
    the unitary ``2^i`` times under the given control; target qubits are
    ``0..n_target-1`` and the estimation register sits above them.
    ``prepare`` initializes the eigenstate.  Returns the measured j; when
    the phase is an exact m-bit fraction j/2^m the result is j with
    certainty, otherwise the best estimate appears with probability at
    least 4/pi^2.
    """
    state = prepare_phase_state(controlled_power, prepare, m, n_target)
    run = OrderRun(tuple(range(n_target, n_target + m)), state)
    return PhaseEstimate(j=run.measure_first_register(rng), m=m)


def prepare_phase_state(controlled_power: Callable[[int, int], Circuit],
                        prepare: Circuit, m: int,
                        n_target: int) -> QuantumState:
    """Run the estimation circuit up to (not including) measurement."""
    if m < 1:
        raise ValueError("need at least one estimation qubit")
    k_qubits = tuple(range(n_target, n_target + m))
    pool = n_target + m
    prefix = estimation_prefix(
        Circuit(pool).extend(prepare), k_qubits,
        (controlled_power(i, kq) for i, kq in enumerate(k_qubits)))
    transform = build_inverse_qft(k_qubits, num_qubits=pool)
    return run_estimation(prefix, transform, k_qubits).state


def estimation_prefix(circ: Circuit, k_qubits: Sequence[int],
                      powers: Iterable[Circuit]) -> Circuit:
    """Phase estimation up to its inverse transform: append to the
    preparation ``circ`` an H on each estimation qubit, then the
    controlled powers."""
    for i, kq in enumerate(k_qubits):
        circ.h(kq, label=f"prep/H[{i}]")
    for power in powers:
        circ.extend(power)
    return circ


def order_prefix(layout: RegisterLayout, num_qubits: int,
                 ladder: Circuit) -> Circuit:
    """Order finding's estimation prefix: |1> in the multiplier register."""
    one = Circuit(num_qubits).x(layout.x[0], label="prep/one")
    return estimation_prefix(one, layout.k, [ladder])


@dataclass
class OrderRun:
    """One pre-measurement phase-estimation execution, either mode."""

    k_qubits: tuple[int, ...]
    state: QuantumState
    network: Network | None = None  # distributed mode: the run's network

    def first_register_distribution(self) -> dict[int, float]:
        return self.state.exact_distribution(self.k_qubits)

    def measure_first_register(self, rng: RandomSource) -> int:
        j = 0
        for i, q in enumerate(self.k_qubits):
            j |= self.state.measure(q, rng) << i
        return j


def run_estimation(prefix: Circuit, transform: Circuit,
                   k_qubits: tuple[int, ...]) -> OrderRun:
    """Execute a phase-estimation program up to measurement on a fresh
    state."""
    state = QuantumState(prefix.num_qubits)
    execute(prefix, state)
    execute(transform, state)
    return OrderRun(k_qubits, state)


# -- order finding -----------------------------------------------------------

# The most sparse-support entries an order-finding run may need: 4 * 2^m
# must fit, so the estimation register is at most 16 qubits wide.
SUPPORT_BUDGET = 1 << 18


def admission_error(m: int) -> str | None:
    """Why order finding with an m-bit estimation register is refused
    before anything is built, or None.

    The sparse support never exceeds 4 * 2^m: the estimation register
    contributes 2^m branches.  Both modes run the state through the same
    ``circuit.execute``; only the gate-by-gate shared-control protocol
    (netsim's reference primitives) adds a transient doubling on each
    side of a measurement, and the bound keeps that slack.
    """
    if 4 << m > SUPPORT_BUDGET:
        return (f"m = {m} needs up to 4 * 2^{m} = {4 << m} support "
                f"entries, over the budget of {SUPPORT_BUDGET} "
                f"(m <= {SUPPORT_BUDGET.bit_length() - 3})")
    return None


def order_circuit_parts(a: int, N: int,
                        m: int) -> tuple[Circuit, Circuit, RegisterLayout]:
    """Single-machine order-finding program, split before its inverse
    transform: (preparation + power ladder, inverse transform)."""
    layout = RegisterLayout.packed(N.bit_length(), m)
    modexp = order_prefix(layout, layout.num_data_qubits,
                          build_cm_m(a, N, m, layout))
    transform = build_inverse_qft(layout.k, num_qubits=layout.num_data_qubits)
    return modexp, transform, layout


def order_round(a: int, N: int, m: int,
                mode: str = MONOLITHIC) -> Callable[[RandomSource], OrderRun]:
    """Build the order-finding circuits once; the returned function
    executes them up to measurement on a fresh state at every call.  Its
    random source feeds the network's protocol measurements; a
    monolithic round draws nothing before measurement."""
    if mode == MONOLITHIC:
        modexp, transform, layout = order_circuit_parts(a, N, m)
        return lambda _rng: run_estimation(modexp, transform, layout.k)
    if mode != DISTRIBUTED:
        raise ValueError(f"unknown mode {mode!r}")
    plan = partition.plan_placement(N.bit_length(), m)
    modexp = partition.build_distributed_modexp_program(a, N, plan)
    transform = partition.build_distributed_transform_program(plan)

    def run(rng: RandomSource) -> OrderRun:
        network = partition.build_network(plan, rng)
        partition.distribute_circuit(modexp, plan, network)
        partition.distribute_circuit(transform, plan, network)
        return OrderRun(plan.layout.k, network.state, network)
    return run


def run_order_circuit(a: int, N: int, m: int, rng: RandomSource,
                      mode: str = MONOLITHIC) -> OrderRun:
    """Build and execute the order-finding circuit up to measurement."""
    return order_round(a, N, m, mode)(rng)


def continued_fraction(j: int, two_to_m: int, N: int) -> list[int]:
    """Denominators (< N, ascending, deduplicated) of the convergents of
    j / 2^m.  j = 0 carries no information and yields an empty list."""
    if not 0 <= j < two_to_m:
        raise ValueError("estimate out of range")
    if j == 0:
        return []
    denominators = []
    p, q = j, two_to_m
    k_prev, k = 1, 0  # convergent denominators, one step behind
    while q:
        a = p // q
        p, q = q, p - q * a
        k_prev, k = k, a * k + k_prev
        if k >= N:
            break
        if k not in denominators:
            denominators.append(k)
    return sorted(denominators)


def order_candidates(j: int, m: int, N: int) -> list[int]:
    """Candidate orders for one estimate: convergent denominators and
    their small multiples (recovers r when the sampled t shares a factor
    with it), ascending."""
    n = N.bit_length()
    base = continued_fraction(j, 1 << m, N)
    cands = {c * d for d in base for c in range(1, n + 1)
             if 1 <= c * d < N}
    return sorted(cands)


def _minimal_order(a: int, N: int, exponent: int) -> int:
    """Shrink a verified exponent to the least one: divide out primes
    while the power stays 1."""
    e = exponent
    f = 2
    remaining = exponent
    while f * f <= remaining:
        while remaining % f == 0:
            remaining //= f
            if pow(a, e // f, N) == 1:
                e //= f
        f += 1
    if remaining > 1 and pow(a, e // remaining, N) == 1:
        e //= remaining
    return e


def find_order(a: int, N: int, m: int | None, rng: RandomSource, *,
               mode: str = MONOLITHIC,
               max_rounds: int | None = None) -> OrderResult:
    """Quantum order finding with classical verification.

    The circuits are built once per call and run again in every round.
    Each round measures an estimate j, derives candidate orders from the
    continued-fraction convergents of j/2^m, and accepts the smallest
    candidate e with a^e = 1 mod N (minimized over divisors, so the
    returned r is the true order).  Unproductive rounds retry up to
    ``max_rounds``.
    """
    if not 1 < a < N:
        raise ValueError("base must lie strictly between 1 and N")
    if math.gcd(a, N) != 1:
        raise ValueError(f"{a} shares a factor with {N}")
    if m is None:
        m = 2 * N.bit_length()
    if m < 1:
        raise ValueError(f"estimation width m must be at least 1, got {m}")
    error = admission_error(m)
    if error is not None:
        raise ValueError(error)
    if max_rounds is None:
        max_rounds = default_max_rounds(N)
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")

    result = OrderResult(a=a, N=N, r=None, rounds_used=0)
    if mode == DISTRIBUTED:
        result.ledger = ResourceLedger()
    run_round = order_round(a, N, m, mode)
    for _ in range(max_rounds):
        run = run_round(rng)
        j = run.measure_first_register(rng)
        if run.network is not None:
            result.ledger.merge(run.network.ledger)
        result.rounds_used += 1
        cands = order_candidates(j, m, N)
        found = None
        for e in cands:
            if pow(a, e, N) == 1:
                found = _minimal_order(a, N, e)
                break
        result.transcript.append(OrderRound(j=j, candidates=cands,
                                            r_found=found))
        if found is not None:
            result.r = found
            return result
    return result


def default_max_rounds(N: int) -> int:
    loglog = math.ceil(math.log2(max(2.0, math.log2(N))))
    return 8 * loglog + 8


# -- classical wrapper --------------------------------------------------------

_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(N: int) -> bool:
    """Miller-Rabin primality test over the prime bases 2..41.

    Exact for N < 3,317,044,064,679,887,385,961,981 (Sorenson and
    Webster, "Strong pseudoprimes to twelve prime bases", 2017); above
    that bound a True answer means N is a strong probable prime to all
    thirteen bases.
    """
    if N < 2:
        return False
    for p in _PRIME_BASES:
        if N % p == 0:
            return N == p
    d, s = N - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _PRIME_BASES:
        x = pow(base, d, N)
        if x == 1 or x == N - 1:
            continue
        for _ in range(s - 1):
            x = x * x % N
            if x == N - 1:
                break
        else:
            return False
    return True


def prime_power_root(N: int) -> int | None:
    """The smallest p with N = p^k (k >= 2), if one exists: the prime
    when N is a prime power.  Exact integer arithmetic at any size."""
    for k in range(N.bit_length(), 1, -1):
        p = 0  # floor of the k-th root, set one bit at a time from the top
        for bit in range(N.bit_length() // k, -1, -1):
            if (p | 1 << bit) ** k <= N:
                p |= 1 << bit
        if p >= 2 and p**k == N:
            return p
    return None


def classical_rejection(N: int) -> str | None:
    """Inputs the quantum routine refuses: even, prime, or prime powers."""
    if N < 3:
        return "N must be at least 3"
    if N % 2 == 0:
        return "N must be odd"
    if is_prime(N):
        return "N is prime"
    root = prime_power_root(N)
    if root is not None and is_prime(root):
        return "N is a prime power"
    return None


def factor(N: int, rng: RandomSource, *, a: int | None = None,
           m: int | None = None, mode: str = MONOLITHIC,
           max_rounds: int | None = None,
           max_attempts: int = 16) -> FactoringOutcome:
    """Factor an odd composite N that is not a prime power.

    Pick a base (or use the fixed one), shortcut on a shared factor, find
    its order r, and when r is even with a^(r/2) != -1 mod N read the
    factors off gcd(a^(r/2) +- 1, N).  Otherwise retry with a new base.
    """
    reason = classical_rejection(N)
    if reason is not None:
        return FactoringOutcome(N=N, factors=None, failure=reason,
                                attempts=[], seed=rng.seed)
    outcome = FactoringOutcome(N=N, factors=None, failure=None,
                               attempts=[], seed=rng.seed)
    for _ in range(max_attempts):
        base = a if a is not None else rng.randint(2, N - 1)
        outcome.attempts.append(base)
        g = math.gcd(base, N)
        if g > 1:
            outcome.factors = (g, N // g)
            return outcome
        order = find_order(base, N, m, rng, mode=mode,
                           max_rounds=max_rounds)
        outcome.order_results.append(order)
        r = order.r
        if r is not None and r % 2 == 0:
            half = pow(base, r // 2, N)
            if half != N - 1:
                p = math.gcd(half - 1, N)
                q = math.gcd(half + 1, N)
                if 1 < p < N:
                    outcome.factors = (p, N // p)
                    return outcome
                if 1 < q < N:
                    outcome.factors = (q, N // q)
                    return outcome
        if a is not None:
            break  # a fixed base that fails cannot be retried
    outcome.failure = "retry budget exhausted"
    return outcome
