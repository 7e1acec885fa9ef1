"""Order finding by phase estimation, and the classical factoring wrapper.

Order finding runs phase estimation on the in-place modular multiplier
with the second register prepared in |1>, an even mixture of the
multiplier's eigenvectors, so each round samples an m-bit estimate j of
some t/r.  Continued fractions of j/2^m then propose candidate orders,
each verified classically by modular exponentiation before acceptance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from . import partition
from .circuit import Circuit, execute
from .netsim import Network, ResourceLedger
from .qft import build_inverse_qft
from .qstate import QuantumState, RandomSource
from .revarith import RegisterLayout, build_cm_m

MONOLITHIC = "monolithic"
DISTRIBUTED = "distributed"


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
    transcript: list[OrderRound] = field(default_factory=list)
    # the network's totals over every round; empty on one machine
    ledger: ResourceLedger = field(default_factory=ResourceLedger)


@dataclass
class FactoringOutcome:
    N: int
    factors: tuple[int, int] | None
    failure: str | None
    order_results: list[OrderResult] = field(default_factory=list)


# -- order finding -----------------------------------------------------------

def order_prefix(layout: RegisterLayout, num_qubits: int,
                 ladder: Circuit) -> Circuit:
    """Order finding's phase estimation up to its inverse transform: |1>
    in the multiplier register, an H on each estimation qubit, then the
    controlled power ladder, its repeats (``build_cm_m``) kept."""
    circ = Circuit(num_qubits).x(layout.x[0], label="prep/one")
    for i, kq in enumerate(layout.k):
        circ.h(kq, label=f"prep/H[{i}]")
    return circ.extend(ladder)


@dataclass
class OrderRun:
    """One pre-measurement order-finding execution, either mode."""

    k_qubits: tuple[int, ...]
    state: QuantumState
    network: Network | None = None  # distributed mode: the billing network

    @property
    def ledger(self) -> ResourceLedger:
        """The round's bill: the network's ledger, empty on one machine."""
        if self.network is None:
            return ResourceLedger()
        return self.network.ledger

    def measure_first_register(self, rng: RandomSource) -> int:
        j = 0
        for i, q in enumerate(self.k_qubits):
            j |= self.state.measure(q, rng) << i
        return j


# Order finding is admitted while 4 * 2^m fits in this many sparse-support
# entries, which caps the estimation register at 16 qubits.  It does not
# bound a run's support (see ``admission_error``).
SUPPORT_BUDGET = 1 << 18


def admission_error(m: int) -> str | None:
    """Why order finding with an m-bit estimation register is refused
    before anything is built, or None.

    The check caps m at 16; no bound on the sparse support is enforced
    yet.  The support is at most r * 2^m, r the order of the base, and
    nears it when r does not divide 2^m: after the inverse transform each
    of the r values of the multiplier register carries up to 2^m values
    of the estimation register.  So a run under the cap can exceed
    4 * 2^m (N = 21, a = 2, m = 10 peaks at 6,140 entries).  Comparing
    exponents builds no 2^m: 4 * 2^m > budget iff m + 2 >= its bit length.
    """
    if m + 2 >= SUPPORT_BUDGET.bit_length():
        return (f"m = {m} is over the cap m <= "
                f"{SUPPORT_BUDGET.bit_length() - 3}, the largest m with "
                f"4 * 2^m within the budget of {SUPPORT_BUDGET} support "
                f"entries")
    return None


def order_circuit_parts(a: int, N: int,
                        m: int) -> tuple[Circuit, Circuit, RegisterLayout]:
    """Single-machine order-finding circuits, split before the inverse
    transform: (preparation + power ladder, inverse transform, layout)."""
    layout = RegisterLayout.packed(N.bit_length(), m)
    modexp = order_prefix(layout, layout.num_data_qubits,
                          build_cm_m(a, N, m, layout))
    transform = build_inverse_qft(layout.k, num_qubits=layout.num_data_qubits)
    return modexp, transform, layout


def order_round(a: int, N: int, m: int,
                mode: str = MONOLITHIC) -> Callable[[RandomSource], OrderRun]:
    """Build a round's one program (preparation, power ladder, inverse
    transform) once; the returned function runs it up to measurement, in
    one ``execute`` or ``execute_distributed``, on its first call only.

    Neither the pre-measurement state nor the bill depends on the
    round's coins, so every call, the first included, returns a copy of
    the first call's state with the network that billed it (none on one
    machine).  The first call's random source feeds the network's
    protocol measurements; every later call skips the bill's ``coins()``
    on its own source in one ``RandomSource.skip``, which leaves the
    stream where that many draws would, so the rounds read as if each
    were simulated afresh.  A monolithic round's bill has no coins."""
    if mode == MONOLITHIC:
        modexp, transform, layout = order_circuit_parts(a, N, m)
        program = modexp.extend(transform)

        def simulate(_rng: RandomSource) -> OrderRun:
            state = QuantumState(program.num_qubits)
            execute(program, state)
            return OrderRun(layout.k, state)
    elif mode == DISTRIBUTED:
        plan = partition.plan_placement(N.bit_length(), m)
        program = partition.build_distributed_order_program(a, N, plan)

        def simulate(rng: RandomSource) -> OrderRun:
            network = partition.build_network(plan, rng)
            partition.execute_distributed(network, program)
            return OrderRun(plan.layout.k, network.state, network)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    first: OrderRun | None = None

    def run(rng: RandomSource) -> OrderRun:
        nonlocal first
        if first is None:
            first = simulate(rng)
        else:
            rng.skip(first.ledger.coins())
        return OrderRun(first.k_qubits, first.state.copy(), first.network)
    return run


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


def find_order(a: int, N: int, m: int, rng: RandomSource, *,
               mode: str = MONOLITHIC) -> OrderResult:
    """Quantum order finding with classical verification.

    The round's one program is built and run once per call; every later
    round replays the first round's pre-measurement state and bill.
    Each round measures an estimate j, derives candidate orders from the
    continued-fraction convergents of j/2^m, and accepts the smallest
    candidate e with a^e = 1 mod N (minimized over divisors, so the
    returned r is the true order).  Unproductive rounds retry, up to
    ``default_max_rounds(N)`` rounds, one transcript entry each; when
    none verifies, the result's ``r`` is None.
    """
    if not 1 < a < N:
        raise ValueError("base must lie strictly between 1 and N")
    if math.gcd(a, N) != 1:
        raise ValueError(f"{a} shares a factor with {N}")
    if m < 1:
        raise ValueError(f"estimation width m must be at least 1, got {m}")
    error = admission_error(m)
    if error is not None:
        raise ValueError(error)

    result = OrderResult(a=a, N=N, r=None)
    run_round = order_round(a, N, m, mode)
    for _ in range(default_max_rounds(N)):
        run = run_round(rng)
        j = run.measure_first_register(rng)
        result.ledger.merge(run.ledger)
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
    """Order-finding rounds tried per base: 8 ceil(log2 log2 N) + 8."""
    loglog = math.ceil(math.log2(max(2.0, math.log2(N))))
    return 8 * loglog + 8


# -- classical wrapper --------------------------------------------------------

# Bases a factoring run draws before it gives up.
MAX_ATTEMPTS = 16

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


def factor(N: int, rng: RandomSource, *, a: int | None = None, m: int,
           mode: str = MONOLITHIC) -> FactoringOutcome:
    """Factor an odd composite N that is not a prime power, with an m-bit
    estimation register.

    Pick a base (or use the fixed one), shortcut on a shared factor, find
    its order r within ``find_order``'s per-base round cap, and when r is
    even with a^(r/2) != -1 mod N read the factors off
    gcd(a^(r/2) - 1, N).  Otherwise retry with a new base, up to
    ``MAX_ATTEMPTS`` bases; a fixed base is tried once.
    """
    outcome = FactoringOutcome(N=N, factors=None,
                               failure=classical_rejection(N))
    if outcome.failure is not None:
        return outcome
    for _ in range(MAX_ATTEMPTS):
        base = a if a is not None else rng.randint(2, N - 1)
        g = math.gcd(base, N)
        if g > 1:
            outcome.factors = (g, N // g)
            return outcome
        order = find_order(base, N, m, rng, mode=mode)
        outcome.order_results.append(order)
        r = order.r
        if r is not None and r % 2 == 0:
            half = pow(base, r // 2, N)
            # half^2 = 1 but half != +-1 mod N: N splits over half -+ 1
            if half not in (1, N - 1):
                p = math.gcd(half - 1, N)
                outcome.factors = (p, N // p)
                return outcome
        if a is not None:
            break  # a fixed base that fails cannot be retried
    outcome.failure = "retry budget exhausted"
    return outcome
