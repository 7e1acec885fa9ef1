"""Sparse statevector simulation kernel.

A state over ``num_qubits`` qubits is a map ``basis index -> complex
amplitude`` where qubit ``i`` is bit ``i`` of the index (little-endian).
Only nonzero amplitudes are stored, so a register of 50 qubits is cheap as
long as the support stays small, which is exactly the regime the factoring
circuits live in (support bounded by the first-register superposition).

Controls are lists of ``(qubit, polarity)`` pairs; a negative polarity
(``False``) fires when the control qubit is 0, so anticontrolled branches
need no X sandwiches.

Runs of permutation gates (X, CNOT, TOFFOLI and SWAP, with any
controls, and the circuit IR's MOVE, a SWAP into a slot it checks is
|0>) go through ``apply_permutation``, a bit-sliced kernel: each
qubit the run touches is held as one Python int with one bit per support
entry, so a controlled X is ``col[t] ^= AND(control columns)`` and a
controlled SWAP a masked exchange, one big-int operation per gate at any
support size (bitslicing, as in Biham's software DES, 1997).  Its results
are bit-exact with applying the gates one by one through ``apply_gate``:
a permutation only relabels basis indices, the amplitude values are
carried over untouched, and both paths keep the dict's entry order, so
every later floating-point sum (H accumulation, ``measure``,
``prob_one``) adds the same numbers in the same order.
"""

from __future__ import annotations

import math
import random
from itertools import repeat
from typing import Iterable, Mapping, Sequence

from .gates import ARITY, SWAP, GateKind, X, is_unitary, phase_factor

_SQRT_HALF = 0.5**0.5
PRUNE_EPSILON = 1e-12  # H drops amplitudes at or below this magnitude

Control = tuple[int, bool]


class SimulationError(Exception):
    """Raised for malformed gate applications or corrupted states."""


class RandomSource:
    """Seeded PRNG; identical seed yields an identical outcome sequence."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def uniform(self) -> float:
        return self._rng.random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        return self._rng.randint(lo, hi)


class QuantumState:
    """Sparse register of ``num_qubits`` qubits, initially |0...0>.

    Single-writer: one thread mutates a state at a time.  Reads
    (``exact_distribution``, ``prob_one``, ``amplitude``) are safe to run
    concurrently as long as nothing is writing.
    """

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.num_qubits = num_qubits
        self.amplitudes: dict[int, complex] = {0: 1.0 + 0.0j}
        self.peak_support = 1  # largest support seen, for sparsity checks

    @classmethod
    def from_amplitudes(cls, num_qubits: int,
                        amplitudes: Mapping[int, complex]) -> "QuantumState":
        """Build a state from explicit amplitudes (normalized on entry)."""
        state = cls(num_qubits)
        norm = sum(abs(a) ** 2 for a in amplitudes.values()) ** 0.5
        if norm < 1e-12:
            raise ValueError("cannot normalize an all-zero amplitude map")
        limit = 1 << num_qubits
        state.amplitudes = {}
        for idx, amp in amplitudes.items():
            if not 0 <= idx < limit:
                raise ValueError(f"basis index {idx} out of range")
            value = complex(amp) / norm
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"amplitude at {idx} is not finite")
            state.amplitudes[idx] = value
        state.peak_support = len(state.amplitudes)
        return state

    def copy(self) -> "QuantumState":
        dup = QuantumState(self.num_qubits)
        dup.amplitudes = dict(self.amplitudes)
        dup.peak_support = self.peak_support
        return dup

    # -- queries ---------------------------------------------------------

    def norm_squared(self) -> float:
        return sum((a.real * a.real + a.imag * a.imag)
                   for a in self.amplitudes.values())

    def amplitude(self, index: int) -> complex:
        return self.amplitudes.get(index, 0.0 + 0.0j)

    def prob_one(self, qubit: int) -> float:
        """Marginal probability that ``qubit`` reads 1."""
        self._check_qubit(qubit)
        mask = 1 << qubit
        return sum(a.real * a.real + a.imag * a.imag
                   for idx, a in self.amplitudes.items() if idx & mask)

    def exact_distribution(self, qubits: Sequence[int]) -> dict[int, float]:
        """Marginal distribution over ``qubits``.

        The key packs the listed qubits little-endian: bit ``i`` of the key
        is the value of ``qubits[i]``, so listing a register LSB-first makes
        the key equal to the register's integer value.
        """
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubit ids")
        for q in qubits:
            self._check_qubit(q)
        dist: dict[int, float] = {}
        for idx, amp in self.amplitudes.items():
            key = 0
            for i, q in enumerate(qubits):
                key |= ((idx >> q) & 1) << i
            p = amp.real * amp.real + amp.imag * amp.imag
            dist[key] = dist.get(key, 0.0) + p
        return dist

    # -- gate application ------------------------------------------------

    def apply_gate(self, gate: GateKind, targets: Sequence[int],
                   controls: Iterable[Control] = ()) -> "QuantumState":
        """Apply a (multi-)controlled gate in place and return self.

        Negative-polarity controls fire when the control qubit is 0.
        CNOT/TOFFOLI are normalized to a controlled X internally.
        """
        base, targets, controls = self._normalize(gate, targets, controls)
        cmask = 0
        cval = 0
        for q, pol in controls:
            cmask |= 1 << q
            if pol:
                cval |= 1 << q

        amps = self.amplitudes
        name = base.name
        if name == "X":
            tmask = 1 << targets[0]
            self.amplitudes = {
                (idx ^ tmask) if (idx & cmask) == cval else idx: a
                for idx, a in amps.items()
            }
        elif name == "Z":
            tmask = 1 << targets[0]
            for idx, a in amps.items():
                if (idx & cmask) == cval and idx & tmask:
                    amps[idx] = -a
        elif name in ("R", "R_INV", "PHASE"):
            tmask = 1 << targets[0]
            w = phase_factor(base)
            for idx, a in amps.items():
                if (idx & cmask) == cval and idx & tmask:
                    amps[idx] = a * w
        elif name == "SWAP":
            m0 = 1 << targets[0]
            m1 = 1 << targets[1]
            both = m0 | m1
            new = {}
            for idx, a in amps.items():
                if (idx & cmask) == cval and bool(idx & m0) != bool(idx & m1):
                    new[idx ^ both] = a
                else:
                    new[idx] = a
            self.amplitudes = new
        elif name == "H":
            tmask = 1 << targets[0]
            new: dict[int, complex] = {}
            get = new.get
            for idx, a in amps.items():
                if (idx & cmask) != cval:
                    new[idx] = get(idx, 0.0) + a
                    continue
                a = a * _SQRT_HALF
                lo = idx & ~tmask
                hi = idx | tmask
                new[lo] = get(lo, 0.0) + a
                new[hi] = get(hi, 0.0) + (-a if idx & tmask else a)
            self.amplitudes = {i: a for i, a in new.items()
                               if abs(a) > PRUNE_EPSILON}
        else:  # pragma: no cover - _normalize rejects everything else
            raise SimulationError(f"unknown gate kind {name}")
        if len(self.amplitudes) > self.peak_support:
            self.peak_support = len(self.amplitudes)
        return self

    def apply_permutation(self, run: Iterable[tuple[GateKind, Sequence[int],
                                                    Iterable[Control]]]
                          ) -> "QuantumState":
        """Apply a run of X/CNOT/TOFFOLI/SWAP gates and MOVEs in place
        and return self.

        The run is consumed one gate at a time; each gate goes through the
        same validation as ``apply_gate``, and a MOVE, a SWAP, also checks
        that its destination (second target) is |0>.  Every qubit the run
        touches is held as one bitset over the support entries (bit k
        belongs to the k-th entry in dict order), so a gate is a few
        big-int operations whatever the support size.  When the run ends,
        also on an error, the entries get their new keys in their original
        order; the amplitude values are not touched.
        """
        amps = self.amplitudes
        width = self.num_qubits
        stride = width + 1
        full = (1 << len(amps)) - 1
        rows = None  # the keys as fixed-width binary slots, one per entry
        cols: dict[int, int] = {}  # qubit -> its bits over the entries

        def column(q: int) -> int:
            bits = cols.get(q)
            if bits is None:
                bits = int(rows[width - 1 - q::stride][::-1], 2)
                cols[q] = bits
            return bits

        try:
            for gate, targets, controls in run:
                move = gate.name == "MOVE"
                base, targets, controls = self._normalize(
                    SWAP if move else gate, targets, controls)
                if base.name not in ("X", "SWAP"):
                    raise SimulationError(
                        f"{gate} is not a permutation gate")
                if rows is None:
                    rows = " ".join(map(format, amps,
                                        repeat(f"0{width}b"))).encode()
                if move and column(targets[1]):
                    raise SimulationError(
                        f"destination slot {targets[1]} is not |0>")
                mask = full
                for q, pol in controls:
                    mask &= column(q) if pol else ~column(q)
                if base.name == "X":
                    cols[targets[0]] = column(targets[0]) ^ mask
                else:
                    a, b = targets
                    diff = (column(a) ^ column(b)) & mask
                    cols[a] ^= diff
                    cols[b] ^= diff
        finally:
            if cols:
                buf = bytearray(rows)
                spec = f"0{len(amps)}b"
                for q, bits in cols.items():
                    buf[width - 1 - q::stride] = \
                        format(bits, spec)[::-1].encode()
                self.amplitudes = dict(zip(map(int, buf.split(), repeat(2)),
                                           amps.values()))
        return self

    def measure(self, qubit: int, rng: RandomSource) -> int:
        """Project ``qubit``, sampling the outcome from its marginal.

        The post-state keeps only amplitudes consistent with the outcome,
        renormalized.  Returns the measured bit.
        """
        self._check_qubit(qubit)
        mask = 1 << qubit
        p_one = 0.0
        total = 0.0
        for idx, a in self.amplitudes.items():
            p = a.real * a.real + a.imag * a.imag
            total += p
            if idx & mask:
                p_one += p
        if total < 1e-9:
            raise SimulationError("corrupted state: total probability ~ 0")
        p_one /= total
        outcome = 1 if rng.uniform() < p_one else 0
        p_keep = p_one if outcome else 1.0 - p_one
        scale = 1.0 / (p_keep * total) ** 0.5
        want = mask if outcome else 0
        self.amplitudes = {
            idx: a * scale
            for idx, a in self.amplitudes.items() if (idx & mask) == want
        }
        return outcome

    # -- helpers ---------------------------------------------------------

    def _check_qubit(self, q: int):
        if not 0 <= q < self.num_qubits:
            raise SimulationError(
                f"qubit {q} out of range for {self.num_qubits}-qubit state")

    def _normalize(self, gate: GateKind, targets: Sequence[int],
                   controls: Iterable[Control]):
        """Fold CNOT/TOFFOLI into controlled X; validate ids."""
        if not is_unitary(gate):
            raise SimulationError(f"cannot apply non-unitary kind {gate.name}")
        targets = list(targets)
        controls = list(controls)
        expected = ARITY[gate.name]
        if len(targets) != expected:
            raise SimulationError(
                f"{gate} expects {expected} target(s), got {len(targets)}")
        if gate.name == "CNOT":
            controls = [(targets[0], True)] + controls
            gate, targets = X, targets[1:]
        elif gate.name == "TOFFOLI":
            controls = [(targets[0], True), (targets[1], True)] + controls
            gate, targets = X, targets[2:]
        for q in targets:
            self._check_qubit(q)
        seen = set(targets)
        if len(seen) != len(targets):
            raise SimulationError("duplicate target qubits")
        for q, _pol in controls:
            self._check_qubit(q)
            if q in seen:
                raise SimulationError(
                    f"qubit {q} used as both target and control")
            seen.add(q)
        return gate, targets, controls
