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
support size (bitslicing, as in Biham's software DES, 1997).  Every run
is checked and planned by position before it runs: each distinct gate
once, into a plan of qubit ids that its later visits apply directly, so
a refused gate leaves the state untouched; a MOVE checks its |0>
destination slot on each visit.  A run comes as pieces, as a circuit
stores them (``circuit.Circuit.pieces``): lists of instructions, and
repeats (``circuit.Repeat``) of an earlier list, their first, that read
qubit ``control`` wherever the first reads ``base``, as a power
ladder's multipliers read k_i in place of k_0.  The kernel plans each
list once and runs a repeat from its first's plans with ``base``'s
bitset set to ``control``'s and the repeat's constants read, so the
ladder's m multipliers pay for one multiplier's checks and keys and
create no instructions.  The kernel's results are bit-exact with
applying the gates one by one through ``apply_gate``: a permutation
only relabels basis indices, the amplitude values are carried over
untouched, and both paths keep the dict's entry order, so every later
floating-point sum (H accumulation, ``measure``, ``prob_one``) adds the
same numbers in the same order.
"""

from __future__ import annotations

import random
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Sequence

from .gates import ARITY, SWAP, GateKind, X, is_unitary, phase_factor

_SQRT_HALF = 0.5**0.5
PRUNE_EPSILON = 1e-12  # H drops amplitudes at or below this magnitude

Control = tuple[int, bool]


class SimulationError(Exception):
    """Raised for malformed gate applications or corrupted states."""


class RandomSource:
    """Seeded PRNG; identical seed yields an identical outcome sequence."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def uniform(self) -> float:
        return self._rng.random()

    def skip(self, count: int):
        """Advance the stream past ``count`` discarded ``uniform()`` draws
        in one call: each draw takes two 32-bit Mersenne Twister words, as
        every 64 bits of ``getrandbits`` do."""
        if count:
            self._rng.getrandbits(64 * count)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        return self._rng.randint(lo, hi)


class QuantumState:
    """Sparse register of ``num_qubits`` qubits, initially |0...0>.

    Single-writer: one thread mutates a state at a time.  Reads
    (``amplitudes``, ``exact_distribution``, ``prob_one``) are safe to run
    concurrently as long as nothing is writing.
    """

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.num_qubits = num_qubits
        self.amplitudes: dict[int, complex] = {0: 1.0 + 0.0j}
        self.peak_support = 1  # largest support seen, for sparsity checks

    def copy(self) -> "QuantumState":
        dup = QuantumState(self.num_qubits)
        dup.amplitudes = dict(self.amplitudes)
        dup.peak_support = self.peak_support
        return dup

    # -- queries ---------------------------------------------------------

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

    def apply_permutation(self, run: Sequence) -> "QuantumState":
        """Apply a run of X/CNOT/TOFFOLI/SWAP gates and MOVEs in place
        and return self.

        ``run`` is a sequence of pieces: lists of instructions ``(kind,
        targets, controls, classical_constant, ...)``, and repeats
        (``circuit.Repeat``), each run as its first list with its own
        constants and ``base`` aliased to ``control``: while it runs,
        ``base``'s bitset is ``control``'s.  A 0 constant disables every
        gate but a MOVE.  Before anything is applied, each list, a
        repeat's first too, is checked and planned position by position
        once (told by identity), its disabled gates too, by the same
        validation as ``apply_gate``; equal gates of a list share one
        plan of qubit ids.  A gate ``apply_gate`` refuses raises
        ``SimulationError`` with its message, and a repeat whose first
        writes ``base``, or whose ``control`` is out of range or, unless
        it is ``base``, a qubit of its first, raises ``ValueError``;
        either way the state is untouched.

        A MOVE, a SWAP, also checks that its destination (second target)
        is |0>, on every visit.  Every qubit the run touches is held as
        one bitset over the support entries (bit k belongs to the k-th
        entry in dict order), so a gate is a few big-int operations
        whatever the support size.  When the run ends, also on an error,
        the entries get their new keys in their original order; the
        amplitude values are not touched.
        """
        pieces = self._pieces(run)
        amps = self.amplitudes
        width = self.num_qubits
        stride = width + 1
        full = (1 << len(amps)) - 1
        # the keys as fixed-width binary slots, one per entry
        rows = " ".join(map(format, amps, repeat(f"0{width}b"))).encode()
        cols: dict[int, int] = {}  # qubit -> its bits over the entries
        kept = None  # (base, its own bits) while a repeat aliases base
        try:
            for constants, plans, touched, alias in pieces:
                for q in touched if alias is None else (*touched, alias[1]):
                    if q not in cols:
                        cols[q] = int(rows[width - 1 - q::stride][::-1], 2)
                if alias is not None:
                    base, control = alias
                    kept = base, cols[base]
                    cols[base] = cols[control]
                for (move, is_x, a, b, head, pos, neg), constant in zip(
                        plans, constants):
                    if move:
                        if cols[b]:
                            raise SimulationError(
                                f"destination slot {b} is not |0>")
                    elif constant == 0:
                        continue
                    mask = full if head is None else cols[head]
                    for q in pos:
                        mask &= cols[q]
                    for q in neg:
                        mask &= ~cols[q]
                    if is_x:
                        cols[a] ^= mask
                    else:
                        diff = (cols[a] ^ cols[b]) & mask
                        cols[a] ^= diff
                        cols[b] ^= diff
                if kept is not None:
                    cols[kept[0]] = kept[1]
                    kept = None
        finally:
            if kept is not None:
                cols[kept[0]] = kept[1]
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

    def _pieces(self, run):
        """Plan every piece of a run, each ``(constants, plans, touched,
        alias)``: a list's own constants, plans and qubits, or a repeat's
        constants with its first's plans and qubits and ``(base,
        control)`` when the repeat renames a qubit its first reads (else
        None).  Everything is checked before a piece runs."""
        planned = {}  # id of a list -> (plans, touched, written)
        pieces = []
        for piece in run:
            first = piece if type(piece) is list else piece.first
            if id(first) not in planned:
                planned[id(first)] = self._positional_plans(first)
            plans, touched, written = planned[id(first)]
            if first is piece:
                pieces.append((map(itemgetter(3), piece), plans, touched,
                               None))
                continue
            base, control = piece.base, piece.control
            if (base in written or not 0 <= control < self.num_qubits
                    or control != base and control in touched):
                raise ValueError(
                    f"a repeat reads control {control} for qubit {base}: "
                    f"its first must not write {base}, and {control} must "
                    f"be in range and off its first's qubits")
            alias = (base, control) if (base != control
                                        and base in touched) else None
            pieces.append((piece.constants, plans, touched, alias))
        return pieces

    def _positional_plans(self, first):
        """Check a list's instructions and plan them by position:
        ``(plans, touched, written)``.  A gate's plan is
        ``_permutation_plan``'s with its first positive control split off
        as ``head`` (None if it has none): ``(move, is_x, a, b, head,
        pos, neg)``.  Equal gates share one plan.  ``touched`` holds
        every qubit of the plans, ``written`` their targets."""
        plans, seen, touched, written = [], {}, set(), set()
        for inst in first:
            gate, targets, controls = inst[0], tuple(inst[1]), tuple(inst[2])
            key = gate.name, targets, controls
            plan = seen.get(key)
            if plan is None:
                move, is_x, a, b, pos, neg = self._permutation_plan(
                    gate, targets, controls)
                written.update((a, b))
                touched.update((a, b), pos, neg)
                head, pos = (pos[0], pos[1:]) if pos else (None, pos)
                plan = seen[key] = move, is_x, a, b, head, pos, neg
            plans.append(plan)
        return plans, touched, written

    def _permutation_plan(self, gate: GateKind, targets: Sequence[int],
                          controls: Iterable[Control]):
        """Check one gate of a permutation run and return its plan:
        ``(move, is_x, a, b, pos, neg)`` with targets ``a`` and ``b``
        (``b`` is ``a`` for an X) and the positive and negative control
        qubits; qubit ids only, so the plan holds for any support."""
        move = gate.name == "MOVE"
        base, targets, controls = self._normalize(
            SWAP if move else gate, targets, controls)
        if base.name not in ("X", "SWAP"):
            raise SimulationError(f"{gate} is not a permutation gate")
        return (move, base.name == "X", targets[0], targets[-1],
                tuple(q for q, pol in controls if pol),
                tuple(q for q, pol in controls if not pol))

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
