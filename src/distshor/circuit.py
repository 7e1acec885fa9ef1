"""Reversible gate IR: instructions, builders, inversion, execution, counting.

An ``Instruction`` is a gate plus quantum controls, with three optional
classical attachments:

* ``classical_constant``: a precomputed 0/1 constant gating the gate.  The
  instruction is part of the circuit (and is counted) either way; a 0 simply
  disables it at execution time.  This models gates conditioned on bits of a
  classically known addend.
* ``condition``: ids of classical bits whose XOR must be 1 for the gate to
  fire (written earlier by measurements).
* ``classical_out``: destination bit for MEASURE results.

``MOVE src dst`` relocates a qubit state into a |0> slot.  Executed locally
it is a SWAP; a distributed executor realizes it as a teleport.  MOVE is a
relocation directive, so it is ignored by gate counting and is not wrapped
by ``add_controls``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterable, NamedTuple, Sequence

from . import gates
from .gates import MEASURE, MOVE, RESET, GateKind, is_unitary
from .qstate import Control, QuantumState, RandomSource


class Instruction(NamedTuple):
    kind: GateKind
    targets: tuple[int, ...]
    controls: tuple[Control, ...] = ()
    classical_constant: int | None = None
    condition: tuple[int, ...] = ()
    classical_out: int | None = None
    label: str = ""
    block: str | None = None

    def is_gate(self) -> bool:
        return is_unitary(self.kind)


class Circuit:
    """Ordered instruction list over a fixed qubit/classical-bit pool.

    Treat circuits as immutable once built: builders append, everything
    downstream only reads, so sharing across execution contexts is safe.
    """

    def __init__(self, num_qubits: int, num_classical_bits: int = 0):
        self.num_qubits = num_qubits
        self.num_classical_bits = num_classical_bits
        self.instructions: list[Instruction] = []

    # -- append API ------------------------------------------------------

    def append(self, inst: Instruction) -> "Circuit":
        for q in inst.targets:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range")
        for q, _pol in inst.controls:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range")
        self.instructions.append(inst)
        return self

    def gate(self, kind: GateKind, targets: Sequence[int],
             controls: Iterable[Control] = (), *,
             classical_constant: int | None = None,
             condition: Iterable[int] = (), label: str = "",
             block: str | None = None) -> "Circuit":
        return self.append(Instruction(
            kind, tuple(targets), tuple(controls), classical_constant,
            tuple(condition), None, label, block))

    def x(self, t, **kw):
        return self.gate(gates.X, [t], **kw)

    def z(self, t, **kw):
        return self.gate(gates.Z, [t], **kw)

    def h(self, t, **kw):
        return self.gate(gates.H, [t], **kw)

    def r(self, k, t, **kw):
        return self.gate(gates.R(k), [t], **kw)

    def cnot(self, c, t, **kw):
        return self.gate(gates.CNOT, [c, t], **kw)

    def toffoli(self, c1, c2, t, **kw):
        return self.gate(gates.TOFFOLI, [c1, c2, t], **kw)

    def swap(self, a, b, **kw):
        return self.gate(gates.SWAP, [a, b], **kw)

    def measure(self, q: int, cbit: int | None = None, *,
                label: str = "") -> int:
        """Append a measurement; returns the classical bit id written."""
        if cbit is None:
            cbit = self.num_classical_bits
            self.num_classical_bits += 1
        elif cbit >= self.num_classical_bits:
            self.num_classical_bits = cbit + 1
        self.append(Instruction(MEASURE, (q,), classical_out=cbit,
                                label=label))
        return cbit

    def reset(self, q: int, *, label: str = ""):
        return self.append(Instruction(RESET, (q,), label=label))

    def move(self, src: int, dst: int, *, label: str = ""):
        if src == dst:
            raise ValueError("MOVE needs distinct qubits")
        return self.append(Instruction(MOVE, (src, dst), label=label))

    def extend(self, other: "Circuit") -> "Circuit":
        """Append another circuit's instructions as they are."""
        if other.num_qubits > self.num_qubits:
            raise ValueError("sub-circuit uses more qubits than the target")
        self.num_classical_bits = max(self.num_classical_bits,
                                      other.num_classical_bits)
        self.instructions.extend(other.instructions)
        return self

    # -- queries ---------------------------------------------------------

    def used_qubits(self) -> set[int]:
        insts = self.instructions
        used = {q for inst in insts for q in inst.targets}
        used.update(q for inst in insts for q, _ in inst.controls)
        return used

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class GateCountReport:
    """Gate tally; a multi-controlled gate counts as one gate."""

    total: int = 0
    per_label: dict[str, int] = field(default_factory=dict)

    def count_under(self, prefix: str) -> int:
        """Total gates whose label equals or nests under ``prefix``."""
        return sum(n for lbl, n in self.per_label.items()
                   if lbl == prefix or lbl.startswith(prefix + "/"))


def count_gates(circ: Circuit) -> GateCountReport:
    """Count gate instructions; MEASURE/RESET/MOVE are not gates."""
    report = GateCountReport()
    for inst in circ.instructions:
        if not inst.is_gate():
            continue
        report.total += 1
        report.per_label[inst.label] = report.per_label.get(inst.label, 0) + 1
    return report


def reverse(circ: Circuit) -> Circuit:
    """Reverse computation: inverted gates in reverse order.

    Requires a measurement-free circuit (no MEASURE/RESET, no classical
    conditions).  MOVE directives reverse their direction.
    """
    out = Circuit(circ.num_qubits, circ.num_classical_bits)
    for inst in reversed(circ.instructions):
        name = inst.kind.name
        if name in ("MEASURE", "RESET") or inst.condition:
            raise ValueError(
                f"cannot reverse non-unitary instruction {name}")
        if name == "MOVE":
            inst = Instruction(MOVE, inst.targets[::-1], *inst[2:])
        else:
            inst = Instruction(gates.inverse(inst.kind), *inst[1:])
        out.instructions.append(inst)
    return out


def add_controls(circ: Circuit, extra: Sequence[Control]) -> Circuit:
    """Give every gate additional controls; MOVE directives are exempt.

    The extra control qubits must not be touched by the circuit, and no
    resulting gate may exceed 5 controls (CNOT/TOFFOLI count their built-in
    controls).
    """
    extra = tuple(extra)
    used = circ.used_qubits()
    for q, _pol in extra:
        if q in used:
            raise ValueError(f"control qubit {q} collides with the circuit")
        if not 0 <= q < circ.num_qubits:
            raise ValueError(f"control qubit {q} out of range")
    if len({q for q, _ in extra}) != len(extra):
        raise ValueError("duplicate control qubits")

    builtin = {"CNOT": 1, "TOFFOLI": 2}
    out = Circuit(circ.num_qubits, circ.num_classical_bits)
    for inst in circ.instructions:
        name = inst.kind.name
        if name == "MOVE":
            out.instructions.append(inst)
            continue
        if name in ("MEASURE", "RESET") or inst.condition:
            raise ValueError("cannot add controls to a measuring circuit")
        n_controls = (len(inst.controls) + len(extra)
                      + builtin.get(name, 0))
        if n_controls > 5:
            raise ValueError(
                f"gate would carry {n_controls} controls (max 5)")
        out.instructions.append(Instruction(
            inst.kind, inst.targets, inst.controls + extra, *inst[3:]))
    return out


_PERMUTATIONS = frozenset({"X", "CNOT", "TOFFOLI", "MCX", "SWAP"})


def _in_run(inst: Instruction) -> bool:
    """Whether ``execute`` hands the instruction to the permutation run
    kernel: MOVE, or a permutation gate without a classical condition."""
    name = inst.kind.name
    return name == "MOVE" or (name in _PERMUTATIONS and not inst.condition)


def _run_gates(insts: Iterable[Instruction]):
    """The gates of a run for ``QuantumState.apply_permutation``: MOVE as
    SWAP, gates disabled by a 0 constant left out."""
    for inst in insts:
        if inst.kind.name == "MOVE":
            yield gates.SWAP, inst.targets, ()
        elif inst.classical_constant != 0:
            yield inst.kind, inst.targets, inst.controls


def execute(circ: Circuit, state: QuantumState,
            rng: RandomSource) -> tuple[QuantumState, list[int]]:
    """Run a circuit on a state; returns the state and the measurement
    transcript (MEASURE outcomes in program order).

    Each maximal run of unconditioned permutation instructions goes to
    ``QuantumState.apply_permutation`` in one call; that gives the same
    state, entry order included, as applying its gates one by one.
    RESET measures the qubit and applies a classically controlled X, so the
    qubit ends in |0> without being counted as a gate.  A classical
    condition fires its gate iff the XOR of the referenced bits is 1.
    """
    if state.num_qubits < circ.num_qubits:
        raise ValueError("state is smaller than the circuit's qubit pool")
    bits: dict[int, int] = {}
    transcript: list[int] = []
    for in_run, insts in groupby(circ.instructions, key=_in_run):
        if in_run:
            state.apply_permutation(_run_gates(insts))
            continue
        for inst in insts:
            name = inst.kind.name
            if name == "MEASURE":
                outcome = state.measure(inst.targets[0], rng)
                bits[inst.classical_out] = outcome
                transcript.append(outcome)
                continue
            if name == "RESET":
                outcome = state.measure(inst.targets[0], rng)
                if outcome:
                    state.apply_gate(gates.X, inst.targets)
                if inst.classical_out is not None:
                    bits[inst.classical_out] = outcome
                continue
            if inst.classical_constant == 0:
                continue
            if inst.condition:
                try:
                    parity = 0
                    for b in inst.condition:
                        parity ^= bits[b]
                except KeyError as exc:
                    raise ValueError(
                        f"condition reads unwritten classical bit {exc}"
                    ) from exc
                if not parity:
                    continue
            state.apply_gate(inst.kind, inst.targets, inst.controls)
    return state, transcript


def dump(circ: Circuit) -> str:
    """Line-oriented text dump, one instruction per line, bit-exact.

    Format: ``LABEL | GATE | targets | controls(+/-) | classical``.
    """
    lines = []
    for inst in circ.instructions:
        ctrls = ",".join(f"{'+' if pol else '-'}{q}"
                         for q, pol in inst.controls)
        classical = []
        if inst.classical_constant is not None:
            classical.append(f"const={inst.classical_constant}")
        if inst.condition:
            classical.append(
                "if=" + "^".join(str(b) for b in inst.condition))
        if inst.classical_out is not None:
            classical.append(f"out={inst.classical_out}")
        lines.append(" | ".join([
            inst.label or "-",
            str(inst.kind),
            ",".join(str(t) for t in inst.targets),
            ctrls or "-",
            ";".join(classical) or "-",
        ]))
    return "\n".join(lines) + ("\n" if lines else "")
