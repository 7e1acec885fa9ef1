"""Reversible gate IR: instructions, builders, inversion, execution, counting.

Circuits are unitary: every instruction is a gate or a relocation, and
measurement is left to the caller, which reads the state
(``QuantumState.measure``) once the circuit has run.

An ``Instruction`` is a gate plus quantum controls, with an optional
``classical_constant``: a precomputed 0/1 constant gating the gate.  The
instruction is part of the circuit (and is counted) either way; a 0 simply
disables it at execution time.  This models gates conditioned on bits of a
classically known addend.

``MOVE src dst`` relocates a qubit state into a |0> slot.  ``execute``
runs it as a SWAP and refuses it when the destination is not |0>; across
nodes the network bills it as a teleport.  MOVE is a relocation
directive, so it is ignored by gate counting and is not wrapped by
``add_controls``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterable, NamedTuple, Sequence

from . import gates
from .gates import MOVE, GateKind, is_unitary
from .qstate import Control, QuantumState


class Instruction(NamedTuple):
    kind: GateKind
    targets: tuple[int, ...]
    controls: tuple[Control, ...] = ()
    classical_constant: int | None = None
    label: str = ""
    block: str | None = None

    def is_gate(self) -> bool:
        return is_unitary(self.kind)


class Circuit:
    """Ordered instruction list over a fixed qubit pool.

    Treat circuits as immutable once built: builders append, everything
    downstream only reads, so sharing across execution contexts is safe.
    """

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
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
             classical_constant: int | None = None, label: str = "",
             block: str | None = None) -> "Circuit":
        return self.append(Instruction(
            kind, tuple(targets), tuple(controls), classical_constant,
            label, block))

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

    def move(self, src: int, dst: int, *, label: str = ""):
        if src == dst:
            raise ValueError("MOVE needs distinct qubits")
        return self.append(Instruction(MOVE, (src, dst), label=label))

    def extend(self, other: "Circuit") -> "Circuit":
        """Append another circuit's instructions as they are."""
        if other.num_qubits > self.num_qubits:
            raise ValueError("sub-circuit uses more qubits than the target")
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
    """Count gate instructions; a MOVE is not a gate."""
    report = GateCountReport()
    for inst in circ.instructions:
        if not inst.is_gate():
            continue
        report.total += 1
        report.per_label[inst.label] = report.per_label.get(inst.label, 0) + 1
    return report


def reverse(circ: Circuit) -> Circuit:
    """Reverse computation: inverted gates in reverse order; MOVE
    directives reverse their direction."""
    out = Circuit(circ.num_qubits)
    for inst in reversed(circ.instructions):
        if inst.kind.name == "MOVE":
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
    out = Circuit(circ.num_qubits)
    for inst in circ.instructions:
        if inst.kind.name == "MOVE":
            out.instructions.append(inst)
            continue
        n_controls = (len(inst.controls) + len(extra)
                      + builtin.get(inst.kind.name, 0))
        if n_controls > 5:
            raise ValueError(
                f"gate would carry {n_controls} controls (max 5)")
        out.instructions.append(Instruction(
            inst.kind, inst.targets, inst.controls + extra, *inst[3:]))
    return out


_RUN_KINDS = frozenset({"X", "CNOT", "TOFFOLI", "SWAP", "MOVE"})


def _in_run(inst: Instruction) -> bool:
    """Whether ``execute`` hands the instruction to the permutation run
    kernel: a permutation gate or a MOVE."""
    return inst.kind.name in _RUN_KINDS


def _run_gates(insts: Iterable[Instruction]):
    """The gates of a run for ``QuantumState.apply_permutation``, which
    checks that each MOVE lands in a |0> slot; gates disabled by a 0
    constant are left out."""
    for inst in insts:
        if inst.kind.name == "MOVE" or inst.classical_constant != 0:
            yield inst.kind, inst.targets, inst.controls


def execute(circ: Circuit, state: QuantumState):
    """Run a circuit on a state, in place.

    Each maximal run of permutation instructions and MOVEs goes to
    ``QuantumState.apply_permutation`` in one call; that gives the same
    state, entry order included, as applying its gates one by one, and
    raises ``SimulationError`` on a MOVE into a slot that is not |0>.
    Every other gate goes through ``apply_gate``, unless a 0 constant
    disables it.
    """
    if state.num_qubits < circ.num_qubits:
        raise ValueError("state is smaller than the circuit's qubit pool")
    for in_run, insts in groupby(circ.instructions, key=_in_run):
        if in_run:
            state.apply_permutation(_run_gates(insts))
            continue
        for inst in insts:
            if inst.classical_constant != 0:
                state.apply_gate(inst.kind, inst.targets, inst.controls)


def dump(circ: Circuit) -> str:
    """Line-oriented text dump, one instruction per line, bit-exact.

    Format: ``LABEL | GATE | targets | controls(+/-) | constant``.
    """
    lines = []
    for inst in circ.instructions:
        ctrls = ",".join(f"{'+' if pol else '-'}{q}"
                         for q, pol in inst.controls)
        const = inst.classical_constant
        lines.append(" | ".join([
            inst.label or "-",
            str(inst.kind),
            ",".join(str(t) for t in inst.targets),
            ctrls or "-",
            "-" if const is None else f"const={const}",
        ]))
    return "\n".join(lines) + ("\n" if lines else "")
