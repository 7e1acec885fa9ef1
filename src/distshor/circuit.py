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
directive, so gate counting ignores it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from typing import Iterable, NamedTuple, Sequence

from . import gates
from .gates import ARITY, MOVE, GateKind, is_unitary
from .qstate import Control, QuantumState


# ``_new(Instruction, fields)``, with a value for each of the six fields,
# skips the NamedTuple's Python-level ``__new__``: the builders use it.
_new = tuple.__new__


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

    ``repeats`` lists pairs ``(first, span)`` of instruction positions, as
    the power ladder's builder sets them (``shor.order_prefix``): ``span``
    repeats the earlier ``first`` gate by gate.  Gate p of a span equals
    gate p of its first except for its last control, whose qubit is the
    span's own control (k_i in place of the first's k_0), and its
    ``classical_constant``; its MOVEs equal the first's.  Two readers
    rely on it: the billing walk (``netsim.bill``) bills a span as its
    first's units, and the state kernel (``QuantumState.apply_permutation``,
    through ``execute``) runs a span from its first's plans.  Neither
    re-checks the gates of a span.
    """

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self.instructions: list[Instruction] = []
        self.repeats: list[tuple[range, range]] = []

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
        return self.append(_new(Instruction, (
            kind, tuple(targets), tuple(controls), classical_constant,
            label, block)))

    def x(self, t, **kw):
        return self.gate(gates.X, [t], **kw)

    def h(self, t, **kw):
        return self.gate(gates.H, [t], **kw)

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

    def __len__(self) -> int:
        return len(self.instructions)


def _nested(prefix: str) -> tuple[str, str]:
    """The labels under ``prefix`` lie in [lo, hi): "0" follows "/"."""
    return prefix + "/", prefix + "0"


@dataclass
class GateCountReport:
    """Gate tally; a multi-controlled gate counts as one gate."""

    total: int = 0
    per_label: dict[str, int] = field(default_factory=dict)

    def count_under(self, prefix: str) -> int:
        """Total gates whose label equals or nests under ``prefix``."""
        lo, hi = _nested(prefix)
        return sum(n for lbl, n in self.per_label.items()
                   if lbl == prefix or lo <= lbl < hi)

    def counts_under(self, prefixes: Iterable[str]) -> list[int]:
        """``count_under`` for each prefix, from one sort of the labels:
        the labels nested under a prefix are one run of the sorted list."""
        labels = sorted(self.per_label)
        sums = [0, *accumulate(self.per_label[lbl] for lbl in labels)]
        totals = []
        for prefix in prefixes:
            lo, hi = _nested(prefix)
            totals.append(self.per_label.get(prefix, 0)
                          + sums[bisect_left(labels, hi)]
                          - sums[bisect_left(labels, lo)])
        return totals


def count_gates(circ: Circuit) -> GateCountReport:
    """Count gate instructions; a MOVE is not a gate."""
    per_label = Counter(inst.label for inst in circ.instructions
                        if inst.kind.name in ARITY)
    return GateCountReport(per_label.total(), per_label)


def reverse(circ: Circuit) -> Circuit:
    """Reverse computation: inverted gates in reverse order; MOVE
    directives reverse their direction."""
    out = Circuit(circ.num_qubits)
    inverses: dict[GateKind, GateKind] = {}  # each kind is inverted once
    for inst in reversed(circ.instructions):
        kind = inst.kind
        if kind.name == "MOVE":
            inst = _new(Instruction, (MOVE, inst.targets[::-1], *inst[2:]))
        else:
            inverse = inverses.get(kind) or inverses.setdefault(
                kind, gates.inverse(kind))
            inst = _new(Instruction, (inverse, *inst[1:]))
        out.instructions.append(inst)
    return out


_RUN_KINDS = frozenset({"X", "CNOT", "TOFFOLI", "SWAP", "MOVE"})


def _in_run(inst: Instruction) -> bool:
    """Whether ``execute`` hands the instruction to the permutation run
    kernel: a permutation gate or a MOVE."""
    return inst.kind.name in _RUN_KINDS


def execute(circ: Circuit, state: QuantumState):
    """Run a circuit on a state, in place.

    Each maximal run of permutation instructions and MOVEs goes to
    ``QuantumState.apply_permutation`` in one call, with the circuit's
    repeats whose first starts in it; that gives the same state, entry
    order included, as applying its gates one by one.  The run is
    checked and planned by position before it runs, so a gate that
    ``apply_gate`` refuses raises ``SimulationError`` with the run's
    state untouched; a MOVE into a slot that is not |0> raises at its
    own visit.  Every other gate goes through ``apply_gate``, unless a 0
    constant disables it.  A repeat whose first starts outside every run
    raises ``ValueError`` before anything runs.
    """
    if state.num_qubits < circ.num_qubits:
        raise ValueError("state is smaller than the circuit's qubit pool")
    runs, starts, at = [], [], 0
    for in_run, insts in groupby(circ.instructions, key=_in_run):
        insts = list(insts)
        runs.append((in_run, insts, []))
        starts.append(at)
        at += len(insts)
    for first, span in circ.repeats:
        i = bisect_right(starts, first.start) - 1
        if i < 0 or not runs[i][0]:
            raise ValueError(f"repeat {first} starts outside a run")
        off = starts[i]
        runs[i][2].append(tuple(range(r.start - off, r.stop - off, r.step)
                                for r in (first, span)))
    for in_run, insts, repeats in runs:
        if not in_run:
            for inst in insts:
                if inst.classical_constant != 0:
                    state.apply_gate(inst.kind, inst.targets, inst.controls)
        else:
            state.apply_permutation(insts, repeats)


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
