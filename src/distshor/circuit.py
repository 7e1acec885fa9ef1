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

from bisect import bisect_left
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


class Repeat(NamedTuple):
    """A piece of a circuit that repeats an earlier list piece, its first,
    as ``Circuit.repeat`` appends one: gate p of the repeat is gate p of
    ``first`` with ``constants[p]`` as its ``classical_constant``, and
    every control on qubit ``base`` reads ``control`` instead (k_i in
    place of the first's k_0 in a power ladder).  ``base`` is never a
    target of the first, and ``control`` is off the first's qubits unless
    it is ``base``; the state kernel refuses a repeat that breaks this.
    A label or block that starts with ``rename[0]`` starts with
    ``rename[1]`` instead (``cm/M[i]`` in place of ``cm/M[0]``)."""

    first: list[Instruction]
    base: int
    control: int
    constants: tuple[int | None, ...]
    rename: tuple[str, str] = ("", "")

    def spell(self) -> list[Instruction]:
        """The repeat's instructions, from its first's."""
        old, new = self.rename
        cut, base, k = len(old), self.base, self.control
        renamed = {None: None}  # each distinct label or block once

        def name(text):
            if text not in renamed:
                renamed[text] = (new + text[cut:] if text.startswith(old)
                                 else text)
            return renamed[text]

        out = []
        for (kind, targets, controls, _, label, block), constant in zip(
                self.first, self.constants):
            if k != base:
                controls = tuple([(k, pol) if q == base else (q, pol)
                                  for q, pol in controls])
            out.append(_new(Instruction, (kind, targets, controls, constant,
                                          name(label), name(block))))
        return out


class Circuit:
    """Ordered instructions over a fixed qubit pool, stored as pieces.

    Treat circuits as immutable once built: builders append, everything
    downstream only reads, so sharing across execution contexts is safe.

    ``pieces`` is the circuit in order: each piece a list of
    ``Instruction``s or a ``Repeat`` of an earlier list piece.  A repeat
    holds no instructions of its own; two readers take it as its first
    with qubit ``base`` renamed ``control`` and the repeat's constants,
    and never build it: the billing walk (``netsim.bill``) walks its
    first with ``base`` placed on ``control``'s node, and the state
    kernel (``QuantumState.apply_permutation``, through ``execute``) runs
    its first's plans with ``base``'s column read as ``control``'s.
    ``append`` writes into the open list piece, the last one, opening it
    if need be; ``repeat`` and ``extend`` close it, so a list that a
    repeat or another circuit holds never changes.
    """

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self.pieces: list[list[Instruction] | Repeat] = []
        self._open: list[Instruction] | None = None  # where append writes

    @property
    def instructions(self) -> list[Instruction]:
        """Every instruction in order, each repeat spelled.  A circuit
        whose one piece is its open piece returns that list, and an empty
        one opens it, so a builder may write through it; any other builds
        a new flat list on every read, so writing to it changes no
        circuit."""
        pieces = self.pieces
        if not pieces:
            self._open = []
            pieces.append(self._open)
        if len(pieces) == 1 and pieces[0] is self._open:
            return self._open
        return [inst for piece in pieces for inst in (
            piece if type(piece) is list else piece.spell())]

    # -- append API ------------------------------------------------------

    def append(self, inst: Instruction) -> "Circuit":
        for q in inst.targets:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range")
        for q, _pol in inst.controls:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range")
        if self._open is None:
            self._open = []
            self.pieces.append(self._open)
        self._open.append(inst)
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

    def repeat(self, first: list[Instruction], base: int, control: int,
               constants: Iterable[int | None],
               rename: tuple[str, str] = ("", "")) -> "Circuit":
        """Append a repeat of ``first``, a list piece of this circuit,
        reading ``control`` wherever a gate of ``first`` reads ``base``
        (see ``Repeat``), one constant per gate, without building its
        instructions."""
        constants = tuple(constants)
        if type(first) is not list or all(piece is not first
                                           for piece in self.pieces):
            raise ValueError("a repeat's first must be a list piece of "
                             "its circuit")
        if len(constants) != len(first):
            raise ValueError(f"cannot repeat {len(first)} instructions "
                             f"with {len(constants)} constants")
        for q in (base, control):
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"control qubit {q} out of range")
        self.pieces.append(Repeat(first, base, control, constants, rename))
        self._open = None
        return self

    def extend(self, other: "Circuit") -> "Circuit":
        """Append another circuit's pieces as they are, and close the
        open piece of both."""
        if other.num_qubits > self.num_qubits:
            raise ValueError("sub-circuit uses more qubits than the target")
        self.pieces += other.pieces
        self._open = other._open = None
        return self

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(piece) if type(piece) is list
                   else len(piece.constants) for piece in self.pieces)


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
    """Run a circuit on a state, in place, without building its repeats.

    Each maximal run of permutation gates, MOVEs and repeats goes to
    ``QuantumState.apply_permutation`` in one call, as pieces: a list
    piece that holds only such instructions goes as itself, so the
    kernel knows it as a repeat's first, and a stretch of any other list
    piece as a new list.  That gives the same state, entry order
    included, as applying the gates one by one.  The run is checked and
    planned by position before it runs, so a gate that ``apply_gate``
    refuses raises ``SimulationError`` with the run's state untouched; a
    MOVE into a slot that is not |0> raises at its own visit.  Every
    other gate goes through ``apply_gate``, or through its checks alone
    when a 0 constant disables it.  A repeat always runs in the kernel,
    from its first's plans wherever its first ran.
    """
    if state.num_qubits < circ.num_qubits:
        raise ValueError("state is smaller than the circuit's qubit pool")
    run: list = []  # the pieces of the open permutation run
    for piece in circ.pieces:
        if type(piece) is not list or all(map(_in_run, piece)):
            run.append(piece)
            continue
        for in_run, group in groupby(piece, key=_in_run):
            if in_run:
                run.append(list(group))
                continue
            if run:
                state.apply_permutation(run)
                run = []
            for inst in group:
                if inst.classical_constant != 0:
                    state.apply_gate(inst.kind, inst.targets, inst.controls)
                else:
                    state._normalize(inst.kind, inst.targets, inst.controls)
    if run:
        state.apply_permutation(run)


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
