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
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from . import gates
from .gates import ARITY, MOVE, GateKind, is_unitary
from .qstate import Control, QuantumState, span_cuts


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
    """A span of a circuit that repeats an earlier span, its first, as
    ``Circuit.repeat`` appends one: gate p of the span is gate p of the
    first with ``constants[p]`` as its ``classical_constant`` and, unless
    ``control`` is None, the qubit of its last control replaced by
    ``control`` (k_i in place of the first's k_0 in a power ladder).  A
    MOVE equals the first's.  A label or block that starts with
    ``rename[0]`` starts with ``rename[1]`` instead (``cm/M[i]`` in place
    of ``cm/M[0]``)."""

    first: range
    span: range
    control: int | None
    constants: tuple[int | None, ...]
    rename: tuple[str, str] = ("", "")

    def spell(self, insts: Sequence[Instruction]) -> list[Instruction]:
        """The span's instructions, from its first's in ``insts``."""
        old, new = self.rename
        cut, k = len(old), self.control
        renamed = {None: None}  # each distinct label or block once

        def name(text):
            if text not in renamed:
                renamed[text] = (new + text[cut:] if text.startswith(old)
                                 else text)
            return renamed[text]

        out = []
        for (kind, targets, controls, _, label, block), constant in zip(
                insts[self.first.start:self.first.stop], self.constants):
            if k is not None and kind.name != "MOVE":
                controls = (*controls[:-1], (k, controls[-1][1]))
            out.append(_new(Instruction, (kind, targets, controls, constant,
                                          name(label), name(block))))
        return out


def _shifted(rep: Repeat, by: int) -> Repeat:
    return rep._replace(first=range(rep.first.start + by, rep.first.stop + by),
                        span=range(rep.span.start + by, rep.span.stop + by))


class Circuit:
    """Ordered instruction list over a fixed qubit pool.

    Treat circuits as immutable once built: builders append, everything
    downstream only reads, so sharing across execution contexts is safe.

    ``repeats`` lists the circuit's ``Repeat`` spans.  A span is built
    from its first, its control and its constants, so it holds no
    instructions of its own until ``instructions`` is first read
    (``stored`` holds None at its positions until then).  Two readers
    take a span from its ``Repeat`` and never build it: the billing walk
    (``netsim.bill``) bills a span as its first's units, and the state
    kernel (``QuantumState.apply_permutation``, through ``execute``) runs
    a span from its first's plans.
    """

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self._insts: list[Instruction | None] = []
        self.repeats: list[Repeat] = []
        self._packed = False  # some span's instructions are not built yet

    @property
    def instructions(self) -> list[Instruction]:
        """Every instruction in order; the first read builds the spans."""
        if self._packed:
            insts = self._insts
            for rep in self.repeats:
                if insts[rep.span.start] is None:
                    insts[rep.span.start:rep.span.stop] = rep.spell(insts)
            self._packed = False
        return self._insts

    @property
    def stored(self) -> list[Instruction | None]:
        """The instructions as stored: None at every position of a span
        that is not built yet."""
        return self._insts

    # -- append API ------------------------------------------------------

    def append(self, inst: Instruction) -> "Circuit":
        for q in inst.targets:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range")
        for q, _pol in inst.controls:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range")
        self._insts.append(inst)
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

    def repeat(self, first: range, control: int | None,
               constants: Iterable[int | None],
               rename: tuple[str, str] = ("", "")) -> "Circuit":
        """Append a span that repeats ``first`` (see ``Repeat``), one
        constant per position, without building its instructions."""
        constants = tuple(constants)
        if not (first.step == 1 and 0 <= first.start < first.stop
                <= len(self._insts) and len(constants) == len(first)):
            raise ValueError(f"cannot repeat {first} with "
                             f"{len(constants)} constants")
        if any(rep.span.start < first.stop and first.start < rep.span.stop
               for rep in self.repeats):
            raise ValueError(f"{first} overlaps a repeat")
        if control is not None and not 0 <= control < self.num_qubits:
            raise ValueError(f"control qubit {control} out of range")
        start = len(self._insts)
        self._insts += [None] * len(first)
        self.repeats.append(Repeat(first, range(start, len(self._insts)),
                                   control, constants, rename))
        self._packed = True
        return self

    def extend(self, other: "Circuit") -> "Circuit":
        """Append another circuit's instructions and repeats as they
        are, its spans built or not."""
        if other.num_qubits > self.num_qubits:
            raise ValueError("sub-circuit uses more qubits than the target")
        at = len(self._insts)
        self._insts += other._insts
        self.repeats += [_shifted(rep, at) for rep in other.repeats]
        self._packed = self._packed or other._packed
        return self

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._insts)


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
    """Run a circuit on a state, in place, without building its spans.

    Each maximal run of permutation instructions, MOVEs and spans goes to
    ``QuantumState.apply_permutation`` in one call, with the circuit's
    repeats whose first starts in it; that gives the same state, entry
    order included, as applying its gates one by one.  The run is
    checked and planned by position before it runs, so a gate that
    ``apply_gate`` refuses raises ``SimulationError`` with the run's
    state untouched; a MOVE into a slot that is not |0> raises at its
    own visit.  Every other gate goes through ``apply_gate``, or through
    its checks alone when a 0 constant disables it.  Bad spans
    (``span_cuts``), or a repeat whose first starts outside every run,
    raise ``ValueError`` before anything runs.
    """
    if state.num_qubits < circ.num_qubits:
        raise ValueError("state is smaller than the circuit's qubit pool")
    insts, repeats = circ.stored, circ.repeats
    span_cuts(repeats, len(insts))
    runs: list[list] = []  # [in_run, start, stop]; a span lies in a run

    def add(in_run: bool, stop: int):
        if in_run and runs and runs[-1][0]:
            runs[-1][2] = stop
        else:
            runs.append([in_run, runs[-1][2] if runs else 0, stop])

    at = 0
    for span in [*sorted((rep.span for rep in repeats),
                         key=attrgetter("start")), range(len(insts), 0)]:
        for in_run, group in groupby(insts[at:span.start], key=_in_run):
            at += len(list(group))
            add(in_run, at)
        if span:
            at = span.stop
            add(True, at)
    starts = [start for _, start, _ in runs]
    held: list[list[Repeat]] = [[] for _ in runs]
    for rep in repeats:
        i = bisect_right(starts, rep.first.start) - 1
        if i < 0 or not runs[i][0]:
            raise ValueError(f"repeat {rep.first} starts outside a run")
        held[i].append(_shifted(rep, -starts[i]))
    for (in_run, start, stop), run_repeats in zip(runs, held):
        if in_run:
            state.apply_permutation(insts[start:stop], run_repeats)
            continue
        for inst in insts[start:stop]:
            if inst.classical_constant != 0:
                state.apply_gate(inst.kind, inst.targets, inst.controls)
            else:
                state._normalize(inst.kind, inst.targets, inst.controls)


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
