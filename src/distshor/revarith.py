"""Builders for the reversible modular-arithmetic circuit family.

Construction chain, bottom up:

* bit adders: ``BFA_a`` maps |c>|b>|0> to |a^b^c>|b>|maj(a,b,c)> in 4
  gates; ``BHA_a`` drops the carry machinery (2 gates).  ``a`` is a
  precomputed classical bit; the gates it conditions are emitted either way
  so the circuit shape does not depend on the constant.
* ``FA_a`` / ``HA_a``: n-bit ripple adders built by chaining bit adders.
  Chain slot i holds carry i on entry and sum bit i on exit, so the first
  sum slot doubles as the carry-in.  The addend is a plain int in
  [0, 2^n); bit adder i reads its bit i.
* ``AN_a``: addition mod N: add ``a + 2^n - N`` mod ``2^n``, flip the
  carry into a "no overflow" flag, then run a half-adder chain into the
  output register whose constant (``-(2^n - N)`` two's complement, i.e. N)
  is injected only when the flag is set.  When the flag is clear the chain
  degenerates to a plain copy of the sum, so the output register always
  ends with ``a + b mod N``.
* ``XAN_a``: compute, copy out bit by bit, uncompute; all 2n+1 ancillas
  return to |0>.
* ``A_a``: in-place adder via swap-and-uncompute with the negated
  constant.
* ``MF_a`` / ``M_a`` / ``c_m(M_a)``: controlled-adder sum, in-place
  multiplier, and the repeated-squaring controlled-power ladder.

Builders take explicit qubit ids (via ``RegisterLayout``), so the same
code emits the single-machine circuit and, given an ``AdderSlicing``, the
node-sliced variant with MOVE hand-offs for the ripple carries.

From AN up, every gate is appended to the circuit once: a private
emitter per level takes the extra controls and the direction of the block
it emits, a block passes its own control (x_i in MF, k_i in the ladder)
down to its children, and a reversed block runs its children last first.
Building each block forward and uncontrolled, then adding its controls
to every gate and turning it around with ``circuit.reverse``, gives the
same circuits; the tests check the builders against that composition.
The power ladder emits its first multiplier alone; every later
multiplier is a repeat of it (``Circuit.repeat``), whose constants the
same emitters compute without creating an instruction.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Sequence

from . import gates
from .circuit import Circuit, Instruction, _new
from .gates import MOVE, GateKind
from .qstate import Control


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit ids for the modular-exponentiation registers.

    ``k`` (m qubits) controls the power ladder, ``x`` (n) is the in-place
    multiplier register, ``b`` (n) the adder accumulator, ``s`` (n) the
    intermediate sum, ``carry`` the overflow flag, ``inter`` (n) the
    modular sum, and ``out`` (n) the copy target.  Total 5n + m + 1.
    """

    n: int
    m: int
    k: tuple[int, ...]
    x: tuple[int, ...]
    b: tuple[int, ...]
    s: tuple[int, ...]
    carry: int
    inter: tuple[int, ...]
    out: tuple[int, ...]

    def __post_init__(self):
        groups = [self.k, self.x, self.b, self.s, (self.carry,), self.inter,
                  self.out]
        widths = [self.m, self.n, self.n, self.n, 1, self.n, self.n]
        ids: list[int] = []
        for grp, w in zip(groups, widths):
            if len(grp) != w:
                raise ValueError("register width mismatch")
            ids.extend(grp)
        if len(set(ids)) != len(ids):
            raise ValueError("registers overlap")

    @classmethod
    def packed(cls, n: int, m: int) -> "RegisterLayout":
        """Contiguous ids, k first; 5n + m + 1 qubits total."""
        ids = iter(range(5 * n + m + 1))

        def take(count):
            return tuple(next(ids) for _ in range(count))

        k, x, b, s = take(m), take(n), take(n), take(n)
        carry = next(ids)
        inter, out = take(n), take(n)
        return cls(n=n, m=m, k=k, x=x, b=b, s=s, carry=carry, inter=inter,
                   out=out)

    @property
    def num_data_qubits(self) -> int:
        return 5 * self.n + self.m + 1

    @property
    def pool_size(self) -> int:
        """Smallest qubit pool containing every id."""
        return max(max(self.k), max(self.x), max(self.b), max(self.s),
                   self.carry, max(self.inter), max(self.out)) + 1


class ChainSegment(NamedTuple):
    """A locally contiguous stretch of a ripple chain.

    ``spare`` receives the segment's outgoing carry, which a MOVE then
    relocates into the next segment's first slot.  The final segment needs
    no spare.  ``block`` tags the segment's gates for session grouping in
    distributed execution.
    """

    qubits: tuple[int, ...]
    spare: int | None = None
    block: str | None = None


@dataclass(frozen=True)
class AdderSlicing:
    """Node-slicing description for the adder registers.

    ``cuts`` are the interior chain positions where ownership changes, in
    increasing order; ``spares`` holds one ``(carry_spare,
    subtract_spare)`` pair per slice.  The last slice's carry spare is, by
    placement convention, the layout's carry qubit itself.
    """

    cuts: tuple[int, ...]
    spares: tuple[tuple[int, int], ...]

    def slice_of(self, position: int) -> int:
        return bisect_right(self.cuts, position)

    @property
    def max_qubit(self) -> int:
        return max(q for pair in self.spares for q in pair)

    def segments(self, qubits: Sequence[int], stage: int, path: str,
                 tag: str) -> list[ChainSegment]:
        """Split ``qubits`` at the cuts; ``stage`` picks the spare column."""
        edges = [0, *self.cuts, len(qubits)]
        last = len(self.cuts)
        # the cuts are interior, so no segment is empty; the final one
        # hands nothing off
        return [_new(ChainSegment, (tuple(qubits[edges[j]:edges[j + 1]]),
                                    None if j == last
                                    else self.spares[j][stage],
                                    f"{path}@{tag}{j}"))
                for j in range(last + 1)]


def _emit_bfa(out: list, a_bit: int, carry_q: int, b_q: int, fresh_q: int,
              branch: Control | None, label: str, block: str | None,
              controls: tuple[Control, ...], reads: list | None = None,
              source: tuple[int, int] | None = None):
    """Four gates: fold the constant into (carry, fresh), then the qubit.
    ``reads`` gets ``source`` once for each gate ``a_bit`` gates."""
    own = (branch, *controls) if branch else controls
    if reads is not None:
        reads += (source, source)
    out += (
        _new(Instruction, (gates.CNOT, (carry_q, fresh_q), own, a_bit, label,
                           block)),
        _new(Instruction, (gates.X, (carry_q,), own, a_bit, label, block)),
        _new(Instruction, (gates.TOFFOLI, (carry_q, b_q, fresh_q), controls,
                           None, label, block)),
        _new(Instruction, (gates.CNOT, (b_q, carry_q), controls, None, label,
                           block)))


def _emit_bha(out: list, a_bit: int, carry_q: int, b_q: int,
              branch: Control | None, label: str, block: str | None,
              controls: tuple[Control, ...], reads: list | None = None,
              source: tuple[int, int] | None = None):
    """The bit adder without carry output: drop the first gate and the
    Toffoli."""
    own = (branch, *controls) if branch else controls
    if reads is not None:
        reads.append(source)
    out += (
        _new(Instruction, (gates.X, (carry_q,), own, a_bit, label, block)),
        _new(Instruction, (gates.CNOT, (b_q, carry_q), controls, None, label,
                           block)))


def _move(src: int, dst: int, label: str, reverse: bool) -> Instruction:
    """A MOVE, or the MOVE that undoes it when ``reverse``."""
    if src == dst:
        raise ValueError("MOVE needs distinct qubits")
    return _new(Instruction, (MOVE, (dst, src) if reverse else (src, dst),
                              (), None, label, None))


def _ripple_chain(out: list, controls: tuple[Control, ...], reverse: bool,
                  a: int, addend: Sequence[int],
                  segments: Sequence[ChainSegment], carry_out: int | None,
                  branch: Control | None, path: str, constant: int = 0,
                  reads: list | None = None):
    """Chain bit adders over the segments, bit i of the constant ``a``
    feeding unit i; ``carry_out=None`` makes the final unit a half adder.
    Every gate is a self-inverse permutation, so the reversed chain is the
    same instructions last first, with each carry MOVE turned around.
    ``reads``, if given, gets ``(constant, i)`` for each gate bit i of
    ``a`` gates, in the order of the gates, ``constant`` naming ``a``."""
    flat = [q for seg in segments for q in seg.qubits]
    n = len(addend)
    if len(flat) != n:
        raise ValueError("chain does not cover the addend width")
    chain: list[Instruction] = []
    read = None if reads is None else []
    i = 0
    for si, seg in enumerate(segments):
        for j, chain_q in enumerate(seg.qubits):
            last_global = i == n - 1
            last_in_seg = j == len(seg.qubits) - 1
            source = None if read is None else (constant, i)
            if last_global and carry_out is None:
                _emit_bha(chain, a >> i & 1, chain_q, addend[i], branch,
                          f"{path}/BHA[{i}]", seg.block, controls, read,
                          source)
            else:
                if last_global:
                    fresh = carry_out
                elif last_in_seg:
                    fresh = seg.spare
                else:
                    fresh = flat[i + 1]
                _emit_bfa(chain, a >> i & 1, chain_q, addend[i], fresh,
                          branch, f"{path}/BFA[{i}]", seg.block, controls,
                          read, source)
                if last_in_seg and not last_global:
                    chain.append(_move(seg.spare, flat[i + 1],
                                       f"{path}/carry-move[{si}]", reverse))
            i += 1
    out += reversed(chain) if reverse else chain
    if read is not None:
        reads += reversed(read) if reverse else read


def _single_segment(qubits: Sequence[int]) -> list[ChainSegment]:
    return [_new(ChainSegment, (tuple(qubits), None, None))]


def _checked(circ: Circuit, insts: list[Instruction]) -> Circuit:
    """Append through ``Circuit.append``'s range check: the standalone
    adders take any qubit ids and pool size."""
    for inst in insts:
        circ.append(inst)
    return circ


# -- bit adders (standalone, mostly for tests) ----------------------------

def build_bfa(a_bit: int, carry_q: int, b_q: int, fresh_q: int,
              num_qubits: int | None = None) -> Circuit:
    """|c>|b>|0> -> |a^b^c>|b>|maj(a,b,c)>; 4 gates."""
    if len({carry_q, b_q, fresh_q}) != 3:
        raise ValueError("bit-adder qubits must be distinct")
    insts: list[Instruction] = []
    _emit_bfa(insts, a_bit & 1, carry_q, b_q, fresh_q, None, "BFA", None, ())
    return _checked(Circuit(num_qubits or max(carry_q, b_q, fresh_q) + 1),
                    insts)


def build_bha(a_bit: int, carry_q: int, b_q: int,
              num_qubits: int | None = None) -> Circuit:
    """|c>|b> -> |a^b^c>|b>; 2 gates."""
    if carry_q == b_q:
        raise ValueError("bit-adder qubits must be distinct")
    insts: list[Instruction] = []
    _emit_bha(insts, a_bit & 1, carry_q, b_q, None, "BHA", None, ())
    return _checked(Circuit(num_qubits or max(carry_q, b_q) + 1), insts)


# -- n-bit adders ----------------------------------------------------------

def build_fa(a: int, b_qubits: Sequence[int], sum_qubits: Sequence[int],
             carry_out: int, *, num_qubits: int | None = None,
             segments: Sequence[ChainSegment] | None = None,
             path: str = "FA") -> Circuit:
    """n-bit full adder: sum <- a + b + carry_in mod 2^n, plus overflow.

    ``sum_qubits[0]`` is the carry-in slot; the remaining sum slots and
    ``carry_out`` must start in |0>.  4n gates.
    """
    if not 0 <= a < 1 << len(b_qubits):
        raise ValueError(f"{a} does not fit in {len(b_qubits)} bits")
    pool = num_qubits or max(*b_qubits, *sum_qubits, carry_out) + 1
    segs = list(segments) if segments else _single_segment(sum_qubits)
    insts: list[Instruction] = []
    _ripple_chain(insts, (), False, a, b_qubits, segs, carry_out, None, path)
    return _checked(Circuit(pool), insts)


def build_ha(a: int, b_qubits: Sequence[int], sum_qubits: Sequence[int], *,
             num_qubits: int | None = None, path: str = "HA") -> Circuit:
    """n-bit half adder: as the full adder but no overflow qubit; 4n - 2
    gates using n - 1 fresh ancillas."""
    if not 0 <= a < 1 << len(b_qubits):
        raise ValueError(f"{a} does not fit in {len(b_qubits)} bits")
    pool = num_qubits or max(*b_qubits, *sum_qubits) + 1
    insts: list[Instruction] = []
    _ripple_chain(insts, (), False, a, b_qubits, _single_segment(sum_qubits),
                  None, None, path)
    return _checked(Circuit(pool), insts)


# -- modular arithmetic ----------------------------------------------------
#
# Each block is emitted by ``_xxx(out, controls, ...)``, which appends its
# gates to ``out.insts``: ``controls`` go after every gate's own, innermost
# first, so a ladder gate reads (branch, x_i, k_i).  Every ladder gate is a
# self-inverse permutation, so a ``reverse``d block only runs its steps
# last first and turns its MOVEs around.  MF and the ladder check the
# control they put on each child against the qubits the first child
# touches (``_admit``); the children all touch the same ones.


class _Sink:
    """Where the emitters from AN up write.  ``insts`` gets the
    instructions, or is None to walk the blocks for their chain constants
    alone, creating no instruction; ``chain`` gets the two constants of
    each AN (its full adder's and its half adder's) in the order the ANs
    are emitted; ``reads``, unless None, gets for each gate that a
    constant gates, in the order of the gates, the index in ``chain`` of
    that constant and the bit of it the gate reads."""

    __slots__ = ("insts", "chain", "reads")

    def __init__(self, insts: list[Instruction] | None,
                 reads: list[tuple[int, int]] | None = None):
        self.insts, self.chain, self.reads = insts, [], reads


def _pool(layout: RegisterLayout, slicing: AdderSlicing | None) -> int:
    pool = layout.pool_size
    if slicing is not None:
        pool = max(pool, slicing.max_qubit + 1)
    return pool


def _footprint(insts: Sequence[Instruction], extra: int) -> set[int]:
    """The qubits ``insts`` touch, less the ``extra`` controls each gate
    carries last: the qubits of the block built without them."""
    used: set[int] = set()
    for inst in insts:
        used.update(inst.targets)
        controls = inst.controls
        for q, _ in controls[:len(controls) - extra]:
            used.add(q)
    return used


def _admit(controls: Sequence[int], used: set[int], pool: int):
    """What ``Circuit.append`` checks gate by gate, and what adding a
    control to a built block checks, once for a block: the qubits it
    touches are in range, and each of ``controls`` is in range and clear
    of them."""
    for q in sorted(used):
        if not 0 <= q < pool:
            raise ValueError(f"qubit {q} out of range")
    for q in controls:
        if q in used:
            raise ValueError(f"control qubit {q} collides with the circuit")
        if not 0 <= q < pool:
            raise ValueError(f"control qubit {q} out of range")


def _around(out: _Sink, controls: tuple[Control, ...], reverse: bool,
            emit, before: tuple, middle: list[Instruction], after: tuple):
    """Compute, act, uncompute: ``emit``'s block for the ``before``
    arguments, the ``middle`` gates, then the reversed block for the
    ``after`` arguments.  Reversed, it is the same shape with the two
    blocks swapped and the middle gates last first."""
    if reverse:
        before, after, middle = after, before, middle[::-1]
    emit(out, controls, False, *before)
    if middle:
        out.insts += middle
    emit(out, controls, True, *after)


def _an(out: _Sink, controls: tuple[Control, ...], reverse: bool, a: int,
        N: int, layout: RegisterLayout, slicing: AdderSlicing | None,
        path: str):
    n = layout.n
    if not 0 <= a < N:
        raise ValueError(f"addend {a} outside [0, {N})")
    if N >= 1 << n:
        raise ValueError("modulus does not fit the register width")
    shifted = (a + (1 << n) - N) % (1 << n)
    neg = N % (1 << n)  # two's-complement encoding of -(2^n - N)
    c = len(out.chain)
    out.chain += (shifted, neg)
    if out.insts is None:
        return
    fa_segs = (slicing.segments(layout.s, 0, path, "fa")
               if slicing else _single_segment(layout.s))
    ha_segs = (slicing.segments(layout.inter, 1, path, "ha")
               if slicing else _single_segment(layout.inter))
    fa = (shifted, layout.b, fa_segs, layout.carry, None, f"{path}/FA", c)
    ha = (neg, layout.s, ha_segs, None, (layout.carry, True), f"{path}/HA",
          c + 1)
    if reverse:
        fa, ha = ha, fa
    _ripple_chain(out.insts, controls, reverse, *fa, out.reads)
    # carry set means a+b >= N (no subtraction); flip it into a
    # "subtraction needed" flag so the half-adder constants fire on 1
    out.insts.append(_new(Instruction, (gates.X, (layout.carry,), controls,
                                        None, f"{path}/carry-flip",
                                        fa_segs[-1].block)))
    _ripple_chain(out.insts, controls, reverse, *ha, out.reads)


def _pairwise(kind: GateKind, first: Sequence[int], second: Sequence[int],
              controls: tuple[Control, ...], slicing: AdderSlicing | None,
              path: str, name: str, tag: str) -> list[Instruction]:
    """One ``kind`` gate per register position, tagged with its slice."""
    return [_new(Instruction, (kind, (p, q), controls, None,
                               f"{path}/{name}[{i}]",
                               f"{path}@{tag}{slicing.slice_of(i)}"
                               if slicing else None))
            for i, (p, q) in enumerate(zip(first, second))]


def _xan(out: _Sink, controls: tuple[Control, ...], reverse: bool, a: int,
         N: int, layout: RegisterLayout, slicing: AdderSlicing | None,
         path: str):
    copies = [] if out.insts is None else _pairwise(
        gates.CNOT, layout.inter, layout.out, controls, slicing, path,
        "COPY", "cp")
    _around(out, controls, reverse, _an,
            (a, N, layout, slicing, f"{path}/AN"), copies,
            (a, N, layout, slicing, f"{path}/ANr"))


def _adder(out: _Sink, controls: tuple[Control, ...], reverse: bool, a: int,
           N: int, layout: RegisterLayout, slicing: AdderSlicing | None,
           path: str):
    swaps = [] if out.insts is None else _pairwise(
        gates.SWAP, layout.b, layout.out, controls, slicing, path, "SWAP",
        "sw")
    _around(out, controls, reverse, _xan,
            (a % N, N, layout, slicing, f"{path}/XAN0"), swaps,
            ((N - a) % N, N, layout, slicing, f"{path}/XAN1r"))


def _mf(out: _Sink, controls: tuple[Control, ...], reverse: bool, a: int,
        N: int, layout: RegisterLayout, slicing: AdderSlicing | None,
        path: str) -> set[int] | None:
    """Emit MF; returns the qubits it touches, ``controls`` aside (None
    with no instructions)."""
    if math.gcd(a, N) != 1:
        raise ValueError(f"{a} is not invertible mod {N}")
    insts, used = out.insts, None
    order = range(layout.n)
    for i in (reversed(order) if reverse else order):
        start = 0 if insts is None else len(insts)
        _adder(out, ((layout.x[i], True),) + controls, reverse, (a << i) % N,
               N, layout, slicing, f"{path}/A[{i}]")
        if used is None and insts is not None:
            used = _footprint(insts[start:], 1 + len(controls))
            _admit(layout.x, used, _pool(layout, slicing))
    return None if used is None else used.union(layout.x)


def _mswaps(controls: tuple[Control, ...], layout: RegisterLayout,
            slicing: AdderSlicing | None, path: str) -> list[Instruction]:
    """M's controlled swaps of the multiplier and accumulator registers."""
    swaps: list[Instruction] = []
    for i, (xq, bq) in enumerate(zip(layout.x, layout.b)):
        label = f"{path}/MSWAP[{i}]"
        if slicing is None:
            swaps.append(_new(Instruction, (gates.SWAP, (xq, bq), controls,
                                            None, label, None)))
        else:
            # the multiplier register lives on its own node: park the qubit
            # beside the accumulator, swap locally, park it back
            j = slicing.slice_of(i)
            spare = slicing.spares[j][1]
            swaps += (_move(xq, spare, f"{label}/park", False),
                      _new(Instruction, (gates.SWAP, (spare, bq), controls,
                                         None, label, f"{path}@msw{j}.{i}")),
                      _move(spare, xq, f"{label}/unpark", False))
    return swaps


def _m(out: _Sink, controls: tuple[Control, ...], a: int, N: int,
       layout: RegisterLayout, slicing: AdderSlicing | None,
       path: str) -> set[int] | None:
    """Emit M; returns the qubits it touches, ``controls`` aside (None
    with no instructions)."""
    if math.gcd(a, N) != 1:
        raise ValueError(f"{a} is not invertible mod {N}")
    a = a % N
    swaps = [] if out.insts is None else _mswaps(controls, layout, slicing,
                                                  path)
    used = _mf(out, controls, False, a, N, layout, slicing, f"{path}/MF0")
    if swaps:
        out.insts += swaps
    _mf(out, controls, True, pow(a, -1, N), N, layout, slicing,
        f"{path}/MF1r")
    if used is None:
        return None
    swapped = _footprint(swaps, len(controls))
    _admit((), swapped, _pool(layout, slicing))
    return used | swapped


def build_an(a: int, N: int, layout: RegisterLayout, *,
             slicing: AdderSlicing | None = None,
             path: str = "AN") -> Circuit:
    """Addition mod N into the intermediate output register.

    |b>|0>|0>|0> -> |b>|s>|flag>|a+b mod N> with s = a + b + 2^n - N mod
    2^n and flag the negated overflow carry.  8n - 1 gates: a full adder,
    the carry flip, and the flag-branched half adder.
    """
    insts: list[Instruction] = []
    _an(_Sink(insts), (), False, a, N, layout, slicing, path)
    return _checked(Circuit(_pool(layout, slicing)), insts)


def build_xan(a: int, N: int, layout: RegisterLayout, *,
              slicing: AdderSlicing | None = None,
              path: str = "XAN") -> Circuit:
    """Compute, copy, uncompute: |b>|0...0>|0> -> |b>|0...0>|a+b mod N>.

    The sum lands in ``layout.out``; the 2n + 1 ancillas (s, carry, inter)
    are returned to |0>.  17n - 2 gates.
    """
    insts: list[Instruction] = []
    _xan(_Sink(insts), (), False, a, N, layout, slicing, path)
    return _checked(Circuit(_pool(layout, slicing)), insts)


def build_adder(a: int, N: int, layout: RegisterLayout, *,
                slicing: AdderSlicing | None = None,
                path: str = "A") -> Circuit:
    """In-place modular adder: |b> -> |a+b mod N> with 3n + 1 clean
    ancillas; 35n - 4 gates.

    Swap-and-uncompute: run the copying adder, swap input and output, then
    reverse the copying adder for the negated constant.
    """
    insts: list[Instruction] = []
    _adder(_Sink(insts), (), False, a, N, layout, slicing, path)
    return _checked(Circuit(_pool(layout, slicing)), insts)


def build_mf(a: int, N: int, layout: RegisterLayout, *,
             slicing: AdderSlicing | None = None,
             path: str = "MF") -> Circuit:
    """Multiply into a fresh register: |x>|0> -> |x>|ax mod N>.

    One adder block per multiplier bit, each controlled by that bit and
    adding the precomputed constant a*2^i mod N.
    """
    circ = Circuit(_pool(layout, slicing))
    _mf(_Sink(circ.instructions), (), False, a, N, layout, slicing, path)
    return circ


def build_m(a: int, N: int, layout: RegisterLayout, *,
            slicing: AdderSlicing | None = None,
            path: str = "M") -> Circuit:
    """In-place modular multiplier: |x> -> |ax mod N>, 4n + 1 clean
    ancillas.

    Multiply out of place, swap the registers, then uncompute the stale
    input with the reversed multiplier for a^-1 mod N.
    """
    circ = Circuit(_pool(layout, slicing))
    _m(_Sink(circ.instructions), (), a, N, layout, slicing, path)
    return circ


def build_cm_m(a: int, N: int, m: int, layout: RegisterLayout, *,
               slicing: AdderSlicing | None = None) -> Circuit:
    """Controlled power ladder: |k>|x> -> |k> (M_a)^k |x>.

    Repeated squaring: block i applies M for the constant a^(2^i) mod N
    under control k_i, labelled ``cm/M[i]``.  Only block 0 is emitted,
    into the ladder's first list piece.  Every later block is a
    ``Circuit.repeat`` of it that reads k_i in place of k_0, with its own
    constants: while block 0 is emitted, ``_Sink.reads`` records the chain
    constant and bit each of its gated gates reads, and a later block
    walks the same emitters for its chain constants alone and reads them
    there.
    """
    if m < 1:
        raise ValueError("need at least one control qubit")
    if math.gcd(a, N) != 1:
        raise ValueError(f"{a} is not invertible mod {N}")
    if m > layout.m:
        raise ValueError("layout control register too narrow")
    pool, n = _pool(layout, slicing), layout.n
    circ = Circuit(pool)
    first = circ.instructions
    out = _Sink(first, [] if m > 1 else None)
    _admit(layout.k[:m], _m(out, ((layout.k[0], True),), a, N, layout,
                            slicing, "cm/M[0]"), pool)
    index = []  # per gate: 0, or 1 + the place of the bit it reads
    if m > 1:
        reads = iter(out.reads)
        for inst in first:
            if inst[3] is None:
                index.append(0)
            else:
                c, b = next(reads)
                index.append(1 + n * c + b)
    for i in range(1, m):
        k, path = layout.k[i], f"cm/M[{i}]"
        chain = _Sink(None)
        _m(chain, ((k, True),), pow(a, 1 << i, N), N, layout, slicing, path)
        # bit b of chain constant c sits at 1 + n c + b, None at 0
        bits = [None, *(x >> b & 1 for x in chain.chain for b in range(n))]
        circ.repeat(first, layout.k[0], k, itemgetter(*index)(bits),
                    ("cm/M[0]", path))
    return circ


# -- predicted gate counts -------------------------------------------------

def gate_count_formula(level: str, n: int, m: int | None = None) -> int:
    """Closed-form gate-count prediction for a named circuit level.

    The multiplier levels follow the reference closed form ``70mn^2 - 6mn``
    (so ``M`` is ``70n^2 - 6n``), ``n`` more than the built multiplier's
    two MF blocks and ``n`` controlled swaps; callers report measured
    counts next to these predictions rather than forcing agreement.
    """
    forms = {
        "BFA": lambda: 4,
        "BHA": lambda: 2,
        "FA": lambda: 4 * n,
        "HA": lambda: 4 * n - 2,
        "AN": lambda: 8 * n - 1,
        "XAN": lambda: 17 * n - 2,
        "A": lambda: 35 * n - 4,
        "MF": lambda: 35 * n * n - 4 * n,
        "M": lambda: 70 * n * n - 6 * n,
        "c_m(M)": lambda: (70 * n * n - 6 * n) * m,
        "QFT_inv": lambda: m * (m + 1) // 2,
        "H^m": lambda: m,
        "SHOR": lambda: m + (70 * n * n - 6 * n) * m + m * (m + 1) // 2,
    }
    if level not in forms:
        raise ValueError(f"unknown count level {level!r}")
    if level in ("c_m(M)", "QFT_inv", "H^m", "SHOR") and m is None:
        raise ValueError(f"level {level!r} needs m")
    return forms[level]()
