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
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from . import gates
from .circuit import Circuit, add_controls, reverse
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


@dataclass(frozen=True)
class ChainSegment:
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

    ``cuts`` are the interior chain positions where ownership changes;
    ``spares`` holds one ``(carry_spare, subtract_spare)`` pair per slice.
    The last slice's carry spare is, by placement convention, the layout's
    carry qubit itself.
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
        segs: list[ChainSegment] = []
        for j in range(len(edges) - 1):
            part = tuple(qubits[edges[j]:edges[j + 1]])
            if not part:
                continue
            segs.append(ChainSegment(part, spare=self.spares[j][stage],
                                     block=f"{path}@{tag}{j}"))
        # the final live segment hands nothing off
        segs[-1] = ChainSegment(segs[-1].qubits, spare=None,
                                block=segs[-1].block)
        return segs


def _emit_bfa(circ: Circuit, a_bit: int, carry_q: int, b_q: int,
              fresh_q: int, branch: Control | None, label: str,
              block: str | None):
    """Four gates: fold the constant into (carry, fresh), then the qubit."""
    ctrl = (branch,) if branch else ()
    circ.gate(gates.CNOT, [carry_q, fresh_q], ctrl,
              classical_constant=a_bit, label=label, block=block)
    circ.gate(gates.X, [carry_q], ctrl, classical_constant=a_bit,
              label=label, block=block)
    circ.gate(gates.TOFFOLI, [carry_q, b_q, fresh_q], label=label,
              block=block)
    circ.gate(gates.CNOT, [b_q, carry_q], label=label, block=block)


def _emit_bha(circ: Circuit, a_bit: int, carry_q: int, b_q: int,
              branch: Control | None, label: str, block: str | None):
    """The bit adder without carry output: drop the first gate and the
    Toffoli."""
    ctrl = (branch,) if branch else ()
    circ.gate(gates.X, [carry_q], ctrl, classical_constant=a_bit,
              label=label, block=block)
    circ.gate(gates.CNOT, [b_q, carry_q], label=label, block=block)


def _ripple_chain(circ: Circuit, a: int, addend: Sequence[int],
                  segments: Sequence[ChainSegment], carry_out: int | None,
                  *, branch: Control | None, path: str):
    """Chain bit adders over the segments, bit i of the constant ``a``
    feeding unit i; ``carry_out=None`` makes the final unit a half adder."""
    flat = [q for seg in segments for q in seg.qubits]
    n = len(addend)
    if len(flat) != n:
        raise ValueError("chain does not cover the addend width")
    i = 0
    for si, seg in enumerate(segments):
        for j, chain_q in enumerate(seg.qubits):
            last_global = i == n - 1
            last_in_seg = j == len(seg.qubits) - 1
            if last_global and carry_out is None:
                _emit_bha(circ, a >> i & 1, chain_q, addend[i], branch,
                          f"{path}/BHA[{i}]", seg.block)
            else:
                if last_global:
                    fresh = carry_out
                elif last_in_seg:
                    fresh = seg.spare
                else:
                    fresh = flat[i + 1]
                _emit_bfa(circ, a >> i & 1, chain_q, addend[i], fresh, branch,
                          f"{path}/BFA[{i}]", seg.block)
                if last_in_seg and not last_global:
                    circ.move(seg.spare, flat[i + 1],
                              label=f"{path}/carry-move[{si}]")
            i += 1


def _single_segment(qubits: Sequence[int]) -> list[ChainSegment]:
    return [ChainSegment(tuple(qubits))]


# -- bit adders (standalone, mostly for tests) ----------------------------

def build_bfa(a_bit: int, carry_q: int, b_q: int, fresh_q: int,
              num_qubits: int | None = None) -> Circuit:
    """|c>|b>|0> -> |a^b^c>|b>|maj(a,b,c)>; 4 gates."""
    if len({carry_q, b_q, fresh_q}) != 3:
        raise ValueError("bit-adder qubits must be distinct")
    circ = Circuit(num_qubits or max(carry_q, b_q, fresh_q) + 1)
    _emit_bfa(circ, a_bit & 1, carry_q, b_q, fresh_q, None, "BFA", None)
    return circ


def build_bha(a_bit: int, carry_q: int, b_q: int,
              num_qubits: int | None = None) -> Circuit:
    """|c>|b> -> |a^b^c>|b>; 2 gates."""
    if carry_q == b_q:
        raise ValueError("bit-adder qubits must be distinct")
    circ = Circuit(num_qubits or max(carry_q, b_q) + 1)
    _emit_bha(circ, a_bit & 1, carry_q, b_q, None, "BHA", None)
    return circ


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
    circ = Circuit(pool)
    segs = list(segments) if segments else _single_segment(sum_qubits)
    _ripple_chain(circ, a, b_qubits, segs, carry_out, branch=None, path=path)
    return circ


def build_ha(a: int, b_qubits: Sequence[int], sum_qubits: Sequence[int], *,
             num_qubits: int | None = None, path: str = "HA") -> Circuit:
    """n-bit half adder: as the full adder but no overflow qubit; 4n - 2
    gates using n - 1 fresh ancillas."""
    if not 0 <= a < 1 << len(b_qubits):
        raise ValueError(f"{a} does not fit in {len(b_qubits)} bits")
    pool = num_qubits or max(*b_qubits, *sum_qubits) + 1
    circ = Circuit(pool)
    _ripple_chain(circ, a, b_qubits, _single_segment(sum_qubits), None,
                  branch=None, path=path)
    return circ


# -- modular arithmetic ----------------------------------------------------

def _pool(layout: RegisterLayout, slicing: AdderSlicing | None) -> int:
    pool = layout.pool_size
    if slicing is not None:
        pool = max(pool, slicing.max_qubit + 1)
    return pool


def build_an(a: int, N: int, layout: RegisterLayout, *,
             slicing: AdderSlicing | None = None,
             path: str = "AN") -> Circuit:
    """Addition mod N into the intermediate output register.

    |b>|0>|0>|0> -> |b>|s>|flag>|a+b mod N> with s = a + b + 2^n - N mod
    2^n and flag the negated overflow carry.  8n - 1 gates: a full adder,
    the carry flip, and the flag-branched half adder.
    """
    n = layout.n
    if not 0 <= a < N:
        raise ValueError(f"addend {a} outside [0, {N})")
    if N >= 1 << n:
        raise ValueError("modulus does not fit the register width")
    shifted = (a + (1 << n) - N) % (1 << n)
    neg = N % (1 << n)  # two's-complement encoding of -(2^n - N)

    circ = Circuit(_pool(layout, slicing))
    fa_segs = (slicing.segments(layout.s, 0, path, "fa")
               if slicing else _single_segment(layout.s))
    ha_segs = (slicing.segments(layout.inter, 1, path, "ha")
               if slicing else _single_segment(layout.inter))

    _ripple_chain(circ, shifted, layout.b, fa_segs, layout.carry,
                  branch=None, path=f"{path}/FA")
    # carry set means a+b >= N (no subtraction); flip it into a
    # "subtraction needed" flag so the half-adder constants fire on 1
    circ.x(layout.carry, label=f"{path}/carry-flip",
           block=fa_segs[-1].block)
    _ripple_chain(circ, neg, layout.s, ha_segs, None,
                  branch=(layout.carry, True), path=f"{path}/HA")
    return circ


def build_xan(a: int, N: int, layout: RegisterLayout, *,
              slicing: AdderSlicing | None = None,
              path: str = "XAN") -> Circuit:
    """Compute, copy, uncompute: |b>|0...0>|0> -> |b>|0...0>|a+b mod N>.

    The sum lands in ``layout.out``; the 2n + 1 ancillas (s, carry, inter)
    are returned to |0>.  17n - 2 gates.
    """
    circ = Circuit(_pool(layout, slicing))
    circ.extend(build_an(a, N, layout, slicing=slicing, path=f"{path}/AN"))
    for i, (src, dst) in enumerate(zip(layout.inter, layout.out)):
        block = (f"{path}@cp{slicing.slice_of(i)}" if slicing else None)
        circ.cnot(src, dst, label=f"{path}/COPY[{i}]", block=block)
    circ.extend(reverse(
        build_an(a, N, layout, slicing=slicing, path=f"{path}/ANr")))
    return circ


def build_adder(a: int, N: int, layout: RegisterLayout, *,
                slicing: AdderSlicing | None = None,
                path: str = "A") -> Circuit:
    """In-place modular adder: |b> -> |a+b mod N> with 3n + 1 clean
    ancillas; 35n - 4 gates.

    Swap-and-uncompute: run the copying adder, swap input and output, then
    reverse the copying adder for the negated constant.
    """
    circ = Circuit(_pool(layout, slicing))
    circ.extend(build_xan(a % N, N, layout, slicing=slicing,
                          path=f"{path}/XAN0"))
    for i, (p, q) in enumerate(zip(layout.b, layout.out)):
        block = (f"{path}@sw{slicing.slice_of(i)}" if slicing else None)
        circ.swap(p, q, label=f"{path}/SWAP[{i}]", block=block)
    circ.extend(reverse(build_xan((N - a) % N, N, layout, slicing=slicing,
                                  path=f"{path}/XAN1r")))
    return circ


def build_mf(a: int, N: int, layout: RegisterLayout, *,
             slicing: AdderSlicing | None = None,
             path: str = "MF") -> Circuit:
    """Multiply into a fresh register: |x>|0> -> |x>|ax mod N>.

    One adder block per multiplier bit, each controlled by that bit and
    adding the precomputed constant a*2^i mod N.
    """
    if math.gcd(a, N) != 1:
        raise ValueError(f"{a} is not invertible mod {N}")
    circ = Circuit(_pool(layout, slicing))
    for i, ctrl in enumerate(layout.x):
        block = build_adder((a << i) % N, N, layout, slicing=slicing,
                            path=f"{path}/A[{i}]")
        circ.extend(add_controls(block, [(ctrl, True)]))
    return circ


def build_m(a: int, N: int, layout: RegisterLayout, *,
            slicing: AdderSlicing | None = None,
            path: str = "M") -> Circuit:
    """In-place modular multiplier: |x> -> |ax mod N>, 4n + 1 clean
    ancillas.

    Multiply out of place, swap the registers, then uncompute the stale
    input with the reversed multiplier for a^-1 mod N.
    """
    if math.gcd(a, N) != 1:
        raise ValueError(f"{a} is not invertible mod {N}")
    a = a % N
    a_inv = pow(a, -1, N)
    circ = Circuit(_pool(layout, slicing))
    circ.extend(build_mf(a, N, layout, slicing=slicing, path=f"{path}/MF0"))
    for i, (xq, bq) in enumerate(zip(layout.x, layout.b)):
        label = f"{path}/MSWAP[{i}]"
        if slicing is None:
            circ.swap(xq, bq, label=label)
        else:
            # the multiplier register lives on its own node: park the qubit
            # beside the accumulator, swap locally, park it back
            j = slicing.slice_of(i)
            spare = slicing.spares[j][1]
            circ.move(xq, spare, label=f"{label}/park")
            circ.swap(spare, bq, label=label, block=f"{path}@msw{j}.{i}")
            circ.move(spare, xq, label=f"{label}/unpark")
    circ.extend(reverse(build_mf(a_inv, N, layout, slicing=slicing,
                                 path=f"{path}/MF1r")))
    return circ


def build_cm_m(a: int, N: int, m: int, layout: RegisterLayout, *,
               slicing: AdderSlicing | None = None,
               path: str = "cm") -> Circuit:
    """Controlled power ladder: |k>|x> -> |k> (M_a)^k |x>.

    Repeated squaring: block i applies M for the constant a^(2^i) mod N
    under control k_i.
    """
    if m < 1:
        raise ValueError("need at least one control qubit")
    if math.gcd(a, N) != 1:
        raise ValueError(f"{a} is not invertible mod {N}")
    if m > layout.m:
        raise ValueError("layout control register too narrow")
    circ = Circuit(_pool(layout, slicing))
    for i in range(m):
        const = pow(a, 1 << i, N)
        block = build_m(const, N, layout, slicing=slicing,
                        path=f"{path}/M[{i}]")
        circ.extend(add_controls(block, [(layout.k[i], True)]))
    return circ


# -- predicted gate counts -------------------------------------------------

def gate_count_formula(level: str, n: int, m: int | None = None) -> int:
    """Closed-form gate-count prediction for a named circuit level.

    The multiplier levels follow the reference closed form ``70mn^2 - 6mn``
    (so ``M`` is ``70n^2 - 6n``), which undercounts the swap stage of the
    built multiplier by ``n``; callers report measured counts next to these
    predictions rather than forcing agreement.
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
