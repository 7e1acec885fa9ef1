"""Fourier-transform circuits, forward and inverse, local or node-split.

Registers are little-endian (qubit i is bit i of the value).  The forward
transform sends |j> to ``2^(-n/2) * sum_k exp(2*pi*i*j*k / 2^n) |k>``; the
circuit is the usual Hadamard/controlled-rotation ladder followed by an
explicit swap network undoing the bit reversal.  A transform is its
qubit list: the width is the list's length.  Given a placement
(``node_of``), the same gate list realizes cross-node rotations as
remotely controlled gates and cross-node swaps as teleport round trips.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from . import gates
from .circuit import Circuit, reverse


def build_qft(qubits: Sequence[int], *, num_qubits: int | None = None,
              path: str = "QFT", node_of: Mapping[int, str] | None = None,
              spare_of: Mapping[str, int] | None = None) -> Circuit:
    """Build the transform over ``qubits``, n = ``len(qubits)`` of them.

    Gate count is n(n+1)/2 plus ``floor(n/2)`` terminal swaps.  When
    ``node_of`` is given, it must place every listed qubit; gates are
    tagged with per-gate session blocks and each cross-node swap becomes a
    teleport round trip through the remote node's ``spare_of`` slot.
    """
    qubits = list(qubits)
    n = len(qubits)
    if n < 1:
        raise ValueError("need at least one qubit")
    if node_of is not None:
        for q in qubits:
            if q not in node_of:
                raise ValueError(f"qubit {q} missing from the placement")
    if num_qubits is None:
        num_qubits = max(qubits) + 1
        if spare_of:
            num_qubits = max(num_qubits, max(spare_of.values()) + 1)
    circ = Circuit(num_qubits)

    for h in range(n - 1, -1, -1):
        block = f"{path}@h{h}" if node_of else None
        circ.h(qubits[h], label=f"{path}/H[{h}]", block=block)
        for low in range(h - 1, -1, -1):
            block = f"{path}@r{h}.{low}" if node_of else None
            circ.gate(gates.R(h - low + 1), [qubits[h]],
                      [(qubits[low], True)],
                      label=f"{path}/CR[{low}->{h}]", block=block)
    for h in range(n // 2):
        a, b = qubits[h], qubits[n - 1 - h]
        if node_of and node_of[a] != node_of[b]:
            spare = spare_of[node_of[b]]
            circ.move(a, spare, label=f"{path}/SWAP[{h}]/out")
            circ.move(b, a, label=f"{path}/SWAP[{h}]/back")
            circ.move(spare, b, label=f"{path}/SWAP[{h}]/place")
        else:
            block = f"{path}@sw{h}" if node_of else None
            circ.swap(a, b, label=f"{path}/SWAP[{h}]", block=block)
    return circ


def build_inverse_qft(qubits: Sequence[int], *,
                      num_qubits: int | None = None, path: str = "QFTinv",
                      node_of: Mapping[int, str] | None = None,
                      spare_of: Mapping[str, int] | None = None) -> Circuit:
    """Reverse computation of the forward transform."""
    return reverse(build_qft(qubits, num_qubits=num_qubits, path=path,
                             node_of=node_of, spare_of=spare_of))


def cross_rotation_count(qubits: Sequence[int],
                         node_of: Mapping[int, str]) -> int:
    """Controlled rotations whose control and target sit on different
    nodes; for an even two-node split this is (n/2)^2."""
    return sum(1 for h in range(len(qubits)) for low in range(h)
               if node_of[qubits[h]] != node_of[qubits[low]])
