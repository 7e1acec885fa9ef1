"""Gate vocabulary shared by the simulator kernel and the circuit IR.

A ``GateKind`` is a small immutable descriptor.  Parameterized kinds carry
their parameters inline: rotations ``R(k)`` / ``R_inv(k)`` apply the phase
``exp(+-2*pi*i / 2**k)`` to the |1> component, and ``phase_gate(p, q)``
applies the exact rational phase ``exp(2*pi*i * p/q)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class GateKind:
    name: str
    k: int = 0  # rotation order for R / R_INV
    p: int = 0  # phase numerator for PHASE
    q: int = 1  # phase denominator for PHASE

    def __str__(self) -> str:
        if self.name in ("R", "R_INV"):
            return f"{self.name}({self.k})"
        if self.name == "PHASE":
            return f"PHASE({self.p}/{self.q})"
        return self.name


X = GateKind("X")
Z = GateKind("Z")
H = GateKind("H")
SWAP = GateKind("SWAP")
CNOT = GateKind("CNOT")
TOFFOLI = GateKind("TOFFOLI")

# The circuit IR's relocation directive; not a unitary gate kind.
MOVE = GateKind("MOVE")

_UNITARY_NAMES = frozenset(
    {"X", "Z", "H", "SWAP", "CNOT", "TOFFOLI", "R", "R_INV", "PHASE"}
)

#: Number of target qubits each unitary kind expects.
ARITY = {
    "X": 1, "Z": 1, "H": 1, "R": 1, "R_INV": 1, "PHASE": 1,
    "SWAP": 2, "CNOT": 2, "TOFFOLI": 3,
}


def R(k: int) -> GateKind:
    """Rotation ``diag(1, exp(2*pi*i / 2**k))`` with integer order k >= 2."""
    if k < 2:
        raise ValueError(f"rotation order must be >= 2, got {k}")
    return GateKind("R", k=k)


def R_inv(k: int) -> GateKind:
    if k < 2:
        raise ValueError(f"rotation order must be >= 2, got {k}")
    return GateKind("R_INV", k=k)


def phase_gate(p: int, q: int) -> GateKind:
    """Exact rational phase ``diag(1, exp(2*pi*i * p/q))``."""
    if q <= 0:
        raise ValueError("phase denominator must be positive")
    return GateKind("PHASE", p=p % q, q=q)


def is_unitary(kind: GateKind) -> bool:
    return kind.name in _UNITARY_NAMES


def inverse(kind: GateKind) -> GateKind:
    """Inverse gate; X/Z/H/CNOT/TOFFOLI/SWAP are self-inverse."""
    if kind.name == "R":
        return GateKind("R_INV", k=kind.k)
    if kind.name == "R_INV":
        return GateKind("R", k=kind.k)
    if kind.name == "PHASE":
        return GateKind("PHASE", p=(kind.q - kind.p) % kind.q, q=kind.q)
    if kind.name in _UNITARY_NAMES:
        return kind
    raise ValueError(f"{kind.name} has no inverse")


def phase_factor(kind: GateKind) -> complex:
    """Phase applied to the |1> component of a diagonal phase kind."""
    if kind.name == "R":
        return complex(math.cos(2 * math.pi / 2**kind.k),
                       math.sin(2 * math.pi / 2**kind.k))
    if kind.name == "R_INV":
        return complex(math.cos(2 * math.pi / 2**kind.k),
                       -math.sin(2 * math.pi / 2**kind.k))
    if kind.name == "PHASE":
        angle = 2 * math.pi * kind.p / kind.q
        return complex(math.cos(angle), math.sin(angle))
    raise ValueError(f"{kind.name} is not a phase gate")
