"""Distributed quantum-network simulator for the factoring algorithm.

Sparse statevector kernel, reversible modular arithmetic, shared-control
network protocols with exact entanglement and classical-bit accounting,
and the seven-node qubit placement.
"""

from .circuit import (Circuit, GateCountReport, Instruction, add_controls,
                      count_gates, dump, execute, reverse)
from .gates import GateKind, R, R_inv, phase_gate
from .netsim import (CatState, EprPair, Network, NetworkError, NodeSpec,
                     ResourceLedger, Topology, execute_distributed)
from .partition import (PlacementPlan, count_nl_t, distribute_circuit,
                        plan_placement)
from .qstate import QuantumState, RandomSource, SimulationError
from .revarith import (AdderSlicing, ChainSegment, RegisterLayout,
                       gate_count_formula)
from .shor import (FactoringOutcome, OrderResult, PhaseEstimate,
                   continued_fraction, factor, find_order, phase_estimate)

__version__ = "0.1.0"
