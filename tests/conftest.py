"""Shared fixtures and classical oracles for the test suite."""

from __future__ import annotations

import math
import random

import pytest

from distshor import cli, gates, partition
from distshor.circuit import (Circuit, Instruction, add_controls,
                              count_gates, execute, reverse)
from distshor.netsim import (Network, NetworkError, SessionRecord,
                             execute_distributed, remote_controls,
                             session_groups)
from distshor.qft import build_inverse_qft
from distshor.qstate import QuantumState, RandomSource, SimulationError
from distshor.revarith import build_an, gate_count_formula
from distshor.shor import run_order_circuit


def set_register(state: QuantumState, qubits, value: int):
    """Drive a |0> register to a computational basis value."""
    for i, q in enumerate(qubits):
        if (value >> i) & 1:
            state.apply_gate(gates.X, [q])
    return state


def read_register(state: QuantumState, qubits) -> int:
    """Read a register that must be in a single basis state."""
    dist = state.exact_distribution(list(qubits))
    assert len(dist) == 1, f"register not classical: {dist}"
    value, prob = next(iter(dist.items()))
    assert abs(prob - 1.0) < 1e-9
    return value


def run_on_basis(circ: Circuit, preset: dict) -> QuantumState:
    """Execute a circuit on a basis state given as {qubit: bit}."""
    state = QuantumState(circ.num_qubits)
    for q, bit in preset.items():
        if bit:
            state.apply_gate(gates.X, [q])
    execute(circ, state)
    return state


def reference_execute(circ: Circuit, state: QuantumState):
    """``circuit.execute`` with every instruction applied one at a time
    through ``apply_gate``: the reference for the permutation run kernel.
    A MOVE is a SWAP, refused when its destination is not |0>."""
    for inst in circ.instructions:
        if inst.kind.name == "MOVE":
            dst = inst.targets[1]
            if any(idx >> dst & 1 for idx in state.amplitudes):
                raise SimulationError(f"destination slot {dst} is not |0>")
            state.apply_gate(gates.SWAP, inst.targets)
        elif inst.classical_constant != 0:
            state.apply_gate(inst.kind, inst.targets, inst.controls)


def remote_cnot(network: Network, control: int, target: int):
    """A CNOT whose control sits on another node than its target: the
    one-gate program, run on the network as one session."""
    execute_distributed(network, Circuit(network.state.num_qubits).x(
        target, controls=[(control, True)]))


def remote_block(network: Network, control: int, body: Circuit):
    """``body``, local to one node, under a control on another node: run
    on the network as one session sharing the control once."""
    execute_distributed(network, add_controls(body, [(control, True)]))


def reference_session(network: Network, node_id: str,
                      instructions: list[Instruction], block: str | None):
    """``Network.run_session`` as the protocol runs it, gate by gate on
    the state: each remote control is entangled with a mirror through a
    fresh pair, the body runs on the mirrors, and the mirrors are
    disentangled in reverse order."""
    remote = remote_controls(instructions, node_id, network.node_of)
    if len(remote) > 3:
        raise NetworkError(
            f"session needs {len(remote)} remote controls (max 3)")
    cats = []
    mirror: dict[int, int] = {}
    for ctrl in remote:
        pair = network.establish_epr(network.node_of(ctrl), node_id)
        cat = network.cat_entangle(ctrl, pair)
        cats.append(cat)
        mirror[ctrl] = cat.mirror
    gate_count = 0
    for inst in instructions:
        if inst.classical_constant == 0:
            continue
        controls = tuple((mirror.get(q, q), pol) for q, pol in inst.controls)
        network.apply_local(node_id, inst.kind, inst.targets, controls)
        gate_count += 1
    for cat in reversed(cats):
        network.cat_disentangle(cat)
    if remote:
        network.sessions.append(
            SessionRecord(block, node_id, tuple(remote), gate_count))


def reference_move(network: Network, src: int, dst: int, label: str):
    """``Network.move`` with a cross-node relocation run as the physical
    teleport."""
    src_node, dst_node = network.node_of(src), network.node_of(dst)
    if src_node == dst_node:
        network.apply_local(src_node, gates.SWAP, [src, dst])
    else:
        network.teleport(src, dst_node, dst, label=label)


def reference_execute_distributed(network: Network, circ: Circuit):
    """``netsim.execute_distributed`` with every session and relocation
    run gate by gate through the physical protocol primitives: the
    reference for the closed-form gadgets."""
    for node, group in session_groups(circ.instructions, network.node_of):
        if node is None:
            reference_move(network, *group[0].targets, group[0].label)
        else:
            reference_session(network, node, group, group[0].block)


# The arithmetic ladder composed block by block: every block built forward
# and uncontrolled, its children wrapped by ``add_controls`` and turned
# around by ``reverse``.  The builders emit the same instructions once each,
# with the controls and the direction passed down; this is the reference
# they are diffed against.  AN, a straight run of gates, is the leaf, so
# its reversed form is checked through XAN.

def _reference_pool(layout, slicing) -> int:
    if slicing is None:
        return layout.pool_size
    return max(layout.pool_size, slicing.max_qubit + 1)


def reference_an(a, N, layout, *, slicing=None, path="AN") -> Circuit:
    return build_an(a, N, layout, slicing=slicing, path=path)


def reference_xan(a, N, layout, *, slicing=None, path="XAN") -> Circuit:
    circ = Circuit(_reference_pool(layout, slicing))
    circ.extend(reference_an(a, N, layout, slicing=slicing,
                             path=f"{path}/AN"))
    for i, (src, dst) in enumerate(zip(layout.inter, layout.out)):
        block = (f"{path}@cp{slicing.slice_of(i)}" if slicing else None)
        circ.cnot(src, dst, label=f"{path}/COPY[{i}]", block=block)
    circ.extend(reverse(reference_an(a, N, layout, slicing=slicing,
                                     path=f"{path}/ANr")))
    return circ


def reference_adder(a, N, layout, *, slicing=None, path="A") -> Circuit:
    circ = Circuit(_reference_pool(layout, slicing))
    circ.extend(reference_xan(a % N, N, layout, slicing=slicing,
                              path=f"{path}/XAN0"))
    for i, (p, q) in enumerate(zip(layout.b, layout.out)):
        block = (f"{path}@sw{slicing.slice_of(i)}" if slicing else None)
        circ.swap(p, q, label=f"{path}/SWAP[{i}]", block=block)
    circ.extend(reverse(reference_xan((N - a) % N, N, layout,
                                      slicing=slicing, path=f"{path}/XAN1r")))
    return circ


def reference_mf(a, N, layout, *, slicing=None, path="MF") -> Circuit:
    if math.gcd(a, N) != 1:
        raise ValueError(f"{a} is not invertible mod {N}")
    circ = Circuit(_reference_pool(layout, slicing))
    for i, ctrl in enumerate(layout.x):
        block = reference_adder((a << i) % N, N, layout, slicing=slicing,
                                path=f"{path}/A[{i}]")
        circ.extend(add_controls(block, [(ctrl, True)]))
    return circ


def reference_m(a, N, layout, *, slicing=None, path="M") -> Circuit:
    if math.gcd(a, N) != 1:
        raise ValueError(f"{a} is not invertible mod {N}")
    a = a % N
    circ = Circuit(_reference_pool(layout, slicing))
    circ.extend(reference_mf(a, N, layout, slicing=slicing,
                             path=f"{path}/MF0"))
    for i, (xq, bq) in enumerate(zip(layout.x, layout.b)):
        label = f"{path}/MSWAP[{i}]"
        if slicing is None:
            circ.swap(xq, bq, label=label)
        else:
            j = slicing.slice_of(i)
            spare = slicing.spares[j][1]
            circ.move(xq, spare, label=f"{label}/park")
            circ.swap(spare, bq, label=label, block=f"{path}@msw{j}.{i}")
            circ.move(spare, xq, label=f"{label}/unpark")
    circ.extend(reverse(reference_mf(pow(a, -1, N), N, layout,
                                     slicing=slicing, path=f"{path}/MF1r")))
    return circ


def reference_cm_m(a, N, m, layout, *, slicing=None, path="cm") -> Circuit:
    if m < 1:
        raise ValueError("need at least one control qubit")
    if math.gcd(a, N) != 1:
        raise ValueError(f"{a} is not invertible mod {N}")
    if m > layout.m:
        raise ValueError("layout control register too narrow")
    circ = Circuit(_reference_pool(layout, slicing))
    for i in range(m):
        block = reference_m(pow(a, 1 << i, N), N, layout, slicing=slicing,
                            path=f"{path}/M[{i}]")
        circ.extend(add_controls(block, [(layout.k[i], True)]))
    return circ


def reference_counts_section(config: cli.RunConfig) -> dict:
    """``cli._counts_section`` read off the whole distributed order
    program, every multiplier of the ladder built and censused: the
    reference for the report's first-instance counts."""
    n, m = config.n, config.m_effective
    a = config.a if config.a is not None else cli._default_base(config.N)
    plan = partition.plan_placement(n, m)
    program = partition.build_distributed_order_program(a, config.N, plan)

    counted = count_gates(program)
    adder = "cm/M[0]/MF0/A[0]"
    measured = {lvl: counted.count_under(path) for lvl, path in (
        ("FA", f"{adder}/XAN0/AN/FA"), ("HA", f"{adder}/XAN0/AN/HA"),
        ("AN", f"{adder}/XAN0/AN"), ("XAN", f"{adder}/XAN0"), ("A", adder),
        ("MF", "cm/M[0]/MF0"), ("M", "cm/M[0]"), ("c_m(M)", "cm"))}
    measured["QFT_inv"] = count_gates(build_inverse_qft(range(m))).total

    predicted = {lvl: gate_count_formula(lvl, n, m)
                 for lvl in ("FA", "HA", "AN", "XAN", "A", "MF", "M",
                             "c_m(M)", "QFT_inv")}
    deltas = {lvl: measured[lvl] - predicted[lvl] for lvl in predicted}

    census = partition.census_from_program(program, plan)
    slices = len(plan.adder_nodes)
    return {
        "G_measured": measured,
        "G_closed_form": predicted,
        "G_delta": deltas,
        "NL_T": partition.count_nl_t(census, n, m),
        "predictions": {
            "NL(AN)": 2 * slices,
            "NL(c_m(M))": 11 * slices * m * n,
            "T(SHOR)": 4 * (slices - 1) * m * n,
            "G(c_m(M))": gate_count_formula("c_m(M)", n, m),
            "qubits_monolithic": 5 * n + m + 1,
            "qubits_distributed": 5 * n + m + 1,
            "nodes": 7,
            "node_capacity": plan.capacity,
        },
    }


def amp_distance(a: QuantumState, b: QuantumState) -> float:
    keys = set(a.amplitudes) | set(b.amplitudes)
    return max(abs(a.amplitude(k) - b.amplitude(k)) for k in keys)


def random_amplitudes(qubits, num_qubits, py_rng: random.Random):
    """A random state over the listed qubits (others |0>)."""
    amps = {}
    for localidx in range(1 << len(qubits)):
        idx = 0
        for i, q in enumerate(qubits):
            if (localidx >> i) & 1:
                idx |= 1 << q
        amps[idx] = complex(py_rng.gauss(0, 1), py_rng.gauss(0, 1))
    return amps


def assert_ancillas_zero(state: QuantumState, qubits, tol: float = 1e-12):
    for q in qubits:
        p = state.prob_one(q)
        assert p <= tol, f"ancilla {q} not clean: P(1) = {p}"


@pytest.fixture(scope="session")
def mono_run_15():
    """Monolithic pre-measurement order run for N=15, a=7, m=8."""
    return run_order_circuit(7, 15, 8, RandomSource(1), mode="monolithic")


@pytest.fixture(scope="session")
def dist_run_15():
    """Distributed pre-measurement order run for N=15, a=7, m=8."""
    return run_order_circuit(7, 15, 8, RandomSource(1), mode="distributed")
