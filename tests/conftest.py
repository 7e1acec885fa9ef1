"""Shared fixtures and classical oracles for the test suite."""

from __future__ import annotations

import math
import random
from typing import Mapping, NamedTuple, Sequence

import pytest

from distshor import cli, gates, partition
from distshor.circuit import (Circuit, Instruction, Repeat, count_gates,
                              execute, reverse)
from distshor.netsim import (_PURE_TOL, MAX_REMOTE_CONTROLS, Network,
                             NetworkError, execute_distributed,
                             session_groups)
from distshor.qft import build_inverse_qft
from distshor.qstate import (Control, QuantumState, RandomSource,
                             SimulationError)
from distshor.revarith import build_an, gate_count_formula
from distshor.shor import order_round


def from_amplitudes(num_qubits: int,
                    amplitudes: Mapping[int, complex]) -> QuantumState:
    """A state with explicit amplitudes (normalized on entry)."""
    state = QuantumState(num_qubits)
    norm = sum(abs(a) ** 2 for a in amplitudes.values()) ** 0.5
    if norm < 1e-12:
        raise ValueError("cannot normalize an all-zero amplitude map")
    limit = 1 << num_qubits
    state.amplitudes = {}
    for idx, amp in amplitudes.items():
        if not 0 <= idx < limit:
            raise ValueError(f"basis index {idx} out of range")
        value = complex(amp) / norm
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValueError(f"amplitude at {idx} is not finite")
        state.amplitudes[idx] = value
    state.peak_support = len(state.amplitudes)
    return state


def amplitude(state: QuantumState, index: int) -> complex:
    """The amplitude of basis state ``index``; 0 off the support."""
    return state.amplitudes.get(index, 0.0 + 0.0j)


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


def without_repeats(circ: Circuit) -> Circuit:
    """``circ`` as one list piece, every repeat spelled, so the state
    kernel runs it flat."""
    bare = Circuit(circ.num_qubits)
    bare.instructions.extend(circ.instructions)
    return bare


def repeats_of(circ: Circuit) -> list[Repeat]:
    """The circuit's repeats (``circuit.Repeat``), in order."""
    return [piece for piece in circ.pieces if type(piece) is not list]


def used_qubits(circ: Circuit) -> set[int]:
    """Every qubit an instruction of ``circ`` targets or is controlled
    by."""
    used = {q for inst in circ.instructions for q in inst.targets}
    used.update(q for inst in circ.instructions for q, _ in inst.controls)
    return used


def add_controls(circ: Circuit, extra: Sequence[Control]) -> Circuit:
    """Give every gate additional controls; MOVE directives are exempt.

    The extra control qubits must not be touched by the circuit, and no
    resulting gate may exceed 5 controls (CNOT/TOFFOLI count their built-in
    controls).  The arithmetic builders pass their controls down as they
    emit; this wrapper is the reference they are checked against, and it
    writes a remotely controlled block as a program.
    """
    extra = tuple(extra)
    used = used_qubits(circ)
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


def phase_estimation_state(controlled_power, prepare: Circuit, m: int,
                           n_target: int) -> QuantumState:
    """Phase estimation run up to measurement, the order-finding program's
    skeleton for any unitary on target qubits 0..n_target-1: ``prepare``,
    an H on each estimation qubit n_target..n_target+m-1, the controlled
    powers ``controlled_power(i, k_i)`` (the unitary 2^i times under
    control k_i), then the inverse transform."""
    k_qubits = range(n_target, n_target + m)
    circ = Circuit(n_target + m).extend(prepare)
    for kq in k_qubits:
        circ.h(kq)
    for i, kq in enumerate(k_qubits):
        circ.extend(controlled_power(i, kq))
    circ.extend(build_inverse_qft(k_qubits, num_qubits=circ.num_qubits))
    state = QuantumState(circ.num_qubits)
    execute(circ, state)
    return state


def remote_cnot(network: Network, control: int, target: int):
    """A CNOT whose control sits on another node than its target: the
    one-gate program, run on the network as one session."""
    execute_distributed(network, Circuit(network.state.num_qubits).x(
        target, controls=[(control, True)]))


def remote_block(network: Network, control: int, body: Circuit):
    """``body``, local to one node, under a control on another node: run
    on the network as one session sharing the control once."""
    execute_distributed(network, add_controls(body, [(control, True)]))


def reset_channels(network: Network, node_id: str):
    """Return every channel qubit of a node to |0>.

    Errors out if a channel qubit is still correlated with live data,
    i.e. its marginal is not an exact |0> or |1>.
    """
    rt = network._node(node_id)
    for q in rt.channel_slots:
        p_one = network.state.prob_one(q)
        if _PURE_TOL < p_one < 1.0 - _PURE_TOL:
            raise NetworkError(
                f"channel qubit {q} on {node_id} is still entangled")
        if p_one >= 1.0 - _PURE_TOL:
            network.state.apply_gate(gates.X, [q])
        rt.busy_channels.discard(q)


class SessionRecord(NamedTuple):
    """One remotely controlled block: the unit non-local ops are counted
    in."""

    block: str | None
    node: str
    remote_controls: tuple[int, ...]
    gates: int


class TeleportRecord(NamedTuple):
    src_node: str
    dst_node: str
    label: str


def census_from_records(sessions: Sequence[SessionRecord],
                        teleports: Sequence[TeleportRecord]
                        ) -> partition.BlockCensus:
    """The census of what a reference walk recorded: the dynamic side
    of ``partition.census_from_program``."""
    return partition._census((rec.block for rec in sessions),
                             (rec.label for rec in teleports))


def reference_session(network: Network, node_id: str,
                      instructions: list[Instruction],
                      block: str | None) -> SessionRecord | None:
    """``Network.run_session`` as the protocol runs it, gate by gate on
    the state: each remote control is entangled with a mirror through a
    fresh pair, the body runs on the mirrors, and the mirrors are
    disentangled in reverse order.  It finds the remote controls itself,
    so a fault in the facts ``session_groups`` finds shows here.  Returns
    the session's record, or None when it shares no control."""
    remote: list[int] = []
    for inst in instructions:
        for q, _pol in inst.controls:
            if network.node_of(q) != node_id and q not in remote:
                remote.append(q)
    if len(remote) > MAX_REMOTE_CONTROLS:
        raise NetworkError(f"session needs {len(remote)} remote "
                           f"controls (max {MAX_REMOTE_CONTROLS})")
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
        return SessionRecord(block, node_id, tuple(remote), gate_count)
    return None


def reference_move(network: Network, src: int, dst: int,
                   label: str) -> TeleportRecord | None:
    """``Network.move`` with a cross-node relocation run as the physical
    teleport; returns the teleport's record, or None within a node."""
    src_node, dst_node = network.node_of(src), network.node_of(dst)
    if src_node == dst_node:
        network.apply_local(src_node, gates.SWAP, [src, dst])
        return None
    network.teleport(src, dst_node, dst)
    return TeleportRecord(src_node, dst_node, label)


def reference_execute_distributed(
        network: Network,
        circ: Circuit) -> tuple[list[SessionRecord], list[TeleportRecord]]:
    """``netsim.execute_distributed`` with every session and relocation
    run gate by gate through the physical protocol primitives: the
    reference for the closed-form gadgets.  Returns its records: each
    session that shares a control and each teleport, in order."""
    sessions: list[SessionRecord] = []
    teleports: list[TeleportRecord] = []
    for node, insts, *_, is_move in session_groups(circ.instructions,
                                                   network.node_of):
        if is_move:
            record = reference_move(network, *insts[0].targets,
                                    insts[0].label)
            if record is not None:
                teleports.append(record)
        else:
            record = reference_session(network, node, insts,
                                       insts[0].block)
            if record is not None:
                sessions.append(record)
    return sessions, teleports


def observed(network: Network) -> dict:
    """Everything a network run leaves behind except the state; reading
    the next draw advances the network's random stream."""
    return {
        "ledger": network.ledger.as_dict(),
        "max_live": network.max_live,
        "next_draw": network.rng.uniform(),
    }


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
        circ.gate(gates.CNOT, [src, dst], label=f"{path}/COPY[{i}]",
                  block=block)
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
    return max(abs(amplitude(a, k) - amplitude(b, k)) for k in keys)


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
    return order_round(7, 15, 8, "monolithic")(RandomSource(1))


@pytest.fixture(scope="session")
def dist_run_15():
    """Distributed pre-measurement order run for N=15, a=7, m=8."""
    return order_round(7, 15, 8, "distributed")(RandomSource(1))


def round_outcome(run) -> tuple:
    """The first-register distribution, j and what the network left
    behind, for a distributed order-finding round run up to measurement:
    (j, distribution, ``observed``)."""
    dist = run.state.exact_distribution(run.k_qubits)
    j = run.measure_first_register(run.network.rng)
    return j, dist, observed(run.network)


class ReferenceRound(NamedTuple):
    """A distributed round whose program went through the reference
    walk instead of ``execute_distributed``."""
    records: tuple  # the walk's (sessions, teleports)
    outcome: tuple  # ``round_outcome`` of the round
    programs: int   # programs the round walked


def reference_round(a: int, N: int, m: int, seed: int) -> ReferenceRound:
    """Run one distributed order-finding round on ``RandomSource(seed)``
    with every program it runs walked gate by gate through the physical
    protocol (``reference_execute_distributed``)."""
    walks = []

    def walk(network, program):
        walks.append(reference_execute_distributed(network, program))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partition, "execute_distributed", walk)
        run = order_round(a, N, m, "distributed")(RandomSource(seed))
    return ReferenceRound(walks[0], round_outcome(run), len(walks))


@pytest.fixture(scope="session")
def reference_round_15() -> ReferenceRound:
    """The N=15, a=7, m=8 distributed round on ``RandomSource(1)``
    through the reference walk, which tier-1 runs only here."""
    return reference_round(7, 15, 8, 1)
