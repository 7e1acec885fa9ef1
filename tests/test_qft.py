"""Fourier-transform tests: matrix-level correctness, inversion, split
execution."""

import cmath
import math

import numpy as np
import pytest

from distshor import gates
from distshor.circuit import count_gates, execute
from distshor.netsim import Network, NodeSpec, Topology, execute_distributed
from distshor.qft import build_inverse_qft, build_qft, cross_rotation_count
from distshor.qstate import QuantumState, RandomSource


def circuit_matrix(circ, n):
    """Columns = circuit action on each basis state."""
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        st = QuantumState(circ.num_qubits)
        for i in range(n):
            if (col >> i) & 1:
                st.apply_gate(gates.X, [i])
        execute(circ, st)
        for row, amp in st.amplitudes.items():
            mat[row, col] = amp
    return mat


def dft_matrix(n):
    dim = 1 << n
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * np.pi * j * k / dim) / math.sqrt(dim)


class TestForward:
    def test_single_qubit_is_hadamard(self):
        circ = build_qft(range(1))
        assert [i.kind.name for i in circ.instructions] == ["H"]
        st = QuantumState(1)
        execute(circ, st)
        assert abs(st.amplitude(0) - 0.5**0.5) < 1e-15

    def test_zero_input_gives_uniform(self):
        n = 5
        st = QuantumState(n)
        execute(build_qft(range(n)), st)
        for idx in range(1 << n):
            assert abs(st.amplitude(idx) - (1 << n) ** -0.5) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matrix_matches_dft(self, n):
        mat = circuit_matrix(build_qft(range(n)), n)
        np.testing.assert_allclose(mat, dft_matrix(n), atol=1e-12)

    def test_empty_register_rejected(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            build_qft([])

    def test_gate_count(self):
        for m in (3, 4, 8):
            report = count_gates(build_qft(range(m)))
            assert report.total == m * (m + 1) // 2 + m // 2


class TestInverse:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_inverse_of_forward_is_identity(self, n):
        fwd = build_qft(range(n))
        inv = build_inverse_qft(range(n))
        for j in range(1 << n) if n <= 6 else range(0, 1 << n, 7):
            st = QuantumState(n)
            for i in range(n):
                if (j >> i) & 1:
                    st.apply_gate(gates.X, [i])
            execute(fwd, st)
            execute(inv, st)
            assert abs(st.amplitude(j) - 1.0) < 1e-10

    def test_recovers_exact_phase_state(self):
        m, j = 4, 11
        dim = 1 << m
        amps = {k: cmath.exp(2j * math.pi * k * j / dim) / math.sqrt(dim)
                for k in range(dim)}
        st = QuantumState.from_amplitudes(m, amps)
        execute(build_inverse_qft(range(m)), st)
        assert abs(st.amplitude(j) - 1.0) < 1e-10

    def test_gate_count_splits_into_ladder_and_swaps(self):
        m = 8
        report = count_gates(build_inverse_qft(range(m)))
        swaps = sum(1 for i in build_inverse_qft(range(m)).instructions
                    if i.kind.name == "SWAP")
        assert report.total - swaps == m * (m + 1) // 2
        assert swaps == m // 2


def two_node_setup(n, seed=0):
    """n estimation qubits split evenly across two machines."""
    half = n // 2
    cap = half + 1 + 2  # slice + parking slot + channels
    topo = Topology([NodeSpec("L", cap, 2), NodeSpec("R", cap, 2)])
    net = Network(topo, RandomSource(seed))
    left = net.allocate_data("L", half + 1)
    right = net.allocate_data("R", n - half + 1)
    qubits = left[:half] + right[:n - half]
    node_of = {q: "L" for q in left} | {q: "R" for q in right}
    spare_of = {"L": left[-1], "R": right[-1]}
    return net, qubits, node_of, spare_of


class TestDistributed:
    @pytest.mark.parametrize("basis", range(16))
    def test_two_node_split_matches_monolithic(self, basis):
        net, qubits, node_of, spare_of = two_node_setup(4, seed=basis)
        program = build_qft(qubits, node_of=node_of, spare_of=spare_of)
        for i, q in enumerate(qubits):
            if (basis >> i) & 1:
                net.apply_local(node_of[q], gates.X, [q])
        execute_distributed(net, program)

        ref = QuantumState(max(qubits) + 1)
        for i, q in enumerate(qubits):
            if (basis >> i) & 1:
                ref.apply_gate(gates.X, [q])
        execute(build_qft(qubits, num_qubits=max(qubits) + 1), ref)
        got = net.state.exact_distribution(qubits)
        want = ref.exact_distribution(qubits)
        for key in set(got) | set(want):
            assert abs(got.get(key, 0) - want.get(key, 0)) < 1e-12
        # amplitude-level equality over the data qubits
        for idx, amp in ref.amplitudes.items():
            assert abs(net.state.amplitude(idx) - amp) < 1e-12

    def test_single_node_plan_costs_nothing(self):
        topo = Topology([NodeSpec("solo", 8, 2)])
        net = Network(topo, RandomSource(0))
        qubits = net.allocate_data("solo", 4)
        node_of = {q: "solo" for q in qubits}
        program = build_qft(qubits, node_of=node_of, spare_of={})
        execute_distributed(net, program)
        assert net.ledger.ebits_consumed == 0
        assert net.ledger.teleports == 0
        assert net.ledger.total_cbits() == 0

    def test_cross_rotation_count_even_split(self):
        qubits = list(range(4))
        node_of = {0: "L", 1: "L", 2: "R", 3: "R"}
        assert cross_rotation_count(qubits, node_of) == 4

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_nonlocal_rotations_quarter_square(self, m):
        net, qubits, node_of, spare_of = two_node_setup(m)
        program = build_qft(qubits, node_of=node_of, spare_of=spare_of)
        execute_distributed(net, program)
        rotation_sessions = [s for s in net.sessions
                             if s.block and "@r" in s.block]
        assert len(rotation_sessions) == m * m // 4
        assert cross_rotation_count(qubits, node_of) == m * m // 4

    def test_missing_qubit_in_placement(self):
        with pytest.raises(ValueError):
            build_qft([0, 1], node_of={0: "L"}, spare_of={})
