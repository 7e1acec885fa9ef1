"""Kernel tests: gate semantics, measurement, marginals, determinism."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from distshor import gates
from distshor.circuit import Circuit, Instruction, execute
from distshor.gates import ARITY
from distshor.qstate import QuantumState, RandomSource, SimulationError

from conftest import reference_execute

SQH = 0.5**0.5


class TestGates:
    def test_x_flips_basis(self):
        st = QuantumState(2)
        st.apply_gate(gates.X, [1])
        assert st.amplitudes == {2: 1.0 + 0.0j}

    def test_cnot_permutes_basis(self):
        st = QuantumState(2)
        st.apply_gate(gates.X, [0])  # |10> with qubit0 = 1
        st.apply_gate(gates.CNOT, [0, 1])
        assert set(st.amplitudes) == {3}

    def test_hadamard_splits(self):
        st = QuantumState(1)
        st.apply_gate(gates.H, [0])
        assert abs(st.amplitude(0) - SQH) < 1e-15
        assert abs(st.amplitude(1) - SQH) < 1e-15

    def test_rotation_order_two_gives_quarter_phase(self):
        st = QuantumState(1)
        st.apply_gate(gates.H, [0])
        st.apply_gate(gates.R(2), [0])
        assert abs(st.amplitude(1) - SQH * 1j) < 1e-15
        assert abs(st.amplitude(0) - SQH) < 1e-15

    def test_phase_gate_matches_rational_angle(self):
        st = QuantumState(1)
        st.apply_gate(gates.X, [0])
        st.apply_gate(gates.phase_gate(1, 3), [0])
        want = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        assert abs(st.amplitude(1) - want) < 1e-15

    def test_toffoli_fires_only_on_both(self):
        for c1, c2 in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            st = QuantumState(3)
            if c1:
                st.apply_gate(gates.X, [0])
            if c2:
                st.apply_gate(gates.X, [1])
            st.apply_gate(gates.TOFFOLI, [0, 1, 2])
            want = c1 | (c2 << 1) | ((c1 & c2) << 2)
            assert set(st.amplitudes) == {want}

    def test_swap(self):
        st = QuantumState(2)
        st.apply_gate(gates.X, [0])
        st.apply_gate(gates.SWAP, [0, 1])
        assert set(st.amplitudes) == {2}

    def test_negative_polarity_control_fires_on_zero(self):
        st = QuantumState(2)
        st.apply_gate(gates.X, [1], [(0, False)])
        assert set(st.amplitudes) == {2}
        st2 = QuantumState(2)
        st2.apply_gate(gates.X, [0])
        st2.apply_gate(gates.X, [1], [(0, False)])
        assert set(st2.amplitudes) == {1}

    def test_mcx_with_mixed_polarities(self):
        # fires when q0 = 1 and q1 = 0
        st = QuantumState(3)
        st.apply_gate(gates.X, [0])
        st.apply_gate(gates.X, [2], [(0, True), (1, False)])
        assert set(st.amplitudes) == {5}

    def test_unitary_inverse_round_trip(self):
        rng = random.Random(7)
        st = QuantumState(4)
        applied = []
        for _ in range(60):
            choice = rng.randrange(5)
            q = rng.randrange(4)
            if choice == 0:
                g = gates.H
            elif choice == 1:
                g = gates.X
            elif choice == 2:
                g = gates.Z
            elif choice == 3:
                g = gates.R(rng.randrange(2, 7))
            else:
                g = gates.SWAP
            targets = [q] if g.name != "SWAP" else [q, (q + 1) % 4]
            st.apply_gate(g, targets)
            applied.append((g, targets))
        for g, targets in reversed(applied):
            st.apply_gate(gates.inverse(g), targets)
        assert abs(st.amplitude(0) - 1.0) < 1e-12
        for idx, amp in st.amplitudes.items():
            if idx != 0:
                assert abs(amp) < 1e-12

    def test_norm_preserved_over_random_circuit(self):
        rng = random.Random(3)
        st = QuantumState(6)
        for _ in range(300):
            q = rng.randrange(6)
            g = (gates.H, gates.X, gates.Z,
                 gates.R(rng.randrange(2, 9)))[rng.randrange(4)]
            ctrl = ()
            if rng.random() < 0.4:
                cq = rng.randrange(6)
                if cq != q:
                    ctrl = ((cq, rng.random() < 0.5),)
            st.apply_gate(g, [q], ctrl)
        assert abs(st.norm_squared() - 1.0) < 1e-10

    def test_prune_drops_dust(self):
        st = QuantumState(1)
        st.apply_gate(gates.H, [0])
        st.apply_gate(gates.H, [0])
        assert set(st.amplitudes) == {0}


class TestGateErrors:
    def test_target_out_of_range(self):
        with pytest.raises(SimulationError):
            QuantumState(2).apply_gate(gates.X, [2])

    def test_target_control_overlap(self):
        with pytest.raises(SimulationError):
            QuantumState(2).apply_gate(gates.X, [0], [(0, True)])

    def test_arity_mismatch(self):
        with pytest.raises(SimulationError):
            QuantumState(3).apply_gate(gates.CNOT, [0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            QuantumState(1).apply_gate(gates.MOVE, [0])

    def test_rotation_order_below_two_rejected(self):
        with pytest.raises(ValueError):
            gates.R(1)


class TestMeasure:
    def test_bell_measurement_collapses_both(self):
        for seed in range(20):
            st = QuantumState(2)
            st.apply_gate(gates.H, [0])
            st.apply_gate(gates.CNOT, [0, 1])
            rng = RandomSource(seed)
            out = st.measure(0, rng)
            assert set(st.amplitudes) == ({0} if out == 0 else {3})

    def test_deterministic_outcome(self):
        st = QuantumState(1)
        st.apply_gate(gates.X, [0])
        assert st.measure(0, RandomSource(0)) == 1
        assert st.amplitudes == {1: 1.0 + 0.0j}

    def test_born_rule_marginal(self):
        st = QuantumState.from_amplitudes(1, {0: 0.6, 1: 0.8})
        assert abs(st.prob_one(0) - 0.64) < 1e-12
        hits = sum(st.copy().measure(0, RandomSource(s)) == 0
                   for s in range(4000))
        assert abs(hits / 4000 - 0.36) < 0.03

    def test_measurement_renormalizes(self):
        st = QuantumState.from_amplitudes(2, {0: 0.6, 3: 0.8})
        st.measure(0, RandomSource(5))
        assert abs(st.norm_squared() - 1.0) < 1e-12

    def test_out_of_range_qubit(self):
        with pytest.raises(SimulationError):
            QuantumState(1).measure(3, RandomSource(0))


class TestExactDistribution:
    def test_bell_pair(self):
        st = QuantumState(2)
        st.apply_gate(gates.H, [0])
        st.apply_gate(gates.CNOT, [0, 1])
        dist = st.exact_distribution([0, 1])
        assert dist.keys() == {0, 3}
        assert abs(dist[0] - 0.5) < 1e-12 and abs(dist[3] - 0.5) < 1e-12

    def test_single_hadamard(self):
        st = QuantumState(1)
        st.apply_gate(gates.H, [0])
        dist = st.exact_distribution([0])
        assert abs(dist[0] - 0.5) < 1e-12 and abs(dist[1] - 0.5) < 1e-12

    def test_marginal_over_subset(self):
        st = QuantumState(3)
        st.apply_gate(gates.H, [0])
        st.apply_gate(gates.CNOT, [0, 2])
        dist = st.exact_distribution([2])
        assert abs(dist[0] - 0.5) < 1e-12 and abs(dist[1] - 0.5) < 1e-12

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            QuantumState(2).exact_distribution([0, 0])

    def test_probabilities_sum_to_one(self):
        rng = random.Random(9)
        amps = {i: complex(rng.gauss(0, 1), rng.gauss(0, 1))
                for i in range(16)}
        st = QuantumState.from_amplitudes(4, amps)
        dist = st.exact_distribution([0, 1, 2, 3])
        assert abs(sum(dist.values()) - 1.0) < 1e-10


class TestDeterminism:
    def test_identical_seed_identical_transcript(self):
        def run(seed):
            st = QuantumState(3)
            rng = RandomSource(seed)
            outs = []
            for _ in range(30):
                st.apply_gate(gates.H, [0])
                st.apply_gate(gates.CNOT, [0, 1])
                outs.append(st.measure(1, rng))
            return outs, dict(st.amplitudes)

        t1, a1 = run(42)
        t2, a2 = run(42)
        assert t1 == t2
        assert a1 == a2  # bit-identical amplitudes

    def test_different_seed_differs_somewhere(self):
        outs = set()
        for seed in range(8):
            st = QuantumState(1)
            st.apply_gate(gates.H, [0])
            outs.add(st.measure(0, RandomSource(seed)))
        assert outs == {0, 1}


PERMUTATION_KINDS = (gates.X, gates.CNOT, gates.TOFFOLI, gates.SWAP,
                     gates.MOVE)


@hst.composite
def permutation_instructions(draw, num_qubits: int) -> Instruction:
    """One permutation gate or MOVE on distinct qubits: extra controls of
    mixed polarity up to five controls in all, constant None, 0 or 1."""
    kind = draw(hst.sampled_from(PERMUTATION_KINDS))
    if kind == gates.MOVE:
        arity, max_extra = 2, 0
    else:
        arity = ARITY[kind.name]
        max_extra = 5 - {"CNOT": 1, "TOFFOLI": 2}.get(kind.name, 0)
    n_extra = draw(hst.integers(0, min(max_extra, num_qubits - arity)))
    qubits = draw(hst.permutations(range(num_qubits)))
    extra = tuple((q, draw(hst.booleans()))
                  for q in qubits[arity:arity + n_extra])
    constant = draw(hst.sampled_from((None, 0, 1)))
    return Instruction(kind, tuple(qubits[:arity]), extra, constant)


@hst.composite
def sparse_states_and_runs(draw):
    num_qubits = draw(hst.integers(3, 12))
    keys = draw(hst.lists(hst.integers(0, (1 << num_qubits) - 1),
                          min_size=1, max_size=64, unique=True))
    amps = {k: complex(i + 1, -i) for i, k in enumerate(keys)}
    circ = Circuit(num_qubits)
    circ.instructions = draw(hst.lists(permutation_instructions(num_qubits),
                                       max_size=30))
    return amps, circ


def per_gate(state, run):
    for gate, targets, controls in run:
        state.apply_gate(gate, targets, controls)
    return state


class TestPermutationRun:
    """The run kernel against ``apply_gate`` one gate at a time: same
    keys, same values, same entry order."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_states_and_runs())
    def test_matches_per_gate_application(self, case):
        amps, circ = case
        errors = []
        states = []
        for run in (reference_execute, execute):
            st = QuantumState.from_amplitudes(circ.num_qubits, amps)
            try:
                run(circ, st)
                errors.append(None)
            except SimulationError as exc:  # a MOVE into a set slot
                errors.append(str(exc))
            states.append(st)
        ref, st = states
        assert errors[1] == errors[0]
        assert list(st.amplitudes.items()) == list(ref.amplitudes.items())
        assert st.peak_support == ref.peak_support

    def test_move_into_set_slot_rejected(self):
        circ = Circuit(3)
        circ.h(2)
        circ.x(0)
        circ.move(0, 2)
        with pytest.raises(SimulationError,
                           match=r"^destination slot 2 is not \|0>$"):
            execute(circ, QuantumState(3))

    def test_runs_split_at_other_instructions(self):
        circ = Circuit(4)
        for q in range(3):
            circ.h(q)
        circ.cnot(0, 3)
        circ.toffoli(1, 2, 3, classical_constant=0)
        circ.h(1)
        circ.x(3, controls=[(1, True)])
        circ.gate(gates.X, [2], [(0, False), (3, True)])
        circ.r(2, 0, controls=[(2, True)])
        circ.swap(1, 3, controls=[(0, True)])
        circ.move(2, 3)
        ref = QuantumState(4)
        reference_execute(circ, ref)
        st = QuantumState(4)
        execute(circ, st)
        assert list(st.amplitudes.items()) == list(ref.amplitudes.items())

    def test_non_permutation_gate_rejected(self):
        with pytest.raises(SimulationError):
            QuantumState(2).apply_permutation([(gates.H, [0], ())])

    @pytest.mark.parametrize("bad", [
        (gates.X, [5], ()),                          # qubit out of range
        (gates.X, [1], [(5, True)]),                 # control out of range
        (gates.SWAP, [2, 2], ()),                    # duplicate target
        (gates.TOFFOLI, [0, 1, 1], ()),              # target is a control
        (gates.X, [3], [(0, True), (3, False)]),     # target is a control
    ])
    def test_errors_match_per_gate(self, bad):
        amps = {0b0011: 1.0, 0b0110: 1.0j, 0b1101: -1.0}
        good = [(gates.CNOT, [0, 2], ()), (gates.SWAP, [1, 3], ())]
        ref = QuantumState.from_amplitudes(4, amps)
        with pytest.raises(SimulationError) as ref_err:
            per_gate(ref, good + [bad])
        st = QuantumState.from_amplitudes(4, amps)
        with pytest.raises(SimulationError) as run_err:
            st.apply_permutation(iter(good + [bad, good[0]]))
        assert str(run_err.value) == str(ref_err.value)
        assert list(st.amplitudes.items()) == list(ref.amplitudes.items())


class TestPeakSupport:
    def test_copy_keeps_peak(self):
        st = QuantumState(3)
        for q in range(3):
            st.apply_gate(gates.H, [q])
        st.measure(0, RandomSource(0))
        assert st.copy().peak_support == st.peak_support == 8

    def test_from_amplitudes_starts_at_support(self):
        st = QuantumState.from_amplitudes(3, {0: 1.0, 5: 1.0, 6: 1.0})
        assert st.peak_support == 3
