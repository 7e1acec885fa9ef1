"""Kernel tests: gate semantics, measurement, marginals, determinism."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from distshor import gates
from distshor.circuit import Circuit, Instruction, Repeat, execute
from distshor.gates import ARITY
from distshor.qstate import QuantumState, RandomSource, SimulationError

from conftest import (amplitude, from_amplitudes, reference_execute,
                      without_repeats)

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
        assert abs(amplitude(st, 0) - SQH) < 1e-15
        assert abs(amplitude(st, 1) - SQH) < 1e-15

    def test_rotation_order_two_gives_quarter_phase(self):
        st = QuantumState(1)
        st.apply_gate(gates.H, [0])
        st.apply_gate(gates.R(2), [0])
        assert abs(amplitude(st, 1) - SQH * 1j) < 1e-15
        assert abs(amplitude(st, 0) - SQH) < 1e-15

    def test_phase_gate_matches_rational_angle(self):
        st = QuantumState(1)
        st.apply_gate(gates.X, [0])
        st.apply_gate(gates.phase_gate(1, 3), [0])
        want = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        assert abs(amplitude(st, 1) - want) < 1e-15

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
        assert abs(amplitude(st, 0) - 1.0) < 1e-12
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
        assert abs(sum(abs(a) ** 2 for a in st.amplitudes.values())
                   - 1.0) < 1e-10

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
        st = from_amplitudes(1, {0: 0.6, 1: 0.8})
        assert abs(st.prob_one(0) - 0.64) < 1e-12
        hits = sum(st.copy().measure(0, RandomSource(s)) == 0
                   for s in range(4000))
        assert abs(hits / 4000 - 0.36) < 0.03

    def test_measurement_renormalizes(self):
        st = from_amplitudes(2, {0: 0.6, 3: 0.8})
        st.measure(0, RandomSource(5))
        assert abs(sum(abs(a) ** 2 for a in st.amplitudes.values())
                   - 1.0) < 1e-12

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
        st = from_amplitudes(4, amps)
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

    # 12078 is the coin count of one distributed N=15, m=6 walk
    @pytest.mark.parametrize("count", [0, 1, 2, 12078])
    def test_skip_advances_as_uniform_draws_do(self, count):
        drawn, skipped = RandomSource(7), RandomSource(7)
        for _ in range(count):
            drawn.uniform()
        skipped.skip(count)
        assert skipped._rng.getstate() == drawn._rng.getstate()
        assert skipped.uniform() == drawn.uniform()


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
    circ.instructions.extend(draw(hst.lists(
        permutation_instructions(num_qubits), max_size=30)))
    return amps, circ


@hst.composite
def sparse_states_and_repeating_runs(draw):
    """Like ``sparse_states_and_runs``, but each run is drawn from a pool
    of 2 to 6 distinct gates, so most visits repeat an earlier gate."""
    amps, circ = draw(sparse_states_and_runs())
    pool = draw(hst.lists(permutation_instructions(circ.num_qubits),
                          min_size=2, max_size=6, unique_by=lambda i: i[:3]))
    circ.instructions[:] = draw(hst.lists(hst.sampled_from(pool),
                                          max_size=40))
    return amps, circ


def per_gate(state, run):
    for gate, targets, controls, *_ in run:
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
            st = from_amplitudes(circ.num_qubits, amps)
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

    @settings(max_examples=300, deadline=None)
    @given(sparse_states_and_repeating_runs())
    def test_repeated_gates_match_per_gate_application(self, case):
        amps, circ = case
        outcomes = []
        for run in (reference_execute, execute):
            st = from_amplitudes(circ.num_qubits, amps)
            try:
                run(circ, st)
                error = None
            except SimulationError as exc:  # a MOVE into a set slot
                error = str(exc)
            outcomes.append((error, list(st.amplitudes.items()),
                             st.peak_support))
        assert outcomes[1] == outcomes[0]

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
        circ.gate(gates.CNOT, [0, 3])
        circ.gate(gates.TOFFOLI, [1, 2, 3], classical_constant=0)
        circ.h(1)
        circ.x(3, controls=[(1, True)])
        circ.gate(gates.X, [2], [(0, False), (3, True)])
        circ.gate(gates.R(2), [0], [(2, True)])
        circ.swap(1, 3, controls=[(0, True)])
        circ.move(2, 3)
        ref = QuantumState(4)
        reference_execute(circ, ref)
        st = QuantumState(4)
        execute(circ, st)
        assert list(st.amplitudes.items()) == list(ref.amplitudes.items())

    def test_non_permutation_gate_rejected(self):
        with pytest.raises(SimulationError):
            QuantumState(2).apply_permutation([[Instruction(gates.H, (0,))]])

    @pytest.mark.parametrize("bad", [
        Instruction(gates.X, (5,)),                        # out of range
        Instruction(gates.X, (1,), ((5, True),)),          # control too
        Instruction(gates.SWAP, (2, 2)),                   # duplicate target
        Instruction(gates.TOFFOLI, (0, 1, 1)),             # target a control
        Instruction(gates.X, (3,), ((0, True), (3, False))),  # and again
    ])
    def test_errors_match_per_gate(self, bad):
        # the refusal's message is ``apply_gate``'s, and it comes before
        # the gates ahead of it run
        amps = {0b0011: 1.0, 0b0110: 1.0j, 0b1101: -1.0}
        good = [Instruction(gates.CNOT, (0, 2)),
                Instruction(gates.SWAP, (1, 3))]
        with pytest.raises(SimulationError) as ref_err:
            per_gate(from_amplitudes(4, amps), good + [bad])
        st = from_amplitudes(4, amps)
        before = list(st.amplitudes.items())
        with pytest.raises(SimulationError) as run_err:
            st.apply_permutation([good + [bad, good[0]]])
        assert str(run_err.value) == str(ref_err.value)
        assert list(st.amplitudes.items()) == before

    def test_repeated_move_into_set_slot_rejected(self):
        circ = Circuit(3)
        circ.move(0, 2)
        circ.x(1)
        circ.move(0, 2)
        amps = {0b000: 1.0, 0b001: 1.0j}
        ref = from_amplitudes(3, amps)
        with pytest.raises(SimulationError,
                           match=r"^destination slot 2 is not \|0>$"):
            reference_execute(circ, ref)
        st = from_amplitudes(3, amps)
        with pytest.raises(SimulationError,
                           match=r"^destination slot 2 is not \|0>$"):
            execute(circ, st)
        assert list(st.amplitudes.items()) == list(ref.amplitudes.items())
        assert list(st.amplitudes) == [0b010, 0b110]

    def test_repeated_gate_reads_its_changed_control(self):
        run = [Instruction(gates.CNOT, (0, 1)), Instruction(gates.X, (0,)),
               Instruction(gates.CNOT, (0, 1))]
        amps = {0b00: 1.0, 0b01: 1.0j}
        ref = per_gate(from_amplitudes(2, amps), run)
        st = from_amplitudes(2, amps).apply_permutation([run])
        assert list(st.amplitudes.items()) == list(ref.amplitudes.items())
        assert list(st.amplitudes) == [0b11, 0b10]


def ladder(num_qubits, controls, body):
    """``body(circ, k, i)`` for the first control k in ``controls``, the
    circuit's first list piece, and a repeat of it (``Circuit.repeat``)
    that reads each later one, the i-th, in place of the first, with the
    constants ``body`` gives its gates."""
    circ = Circuit(num_qubits)
    for i, k in enumerate(controls):
        if not i:
            body(circ, k, i)
            first = circ.instructions
            continue
        part = Circuit(num_qubits)
        body(part, k, i)
        circ.repeat(first, controls[0], k, [inst.classical_constant
                                            for inst in part.instructions])
    return circ


class TestRepeats:
    """Repeats run from their first's plans: the same state and
    refusals as the flat run, and malformed repeats raise before the
    state changes."""

    # qubits 0 and 1 are the repeats' controls, 2 a target, 3 a control, 4
    # a MOVE's source and 5 its destination
    AMPS = {0b000000: 1.0, 0b011011: 1.0j, 0b001010: -1.0, 0b001001: 0.5}

    @staticmethod
    def body(circ, k, i):
        circ.x(2, controls=[(3, True), (k, True)], classical_constant=1)
        circ.move(4, 5)
        circ.swap(2, 3, controls=[(k, False)], classical_constant=i)

    @staticmethod
    def moveless(circ, k, i):
        circ.x(2, controls=[(3, True), (k, True)], classical_constant=i % 2)
        circ.swap(2, 3, controls=[(4, False), (k, False)])
        circ.x(4, controls=[(k, True)])

    def outcome(self, circ):
        st = from_amplitudes(6, self.AMPS)
        try:
            execute(circ, st)
            error = None
        except SimulationError as exc:
            error = str(exc)
        return error, list(st.amplitudes.items())

    def test_move_refused_in_a_repeat_as_in_the_flat_run(self):
        # the first moves 4 into 5, so the repeat's MOVE finds 5 set
        circ = ladder(6, (0, 1), self.body)
        ref = from_amplitudes(6, self.AMPS)
        with pytest.raises(SimulationError):
            reference_execute(circ, ref)
        assert self.outcome(circ) == self.outcome(without_repeats(circ)) == (
            "destination slot 5 is not |0>", list(ref.amplitudes.items()))
        # the repeat's X ran under control 1 before its MOVE was refused
        assert 0b101011 in ref.amplitudes and 0b001110 in ref.amplitudes

    def test_repeats_match_per_gate_application(self):
        circ = ladder(6, (0, 1, 5), self.moveless)
        ref = from_amplitudes(6, self.AMPS)
        reference_execute(circ, ref)
        assert self.outcome(circ) == (None, list(ref.amplitudes.items()))

    def test_first_in_an_earlier_run_runs(self):
        # an H on the repeat's control ends the first's run, so the
        # repeat's run plans the first on its own
        circ = ladder(6, (0, 1), self.moveless)
        circ.pieces.insert(1, [Instruction(gates.H, (1,))])
        ref = from_amplitudes(6, self.AMPS)
        reference_execute(circ, ref)
        assert self.outcome(circ) == self.outcome(without_repeats(circ)) == (
            None, list(ref.amplitudes.items()))
        assert len(ref.amplitudes) > len(self.AMPS)

    def first(self):
        """The body under control 0, as one list."""
        return ladder(6, (0,), self.body).instructions

    def refused(self, run, message):
        st = from_amplitudes(6, self.AMPS)
        before = list(st.amplitudes.items())
        with pytest.raises(ValueError, match=message):
            st.apply_permutation(run)
        assert list(st.amplitudes.items()) == before

    @pytest.mark.parametrize("control", [
        6,     # out of range
        -1,    # out of range
        2,     # a target of the first
        4,     # a MOVE's source in the first
        3,     # a control of the first
        5,     # a MOVE's destination in the first
    ], ids=[f"controls{i}" for i in range(6)])
    def test_bad_controls_raise_before_the_state_changes(self, control):
        first = self.first()
        self.refused([first, Repeat(first, 0, control, (None,) * 3)],
                     f"reads control {control} for qubit 0")

    def test_first_ending_with_two_controls_raises(self):
        # gate 2 of the first reads qubit 1, so a repeat cannot read 1 in
        # place of 0
        first = self.first()
        first[2] = first[2]._replace(controls=((1, False),))
        self.refused([first, Repeat(first, 0, 1, (None,) * 3)],
                     "reads control 1 for qubit 0")

    @pytest.mark.parametrize("base", [2, 4, 5],
                             ids=["target", "move source", "move dest"])
    def test_first_writing_its_base_raises(self, base):
        first = self.first()
        self.refused([first, Repeat(first, base, 1, (None,) * 3)],
                     f"must not write {base}")

    def test_repeat_keeping_its_base_runs_as_its_first(self):
        # base == control: the repeat is its first with its own constants
        first = ladder(6, (0,), self.moveless).instructions
        constants = (1, None, 0)  # the first's are (0, None, None)
        own = [inst for inst, c in zip(first, constants) if c != 0]
        st = from_amplitudes(6, self.AMPS)
        st.apply_permutation([Repeat(first, 0, 0, constants)])
        ref = per_gate(from_amplitudes(6, self.AMPS), own)
        assert list(st.amplitudes.items()) == list(ref.amplitudes.items())
        assert st.amplitudes != self.AMPS

    def test_first_of_moves_alone_needs_no_control(self):
        # a first with no controlled gate: the X(6) after it is refused
        first = [Instruction(gates.MOVE, (4, 5))]
        st = from_amplitudes(6, self.AMPS)
        with pytest.raises(SimulationError,
                           match="qubit 6 out of range for 6-qubit state"):
            st.apply_permutation([first, Repeat(first, 0, 1, (None,)),
                                  [Instruction(gates.X, (6,))]])
        assert st.amplitudes == from_amplitudes(6, self.AMPS).amplitudes


def shifted(inst: Instruction, by: int) -> Instruction:
    """``inst`` with every qubit id raised by ``by``."""
    return inst._replace(targets=tuple(q + by for q in inst.targets),
                         controls=tuple((q + by, pol)
                                        for q, pol in inst.controls))


@hst.composite
def runs_with_a_refused_gate(draw):
    """A sparse state, a run of pieces holding one gate that
    ``apply_gate`` refuses, and the refusal's message.  The run is
    [stretch][first][repeat...][stretch]: the first and its repeats are
    controlled by the first qubits, one each, and the refused gate sits
    at one place of a stretch, or at one position of the first and so
    of every repeat.  With no repeats, the run is three stretches."""
    copies = draw(hst.integers(0, 3))
    num_qubits = draw(hst.integers(copies + 3, 10))
    keys = draw(hst.lists(hst.integers(0, (1 << num_qubits) - 1),
                          min_size=1, max_size=32, unique=True))
    amps = {k: complex(i + 1, -i) for i, k in enumerate(keys)}
    t = draw(hst.integers(copies, num_qubits - 1))
    bad = draw(hst.sampled_from([
        Instruction(gates.X, (num_qubits,)),                 # out of range
        Instruction(gates.X, (t,), ((num_qubits + 2, True),)),  # control
        Instruction(gates.SWAP, (t, t)),                     # duplicate
        Instruction(gates.CNOT, (t, t)),                     # target a control
    ]))
    parts = [draw(hst.lists(permutation_instructions(num_qubits),
                            max_size=8)),
             [shifted(inst, copies) for inst in draw(hst.lists(
                 permutation_instructions(num_qubits - copies), max_size=8))],
             draw(hst.lists(permutation_instructions(num_qubits),
                            max_size=8))]
    part = draw(hst.integers(0, 2))
    at = draw(hst.integers(0, len(parts[part])))
    parts[part].insert(at, bad)
    head, body, tail = parts
    run, planted = [head], bad
    if copies and body:
        polarities = [draw(hst.booleans()) for _ in body]
        first = [inst if inst.kind == gates.MOVE else
                 inst._replace(controls=(*inst.controls, (0, pol)))
                 for inst, pol in zip(body, polarities)]
        run += [first, *(Repeat(first, 0, k, tuple(
            inst.classical_constant for inst in body))
            for k in range(1, copies))]
        if part == 1:
            planted = first[at]
    else:
        run.append(body)
    run.append(tail)
    with pytest.raises(SimulationError) as refusal:
        QuantumState(num_qubits).apply_gate(*planted[:3])
    return amps, num_qubits, run, str(refusal.value)


class TestRefusal:
    """A gate that ``apply_gate`` refuses, anywhere in a run, raises
    its message before any gate of the run has changed the state."""

    @settings(max_examples=200, deadline=None)
    @given(runs_with_a_refused_gate())
    def test_refused_gate_leaves_the_state_untouched(self, case):
        amps, num_qubits, run, message = case
        st = from_amplitudes(num_qubits, amps)
        before = list(st.amplitudes.items())
        with pytest.raises(SimulationError) as err:
            st.apply_permutation(run)
        assert str(err.value) == message
        assert list(st.amplitudes.items()) == before


class TestCheckOnce:
    """``apply_permutation`` checks each distinct gate of a run once,
    before the run; later visits of an equal gate (by value, not
    identity) reuse the check."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = QuantumState._normalize

        def counted(self, *args):
            calls.append(args)
            return check(self, *args)

        monkeypatch.setattr(QuantumState, "_normalize", counted)
        return calls

    def test_repeated_gate_checked_once(self, checks):
        amps = {0b0000: 1.0, 0b1011: 1.0j, 0b1111: -1.0}
        run = [Instruction(gates.TOFFOLI, (0, 1, 2), ((3, True),))
               for _ in range(1000)]
        st = from_amplitudes(4, amps).apply_permutation([run])
        assert len(checks) == 1
        assert list(st.amplitudes.items()) == \
            list(per_gate(from_amplitudes(4, amps),
                          run).amplitudes.items())

    @pytest.mark.parametrize("bad,message", [
        (Instruction(gates.H, (0,)), "H is not a permutation gate"),
        (Instruction(gates.X, (5,)), "qubit 5 out of range for 4-qubit state"),
        (Instruction(gates.TOFFOLI, (0, 1, 1)),
         "qubit 1 used as both target and control"),
    ])
    def test_refused_gate_raises_on_first_visit(self, checks, bad, message):
        # planned before the run, so the 11 CNOTs ahead of it never run
        good = Instruction(gates.CNOT, (0, 2))
        st = from_amplitudes(4, {0b0011: 1.0, 0b0110: 1.0j})
        with pytest.raises(SimulationError) as err:
            st.apply_permutation([[good] * 11 + [bad, good]])
        assert str(err.value) == message
        assert len(checks) == 2
        assert list(st.amplitudes) == [0b0011, 0b0110]


class TestPeakSupport:
    def test_copy_keeps_peak(self):
        st = QuantumState(3)
        for q in range(3):
            st.apply_gate(gates.H, [q])
        st.measure(0, RandomSource(0))
        assert st.copy().peak_support == st.peak_support == 8

    def test_from_amplitudes_starts_at_support(self):
        st = from_amplitudes(3, {0: 1.0, 5: 1.0, 6: 1.0})
        assert st.peak_support == 3
