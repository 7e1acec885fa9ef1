"""Circuit IR tests: reversal, control wrapping, execution, counting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import add_controls, amplitude, read_register, run_on_basis
from distshor import gates
from distshor.circuit import (Circuit, Instruction, count_gates, dump,
                              execute, reverse)
from distshor.qstate import QuantumState, SimulationError
from distshor.revarith import RegisterLayout, build_fa, build_m


def small_random_circuit(num_qubits, length, seed):
    rng = random.Random(seed)
    circ = Circuit(num_qubits)
    for _ in range(length):
        q = rng.randrange(num_qubits)
        kind = rng.randrange(6)
        if kind == 0:
            circ.h(q)
        elif kind == 1:
            circ.x(q)
        elif kind == 2:
            circ.gate(gates.Z, [q])
        elif kind == 3:
            circ.gate(gates.R(rng.randrange(2, 6)), [q])
        elif kind == 4:
            t = (q + 1) % num_qubits
            circ.gate(gates.CNOT, [q, t])
        else:
            t = (q + 1) % num_qubits
            circ.swap(q, t)
    return circ


class TestReverse:
    def test_order_and_kinds(self):
        circ = Circuit(2)
        circ.h(0)
        circ.gate(gates.CNOT, [0, 1])
        rev = reverse(circ)
        assert [i.kind.name for i in rev.instructions] == ["CNOT", "H"]

    def test_rotations_invert(self):
        circ = Circuit(1)
        circ.gate(gates.R(3), [0])
        rev = reverse(circ)
        assert rev.instructions[0].kind == gates.inverse(gates.R(3))

    def test_involution(self):
        circ = build_fa(5, [0, 1, 2], [3, 4, 5], 6)
        again = reverse(reverse(circ))
        assert again.instructions == circ.instructions

    def test_reversal_is_identity_exhaustively(self):
        # all basis inputs on up to 10 qubits
        for num_qubits, length, seed in [(4, 30, 1), (7, 40, 2), (10, 25, 3)]:
            circ = small_random_circuit(num_qubits, length, seed)
            both = Circuit(num_qubits)
            both.extend(circ)
            both.extend(reverse(circ))
            for basis in range(1 << num_qubits):
                st = QuantumState(num_qubits)
                for i in range(num_qubits):
                    if (basis >> i) & 1:
                        st.apply_gate(gates.X, [i])
                execute(both, st)
                assert abs(amplitude(st, basis) - 1.0) < 1e-9, (num_qubits,
                                                               basis)

    def test_move_direction_flips(self):
        circ = Circuit(2)
        circ.move(0, 1)
        rev = reverse(circ)
        assert rev.instructions[0].targets == (1, 0)


class TestAddControls:
    def test_x_becomes_controlled(self):
        circ = Circuit(2)
        circ.x(1)
        wrapped = add_controls(circ, [(0, True)])
        st = run_on_basis(wrapped, {0: 1})
        assert set(st.amplitudes) == {3}

    def test_open_control_blocks_everything(self):
        circ = build_fa(5, [0, 1, 2], [3, 4, 5], 6, num_qubits=8)
        wrapped = add_controls(circ, [(7, True)])
        for b in range(8):
            st = run_on_basis(wrapped, {i: (b >> i) & 1 for i in range(3)})
            want = b  # untouched input, everything else |0>
            assert read_register(st, [0, 1, 2]) == want
            assert read_register(st, [3, 4, 5, 6]) == 0

    def test_count_unchanged_by_controls(self):
        circ = build_fa(3, [0, 1, 2], [3, 4, 5], 6, num_qubits=9)
        wrapped = add_controls(circ, [(7, True), (8, False)])
        assert count_gates(wrapped).total == count_gates(circ).total == 12

    def test_collision_rejected(self):
        circ = Circuit(2)
        circ.x(1)
        with pytest.raises(ValueError):
            add_controls(circ, [(1, True)])

    def test_control_budget_enforced(self):
        circ = Circuit(9)
        circ.gate(gates.TOFFOLI, [0, 1, 2])
        wrapped = add_controls(circ, [(3, True), (4, True), (5, True)])
        assert len(wrapped.instructions[0].controls) == 3
        with pytest.raises(ValueError):
            add_controls(wrapped, [(6, True)])


class TestExecute:
    def test_empty_circuit(self):
        st = QuantumState(1)
        execute(Circuit(1), st)
        assert st.amplitudes == {0: 1.0 + 0.0j}

    def test_disabled_constant_gate_skipped(self):
        circ = Circuit(1)
        circ.gate(gates.X, [0], classical_constant=0)
        st = QuantumState(1)
        execute(circ, st)
        assert set(st.amplitudes) == {0}

    @pytest.mark.parametrize("kind", [gates.X, gates.H])
    def test_disabled_gate_checked_as_apply_gate(self, kind):
        # a 0 constant skips the gate, not its checks, whatever its kind
        circ = Circuit(2)
        circ.gate(kind, [0], [(0, True)], classical_constant=0)
        with pytest.raises(SimulationError,
                           match=r"^qubit 0 used as both target and "
                                 r"control$"):
            execute(circ, QuantumState(2))

    def test_move_relocates_state(self):
        circ = Circuit(2)
        circ.move(0, 1)
        st = run_on_basis(circ, {0: 1})
        assert set(st.amplitudes) == {2}

    def test_multiplier_on_basis_input(self):
        layout = RegisterLayout.packed(4, 8)
        circ = build_m(7, 15, layout)
        st = run_on_basis(circ, {layout.x[0]: 1})
        assert read_register(st, layout.x) == 7


class TestCountGates:
    def test_bit_adder_counts(self):
        from distshor.revarith import build_bfa, build_bha
        assert count_gates(build_bfa(1, 0, 1, 2)).total == 4
        assert count_gates(build_bfa(0, 0, 1, 2)).total == 4
        assert count_gates(build_bha(1, 0, 1)).total == 2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_full_adder_4n(self, n):
        circ = build_fa(0, list(range(n)), list(range(n, 2 * n)), 2 * n)
        assert count_gates(circ).total == 4 * n

    def test_move_not_counted(self):
        circ = Circuit(2)
        circ.x(0)
        circ.move(0, 1)
        assert count_gates(circ).total == 1

    def test_additivity(self):
        a = small_random_circuit(4, 20, 5)
        b = small_random_circuit(4, 30, 6)
        both = Circuit(4)
        both.extend(a)
        both.extend(b)
        assert (count_gates(both).total
                == count_gates(a).total + count_gates(b).total)

    def test_count_under_label_prefix(self):
        circ = build_fa(6, [0, 1, 2], [3, 4, 5], 6, path="FA")
        report = count_gates(circ)
        assert report.count_under("FA") == 12
        assert report.count_under("FA/BFA[0]") == 4

    def test_level_pass_matches_count_under(self):
        # a label equal to a level path, siblings that extend a path
        # without a "/", labels only MOVEs carry, and labels under no path
        levels = ["cm", "cm/M[0]", "cm/M[0]/MF0", "cm/M[0]/MF0/A[0]/FA",
                  "cm/M[0]/MF0/A[0]/HA"]
        circ = Circuit(2)
        for label in ["cm/M[0]", "cm/M[0]/MF0/A[0]/FA/BFA[1]",
                      "cm/M[0]/MF0/A[0]/FA/BFA[1]", "cm/M[0]/MF0/A[0]/FAx",
                      "cm/M[0]/MF01/A[0]", "cm/M[0]/MF0.5",
                      "cm/M[0]/MF0/A[0]/HA", "cm-x", "cmx/M[0]",
                      "QFTinv/H[0]", ""]:
            circ.x(0, label=label)
        circ.move(0, 1, label="cm/M[0]/MF0/A[0]/FA/carry-move[0]")
        circ.move(1, 0, label="cm/M[0]/MF0/A[0]/XAN0")
        report = count_gates(circ)
        assert report.counts_under(levels) == [7, 7, 4, 2, 1]
        assert report.counts_under(levels) == [report.count_under(path)
                                               for path in levels]


# labels and prefixes over characters on both sides of "/" and "0", and
# past ASCII
LABELS = st.text(alphabet="ab/0.-~é", max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(LABELS, max_size=12), st.lists(LABELS, max_size=5))
def test_level_pass_matches_count_under_at_random(labels, prefixes):
    circ = Circuit(1)
    for label in labels:
        circ.x(0, label=label)
    report = count_gates(circ)
    under = [sum(1 for lbl in labels
                 if lbl == prefix or lbl.startswith(prefix + "/"))
             for prefix in prefixes]
    assert report.counts_under(prefixes) == under
    assert [report.count_under(prefix) for prefix in prefixes] == under


class TestPieces:
    """``extend`` shares the other circuit's pieces and closes the open
    piece of both; a repeat names a list piece of its own circuit."""

    def test_appends_after_extend_change_neither_circuits_pieces(self):
        a = small_random_circuit(4, 20, 5)
        b = small_random_circuit(4, 30, 6)
        before_a, before_b = list(a.instructions), list(b.instructions)
        a.extend(b)
        a.x(0, label="a")
        b.x(1, label="b")
        assert a.instructions == [*before_a, *before_b,
                                  Instruction(gates.X, (0,), label="a")]
        assert b.instructions == [*before_b,
                                  Instruction(gates.X, (1,), label="b")]
        assert [len(piece) for piece in a.pieces] == [20, 30, 1]
        assert [len(piece) for piece in b.pieces] == [30, 1]

    def test_closed_pieces_are_not_handed_out(self):
        # extend closes ``a``'s one piece and shares it with ``b``: neither
        # circuit's ``instructions`` is that piece, so writing through it
        # grows no circuit and changes what no later read returns
        a = Circuit(3)
        a.x(0)
        b = Circuit(3).extend(a)
        for circ in (a, b):
            circ.instructions.append(Instruction(gates.X, (1,)))
            assert len(circ.instructions) == len(circ)
        assert (len(a), len(b)) == (1, 1)

    @staticmethod
    def with_first():
        circ = Circuit(4)
        circ.x(0, controls=[(3, True)])
        circ.swap(1, 2, controls=[(3, False)])
        return circ, circ.instructions

    @pytest.mark.parametrize("make,message", [
        (lambda circ, first: (list(first), 3, 0, [1, 1]), "list piece"),
        (lambda circ, first: (Circuit(4).x(0).instructions, 3, 0, [1]),
         "list piece"),
        (lambda circ, first: (circ.repeat(first, 3, 0, [1, 1]).pieces[-1],
                              3, 0, [1, 1]), "list piece"),
        (lambda circ, first: (first, 3, 0, [1]), "with 1 constants"),
        (lambda circ, first: (first, 3, 0, [1, 1, 1]), "with 3 constants"),
        (lambda circ, first: (first, 3, 4, [1, 1]), "control qubit 4"),
        (lambda circ, first: (first, -1, 0, [1, 1]), "control qubit -1"),
    ], ids=["copy", "other circuit", "a repeat", "too few constants",
            "too many constants", "control out of range",
            "base out of range"])
    def test_repeat_refuses(self, make, message):
        circ, first = self.with_first()
        args = make(circ, first)
        pieces = list(circ.pieces)
        with pytest.raises(ValueError, match=message):
            circ.repeat(*args)
        assert circ.pieces == pieces


class TestDump:
    def test_format_is_stable(self):
        circ = Circuit(3)
        circ.h(0, label="prep")
        circ.gate(gates.X, [1], [(0, True), (2, False)], label="body")
        circ.x(2, classical_constant=0, label="off")
        circ.move(1, 2, label="park")
        text = dump(circ)
        assert text.splitlines() == [
            "prep | H | 0 | - | -",
            "body | X | 1 | +0,-2 | -",
            "off | X | 2 | - | const=0",
            "park | MOVE | 1,2 | - | -",
        ]

    def test_round_trip_stability(self):
        circ = small_random_circuit(5, 40, 11)
        assert dump(circ) == dump(circ)
