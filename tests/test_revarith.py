"""Modular-arithmetic builders against classical oracles.

Every builder is swept over its whole input domain at small sizes and
checked bit-exactly against plain integer arithmetic, with ancilla
registers verified clean.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (amp_distance, assert_ancillas_zero, from_amplitudes,
                      observed, random_amplitudes, read_register,
                      reference_adder, reference_an, reference_cm_m,
                      reference_execute,
                      reference_execute_distributed, reference_m,
                      reference_mf, reference_xan, repeats_of,
                      run_on_basis)
from distshor import gates, revarith
from distshor.circuit import (Circuit, Instruction, count_gates, dump,
                              execute, reverse)
from distshor.netsim import execute_distributed
from distshor.partition import (build_distributed_transform_program,
                                build_network, plan_placement)
from distshor.qft import build_inverse_qft
from distshor.qstate import RandomSource
from distshor.revarith import (AdderSlicing, ChainSegment, RegisterLayout,
                               build_adder, build_an,
                               build_bfa, build_bha, build_cm_m, build_fa,
                               build_ha, build_m, build_mf, build_xan,
                               gate_count_formula)

LAYOUTS = {3: RegisterLayout.packed(3, 6), 4: RegisterLayout.packed(4, 8)}


def preset_register(qubits, value):
    return {q: (value >> i) & 1 for i, q in enumerate(qubits)}


class TestBitAdders:
    @pytest.mark.parametrize("a", [0, 1])
    @pytest.mark.parametrize("b", [0, 1])
    @pytest.mark.parametrize("c", [0, 1])
    def test_full_adder_truth_table(self, a, b, c):
        circ = build_bfa(a, 0, 1, 2)
        st = run_on_basis(circ, {0: c, 1: b})
        total = a + b + c
        assert read_register(st, [0]) == total & 1  # sum
        assert read_register(st, [1]) == b          # addend preserved
        assert read_register(st, [2]) == total >> 1  # carry

    def test_all_ones_carries(self):
        st = run_on_basis(build_bfa(1, 0, 1, 2), {0: 1, 1: 1})
        assert read_register(st, [0, 1, 2]) == 0b111

    @pytest.mark.parametrize("a", [0, 1])
    @pytest.mark.parametrize("b", [0, 1])
    @pytest.mark.parametrize("c", [0, 1])
    def test_half_adder_truth_table(self, a, b, c):
        st = run_on_basis(build_bha(a, 0, 1), {0: c, 1: b})
        assert read_register(st, [0]) == (a + b + c) & 1
        assert read_register(st, [1]) == b

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            build_bfa(1, 0, 0, 2)
        with pytest.raises(ValueError):
            build_bha(1, 1, 1)


class TestWordAdders:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_adder_exhaustive(self, n):
        b_q = list(range(n))
        s_q = list(range(n, 2 * n))
        carry = 2 * n
        for a in range(1 << n):
            circ = build_fa(a, b_q, s_q, carry)
            for b in range(1 << n):
                for c_in in (0, 1):
                    preset = preset_register(b_q, b)
                    preset[s_q[0]] = c_in
                    st = run_on_basis(circ, preset)
                    total = a + b + c_in
                    assert read_register(st, s_q) == total % (1 << n)
                    assert read_register(st, [carry]) == total >> n
                    assert read_register(st, b_q) == b

    def test_examples(self):
        b_q, s_q, carry = [0, 1, 2], [3, 4, 5], 6
        st = run_on_basis(build_fa(5, b_q, s_q, carry),
                          preset_register(b_q, 2))
        assert read_register(st, s_q) == 7
        assert read_register(st, [carry]) == 0
        st = run_on_basis(build_fa(7, b_q, s_q, carry),
                          preset_register(b_q, 1))
        assert read_register(st, s_q) == 0
        assert read_register(st, [carry]) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_half_adder_exhaustive(self, n):
        b_q = list(range(n))
        s_q = list(range(n, 2 * n))
        for a in range(1 << n):
            circ = build_ha(a, b_q, s_q)
            for b in range(1 << n):
                st = run_on_basis(circ, preset_register(b_q, b))
                assert read_register(st, s_q) == (a + b) % (1 << n)

    def test_half_adder_example(self):
        st = run_on_basis(build_ha(6, [0, 1, 2], [3, 4, 5]),
                          preset_register([0, 1, 2], 5))
        assert read_register(st, [3, 4, 5]) == 3

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gate_counts(self, n):
        b_q = list(range(n))
        s_q = list(range(n, 2 * n))
        assert count_gates(build_fa(0, b_q, s_q, 2 * n)).total == 4 * n
        assert count_gates(build_ha(0, b_q, s_q)).total == 4 * n - 2

    def test_constant_width_checked(self):
        with pytest.raises(ValueError, match="does not fit in 3 bits"):
            build_fa(8, [0, 1, 2], [3, 4, 5], 6)


class TestModularAdd:
    def test_example_values(self):
        lay = LAYOUTS[3]
        st = run_on_basis(build_an(3, 5, lay),
                          preset_register(lay.b, 4))
        assert read_register(st, lay.inter) == 2  # 7 mod 5
        assert read_register(st, lay.s) == 2      # 4 + 3 + 8 - 5 mod 8

    def test_zero_trace(self):
        lay = LAYOUTS[3]
        st = run_on_basis(build_an(0, 5, lay), {})
        assert read_register(st, lay.inter) == 0
        assert read_register(st, lay.s) == 3      # 2^n - N
        # the carry qubit carries the negated overflow flag
        assert read_register(st, [lay.carry]) == 1

    @pytest.mark.parametrize("N,n", [(5, 3), (7, 3), (15, 4)])
    def test_exhaustive_oracle(self, N, n):
        lay = LAYOUTS[n]
        for a in range(N):
            circ = build_an(a, N, lay)
            for b in range(N):
                st = run_on_basis(circ, preset_register(lay.b, b))
                assert read_register(st, lay.inter) == (a + b) % N
                assert read_register(st, lay.b) == b

    def test_gate_count(self):
        for n, N in [(3, 5), (4, 15)]:
            circ = build_an(1, N, LAYOUTS[n])
            assert count_gates(circ).total == 8 * n - 1
            assert count_gates(circ).total == gate_count_formula("AN", n)

    def test_addend_must_be_reduced(self):
        with pytest.raises(ValueError):
            build_an(5, 5, LAYOUTS[3])


class TestGarbageErasure:
    @pytest.mark.parametrize("N,n", [(5, 3), (7, 3), (15, 4)])
    def test_xan_erases_everything(self, N, n):
        lay = LAYOUTS[n]
        ancillas = [*lay.s, lay.carry, *lay.inter]
        for a in range(N):
            circ = build_xan(a, N, lay)
            for b in range(N):
                st = run_on_basis(circ, preset_register(lay.b, b))
                assert read_register(st, lay.out) == (a + b) % N
                assert read_register(st, lay.b) == b
                assert_ancillas_zero(st, ancillas)

    def test_compute_copy_uncompute_shape(self):
        # running F, COPY, reverse(F) leaves |x>|0>|0>|f(x)>
        lay = LAYOUTS[3]
        fwd = build_an(2, 5, lay)
        circ = Circuit(lay.pool_size)
        circ.extend(fwd)
        for src, dst in zip(lay.inter, lay.out):
            circ.gate(gates.CNOT, [src, dst])
        circ.extend(reverse(build_an(2, 5, lay)))
        for b in range(5):
            st = run_on_basis(circ, preset_register(lay.b, b))
            assert read_register(st, lay.out) == (2 + b) % 5
            assert_ancillas_zero(st, [*lay.s, lay.carry, *lay.inter])

    def test_gate_count(self):
        assert count_gates(build_xan(1, 5, LAYOUTS[3])).total == 17 * 3 - 2
        assert gate_count_formula("XAN", 3) == 17 * 3 - 2


class TestInPlaceAdder:
    def test_example(self):
        lay = LAYOUTS[4]
        st = run_on_basis(build_adder(7, 15, lay),
                          preset_register(lay.b, 4))
        assert read_register(st, lay.b) == 11

    @pytest.mark.parametrize("N,n", [(5, 3), (7, 3)])
    def test_exhaustive_with_clean_ancillas(self, N, n):
        lay = LAYOUTS[n]
        ancillas = [*lay.s, lay.carry, *lay.inter, *lay.out]
        for a in range(N):
            circ = build_adder(a, N, lay)
            for b in range(N):
                st = run_on_basis(circ, preset_register(lay.b, b))
                assert read_register(st, lay.b) == (a + b) % N
                assert_ancillas_zero(st, ancillas)

    def test_zero_addend_is_identity(self):
        lay = LAYOUTS[3]
        circ = build_adder(0, 5, lay)
        for b in range(5):
            st = run_on_basis(circ, preset_register(lay.b, b))
            assert read_register(st, lay.b) == b

    def test_gate_count(self):
        assert count_gates(build_adder(1, 5, LAYOUTS[3])).total == 35 * 3 - 4
        assert gate_count_formula("A", 3) == 35 * 3 - 4


class TestMultipliers:
    def test_mf_examples(self):
        lay = LAYOUTS[4]
        circ = build_mf(7, 15, lay)
        st = run_on_basis(circ, preset_register(lay.x, 3))
        assert read_register(st, lay.b) == 6  # 21 mod 15
        st = run_on_basis(circ, preset_register(lay.x, 0))
        assert read_register(st, lay.b) == 0
        st = run_on_basis(circ, preset_register(lay.x, 1))
        assert read_register(st, lay.b) == 7

    @pytest.mark.parametrize("N,n", [(5, 3), (7, 3), (15, 4)])
    def test_mf_oracle(self, N, n):
        lay = LAYOUTS[n]
        for a in range(1, N):
            if math.gcd(a, N) != 1:
                continue
            circ = build_mf(a, N, lay)
            for x in range(N):
                st = run_on_basis(circ, preset_register(lay.x, x))
                assert read_register(st, lay.b) == (a * x) % N
                assert read_register(st, lay.x) == x
                assert_ancillas_zero(st, [*lay.s, lay.carry, *lay.inter,
                                          *lay.out])

    def test_m_examples(self):
        lay = LAYOUTS[4]
        circ = build_m(7, 15, lay)
        for x, want in [(1, 7), (7, 4), (13, 1)]:
            st = run_on_basis(circ, preset_register(lay.x, x))
            assert read_register(st, lay.x) == want

    @pytest.mark.parametrize("N,n", [(5, 3), (7, 3), (15, 4)])
    def test_m_oracle_and_ancillas(self, N, n):
        lay = LAYOUTS[n]
        ancillas = [*lay.b, *lay.s, lay.carry, *lay.inter, *lay.out]
        for a in range(1, N):
            if math.gcd(a, N) != 1:
                continue
            circ = build_m(a, N, lay)
            for x in range(N):
                st = run_on_basis(circ, preset_register(lay.x, x))
                assert read_register(st, lay.x) == (a * x) % N
                assert_ancillas_zero(st, ancillas)

    def test_m_is_identity_for_unit(self):
        lay = LAYOUTS[4]
        circ = build_m(1, 15, lay)
        for x in range(15):
            st = run_on_basis(circ, preset_register(lay.x, x))
            assert read_register(st, lay.x) == x

    def test_m_inverse_composition(self):
        lay = LAYOUTS[4]
        circ = Circuit(lay.pool_size)
        circ.extend(build_m(7, 15, lay))
        circ.extend(build_m(pow(7, -1, 15), 15, lay))
        for x in range(15):
            st = run_on_basis(circ, preset_register(lay.x, x))
            assert read_register(st, lay.x) == x

    def test_m_is_permutation(self):
        lay = LAYOUTS[4]
        circ = build_m(7, 15, lay)
        images = set()
        for x in range(15):
            st = run_on_basis(circ, preset_register(lay.x, x))
            images.add(read_register(st, lay.x))
        assert images == set(range(15))

    def test_noninvertible_base_rejected(self):
        with pytest.raises(ValueError):
            build_m(3, 15, LAYOUTS[4])
        with pytest.raises(ValueError):
            build_mf(5, 15, LAYOUTS[4])


class TestControlledPowers:
    def test_examples(self):
        lay = LAYOUTS[4]
        circ = build_cm_m(7, 15, 2, lay)
        preset = preset_register(lay.k[:2], 2)
        preset.update(preset_register(lay.x, 1))
        st = run_on_basis(circ, preset)
        assert read_register(st, lay.x) == 4  # 7^2 mod 15

        circ = build_cm_m(7, 15, 3, lay)
        preset = preset_register(lay.k[:3], 5)
        preset.update(preset_register(lay.x, 1))
        st = run_on_basis(circ, preset)
        assert read_register(st, lay.x) == 7  # 7^5 mod 15

    def test_zero_power_leaves_register(self):
        lay = LAYOUTS[4]
        circ = build_cm_m(7, 15, 3, lay)
        preset = preset_register(lay.x, 4)
        st = run_on_basis(circ, preset)
        assert read_register(st, lay.x) == 4

    @pytest.mark.parametrize("N,n,a", [(5, 3, 2), (7, 3, 3), (15, 4, 7)])
    def test_oracle_sweep(self, N, n, a):
        m = 4
        lay = LAYOUTS[n]
        circ = build_cm_m(a, N, m, lay)
        ancillas = [*lay.b, *lay.s, lay.carry, *lay.inter, *lay.out]
        for k in range(1 << m):
            for x in (1, a % N, (N - 1)):
                preset = preset_register(lay.k[:m], k)
                preset.update(preset_register(lay.x, x))
                st = run_on_basis(circ, preset)
                assert read_register(st, lay.x) == (x * pow(a, k, N)) % N
                assert_ancillas_zero(st, ancillas)


class TestPackedLadder:
    """Every multiplier after the first is a repeat built from it
    (``Circuit.repeat``), whichever node its control sits on; its
    instructions, built on demand, equal the multiplier emitted on its
    own under its control."""

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([(15, 4), (15, 7), (21, 2), (21, 5), (33, 5),
                            (35, 3), (9, 2)]),
           st.integers(1, 9))
    def test_repeats_equal_their_multipliers_emitted_alone(self, base, m):
        N, a = base
        n = N.bit_length()
        plan = plan_placement(n, m)
        for layout, slicing in ((RegisterLayout.packed(n, m), None),
                                (plan.layout, plan.slicing)):
            ladder = build_cm_m(a, N, m, layout, slicing=slicing)
            first, *repeats = ladder.pieces
            assert repeats == repeats_of(ladder)
            assert len(repeats) == m - 1
            assert all(rep.first is first for rep in repeats)
            alone = []
            for i, k in enumerate(layout.k[:m]):
                out = revarith._Sink([])
                revarith._m(out, ((k, True),), pow(a, 1 << i, N), N,
                            layout, slicing, f"cm/M[{i}]")
                alone += out.insts
            assert len(ladder) == len(alone)
            assert ladder.instructions == alone

    def test_a_power_that_reaches_one(self):
        # 4^2 = 1 mod 15: multipliers 1, 3, ... multiply by 1
        lay = LAYOUTS[4]
        ladder = build_cm_m(4, 15, 4, lay)
        assert [rep.control for rep in repeats_of(ladder)] == \
            list(lay.k[1:4])
        for x in range(1, 15):
            for k in range(16):
                preset = preset_register(lay.k[:4], k)
                preset.update(preset_register(lay.x, x))
                st = run_on_basis(ladder, preset)
                assert read_register(st, lay.x) == x * pow(4, k, 15) % 15


class TestCountFormulas:
    def test_named_levels(self):
        assert gate_count_formula("FA", 4) == 16
        assert gate_count_formula("HA", 4) == 14
        assert gate_count_formula("c_m(M)", 4, 8) == 70 * 8 * 16 - 6 * 8 * 4
        assert gate_count_formula("QFT_inv", 4, 8) == 36

    def test_unknown_level(self):
        with pytest.raises(ValueError):
            gate_count_formula("nope", 4)

    def test_measured_vs_predicted_deltas(self):
        # the one documented gap: the closed form exceeds the built
        # multiplier (2 MF plus n controlled swaps) by n, the ladder by mn
        n, m, N, a = 4, 8, 15, 7
        lay = LAYOUTS[4]
        assert count_gates(build_mf(a, N, lay)).total == \
            gate_count_formula("MF", n)
        measured_m = count_gates(build_m(a, N, lay)).total
        assert gate_count_formula("M", n) - measured_m == n
        measured_cm = count_gates(build_cm_m(a, N, m, lay)).total
        assert gate_count_formula("c_m(M)", n, m) - measured_cm == m * n

    def test_built_records_are_whole_named_tuples(self):
        # the builders make instructions and chain segments through
        # ``tuple.__new__``, which skips the NamedTuple's field-count check
        for n, N in ((2, 3), (4, 15), (5, 21), (7, 77)):
            plan = plan_placement(n, 2 * n)
            circuits = [
                build_cm_m(2, N, 2, RegisterLayout.packed(n, 2 * n)),
                build_cm_m(2, N, 2, plan.layout, slicing=plan.slicing),
                build_inverse_qft(range(2 * n)),
                build_distributed_transform_program(plan)]
            for inst in (i for circ in circuits for i in circ.instructions):
                assert type(inst) is Instruction
                assert inst == Instruction(*inst)
            for stage, qubits in enumerate((plan.layout.s, plan.layout.inter)):
                segments = plan.slicing.segments(qubits, stage, "p", "t")
                assert [q for seg in segments for q in seg.qubits] == \
                    list(qubits)
                for seg in segments:
                    assert type(seg) is ChainSegment
                    assert seg == ChainSegment(*seg)

    def test_sliced_build_counts_match_monolithic(self):
        from distshor.partition import plan_placement
        plan = plan_placement(4, 8)
        mono = count_gates(build_adder(7, 15, LAYOUTS[4])).total
        sliced = count_gates(build_adder(7, 15, plan.layout,
                                         slicing=plan.slicing)).total
        assert mono == sliced


# Odd composites with 3 <= n <= 6 bits (none has 3): n = 4, 5 and 6.
ODD_COMPOSITES = [N for N in range(9, 64, 2)
                  if any(N % d == 0 for d in range(3, N, 2))]


@st.composite
def modular_inputs(draw):
    """(N, a, x): an odd composite, a base coprime to it, an input < N."""
    N = draw(st.sampled_from(ODD_COMPOSITES))
    a = draw(st.integers(2, N - 1).filter(lambda a: math.gcd(a, N) == 1))
    return N, a, draw(st.integers(0, N - 1))


@st.composite
def adder_inputs(draw):
    """(n, a, b): a width and two n-bit values."""
    n = draw(st.integers(1, 8))
    return n, draw(st.integers(0, (1 << n) - 1)), draw(
        st.integers(0, (1 << n) - 1))


class TestOracleSweep:
    """Random moduli beyond the exhaustive sweeps' N in {5, 7, 15}."""

    @settings(max_examples=50, deadline=None)
    @given(modular_inputs())
    def test_m_packed_and_sliced(self, inputs):
        N, a, x = inputs
        n = N.bit_length()
        plan = plan_placement(n, 1)
        for layout, slicing in ((RegisterLayout.packed(n, 1), None),
                                (plan.layout, plan.slicing)):
            state = run_on_basis(build_m(a, N, layout, slicing=slicing),
                                 preset_register(layout.x, x))
            # |ax mod N> in the multiplier register, every other qubit
            # (ancillas and the slicing's parking slots) back to |0>
            want = sum(bit << q for q, bit in
                       preset_register(layout.x, a * x % N).items())
            assert list(state.amplitudes) == [want]

    @settings(max_examples=100, deadline=None)
    @given(adder_inputs())
    def test_fa_sum_and_constant_range(self, inputs):
        n, a, b = inputs
        b_q, s_q, carry = list(range(n)), list(range(n, 2 * n)), 2 * n
        state = run_on_basis(build_fa(a, b_q, s_q, carry),
                             preset_register(b_q, b))
        assert read_register(state, s_q) == (a + b) % (1 << n)
        assert read_register(state, [carry]) == (a + b) >> n
        build_fa((1 << n) - 1, b_q, s_q, carry)
        for bad in (1 << n, -1):
            with pytest.raises(ValueError, match="does not fit"):
                build_fa(bad, b_q, s_q, carry)


# builder -> the conftest reference composition it replaces
EMITTED = {
    "AN": (build_an, reference_an),
    "XAN": (build_xan, reference_xan),
    "A": (build_adder, reference_adder),
    "MF": (build_mf, reference_mf),
    "M": (build_m, reference_m),
    "cm": (build_cm_m, reference_cm_m),
}


# every emitted level, the ladder at m = 1 and 2: (level, args after a, N)
EMITTED_CASES = [("AN", ()), ("XAN", ()), ("A", ()), ("MF", ()), ("M", ()),
                 ("cm", (1,)), ("cm", (2,))]


def emitted_cases(a, N):
    return [(level, (a, N, *ladder)) for level, ladder in EMITTED_CASES]


def refusal(build, *args, **kwargs) -> str:
    with pytest.raises(ValueError) as err:
        build(*args, **kwargs)
    return str(err.value)


class TestEmitter:
    """Each builder emits its gates once, passing the controls and the
    direction down to its children; its dump must equal the composition
    it replaced, which holds every controlled and reversed block below
    it."""

    @pytest.mark.parametrize("level,ladder", EMITTED_CASES)
    @settings(max_examples=5, deadline=None)
    @given(modular_inputs())
    def test_dump_matches_reference_composition(self, level, ladder, inputs):
        N, a, _x = inputs
        n = N.bit_length()
        builder, reference = EMITTED[level]
        args = (a, N, *ladder)
        plan = plan_placement(n, 2)
        for layout, slicing in ((RegisterLayout.packed(n, 2), None),
                                (plan.layout, plan.slicing)):
            built = builder(*args, layout, slicing=slicing)
            want = reference(*args, layout, slicing=slicing)
            assert built.num_qubits == want.num_qubits
            assert dump(built) == dump(want)


def with_spare(plan, j, stage, qubit) -> AdderSlicing:
    """``plan``'s slicing with slice j's spare for ``stage`` replaced."""
    spares = [list(pair) for pair in plan.slicing.spares]
    spares[j][stage] = qubit
    return AdderSlicing(plan.slicing.cuts,
                        tuple(tuple(pair) for pair in spares))


class TestRefusalParity:
    """The builders refuse what the composition refused, with the same
    ``ValueError``."""

    LAYOUT = RegisterLayout.packed(4, 8)

    def assert_same(self, level, *args, **kwargs):
        builder, reference = EMITTED[level]
        want = refusal(reference, *args, **kwargs)
        assert refusal(builder, *args, **kwargs) == want
        return want

    def test_spare_on_a_ladder_control(self):
        plan = plan_placement(4, 8)
        lay = plan.layout
        bad = with_spare(plan, 0, 0, lay.k[0])
        assert self.assert_same("cm", 7, 15, 2, lay, slicing=bad) == \
            f"control qubit {lay.k[0]} collides with the circuit"

    def test_spare_on_a_multiplier_bit(self):
        plan = plan_placement(4, 8)
        lay = plan.layout
        bad = with_spare(plan, 1, 0, lay.x[2])
        want = f"control qubit {lay.x[2]} collides with the circuit"
        assert self.assert_same("MF", 7, 15, lay, slicing=bad) == want
        assert self.assert_same("cm", 7, 15, 1, lay, slicing=bad) == want

    def test_parking_slot_on_a_ladder_control(self):
        # the last slice's second spare only parks multiplier qubits: M
        # touches it, MF does not
        plan = plan_placement(4, 8)
        lay = plan.layout
        last = plan.slicing.slice_of(lay.n - 1)
        bad = with_spare(plan, last, 1, lay.k[1])
        assert self.assert_same("cm", 7, 15, 2, lay, slicing=bad) == \
            f"control qubit {lay.k[1]} collides with the circuit"
        assert dump(build_mf(7, 15, lay, slicing=bad)) == \
            dump(reference_mf(7, 15, lay, slicing=bad))

    def test_carry_move_onto_itself(self):
        plan = plan_placement(4, 8)
        lay = plan.layout
        bad = with_spare(plan, 0, 0, lay.s[plan.slicing.cuts[0]])
        for level, args in emitted_cases(7, 15):
            assert self.assert_same(level, *args, lay, slicing=bad) == \
                "MOVE needs distinct qubits"

    @pytest.mark.parametrize("register,levels,want", [
        ("b", ("AN", "XAN", "A", "MF", "M", "cm"), "qubit -1 out of range"),
        ("x", ("MF", "M", "cm"), "control qubit -1 out of range"),
        ("k", ("cm",), "control qubit -1 out of range")])
    def test_negative_qubit_id(self, register, levels, want):
        # the pool is sized from the largest id, so only a negative one
        # falls outside it
        qubits = getattr(self.LAYOUT, register)
        odd = dataclasses.replace(self.LAYOUT,
                                  **{register: (-1, *qubits[1:])})
        for level, args in emitted_cases(7, 15):
            if level in levels:
                assert self.assert_same(level, *args, odd) == want

    def test_layout_narrower_than_ladder(self):
        narrow = RegisterLayout.packed(4, 2)
        assert self.assert_same("cm", 7, 15, 3, narrow) == \
            "layout control register too narrow"
        assert self.assert_same("cm", 7, 15, 0, narrow) == \
            "need at least one control qubit"

    def test_noninvertible_base(self):
        lay = self.LAYOUT
        for level, args in (("MF", (5, 15)), ("M", (3, 15)),
                            ("cm", (3, 15, 2))):
            assert self.assert_same(level, *args, lay).endswith(
                "is not invertible mod 15")

    def test_addend_and_modulus(self):
        lay = self.LAYOUT
        assert self.assert_same("AN", 15, 15, lay) == \
            "addend 15 outside [0, 15)"
        for level in ("AN", "XAN", "A", "MF", "M"):
            assert self.assert_same(level, 2, 17, lay) == \
                "modulus does not fit the register width"


class TestKernelSweep:
    """``circuit.execute`` against ``conftest.reference_execute`` on the
    multiplier, its register in superposition, packed and sliced."""

    @settings(max_examples=25, deadline=None)
    @given(modular_inputs(), st.integers(0, 1 << 32))
    def test_m_on_a_superposed_register(self, inputs, seed):
        N, a, _x = inputs
        rnd = random.Random(seed)
        n = N.bit_length()
        plan = plan_placement(n, 1)
        for layout, slicing in ((RegisterLayout.packed(n, 1), None),
                                (plan.layout, plan.slicing)):
            circ = build_m(a, N, layout, slicing=slicing)
            spread = rnd.sample(layout.x, 3)
            fast = from_amplitudes(
                circ.num_qubits,
                random_amplitudes(spread, circ.num_qubits, rnd))
            slow = fast.copy()
            execute(circ, fast)
            reference_execute(circ, slow)
            assert len(fast.amplitudes) == 8
            assert fast.amplitudes.keys() == slow.amplitudes.keys()
            assert amp_distance(fast, slow) < 1e-12


class TestClosedFormSweep:
    """``netsim.execute_distributed`` against
    ``conftest.reference_execute_distributed`` on the sliced ladder's
    first two controlled multipliers, both estimation qubits in
    superposition."""

    @settings(max_examples=15, deadline=None)
    @given(modular_inputs(), st.integers(0, 1 << 32))
    def test_cm_m_matches_physical_protocol(self, inputs, seed):
        N, a, _x = inputs
        plan = plan_placement(N.bit_length(), 2)
        lay = plan.layout
        circ = build_cm_m(a, N, 2, lay, slicing=plan.slicing)
        closed, reference = (build_network(plan, RandomSource(seed))
                             for _ in range(2))
        for net in (closed, reference):
            for kind, q in ((gates.X, lay.x[0]), (gates.H, lay.k[0]),
                            (gates.H, lay.k[1])):
                net.apply_local(net.node_of(q), kind, [q])
        execute_distributed(closed, circ)
        reference_execute_distributed(reference, circ)
        assert amp_distance(closed.state, reference.state) < 1e-12
        assert observed(closed) == observed(reference)
