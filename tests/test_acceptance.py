"""Acceptance suite: one test per release criterion, each printing a
pass line with the measured numbers.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time

import pytest

from conftest import (amp_distance, amplitude, census_from_records,
                      from_amplitudes, phase_estimation_state,
                      random_amplitudes, remote_block, remote_cnot,
                      reset_channels, used_qubits)
from distshor import gates
from distshor.circuit import Circuit, count_gates, execute, reverse
from distshor.netsim import Network, NodeSpec, Topology
from distshor.partition import count_nl_t, plan_placement
from distshor.qstate import QuantumState, RandomSource
from distshor.revarith import (RegisterLayout, build_adder, build_an,
                               build_cm_m, build_fa, build_ha, build_m,
                               build_mf, build_xan, gate_count_formula)
from distshor.shor import factor, order_round


def announce(number, text):
    print(f"\nACCEPTANCE {number}: PASS: {text}")


class TestCriterion1EndToEnd:
    def test_factor_fifteen_with_exact_peaks(self, mono_run_15):
        started = time.perf_counter()
        outcome = factor(15, RandomSource(1), a=7, m=8)
        elapsed = time.perf_counter() - started
        assert sorted(outcome.factors) == [3, 5]
        assert elapsed < 60.0

        dist = mono_run_15.state.exact_distribution(mono_run_15.k_qubits)
        assert set(dist) == {0, 64, 128, 192}
        for peak in (0, 64, 128, 192):
            assert abs(dist[peak] - 0.25) < 1e-9
        announce(1, f"N=15 factors (3, 5) in {elapsed:.1f}s; first-register "
                    "peaks exactly {0, 64, 128, 192} at 0.25")

    def test_factor_twenty_one(self):
        started = time.perf_counter()
        outcome = factor(21, RandomSource(3), a=2, m=10)
        elapsed = time.perf_counter() - started
        assert sorted(outcome.factors) == [3, 7]
        assert elapsed < 600.0
        announce(1, f"N=21 factors (3, 7) in {elapsed:.1f}s via sparse "
                    "simulation")


class TestCriterion2DistributedEquivalence:
    @staticmethod
    def assert_same_distribution(mono_run, dist_run, what):
        mono = mono_run.state.exact_distribution(mono_run.k_qubits)
        dist = dist_run.state.exact_distribution(dist_run.k_qubits)
        worst = max(abs(mono.get(k, 0.0) - dist.get(k, 0.0))
                    for k in set(mono) | set(dist))
        assert worst < 1e-9
        announce(2, f"{what}distributed and single-machine first-register "
                    f"distributions agree to {worst:.2e}")

    def test_pre_measurement_distribution_equal(self, mono_run_15,
                                                dist_run_15):
        self.assert_same_distribution(mono_run_15, dist_run_15, "")

    # the paper's sizes: N=21 and N=33, each with its register width m
    @pytest.mark.parametrize("a,N,m", [(2, 21, 10), (2, 33, 12)])
    def test_pre_measurement_distribution_equal_at_paper_sizes(self, a, N,
                                                                m):
        self.assert_same_distribution(
            order_round(a, N, m, "monolithic")(RandomSource(0)),
            order_round(a, N, m, "distributed")(RandomSource(0)),
            f"N={N}, m={m}: ")

    def test_shared_seed_same_factors(self):
        mono = factor(15, RandomSource(1), a=7, m=8, mode="monolithic")
        dist = factor(15, RandomSource(1), a=7, m=8, mode="distributed")
        assert mono.factors is not None and dist.factors is not None
        assert sorted(mono.factors) == sorted(dist.factors) == [3, 5]
        announce(2, "shared seed yields identical factors in both modes")


class TestCriterion3CommunicationFormulas:
    def test_census_and_rollup(self, reference_round_15):
        census = census_from_records(*reference_round_15.records)
        report = count_nl_t(census, 4, 8)
        n, m = 4, 8
        assert report["leaves_measured"]["AN"]["NL"] == 8
        assert all(v == 8 for v in census.blocks["AN"].values())
        assert all(v == 6 for v in census.teleports["AN"].values())
        assert report["per_level"]["c_m(M)"]["NL"] == 44 * m * n == 1408
        assert report["per_level"]["c_m(M)"]["T"] == 12 * m * n == 384
        announce(3, "measured NL(AN)=8 per block, T(AN)=6; rollup "
                    "NL(c_m)=1408=44mn and T=384=12mn exactly")


class TestCriterion4PrimitiveCosts:
    def test_every_remote_cnot_costs_one_pair_two_bits(self):
        for seed in range(25):
            topo = Topology([NodeSpec("A", 4, 2), NodeSpec("B", 4, 2)])
            net = Network(topo, RandomSource(seed))
            qa = net.allocate_data("A", 1)[0]
            qb = net.allocate_data("B", 1)[0]
            net.apply_local("A", gates.H, [qa])
            remote_cnot(net, qa, qb)
            assert net.ledger.ebits_consumed == 1
            assert net.ledger.total_cbits() == 2
            assert net.ledger.cbits_sent == {("A", "B"): 1, ("B", "A"): 1}

    def test_controlled_block_cost_independent_of_size(self):
        sizes = []
        for body_len in (1, 2, 5, 11, 23, 47):
            topo = Topology([NodeSpec("A", 4, 2), NodeSpec("B", 7, 2)])
            net = Network(topo, RandomSource(body_len))
            ctrl = net.allocate_data("A", 1)[0]
            tq = net.allocate_data("B", 4)
            net.apply_local("A", gates.H, [ctrl])
            body = Circuit(net.state.num_qubits)
            for i in range(body_len):
                body.h(tq[i % 4]) if i % 3 else body.gate(
                    gates.CNOT, [tq[i % 4], tq[(i + 1) % 4]])
            remote_block(net, ctrl, body)
            assert net.ledger.ebits_consumed == 1
            assert net.ledger.total_cbits() == 2
            sizes.append(body_len)
        announce(4, f"1 pair + 2 classical bits for every remote CNOT and "
                    f"for controlled bodies of sizes {sizes}")


class TestCriterion5GateCountFormulas:
    def test_adder_counts_exact(self):
        for n in range(1, 9):
            b_q = list(range(n))
            s_q = list(range(n, 2 * n))
            fa = count_gates(build_fa(0, b_q, s_q, 2 * n)).total
            ha = count_gates(build_ha(0, b_q, s_q)).total
            assert fa == 4 * n == gate_count_formula("FA", n)
            assert ha == 4 * n - 2 == gate_count_formula("HA", n)

    def test_ladder_count_reported_with_delta(self):
        n, m = 4, 8
        layout = RegisterLayout.packed(n, m)
        measured = count_gates(build_cm_m(7, 15, m, layout)).total
        predicted = gate_count_formula("c_m(M)", n, m)
        assert predicted == 70 * m * n * n - 6 * m * n == 8768
        assert measured == 8736
        # the documented gap: the closed form is n gates per multiplier
        # larger than the built one, 2 MF plus n controlled swaps
        assert predicted - measured == m * n
        announce(5, f"FA=4n and HA=4n-2 exact for n=1..8; ladder measured "
                    f"{measured} vs closed form {predicted} "
                    f"(delta mn={m * n}, reported, equality not required)")


class TestCriterion6OracleSweeps:
    def test_all_arithmetic_blocks_against_integers(self):
        started = time.perf_counter()
        cases = [(5, 3), (7, 3), (15, 4)]
        runs = 0
        for N, n in cases:
            layout = RegisterLayout.packed(n, 2 * n)
            ancillas_an = [*layout.s, layout.carry]
            ancillas_all = [*layout.b, *layout.s, layout.carry,
                            *layout.inter, *layout.out]
            coprime = [a for a in range(1, N) if math.gcd(a, N) == 1]

            def run(circ, preset):
                state = QuantumState(circ.num_qubits)
                for q, bit in preset.items():
                    if bit:
                        state.apply_gate(gates.X, [q])
                execute(circ, state)
                return state

            def reg(state, qubits):
                dist = state.exact_distribution(list(qubits))
                (value, prob), = dist.items()
                assert abs(prob - 1.0) < 1e-12
                return value

            def preset_of(qubits, value):
                return {q: (value >> i) & 1 for i, q in enumerate(qubits)}

            for a in range(N):
                an = build_an(a, N, layout)
                xan = build_xan(a, N, layout)
                adder = build_adder(a, N, layout)
                for b in range(N):
                    preset = preset_of(layout.b, b)
                    st = run(an, preset)
                    assert reg(st, layout.inter) == (a + b) % N
                    st = run(xan, preset)
                    assert reg(st, layout.out) == (a + b) % N
                    for q in [*ancillas_an, *layout.inter]:
                        assert st.prob_one(q) <= 1e-12
                    st = run(adder, preset)
                    assert reg(st, layout.b) == (a + b) % N
                    for q in [*layout.s, layout.carry, *layout.inter,
                              *layout.out]:
                        assert st.prob_one(q) <= 1e-12
                    runs += 3

            for a in coprime:
                mf = build_mf(a, N, layout)
                mult = build_m(a, N, layout)
                for x in range(N):
                    preset = preset_of(layout.x, x)
                    st = run(mf, preset)
                    assert reg(st, layout.b) == (a * x) % N
                    st = run(mult, preset)
                    assert reg(st, layout.x) == (a * x) % N
                    for q in ancillas_all:
                        assert st.prob_one(q) <= 1e-12
                    runs += 2

            a = coprime[-1]
            ladder = build_cm_m(a, N, 4, layout)
            for k in range(16):
                for x in range(N):
                    preset = preset_of(layout.k[:4], k)
                    preset.update(preset_of(layout.x, x))
                    st = run(ladder, preset)
                    assert reg(st, layout.x) == (x * pow(a, k, N)) % N
                    for q in ancillas_all:
                        assert st.prob_one(q) <= 1e-12
                    runs += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0
        announce(6, f"{runs} oracle sweeps over N in {{5, 7, 15}} matched "
                    f"integer arithmetic exactly in {elapsed:.0f}s, all "
                    "ancillas clean to 1e-12")


class TestCriterion7EstimationBound:
    def test_best_estimate_probability(self):
        def power(i, ctrl):
            circ = Circuit(5)
            circ.gate(gates.phase_gate((1 << i) % 3, 3), [0],
                      [(ctrl, True)])
            return circ

        prep = Circuit(1)
        prep.x(0)
        state = phase_estimation_state(power, prep, 4, 1)
        dist = state.exact_distribution([1, 2, 3, 4])
        bound = 4 / math.pi**2
        assert dist[5] >= bound
        announce(7, f"P(best 4-bit estimate of 1/3) = {dist[5]:.4f} "
                    f">= 4/pi^2 = {bound:.4f}")


class TestCriterion8SpaceBounds:
    def test_monolithic_allocation(self):
        n, m = 4, 8
        layout = RegisterLayout.packed(n, m)
        assert layout.num_data_qubits == 5 * n + m + 1 == 29
        circ = build_cm_m(7, 15, m, layout)
        assert circ.num_qubits == 29
        assert max(used_qubits(circ)) == 28

    def test_distributed_fits_seven_nodes(self, dist_run_15):
        plan = plan_placement(4, 8)
        net = dist_run_15.network
        n = 4
        assert plan.layout.num_data_qubits == 7 * n + 1 == 29
        assert len(plan.topology.nodes) == 7
        assert plan.capacity == n + 5 == 9
        for node, live in net.max_live.items():
            assert live <= plan.capacity, node
        announce(8, "29 = 5n+m+1 = 7n+1 logical qubits; 7 nodes of "
                    f"capacity 9 = n+5; peak live counts {net.max_live}")


class TestCriterion9Properties:
    def test_norm_preservation(self):
        py_rng = random.Random(1)
        st = QuantumState(8)
        for _ in range(500):
            q = py_rng.randrange(8)
            g = (gates.H, gates.X, gates.Z,
                 gates.R(py_rng.randrange(2, 10)))[py_rng.randrange(4)]
            st.apply_gate(g, [q])
        assert abs(sum(abs(a) ** 2 for a in st.amplitudes.values())
                   - 1.0) < 1e-10

    def test_reversal_identity_exhaustive(self):
        py_rng = random.Random(2)
        for num_qubits in (6, 10):
            circ = Circuit(num_qubits)
            for _ in range(30):
                q = py_rng.randrange(num_qubits)
                pick = py_rng.randrange(4)
                if pick == 0:
                    circ.h(q)
                elif pick == 1:
                    circ.gate(gates.R(py_rng.randrange(2, 6)), [q])
                elif pick == 2:
                    circ.gate(gates.CNOT, [q, (q + 1) % num_qubits])
                else:
                    circ.gate(gates.TOFFOLI, [q, (q + 1) % num_qubits,
                                              (q + 2) % num_qubits])
            round_trip = Circuit(num_qubits)
            round_trip.extend(circ)
            round_trip.extend(reverse(circ))
            for basis in range(1 << num_qubits):
                st = QuantumState(num_qubits)
                for i in range(num_qubits):
                    if (basis >> i) & 1:
                        st.apply_gate(gates.X, [i])
                execute(round_trip, st)
                assert abs(amplitude(st, basis) - 1.0) < 1e-9

    def test_cat_round_trip_and_channel_hygiene(self):
        py_rng = random.Random(3)
        for trial in range(60):
            topo = Topology([NodeSpec("A", 4, 2), NodeSpec("B", 4, 2)])
            net = Network(topo, RandomSource(trial))
            qa = net.allocate_data("A", 1)[0]
            amps = random_amplitudes([qa], net.state.num_qubits, py_rng)
            net.state = from_amplitudes(net.state.num_qubits,
                                                     amps)
            before = net.state.copy()
            cat = net.cat_entangle(qa, net.establish_epr("A", "B"))
            net.cat_disentangle(cat)
            assert amp_distance(net.state, before) < 1e-12
            reset_channels(net, "A")
            reset_channels(net, "B")
            for rt in net.nodes.values():
                for q in rt.channel_slots:
                    assert net.state.prob_one(q) < 1e-12
        announce(9, "norm preservation, exhaustive reversal identity, "
                    "cat round trips at 1e-12, channels reset after every "
                    "primitive")
