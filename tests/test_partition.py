"""Placement and distributed-execution tests: plan arithmetic, sliced
block equivalence, session/teleport censuses, and the level rollup."""

import pytest

from conftest import (add_controls, census_from_records, read_register,
                      reference_execute_distributed, used_qubits)
from distshor import gates
from distshor.circuit import Circuit, execute
from distshor.partition import (PlanError, build_distributed_order_program,
                                build_distributed_transform_program,
                                build_network, census_from_program,
                                count_nl_t,
                                execute_distributed, plan_placement,
                                run_order_program)
from distshor.qstate import QuantumState, RandomSource
from distshor.revarith import (build_adder, build_an, build_cm_m, build_fa,
                               build_xan)
from distshor.shor import find_order, order_round


def fresh_network(plan, seed=0):
    return build_network(plan, RandomSource(seed))


def preset_network(net, bits):
    for q in bits:
        net.apply_local(net.node_of(q), gates.X, [q])


def bits_of(value, qubits):
    return [q for i, q in enumerate(qubits) if (value >> i) & 1]


class TestPlan:
    def test_canonical_shape(self):
        plan = plan_placement(4, 8)
        assert len(plan.topology.nodes) == 7
        assert plan.capacity == 9  # n + 5
        assert plan.layout.num_data_qubits == 29  # 7n + 1
        assert all(spec.channel_qubits == 3 for spec in plan.topology.nodes)

    def test_larger_instance(self):
        plan = plan_placement(8, 16)
        assert plan.layout.num_data_qubits == 57  # 7n + 1
        assert plan.capacity == 13  # n + 5

    @pytest.mark.parametrize("m", [0, -3])
    def test_nonpositive_width_rejected(self, m):
        with pytest.raises(PlanError, match=f"m must be at least 1, got {m}"):
            plan_placement(4, m)

    def test_ceil_split_for_awkward_width(self):
        plan = plan_placement(3, 6)
        assert plan.layout.num_data_qubits == 22  # 5n + m + 1
        assert plan.capacity == 4 * 1 + 5  # padded slice width
        # capacity check: the plan built without raising is the check
        assert len(plan.adder_nodes) == 3  # one empty slice dropped

    def test_roles_cover_every_register(self):
        plan = plan_placement(4, 8)
        lay = plan.layout
        spares = [q for pair in plan.slicing.spares for q in pair]
        placed = [*lay.k, *plan.k_spares.values(), *lay.x, *lay.b, *lay.s,
                  *lay.inter, *lay.out, *spares]
        assert len(set(placed)) == len(placed)
        assert set(placed) == set(plan.node_of_qubit)
        k_nodes = [plan.node_of_qubit[q] for q in lay.k]
        assert k_nodes == ["K0"] * 4 + ["K1"] * 4
        assert plan.node_of_qubit[lay.carry] == plan.adder_nodes[-1]

    def test_register_slices_land_on_their_nodes(self):
        plan = plan_placement(8, 16)
        lay = plan.layout
        for i in range(8):
            node = plan.adder_nodes[i // 2]
            for reg in (lay.b, lay.s, lay.inter, lay.out):
                assert plan.node_of_qubit[reg[i]] == node

    # n = 2..8 gives two, three and four adder slices; m = 1 and m = 2n
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("double", [False, True], ids=["m=1", "m=2n"])
    def test_builders_touch_only_planned_qubits(self, n, double):
        m = 2 * n if double else 1
        plan = plan_placement(n, m)
        program = build_distributed_order_program(2, (1 << n) - 1, plan)
        assert used_qubits(program) <= set(plan.node_of_qubit)


class TestDistributedBlocks:
    def setup_method(self):
        self.plan = plan_placement(4, 8)
        self.lay = self.plan.layout
        self.controls = [(self.lay.k[0], True), (self.lay.x[0], True)]

    def run_block(self, circ, b_value, *, enable=True, seed=7,
                  execute=execute_distributed):
        net = fresh_network(self.plan, seed)
        preset = bits_of(b_value, self.lay.b)
        if enable:
            preset += [self.lay.k[0], self.lay.x[0]]
        preset_network(net, preset)
        execute(net, circ)
        return net

    def records(self, circ, b_value):
        """The reference walk's (sessions, teleports) over ``circ``."""
        records = []
        self.run_block(circ, b_value, execute=lambda net, circ: records.extend(
            reference_execute_distributed(net, circ)))
        return records

    def test_fa_slice_with_open_controls_untouched(self):
        segments = self.plan.slicing.segments(self.lay.s, 0, "FA", "fa")
        fa = build_fa(11, self.lay.b, self.lay.s, self.lay.carry,
                      num_qubits=self.plan.num_qubits, path="FA",
                      segments=segments)
        circ = add_controls(fa, self.controls)
        net = self.run_block(circ, 9, enable=False)
        assert read_register(net.state, self.lay.s) == 0
        assert read_register(net.state, self.lay.b) == 9
        # carry relocation is unconditional; it moves |0> when disabled
        assert net.ledger.teleports == 3

    @pytest.mark.parametrize("block,regs", [
        ("an", "inter"), ("xan", "out"), ("adder", "b")])
    def test_blocks_match_monolithic_exhaustively(self, block, regs):
        builders = {"an": build_an, "xan": build_xan, "adder": build_adder}
        builder = builders[block]
        sliced = add_controls(
            builder(7, 15, self.lay, slicing=self.plan.slicing),
            self.controls)
        plain = add_controls(builder(7, 15, self.lay), self.controls)
        for b in range(15):
            net = self.run_block(sliced, b, seed=b)
            ref = QuantumState(plain.num_qubits)
            for q in bits_of(b, self.lay.b) + [self.lay.k[0], self.lay.x[0]]:
                ref.apply_gate(gates.X, [q])
            execute(plain, ref)
            for q in set(range(self.lay.pool_size)):
                got = net.state.prob_one(q) if q < net.state.num_qubits else 0
                want = ref.prob_one(q)
                assert abs(got - want) < 1e-12, (block, b, q)
            assert read_register(net.state, getattr(self.lay, regs)) == \
                read_register(ref, getattr(self.lay, regs))

    def test_an_census_eight_blocks_six_teleports(self):
        an = add_controls(
            build_an(7, 15, self.lay, slicing=self.plan.slicing, path="AN"),
            self.controls)
        census = census_from_records(*self.records(an, 9))
        assert census.blocks["AN"] == {"AN": 8}
        assert census.teleports["AN"] == {"AN": 6}

    def test_xan_census_adds_four_copies(self):
        xan = add_controls(
            build_xan(7, 15, self.lay, slicing=self.plan.slicing,
                      path="XAN0"), self.controls)
        census = census_from_records(*self.records(xan, 9))
        assert census.blocks["AN"] == {"XAN0/AN": 8, "XAN0/ANr": 8}
        assert census.blocks["COPY"] == {"XAN0": 4}
        assert census.teleports["AN"] == {"XAN0/AN": 6, "XAN0/ANr": 6}

    def test_adder_census_adds_four_swaps(self):
        adder = add_controls(
            build_adder(7, 15, self.lay, slicing=self.plan.slicing,
                        path="A"), self.controls)
        census = census_from_records(*self.records(adder, 9))
        assert census.blocks["SWAP"] == {"A": 4}
        assert all(v == 8 for v in census.blocks["AN"].values())
        levels = count_nl_t(census, 4, 8)["per_level"]
        assert levels["AN"] == {"NL": 8, "T": 6}
        assert levels["c_m(M)"] == {"NL": 44 * 8 * 4, "T": 12 * 8 * 4}

    def test_remote_fanin_never_exceeds_three(self):
        adder = add_controls(
            build_adder(7, 15, self.lay, slicing=self.plan.slicing),
            self.controls)
        sessions, _ = self.records(adder, 9)
        assert max(len(s.remote_controls) for s in sessions) == 3

    def test_capacity_respected_throughout(self):
        adder = add_controls(
            build_adder(7, 15, self.lay, slicing=self.plan.slicing),
            self.controls)
        net = self.run_block(adder, 9)
        for node, live in net.max_live.items():
            assert live <= plan_capacity(self.plan, node)


def plan_capacity(plan, node):
    for spec in plan.topology.nodes:
        if spec.node_id == node:
            return spec.register_capacity
    raise KeyError(node)


class TestDistributeCircuit:
    def test_local_only_circuit_costs_nothing(self):
        plan = plan_placement(4, 8)
        net = fresh_network(plan)
        lay = plan.layout
        circ = Circuit(net.state.num_qubits)
        circ.h(lay.k[0])
        circ.gate(gates.CNOT, [lay.k[0], lay.k[1]])  # both on K0
        execute_distributed(net, circ)
        led = net.ledger
        assert led.ebits_consumed == 0 and led.teleports == 0
        assert led.total_cbits() == 0 and led.pairs_established == 0


class TestFullRunEquivalence:
    def test_rollup_hits_reference_totals(self, reference_round_15):
        census = census_from_records(*reference_round_15.records)
        report = count_nl_t(census, 4, 8)
        assert report["leaves_measured"]["AN"]["NL"] == 8
        assert report["leaves_measured"]["AN"]["T"] == 6
        levels = report["per_level"]
        assert levels["c_m(M)"] == {"NL": 1408, "T": 384}
        assert levels["QFT_inv"] == {"NL": 16, "T": 0}  # (m/2)^2 cross gates

    # N=21 (n=5) leaves one adder node without a slice: three slices
    @pytest.mark.parametrize("a,N,m", [(7, 15, 8), (2, 21, 2), (2, 33, 1)])
    def test_static_census_matches_dynamic(self, request, a, N, m):
        plan = plan_placement(N.bit_length(), m)
        program = build_distributed_order_program(a, N, plan)
        records = (request.getfixturevalue("reference_round_15").records
                   if N == 15
                   else reference_execute_distributed(
                       fresh_network(plan), program))
        static = census_from_program(program, plan)
        assert static == census_from_records(*records)

    def test_live_counts_stay_within_capacity(self, dist_run_15):
        net = dist_run_15.network
        plan = plan_placement(4, 8)
        for node, live in net.max_live.items():
            assert live <= plan_capacity(plan, node)
        # adder nodes genuinely reach the ceiling during 3-control blocks
        assert net.max_live["A0"] == plan.capacity

    def test_one_shot_run_matches_order_round(self):
        run = run_order_program(7, 15, 2, RandomSource(0))
        ref = order_round(7, 15, 2, "distributed")(RandomSource(0))
        assert run.network.ledger == ref.network.ledger
        assert run.state.amplitudes == ref.state.amplitudes

    def test_counts_only_program_census(self):
        plan = plan_placement(4, 8)
        program = build_distributed_order_program(7, 15, plan)
        census = census_from_program(program, plan)
        levels = count_nl_t(census, 4, 8)["per_level"]
        assert levels["c_m(M)"] == {"NL": 1408, "T": 384}
        assert levels["SHOR"]["T"] == 384

    @pytest.mark.parametrize("table,what,values", [
        ("blocks", "block", "[7, 8]"), ("teleports", "teleport", "[5, 6]")],
        ids=["blocks", "teleports"])
    def test_disagreeing_an_instances_rejected(self, table, what, values):
        plan = plan_placement(4, 1)
        census = census_from_program(
            build_distributed_order_program(7, 15, plan), plan)
        count_nl_t(census, 4, 1)
        instances = getattr(census, table)["AN"]
        instances[next(iter(instances))] -= 1
        with pytest.raises(PlanError) as err:
            count_nl_t(census, 4, 1)
        assert str(err.value) == f"non-uniform AN {what} census: {values}"


class TestRoundBill:
    """A distributed round's bill is m copies of its first controlled
    multiplier's plus the transform's: the bill depends on neither the
    coins nor the state."""

    @staticmethod
    def bill(plan, circ):
        net = fresh_network(plan)
        execute_distributed(net, circ)
        ledger = net.ledger
        return (ledger.ebits_consumed, ledger.pairs_established,
                ledger.teleports, ledger.total_cbits())

    @pytest.mark.parametrize("a,N,m", [(7, 15, 4), (7, 15, 8), (2, 21, 10),
                                       (2, 33, 12)])
    def test_round_is_m_multipliers_plus_transform(self, a, N, m):
        plan = plan_placement(N.bit_length(), m)
        ledger = order_round(a, N, m, "distributed")(
            RandomSource(0)).network.ledger
        first = self.bill(plan, build_cm_m(a, N, 1, plan.layout,
                                           slicing=plan.slicing))
        transform = self.bill(plan,
                              build_distributed_transform_program(plan))
        assert (ledger.ebits_consumed, ledger.pairs_established,
                ledger.teleports, ledger.total_cbits()) == tuple(
                    m * f + t for f, t in zip(first, transform))

    @pytest.mark.parametrize("m,seed,rounds,ebits", [(4, 2, 2, 4024),
                                                     (3, 1, 3, 3016)])
    def test_run_is_rounds_times_one_round(self, m, seed, rounds, ebits):
        result = find_order(7, 15, m, RandomSource(seed),
                            mode="distributed")
        assert len(result.transcript) == rounds
        one = order_round(7, 15, m, "distributed")(
            RandomSource(99)).network.ledger
        assert one.ebits_consumed == ebits
        run = result.ledger
        assert (run.ebits_consumed, run.pairs_established,
                run.teleports) == (rounds * one.ebits_consumed,
                                   rounds * one.pairs_established,
                                   rounds * one.teleports)
        assert run.cbits_sent == {key: rounds * count for key, count
                                  in one.cbits_sent.items()}
