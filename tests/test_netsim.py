"""Network protocol tests: pair establishment, shared controls, remote
gates, teleportation, channel hygiene, and exact communication costs."""

import random

import pytest

from conftest import (SessionRecord, TeleportRecord, add_controls,
                      amp_distance, from_amplitudes, random_amplitudes,
                      reference_session, remote_block, remote_cnot,
                      reset_channels)
from distshor import gates
from distshor.circuit import Circuit, Instruction, execute
from distshor.netsim import (Network, NetworkError, NodeSpec, Topology,
                             execute_distributed, session_groups)
from distshor.qstate import RandomSource


def two_nodes(seed=0, capacity=5, channels=2):
    topo = Topology([NodeSpec("A", capacity, channels),
                     NodeSpec("B", capacity, channels)])
    return Network(topo, RandomSource(seed))


def channels_clean(net):
    for rt in net.nodes.values():
        for q in rt.channel_slots:
            if net.state.prob_one(q) > 1e-12:
                return False
    return True


class TestEstablish:
    def test_bell_state_created(self):
        net = two_nodes()
        pair = net.establish_epr("A", "B")
        dist = net.state.exact_distribution([pair.qubit_a, pair.qubit_b])
        assert abs(dist[0] - 0.5) < 1e-12 and abs(dist[3] - 0.5) < 1e-12
        assert net.ledger.as_dict()["qubit_transmissions"] == 1

    def test_channel_exhaustion(self):
        net = two_nodes(channels=1)
        net.establish_epr("A", "B")
        with pytest.raises(NetworkError, match="no free channel"):
            net.establish_epr("A", "B")

    def test_reuse_after_consumption(self):
        net = two_nodes(channels=1)
        qa = net.allocate_data("A", 1)[0]
        for _ in range(3):
            pair = net.establish_epr("A", "B")
            cat = net.cat_entangle(qa, pair)
            net.cat_disentangle(cat)
            reset_channels(net, "A")
            reset_channels(net, "B")
        assert net.ledger.pairs_established == 3
        assert net.ledger.ebits_consumed == 3


class TestCatProtocol:
    def test_uniform_control_gives_even_cat(self):
        net = two_nodes(seed=2)
        qa = net.allocate_data("A", 1)[0]
        net.apply_local("A", gates.H, [qa])
        cat = net.cat_entangle(qa, net.establish_epr("A", "B"))
        dist = net.state.exact_distribution([cat.control, cat.mirror])
        assert set(dist) == {0, 3}
        assert abs(dist[0] - 0.5) < 1e-12

    def test_definite_control_is_copied(self):
        net = two_nodes(seed=3)
        qa = net.allocate_data("A", 1)[0]
        net.apply_local("A", gates.X, [qa])
        cat = net.cat_entangle(qa, net.establish_epr("A", "B"))
        assert net.state.exact_distribution(
            [cat.control, cat.mirror]) == {3: 1.0}

    def test_cat_support_stays_on_diagonal(self):
        for seed in range(12):
            net = two_nodes(seed=seed)
            qa = net.allocate_data("A", 1)[0]
            net.apply_local("A", gates.H, [qa])
            net.apply_local("A", gates.R(3), [qa])
            cat = net.cat_entangle(qa, net.establish_epr("A", "B"))
            dist = net.state.exact_distribution([cat.control, cat.mirror])
            assert set(dist) <= {0, 3}

    def test_round_trip_restores_control(self):
        py_rng = random.Random(5)
        for trial in range(100):
            net = two_nodes(seed=trial)
            qa = net.allocate_data("A", 1)[0]
            amps = random_amplitudes([qa], net.state.num_qubits, py_rng)
            net.state = from_amplitudes(net.state.num_qubits,
                                                     amps)
            before = net.state.copy()
            cat = net.cat_entangle(qa, net.establish_epr("A", "B"))
            net.cat_disentangle(cat)
            assert amp_distance(net.state, before) < 1e-12
            assert channels_clean(net)

    def test_costs_split_between_halves(self):
        net = two_nodes(seed=1)
        qa = net.allocate_data("A", 1)[0]
        net.apply_local("A", gates.H, [qa])
        cat = net.cat_entangle(qa, net.establish_epr("A", "B"))
        assert net.ledger.ebits_consumed == 1
        assert net.ledger.cbits_sent == {("A", "B"): 1}
        net.cat_disentangle(cat)
        assert net.ledger.cbits_sent == {("A", "B"): 1, ("B", "A"): 1}

    def test_consumed_pair_rejected(self):
        net = two_nodes()
        qa = net.allocate_data("A", 1)[0]
        pair = net.establish_epr("A", "B")
        net.cat_entangle(qa, pair)
        with pytest.raises(NetworkError, match="consumed"):
            net.cat_entangle(qa, pair)

    def test_double_disentangle_rejected(self):
        net = two_nodes()
        qa = net.allocate_data("A", 1)[0]
        cat = net.cat_entangle(qa, net.establish_epr("A", "B"))
        net.cat_disentangle(cat)
        with pytest.raises(NetworkError, match="released"):
            net.cat_disentangle(cat)


class TestNonlocalCnot:
    def test_equivalence_on_random_states(self):
        py_rng = random.Random(11)
        for trial in range(100):
            net = two_nodes(seed=trial)
            qa = net.allocate_data("A", 1)[0]
            qb = net.allocate_data("B", 1)[0]
            amps = random_amplitudes([qa, qb], net.state.num_qubits, py_rng)
            net.state = from_amplitudes(net.state.num_qubits,
                                                     amps)
            ref = net.state.copy()
            remote_cnot(net, qa, qb)
            ref.apply_gate(gates.CNOT, [qa, qb])
            assert amp_distance(net.state, ref) < 1e-12
            assert channels_clean(net)

    def test_basis_examples(self):
        net = two_nodes(seed=4)
        qa = net.allocate_data("A", 1)[0]
        qb = net.allocate_data("B", 1)[0]
        net.apply_local("A", gates.H, [qa])
        remote_cnot(net, qa, qb)
        dist = net.state.exact_distribution([qa, qb])
        assert set(dist) == {0, 3}

        net2 = two_nodes(seed=5)
        qa2 = net2.allocate_data("A", 1)[0]
        qb2 = net2.allocate_data("B", 1)[0]
        net2.apply_local("A", gates.X, [qa2])
        remote_cnot(net2, qa2, qb2)
        assert net2.state.exact_distribution([qa2, qb2]) == {3: 1.0}

    def test_exact_cost(self):
        for seed in range(10):
            net = two_nodes(seed=seed)
            qa = net.allocate_data("A", 1)[0]
            qb = net.allocate_data("B", 1)[0]
            net.apply_local("A", gates.H, [qa])
            remote_cnot(net, qa, qb)
            assert net.ledger.ebits_consumed == 1
            assert net.ledger.cbits_sent == {("A", "B"): 1, ("B", "A"): 1}
            assert net.ledger.teleports == 0


class TestControlledCircuit:
    def test_cost_independent_of_body_size(self):
        for body_len in (1, 3, 9, 17):
            net = two_nodes(seed=body_len, capacity=6)
            ctrl = net.allocate_data("A", 1)[0]
            tq = net.allocate_data("B", 3)
            net.apply_local("A", gates.H, [ctrl])
            body = Circuit(net.state.num_qubits)
            for i in range(body_len):
                body.h(tq[i % 3]) if i % 2 else body.gate(
                    gates.CNOT, [tq[i % 3], tq[(i + 1) % 3]])
            remote_block(net, ctrl, body)
            assert net.ledger.ebits_consumed == 1
            assert net.ledger.total_cbits() == 2

    def test_open_control_leaves_target_untouched(self):
        net = two_nodes(seed=9)
        ctrl = net.allocate_data("A", 1)[0]
        tq = net.allocate_data("B", 2)
        body = Circuit(net.state.num_qubits)
        body.x(tq[0])
        body.h(tq[1])
        remote_block(net, ctrl, body)
        assert net.state.exact_distribution(tq) == {0: 1.0}

    def test_adder_body_matches_monolithic(self):
        from distshor.revarith import build_fa
        py_rng = random.Random(23)
        for trial in range(20):
            topo = Topology([NodeSpec("A", 3, 2), NodeSpec("B", 10, 2)])
            net = Network(topo, RandomSource(trial))
            ctrl = net.allocate_data("A", 1)[0]
            regs = net.allocate_data("B", 7)
            body = build_fa(5, regs[:3], regs[3:6], regs[6],
                            num_qubits=net.state.num_qubits)
            amps = random_amplitudes([ctrl, *regs[:3]],
                                     net.state.num_qubits, py_rng)
            net.state = from_amplitudes(net.state.num_qubits,
                                                     amps)
            ref = net.state.copy()
            remote_block(net, ctrl, body)
            execute(add_controls(body, [(ctrl, True)]), ref)
            assert amp_distance(net.state, ref) < 1e-12
            assert channels_clean(net)


class TestTeleport:
    def test_amplitudes_preserved(self):
        net = two_nodes(seed=6)
        qa = net.allocate_data("A", 1)[0]
        net.state = from_amplitudes(
            net.state.num_qubits, {0: 0.6, 1 << qa: 0.8})
        dst = net.teleport(qa, "B")
        dist = net.state.exact_distribution([dst])
        assert abs(dist.get(0, 0) - 0.36) < 1e-12
        assert abs(dist.get(1, 0) - 0.64) < 1e-12
        assert net.state.prob_one(qa) < 1e-12  # source slot reset

    def test_entanglement_preserved(self):
        for seed in range(25):
            net = two_nodes(seed=seed)
            qa, qa2 = net.allocate_data("A", 2)
            net.apply_local("A", gates.H, [qa])
            net.apply_local("A", gates.X, [qa2], [(qa, True)])
            before = net.state.exact_distribution([qa, qa2])
            dst = net.teleport(qa2, "B")
            after = net.state.exact_distribution([qa, dst])
            for key in set(before) | set(after):
                assert abs(before.get(key, 0) - after.get(key, 0)) < 1e-12

    def test_exact_cost(self):
        net = two_nodes(seed=8)
        qa = net.allocate_data("A", 1)[0]
        net.apply_local("A", gates.H, [qa])
        net.teleport(qa, "B")
        assert net.ledger.ebits_consumed == 1
        assert net.ledger.total_cbits() == 2
        assert net.ledger.teleports == 1

    def test_no_free_slot_rejected(self):
        net = two_nodes(capacity=3, channels=2)  # one data slot per node
        qa = net.allocate_data("A", 1)[0]
        net.allocate_data("B", 1)
        with pytest.raises(NetworkError, match="no free register slot"):
            net.teleport(qa, "B")

    def test_failed_teleport_keeps_both_slots(self):
        net = two_nodes(channels=1)
        qa = net.allocate_data("A", 1)[0]
        net.apply_local("A", gates.X, [qa])
        net.establish_epr("A", "B")  # holds the only channel on each node
        held = {n: set(rt.allocated) for n, rt in net.nodes.items()}
        with pytest.raises(NetworkError, match="no free channel"):
            net.teleport(qa, "B")
        assert {n: rt.allocated for n, rt in net.nodes.items()} == held
        assert net.allocate_data("A", 1) != [qa]

    def test_random_states_against_relabeling(self):
        py_rng = random.Random(31)
        for trial in range(75):
            net = two_nodes(seed=trial)
            qa = net.allocate_data("A", 1)[0]
            amps = random_amplitudes([qa], net.state.num_qubits, py_rng)
            net.state = from_amplitudes(net.state.num_qubits,
                                                     amps)
            want = {idx >> qa: amp for idx, amp in
                    net.state.amplitudes.items()}
            dst = net.teleport(qa, "B")
            got = {idx >> dst: amp for idx, amp in
                   net.state.amplitudes.items()}
            assert set(got) == set(want)
            assert max(abs(got[k] - want[k]) for k in want) < 1e-12
            assert channels_clean(net)


class TestResetChannels:
    def test_reset_after_primitive(self):
        net = two_nodes(seed=10)
        qa = net.allocate_data("A", 1)[0]
        qb = net.allocate_data("B", 1)[0]
        net.apply_local("A", gates.H, [qa])
        remote_cnot(net, qa, qb)
        reset_channels(net, "A")
        reset_channels(net, "B")
        assert channels_clean(net)

    def test_mid_protocol_reset_rejected(self):
        net = two_nodes()
        net.establish_epr("A", "B")  # live pair on the channel qubits
        with pytest.raises(NetworkError, match="entangled"):
            reset_channels(net, "A")

    def test_reset_is_idempotent(self):
        net = two_nodes()
        reset_channels(net, "A")
        reset_channels(net, "A")
        assert channels_clean(net)


class TestLocalityAndCapacity:
    def test_spanning_gate_is_hard_error(self):
        net = two_nodes()
        qa = net.allocate_data("A", 1)[0]
        qb = net.allocate_data("B", 1)[0]
        with pytest.raises(NetworkError, match="spans"):
            net.apply_local("A", gates.CNOT, [qa, qb])

    def test_session_remote_fanin_capped(self):
        topo = Topology([NodeSpec(f"N{i}", 3, 2) for i in range(4)]
                        + [NodeSpec("T", 4, 3)])
        net = Network(topo, RandomSource(0))
        ctrls = [net.allocate_data(f"N{i}", 1)[0] for i in range(4)]
        tq = net.allocate_data("T", 1)[0]
        inst = Instruction(gates.X, (tq,),
                           tuple((c, True) for c in ctrls))
        [unit] = session_groups([inst], net.node_of)
        with pytest.raises(NetworkError, match="max 3"):
            net.run_session(unit)

    def test_over_capacity_detected(self):
        net = two_nodes(capacity=3, channels=2)
        net.allocate_data("A", 1)
        with pytest.raises(NetworkError, match="no free register slot"):
            net.allocate_data("A", 1)

    def test_capacity_refusal_claims_nothing(self):
        net = two_nodes()
        held = net.allocate_data("B", 2)
        # live counts only outgrow a node's spec if the spec shrinks under it
        net.nodes["B"].spec = NodeSpec("B", 2, 2)
        with pytest.raises(NetworkError, match="^node B over capacity: 3 "):
            net.establish_epr("A", "B")
        assert all(not rt.busy_channels for rt in net.nodes.values())
        with pytest.raises(NetworkError, match="^node B over capacity: 3 "):
            net.allocate_data("B", 1)
        assert net.nodes["B"].allocated == set(held)


class TestDeterminism:
    def test_protocol_transcripts_repeat(self):
        def run(seed):
            net = two_nodes(seed=seed)
            qa = net.allocate_data("A", 1)[0]
            qb = net.allocate_data("B", 1)[0]
            net.apply_local("A", gates.H, [qa])
            remote_cnot(net, qa, qb)
            net.teleport(qa, "B")
            return dict(net.state.amplitudes), net.ledger.as_dict()

        a1, l1 = run(77)
        a2, l2 = run(77)
        assert a1 == a2 and l1 == l2


class TestDistributedExecutor:
    def test_remote_anticontrol(self):
        net = two_nodes(seed=12)
        qa = net.allocate_data("A", 1)[0]
        qb = net.allocate_data("B", 1)[0]
        circ = Circuit(net.state.num_qubits)
        circ.gate(gates.X, [qb], [(qa, False)])
        execute_distributed(net, circ)
        assert net.state.exact_distribution([qb]) == {1: 1.0}
        assert net.ledger.ebits_consumed == 1

    def test_spanning_operands_rejected(self):
        net = two_nodes()
        qa = net.allocate_data("A", 1)[0]
        qb = net.allocate_data("B", 1)[0]
        circ = Circuit(net.state.num_qubits)
        circ.swap(qa, qb)
        with pytest.raises(NetworkError, match="span"):
            execute_distributed(net, circ)


class TestSessionGroups:
    def test_runs_split_on_block_node_and_remote_controls(self):
        node_of = {0: "A", 1: "A", 2: "B", 3: "B"}.__getitem__
        circ = Circuit(4)
        circ.x(2, controls=[(0, True)], block="t@fa0")
        circ.x(3, controls=[(1, True)], block="t@fa0")  # same block
        circ.x(2, controls=[(0, True)])
        circ.x(3, controls=[(0, True)])  # same node and remote controls
        circ.x(3, controls=[(1, True)])  # new remote control set
        circ.x(0)
        circ.move(0, 2)
        circ.x(1)
        groups = [(node, is_move,
                   [circ.instructions.index(i) for i in insts])
                  for node, insts, *_, is_move
                  in session_groups(circ.instructions, node_of)]
        assert groups == [("B", False, [0, 1]), ("B", False, [2, 3]),
                          ("B", False, [4]), ("A", False, [5]),
                          ("B", True, [6]), ("A", False, [7])]


class TestRecords:
    def test_run_session_returns_its_shared_controls(self):
        nets = two_nodes(), two_nodes()
        for net in nets:
            qa = net.allocate_data("A", 2)
            qb = net.allocate_data("B", 1)[0]
        body = [Instruction(gates.X, (qb,), ((qa[1], True),), block="b"),
                Instruction(gates.X, (qb,), ((qa[0], False), (qa[1], True)),
                            classical_constant=0, block="b")]
        [unit] = session_groups(body, nets[0].node_of)
        # both controls are shared; the disabled gate is not counted
        assert nets[0].run_session(unit) == (qa[1], qa[0])
        assert reference_session(nets[1], "B", body, "b") == \
            SessionRecord("b", "B", (qa[1], qa[0]), 1)
        assert nets[0].ledger == nets[1].ledger

    def test_session_without_remote_control_returns_none(self):
        nets = two_nodes(), two_nodes()
        for net in nets:
            qb = net.allocate_data("B", 2)
        body = [Instruction(gates.X, (qb[0],), ((qb[1], True),))]
        [unit] = session_groups(body, nets[0].node_of)
        assert nets[0].run_session(unit) is None
        assert reference_session(nets[1], "B", body, None) is None
        assert nets[0].ledger.ebits_consumed == 0

    @pytest.mark.parametrize("make,fields,field", [
        (SessionRecord, ("b", "A", (3, 4), 2), "gates"),
        (TeleportRecord, ("A", "B", "AN/t"), "label"),
    ])
    def test_records_are_immutable_values(self, make, fields, field):
        record = make(*fields)
        assert record == make(*fields)
        assert hash(record) == hash(make(*fields))
        assert record != make(*fields[:-1], "other")
        with pytest.raises(AttributeError):
            setattr(record, field, "other")
        assert getattr(record, field) == fields[-1]
