"""The network's closed-form gadgets against the physical protocol.

``execute_distributed`` does not simulate the shared-control and teleport
gadgets gate by gate: ``Network.run_session`` and ``Network.move`` post
what they bill, then ``circuit.execute`` applies what they compute.
``reference_execute_distributed`` (conftest) runs the same programs
through the physical primitives.  Every observable must agree:
transcripts, ledgers, session and teleport records, peak live counts and
the random stream exactly, the state to 1e-12.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (amp_distance, reference_execute_distributed,
                      reference_move, reference_session)
from distshor import gates, partition, shor
from distshor.circuit import Circuit, Instruction
from distshor.netsim import (Network, NetworkError, NodeSpec, Topology,
                             execute_distributed)
from distshor.qstate import RandomSource, SimulationError


def observed(network: Network) -> dict:
    """Everything a network run leaves behind except the state; reading
    the next draw advances the network's random stream."""
    return {
        "ledger": network.ledger.as_dict(),
        "sessions": network.sessions,
        "teleport_log": network.teleport_log,
        "max_live": network.max_live,
        "next_draw": network.rng.uniform(),
    }


# -- whole order-finding rounds ---------------------------------------------

# N=15, a=7, m=8, seed 1 (the ``dist_run_15`` fixture), then one recorded
# (N, m, a, seed) job for each dist-factor stratum of the benchmark.
ROUNDS = [(15, 8, 7, 1), (15, 4, 11, 0), (15, 5, 2, 1), (15, 6, 7, 3)]


def round_outcome(run: shor.OrderRun):
    """The first-register distribution, j and what the network left
    behind, for a distributed order-finding round run up to measurement."""
    dist = run.first_register_distribution()
    j = run.measure_first_register(run.network.rng)
    return j, dist, observed(run.network)


@pytest.mark.parametrize("N,m,a,seed", ROUNDS)
def test_order_round_matches_physical_protocol(request, monkeypatch, N, m,
                                               a, seed):
    run_round = shor.order_round(a, N, m, shor.DISTRIBUTED)
    if (N, m, a, seed) == (15, 8, 7, 1):
        run = copy.deepcopy(request.getfixturevalue("dist_run_15"))
    else:
        run = run_round(RandomSource(seed))
    closed = round_outcome(run)
    monkeypatch.setattr(partition, "execute_distributed",
                        reference_execute_distributed)
    reference = round_outcome(run_round(RandomSource(seed)))
    assert closed[0] == reference[0]
    assert closed[2] == reference[2]
    keys = set(closed[1]) | set(reference[1])
    assert max(abs(closed[1].get(k, 0.0) - reference[1].get(k, 0.0))
               for k in keys) < 1e-12


# -- error parity -------------------------------------------------------------

def network(*specs):
    net = Network(Topology([NodeSpec(*spec) for spec in specs]),
                  RandomSource(3))
    held = {spec[0]: net.allocate_data(spec[0], spec[1] - spec[2])
            for spec in specs}
    return net, held


def too_many_controls():
    net, held = network(*[(f"N{i}", 3, 2) for i in range(4)], ("T", 4, 3))
    ctrls = tuple((held[f"N{i}"][0], i % 2 == 0) for i in range(4))
    return net, ("session", "T", [Instruction(gates.X, (held["T"][0],),
                                              ctrls)])


def exhausted_session_channels():
    net, held = network(("A", 4, 2), ("T", 3, 1))
    ctrls = tuple((q, True) for q in held["A"])
    return net, ("session", "T", [Instruction(gates.X, (held["T"][0],),
                                              ctrls)])


def exhausted_move_channels():
    net, held = network(("A", 2, 0), ("B", 3, 1))
    return net, ("move", held["A"][0], held["B"][1])


def over_capacity_session():
    net, held = network(("A", 3, 1), ("T", 4, 2))
    # live counts only outgrow a node's spec if the spec shrinks under it
    net.nodes["T"].spec = NodeSpec("T", 2, 1)
    return net, ("session", "T", [Instruction(
        gates.X, (held["T"][0],), ((held["A"][0], False),))])


def over_capacity_move():
    net, held = network(("A", 3, 1), ("B", 4, 2))
    net.nodes["B"].spec = NodeSpec("B", 2, 1)
    return net, ("move", held["A"][0], held["B"][1])


def spanning_body():
    net, held = network(("A", 3, 1), ("B", 4, 2), ("C", 3, 1))
    net.apply_local("A", gates.H, [held["A"][0]])
    body = [Instruction(gates.H, (held["B"][0],), ((held["A"][0], True),)),
            Instruction(gates.X, (held["B"][1],), ((held["C"][0], True),)),
            Instruction(gates.SWAP, (held["B"][1], held["C"][1]))]
    return net, ("session", "B", body)


def slot_not_held():
    net, held = network(("A", 3, 1), ("B", 4, 2))
    net.release_data("B", held["B"][1])
    return net, ("move", held["A"][0], held["B"][1])


def slot_not_zero():
    net, held = network(("A", 3, 1), ("B", 4, 2))
    net.apply_local("B", gates.H, [held["B"][1]])
    move = Circuit(net.state.num_qubits).move(held["A"][0], held["B"][1])
    return net, ("program", move)


def run_closed(net, step, *args):
    if step == "session":
        net.run_session(*args)
    elif step == "move":
        net.move(*args)
    else:
        execute_distributed(net, *args)


def run_reference(net, step, *args):
    if step == "session":
        reference_session(net, *args, None)
    elif step == "move":
        reference_move(net, *args, "")
    else:
        reference_execute_distributed(net, *args)


@pytest.mark.parametrize("build,message", [
    (too_many_controls, r"^session needs 4 remote controls \(max 3\)$"),
    (exhausted_session_channels, r"^no free channel qubit on T$"),
    (exhausted_move_channels, r"^no free channel qubit on A$"),
    (over_capacity_session, r"^node T over capacity: 3 live qubits$"),
    (over_capacity_move, r"^node B over capacity: 3 live qubits$"),
    (spanning_body, r"^gate spans nodes: qubit \d+ is on C, not B$"),
    (slot_not_held, r"^destination slot \d+ not held by B$"),
    (slot_not_zero, r"^destination slot \d+ is not \|0>$"),
])
def test_errors_match_physical_protocol(build, message):
    outcomes = []
    for execute in (run_closed, run_reference):
        net, step = build()
        # the closed form's kernel refuses a landing; the reference's
        # teleport refuses it as a network error
        refuser = (SimulationError
                   if build is slot_not_zero and execute is run_closed
                   else NetworkError)
        with pytest.raises(refuser, match=message) as err:
            execute(net, *step)
        outcomes.append((str(err.value), observed(net)))
    if build is slot_not_zero:
        # The closed form posts the whole program's bill, drawing the
        # teleport's two coins, before its kernel refuses the landing;
        # the reference refuses before the pair.  Only the message can
        # match.
        assert outcomes[0][0] == outcomes[1][0]
    else:
        assert outcomes[0] == outcomes[1]


# -- random programs ----------------------------------------------------------

NODES = ("A", "B", "C")
BODY_KINDS = {"X": 1, "CNOT": 2, "TOFFOLI": 3, "SWAP": 2, "H": 1, "R": 1}


def three_nodes(seed: int) -> tuple[Network, dict[str, list[int]]]:
    net = Network(Topology([NodeSpec(n, 6, 3) for n in NODES]),
                  RandomSource(seed))
    return net, {n: net.allocate_data(n, 3) for n in NODES}


@st.composite
def programs(draw):
    """A program over three nodes of three data slots each: sessions with
    0-3 remote controls of either polarity, bodies of X, CNOT, TOFFOLI,
    SWAP, H and R gates carrying the constants None, 0 or 1, and MOVEs
    within and across nodes into a |0> slot; plus 1-3 qubits to read out
    after the run."""
    _, held = three_nodes(0)
    parked = {held[n][-1] for n in NODES}  # known |0>: where MOVEs land
    node_of = {q: n for n in NODES for q in held[n]}
    circ = Circuit(3 * 6)
    for step in range(draw(st.integers(1, 6))):
        live = sorted(set(node_of) - parked)
        if draw(st.integers(0, 3)) == 0:
            src = draw(st.sampled_from(live))
            dst = draw(st.sampled_from(sorted(parked)))
            circ.move(src, dst, label=f"m{step}")
            parked = parked - {dst} | {src}
            continue
        node = draw(st.sampled_from(sorted({node_of[q] for q in live})))
        local = [q for q in live if node_of[q] == node]
        others = [q for q in live if node_of[q] != node]
        remote = draw(st.lists(st.sampled_from(others), unique=True,
                               max_size=min(3, len(others))))
        block = draw(st.sampled_from([None, f"s{step}"]))
        kinds = sorted(k for k, width in BODY_KINDS.items()
                       if width <= len(local))
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(kinds))
            operands = draw(st.permutations(local))[:BODY_KINDS[kind]]
            controls = [(q, draw(st.booleans()))
                        for q in remote if draw(st.booleans())]
            gate = gates.R(draw(st.integers(2, 4))) if kind == "R" \
                else getattr(gates, kind)
            circ.gate(gate, operands, controls,
                      classical_constant=draw(st.sampled_from([None, 0, 1])),
                      block=block)
    readout = draw(st.lists(st.sampled_from(sorted(node_of)), unique=True,
                            min_size=1, max_size=3))
    return circ, readout


@settings(max_examples=100, deadline=None)
@given(programs(), st.integers(0, 2**16))
def test_random_programs_match_physical_protocol(program, seed):
    circ, readout = program
    closed, _ = three_nodes(seed)
    reference, _ = three_nodes(seed)
    execute_distributed(closed, circ)
    reference_execute_distributed(reference, circ)
    assert amp_distance(closed.state, reference.state) < 1e-12
    assert ([closed.measure_local(q) for q in readout]
            == [reference.measure_local(q) for q in readout])
    assert observed(closed) == observed(reference)
