"""The network's closed-form gadgets against the physical protocol.

``execute_distributed`` does not simulate the shared-control and teleport
gadgets gate by gate: ``Network.run_session`` and ``Network.move`` post
what they bill, then ``circuit.execute`` applies what they compute.
``reference_execute_distributed`` (conftest) runs the same programs
through the physical primitives.  Every observable must agree:
transcripts, ledgers, peak live counts and the random stream exactly,
the state to 1e-12.  A walk that bills repeats from their first must
leave exactly what the flat walk leaves.
"""

import copy
import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (amp_distance, observed,
                      reference_execute_distributed, reference_move,
                      reference_round, reference_session, repeats_of,
                      round_outcome, without_repeats)
from distshor import gates, partition, shor
from distshor.circuit import Circuit, Instruction, execute
from distshor.netsim import (Network, NetworkError, NodeSpec, Topology,
                             bill, execute_distributed, session_groups)
from distshor.qstate import QuantumState, RandomSource, SimulationError


# -- whole order-finding rounds ---------------------------------------------

# N=15, a=7, m=8, seed 1 (the ``dist_run_15`` fixture), then one recorded
# (N, m, a, seed) job for each dist-factor stratum of the benchmark.
ROUNDS = [(15, 8, 7, 1), (15, 4, 11, 0), (15, 5, 2, 1), (15, 6, 7, 3)]


@pytest.mark.parametrize("N,m,a,seed", ROUNDS)
def test_order_round_matches_physical_protocol(request, N, m, a, seed):
    if (N, m, a, seed) == (15, 8, 7, 1):
        run = copy.deepcopy(request.getfixturevalue("dist_run_15"))
        walked = request.getfixturevalue("reference_round_15")
    else:
        run = shor.order_round(a, N, m, shor.DISTRIBUTED)(RandomSource(seed))
        walked = reference_round(a, N, m, seed)
    closed, reference = round_outcome(run), walked.outcome
    assert walked.programs == 1  # one program: ladder and transform
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


def over_capacity_second_share():
    net, held = network(("A", 4, 2), ("T", 5, 3))
    # T holds 2 data qubits: its first mirror fits, its second does not
    net.nodes["T"].spec = NodeSpec("T", 3, 3)
    return net, ("session", "T", [Instruction(
        gates.X, (held["T"][0],), ((held["A"][0], True),
                                   (held["A"][1], False)))])


def spanning_body():
    """A block on B whose last gate targets C only: the session posts
    its shares, then raises on that gate, as the first unit of a shape
    does in a walk (``stray_after_same_shape`` covers a tallied one)."""
    net, held = network(("A", 3, 1), ("B", 4, 2), ("C", 3, 1))
    net.apply_local("A", gates.H, [held["A"][0]])
    body = [Instruction(gates.H, (held["B"][0],), ((held["A"][0], True),),
                        block="s"),
            Instruction(gates.X, (held["B"][1],), ((held["C"][0], True),),
                        block="s"),
            Instruction(gates.X, (held["C"][1],), block="s")]
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
        node, instructions = args
        [unit] = session_groups(instructions, net.node_of)
        assert unit[0] == node
        net.run_session(unit)
    elif step == "move":
        move = Circuit(net.state.num_qubits).move(*args)
        [unit] = session_groups(move.instructions, net.node_of)
        net.move(unit)
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
    (over_capacity_second_share, r"^node T over capacity: 4 live qubits$"),
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


# -- refusals after a unit the walk only tallied -----------------------------

# ``execute_distributed`` checks the first unit of each shape and tallies
# the later ones.  The programs the random refusal test draws never hold a
# stray target, so here each program refuses after a unit whose shape the
# walk has already seen.

def stray_after_same_shape():
    """Block s1 shares from A as s0 did, then runs a gate on C: the
    protocol bills both blocks' shares and s0's disentangle bit, 2 ebits
    and 3 classical bits, then raises."""
    net, held = network(("A", 4, 2), ("B", 4, 2), ("C", 3, 1))
    circ = Circuit(net.state.num_qubits)
    circ.x(held["B"][0], controls=[(held["A"][0], True)], block="s0")
    circ.x(held["B"][1], controls=[(held["A"][1], True)], block="s1")
    circ.x(held["C"][0], block="s1")
    return net, circ


def move_to_unheld_after_same_nodes():
    """Two relocations from A to B, then a third into a slot B let go."""
    net, held = network(("A", 4, 1), ("B", 5, 1))
    net.release_data("B", held["B"][3])
    circ = Circuit(net.state.num_qubits)
    for src, dst in zip(held["A"], held["B"][1:]):
        circ.move(src, dst)
    return net, circ


def spanning_gate_after_tallied_sessions():
    """Two sessions on B sharing from A, then a SWAP across B and C.
    ``session_groups`` raises on the SWAP before it ends the group
    ahead of it, so a local gate ends s1 first."""
    net, held = network(("A", 4, 2), ("B", 4, 2), ("C", 3, 1))
    circ = Circuit(net.state.num_qubits)
    circ.x(held["B"][0], controls=[(held["A"][0], True)], block="s0")
    circ.x(held["B"][1], controls=[(held["A"][1], False)], block="s1")
    circ.x(held["B"][0])
    circ.swap(held["B"][0], held["C"][0])
    return net, circ


@pytest.mark.parametrize("build,message,ebits,cbits", [
    (stray_after_same_shape, r"^gate spans nodes: qubit \d+ is on C, not B$",
     2, 3),
    (move_to_unheld_after_same_nodes, r"^destination slot \d+ not held by B$",
     2, 4),
    (spanning_gate_after_tallied_sessions,
     r"^gate .* operands span nodes \['B', 'C'\]$", 2, 4),
])
def test_refusals_after_tallied_units_match_physical_protocol(
        build, message, ebits, cbits):
    outcomes = []
    for execute in (execute_distributed, reference_execute_distributed):
        net, circ = build()
        with pytest.raises(NetworkError, match=message) as err:
            execute(net, circ)
        outcomes.append((str(err.value), observed(net)))
    assert outcomes[0] == outcomes[1]
    ledger = outcomes[0][1]["ledger"]
    assert (ledger["ebits"], ledger["cbits_total"]) == (ebits, cbits)


# -- sessions the one-step bill must post as the protocol does ----------------

def disabled_gate_off_node():
    """A constant-0 gate in a block-tagged session whose target is on
    another node: disabled, so no locality error, yet its control is
    shared with the rest of the block's."""
    net, held = network(("A", 4, 2), ("B", 4, 2), ("C", 4, 2))
    circ = Circuit(net.state.num_qubits)
    circ.x(held["B"][0], controls=[(held["A"][0], True)], block="s")
    circ.x(held["C"][0], controls=[(held["A"][1], False)],
           classical_constant=0, block="s")
    return net, circ


def two_controls_one_node():
    """Two remote controls on one node that already holds a pair half:
    each share claims and frees a channel there in turn."""
    net, held = network(("A", 5, 3), ("B", 4, 2), ("C", 4, 2))
    net.establish_epr("A", "C")
    circ = Circuit(net.state.num_qubits)
    circ.x(held["B"][0], controls=[(held["A"][0], True),
                                   (held["A"][1], True)])
    return net, circ


@pytest.mark.parametrize("build", [disabled_gate_off_node,
                                   two_controls_one_node])
def test_sessions_match_physical_protocol(build):
    outcomes = []
    for execute in (execute_distributed, reference_execute_distributed):
        net, circ = build()
        records = execute(net, circ)
        channels = {node: sorted(rt.busy_channels)
                    for node, rt in net.nodes.items()}
        outcomes.append((observed(net), channels))
    [session], _ = records  # the reference walk's
    assert len(session.remote_controls) == 2
    assert outcomes[0] == outcomes[1]


# -- random programs ----------------------------------------------------------

NODES = ("A", "B", "C")
BODY_KINDS = {"X": 1, "CNOT": 2, "TOFFOLI": 3, "SWAP": 2, "H": 1, "R": 1}


def three_nodes(seed: int,
                kept: int = 0) -> tuple[Network, dict[str, list[int]]]:
    """Three nodes of three channel qubits and three data slots each,
    every data slot held, plus ``kept`` more held data slots on each
    node, last in its list, which ``programs`` never touches."""
    net = Network(Topology([NodeSpec(n, 6 + kept, 3) for n in NODES]),
                  RandomSource(seed))
    return net, {n: net.allocate_data(n, 3 + kept) for n in NODES}


@st.composite
def programs(draw, strays=False, kept=0):
    """A program over three nodes of three data slots each: sessions with
    0-3 remote controls of either polarity, bodies of X, CNOT, TOFFOLI,
    SWAP, H and R gates carrying the constants None, 0 or 1, and MOVEs
    within and across nodes into a |0> slot; plus 1-3 qubits to read out
    after the run.  With ``strays``, a tagged block's gate may run on
    another node instead, under a control on the block's node: the
    block's stray when no 0 constant disables it.  The program runs on
    ``three_nodes`` with ``kept`` slots kept on each node."""
    _, held = three_nodes(0, kept)
    parked = {held[n][2] for n in NODES}  # known |0>: where MOVEs land
    node_of = {q: n for n in NODES for q in held[n][:3]}
    circ = Circuit(3 * (6 + kept))
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
        for _ in range(draw(st.integers(1, 4))):
            on, controls = local, []
            if strays and block and draw(st.booleans()):
                away = draw(st.sampled_from(sorted({node_of[q]
                                                    for q in others})))
                on = [q for q in others if node_of[q] == away]
                controls = [(draw(st.sampled_from(local)),
                             draw(st.booleans()))]
            kinds = sorted(k for k, width in BODY_KINDS.items()
                           if width <= len(on))
            kind = draw(st.sampled_from(kinds))
            operands = draw(st.permutations(on))[:BODY_KINDS[kind]]
            controls += [(q, draw(st.booleans())) for q in remote
                         if q not in operands and draw(st.booleans())]
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


# -- random refusals ----------------------------------------------------------

PAIRS = [(a, b) for a in NODES for b in NODES if a != b]


@st.composite
def strains(draw):
    """What the network holds before a run: 0-4 pairs established between
    random nodes, each only while both nodes have a free channel, then each
    node's capacity cut by 0-2 below its six slots."""
    busy = dict.fromkeys(NODES, 0)
    pairs = []
    for a, b in draw(st.lists(st.sampled_from(PAIRS), max_size=4)):
        if busy[a] < 3 and busy[b] < 3:
            busy[a] += 1
            busy[b] += 1
            pairs.append((a, b))
    cuts = draw(st.tuples(*[st.integers(0, 2)] * len(NODES)))
    return pairs, cuts


def strained(seed: int, strain, kept: int = 0) -> Network:
    """``three_nodes`` holding what ``strains`` drew."""
    pairs, cuts = strain
    net, _ = three_nodes(seed, kept)
    for a, b in pairs:
        net.establish_epr(a, b)
    for node, cut in zip(NODES, cuts):
        net.nodes[node].spec = NodeSpec(node, 6 + kept - cut, 3)
    return net


@settings(max_examples=100, deadline=None)
@given(programs(), strains(), st.integers(0, 2**16))
def test_random_refusals_match_physical_protocol(program, strain, seed):
    # a refusal at any share, on the source side or the mirror side, for
    # want of a channel or of capacity, raises where the protocol raises
    # and leaves its partial bill
    circ, _ = program
    outcomes = []
    for execute in (execute_distributed, reference_execute_distributed):
        net = strained(seed, strain)
        try:
            execute(net, circ)
            error = None
        except NetworkError as exc:
            error = str(exc)
        outcomes.append((error, observed(net)))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=100, deadline=None)
@given(programs(strays=True), strains(), st.integers(0, 2**16))
def test_walks_leave_occupancy_unchanged(program, strain, seed):
    # no walk claims a slot or keeps a channel busy, refused or not: so
    # the checks a shape passed once pass again, which the tally and the
    # repeats rely on
    circ, _ = program
    net = strained(seed, strain)
    before = {node: (set(rt.allocated), set(rt.busy_channels))
              for node, rt in net.nodes.items()}
    try:
        execute_distributed(net, circ)
    except (NetworkError, SimulationError):
        pass
    assert before == {node: (rt.allocated, rt.busy_channels)
                      for node, rt in net.nodes.items()}


# -- the facts ``session_groups`` finds for each unit ------------------------

def naive_facts(node, insts, is_move, node_of):
    """A unit's remote controls, their nodes and its first stray (a gate
    off its node, enabled or not), derived from its own instructions one
    at a time."""
    if is_move:
        src, dst = insts[0].targets
        remote = [src] if node_of(src) != node_of(dst) else []
        return tuple(remote), tuple(map(node_of, remote)), None
    remote = []
    for inst in insts:
        for q, _pol in inst.controls:
            if node_of(q) != node and q not in remote:
                remote.append(q)
    strays = [inst for inst in insts
              if any(node_of(q) != node for q in inst.targets)]
    return (tuple(remote), tuple(map(node_of, remote)),
            strays[0] if strays else None)


@settings(max_examples=100, deadline=None)
@given(programs(strays=True))
def test_unit_facts_match_a_naive_derivation(program):
    circ, _ = program
    net, _ = three_nodes(0)
    units = list(session_groups(circ.instructions, net.node_of))
    assert [inst for unit in units for inst in unit[1]] == circ.instructions
    for node, insts, *facts, is_move in units:
        assert is_move == (insts[0].kind.name == "MOVE")
        assert node == net.node_of(insts[0].targets[-1 if is_move else 0])
        assert tuple(facts) == naive_facts(node, insts, is_move, net.node_of)


def test_block_facts_are_taken_on_its_first_gates_node():
    """A block on B whose later gate runs on C under a control on B and
    one on C: the C control is remote and the B one is not, as on B, and
    that gate is the block's stray."""
    net, held = network(("A", 3, 1), ("B", 4, 2), ("C", 4, 2))
    circ = Circuit(net.state.num_qubits)
    circ.x(held["B"][0], controls=[(held["A"][0], True)], block="s")
    circ.x(held["C"][0], controls=[(held["B"][1], True),
                                   (held["C"][1], False)], block="s")
    [(node, insts, *facts, is_move)] = session_groups(circ.instructions,
                                                     net.node_of)
    assert (node, is_move) == ("B", False)
    assert tuple(facts) == ((held["A"][0], held["C"][1]), ("A", "C"),
                            circ.instructions[1])
    assert tuple(facts) == naive_facts(node, insts, is_move, net.node_of)


# -- repeats billed from their first -----------------------------------------

@st.composite
def rounds(draw, moduli=(15, 21, 33, 35, 39), max_m=12):
    """An order-finding round (N, a, m)."""
    N = draw(st.sampled_from(moduli))
    a = draw(st.sampled_from([a for a in range(2, N)
                              if math.gcd(a, N) == 1]))
    return N, a, draw(st.integers(1, max_m))


def order_program(N, a, m):
    plan = partition.plan_placement(N.bit_length(), m)
    return plan, partition.build_distributed_order_program(a, N, plan)


@settings(max_examples=20, deadline=None)
@given(rounds())
@example((21, 2, 10))
@example((33, 5, 12))
def test_ladder_repeats_hold_their_firsts_units(case):
    """The builder's contract the bill relies on: each repeat groups
    into its first's units, but for the node its control shares from,
    every piece ends on a unit boundary of the whole program, and no
    gate of the program lies off its unit's node."""
    N, a, m = case
    plan, program = order_program(N, a, m)
    node_of = plan.node_of_qubit.__getitem__
    repeats = repeats_of(program)
    assert len(repeats) == m - 1
    parts = [piece if type(piece) is list else piece.spell()
             for piece in program.pieces]
    units = list(session_groups(
        [inst for part in parts for inst in part], node_of))
    bounds = {0, *itertools.accumulate(len(unit[1]) for unit in units)}
    assert set(itertools.accumulate(map(len, parts))) <= bounds
    for node, group, *_, is_move in units:
        if not is_move:
            assert {node_of(q) for inst in group for q in inst.targets} \
                == {node}

    def facts(insts, k):
        """Each unit's facts, k's source node left out."""
        return [(node, tuple("k" if q == k else src
                             for q, src in zip(remote, sources)),
                 is_move, group[0].targets if is_move else 0)
                for node, group, remote, sources, _, is_move
                in session_groups(insts, node_of)]

    for rep in repeats:
        assert facts(rep.spell(), rep.control) == \
            facts(rep.first, plan.layout.k[0])


@settings(max_examples=10, deadline=None)
@given(rounds())
@example((15, 7, 2))
@example((21, 2, 10))
@example((33, 5, 12))
@example((77, 2, 14))
def test_repeats_group_as_their_first_with_base_moved(case):
    """The rename the bill relies on: walking a repeat's first with
    ``base`` placed on ``control``'s node yields the spelled repeat's
    units, node, size, source nodes, stray and MOVE flag alike, with
    ``base`` in place of ``control`` among the remote controls."""
    N, a, m = case
    plan, program = order_program(N, a, m)
    node_of = plan.node_of_qubit.__getitem__

    def units(insts, where, rename=None):
        return [(node, len(group),
                 tuple(rename.get(q, q) for q in remote) if rename
                 else remote, sources,
                 None if stray is None else group.index(stray), is_move)
                for node, group, remote, sources, stray, is_move
                in session_groups(insts, where)]

    for rep in repeats_of(program):
        assert rep.base == plan.layout.k[0]
        moved = {**plan.node_of_qubit, rep.base: node_of(rep.control)}
        assert units(rep.first, moved.__getitem__) == \
            units(rep.spell(), node_of, {rep.control: rep.base})


def mode_programs(N, a, m):
    """The order-finding program of each mode, with its estimation
    qubits."""
    modexp, transform, layout = shor.order_circuit_parts(a, N, m)
    plan, program = order_program(N, a, m)
    return {"monolithic": (modexp.extend(transform), layout.k),
            "distributed": (program, plan.layout.k)}


@settings(max_examples=10, deadline=None)
@given(rounds())
@example((21, 2, 10))
@example((33, 5, 12))
def test_ladder_repeats_swap_only_their_control(case):
    """The builder's contract the state kernel relies on, in both modes:
    multiplier i >= 1 is a repeat of multiplier 0, and gate p of it is
    gate p of multiplier 0 in kind, targets and every control but the
    last, which is (k_i, True); MOVEs are identical but for their
    labels."""
    N, a, m = case
    for program, k in mode_programs(N, a, m).values():
        # preparation, the m multipliers and the transform, a piece each
        assert len(program.pieces) == m + 2
        first, *repeats = program.pieces[1:-1]
        assert repeats == repeats_of(program)
        for i, rep in enumerate(repeats, 1):
            assert rep.first is first
            assert (rep.base, rep.control) == (k[0], k[i])
            spelled = rep.spell()
            assert spelled[0].label.startswith(f"cm/M[{i}]/")
            for g, h in zip(first, spelled):
                if g.kind.name == "MOVE":
                    assert h._replace(label=g.label) == g
                    continue
                assert (h.kind, h.targets, h.controls[:-1]) == \
                    (g.kind, g.targets, g.controls[:-1])
                assert (g.controls[-1], h.controls[-1]) == \
                    ((k[0], True), (k[i], True))


@settings(max_examples=8, deadline=None)
@given(rounds(moduli=(15, 21, 33), max_m=10))
@example((15, 7, 8))
@example((21, 2, 10))
def test_repeats_run_as_the_flat_kernel(case):
    """A ladder run from its firsts' plans leaves the state of the flat
    kernel, in both modes: keys, values, entry order and peak support."""
    for program, _k in mode_programs(*case).values():
        outcomes = []
        for circ in (program, without_repeats(program)):
            state = QuantumState(circ.num_qubits)
            execute(circ, state)
            outcomes.append((list(state.amplitudes.items()),
                             state.peak_support))
        assert outcomes[0] == outcomes[1]


@settings(max_examples=6, deadline=None)
@given(rounds(), st.integers(0, 2**16))
@example((21, 2, 10), 3)
@example((33, 5, 12), 2)
def test_repeats_bill_as_the_flat_walk(case, seed):
    N, a, m = case
    plan, program = order_program(N, a, m)
    outcomes = []
    for circ in (program, without_repeats(program)):
        net = partition.build_network(plan, RandomSource(seed))
        execute_distributed(net, circ)
        outcomes.append((observed(net), list(net.state.amplitudes.items())))
    assert outcomes[0] == outcomes[1]


def billed(net, circ):
    """Bill ``circ`` on ``net`` from its repeats, then run the state
    flat: the hand-made repeats below meet the bill's contract, not the
    kernel's."""
    bill(net, circ)
    execute(without_repeats(circ), net.state)


def walk(net, circ):
    """Run ``circ`` on ``net`` (``billed``): the refusal's type and
    message, or None, and what the network left behind, its state
    included."""
    try:
        billed(net, circ)
        error = None
    except (NetworkError, SimulationError) as exc:
        error = (type(exc), str(exc))
    return error, observed(net), list(net.state.amplitudes.items())


KEPT = 2  # slots kept on each node for the controls of repeated programs


@st.composite
def repeated_programs(draw):
    """[prefix][S][S'...][tail] on ``three_nodes`` with ``KEPT`` slots
    kept: each S' a repeat of S (``Circuit.repeat``), with constants
    drawn again and blocks renamed, as a ladder's multipliers differ.
    Every gate of S ends with a control on one kept slot, its base, and
    each S' keeps it (control equal to base), or reads another kept slot
    on its node or one on another node in its place, as a ladder's
    multipliers read k_i on either estimation node.  The prefix is two
    list pieces, cut at a drawn place, which the flat walk may group
    across."""
    prefix, body, tail = (draw(programs(strays=True, kept=KEPT))[0]
                          for _ in range(3))
    kept = {n: held[3:] for n, held in three_nodes(0, KEPT)[1].items()}
    node = draw(st.sampled_from(NODES))
    control, same = draw(st.permutations(kept[node]))
    circ = Circuit(prefix.num_qubits)

    def put(insts, tag):
        part = Circuit(circ.num_qubits)
        for inst in insts:
            part.append(inst._replace(block=inst.block
                                      and f"{tag}/{inst.block}"))
        piece = part.instructions
        circ.extend(part)
        return piece

    cut = draw(st.integers(0, len(prefix)))
    put(prefix.instructions[:cut], "p")
    put(prefix.instructions[cut:], "p")
    first = put([inst if inst.kind.name == "MOVE" else inst._replace(
        controls=(*inst.controls, (control, draw(st.booleans()))))
        for inst in body.instructions], "s")
    elsewhere = [q for n in NODES if n != node for q in kept[n]]
    for i in range(draw(st.integers(1, 3))):
        circ.repeat(first, control, draw(st.one_of(
            st.just(control), st.just(same), st.sampled_from(elsewhere))), [
            draw(st.sampled_from([None, 0, 1])) if inst.kind.name != "MOVE"
            else inst.classical_constant for inst in first],
            ("s/", f"s{i}/"))
    put(tail.instructions, "t")
    return circ


@settings(max_examples=100, deadline=None)
@given(repeated_programs(), strains(), st.integers(0, 2**16))
def test_random_repeats_bill_as_the_flat_walk(circ, strain, seed):
    """The bill's record per first and control node against the flat
    walk: refused or not, strays or not, in a first, a repeat or the
    tail, with each repeat's control on its first's node or another."""
    bounds = {0, *itertools.accumulate(
        len(unit[1]) for unit in session_groups(
            circ.instructions, three_nodes(0, KEPT)[0].node_of))}
    ends = list(itertools.accumulate(
        len(piece) if type(piece) is list else len(piece.constants)
        for piece in circ.pieces))
    # every piece but the prefix's first ends on a unit boundary, as the
    # builder's pieces do
    assume(set(ends[1:]) <= bounds)
    assert (walk(strained(seed, strain, KEPT), circ)
            == walk(strained(seed, strain, KEPT), without_repeats(circ)))


def shares_and_round_trips(net, held, constants, tag):
    """A session on B under a control on A, then a relocation from B to
    A and back: two teleports."""
    circ = Circuit(net.state.num_qubits)
    for i, constant in enumerate(constants):
        circ.x(held["B"][i % 2], controls=[(held["A"][i % 2], True)],
               classical_constant=constant, block=f"{tag}@s")
    circ.move(held["B"][2], held["A"][2], label=f"{tag}/go")
    circ.move(held["A"][2], held["B"][2], label=f"{tag}/back")
    return circ.instructions


def stacked(net, held, parts):
    """One program of ``parts``, (instructions, index of its first or
    None), one piece each: a part with a first is a repeat of it
    (``Circuit.repeat``) that keeps its controls (its base, the first
    control of its first gate, is its control), with the part's
    constants and tag."""
    circ = Circuit(net.state.num_qubits)
    for insts, of in parts:
        if of is None:
            part = Circuit(circ.num_qubits)
            for inst in insts:
                part.append(inst)
            circ.extend(part)
            continue
        first = circ.pieces[of]
        rename = tuple(tagged[0].block.partition("@")[0]
                       for tagged in (first, insts))
        base = first[0].controls[0][0]
        circ.repeat(first, base, base,
                    [inst.classical_constant for inst in insts], rename)
        assert circ.pieces[-1].spell() == insts
    return circ


def test_repeats_post_the_protocols_teleports():
    # the tallied relocations of a repeat owe their teleports: a tally
    # that left them out would fall short of the gate-by-gate protocol
    outcomes = []
    for how in ("repeats", "flat", "reference"):
        net, held = three_nodes(5)
        circ = stacked(net, held, [
            (shares_and_round_trips(net, held, (1, 0, None), "S"), None),
            (shares_and_round_trips(net, held, (0, 1, 1), "S1"), 0),
            (shares_and_round_trips(net, held, (None, None, 0), "S2"), 0)])
        if how == "reference":
            reference_execute_distributed(net, circ)
        else:
            billed(net, circ if how == "repeats" else without_repeats(circ))
        outcomes.append(observed(net))
    assert outcomes[0]["ledger"]["teleports"] == 6
    assert outcomes[0] == outcomes[1] == outcomes[2]


def from_node(net, held, node, tag):
    """A session on B under a control on ``node``."""
    return Circuit(net.state.num_qubits).x(
        held["B"][0], controls=[(held[node][0], True)],
        block=f"{tag}@s").instructions


@pytest.mark.parametrize("refusal,message", [
    ("channel", r"^no free channel qubit on C$"),
    ("capacity", r"^node C over capacity: 4 live qubits$")])
@pytest.mark.parametrize("where", ["later first", "tail"])
def test_refusal_after_repeats_matches_the_flat_walk(refusal, message,
                                                     where):
    """Two repeats of a first, then a share from C that C refuses: in a
    later first with repeats of its own, or in the tail.  The refusal
    leaves the flat walk's message and partial bill, the repeats'
    shares and teleports included."""
    outcomes = []
    for flat in (False, True):
        net, held = three_nodes(9)
        rt = net.nodes["C"]
        if refusal == "channel":
            rt.busy_channels.update(rt.channel_slots)
        else:
            rt.spec = NodeSpec("C", 3, 3)
        parts = [(shares_and_round_trips(net, held, (1, 0), "S"), None),
                 (shares_and_round_trips(net, held, (0, 1), "S1"), 0),
                 (shares_and_round_trips(net, held, (1, 1), "S2"), 0),
                 (from_node(net, held, "C", "T"), None)]
        if where == "later first":
            parts.append((from_node(net, held, "C", "T1"), 3))
        parts.append((from_node(net, held, "A", "U"), None))
        circ = stacked(net, held, parts)
        with pytest.raises(NetworkError, match=message):
            billed(net, without_repeats(circ) if flat else circ)
        outcomes.append(observed(net))
    assert outcomes[0] == outcomes[1]
    # each of the three parts shares two controls and teleports twice
    assert outcomes[0]["ledger"]["ebits"] == 3 * 4
    assert outcomes[0]["ledger"]["teleports"] == 3 * 2


def test_stray_a_repeat_enables_raises_as_the_flat_walk():
    """A block on B whose gate on C is disabled in the first and enabled
    in its repeat: the repeat is walked, and raises the flat walk's
    stray error after the same shares."""
    outcomes = []
    for flat in (False, True):
        net, held = three_nodes(4)
        parts = []
        for tag, constant in (("S", 0), ("S1", 1)):
            circ = Circuit(net.state.num_qubits)
            circ.x(held["B"][0], controls=[(held["A"][0], True)],
                   block=f"{tag}@s")
            circ.x(held["C"][0], controls=[(held["B"][1], True)],
                   classical_constant=constant, block=f"{tag}@s")
            parts.append((circ.instructions, 0 if parts else None))
        circ = stacked(net, held, parts)
        with pytest.raises(NetworkError,
                           match=r"^gate spans nodes: qubit \d+ is on C, "
                                 r"not B$"):
            billed(net, without_repeats(circ) if flat else circ)
        outcomes.append(observed(net))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0]["ledger"]["ebits"] == 2
