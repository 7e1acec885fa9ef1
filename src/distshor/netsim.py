"""Distributed machine model: nodes, channels, shared-control protocols.

A network of small machines holds one global sparse state.  Locality is
enforced by an ownership map: any gate whose operand qubits span two nodes
is a hard error.  The only cross-node state changes are

* pair establishment: two channel qubits are driven into a Bell state,
  modeling one physical qubit exchange, and
* classical messages: measurement bits accounted per direction.

On top of the pair the two half-protocols work (Eisert et al., "Optimal
local implementation of non-local quantum gates", PRA 62, 052317, 2000):

* entangle: CNOT from the control onto the local pair half, measure it,
  send the bit, conditionally X the remote half.  The control and the
  remote half now form a shared-control state a|00> + b|11>; the measured
  channel qubit is reset and immediately reusable.
* disentangle: H and measure the remote half, send the bit back,
  conditionally Z the control.  The control is restored exactly.

Everything else (remote CNOT, remotely controlled blocks, teleportation)
is a composition of these two and is billed exactly one pair and two
classical bits per shared control qubit.  A remote CNOT is the one-gate
program ``x(t, controls=[(c, True)])``; ``execute_distributed`` runs it,
like any remotely controlled block, as one session.

``establish_epr``, ``cat_entangle``, ``cat_disentangle`` and ``teleport``
carry out these steps on the state, gate by gate: they are the reference.
A program run on the network (``execute_distributed``) uses the gadgets'
closed form instead.  Every protocol measurement is a fair coin whose
outcome the fix-ups undo, and the mirror equals its control on every
support entry, so a session applies its body on the original controls
and a teleport into a |0> slot is a SWAP: the program changes the state
as ``circuit.execute`` does.  The run posts the program's bill first.
One pass (``session_groups``) splits the program into units, sessions
and relocations, and finds each unit's facts: its node, its remote
controls and their nodes, and its stray (its first gate off its node).
The bill (``run_session``, ``move``) and the census read these facts and
walk no gates.  The first unit of each shape (its node and the nodes it
shares from, in order) makes the protocol's checks in the protocol's
order; later ones are only tallied, and the tally is posted once, its
discarded coins in one ``RandomSource.skip``.  A round walks its first
multiplier, a list piece of its program, once for each estimation node:
under the placement, and with k_0 moved to the other node; every later
multiplier, a repeat that reads k_i where that list reads k_0, is billed
as the units of the walk for its control's node (``bill``), and none is
spelled.  A refusal raises at the protocol's
share, with the protocol's partial bill.  Then one ``circuit.execute``
runs the state; its kernel refuses a MOVE into a slot that is not |0>.
The state agrees with the reference up to floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, groupby
from typing import Callable, Iterable, Iterator, Sequence

from . import gates
from .circuit import Circuit, Instruction, execute
from .qstate import Control, QuantumState, RandomSource

_PURE_TOL = 1e-9

MAX_REMOTE_CONTROLS = 3  # shared by one session at once, a channel each


class NetworkError(Exception):
    """Protocol misuse: locality violations, exhausted channels, capacity."""


@dataclass(frozen=True)
class NodeSpec:
    """A machine with ``register_capacity`` total qubits, of which
    ``channel_qubits`` are reserved for pair halves."""

    node_id: str
    register_capacity: int
    channel_qubits: int

    def __post_init__(self):
        if self.register_capacity < 1:
            raise ValueError("capacity must be positive")
        if not 0 <= self.channel_qubits <= self.register_capacity:
            raise ValueError("channel qubits exceed capacity")


@dataclass
class Topology:
    """Node roster; every pair of nodes shares a quantum and a classical
    link."""

    nodes: list[NodeSpec]

    def __post_init__(self):
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")

    def slot_ids(self) -> Iterator[tuple[NodeSpec, range, range]]:
        """The global qubit ids of each node as (spec, data slots, channel
        slots): node by node in roster order, data slots before channel
        slots."""
        first = 0
        for spec in self.nodes:
            end = first + spec.register_capacity
            channels = end - spec.channel_qubits
            yield spec, range(first, channels), range(channels, end)
            first = end


@dataclass
class ResourceLedger:
    """Monotonic communication counters."""

    ebits_consumed: int = 0
    cbits_sent: dict[tuple[str, str], int] = field(default_factory=dict)
    teleports: int = 0
    pairs_established: int = 0

    def send_cbit(self, src: str, dst: str):
        key = (src, dst)
        self.cbits_sent[key] = self.cbits_sent.get(key, 0) + 1

    def total_cbits(self) -> int:
        return sum(self.cbits_sent.values())

    def coins(self) -> int:
        """The fair coins drawn for this bill: per pair, its entangle
        measurement and a disentangle or X-basis measurement.  Nothing
        reads them, so a walk's tally and a replayed round draw theirs in
        one ``RandomSource.skip``."""
        return 2 * self.pairs_established

    def merge(self, other: "ResourceLedger"):
        self.ebits_consumed += other.ebits_consumed
        for key, count in other.cbits_sent.items():
            self.cbits_sent[key] = self.cbits_sent.get(key, 0) + count
        self.teleports += other.teleports
        self.pairs_established += other.pairs_established

    def as_dict(self) -> dict:
        return {
            "ebits": self.ebits_consumed,
            "cbits": {f"{a}->{b}": n
                      for (a, b), n in sorted(self.cbits_sent.items())},
            "cbits_total": self.total_cbits(),
            "teleports": self.teleports,
            # physical qubits sent: one per pair established
            "qubit_transmissions": self.pairs_established,
            "pairs_established": self.pairs_established,
        }


@dataclass
class EprPair:
    qubit_a: int
    qubit_b: int
    node_a: str
    node_b: str
    consumed: bool = False


@dataclass
class CatState:
    """A control qubit shared with a mirror on another node."""

    control: int
    mirror: int
    node_control: str
    node_mirror: str
    live: bool = True


# A unit of a program as ``session_groups`` yields it: (node, instructions,
# remote controls, their source nodes, stray: its first gate off its node,
# is_move).  A plain tuple: the census walks thousands of units, and a
# NamedTuple's constructor costs several times what building the tuple
# does.
Unit = tuple[str, list[Instruction], tuple[int, ...], tuple[str, ...],
             Instruction | None, bool]


class _NodeRuntime:
    def __init__(self, spec: NodeSpec, data_slots: range,
                 channel_slots: range):
        self.spec = spec
        self.data_slots = data_slots
        self.channel_slots = channel_slots
        self.allocated: set[int] = set()
        self.busy_channels: set[int] = set()


class Network:
    """Global state plus per-node bookkeeping and the protocol suite.

    Protocol steps are serialized: messages arrive instantly and in order,
    and the ledger rather than latency is the cost model.  All protocol
    measurements draw from the one seeded source, so runs replay exactly.
    """

    def __init__(self, topology: Topology, rng: RandomSource):
        self.topology = topology
        self.rng = rng
        self.ledger = ResourceLedger()
        self.nodes: dict[str, _NodeRuntime] = {}
        self.owner: dict[int, str] = {}
        for spec, data, channels in topology.slot_ids():
            self.nodes[spec.node_id] = _NodeRuntime(spec, data, channels)
            for q in (*data, *channels):
                self.owner[q] = spec.node_id
        self.state = QuantumState(max(1, len(self.owner)))
        self.max_live: dict[str, int] = {n: 0 for n in self.nodes}
        # during a ``bill`` walk: each shape met so far ->
        # its units billed but not yet posted
        self._tally: dict[tuple, int] | None = None

    # -- allocation ------------------------------------------------------

    def allocate_data(self, node_id: str, count: int) -> list[int]:
        """Claim ``count`` free data slots on a node."""
        rt = self._node(node_id)
        free = [q for q in rt.data_slots if q not in rt.allocated]
        if len(free) < count:
            raise NetworkError(f"node {node_id} has no free register slot")
        self._track(node_id, count)
        taken = free[:count]
        rt.allocated.update(taken)
        return taken

    def release_data(self, node_id: str, qubit: int):
        self._node(node_id).allocated.discard(qubit)

    def node_of(self, qubit: int) -> str:
        try:
            return self.owner[qubit]
        except KeyError:
            raise NetworkError(f"qubit {qubit} belongs to no node") from None

    # -- local gate application -----------------------------------------

    def apply_local(self, node_id: str, kind, targets: Sequence[int],
                    controls: Iterable[Control] = ()):
        """Apply a gate whose every qubit lives on ``node_id``."""
        self._check_local(node_id, (*targets, *(q for q, _ in controls)))
        self.state.apply_gate(kind, targets, controls)

    def measure_local(self, qubit: int) -> int:
        return self.state.measure(qubit, self.rng)

    # -- pair establishment and the channel pool -------------------------

    def establish_epr(self, node_a: str, node_b: str) -> EprPair:
        """Drive one free channel qubit on each node into a Bell pair.

        Costs one physical qubit transmission; both channel qubits stay
        busy until the pair is consumed.
        """
        pair = self._claim_pair(node_a, node_b)
        # local H then an exchange-mediated CNOT; this is the one place a
        # cross-node interaction is allowed, and _claim_pair bills it
        self.state.apply_gate(gates.H, [pair.qubit_a])
        self.state.apply_gate(gates.X, [pair.qubit_b],
                              [(pair.qubit_a, True)])
        return pair

    # -- shared-control protocols ----------------------------------------

    def cat_entangle(self, control: int, pair: EprPair) -> CatState:
        """Share ``control`` with the pair's remote node.

        One local measurement, one classical bit toward the mirror, one
        pair consumed.  The local pair half is reset and freed here.
        """
        if pair.consumed:
            raise NetworkError("pair already consumed")
        node_c = self.node_of(control)
        if node_c != pair.node_a:
            raise NetworkError("control is not on the pair's first node")
        self.apply_local(node_c, gates.X, [pair.qubit_a],
                         [(control, True)])
        if self.measure_local(pair.qubit_a):
            self.apply_local(pair.node_b, gates.X, [pair.qubit_b])
            # reset the measured channel qubit with the same bit
            self.apply_local(pair.node_a, gates.X, [pair.qubit_a])
        return self._spend_pair(control, pair)

    def cat_disentangle(self, cat: CatState):
        """Collapse the mirror and restore the control qubit exactly.

        One measurement on the mirror node, one classical bit back, a
        conditional Z on the control; the mirror channel qubit is freed.
        """
        if not cat.live:
            raise NetworkError("shared control already released")
        self._end_in_x_basis(cat.mirror, cat.node_mirror, cat.control,
                             cat.node_control)
        self._release_mirror(cat, cat.node_mirror, cat.node_control)

    def run_session(self, unit: Unit) -> tuple[int, ...] | None:
        """Bill a session: a block of gates on one node, sharing each of
        its remote controls (at most ``MAX_REMOTE_CONTROLS``) once, one
        pair and two classical bits each, however many gates use it;
        returns the shared controls, or None.

        Closed form of entangle, body on the mirrors, disentangle, posted
        in the protocol's order: the k shares (``_open_shares``), then
        the k disentangle bits back and their coins.  An enabled gate off
        the session's node raises after the shares, as the protocol
        would; the enabled gates' state changes are left to
        ``circuit.execute``.  Within a ``bill`` walk, a
        session of a shape an earlier one passed with is only tallied
        (``_tallied``), unless it holds a stray.
        """
        node_id, instructions, remote, sources, stray, _ = unit
        if len(remote) > MAX_REMOTE_CONTROLS:
            raise NetworkError(f"session needs {len(remote)} remote "
                               f"controls (max {MAX_REMOTE_CONTROLS})")
        if stray is not None or not self._tallied(unit):
            self._open_shares(sources, node_id)
            if stray is not None:
                self._check_local(node_id, (
                    q for inst in instructions if inst.classical_constant != 0
                    for q in inst.targets))
            cbits = self.ledger.cbits_sent
            draw = self.rng.uniform
            for src in reversed(sources):
                draw()  # the disentangle measurement: a fair coin
                key = (node_id, src)
                cbits[key] = cbits.get(key, 0) + 1
        return remote or None

    def teleport(self, qubit: int, dest_node: str,
                 dest_slot: int | None = None) -> int:
        """Move a qubit state to another node.

        Entangle the qubit with a fresh pair, measure it out in the X
        basis, fix up the remote half (two classical bits forward), then
        swap the state from the channel into the destination register
        slot, a newly allocated one when ``dest_slot`` is None.  The
        source slot ends in |0>.
        """
        src_node = self.node_of(qubit)
        if src_node == dest_node:
            raise NetworkError("teleport needs two distinct nodes")
        claimed = dest_slot is None
        if claimed:
            dest_slot = self.allocate_data(dest_node, 1)[0]
            self.release_data(src_node, qubit)
        try:
            self._check_held(dest_node, dest_slot)
            if self.state.prob_one(dest_slot) > _PURE_TOL:
                raise NetworkError(f"destination slot {dest_slot} is not "
                                   f"|0>")
            pair = self.establish_epr(src_node, dest_node)
        except NetworkError:
            if claimed:  # nothing has moved: hand both slots back
                self.release_data(dest_node, dest_slot)
                self.nodes[src_node].allocated.add(qubit)
            raise
        cat = self.cat_entangle(qubit, pair)
        # transfer instead of restore: measure the source in the X basis
        self._end_in_x_basis(qubit, src_node, cat.mirror, dest_node)
        self._release_mirror(cat, src_node, dest_node)
        # park the state in the register
        self.apply_local(dest_node, gates.SWAP, [cat.mirror, dest_slot])
        self.ledger.teleports += 1
        return dest_slot

    def move(self, unit: Unit):
        """Bill a relocation into a |0> slot: nothing within one node, a
        teleport from the unit's one source node.

        Closed form of the teleport, billed as ``teleport`` bills it: one
        share (``_open_shares``), then the source's X-basis bit forward,
        a fair coin for each of the two measurements; the swap and its
        |0> check are left to ``circuit.execute``.  Within a walk, one
        between two nodes an earlier one passed between is only tallied
        (``_tallied``) once its destination slot is checked.
        """
        dst_node, (inst,), _, sources, _, _ = unit
        if sources:
            self._check_held(dst_node, inst.targets[1])
            if not self._tallied(unit):
                self._open_shares(sources, dst_node)
                self.rng.uniform()  # the source's X-basis measurement
                self.ledger.send_cbit(sources[0], dst_node)
                self.ledger.teleports += 1

    def _open_shares(self, sources: Sequence[str], node_id: str):
        """Bill ``establish_epr`` then ``cat_entangle`` from each node of
        ``sources`` to ``node_id``, in order: the closed form of sharing
        a control from each of them.

        A share frees its source's channel half at once, while
        ``node_id`` keeps each mirror until the caller ends the shares.
        So share i checks its pair as ``_claim_pair`` does, with the i
        mirrors before it counted on ``node_id`` (``_admit_pair``), and
        only then posts its pair, ebit, entangle bit and coin.  A refusal
        raises at the share the protocol refuses, after the protocol's
        partial bill.  No channel is marked busy: the callers end every
        share before anything else runs.
        """
        ledger = self.ledger
        for held, src in enumerate(sources):
            self._admit_pair(src, node_id, held)
            ledger.pairs_established += 1
            ledger.ebits_consumed += 1
            ledger.send_cbit(src, node_id)
            self.rng.uniform()  # the entangle measurement

    def _tallied(self, unit: Unit) -> bool:
        """Tally ``unit`` if an earlier unit of the walk had its shape
        (its source nodes, its node, and whether it is a teleport); else
        note the shape and leave the unit to post itself.

        The first unit checked the shape's shares against channels and
        capacities no unit of the walk changes, so a later unit's checks
        would pass and raise no peak live count: it only owes its bill,
        which ``_post_tally`` posts.  Outside a walk nothing is tallied.
        """
        tally = self._tally
        if tally is None:
            return False
        node_id, _, _, sources, _, is_move = unit
        shape = (sources, node_id, is_move)
        if shape in tally:
            tally[shape] += 1
            return True
        tally[shape] = 0
        return False

    def _post_tally(self):
        """End a walk: post the bill of every tallied unit, per source a
        pair, an ebit, its entangle bit and its closing bit (back from a
        session's node, onward for a teleport), a teleport's count, and
        draw its coins."""
        bill = ResourceLedger()
        cbits = bill.cbits_sent
        for (sources, node_id, teleport), count in self._tally.items():
            if not count:  # a first unit, posted already
                continue
            if teleport:
                bill.teleports += count
            for src in sources:
                bill.pairs_established += count
                bill.ebits_consumed += count
                closing = (src, node_id) if teleport else (node_id, src)
                for key in ((src, node_id), closing):
                    cbits[key] = cbits.get(key, 0) + count
        self._tally = None
        self.ledger.merge(bill)
        self.rng.skip(bill.coins())

    # -- protocol bookkeeping: the reference steps and the closed form ---

    def _admit_pair(self, node_a: str, node_b: str,
                    held: int = 0) -> tuple[int, int]:
        """The channel qubits a new pair takes on each node, once both
        have a free channel and room under their capacity; ``node_b``
        also holds ``held`` unmarked pair halves of the closed form."""
        if node_a == node_b:
            raise NetworkError("a pair needs two distinct nodes")
        qa = self._free_channel(node_a)
        qb = self._free_channel(node_b, held)
        self._track(node_a, 1)
        self._track(node_b, held + 1)
        return qa, qb

    def _claim_pair(self, node_a: str, node_b: str) -> EprPair:
        """Claim a free channel qubit on each node for a new pair and
        bill one qubit transmission."""
        qa, qb = self._admit_pair(node_a, node_b)
        self.nodes[node_a].busy_channels.add(qa)
        self.nodes[node_b].busy_channels.add(qb)
        self.ledger.pairs_established += 1
        return EprPair(qa, qb, node_a, node_b)

    def _spend_pair(self, control: int, pair: EprPair) -> CatState:
        """Bill an entangle: its bit toward the mirror and one ebit; the
        local pair half goes back to the channel pool."""
        self.ledger.send_cbit(pair.node_a, pair.node_b)
        self.ledger.ebits_consumed += 1
        pair.consumed = True
        self.nodes[pair.node_a].busy_channels.discard(pair.qubit_a)
        return CatState(control, pair.qubit_b, pair.node_a, pair.node_b)

    def _release_mirror(self, cat: CatState, src_node: str, dst_node: str):
        """Bill the end of a shared control: the X-basis bit from
        ``src_node`` to ``dst_node``; the mirror goes back to the channel
        pool."""
        self.ledger.send_cbit(src_node, dst_node)
        cat.live = False
        self.nodes[cat.node_mirror].busy_channels.discard(cat.mirror)

    def _check_held(self, node_id: str, slot: int):
        """A relocation lands in a register slot that ``node_id`` holds."""
        if slot not in self._node(node_id).allocated:
            raise NetworkError(f"destination slot {slot} not held "
                               f"by {node_id}")

    # -- helpers ----------------------------------------------------------

    def _node(self, node_id: str) -> _NodeRuntime:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id}") from None

    def _check_local(self, node_id: str, qubits: Iterable[int]):
        for q in qubits:
            if self.node_of(q) != node_id:
                raise NetworkError(
                    f"gate spans nodes: qubit {q} is on {self.node_of(q)}, "
                    f"not {node_id}")

    def _free_channel(self, node_id: str, held: int = 0) -> int:
        """The first free channel qubit on a node past ``held`` free ones."""
        rt = self._node(node_id)
        for q in rt.channel_slots:
            if q not in rt.busy_channels:
                if not held:
                    return q
                held -= 1
        raise NetworkError(f"no free channel qubit on {node_id}")

    def _end_in_x_basis(self, qubit: int, node_id: str, partner: int,
                        partner_node: str):
        """End one side of a shared pair in the X basis: H and measure
        ``qubit``, Z the partner and reset ``qubit`` when it read 1.  The
        caller bills the bit sent to the partner's node."""
        self.apply_local(node_id, gates.H, [qubit])
        if self.measure_local(qubit):
            self.apply_local(partner_node, gates.Z, [partner])
            self.apply_local(node_id, gates.X, [qubit])

    def _track(self, node_id: str, pending: int):
        """Check that a known node has room for ``pending`` more live
        qubits, and raise its peak live count to include them."""
        rt = self.nodes[node_id]
        live = len(rt.allocated) + len(rt.busy_channels) + pending
        if live > rt.spec.register_capacity:
            raise NetworkError(
                f"node {node_id} over capacity: {live} live qubits")
        if live > self.max_live[node_id]:
            self.max_live[node_id] = live


def session_groups(instructions: Sequence[Instruction],
                   node_of: Callable[[int], str]) -> Iterator[Unit]:
    """Split a program into the units the network runs, in order, and
    find each unit's facts (``Unit``) in the same pass.

    A MOVE comes alone, on its destination's node, with one source when
    it crosses nodes.  Gates come in runs, on the node of the run's first
    gate: one session, so every remote control is shared once for the
    whole run.  A run is the gates tagged with one ``block``; an untagged
    run is the gates on one node with one set of remote controls.  Gate
    operands spanning two nodes raise ``NetworkError``.
    """
    group: list[Instruction] = []  # the open run; the rest is set as it opens
    for inst in instructions:
        targets = inst.targets
        if inst.kind.name == "MOVE":
            if group:
                yield (node, group, tuple(remote), tuple(sources), stray,
                       False)
                group = []
            src_node, dst_node = node_of(targets[0]), node_of(targets[1])
            if src_node == dst_node:
                yield (dst_node, [inst], (), (), None, True)
            else:
                yield (dst_node, [inst], targets[:1], (src_node,), None, True)
            continue
        inst_node = node_of(targets[0]) if targets else None
        for q in targets[1:]:
            if node_of(q) != inst_node:
                inst_node = None
        if inst_node is None:
            raise NetworkError(
                f"gate {inst.kind} operands span nodes "
                f"{sorted({node_of(q) for q in targets})}")
        # a gate that joins its tagged run adds its remote controls to the
        # run's; any other gate's own remote controls also key an untagged
        # run, and are the run's if the gate starts one
        block = inst.block
        if group and block == key:
            base, into, into_sources = node, remote, sources
        else:
            base, into, into_sources = inst_node, [], []
        for q, _pol in inst.controls:
            if q not in into:
                src = node_of(q)
                if src != base:
                    into.append(q)
                    into_sources.append(src)
        if block is None:
            block = ("adhoc", inst_node, frozenset(into))
        if group and block != key:
            yield (node, group, tuple(remote), tuple(sources), stray, False)
            group = []
        if not group:
            node, key, remote, sources = inst_node, block, into, into_sources
            stray = None
        group.append(inst)
        if stray is None and inst_node != node:
            stray = inst
    if group:
        yield (node, group, tuple(remote), tuple(sources), stray, False)


def bill(network: Network, circ: Circuit):
    """Bill a circuit on the network, with no state: each unit of
    ``session_groups``, from the facts that pass found, a session
    (``run_session``) or a MOVE (``move``).

    The walk checks each shape of unit once and tallies the rest
    (``Network._tallied``).  It walks the circuit's pieces in order: each
    repeat's first and each repeat alone, and the list pieces between
    them as one, as a walk of the flat program groups them.  A repeat
    groups into its first's units walked with ``base`` moved to
    ``control``'s node, as ``base`` is no target of its first.  Each
    piece alone has a key: a first its own list, a repeat its first and
    the node of its control, or its first alone when that node is
    ``base``'s.  Pieces of one key hold the same units in order, of
    shapes checked already whose checks pass again, as no walk changes
    an occupancy.  So the first piece of a key is walked, and its units
    per shape are recorded if none was a stray; every later piece of the
    key adds the record to the tally.  A repeat of a first that strayed
    is spelled (``Repeat.spell``) and walked, as the stray check reads
    its own constants.  The tally is posted when the walk ends, by a
    refusal too."""
    node_of, owner = network.node_of, network.owner
    firsts = {id(piece.first) for piece in circ.pieces
              if type(piece) is not list}

    def alone(piece) -> bool:
        return type(piece) is not list or id(piece) in firsts

    records: dict[object, dict] = {}  # key -> its units per shape
    network._tally = tally = {}
    try:
        for own, group in groupby(circ.pieces, key=alone):
            for piece in group if own else [[*chain.from_iterable(group)]]:
                insts, where, mark = piece, node_of, id(piece) if own else None
                if type(piece) is not list:
                    insts, base = piece.first, piece.base
                    place, mark = node_of(piece.control), id(insts)
                    if place != owner.get(base):
                        mark = mark, place
                        where = {**owner, base: place}.__getitem__
                if mark in records:
                    for shape, count in records[mark].items():
                        tally[shape] += count
                    continue
                if type(piece) is not list and id(insts) not in records:
                    # its first strayed: the first walk keeps no record
                    insts, where = piece.spell(), node_of
                before, clean = dict(tally), True
                for unit in session_groups(insts, where):
                    if unit[-1]:  # a MOVE
                        network.move(unit)
                    else:
                        clean = clean and unit[4] is None
                        network.run_session(unit)
                # a shape's first unit is tallied as 0, hence the -1
                if clean and own:
                    records[mark] = {shape: count - before.get(shape, -1)
                                     for shape, count in tally.items()}
    finally:
        network._post_tally()


def execute_distributed(network: Network, circ: Circuit):
    """Run a circuit on the network: post its whole bill (``bill``), then
    run the state through ``circuit.execute``.  A refusal of the state
    (``ValueError``, too few qubits or a repeat the kernel refuses;
    ``SimulationError``, a gate the kernel refuses or a MOVE into a slot
    that is not |0>) comes after, and the ledger and random stream
    cover work that did not run."""
    bill(network, circ)
    execute(circ, network.state)
