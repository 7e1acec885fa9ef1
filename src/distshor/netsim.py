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
program ``x(t, controls=[(c, True)])`` and a remotely controlled block is
``add_controls(body, [(c, True)])``; ``execute_distributed`` runs both.

``establish_epr``, ``cat_entangle``, ``cat_disentangle`` and ``teleport``
carry out these steps on the state, gate by gate: they are the reference.
A program run on the network (``execute_distributed``) uses the gadgets'
closed form instead.  Every protocol measurement is a fair coin whose
outcome the fix-ups undo, and the mirror equals its control on every
support entry, so a session applies its body on the original controls
and a teleport into a |0> slot is a SWAP: the program changes the state
as ``circuit.execute`` does.  The run posts the program's bill first, a
session (``run_session``) or relocation (``move``) per unit of
``session_groups`` that draws one ``rng.uniform()`` per protocol
measurement in the physical order and posts the reference's channel
claims, capacity checks, ledger and classical-bit entries and records
through the same bookkeeping helpers.  Then one ``circuit.execute`` runs
the state; its kernel refuses a MOVE into a slot that is not |0>.  The
state agrees with the reference up to floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from . import gates
from .circuit import Circuit, Instruction, execute
from .qstate import Control, QuantumState, RandomSource

_PURE_TOL = 1e-9


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

    @property
    def qubit_transmissions(self) -> int:
        """Physical qubits sent: one per pair established."""
        return self.pairs_established

    def send_cbit(self, src: str, dst: str):
        key = (src, dst)
        self.cbits_sent[key] = self.cbits_sent.get(key, 0) + 1

    def total_cbits(self) -> int:
        return sum(self.cbits_sent.values())

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
            "qubit_transmissions": self.qubit_transmissions,
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


@dataclass(frozen=True)
class SessionRecord:
    """One remotely controlled block: the unit non-local ops are counted
    in."""

    block: str | None
    node: str
    remote_controls: tuple[int, ...]
    gates: int


@dataclass(frozen=True)
class TeleportRecord:
    src_node: str
    dst_node: str
    label: str


class _NodeRuntime:
    def __init__(self, spec: NodeSpec, data_slots: range,
                 channel_slots: range):
        self.spec = spec
        self.data_slots = data_slots
        self.channel_slots = channel_slots
        self.allocated: set[int] = set()
        self.busy_channels: set[int] = set()

    def live_count(self) -> int:
        return len(self.allocated) + len(self.busy_channels)


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
        self.sessions: list[SessionRecord] = []
        self.teleport_log: list[TeleportRecord] = []
        self.max_live: dict[str, int] = {n: 0 for n in self.nodes}

    # -- allocation ------------------------------------------------------

    def allocate_data(self, node_id: str, count: int) -> list[int]:
        """Claim ``count`` free data slots on a node."""
        rt = self._node(node_id)
        free = [q for q in rt.data_slots if q not in rt.allocated]
        if len(free) < count:
            raise NetworkError(f"node {node_id} has no free register slot")
        taken = free[:count]
        rt.allocated.update(taken)
        self._track(node_id)
        return taken

    def release_data(self, node_id: str, qubit: int):
        self._node(node_id).allocated.discard(qubit)

    def node_of(self, qubit: int) -> str:
        try:
            return self.owner[qubit]
        except KeyError:
            raise NetworkError(f"qubit {qubit} belongs to no node") from None

    def live_count(self, node_id: str) -> int:
        return self._node(node_id).live_count()

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

    def reset_channels(self, node_id: str):
        """Return every channel qubit to |0>.

        Errors out if a channel qubit is still correlated with live data,
        i.e. its marginal is not an exact |0> or |1>.
        """
        rt = self._node(node_id)
        for q in rt.channel_slots:
            p_one = self.state.prob_one(q)
            if _PURE_TOL < p_one < 1.0 - _PURE_TOL:
                raise NetworkError(
                    f"channel qubit {q} on {node_id} is still entangled")
            if p_one >= 1.0 - _PURE_TOL:
                self.state.apply_gate(gates.X, [q])
            rt.busy_channels.discard(q)

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

    def run_session(self, node_id: str, instructions: Sequence[Instruction],
                    *, block: str | None = None) -> SessionRecord | None:
        """Bill a block of gates on one node, sharing every remote control
        for the whole block.

        Controls are deduplicated: each remote control qubit costs one
        pair and two classical bits no matter how many gates use it.
        At most 3 remote controls are ever distributed at once.

        Closed form of entangle, body on the mirrors, disentangle: the
        gates it enables must run on ``node_id``; their state changes are
        left to ``circuit.execute``.
        """
        remote = remote_controls(instructions, node_id, self.node_of)
        if len(remote) > 3:
            raise NetworkError(
                f"session needs {len(remote)} remote controls (max 3)")
        cats = [self._share(ctrl, node_id) for ctrl in remote]
        body = [inst for inst in instructions
                if inst.classical_constant != 0]
        for inst in body:
            self._check_local(node_id, inst.targets)
        for cat in reversed(cats):
            self.rng.uniform()  # the disentangle measurement: a fair coin
            self._release_mirror(cat, cat.node_mirror, cat.node_control)
        if not remote:
            return None
        record = SessionRecord(block, node_id, tuple(remote), len(body))
        self.sessions.append(record)
        return record

    def teleport(self, qubit: int, dest_node: str,
                 dest_slot: int | None = None, *, label: str = "") -> int:
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
        self._log_teleport(src_node, dest_node, label)
        return dest_slot

    def move(self, src: int, dst: int, *, label: str = ""):
        """Bill a relocation into a |0> slot: nothing for a local swap on
        one node, a teleport across nodes.

        Closed form of the teleport, billed as ``teleport`` bills it, with
        one fair coin for each of its two measurements; the swap and its
        |0> check are left to ``circuit.execute``.
        """
        src_node, dst_node = self.node_of(src), self.node_of(dst)
        if src_node != dst_node:
            self._check_held(dst_node, dst)
            cat = self._share(src, dst_node)
            self.rng.uniform()  # the source's X-basis measurement
            self._release_mirror(cat, src_node, dst_node)
            self._log_teleport(src_node, dst_node, label)

    def _share(self, control: int, node_id: str) -> CatState:
        """Closed form of ``establish_epr`` then ``cat_entangle``: the
        mirror on ``node_id`` would equal ``control``, so only the
        bookkeeping and the measurement's fair coin remain."""
        pair = self._claim_pair(self.node_of(control), node_id)
        self.rng.uniform()  # the entangle measurement
        return self._spend_pair(control, pair)

    # -- protocol bookkeeping: the reference steps and the closed form ---

    def _claim_pair(self, node_a: str, node_b: str) -> EprPair:
        """Claim a free channel qubit on each node for a new pair, check
        both nodes' capacity and bill one qubit transmission."""
        if node_a == node_b:
            raise NetworkError("a pair needs two distinct nodes")
        qa = self._free_channel(node_a)
        qb = self._free_channel(node_b)
        self.nodes[node_a].busy_channels.add(qa)
        self.nodes[node_b].busy_channels.add(qb)
        self._track(node_a)
        self._track(node_b)
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

    def _log_teleport(self, src_node: str, dest_node: str, label: str):
        self.ledger.teleports += 1
        self.teleport_log.append(TeleportRecord(src_node, dest_node, label))
        self._track(dest_node)

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

    def _free_channel(self, node_id: str) -> int:
        rt = self._node(node_id)
        for q in rt.channel_slots:
            if q not in rt.busy_channels:
                return q
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

    def _track(self, node_id: str):
        rt = self._node(node_id)
        live = rt.live_count()
        if live > rt.spec.register_capacity:
            raise NetworkError(
                f"node {node_id} over capacity: {live} live qubits")
        if live > self.max_live[node_id]:
            self.max_live[node_id] = live


def remote_controls(instructions: Iterable[Instruction], node: str,
                    node_of: Callable[[int], str]) -> list[int]:
    """The control qubits of ``instructions`` that live off ``node``, each
    once, in first-use order: what a session on ``node`` shares, one pair
    and two classical bits each."""
    remote: list[int] = []
    for inst in instructions:
        for q, _pol in inst.controls:
            if node_of(q) != node and q not in remote:
                remote.append(q)
    return remote


def session_groups(instructions: Sequence[Instruction],
                   node_of: Callable[[int], str]
                   ) -> Iterator[tuple[str | None, list[Instruction]]]:
    """Split a program into the units the network runs, in order.

    A MOVE comes alone, with node ``None``.  Gates come in runs with the
    node they run on: one session, so every remote control is shared once
    for the whole run.  A run is the gates tagged with one ``block``; an
    untagged run is the gates on one node with one set of remote
    controls.  Gate operands spanning two nodes raise ``NetworkError``.
    """
    group: list[Instruction] = []
    node = key = None
    for inst in instructions:
        if inst.kind.name == "MOVE":
            if group:
                yield node, group
                group = []
            yield None, [inst]
            continue
        nodes = {node_of(q) for q in inst.targets}
        if len(nodes) != 1:
            raise NetworkError(
                f"gate {inst.kind} operands span nodes {sorted(nodes)}")
        inst_node = nodes.pop()
        if inst.block is not None:
            inst_key = ("block", inst.block)
        else:
            inst_key = ("adhoc", inst_node,
                        frozenset(remote_controls((inst,), inst_node,
                                                  node_of)))
        if group and inst_key != key:
            yield node, group
            group = []
        if not group:
            node, key = inst_node, inst_key
        group.append(inst)
    if group:
        yield node, group


def execute_distributed(network: Network, circ: Circuit):
    """Run a circuit on the network: bill each run of gates from
    ``session_groups`` as one session, its remote controls shared once,
    and each MOVE as a relocation, a teleport across nodes; then run the
    state through ``circuit.execute``.

    The whole bill is posted before the state runs.  A program the state
    then refuses is raised after that: ``ValueError`` when it needs more
    qubits than the network's state holds, ``SimulationError`` when a MOVE
    lands in a slot that is not |0>.  The ledger, records and random
    stream then cover work that did not run, or ran only in part."""
    for node, group in session_groups(circ.instructions, network.node_of):
        if node is None:
            src, dst = group[0].targets
            network.move(src, dst, label=group[0].label)
        else:
            network.run_session(node, group, block=group[0].block)
    execute(circ, network.state)
