"""Qubit placement across seven bounded machines and the communication
census.

The layout for factoring with an n-bit modulus and an m-bit estimation
register:

* two nodes hold the halves of the estimation register ``k``,
* one node holds the multiplier register ``x``,
* four adder nodes each hold one slice of ``b``, ``s``, ``inter`` and
  ``out`` (width ``ceil(n/4)``) plus two spare carry slots.

Every node has capacity ``4*ceil(n/4) + 5`` (n + 5 when 4 divides n):
its register slice, two carries, and three channel qubits, enough for
the worst case of three simultaneously shared remote controls.

The distributed program is the same circuit family the single machine
runs, rebuilt with this layout: ripple chains hand their carry to the
next node through a MOVE (teleport), remotely controlled slices are
tagged into session blocks, and the estimation register's transform
teleports qubits back and forth for its swap network.

The census keeps one table per event kind, remotely controlled blocks
and teleports, each keyed by stage and then by instance path.
``count_nl_t`` reads it two ways: raw event totals, and the per-level
rollup of the reference recursion anchored at the leaf count of each
stage, which must be the same for every instance.  With s adder nodes
holding a slice (s = 4 when every node gets one), a modular addition costs 2s
remotely controlled slices and 2(s - 1) carry teleports, and copy and
swap s slices each.

A census need not cover a whole program.  The count report takes one of
the ladder's first controlled multiplier, whose events the ladder repeats
m times, and one of the transform, and never builds the whole program.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .circuit import Circuit
# ``shor.order_round`` runs its program through this module's
# ``execute_distributed``, so one substitution here reaches every round
from .netsim import (MAX_REMOTE_CONTROLS, Network, NodeSpec, Topology,
                     execute_distributed, session_groups)
from .qft import build_inverse_qft
from .qstate import RandomSource
from .revarith import AdderSlicing, RegisterLayout, build_cm_m

if TYPE_CHECKING:
    from . import shor

K_NODES = ("K0", "K1")
X_NODE = "X"
ADDER_NODES = ("A0", "A1", "A2", "A3")
CHANNELS_PER_NODE = MAX_REMOTE_CONTROLS


class PlanError(Exception):
    pass


@dataclass
class PlacementPlan:
    """Where every logical qubit lives: the layout's slots and the node
    of each."""

    topology: Topology
    layout: RegisterLayout
    slicing: AdderSlicing
    node_of_qubit: dict[int, str]
    k_spares: dict[str, int]  # per estimation node: swap-network parking slot
    adder_nodes: tuple[str, ...]

    @property
    def capacity(self) -> int:
        return self.topology.nodes[0].register_capacity

    @property
    def num_qubits(self) -> int:
        """The distributed program's qubit pool: every node's register."""
        return sum(spec.register_capacity for spec in self.topology.nodes)


def plan_placement(n: int, m: int) -> PlacementPlan:
    """Lay out the 5n + m + 1 logical qubits over the seven nodes.

    Slice width is ``ceil(n/4)``; when 4 does not divide n the trailing
    slices shrink (possibly to zero) and capacities are padded to the
    uniform ``4*ceil(n/4) + 5``.
    """
    if n < 1:
        raise PlanError("modulus width must be positive")
    if m < 1:
        raise PlanError(f"estimation width m must be at least 1, got {m}")
    width = math.ceil(n / 4)
    capacity = 4 * width + 5
    half = (m + 1) // 2
    # wider estimation registers than the canonical m = 2n need larger nodes
    capacity = max(capacity, half + 1 + CHANNELS_PER_NODE,
                   n + CHANNELS_PER_NODE)

    node_order = [*K_NODES, X_NODE, *ADDER_NODES]
    specs = [NodeSpec(name, capacity, CHANNELS_PER_NODE)
             for name in node_order]
    topology = Topology(specs)
    data_slots = {spec.node_id: data
                  for spec, data, _channels in topology.slot_ids()}

    node_of_qubit: dict[int, str] = {}
    cursor = {name: 0 for name in node_order}

    def claim(node: str) -> int:
        slots = data_slots[node]
        if cursor[node] >= len(slots):
            raise PlanError(f"node {node} exceeds capacity")
        qid = slots[cursor[node]]
        cursor[node] += 1
        node_of_qubit[qid] = node
        return qid

    k_ids = [claim(K_NODES[0] if i < half else K_NODES[1]) for i in range(m)]
    k_spares = {node: claim(node) for node in K_NODES}
    x_ids = [claim(X_NODE) for _ in range(n)]

    edges = [min(j * width, n) for j in range(5)]
    slices = [(edges[j], edges[j + 1]) for j in range(4)
              if edges[j] < edges[j + 1]]
    cuts = tuple(edges[j] for j in range(1, 4) if 0 < edges[j] < n)

    b_ids: list[int] = []
    s_ids: list[int] = []
    inter_ids: list[int] = []
    out_ids: list[int] = []
    spares: list[tuple[int, int]] = []
    for j, (lo, hi) in enumerate(slices):
        node = ADDER_NODES[j]
        for reg in (b_ids, s_ids, inter_ids, out_ids):
            reg += [claim(node) for _ in range(lo, hi)]
        spares.append((claim(node), claim(node)))  # full adder's, half adder's
    carry = spares[-1][0]

    layout = RegisterLayout(
        n=n, m=m, k=tuple(k_ids), x=tuple(x_ids), b=tuple(b_ids),
        s=tuple(s_ids), carry=carry, inter=tuple(inter_ids),
        out=tuple(out_ids))
    slicing = AdderSlicing(cuts=cuts, spares=tuple(spares))
    return PlacementPlan(topology=topology, layout=layout,
                         slicing=slicing, node_of_qubit=node_of_qubit,
                         k_spares=k_spares,
                         adder_nodes=tuple(ADDER_NODES[:len(slices)]))


def build_network(plan: PlacementPlan, rng: RandomSource) -> Network:
    """Instantiate the network and claim every planned slot: the plan
    took each node's first data slots, and so does ``allocate_data``."""
    network = Network(plan.topology, rng)
    for node, count in Counter(plan.node_of_qubit.values()).items():
        network.allocate_data(node, count)
    return network


def build_distributed_modexp_program(a: int, N: int,
                                     plan: PlacementPlan) -> Circuit:
    """Preparation plus the controlled power ladder, in the sliced
    layout."""
    from . import shor  # shor imports this module

    lay = plan.layout
    return shor.order_prefix(
        lay, plan.num_qubits,
        build_cm_m(a, N, lay.m, lay, slicing=plan.slicing))


def build_distributed_transform_program(plan: PlacementPlan) -> Circuit:
    """The inverse transform over the split estimation register, its swap
    network realized by teleports through the parking slots."""
    return build_inverse_qft(plan.layout.k, num_qubits=plan.num_qubits,
                             node_of=plan.node_of_qubit,
                             spare_of=plan.k_spares)


def build_distributed_order_program(a: int, N: int,
                                    plan: PlacementPlan) -> Circuit:
    """The full order-finding program: preparation, power ladder, inverse
    transform, the one program a distributed round runs.  Measurement is
    left to the driver so the pre-measurement distribution stays
    inspectable.  It has ~70 m n^2 gates; the count report builds one
    controlled multiplier instead.  Its pieces are instruction lists for
    the preparation, the first multiplier and the transform, and a repeat
    that names the first multiplier's list for every later multiplier,
    reading k_i where it reads k_0 (``build_cm_m``): ``netsim.bill``
    bills a repeat as its first's units with k_0 on k_i's node, and the
    state kernel runs every repeat from its first's plans with k_0 read
    as k_i; neither spells one."""
    return build_distributed_modexp_program(a, N, plan).extend(
        build_distributed_transform_program(plan))


def run_order_program(a: int, N: int, m: int,
                      rng: RandomSource) -> shor.OrderRun:
    """Plan, build, and execute the distributed order-finding circuit up
    to measurement: one distributed ``shor.order_round``."""
    from . import shor  # shor imports this module

    return shor.order_round(a, N, m, shor.DISTRIBUTED)(rng)


# -- communication census ---------------------------------------------------

_STAGE_KINDS = {"fa": "AN", "ha": "AN", "cp": "COPY", "sw": "SWAP",
                "r": "QFT"}


@dataclass
class BlockCensus:
    """Remotely controlled blocks and teleports, one table per event kind:
    stage (AN, COPY, SWAP, QFT or other) -> instance path -> events."""

    blocks: dict[str, Counter] = field(
        default_factory=lambda: defaultdict(Counter))
    teleports: dict[str, Counter] = field(
        default_factory=lambda: defaultdict(Counter))

    def total_blocks(self) -> int:
        return sum(table.total() for table in self.blocks.values())

    def total_teleports(self) -> int:
        return sum(table.total() for table in self.teleports.values())


def _census(blocks: Iterable[str | None],
            labels: Iterable[str]) -> BlockCensus:
    """Tally blocks by the kind of their ``path@tag`` tag, and teleports by
    the first ``AN``/``ANr`` component of their label."""
    census = BlockCensus()
    for block in blocks:
        path, at, tag = (block or "").rpartition("@")
        kind = tag.rstrip("0123456789.") if at else None
        census.blocks[_STAGE_KINDS.get(kind, "other")][path] += 1
    for label in labels:
        parts = label.split("/")
        for i, part in enumerate(parts):
            if part in ("AN", "ANr"):
                census.teleports["AN"]["/".join(parts[:i + 1])] += 1
                break
        else:
            census.teleports["other"][label] += 1
    return census


def census_from_program(circ: Circuit, plan: PlacementPlan) -> BlockCensus:
    """Static census: a dry run over the units the executor would bill
    (``session_groups``), tallying each session with a remote control
    and each MOVE across nodes: each unit with a source node."""
    blocks, labels = [], []
    for _, insts, _, sources, _, is_move in session_groups(
            circ.instructions, plan.node_of_qubit.__getitem__):
        if sources:
            if is_move:
                labels.append(insts[0].label)
            else:
                blocks.append(insts[0].block)
    return _census(blocks, labels)


def count_nl_t(census: BlockCensus, n: int, m: int, *, copies: int = 1,
               transform: BlockCensus | None = None) -> dict:
    """The report's ``NL_T`` for a program that runs the events of
    ``census`` ``copies`` times and then those of ``transform``: the
    measured leaf counts rolled up the reference recursion, next to the
    raw event totals.

    NL(XAN) = 2 NL(AN) + NL(COPY); NL(A) = 2 NL(XAN) + NL(SWAP);
    NL(M) = n NL(A); NL(c_m) = m NL(M).  Teleports: T(XAN) = 2 T(AN)
    with the swap stages and the estimation transform teleport-free, and
    one multiply pass per level, giving m * n * 2 * T(AN) in total.  The
    raw totals are larger by design: every uncompute pass re-runs its
    blocks.
    """
    transform = transform if transform is not None else BlockCensus()

    def leaf(table: dict[str, Counter], stage: str, what: str) -> int:
        values = set(table.get(stage, {}).values())
        if len(values) != 1:
            raise PlanError(
                f"non-uniform {stage} {what} census: {sorted(values)}")
        return values.pop()

    nl_an = leaf(census.blocks, "AN", "block")
    t_an = leaf(census.teleports, "AN", "teleport")
    nl_copy = leaf(census.blocks, "COPY", "block")
    nl_swap = leaf(census.blocks, "SWAP", "block")
    qft = (copies * census.blocks.get("QFT", Counter()).total()
           + transform.blocks.get("QFT", Counter()).total())

    nl_xan = 2 * nl_an + nl_copy
    nl_a = 2 * nl_xan + nl_swap
    t_a = 2 * t_an
    per_level = {
        "AN": (nl_an, t_an),
        "COPY": (nl_copy, 0),
        "SWAP": (nl_swap, 0),
        "XAN": (nl_xan, t_a),
        "A": (nl_a, t_a),
        "M": (n * nl_a, n * t_a),
        "c_m(M)": (m * n * nl_a, m * n * t_a),
        "QFT_inv": (qft, 0),
        "SHOR": (m * n * nl_a + qft, m * n * t_a),
    }
    levels = {lvl: {"NL": nl, "T": t} for lvl, (nl, t) in per_level.items()}
    return {
        "per_level": levels,
        "leaves_measured": {lvl: dict(levels[lvl])
                            for lvl in ("AN", "COPY", "SWAP")},
        "raw_events": {
            "blocks": copies * census.total_blocks()
            + transform.total_blocks(),
            "teleports": copies * census.total_teleports()
            + transform.total_teleports()},
    }
