"""Qubit placement across seven bounded machines and the communication
census.

The layout for factoring with an n-bit modulus and an m-bit estimation
register (m = 2n by default):

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
from typing import TYPE_CHECKING, Iterable, Sequence

from .circuit import Circuit
from .netsim import (Network, NodeSpec, SessionRecord, TeleportRecord,
                     Topology, execute_distributed, remote_controls,
                     session_groups)
from .qft import build_inverse_qft
from .qstate import RandomSource
from .revarith import AdderSlicing, RegisterLayout, build_cm_m

if TYPE_CHECKING:
    from . import shor

K_NODES = ("K0", "K1")
X_NODE = "X"
ADDER_NODES = ("A0", "A1", "A2", "A3")
CHANNELS_PER_NODE = 3


class PlanError(Exception):
    pass


@dataclass
class PlacementPlan:
    """Total map from logical qubit role to a (node, slot) home."""

    n: int
    m: int
    topology: Topology
    layout: RegisterLayout
    slicing: AdderSlicing
    node_of_qubit: dict[int, str]
    roles: dict[str, int]  # role name -> global qubit id
    k_spares: dict[str, int]  # per estimation node: swap-network parking slot
    adder_nodes: tuple[str, ...]

    @property
    def capacity(self) -> int:
        return self.topology.nodes[0].register_capacity

    def node_of_role(self, role: str) -> str:
        return self.node_of_qubit[self.roles[role]]

    def dump(self) -> str:
        """Text table: role -> node/slot."""
        lines = ["role | node | qubit"]
        for role, qid in self.roles.items():
            lines.append(f"{role} | {self.node_of_qubit[qid]} | {qid}")
        return "\n".join(lines) + "\n"


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
    if half + 1 + CHANNELS_PER_NODE > capacity or n + CHANNELS_PER_NODE > capacity:
        # wider estimation registers than the canonical m = 2n need
        # proportionally larger nodes
        capacity = max(capacity, half + 1 + CHANNELS_PER_NODE,
                       n + CHANNELS_PER_NODE)

    node_order = [*K_NODES, X_NODE, *ADDER_NODES]
    specs = [NodeSpec(name, capacity, CHANNELS_PER_NODE)
             for name in node_order]
    topology = Topology(specs)
    data_slots = {spec.node_id: data
                  for spec, data, _channels in topology.slot_ids()}

    roles: dict[str, int] = {}
    node_of_qubit: dict[int, str] = {}
    cursor = {name: 0 for name in node_order}

    def claim(node: str, role: str) -> int:
        slots = data_slots[node]
        if cursor[node] >= len(slots):
            raise PlanError(f"node {node} exceeds capacity")
        qid = slots[cursor[node]]
        cursor[node] += 1
        roles[role] = qid
        node_of_qubit[qid] = node
        return qid

    k_ids = [claim(K_NODES[0] if i < half else K_NODES[1], f"k[{i}]")
             for i in range(m)]
    k_spares = {node: claim(node, f"qft_spare[{node}]") for node in K_NODES}
    x_ids = [claim(X_NODE, f"x[{i}]") for i in range(n)]

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
        b_ids += [claim(node, f"b[{i}]") for i in range(lo, hi)]
        s_ids += [claim(node, f"s[{i}]") for i in range(lo, hi)]
        inter_ids += [claim(node, f"inter[{i}]") for i in range(lo, hi)]
        out_ids += [claim(node, f"out[{i}]") for i in range(lo, hi)]
        fa_spare = claim(node, f"fa_spare[{j}]")
        ha_spare = claim(node, f"ha_spare[{j}]")
        spares.append((fa_spare, ha_spare))
    carry = spares[-1][0]
    roles["carry"] = carry

    layout = RegisterLayout(
        n=n, m=m, k=tuple(k_ids), x=tuple(x_ids), b=tuple(b_ids),
        s=tuple(s_ids), carry=carry, inter=tuple(inter_ids),
        out=tuple(out_ids))
    slicing = AdderSlicing(cuts=cuts, spares=tuple(spares))
    return PlacementPlan(n=n, m=m, topology=topology, layout=layout,
                         slicing=slicing, node_of_qubit=node_of_qubit,
                         roles=roles, k_spares=k_spares,
                         adder_nodes=tuple(ADDER_NODES[:len(slices)]))


def build_network(plan: PlacementPlan, rng: RandomSource) -> Network:
    """Instantiate the network and claim every planned slot."""
    network = Network(plan.topology, rng)
    per_node: dict[str, int] = {}
    for qid, node in plan.node_of_qubit.items():
        per_node[node] = per_node.get(node, 0) + 1
    for node in (spec.node_id for spec in plan.topology.nodes):
        got = network.allocate_data(node, per_node.get(node, 0))
        expected = sorted(q for q, nd in plan.node_of_qubit.items()
                          if nd == node)
        if got != expected:
            raise PlanError(f"slot assignment drifted on {node}")
    return network


def build_distributed_modexp_program(a: int, N: int,
                                     plan: PlacementPlan) -> Circuit:
    """Preparation plus the controlled power ladder, in the sliced
    layout."""
    from . import shor  # shor imports this module

    lay = plan.layout
    pool = sum(spec.register_capacity for spec in plan.topology.nodes)
    return shor.order_prefix(
        lay, pool, build_cm_m(a, N, plan.m, lay, slicing=plan.slicing))


def build_distributed_transform_program(plan: PlacementPlan) -> Circuit:
    """The inverse transform over the split estimation register, its swap
    network realized by teleports through the parking slots."""
    lay = plan.layout
    pool = sum(spec.register_capacity for spec in plan.topology.nodes)
    node_of = {q: plan.node_of_qubit[q] for q in lay.k}
    for node, spare in plan.k_spares.items():
        node_of[spare] = node
    return build_inverse_qft(lay.k, num_qubits=pool, path="QFTinv",
                             node_of=node_of, spare_of=dict(plan.k_spares))


def build_distributed_order_program(a: int, N: int,
                                    plan: PlacementPlan) -> Circuit:
    """The full order-finding program: preparation, power ladder, inverse
    transform.  Measurement is left to the driver so the pre-measurement
    distribution stays inspectable.  It has ~70 m n^2 gates; the count
    report builds one controlled multiplier instead."""
    circ = build_distributed_modexp_program(a, N, plan)
    circ.extend(build_distributed_transform_program(plan))
    return circ


def distribute_circuit(circ: Circuit, plan: PlacementPlan,
                       network: Network):
    """Run a program on the planned network.

    Every data qubit the circuit touches must be covered by the plan;
    remote controls become shared controls, MOVE directives teleports.
    """
    for q in circ.used_qubits():
        if q not in plan.node_of_qubit:
            raise PlanError(f"qubit {q} is not in the placement plan")
    execute_distributed(network, circ)


def run_order_program(a: int, N: int, m: int,
                      rng: RandomSource) -> shor.OrderRun:
    """Plan, build, and execute the distributed order-finding circuit up
    to measurement: ``shor.run_order_circuit`` in distributed mode."""
    from . import shor  # shor imports this module

    return shor.run_order_circuit(a, N, m, rng, shor.DISTRIBUTED)


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


def census_from_records(sessions: Sequence[SessionRecord],
                        teleports: Sequence[TeleportRecord]) -> BlockCensus:
    return _census((rec.block for rec in sessions),
                   (rec.label for rec in teleports))


def census_from_program(circ: Circuit, plan: PlacementPlan) -> BlockCensus:
    """Static census: a dry run over the sessions the executor would
    run, tallying each one with a remote control and each MOVE that
    crosses nodes."""
    node_of = plan.node_of_qubit.__getitem__
    blocks, labels = [], []
    for node, group in session_groups(circ.instructions, node_of):
        if node is not None:
            if remote_controls(group, node, node_of):
                blocks.append(group[0].block)
        else:
            src, dst = group[0].targets
            if node_of(src) != node_of(dst):
                labels.append(group[0].label)
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
