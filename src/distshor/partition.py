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

``count_nl_t`` reports the census two ways: raw event totals from the
ledger, and the per-level rollup of the reference recursion anchored at
the leaf counts actually measured per block.  With s adder nodes holding
a slice (s = 4 when every node gets one), a modular addition costs 2s
remotely controlled slices and 2(s - 1) carry teleports, and copy and
swap s slices each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .circuit import Circuit
from .netsim import (Network, NodeSpec, SessionRecord, TeleportRecord,
                     Topology, execute_distributed, remote_controls,
                     session_groups)
from .qft import FourierSpec, build_inverse_qft
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
    return build_inverse_qft(
        FourierSpec(plan.m), lay.k, num_qubits=pool, path="QFTinv",
        node_of=node_of, spare_of=dict(plan.k_spares))


def build_distributed_order_program(a: int, N: int,
                                    plan: PlacementPlan) -> Circuit:
    """The full order-finding program: preparation, power ladder, inverse
    transform.  Measurement is left to the driver so the pre-measurement
    distribution stays inspectable."""
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


def _split_block(block: str) -> tuple[str, str] | None:
    if "@" not in block:
        return None
    path, tag = block.rsplit("@", 1)
    kind = tag.rstrip("0123456789.")
    return path, kind


def _an_instance(label: str) -> str | None:
    parts = label.split("/")
    for i, part in enumerate(parts):
        if part in ("AN", "ANr"):
            return "/".join(parts[:i + 1])
    return None


@dataclass
class BlockCensus:
    """Per-instance counts of remotely controlled blocks and teleports."""

    nl_per_an: dict[str, int] = field(default_factory=dict)
    nl_per_copy: dict[str, int] = field(default_factory=dict)
    nl_per_swap: dict[str, int] = field(default_factory=dict)
    qft_rotations: int = 0
    other_blocks: int = 0
    teleports_per_an: dict[str, int] = field(default_factory=dict)
    other_teleports: int = 0

    def total_blocks(self) -> int:
        return (sum(self.nl_per_an.values())
                + sum(self.nl_per_copy.values())
                + sum(self.nl_per_swap.values())
                + self.qft_rotations + self.other_blocks)

    def total_teleports(self) -> int:
        return sum(self.teleports_per_an.values()) + self.other_teleports

    def uniform(self, table: dict[str, int], what: str) -> int:
        values = set(table.values())
        if len(values) != 1:
            raise PlanError(f"non-uniform {what} census: {sorted(values)}")
        return values.pop()


def census_from_records(sessions: Sequence[SessionRecord],
                        teleports: Sequence[TeleportRecord]) -> BlockCensus:
    census = BlockCensus()
    for rec in sessions:
        _tally_block(census, rec.block)
    for rec in teleports:
        _tally_teleport(census, rec.label)
    return census


def census_from_program(circ: Circuit, plan: PlacementPlan) -> BlockCensus:
    """Static census: a dry run over the sessions the executor would
    run, tallying each one with a remote control and each MOVE that
    crosses nodes."""
    census = BlockCensus()
    node_of = plan.node_of_qubit.__getitem__
    for node, group in session_groups(circ.instructions, node_of):
        if node is not None:
            if remote_controls(group, node, node_of):
                _tally_block(census, group[0].block)
        elif group[0].kind.name == "MOVE":
            src, dst = group[0].targets
            if node_of(src) != node_of(dst):
                _tally_teleport(census, group[0].label)
    return census


def _tally_block(census: BlockCensus, block: str | None):
    parsed = _split_block(block) if block else None
    if parsed is None:
        census.other_blocks += 1
        return
    path, kind = parsed
    stage = _STAGE_KINDS.get(kind)
    if stage == "AN":
        census.nl_per_an[path] = census.nl_per_an.get(path, 0) + 1
    elif stage == "COPY":
        census.nl_per_copy[path] = census.nl_per_copy.get(path, 0) + 1
    elif stage == "SWAP":
        census.nl_per_swap[path] = census.nl_per_swap.get(path, 0) + 1
    elif stage == "QFT":
        census.qft_rotations += 1
    else:
        census.other_blocks += 1


def _tally_teleport(census: BlockCensus, label: str):
    instance = _an_instance(label)
    if instance is None:
        census.other_teleports += 1
    else:
        census.teleports_per_an[instance] = (
            census.teleports_per_an.get(instance, 0) + 1)


@dataclass
class NlTReport:
    """Per-level non-local-block and teleport counts.

    The level table follows the reference recursion (one multiply pass
    per multiplier level, copy/swap/estimation stages teleport-free),
    anchored at the per-block leaf counts actually measured.  Raw event
    totals from the full execution are carried alongside; the structural
    doubling of the uncompute passes makes them larger by design.
    """

    n: int
    m: int
    per_level: dict[str, tuple[int, int]]
    leaf_nl_an: int
    leaf_t_an: int
    leaf_nl_copy: int
    leaf_nl_swap: int
    raw_blocks: int
    raw_teleports: int
    qft_rotations: int

    def as_dict(self) -> dict:
        return {
            "per_level": {lvl: {"NL": nl, "T": t}
                          for lvl, (nl, t) in self.per_level.items()},
            "leaves_measured": {
                "AN": {"NL": self.leaf_nl_an, "T": self.leaf_t_an},
                "COPY": {"NL": self.leaf_nl_copy, "T": 0},
                "SWAP": {"NL": self.leaf_nl_swap, "T": 0},
            },
            "raw_events": {"blocks": self.raw_blocks,
                           "teleports": self.raw_teleports},
        }


def count_nl_t(census: BlockCensus, n: int, m: int) -> NlTReport:
    """Roll the measured leaf counts up the reference recursion.

    NL(XAN) = 2 NL(AN) + NL(COPY); NL(A) = 2 NL(XAN) + NL(SWAP);
    NL(M) = n NL(A); NL(c_m) = m NL(M).  Teleports: T(XAN) = 2 T(AN)
    with the swap stages and the estimation transform teleport-free, and
    one multiply pass per level, giving m * n * 2 * T(AN) in total.
    """
    nl_an = census.uniform(census.nl_per_an, "addition-block")
    t_an = census.uniform(census.teleports_per_an, "addition-teleport")
    nl_copy = census.uniform(census.nl_per_copy, "copy-block")
    nl_swap = census.uniform(census.nl_per_swap, "swap-block")

    nl_xan = 2 * nl_an + nl_copy
    nl_a = 2 * nl_xan + nl_swap
    t_xan = 2 * t_an
    t_a = t_xan
    per_level = {
        "AN": (nl_an, t_an),
        "COPY": (nl_copy, 0),
        "SWAP": (nl_swap, 0),
        "XAN": (nl_xan, t_xan),
        "A": (nl_a, t_a),
        "M": (n * nl_a, n * t_a),
        "c_m(M)": (m * n * nl_a, m * n * t_a),
        "QFT_inv": (census.qft_rotations, 0),
        "SHOR": (m * n * nl_a + census.qft_rotations, m * n * t_a),
    }
    return NlTReport(
        n=n, m=m, per_level=per_level, leaf_nl_an=nl_an, leaf_t_an=t_an,
        leaf_nl_copy=nl_copy, leaf_nl_swap=nl_swap,
        raw_blocks=census.total_blocks(),
        raw_teleports=census.total_teleports(),
        qft_rotations=census.qft_rotations)
