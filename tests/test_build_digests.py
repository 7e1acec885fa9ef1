"""Pinned text dumps of the built circuits.

The hashes were recorded from the dataclass-based instruction IR; any
change to how circuits are assembled must reproduce them byte for byte.
"""

import hashlib

import pytest

from distshor.circuit import add_controls, dump, reverse
from distshor.partition import build_distributed_order_program, plan_placement
from distshor.qft import FourierSpec, build_inverse_qft
from distshor.revarith import RegisterLayout, build_cm_m, build_xan

BASES = {15: 7, 21: 2, 33: 5}

CM_M = {
    (15, 2):
        "8b025b489900eca781ca201a8bf35625a5164df238ff3811210238ece73d5b68",
    (15, 8):
        "7cde47d06065b01598c1d1b3ceab345f36ff2b7fd1032d8729e62d15851db928",
    (21, 2):
        "83d4ba3d966c7cb36cb4041329f4752e8293ca614b26fb113af53c5fbbd73b5e",
    (21, 10):
        "173fb233c402769a963959a0aca7e5aa29924169722a806fa612b2286d42f9ef",
    (33, 2):
        "33532556738135f7180b7cc436fb9967360318419f79372067ddef6e768efd45",
    (33, 12):
        "f8fa3b7bb99ad75c1f1f234b209f08dfad51410bb1c4540bcfe3af28ef8d1f41",
}

DISTRIBUTED = {
    (15, 2):
        "a2af0dd77819f056cf5a2fa72aab756996a2cc31e19eca3ea7b9635c557d3e79",
    (15, 8):
        "039fcbdddd98cd79ac3bad7ed064fac6646cfe79d3658681944dd413d7c6b311",
    (21, 2):
        "5f64dedd781b90439a60c3d21339442f9ab6b07eca3036acc7eae3e467ecb1d7",
    (21, 10):
        "de5f0f4a158f95aec395b6bfe6487e19656dd22e1fa53d838fe8ac4fb045d2ac",
    (33, 2):
        "3d329b4892f79a39190d414f0d10a925ec372c17ff576cccd5f7a1746a5396d9",
    (33, 12):
        "368c2d1f6c636d93b117b6b64221ecfdfeaa4ebb4805e22ceab7a655ad993afe",
}

ROUND_TRIPS = {
    "xan":
        "f76a4ab5582a2c69d6977ebf3becb7fe02415d94ad0473e000c2104e2aee6e55",
    "qft":
        "39bfc3eeaa435d626d9b0f33759e3daf6bd938370499770680215d2d28587a8b",
}


def sha(circ) -> str:
    return hashlib.sha256(dump(circ).encode()).hexdigest()


@pytest.mark.parametrize("N,m", sorted(CM_M))
def test_packed_power_ladder_dump(N, m):
    layout = RegisterLayout.packed(N.bit_length(), m)
    assert sha(build_cm_m(BASES[N], N, m, layout)) == CM_M[N, m]


@pytest.mark.parametrize("N,m", sorted(DISTRIBUTED))
def test_distributed_order_program_dump(N, m):
    plan = plan_placement(N.bit_length(), m)
    program = build_distributed_order_program(BASES[N], N, plan)
    assert sha(program) == DISTRIBUTED[N, m]


def test_reverse_of_controlled_xan_dump():
    layout = RegisterLayout.packed(4, 2)
    circ = reverse(add_controls(build_xan(7, 15, layout),
                                [(layout.k[0], True), (layout.x[1], False)]))
    assert sha(circ) == ROUND_TRIPS["xan"]


def test_reverse_of_controlled_transform_dump():
    circ = build_inverse_qft(FourierSpec(5), [1, 2, 3, 4, 5], num_qubits=7)
    circ = reverse(add_controls(circ, [(0, True), (6, False)]))
    assert sha(circ) == ROUND_TRIPS["qft"]
