"""Pinned text dumps of the built circuits.

The hashes were recorded from the dataclass-based instruction IR; any
change to how circuits are assembled must reproduce them byte for byte.
"""

import hashlib

import pytest

from distshor import shor
from distshor.circuit import add_controls, dump, reverse
from distshor.partition import build_distributed_order_program, plan_placement
from distshor.qft import build_inverse_qft
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

# (modexp, transform) of the single-machine order-finding program
MONOLITHIC = {
    (15, 2): (
        "1cd343745f706cccaa18b5414c3d64fb3df59490eabd3ec62ffcded382141905",
        "99a42654763535b94f8c541fb7fe1ce8756cf9eb8fd5bfeb5752d09191b93d39"),
    (15, 8): (
        "457dffef94d964f7f10938ede3ece3d9cb73df48d34d2c442283174c6166ba15",
        "2742cf5a7262e21d40ccf842aaccdfd0f2b2227fbec806843cf6a142d3d7c00e"),
    (21, 2): (
        "8947f1b6979614291c139c689369047a4b14d2791b18ac18548499b4c4e806b2",
        "99a42654763535b94f8c541fb7fe1ce8756cf9eb8fd5bfeb5752d09191b93d39"),
    (21, 10): (
        "9e3a5600fc1e7cc718cb2a7af40232ac39a16b95803054eef555f90aae5dac2a",
        "0831e4598084fac1a99c6d637cf8fe8c99154464b1dc6b4e12a72e7a9fb0197e"),
    (33, 2): (
        "8f941db352d1160d13acba9a9a7f5c39f1bb4aca2f630bbdbf34292c0d26dd90",
        "99a42654763535b94f8c541fb7fe1ce8756cf9eb8fd5bfeb5752d09191b93d39"),
    (33, 12): (
        "2e5a64066843adfef906c5d683b57eea5f67079dd87412178773a3cf2f5faf1e",
        "d1008377b7e2c92936b17f19dd31a37a8529892fa73ad7aeb67855928b2a0899"),
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


@pytest.mark.parametrize("N,m", sorted(MONOLITHIC))
def test_monolithic_order_program_dump(N, m):
    modexp, transform, _layout = shor.order_circuit_parts(BASES[N], N, m)
    assert (sha(modexp), sha(transform)) == MONOLITHIC[N, m]


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
    circ = build_inverse_qft([1, 2, 3, 4, 5], num_qubits=7)
    circ = reverse(add_controls(circ, [(0, True), (6, False)]))
    assert sha(circ) == ROUND_TRIPS["qft"]
