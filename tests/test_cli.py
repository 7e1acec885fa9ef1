"""Batch driver tests: runs, validation, reports, determinism."""

import json

import pytest

from conftest import reference_counts_section
from distshor import cli, shor
from distshor.circuit import count_gates
from distshor.qft import build_inverse_qft
from distshor.revarith import (RegisterLayout, build_adder, build_an,
                               build_cm_m, build_fa, build_ha, build_m,
                               build_mf, build_xan, gate_count_formula)


def run_cli(tmp_path, *args):
    report = tmp_path / "report.json"
    status = cli.main([*args, "--report", str(report)])
    return status, json.loads(report.read_text())


class TestRun:
    def test_factor_fifteen(self, tmp_path):
        status, report = run_cli(tmp_path, "--N", "15", "--a", "7",
                                 "--m", "8", "--seed", "1")
        assert status == cli.EXIT_OK
        assert report["outcome"]["factors"] == [3, 5]
        assert report["rounds"][-1]["r_found"] == 4
        assert report["ledger"]["ebits"] == 0  # single-machine run

    def test_distributed_mode_logs_communication(self, tmp_path):
        status, report = run_cli(tmp_path, "--N", "15", "--a", "7",
                                 "--m", "4", "--seed", "1",
                                 "--mode", "distributed")
        assert status == cli.EXIT_OK
        assert report["outcome"]["factors"] == [3, 5]
        assert report["ledger"]["ebits"] > 0
        assert report["ledger"]["teleports"] > 0

    def test_even_modulus_rejected(self, tmp_path):
        status, report = run_cli(tmp_path, "--N", "16")
        assert status == cli.EXIT_BAD_CONFIG
        assert "odd" in report["error"]

    def test_prime_power_rejected(self, tmp_path):
        status, report = run_cli(tmp_path, "--N", "9")
        assert status == cli.EXIT_BAD_CONFIG
        assert "prime power" in report["error"]

    def test_shared_factor_base_rejected(self, tmp_path):
        status, report = run_cli(tmp_path, "--N", "15", "--a", "5")
        assert status == cli.EXIT_BAD_CONFIG

    @pytest.mark.parametrize("rounds", ["0", "-1"])
    def test_nonpositive_round_budget_rejected(self, tmp_path, rounds):
        status, report = run_cli(tmp_path, "--N", "15", "--a", "7",
                                 "--m", "8", "--max-rounds", rounds)
        assert status == cli.EXIT_BAD_CONFIG
        assert "max_rounds" in report["error"]
        assert "outcome" not in report

    def test_exhaustion_exit_code(self, tmp_path):
        # base 14 squares to 1 with 14 = -1 mod 15: the fixed-base run
        # cannot produce factors
        status, report = run_cli(tmp_path, "--N", "15", "--a", "14",
                                 "--m", "4", "--seed", "0")
        assert status == cli.EXIT_EXHAUSTED
        assert report["outcome"] == {"failure": "retry budget exhausted"}


class TestCountsOnly:
    def test_static_report_values(self, tmp_path):
        status, report = run_cli(tmp_path, "--N", "15", "--a", "7",
                                 "--m", "8", "--counts-only")
        assert status == cli.EXIT_OK
        counts = report["counts"]
        assert counts["NL_T"]["per_level"]["c_m(M)"] == {"NL": 1408,
                                                         "T": 384}
        assert counts["NL_T"]["per_level"]["AN"] == {"NL": 8, "T": 6}
        assert counts["predictions"]["NL(c_m(M))"] == 1408
        assert counts["predictions"]["T(SHOR)"] == 384
        assert counts["predictions"]["qubits_monolithic"] == 29
        assert counts["predictions"]["nodes"] == 7
        assert counts["predictions"]["node_capacity"] == 9
        assert counts["G_measured"]["FA"] == 16
        assert counts["G_measured"]["HA"] == 14
        assert counts["G_closed_form"]["c_m(M)"] == 8768
        assert counts["G_measured"]["c_m(M)"] == 8736
        assert counts["G_delta"]["c_m(M)"] == -32

    @pytest.mark.parametrize("N", [15, 21, 51, 77, 187])  # n = 4..8
    def test_predictions_match_measured_rollup(self, N):
        # n = 5 and 6 leave one adder node without a register slice
        status, report = cli.run(cli.RunConfig(N=N, counts_only=True))
        assert status == cli.EXIT_OK
        levels = report["counts"]["NL_T"]["per_level"]
        predictions = report["counts"]["predictions"]
        assert predictions["NL(AN)"] == levels["AN"]["NL"]
        assert predictions["NL(c_m(M))"] == levels["c_m(M)"]["NL"]
        assert predictions["T(SHOR)"] == levels["SHOR"]["T"]

    @pytest.mark.parametrize("N,m", [
        (N, m) for N in (15, 21, 33, 77, 187)  # n = 4..8
        for n in [N.bit_length()] for m in (1, 2 * n - 2, 2 * n)])
    def test_level_counts_match_standalone_builds(self, N, m):
        # the report reads every level off the one distributed program;
        # the standalone packed builders are the reference
        n, a = N.bit_length(), 2
        layout = RegisterLayout.packed(n, m)
        plain, chain = list(range(n)), list(range(n, 2 * n))
        reference = {
            "FA": build_fa(0, plain, chain, 2 * n),
            "HA": build_ha(0, plain, chain),
            "AN": build_an(a, N, layout),
            "XAN": build_xan(a, N, layout),
            "A": build_adder(a, N, layout),
            "MF": build_mf(a, N, layout),
            "M": build_m(a, N, layout),
            "c_m(M)": build_cm_m(a, N, m, layout),
            "QFT_inv": build_inverse_qft(range(m)),
        }
        status, report = cli.run(cli.RunConfig(N=N, m=m, counts_only=True))
        assert status == cli.EXIT_OK
        measured = report["counts"]["G_measured"]
        assert list(measured.items()) == [
            (lvl, count_gates(circ).total) for lvl, circ in reference.items()]

    def test_no_quantum_sections(self, tmp_path):
        _, report = run_cli(tmp_path, "--N", "15", "--counts-only")
        assert "outcome" not in report
        assert "rounds" not in report

    @pytest.mark.parametrize("n,m", [
        *((n, m) for n in range(4, 13) for m in (1, 2)),
        *((n, 2 * n) for n in range(4, 11))])
    def test_first_instance_counts_match_full_program(self, n, m):
        # the report counts one controlled multiplier and the transform;
        # the reference censuses every multiplier of the whole program,
        # so this also checks that the m multipliers bill alike
        config = cli.RunConfig(N=(1 << n) - 1, m=m, counts_only=True)
        status, report = cli.run(config)
        assert status == cli.EXIT_OK
        assert json.dumps(report["counts"]) == \
            json.dumps(reference_counts_section(config))


class TestCountsScale:
    """The O((log N)^2) communication claim at widths the full program
    (~70 m n^2 gates) is too large to build for a report."""

    @pytest.mark.parametrize("N", [65535, 4294967295])  # n = 16, 32
    def test_communication_matches_closed_forms(self, tmp_path, N):
        status, report = run_cli(tmp_path, "--N", str(N), "--counts-only")
        assert status == cli.EXIT_OK
        n = N.bit_length()
        m, s = 2 * n, 4
        counts = report["counts"]
        levels = counts["NL_T"]["per_level"]
        assert report["config"]["m"] == m
        assert levels["c_m(M)"]["NL"] == 11 * s * m * n
        assert levels["SHOR"]["T"] == 4 * (s - 1) * m * n
        assert counts["NL_T"]["raw_events"]["blocks"] == 179 * n * n
        assert counts["G_measured"]["c_m(M)"] == \
            m * counts["G_measured"]["M"]


class TestAdmission:
    """Factoring runs over the support budget are refused before anything
    is built.  The budget is shrunk here, so a broken check still runs
    only a small instance."""

    def test_oversized_factoring_run_exits_three(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(shor, "SUPPORT_BUDGET", 4 << 3)
        monkeypatch.setattr(shor, "factor", None)  # never reached
        status, report = run_cli(tmp_path, "--N", "15", "--a", "7",
                                 "--m", "4")
        assert status == cli.EXIT_EXHAUSTED
        assert "budget of 32" in report["error"]
        assert "outcome" not in report and "counts" not in report

    def test_default_width_is_checked(self, monkeypatch):
        monkeypatch.setattr(shor, "SUPPORT_BUDGET", 4 << 7)
        status, report = cli.run(cli.RunConfig(N=15))  # m = 2n = 8
        assert status == cli.EXIT_EXHAUSTED
        assert report["error"].startswith("m = 8 ")

    def test_bad_configuration_still_exits_two(self, monkeypatch):
        monkeypatch.setattr(shor, "SUPPORT_BUDGET", 4 << 3)
        status, _ = cli.run(cli.RunConfig(N=16, m=4))
        assert status == cli.EXIT_BAD_CONFIG

    def test_counts_only_is_exempt(self, monkeypatch):
        monkeypatch.setattr(shor, "SUPPORT_BUDGET", 4 << 3)
        status, report = cli.run(cli.RunConfig(N=15, m=8, counts_only=True))
        assert status == cli.EXIT_OK
        assert "counts" in report


class TestGateBudget:
    """A run needing more than ``cli.GATE_BUDGET`` gates is refused before
    anything is built: a report's share (the first controlled multiplier
    and two inverse transforms) in either kind of run, plus the whole
    order-finding program in a factoring run and the whole ladder when a
    circuit dump is asked for."""

    @pytest.mark.parametrize("n,m", [(128, 256), (4, 1000), (32, 64)])
    def test_admitted(self, n, m):
        assert cli.gate_budget_error(n, m) is None

    def test_refusal_names_the_limit(self):
        error = cli.gate_budget_error(4, 2000)  # 4,003,096 gates
        assert error.endswith(f"over the budget of {1 << 21}")

    def test_bound_is_inclusive(self, monkeypatch):
        built = gate_count_formula("M", 4) + 2 * gate_count_formula(
            "QFT_inv", 4, 4)
        monkeypatch.setattr(cli, "GATE_BUDGET", built)
        assert cli.gate_budget_error(4, 4) is None
        monkeypatch.setattr(cli, "GATE_BUDGET", built - 1)
        assert cli.gate_budget_error(4, 4) is not None

    @pytest.mark.parametrize("counts_only", [True, False])
    def test_run_refuses_before_building(self, monkeypatch, counts_only):
        monkeypatch.setattr(cli, "GATE_BUDGET", 1000)
        for name in ("_counts_section", "build_cm_m"):
            monkeypatch.setattr(cli, name, None)  # never reached
        monkeypatch.setattr(shor, "factor", None)
        status, report = cli.run(cli.RunConfig(N=15, a=7, m=4,
                                               counts_only=counts_only))
        assert status == cli.EXIT_EXHAUSTED
        assert report["error"].startswith("n = 4, m = 4 builds 1116 gates")
        assert "counts" not in report

    def test_factoring_run_counts_its_whole_program(self):
        # n = 60, m = 16: the report's share fits, the ladder's sixteen
        # multipliers (16 * 251,640 gates) do not
        assert cli.gate_budget_error(60, 16) is None
        error = cli.gate_budget_error(60, 16, factoring=True)
        assert error == (
            "n = 60, m = 16 builds 251912 gates for its report and 4026392 "
            "for its order-finding program, 4278304 in all, over the "
            f"budget of {1 << 21}")

    def test_factoring_bound_is_inclusive(self, monkeypatch):
        built = (gate_count_formula("M", 4)
                 + 2 * gate_count_formula("QFT_inv", 4, 8)
                 + gate_count_formula("SHOR", 4, 8))
        monkeypatch.setattr(cli, "GATE_BUDGET", built)
        assert cli.gate_budget_error(4, 8, factoring=True) is None
        monkeypatch.setattr(cli, "GATE_BUDGET", built - 1)
        assert cli.gate_budget_error(4, 8, factoring=True) is not None
        assert cli.gate_budget_error(4, 8) is None

    def test_factoring_run_refused_before_building(self, monkeypatch):
        for name in ("_counts_section", "build_cm_m"):
            monkeypatch.setattr(cli, name, None)  # never reached
        monkeypatch.setattr(shor, "factor", None)
        status, report = cli.run(cli.RunConfig(N=(1 << 60) - 1, a=2, m=16))
        assert status == cli.EXIT_EXHAUSTED
        assert "4026392 for its order-finding program" in report["error"]
        assert "counts" not in report

    def test_dump_counts_its_ladder(self):
        # n = 32, m = 64: the report's share fits, the dumped ladder's 64
        # multipliers (64 * 71,488 gates) do not
        assert cli.gate_budget_error(32, 64) is None
        assert cli.gate_budget_error(32, 64, dump=True) == (
            "n = 32, m = 64 builds 75648 gates for its report and 4575232 "
            "for its circuit dump, 4650880 in all, over the budget of "
            f"{1 << 21}")
        assert cli.gate_budget_error(60, 16, factoring=True, dump=True) == (
            "n = 60, m = 16 builds 251912 gates for its report, 4026392 for "
            "its order-finding program and 4026240 for its circuit dump, "
            f"8304544 in all, over the budget of {1 << 21}")

    def test_dump_refused_before_building(self, tmp_path, monkeypatch):
        # 1168 gates for the report fit, 8768 more for the ladder do not
        monkeypatch.setattr(cli, "GATE_BUDGET", 5000)
        for name in ("_counts_section", "build_cm_m"):
            monkeypatch.setattr(cli, name, None)  # never reached
        dump_path = tmp_path / "ladder.txt"
        status, report = run_cli(tmp_path, "--N", "15", "--a", "7", "--m",
                                 "8", "--counts-only", "--dump-circuit",
                                 str(dump_path))
        assert status == cli.EXIT_EXHAUSTED
        assert "8768 for its circuit dump" in report["error"]
        assert not dump_path.exists()

    def test_large_m_count_report_exits_three(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_counts_section", None)  # never reached
        status, report = run_cli(tmp_path, "--N", "15", "--m", "5000",
                                 "--counts-only")
        assert status == cli.EXIT_EXHAUSTED
        assert "budget of 2097152" in report["error"]


class TestDeterminism:
    def test_reports_identical_modulo_wall_time(self, tmp_path):
        _, first = run_cli(tmp_path, "--N", "15", "--a", "7", "--m", "8",
                           "--seed", "5")
        _, second = run_cli(tmp_path, "--N", "15", "--a", "7", "--m", "8",
                            "--seed", "5")
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert json.dumps(first, sort_keys=False) == \
            json.dumps(second, sort_keys=False)


class TestDump:
    def test_circuit_dump_written(self, tmp_path):
        dump_path = tmp_path / "ladder.txt"
        report = tmp_path / "report.json"
        status = cli.main(["--N", "15", "--a", "7", "--m", "2",
                           "--seed", "1", "--report", str(report),
                           "--dump-circuit", str(dump_path)])
        assert status == cli.EXIT_OK
        lines = dump_path.read_text().splitlines()
        assert len(lines) > 2000  # two multiplier blocks
        assert all(line.count(" | ") == 4 for line in lines)
