"""Order finding and factoring: continued fractions, estimation
statistics, verified orders, end-to-end factorizations."""

import math
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import reference_execute
from distshor import cli, gates, partition, shor
from distshor.circuit import Circuit
from distshor.qft import build_inverse_qft
from distshor.qstate import QuantumState, RandomSource
from distshor.shor import (classical_rejection, continued_fraction, factor,
                           find_order, is_prime, order_candidates,
                           phase_estimate, prepare_phase_state,
                           prime_power_root, run_order_circuit)


class TestContinuedFraction:
    def test_three_quarters(self):
        assert continued_fraction(192, 256, 15) == [1, 4]

    def test_zero_estimate_is_uninformative(self):
        assert continued_fraction(0, 256, 15) == []

    def test_near_third(self):
        assert 3 in continued_fraction(85, 256, 15)

    def test_denominators_bounded_and_sorted(self):
        for j in range(1, 256, 17):
            dens = continued_fraction(j, 256, 15)
            assert dens == sorted(dens)
            assert all(1 <= d < 15 for d in dens)

    def test_exact_recovery_for_dyadic_phases(self):
        # j/2^m = t/r in lowest terms appears among the denominators
        for t, r in [(1, 4), (3, 4), (1, 2), (5, 8)]:
            j = t * 256 // r
            assert r // math.gcd(t, r) in continued_fraction(j, 256, 300)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            continued_fraction(256, 256, 15)

    def test_candidates_include_multiples(self):
        # denominator 2 with multiples recovers 4 from the half-phase peak
        cands = order_candidates(128, 8, 15)
        assert 2 in cands and 4 in cands


class TestPhaseEstimation:
    def test_exact_half_phase(self):
        def power(i, ctrl):
            circ = Circuit(2)
            if i == 0:  # squares of a sign flip are the identity
                circ.gate(gates.Z, [0], [(ctrl, True)])
            return circ

        prep = Circuit(1)
        prep.x(0)
        est = phase_estimate(power, prep, 1, 1, RandomSource(3))
        assert est.j == 1 and est.theta == 0.5

    def test_exact_quarter_phase(self):
        def power(i, ctrl):
            circ = Circuit(3)
            for _ in range((1 << i) % 4):
                circ.gate(gates.R(2), [0], [(ctrl, True)])
            return circ

        prep = Circuit(1)
        prep.x(0)
        for seed in range(5):
            est = phase_estimate(power, prep, 2, 1, RandomSource(seed))
            assert est.j == 1

    def test_third_phase_peak_and_bound(self):
        def power(i, ctrl):
            circ = Circuit(5)
            circ.gate(gates.phase_gate((1 << i) % 3, 3), [0],
                      [(ctrl, True)])
            return circ

        prep = Circuit(1)
        prep.x(0)
        state = prepare_phase_state(power, prep, 4, 1)
        dist = state.exact_distribution([1, 2, 3, 4])

        # independent oracle: |sum_k e^{2 pi i k (theta - j/16)}|^2 / 16^2
        def predicted(j):
            delta = 1.0 / 3.0 - j / 16.0
            if abs(delta) < 1e-15:
                return 1.0
            num = math.sin(math.pi * 16 * delta) ** 2
            den = math.sin(math.pi * delta) ** 2
            return num / den / 256.0

        for j in range(16):
            assert abs(dist.get(j, 0.0) - predicted(j)) < 1e-12
        best = max(range(16), key=predicted)
        assert best == 5  # 5/16 is the closest 4-bit fraction to 1/3
        assert dist[best] >= 4 / math.pi**2

    def test_superposed_preparation_runs_unbounded(self):
        """A preparation wider than order finding's |1>: H on three target
        qubits gives support 8 times the estimation register's, which the
        order-finding support bound would refuse."""
        def power(i, ctrl):
            return Circuit(4)  # the identity

        prep = Circuit(3)
        for q in range(3):
            prep.h(q)
        skeleton = Circuit(4)
        skeleton.extend(prep)
        skeleton.h(3)
        skeleton.extend(build_inverse_qft([3], num_qubits=4))
        ref = QuantumState(4)
        reference_execute(skeleton, ref)

        state = prepare_phase_state(power, prep, 1, 3)
        assert list(state.amplitudes.items()) == \
            list(ref.amplitudes.items())
        assert len(state.amplitudes) == 8
        est = phase_estimate(power, prep, 1, 3, RandomSource(0))
        assert est.j == 0


def fejer_order_distribution(r: int, m: int) -> dict[int, float]:
    """P(j) for order finding on |1>: the mean over s of the estimation
    kernel |2^-m sum_k e^{2 pi i k (s/r - j/2^m)}|^2, in closed form with
    the numerator of 2^m (s/r - j/2^m) kept an exact integer."""
    size = 1 << m
    dist = {}
    for j in range(size):
        total = 0.0
        for s in range(r):
            num = s * size - j * r  # 2^m (s/r - j/2^m) = num / r
            if num == 0:
                total += 1.0
            else:
                total += (math.sin(math.pi * num / r)
                          / math.sin(math.pi * num / (r * size)) / size) ** 2
        dist[j] = total / r
    return dist


class TestOrderFindingStatistics:
    """The order-finding program's first-register distribution when r does
    not divide 2^m, so every s/r other than 0 falls between grid points."""

    @pytest.mark.parametrize("a,N,m,r", [(2, 21, 6, 6), (2, 21, 8, 6),
                                         (2, 33, 8, 10)])
    def test_distribution_matches_estimation_kernel(self, a, N, m, r):
        assert pow(a, r, N) == 1 and (1 << m) % r != 0
        dist = run_order_circuit(a, N, m,
                                 RandomSource(1)).first_register_distribution()
        predicted = fejer_order_distribution(r, m)
        assert set(dist) <= set(predicted)
        for j, p in predicted.items():
            assert abs(dist.get(j, 0.0) - p) < 1e-12


class TestFindOrder:
    def test_order_of_seven_mod_fifteen(self):
        res = find_order(7, 15, 8, RandomSource(1))
        assert res.r == 4
        assert res.rounds_used <= 4

    def test_order_of_four_mod_fifteen(self):
        res = find_order(4, 15, 8, RandomSource(2))
        assert res.r == 2

    def test_order_of_two_mod_twentyone(self):
        res = find_order(2, 21, 10, RandomSource(5))
        assert res.r == 6

    def test_returned_order_is_minimal(self):
        for a, N, seed in [(7, 15, 1), (4, 15, 2), (2, 15, 3), (8, 15, 4)]:
            res = find_order(a, N, 8, RandomSource(seed))
            assert res.r is not None
            assert pow(a, res.r, N) == 1
            for smaller in range(1, res.r):
                assert pow(a, smaller, N) != 1

    def test_transcript_records_each_round(self):
        res = find_order(7, 15, 8, RandomSource(1))
        assert len(res.transcript) == res.rounds_used
        assert res.transcript[-1].r_found == res.r

    def test_invalid_base_rejected(self):
        with pytest.raises(ValueError):
            find_order(5, 15, 8, RandomSource(0))  # shares a factor
        with pytest.raises(ValueError):
            find_order(1, 15, 8, RandomSource(0))

    @pytest.mark.parametrize("m", [0, -1])
    def test_nonpositive_width_rejected_before_building(self, monkeypatch,
                                                        m):
        def no_build(*args):
            raise AssertionError("circuits built for an invalid width")

        monkeypatch.setattr(shor, "order_round", no_build)
        with pytest.raises(ValueError, match=f"m must be at least 1, got {m}"):
            find_order(7, 15, m, RandomSource(0))

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_nonpositive_round_budget_rejected_before_building(
            self, monkeypatch, rounds):
        def no_build(*args):
            raise AssertionError("circuits built for an empty budget")

        monkeypatch.setattr(shor, "order_round", no_build)
        with pytest.raises(ValueError,
                           match=f"max_rounds must be at least 1, "
                                 f"got {rounds}"):
            find_order(7, 15, 8, RandomSource(0), max_rounds=rounds)

    def test_success_rate_over_many_rounds(self, mono_run_15):
        """Round-level success statistics for the 15/7 instance.

        Estimates land uniformly on {0, 64, 128, 192}; every nonzero peak
        recovers the order through the convergents (128 via the doubled
        denominator), so about three rounds in four succeed.
        """
        dist = mono_run_15.first_register_distribution()
        values = sorted(dist)
        weights = [dist[v] for v in values]
        rng = RandomSource(99)
        successes = 0
        rounds = 400
        for _ in range(rounds):
            u = rng.uniform()
            acc = 0.0
            j = values[-1]
            for v, w in zip(values, weights):
                acc += w
                if u < acc:
                    j = v
                    break
            found = next((e for e in order_candidates(j, 8, 15)
                          if pow(7, e, 15) == 1), None)
            if found is not None:
                successes += 1
        assert successes / rounds >= 0.5


def count_calls(monkeypatch, module, name) -> list:
    """Replace ``module.name`` with a wrapper that records each call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestBuildOnce:
    """find_order builds a round's circuits once per call and runs them
    again in every round; the rounds must read as if rebuilt each time."""

    @pytest.mark.parametrize("mode,rounds", [("monolithic", 3),
                                             ("distributed", 5)])
    def test_rounds_match_rebuilding_every_round(self, mode, rounds):
        res = find_order(7, 15, 1, RandomSource(0), mode=mode)
        assert res.rounds_used == rounds and res.r == 4
        rng = RandomSource(0)
        js = []
        for _ in range(rounds):
            run = run_order_circuit(7, 15, 1, rng, mode)
            js.append(run.measure_first_register(rng))
        assert [rnd.j for rnd in res.transcript] == js

    def test_monolithic_builds_once(self, monkeypatch):
        parts = count_calls(monkeypatch, shor, "order_circuit_parts")
        ladders = count_calls(monkeypatch, shor, "build_cm_m")
        res = find_order(7, 15, 1, RandomSource(0))
        assert res.rounds_used == 3
        assert (len(parts), len(ladders)) == (1, 1)

    def test_distributed_builds_once(self, monkeypatch):
        names = ("plan_placement", "build_cm_m",
                 "build_distributed_modexp_program",
                 "build_distributed_transform_program",
                 "build_distributed_order_program")
        calls = {name: count_calls(monkeypatch, partition, name)
                 for name in names}
        res = find_order(7, 15, 1, RandomSource(0), mode="distributed")
        assert res.rounds_used == 5
        assert [len(calls[name]) for name in names] == [1, 1, 1, 1, 0]


class TestReportBuilds:
    """A factoring report never builds the whole distributed program: its
    counts section builds the ladder's first controlled multiplier."""

    @pytest.mark.parametrize("mode", ["monolithic", "distributed"])
    def test_counts_section_builds_one_multiplier(self, monkeypatch, mode):
        programs = count_calls(monkeypatch, partition,
                               "build_distributed_order_program")
        ladders = count_calls(monkeypatch, cli, "build_cm_m")
        status, report = cli.run(cli.RunConfig(N=15, a=7, m=2, mode=mode,
                                               seed=1))
        assert status == cli.EXIT_OK and "counts" in report
        assert len(programs) == 0
        assert [args[2] for args in ladders] == [1]


class TestAdmission:
    """One check of the support bound 4 * 2^m before anything is built;
    only called directly, never by running an oversized case."""

    def test_budget_admits_up_to_sixteen_qubits(self):
        assert shor.admission_error(16) is None
        error = shor.admission_error(17)
        assert error is not None
        assert str(shor.SUPPORT_BUDGET) in error and "m <= 16" in error

    def test_budget_admits_every_benchmark_job(self, monkeypatch):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parent.parent / "perfbench"))
        from workloads import WORKLOADS

        widths = [m for w in WORKLOADS.values() if not w.counts_only
                  for _N, m in w.strata]
        assert all(shor.admission_error(m) is None for m in widths)

    def test_find_order_refuses_before_building(self, monkeypatch):
        monkeypatch.setattr(shor, "SUPPORT_BUDGET", 4 << 3)
        rounds = count_calls(monkeypatch, shor, "order_round")
        with pytest.raises(ValueError, match="budget of 32"):
            find_order(7, 15, 4, RandomSource(0))
        assert rounds == []


class TestRunKernel:
    """The monolithic order-finding state, executed with the permutation
    run kernel, equals the one every gate applied one at a time gives:
    same keys, same values, same entry order."""

    @pytest.mark.parametrize("N,a,m", [(15, 7, 6), (15, 7, 8), (21, 2, 8),
                                       (21, 2, 10)])
    def test_pre_measurement_state_matches_reference(self, N, a, m):
        modexp, transform, layout = shor.order_circuit_parts(a, N, m)
        ref = QuantumState(layout.num_data_qubits)
        for circ in (modexp, transform):
            reference_execute(circ, ref)
        run = run_order_circuit(a, N, m, RandomSource(1))
        assert list(run.state.amplitudes.items()) == \
            list(ref.amplitudes.items())
        assert run.state.peak_support == ref.peak_support


class TestModeEquivalence:
    def test_first_register_distribution_small_instance(self):
        mono = run_order_circuit(7, 15, 4, RandomSource(4), "monolithic")
        dist = run_order_circuit(7, 15, 4, RandomSource(4), "distributed")
        dm = mono.first_register_distribution()
        dd = dist.first_register_distribution()
        for key in set(dm) | set(dd):
            assert abs(dm.get(key, 0) - dd.get(key, 0)) < 1e-9


SMALL_ODD_PRIMES = [p for p in range(3, 60) if is_prime(p)]


class TestFactor:
    def test_fifteen_with_fixed_base(self):
        out = factor(15, RandomSource(1), a=7, m=8)
        assert sorted(out.factors) == [3, 5]
        assert out.attempts == [7]

    def test_twentyone_with_fixed_base(self):
        out = factor(21, RandomSource(3), a=2, m=10)
        assert sorted(out.factors) == [3, 7]

    def test_random_base_path(self):
        out = factor(15, RandomSource(17), m=8)
        assert out.factors is not None
        assert math.prod(out.factors) == 15

    def test_shared_factor_shortcut(self):
        out = factor(15, RandomSource(0), a=None, m=8, max_attempts=50)
        # whichever way it resolves, the product must check out
        assert math.prod(out.factors) == 15

    def test_prime_power_rejected_classically(self):
        out = factor(9, RandomSource(0))
        assert out.factors is None
        assert "prime power" in out.failure
        assert out.order_results == []  # no quantum execution

    def test_even_and_prime_rejected(self):
        assert classical_rejection(16) == "N must be odd"
        assert classical_rejection(13) == "N is prime"
        assert classical_rejection(9) == "N is a prime power"
        assert classical_rejection(15) is None

    def test_powers_of_composites_pass_the_classical_check(self):
        for N in (225, 441, 1089, 3025):  # 15^2, 21^2, 33^2, 55^2
            assert classical_rejection(N) is None
        for N in (81, 3**5, 7**3, 11**2):
            assert classical_rejection(N) == "N is a prime power"

    @given(st.lists(st.sampled_from(SMALL_ODD_PRIMES), min_size=2,
                    max_size=2, unique=True),
           st.integers(min_value=2, max_value=4))
    def test_prime_powers_rejected_composite_powers_not(self, primes, k):
        p, q = primes
        assert classical_rejection(p**k) == "N is a prime power"
        assert classical_rejection((p * q)**k) is None

    def test_odd_base_failure_retries(self):
        # base 14 has order 2 with 14 = -1 mod 15: the reduction fails and
        # a new base must be drawn
        out = factor(15, RandomSource(8), m=8, max_attempts=6)
        if out.factors is not None:
            assert math.prod(out.factors) == 15


def trial_division_is_prime(N: int) -> bool:
    return N >= 2 and all(N % f for f in range(2, math.isqrt(N) + 1))


class TestIsPrime:
    @given(st.integers(min_value=-2, max_value=10**6))
    def test_matches_trial_division(self, N):
        assert is_prime(N) == trial_division_is_prime(N)

    @pytest.mark.parametrize("N", [2047, 1373653, 25326001, 3215031751,
                                   561, 41041])
    def test_pseudoprimes_and_carmichael_numbers_are_composite(self, N):
        # strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; 2, 3, 5, 7;
        # then the Carmichael numbers 561 and 41041
        assert not is_prime(N)

    def test_large_inputs_answer_at_once(self):
        started = time.perf_counter()
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1)**2)
        assert classical_rejection((2**31 - 1)**2) == "N is a prime power"
        assert time.perf_counter() - started < 0.5


def smallest_power_base(N: int) -> int | None:
    """Brute-force reference: the least b >= 2 with N = b^k, k >= 2."""
    for b in range(2, math.isqrt(N) + 1):
        power = b * b
        while power < N:
            power *= b
        if power == N:
            return b
    return None


class TestPrimePowerRoot:
    def test_beyond_float_range(self):
        # N ** (1/k) overflows a float above ~2^1024
        p = 2**521 - 1
        assert prime_power_root(p**2) == p
        assert prime_power_root(p**3) == p
        assert prime_power_root(p**2 + 2) is None

    @given(st.sampled_from([p for p in range(2, 200) if is_prime(p)]),
           st.integers(min_value=2, max_value=12))
    def test_prime_powers(self, p, k):
        assert prime_power_root(p**k) == p

    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_brute_force(self, N):
        assert prime_power_root(N) == smallest_power_base(N)
