import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratesched.allocation
from ratesched import (
    GainMatrix,
    NodeSpec,
    ValidationError,
    Verdict,
    brute_force_optimal,
    build_rate_table,
    check_rate_vector,
    check_targets,
    continuous_optimal,
    disc4_table,
    disc8_table,
    lttf,
)

from helpers import TABLE1_RADIO, random_instance, random_rate_indices

DISC4 = disc4_table(1e8)
DISC8 = disc8_table(1e8)


def _node(i=0, bits=100.0, delay=1e-3, energy=math.inf, ctrl=None):
    return NodeSpec(
        id=i, controller_id=ctrl if ctrl is not None else i, packet_bits=bits,
        period=1, delay_bound=delay, energy_budget=energy,
    )


class TestLttf:
    def test_single_node_walks_to_top(self):
        # 0.1 W suffices for the 30 dB level, so the walk ends at the top rate
        res = lttf([_node()], GainMatrix([[1e-4]]), DISC4, TABLE1_RADIO)
        assert res.feasible
        assert res.rates == (DISC4.rate(2),)
        assert res.slot == 100.0 / DISC4.rate(2)

    def test_single_node_stops_at_power_limit(self):
        # the 20 dB level would need 1 W; the walk reverts to the 10 dB level
        res = lttf([_node()], GainMatrix([[1e-6]]), DISC4, TABLE1_RADIO)
        assert res.feasible
        assert res.rates == (DISC4.rate(0),)

    def test_no_level_meets_delay(self):
        res = lttf([_node(delay=1e-9)], GainMatrix([[1e-4]]), DISC4, TABLE1_RADIO)
        assert not res.feasible
        assert res.slot == math.inf
        assert res.rates is None

    def test_infeasible_initial_vector(self):
        # solo SNR is only 4 dB, below every disc4 level
        res = lttf([_node()], GainMatrix([[1e-7]]), DISC4, TABLE1_RADIO)
        assert not res.feasible
        assert res.slot == math.inf

    def test_result_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            nodes, gains = random_instance(rng, n, DISC8, tight_delay_prob=0.3)
            res = lttf(nodes, gains, DISC8, TABLE1_RADIO)
            if not res.feasible:
                continue
            for node, rate, t in zip(nodes, res.rates, res.times):
                assert t == node.packet_bits / rate
            assert res.slot == max(res.times)
            assert all(p <= TABLE1_RADIO.p_max for p in res.powers)

    def test_check_budget(self, monkeypatch):
        # the ladder walk performs at most num_levels * n feasibility checks,
        # and at least one once every link has a level within its delay bound
        rng = np.random.default_rng(12)
        calls = 0

        def counting_check(*args, **kwargs):
            nonlocal calls
            calls += 1
            return check_targets(*args, **kwargs)

        monkeypatch.setattr(ratesched.allocation, "check_targets", counting_check)
        walks = 0
        for _ in range(50):
            n = int(rng.integers(1, 4))
            nodes, gains = random_instance(rng, n, DISC8, tight_delay_prob=0.2)
            calls = 0
            lttf(nodes, gains, DISC8, TABLE1_RADIO)
            starts = all(
                DISC8.lowest_level_within(node.packet_bits, node.delay_bound) is not None
                for node in nodes
            )
            assert (calls >= 1) == starts
            assert calls <= DISC8.num_levels * n
            walks += starts
        assert walks >= 25

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 4),
        table=st.sampled_from([DISC4, DISC8]),
        energy_prob=st.sampled_from([0.0, 0.5, 1.0]),
        loose_delay=st.sampled_from([1e-3, 2e-6]),
    )
    def test_walk_agrees_with_the_rate_vector_check(
        self, seed, k, table, energy_prob, loose_delay
    ):
        # lttf checks level vectors itself; the public rate-based check must
        # find each of its results feasible at the very same minimum powers
        rng = np.random.default_rng(seed)
        nodes, gains = random_instance(
            rng, 6, table, tight_delay_prob=0.3, binding_energy_prob=energy_prob,
            loose_delay=loose_delay,
        )
        idx = sorted(int(i) for i in rng.choice(6, size=k, replace=False))
        subset, sub_gains = [nodes[i] for i in idx], gains.sub(idx)
        res = lttf(subset, sub_gains, table, TABLE1_RADIO)
        if not res.feasible:
            return
        rep = check_rate_vector(subset, sub_gains, res.rates, table, TABLE1_RADIO)
        assert rep.verdict is Verdict.FEASIBLE
        assert [p.hex() for p in rep.min_powers] == [p.hex() for p in res.powers]
        for node, rate, t in zip(subset, res.rates, res.times):
            assert t == node.packet_bits / rate


class TestBruteForceOracle:
    def test_guards(self):
        rng = np.random.default_rng(13)
        nodes, gains = random_instance(rng, 5, DISC4)
        with pytest.raises(ValidationError, match="4 links"):
            brute_force_optimal(nodes, gains, DISC4, TABLE1_RADIO)
        wide = build_rate_table([0, 5, 10, 15, 20, 25, 30, 35, 40], 1e8)
        one, g1 = random_instance(rng, 1, wide)
        with pytest.raises(ValidationError, match="8 rate levels"):
            brute_force_optimal(one, g1, wide, TABLE1_RADIO)

    def test_single_node_matches_lttf(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            nodes, gains = random_instance(rng, 1, DISC8, tight_delay_prob=0.3)
            a = lttf(nodes, gains, DISC8, TABLE1_RADIO)
            b = brute_force_optimal(nodes, gains, DISC8, TABLE1_RADIO)
            assert a.slot == b.slot
            assert a.rates == b.rates

    def test_power_infeasible_instance(self):
        res = brute_force_optimal(
            [_node()], GainMatrix([[1e-7]]), DISC4, TABLE1_RADIO
        )
        assert not res.feasible and res.slot == math.inf

    def test_two_links_delay_forced_optimum(self):
        # Hand enumeration of all 9 disc4 vectors for this symmetric pair
        # (g_ii = 1e-5, g_ij = 5e-8, beta = 5e-3, N0 = 1e-8, p_max = 0.25):
        #   spectral radius  sqrt(g1*g2) * beta  kills every vector with
        #     g1*g2 >= 1e5  -> (10dB,30dB) pairs with 20/30dB and (30,30);
        #   p_i = 1e-3*(g_i + g_i*g_j*beta) / (1 - g_1*g_2*beta^2) puts every
        #     30 dB vector above p_max (>= 1.4 W);
        #   node 2's 1.6e-7 s delay rejects its 10 dB level (2.89e-7 s).
        # Feasible survivors: levels (0,1) and (1,1), both with slot
        # 100/665821148.2751795 s, so the optimum is node 2's delay-forced
        # transmission time and the lexicographic tie-break picks (0, 1).
        nodes = [
            _node(0, bits=50.0, delay=1e-3),
            _node(1, bits=100.0, delay=1.6e-7),
        ]
        gains = GainMatrix([[1e-5, 5e-8], [5e-8, 1e-5]])
        expected_slot = 100.0 / 665821148.2751795
        best = brute_force_optimal(nodes, gains, DISC4, TABLE1_RADIO)
        assert best.feasible
        assert best.slot == pytest.approx(expected_slot, rel=1e-12)
        assert best.rates == (DISC4.rate(0), DISC4.rate(1))
        walked = lttf(nodes, gains, DISC4, TABLE1_RADIO)
        assert walked.slot == best.slot
        assert walked.rates == best.rates

    def test_matches_lttf_on_random_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            n = int(rng.integers(2, 4))
            table = DISC4 if rng.random() < 0.5 else DISC8
            nodes, gains = random_instance(
                rng, n, table, tight_delay_prob=0.25, binding_energy_prob=0.2
            )
            a = lttf(nodes, gains, table, TABLE1_RADIO)
            b = brute_force_optimal(nodes, gains, table, TABLE1_RADIO)
            assert a.slot == b.slot


class TestContinuousOptimal:
    def test_single_link_closed_form(self):
        # power-limited: t = R / (W * log2(1 + p_max * g / N0))
        res = continuous_optimal([_node()], GainMatrix([[1e-6]]), TABLE1_RADIO)
        expected = 100.0 / (1e8 * math.log2(1.0 + 0.25 * 1e-6 / 1e-8))
        assert res.feasible
        assert res.slot == pytest.approx(expected, rel=1.1e-6)

    def test_decoupled_pair_matches_single_link_bound(self):
        nodes = [_node(0, bits=100.0), _node(1, bits=50.0)]
        gains = GainMatrix([[1e-6, 1e-15], [1e-15, 1e-6]])
        res = continuous_optimal(nodes, gains, TABLE1_RADIO)
        singles = [
            b / (1e8 * math.log2(1.0 + 0.25 * 1e-6 / 1e-8)) for b in (100.0, 50.0)
        ]
        assert res.slot == pytest.approx(max(singles), rel=2e-6)

    def test_delay_infeasible(self):
        res = continuous_optimal([_node(delay=1e-9)], GainMatrix([[1e-6]]), TABLE1_RADIO)
        assert not res.feasible and res.slot == math.inf

    def test_energy_bound_matches_single_link_oracle(self):
        # Independent oracle: with one link the energy product
        # t * (N0/g) * (2**(R/(t*W)) - 1) strictly decreases in t, so the
        # optimum is the unique root of t * (2**(R/(t*W)) - 1) = e*g/N0,
        # found here by plain bisection.
        e = 2e-8
        g, bits = 1e-6, 100.0
        target = e * g / TABLE1_RADIO.noise_power

        def product(t):
            return t * (2.0 ** (bits / (t * TABLE1_RADIO.bandwidth_hz)) - 1.0)

        lo, hi = 1e-9, 1e-2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if product(mid) > target:
                lo = mid
            else:
                hi = mid
        t_oracle = 0.5 * (lo + hi)

        res = continuous_optimal(
            [_node(energy=e)], GainMatrix([[g]]), TABLE1_RADIO
        )
        assert res.feasible
        assert res.slot == pytest.approx(t_oracle, rel=3e-6)
        # energy constraint holds at the returned point
        assert res.slot * res.powers[0] <= e * (1 + 1e-9)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 4),
        energy_prob=st.floats(0.25, 1.0),
        tight_delay_prob=st.sampled_from([0.0, 0.5]),
        loose_delay=st.sampled_from([1e-3, 2e-6]),
    )
    def test_single_bisection_is_exact(
        self, seed, k, energy_prob, tight_delay_prob, loose_delay
    ):
        # The ordered check is monotone in the slot length (feasible slots
        # form one interval ending at the tightest delay bound), so the
        # bisection result sits within a relative 1e-6 above the boundary.
        # The two loose delays give a wide and a narrow bracket [t_lo, t_hi].
        rng = np.random.default_rng(seed)
        nodes, gains = random_instance(
            rng, k, DISC8, tight_delay_prob=tight_delay_prob,
            binding_energy_prob=energy_prob, loose_delay=loose_delay,
        )
        bits = np.array([n.packet_bits for n in nodes])
        delays = np.array([n.delay_bound for n in nodes])
        energies = np.array([n.energy_budget for n in nodes])
        radio = TABLE1_RADIO

        def feasible(t):
            with np.errstate(over="ignore"):
                targets = ratesched.allocation._capacity_targets(
                    bits, t, radio.bandwidth_hz
                )
            return check_targets(
                gains, targets, radio, np.full(k, t), delays, energies
            ).feasible

        snr_cap = radio.p_max * np.diag(gains.g) / radio.noise_power
        t_lo = float(np.max(bits / (radio.bandwidth_hz * np.log2(1.0 + snr_cap))))
        t_hi = float(np.min(delays))
        res = continuous_optimal(nodes, gains, radio)
        if t_lo > t_hi:
            assert not res.feasible
            return
        grid = [feasible(float(t)) for t in np.geomspace(t_lo, t_hi, 60)]
        first = grid.index(True) if True in grid else len(grid)
        assert all(grid[first:]), "feasibility not monotone in the slot length"
        assert res.feasible == grid[-1]
        if res.feasible:
            assert feasible(res.slot)
            if res.slot != t_lo:
                assert not feasible(res.slot * (1 - 2e-6))

    def test_energy_all_infeasible(self):
        res = continuous_optimal(
            [_node(energy=1e-12)], GainMatrix([[1e-6]]), TABLE1_RADIO
        )
        assert not res.feasible

    def test_never_above_discrete_optimum(self):
        # equal delay bounds make the discrete optimum continuous-feasible
        rng = np.random.default_rng(16)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            nodes, gains = random_instance(rng, n, DISC8)
            disc = brute_force_optimal(nodes, gains, DISC8, TABLE1_RADIO)
            cont = continuous_optimal(nodes, gains, TABLE1_RADIO)
            if disc.feasible:
                assert cont.slot <= disc.slot
            # nested ladders: every disc4 vector is a disc8 vector
            disc4 = brute_force_optimal(nodes, gains, DISC4, TABLE1_RADIO)
            assert disc.slot <= disc4.slot


class TestSlotRatioProperties:
    def test_lowering_rates_never_shrinks_the_slot(self):
        # pure max-ratio statement, independent of feasibility
        rng = np.random.default_rng(17)
        for _ in range(2000):
            n = int(rng.integers(1, 5))
            bits = rng.choice([50.0, 100.0], size=n)
            upper = random_rate_indices(rng, n, DISC8.num_levels)
            if all(q == 0 for q in upper):
                continue
            lower = [int(rng.integers(0, q + 1)) for q in upper]
            t_up = max(b / DISC8.rate(q) for b, q in zip(bits, upper))
            t_low = max(b / DISC8.rate(q) for b, q in zip(bits, lower))
            assert t_low >= t_up

    def test_raising_non_bottleneck_rate_keeps_the_slot(self):
        rng = np.random.default_rng(18)
        for _ in range(2000):
            n = int(rng.integers(2, 5))
            bits = rng.choice([50.0, 100.0], size=n)
            idx = random_rate_indices(rng, n, DISC8.num_levels)
            times = [b / DISC8.rate(q) for b, q in zip(bits, idx)]
            j = max(range(n), key=lambda i: (times[i], -i))
            candidates = [k for k in range(n) if k != j and idx[k] < DISC8.num_levels - 1]
            if not candidates:
                continue
            k = candidates[int(rng.integers(0, len(candidates)))]
            bumped = list(idx)
            bumped[k] += 1
            t_new = max(b / DISC8.rate(q) for b, q in zip(bits, bumped))
            assert t_new >= max(times)
