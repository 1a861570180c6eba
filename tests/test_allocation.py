import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
import ratesched.allocation
from ratesched import (
    OVER_CAP,
    AllocationResult,
    GainMatrix,
    InfeasibleInstanceError,
    NodeSpec,
    NumericalError,
    RadioConfig,
    RateTable,
    TablePricer,
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
    validate_instance,
)
from ratesched.allocation import continuous_solos, solo_guess

from helpers import (
    TABLE1_RADIO,
    bisection_cell,
    frozen_continuous_optimal,
    gain_array,
    near_singular_links,
    outcome,
    pricing_instances,
    random_instance,
)

DISC4 = disc4_table(1e8)
DISC8 = disc8_table(1e8)


def frozen_lttf(nodes, gains, table, radio):
    """The linear ladder walk, frozen as the reference for ``lttf``: it checks
    every vector along the path until one is infeasible."""
    nodes = list(nodes)
    top = table.num_levels - 1
    levels = []
    for n in nodes:
        q = table.lowest_level_within(n.packet_bits, n.delay_bound)
        if q is None:
            return AllocationResult.infeasible()
        levels.append(q)
    bits = [n.packet_bits for n in nodes]
    delays = [n.delay_bound for n in nodes]
    energies = [n.energy_budget for n in nodes]
    best = None
    while True:
        rates = [table.rate(q) for q in levels]
        times = [b / r for b, r in zip(bits, rates)]
        targets = [table.threshold(q) for q in levels]
        report = check_targets(gains, targets, radio, times, delays, energies)
        if not report.feasible:
            break
        best = rates, times, report
        j = max(range(len(nodes)), key=lambda i: (times[i], -i))
        if levels[j] == top:
            break
        levels[j] += 1
    if best is None:
        return AllocationResult.infeasible()
    rates, times, report = best
    return AllocationResult(
        feasible=True, slot=max(times), rates=tuple(rates), powers=report.min_powers,
        times=tuple(times),
    )


def interference_free_slot(nodes, gains, radio):
    """``continuous_optimal``'s t_lo: the largest of the links' floors."""
    return max(t for t, _ in ratesched.allocation.continuous_solos(nodes, gains, radio))


def level_path(nodes, table):
    """Every level vector the ladder walk can visit, feasible or not: the
    longest-time link rises one level until it sits at the top."""
    levels = [table.lowest_level_within(n.packet_bits, n.delay_bound) for n in nodes]
    if None in levels:
        return []
    path = [tuple(levels)]
    while True:
        times = [n.packet_bits / table.rate(q) for n, q in zip(nodes, levels)]
        j = max(range(len(nodes)), key=lambda i: (times[i], -i))
        if levels[j] == table.num_levels - 1:
            return path
        levels[j] += 1
        path.append(tuple(levels))


def bounded_path(nodes, gains, table, radio):
    """The prefix of ``level_path`` with no link above its ceiling: the last
    level, counting up from its first, up to which the link passes
    ``check_rate_vector`` alone."""
    path = level_path(nodes, table)
    if not path:
        return []
    ceilings = []
    for i, (node, q0) in enumerate(zip(nodes, path[0])):
        ceiling = q0 - 1
        for q in range(q0, table.num_levels):
            alone = check_rate_vector([node], gains.sub([i]), [table.rate(q)], table, radio)
            if not alone.feasible:
                break
            ceiling = q
        ceilings.append(ceiling)
    return [v for v in path if all(q <= c for q, c in zip(v, ceilings))]


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

    def test_check_budget(self):
        # the binary search makes at most 1 + ceil(log2(path length))
        # feasibility checks on the path bounded by each link's solo
        # ceiling, and at least one once that path is nonempty
        rng = np.random.default_rng(12)
        walks = 0
        for _ in range(100):
            n = int(rng.integers(1, 6))
            nodes, gains = random_instance(
                rng, n, DISC8, tight_delay_prob=0.2, binding_energy_prob=0.3
            )
            checks = lttf(nodes, gains, DISC8, TABLE1_RADIO).checks
            path = bounded_path(nodes, gains, DISC8, TABLE1_RADIO)
            assert (checks >= 1) == bool(path)
            if path:
                assert checks <= 1 + math.ceil(math.log2(len(path)))
            walks += bool(path)
        assert walks >= 50

    @settings(max_examples=300)
    @given(instance=pricing_instances())
    def test_never_checks_above_a_ceiling(self, instance):
        # every checked vector passes each link's solo test: the kernel's
        # interference-free power u = t * N / g_ii within p_max and, times
        # the link's time, within its energy budget
        def solo_tested_check(gains, targets, radio, times, delays, energies):
            for i, col in enumerate(gains.cols):
                u = targets[i] * radio.noise_power / col[i]
                assert u <= radio.p_max and times[i] * u <= energies[i]
            return check_targets(gains, targets, radio, times, delays, energies)

        with mock.patch.object(ratesched.allocation, "check_targets", solo_tested_check):
            outcome(lttf, *instance)

    def test_overflowing_solo_power_is_above_the_ceiling(self):
        # the second level's solo power overflows to inf, on which the kernel
        # raises; that vector is above the link's ceiling, so it is never
        # checked and the price is the first level's
        table = RateTable(((1.0, 1e8), (1e300, 2e8)))
        radio = RadioConfig(p_max=1e11, noise_power=1.0, bandwidth_hz=1e8)
        gains = GainMatrix([[1e-10]])
        with pytest.raises(NumericalError):
            check_rate_vector([_node()], gains, [2e8], table, radio)
        res = lttf([_node()], gains, table, radio)
        assert res.feasible
        assert res.rates == (1e8,)

    def test_solo_power_underflowing_to_zero_still_raises(self):
        # the first level's solo power underflows to 0 and the second's does
        # not: the first is checked, and the kernel raises there
        table = RateTable(((1.0, 1e8), (1e30, 2e8)))
        radio = RadioConfig(p_max=0.25, noise_power=1e-300, bandwidth_hz=1e8)
        gains = GainMatrix([[1e30]])
        assert check_rate_vector([_node()], gains, [2e8], table, radio).feasible
        with pytest.raises(NumericalError):
            lttf([_node()], gains, table, radio)
        # the link's record holds no solo price, so the pricer checks it too
        pricer = TablePricer(validate_instance([_node()]), gains, table, radio)
        with pytest.raises(NumericalError):
            pricer.solo(0)

    @settings(max_examples=300)
    @given(instance=pricing_instances(sizes=st.just(1)))
    def test_a_pricer_solo_is_read_from_its_record(self, instance):
        # a TablePricer prices a link alone with no check, and its price is
        # the bare walk's and the oracle's, or all three are infeasible
        subset, gains, table, radio = instance
        pricer = TablePricer(validate_instance(subset), gains, table, radio)
        try:
            solo = pricer.solo(subset[0].id)
        except InfeasibleInstanceError:
            solo = AllocationResult.infeasible()
        assert pricer.counts()["checks"] == 0
        assert solo == lttf(*instance) == brute_force_optimal(*instance)

    @settings(max_examples=400)
    @given(instance=pricing_instances())
    def test_binary_search_equals_the_frozen_walk(self, instance):
        # the same rates, times and powers, bit for bit, because the
        # verdicts along the level path are a feasible prefix
        subset, gains, table, radio = instance
        verdicts = [
            check_rate_vector(
                subset, gains, [table.rate(q) for q in levels], table, radio
            ).feasible
            for levels in level_path(subset, table)
        ]
        assert verdicts == sorted(verdicts, reverse=True), "verdicts not monotone"
        assert outcome(lttf, *instance) == outcome(frozen_lttf, *instance)

    @settings(max_examples=300)
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


class TestInputs:
    # the node count must equal the gain matrix size: three nodes on a 2x2
    # matrix, and one node that the solver would otherwise call infeasible
    # (no level within its delay bound; t_lo > t_hi)
    @pytest.mark.parametrize("solver", ["lttf", "continuous_optimal", "brute_force_optimal"])
    @pytest.mark.parametrize("nodes", [
        [_node(0), _node(1), _node(2)],
        [_node(delay=1e-9)],
    ], ids=["three-nodes", "one-infeasible-node"])
    def test_node_count_must_match_the_gain_matrix(self, solver, nodes):
        gains = GainMatrix([[1e-6, 1e-9], [1e-9, 1e-6]])
        args = (TABLE1_RADIO,) if solver == "continuous_optimal" else (DISC8, TABLE1_RADIO)
        with pytest.raises(ValidationError, match="one node per gain matrix row"):
            getattr(ratesched.allocation, solver)(nodes, gains, *args)

    @pytest.mark.parametrize("solver", ["lttf", "continuous_optimal", "brute_force_optimal"])
    def test_empty_subset_is_rejected(self, solver):
        args = (TABLE1_RADIO,) if solver == "continuous_optimal" else (DISC8, TABLE1_RADIO)
        with pytest.raises(ValidationError, match="nonempty"):
            getattr(ratesched.allocation, solver)([], GainMatrix([[1e-6]]), *args)


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

    def test_power_infeasible_instance(self):
        res = brute_force_optimal(
            [_node()], GainMatrix([[1e-7]]), DISC4, TABLE1_RADIO
        )
        assert not res.feasible and res.slot == math.inf

    @pytest.mark.parametrize("own", [5e-324, 1.2e-317])
    @pytest.mark.parametrize("size", [1, 2])
    def test_an_overflowing_solo_power_is_infeasible(self, size, own):
        # link 0's noise over its own gain overflows to inf, where the kernel
        # raises for a single link; the oracle reads such a link as
        # infeasible with no check, as lttf does
        rows = [[own, 1e-9], [1e-9, 1e-6]]
        nodes, gains = [_node(k) for k in range(size)], GainMatrix([r[:size] for r in rows[:size]])
        assert TABLE1_RADIO.noise_power / own == math.inf
        if size == 1:
            with pytest.raises(NumericalError):
                check_rate_vector(nodes, gains, [DISC8.rate(0)], DISC8, TABLE1_RADIO)
        res = brute_force_optimal(nodes, gains, DISC8, TABLE1_RADIO)
        assert res == lttf(nodes, gains, DISC8, TABLE1_RADIO) == AllocationResult.infeasible()

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

    @settings(max_examples=300)
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

        snr_cap = radio.p_max * np.diag(gain_array(gains)) / radio.noise_power
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

    def test_probe_budget(self):
        # every feasible price of k >= 2 links here confirms its predicted
        # cell in two probes, where the plain bisection takes about 35
        rng = np.random.default_rng(19)
        probes = []
        for _ in range(200):
            nodes, gains = random_instance(
                rng, int(rng.integers(2, 6)), DISC8, tight_delay_prob=0.2,
                binding_energy_prob=0.3,
            )
            res = continuous_optimal(nodes, gains, TABLE1_RADIO)
            if res.feasible:
                probes.append(res.checks)
        assert len(probes) >= 50
        assert set(probes) == {2}
        # a single link whose t_lo probe is feasible makes exactly that probe
        at_t_lo = 0
        for _ in range(200):
            nodes, gains = random_instance(
                rng, 1, DISC8, tight_delay_prob=0.2, binding_energy_prob=0.3,
            )
            (node,), g = nodes, gains.cols[0][0]
            snr_cap = TABLE1_RADIO.p_max * g / TABLE1_RADIO.noise_power
            t_lo = node.packet_bits / (TABLE1_RADIO.bandwidth_hz * float(np.log2(1.0 + snr_cap)))
            targets = ratesched.allocation._capacity_targets(
                np.array([node.packet_bits]), t_lo, TABLE1_RADIO.bandwidth_hz
            ).tolist()
            verdict = check_targets(
                gains, targets, TABLE1_RADIO, [t_lo], [node.delay_bound], [node.energy_budget]
            )
            res = continuous_optimal(nodes, gains, TABLE1_RADIO)
            if verdict.feasible:
                assert (res.slot, res.checks) == (t_lo, 1)
                at_t_lo += 1
        assert at_t_lo >= 50

    def test_t_hi_probe_only_when_needed(self):
        # one link whose minimum power underflows to 0 at t_hi (a 1e20 s
        # delay bound), where the kernel raises NumericalError; the plain
        # bisection probes t_hi first and raises, but t_hi is never probed
        # when a guess answers first: t_lo for 100 bits, and for 300 bits,
        # where t_lo just fails p_max, the final slot of the bisection with
        # every midpoint feasible; capped at that t_lo, the 300-bit link is
        # infeasible after one probe
        radio = RadioConfig(p_max=0.25, noise_power=1e-300, bandwidth_hz=1e8)
        gains = GainMatrix([[1.0]])
        solo = [_node(bits=100.0, delay=1e20)]
        with pytest.raises(NumericalError):
            frozen_continuous_optimal(solo, gains, radio)
        res = continuous_optimal(solo, gains, radio)
        t_lo = interference_free_slot(solo, gains, radio)
        assert res.feasible and res.slot == t_lo and res.checks == 1

        capped = [_node(bits=300.0, delay=1e20)]
        with pytest.raises(NumericalError):
            frozen_continuous_optimal(capped, gains, radio)
        t_lo = interference_free_slot(capped, gains, radio)
        res = continuous_optimal(capped, gains, radio)
        assert res.feasible and res.slot == solo_guess(t_lo, 1e20) > t_lo
        assert res.checks == 1
        res = continuous_optimal(capped, gains, radio, cap=t_lo)
        assert res == AllocationResult.infeasible() and res.checks == 1
        assert res.reason is OVER_CAP

    def test_unconfirmed_cell_runs_the_plain_bisection(self, monkeypatch):
        # a predicted cell patched to (below, anchor), below being the float
        # just under the bisection's final slot and off its grid, is not
        # confirmed: below is feasible. A seam in check_targets
        # reports INFEASIBLE_MAX_POWER at that final slot, so the verdicts
        # are not monotone; the plain bisection runs from (t_lo, t_hi), and
        # under the same seam its result is the frozen plain bisection's
        rng = np.random.default_rng(43)
        check = check_targets
        for _ in range(400):
            nodes, gains = random_instance(rng, 3, DISC8)
            final = continuous_optimal(nodes, gains, TABLE1_RADIO)
            t_lo = interference_free_slot(nodes, gains, TABLE1_RADIO)
            t_hi = min(n.delay_bound for n in nodes)
            assert final.feasible and t_lo < final.slot < t_hi
            below = math.nextafter(final.slot, 0.0)
            probed = []

            def flipping_check(gains, targets, radio, times, *args):
                probed.append(times[0])
                report = check(gains, targets, radio, times, *args)
                if times[0] != final.slot:
                    return report
                return dataclasses.replace(report, verdict=Verdict.INFEASIBLE_MAX_POWER)

            monkeypatch.setattr(ratesched.allocation, "check_targets", flipping_check)
            monkeypatch.setattr(helpers, "check_targets", flipping_check)
            monkeypatch.setattr(
                ratesched.allocation, "_predicted_cell",
                lambda y, t_lo, t_hi, anchor: (below, anchor),
            )
            res = continuous_optimal(nodes, gains, TABLE1_RADIO)
            guided, probed[:] = probed[:], []
            frozen = frozen_continuous_optimal(nodes, gains, TABLE1_RADIO)
            plain = probed[:]
            cap = final.slot * (1 + 1e-9)
            capped = continuous_optimal(nodes, gains, TABLE1_RADIO, cap)
            monkeypatch.undo()
            assert res == frozen and res != final
            # the cell is probed at its hi, the anchor t_hi, and at below;
            # then come exactly the probes of the frozen bisection: t_hi,
            # t_lo and its midpoints
            assert guided[:2] == [t_hi, below]
            assert guided[2:] == plain
            # capped just above the final slot, the plain bisection's slot is
            # over the cap: the cap is tested on it
            assert frozen.slot > cap and capped == AllocationResult.infeasible()

    @pytest.mark.parametrize("gains", [
        pytest.param([[1e10]], id="solo-t_lo-0"),
        pytest.param([[1e10, 1e16], [1e16, 1e10]], id="pair-t_lo-0"),
        pytest.param([[1e-320]], id="solo-t_lo-inf"),
    ])
    def test_t_lo_outside_the_float_range_raises(self, gains):
        # the solo SNR at p_max overflows (t_lo = 0) or 1 + SNR rounds to 1
        # (t_lo = inf); the pair's t_hi is infeasible, so the frozen
        # bisection returns infeasible for it
        radio = RadioConfig(p_max=0.25, noise_power=1e-300, bandwidth_hz=1e8)
        nodes = [_node(i) for i in range(len(gains))]
        t_lo = interference_free_slot(nodes, GainMatrix(gains), radio)
        assert t_lo in (0.0, math.inf)
        for cap in (math.inf, 1e-12):
            with pytest.raises(NumericalError):
                continuous_optimal(nodes, GainMatrix(gains), radio, cap)

    def test_t_lo_times_bandwidth_underflowing_raises(self):
        # t_lo is in (0, inf), but t_lo * W underflows to 0, where the
        # capacity targets of the t_lo probe would divide by zero
        radio = RadioConfig(p_max=0.25, noise_power=1e-8, bandwidth_hz=1e-30)
        nodes, gains = [_node(bits=5e-324, delay=1e30)], GainMatrix([[1e-6]])
        t_lo = interference_free_slot(nodes, gains, radio)
        assert 0.0 < t_lo < math.inf and t_lo * radio.bandwidth_hz == 0.0
        for cap in (math.inf, 1e-12):
            with pytest.raises(NumericalError, match="float range"):
                continuous_optimal(nodes, gains, radio, cap)

    def test_t_hi_times_bandwidth_underflowing_raises(self):
        # t_lo * W is positive, but t_hi * W underflows to 0, where the
        # capacity targets of the check at t_hi would divide by zero
        radio = RadioConfig(p_max=0.25, noise_power=1e-8, bandwidth_hz=1e-30)
        nodes, gains = [_node(delay=1e-308)], GainMatrix([[1e-6]])
        t_lo = interference_free_slot(nodes, gains, radio)
        assert t_lo * radio.bandwidth_hz > 0 and 1e-308 * radio.bandwidth_hz == 0.0
        for cap in (math.inf, 1e-12):
            with pytest.raises(NumericalError, match="float range"):
                continuous_optimal(nodes, gains, radio, cap)

    def test_rate_underflowing_gives_an_infinite_slot_floor(self):
        # W * log2(1 + SNR) underflows to 0 although log2(1 + SNR) > 0: the
        # floor is inf, not a division by zero, and pricing raises
        radio = RadioConfig(p_max=0.25, noise_power=1e-8, bandwidth_hz=5e-324)
        nodes, gains = [_node()], GainMatrix([[1e-8]])
        assert interference_free_slot(nodes, gains, radio) == math.inf
        with pytest.raises(NumericalError, match="float range"):
            continuous_optimal(nodes, gains, radio)

    def test_guide_stops_when_no_geometric_step_fits(self, monkeypatch):
        # at a 1e300 Hz bandwidth the slot is subnormal, so (no, yes) holds
        # no geometric mean long before its relative width reaches
        # _GUIDE_TOL; the predicting secant stops there rather than
        # evaluating 1/slack to its cap
        radio = RadioConfig(p_max=0.25, noise_power=1e-8, bandwidth_hz=1e300)
        nodes = [_node(0, bits=1e-16, delay=1e-290), _node(1, bits=2e-16, delay=1e-290)]
        gains = GainMatrix([[1e-6, 1e-8], [1e-8, 1e-6]])
        evaluations = 0
        inverse_slack = ratesched.allocation._inverse_slack

        def counting_slack(*args):
            y = inverse_slack(*args)

            def counted(t):
                nonlocal evaluations
                evaluations += 1
                return y(t)
            return counted

        monkeypatch.setattr(ratesched.allocation, "_inverse_slack", counting_slack)
        res = continuous_optimal(nodes, gains, radio)
        assert res.feasible and 0.0 < res.slot < np.finfo(float).tiny
        assert 0 < evaluations < ratesched.allocation._GUIDE_CAP
        assert res == frozen_continuous_optimal(nodes, gains, radio)

    def test_bisection_midpoint_stays_finite_near_the_float_max(self):
        # at a 1.7e308 s delay bound t_lo + t_hi overflows, so the midpoint
        # is taken from the halves instead of probing inf
        radio = RadioConfig(p_max=0.25, noise_power=1e-8, bandwidth_hz=1e-306)
        node = _node(bits=50.0, delay=1.7e308)
        res = continuous_optimal([node], GainMatrix([[1e-6]]), radio)
        t_lo = interference_free_slot([node], GainMatrix([[1e-6]]), radio)
        assert res.feasible and t_lo < res.slot < 1.7e308

    def test_energy_all_infeasible(self):
        res = continuous_optimal(
            [_node(energy=1e-12)], GainMatrix([[1e-6]]), TABLE1_RADIO
        )
        assert not res.feasible

class TestPredictedCell:
    """A price that reaches the bisection is probed at its final cell as
    ``_inverse_slack`` predicts it, the closed form for two links and the
    bare kernel for any other count, confirmed by two probes."""

    @staticmethod
    def counted(price, *args):
        """``price(*args)``'s outcome and, for a result, its checks."""
        result = outcome(price, *args)
        return result, result.checks if isinstance(result, AllocationResult) else None

    @staticmethod
    def predicted(gains, radio, packets, energies, t_lo, t_hi, anchor):
        allocation = ratesched.allocation
        y = allocation._inverse_slack(gains, radio, packets, energies, allocation._Tally())
        return allocation._predicted_cell(y, t_lo, t_hi, anchor)

    @settings(max_examples=1000)
    @given(
        instance=st.one_of(
            pricing_instances().map(lambda drawn: (drawn[0], drawn[1], drawn[3])),
            near_singular_links(),
        ),
        cap=st.sampled_from(["none", "at", "above", "below", "in cell", "under cell"]),
        guide_cap=st.sampled_from([ratesched.allocation._GUIDE_CAP, 0, 2, 5]),
    )
    def test_equals_the_plain_bisection(self, instance, cap, guide_cap):
        # the same slot, rates and powers, bit for bit, or the same error, for
        # one to five links, at energy-binding budgets, near rho = 1 and near
        # both ends of the float range; a cap at the plain bisection's slot,
        # one float above or below it, inside its final cell (within a
        # relative 1e-6 below the slot, where t* lies) or under it gives the
        # slot where it is at most the cap and infeasible otherwise. A secant
        # cut short at guide_cap steps leaves more midpoints for the predicted
        # cell's walk to evaluate, and a cell it mispredicts runs the plain
        # bisection
        nodes, gains, radio = instance
        plain = outcome(frozen_continuous_optimal, nodes, gains, radio)
        if cap == "none":
            caps, expected = (), plain
        else:
            assume(isinstance(plain, AllocationResult) and plain.feasible)
            slot = plain.slot
            cap = {
                "at": slot,
                "above": math.nextafter(slot, math.inf),
                "below": math.nextafter(slot, 0.0),
                "in cell": slot * (1.0 - 3e-7),
                "under cell": slot * (1.0 - 2e-6),
            }[cap]
            caps, expected = (cap,), plain if slot <= cap else AllocationResult.infeasible()
        with mock.patch.object(ratesched.allocation, "_GUIDE_CAP", guide_cap):
            assert outcome(continuous_optimal, nodes, gains, radio, *caps) == expected

    @pytest.mark.parametrize("shift", ["up", "down"])
    @settings(max_examples=150)
    @given(instance=pricing_instances(st.integers(1, 4)))
    def test_a_cell_one_off_leaves_the_result(self, shift, instance):
        # a prediction patched to the cell just above or below the
        # bisection's final cell gives the same result, bit for bit, with
        # more probes than the two that confirm the right cell, from the
        # closed form (two links) and the kernel (one, three or four) alike;
        # a single link with a guess first makes its failing check there
        nodes, gains, _, radio = instance
        exact, calls = self.counted(continuous_optimal, nodes, gains, radio)
        confirmed = (2,) if len(nodes) > 1 else (2, 3)
        assume(isinstance(exact, AllocationResult) and exact.feasible and calls in confirmed)
        t_lo = interference_free_slot(nodes, gains, radio)
        t_hi = min(n.delay_bound for n in nodes)
        lo, hi = bisection_cell(t_lo, t_hi, lambda mid: mid >= exact.slot)
        if shift == "up":
            assume(hi < t_hi)
            off = bisection_cell(t_lo, t_hi, lambda mid: mid > hi)
        else:
            assume(lo > t_lo)
            off = bisection_cell(t_lo, t_hi, lambda mid: mid >= lo)
        with mock.patch.object(ratesched.allocation, "_predicted_cell", lambda *args: off):
            shifted, shifted_calls = self.counted(continuous_optimal, nodes, gains, radio)
        assert shifted == exact and shifted_calls > calls

    @settings(max_examples=200)
    @given(instance=pricing_instances(st.integers(2, 4)))
    def test_only_a_bare_kernel_run_is_an_evaluation(self, instance):
        # a prediction for two links takes the closed form, which runs no
        # kernel; one for three or four runs the kernel bare, at least at the
        # anchor, wherever the price reaches it, as every feasible one does
        nodes, gains, _, radio = instance
        res = continuous_optimal(nodes, gains, radio)
        if len(nodes) == 2:
            assert res.evaluations == 0
        elif res.feasible:
            assert res.evaluations > 0

    @settings(max_examples=100)
    @given(instance=pricing_instances(st.integers(2, 4)))
    def test_a_failing_cell_at_the_anchor_is_followed_by_the_anchor_probe(self, instance):
        # capped at the infeasible side lo of the final cell, the price is
        # infeasible after one check at that anchor; a prediction patched to
        # end at the anchor fails there, and the plain bisection then probes
        # the anchor again, so the price is infeasible after two checks
        nodes, gains, _, radio = instance
        exact, calls = self.counted(continuous_optimal, nodes, gains, radio)
        assume(isinstance(exact, AllocationResult) and exact.feasible and calls == 2)
        t_lo = interference_free_slot(nodes, gains, radio)
        t_hi = min(n.delay_bound for n in nodes)
        lo, _ = bisection_cell(t_lo, t_hi, lambda mid: mid >= exact.slot)
        assume(lo > t_lo)
        infeasible = AllocationResult.infeasible()
        assert self.counted(continuous_optimal, nodes, gains, radio, lo) == (infeasible, 1)
        with mock.patch.object(ratesched.allocation, "_predicted_cell", lambda *args: (t_lo, lo)):
            assert self.counted(continuous_optimal, nodes, gains, radio, lo) == (infeasible, 2)

    @settings(max_examples=600)
    @given(instance=pricing_instances(), share=st.floats(0.0, 1.0))
    def test_the_prediction_only_chooses_where_to_probe(self, instance, share):
        # a prediction patched to any cell of the bisection's grid that ends
        # at or below the anchor, the final cell under the verdicts mid >= s
        # for a threshold s in [t_lo, t_hi] (s = t_lo gives a cell (t_lo, hi)
        # and s = t_hi one whose hi is t_hi), gives the result or the error
        # of the true prediction and of none, bit for bit, uncapped and
        # capped around the slot
        nodes, gains, _, radio = instance
        t_lo = interference_free_slot(nodes, gains, radio)
        t_hi = min(n.delay_bound for n in nodes)
        assume(0.0 < t_lo <= t_hi)  # otherwise nothing is predicted
        s = min(max(math.exp(math.log(t_lo) + share * math.log(t_hi / t_lo)), t_lo), t_hi)

        def grid_cell(y, t_lo, t_hi, anchor):
            lo, hi = bisection_cell(t_lo, t_hi, lambda mid: mid >= s)
            return (lo, hi) if hi <= anchor else None

        def priced(cap, predicted):
            with mock.patch.object(ratesched.allocation, "_predicted_cell", predicted):
                return outcome(continuous_optimal, nodes, gains, radio, cap)

        true_cell = ratesched.allocation._predicted_cell
        exact = priced(math.inf, true_cell)
        caps = [math.inf]
        if isinstance(exact, AllocationResult) and exact.feasible:
            caps += [exact.slot * f for f in (0.5, 1.0, 1.0 + 1e-7, 2.0)]
        for cap in caps:
            expected = priced(cap, true_cell)
            assert priced(cap, grid_cell) == expected
            assert priced(cap, lambda *args: None) == expected

    @settings(max_examples=800)
    @given(
        k=st.integers(1, 3),
        floats=st.lists(st.floats(5e-324, 1.7e308), min_size=9, max_size=9),
        radio=st.lists(st.floats(5e-324, 1.7e308), min_size=3, max_size=3),
        packets=st.lists(st.floats(5e-324, 1.7e308), min_size=3, max_size=3),
        energies=st.lists(st.floats(5e-324, math.inf), min_size=3, max_size=3),
        slots=st.lists(st.floats(5e-324, 1.7e308), min_size=3, max_size=3),
    )
    def test_guess_arithmetic_never_raises(self, k, floats, radio, packets, energies, slots):
        # at any floats _search can pass (t_lo <= anchor <= t_hi, all finite
        # and > 0), the prediction is a cell within [t_lo, anchor] or None:
        # an overflowing expm1, a division by 0, or the bare kernel's
        # ValidationError (a target that underflows to 0) or NumericalError
        # (a power that leaves the float range) is a NaN
        t_lo, anchor, t_hi = sorted(slots)
        gains = GainMatrix([floats[i * k:(i + 1) * k] for i in range(k)])
        cell = self.predicted(
            gains, RadioConfig(*radio), packets[:k], energies[:k], t_lo, t_hi, anchor
        )
        if cell is not None:
            lo, hi = cell
            assert t_lo <= lo <= hi <= anchor

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_arithmetic_out_of_range_is_nan(self, k):
        # at a 1e-306 Hz bandwidth the capacity exponent b * ln2 / (t * W)
        # overflows math.expm1 at t_lo; 1e-300 bits at slots near 1e300 s
        # round every target to 0, where the closed form's 1/slack divides
        # by 0 and the kernel raises ValidationError: neither escapes
        gains = GainMatrix([[1.0 if i == j else 0.1 for j in range(k)] for i in range(k)])
        allocation = ratesched.allocation
        for width, bits, t_lo, t_hi in [
            (1e-306, 50.0, 1e300, 1.7e308),
            (1e8, 1e-300, 1e290, 1e300),
        ]:
            radio = RadioConfig(p_max=0.25, noise_power=1e-8, bandwidth_hz=width)
            packets, energies = [bits * (i + 1) for i in range(k)], [math.inf] * k
            y = allocation._inverse_slack(gains, radio, packets, energies, allocation._Tally())
            assert math.isnan(y(t_lo))
            cell = self.predicted(gains, radio, packets, energies, t_lo, t_hi, t_hi)
            if math.isnan(y(t_hi)):  # no slot predicts feasible
                assert cell is None
            else:
                assert cell is not None and t_lo < cell[0] < cell[1] <= t_hi


class TestCap:
    # caps at, just below and around the uncapped slot (or, for an infeasible
    # subset, its tightest delay bound), and none
    @settings(max_examples=600)
    @given(
        instance=pricing_instances(),
        continuous=st.booleans(),
        factor=st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0, math.inf]),
        below=st.booleans(),
    )
    def test_capped_price_is_exact_or_infeasible(self, instance, continuous, factor, below):
        subset, gains, table, radio = instance
        if continuous:
            def price(cap):
                return continuous_optimal(subset, gains, radio, cap)
        else:
            def price(cap):
                return lttf(subset, gains, table, radio, cap)
        exact = outcome(price, math.inf)
        if isinstance(exact, AllocationResult) and exact.feasible:
            scale = exact.slot
        else:
            scale = min(n.delay_bound for n in subset)
        cap = scale * factor
        if below:
            cap = math.nextafter(cap, 0.0)
        self.assert_capped(price, cap, exact, continuous)

    def test_capped_price_may_stop_before_the_probe_that_raises(self):
        # one link whose minimum power underflows to 0 at t_hi (a 1e20 s
        # delay bound) and whose energy budget fails at t_lo, so it has no
        # guess: the prediction reads t_hi as NaN, and the uncapped price
        # probes t_hi and raises NumericalError there, while a cap at t_lo
        # is infeasible after one probe; no factor of the draws above places
        # such a cap
        radio = RadioConfig(p_max=0.25, noise_power=1e-300, bandwidth_hz=1e8)
        subset, gains = [_node(bits=300.0, delay=1e20, energy=1e-12)], GainMatrix([[1.0]])
        assert math.isnan(continuous_solos(subset, gains, radio)[0][1])

        def price(cap):
            return continuous_optimal(subset, gains, radio, cap)

        exact = outcome(price, math.inf)
        assert exact is NumericalError
        t_lo = interference_free_slot(subset, gains, radio)
        assert self.assert_capped(price, t_lo, exact, True) == (AllocationResult.infeasible(), 1)

    @pytest.mark.parametrize("continuous", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    @settings(max_examples=100)
    @given(data=st.data())
    def test_nan_cap_is_no_cap(self, continuous, k, data):
        # lttf's k = 1 branch and its path, and continuous_optimal's anchor
        # and return test, read a NaN cap as none
        subset, gains, table, radio = data.draw(pricing_instances(st.just(k)))
        if continuous:
            def price(cap):
                return continuous_optimal(subset, gains, radio, cap)
        else:
            def price(cap):
                return lttf(subset, gains, table, radio, cap)
        assert outcome(price, math.nan) == outcome(price, math.inf)

    @staticmethod
    def assert_capped(price, cap, exact, continuous):
        """Check ``price(cap)`` against ``exact``, the uncapped outcome, and
        return the capped outcome and, for a result, its probe count.

        The capped outcome is the uncapped result when its slot is at most
        the cap, else infeasible, after at most one check (lttf) or, when the
        cap is below the bisection's tolerance band, one probe
        (continuous_optimal; two for a subset with no feasible slot: a
        predicted cell's hi, then the anchor). It raises only where a probe
        that the capped call makes raises, or where the set-up raises
        whatever the cap; so where the
        uncapped call raises, the capped one raises that error type or
        returns infeasible. An uncapped infeasible result names the verdict
        that ended it, and a feasible one capped below its slot reads
        OVER_CAP.
        """
        raised = []

        def recording_check(*args, **kwargs):
            try:
                return check_targets(*args, **kwargs)
            except NumericalError as exc:
                raised.append(type(exc))
                raise

        with mock.patch.object(ratesched.allocation, "check_targets", recording_check):
            capped = outcome(price, cap)
        if not isinstance(capped, AllocationResult):
            assert capped in raised or (not raised and capped == exact)
        if not isinstance(exact, AllocationResult):
            assert capped in (exact, AllocationResult.infeasible())
        elif exact.slot <= cap:
            assert capped == exact
        else:
            assert capped == AllocationResult.infeasible()
            if exact.feasible:
                assert capped.reason is OVER_CAP
            else:
                assert exact.reason in set(Verdict) - {Verdict.FEASIBLE}
            if not continuous:
                assert capped.checks <= 1
            elif cap < exact.slot * (1 - 2 * ratesched.allocation._REL_TOL):
                assert capped.checks <= (1 if exact.feasible else 2)
        return capped, capped.checks if isinstance(capped, AllocationResult) else None


class TestResultTypes:
    @settings(max_examples=300)
    @given(instance=pricing_instances())
    def test_feasible_results_hold_python_floats(self, instance):
        # every solver returns plain floats, never numpy scalars (np.float64
        # is a float subclass, so only the exact type tells them apart)
        subset, gains, table, radio = instance
        results = [
            outcome(lttf, subset, gains, table, radio),
            outcome(continuous_optimal, subset, gains, radio),
        ]
        if len(subset) <= 4:
            results.append(outcome(brute_force_optimal, subset, gains, table, radio))
        feasible = [r for r in results if isinstance(r, AllocationResult) and r.feasible]
        for res in feasible:
            assert type(res.slot) is float
            for values in (res.rates, res.powers, res.times):
                assert type(values) is tuple and all(type(x) is float for x in values)
