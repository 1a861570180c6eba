"""The block solo pass: ``solo_terms`` on arrays of many seeds against the
per-seed records, and ``continuous_optimal`` on each link alone, checked at
its guess first, against the same price without a guess."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratesched import (
    GainMatrix,
    InfeasibleInstanceError,
    NodeSpec,
    NumericalError,
    RadioConfig,
    RateTable,
    validate_instance,
)
from ratesched import allocation, check_targets
from ratesched.allocation import _capacity_targets
from ratesched.allocation import (
    brute_force_optimal,
    continuous_optimal,
    continuous_solos,
    ladder_records,
    ladder_solos,
    lttf,
    solo_guess,
    solo_terms,
)
from ratesched.model import AllocationResult
from ratesched.scheduling import ContinuousPricer

from helpers import (
    BANDWIDTHS,
    TABLE1_RADIO,
    TABLES,
    bisection_cell,
    frozen_continuous_optimal,
    frozen_ladder_solos,
    random_instance,
)


def frozen_slot_floors(nodes, gains, radio):
    """Each link's interference-free slot, by the per-node loop that ran
    before the block pass."""
    snr_caps = [radio.p_max * col[i] / radio.noise_power for i, col in enumerate(gains.cols)]
    log_caps = np.log2([1.0 + s for s in snr_caps]).tolist()
    rates = [radio.bandwidth_hz * x for x in log_caps]
    return [n.packet_bits / r if r > 0 else math.inf for n, r in zip(nodes, rates)]


def link(own, bits=50.0, delay=1e-3, energy=math.inf):
    """One node and its 1x1 gain matrix."""
    return [NodeSpec(0, 0, bits, 1, delay, energy)], GainMatrix([[own]])


def outcome(fn, *args):
    """A solo price as a comparable value: the result, "infeasible", or the
    type of the error raised."""
    try:
        res = fn(*args)
    except InfeasibleInstanceError:
        return "infeasible"
    except NumericalError as exc:
        return type(exc)
    return res if res.feasible else "infeasible"


def pricer_solo(nodes, gains, radio):
    return ContinuousPricer(validate_instance(nodes), gains, radio).solo(0)


def check_continuous_solo(nodes, gains, radio) -> str:
    """Assert that a single link's price, bare and as a pricer solo, is the
    uncapped price of the same link without a guess (a NaN top), and that a
    feasible check at its guess is the one check made; the kind of guess
    the link has: "t_lo", "halved" or "none". (Only where the power at t_hi
    underflows to 0, which no draw of ``blocks`` reaches, does a guess
    answer a price that raises without one.)"""
    ((floor, top),) = continuous_solos(nodes, gains, radio)
    want = outcome(continuous_optimal, nodes, gains, radio, math.inf, [(floor, math.nan)])
    priced = outcome(continuous_optimal, nodes, gains, radio)
    assert priced == want
    assert outcome(pricer_solo, nodes, gains, radio) == want
    if math.isnan(top):
        return "none"
    guess = solo_guess(floor, top)
    if isinstance(want, AllocationResult) and want.slot == guess:
        assert priced.checks == 1
    return "t_lo" if top == floor else "halved"


@st.composite
def blocks(draw):
    """A block of 1..4 seeds of 1..4 links (n = 1 included) as ``solo_terms``
    takes it, with the radio and a table: own gains, packets, delays and
    energy budgets from tight to loose, at slot scales across the float
    range."""
    bandwidth = draw(st.sampled_from(BANDWIDTHS))
    table = TABLES[draw(st.sampled_from(["disc4", "disc8"])), bandwidth]
    radio = RadioConfig(p_max=0.25, noise_power=draw(st.sampled_from([1e-8, 1e-30])),
                        bandwidth_hz=bandwidth)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    own = 10.0 ** rng.uniform(-12.0, 2.0, shape) * radio.noise_power / 1e-8
    bits = rng.choice([50.0, 100.0], shape)
    delay = np.repeat(10.0 ** rng.uniform(-9.0, -2.0, (shape[0], 1)), shape[1], 1) * 1e8 / bandwidth
    energy = radio.p_max * delay * draw(st.sampled_from([math.inf, 1.0, 1e-4, 1e-7]))
    return own, bits, delay, energy, radio, table


class TestBlocks:
    @settings(max_examples=60)
    @given(blocks())
    def test_each_row_is_its_seed_alone(self, block):
        own, bits, delay, energy, radio, table = block
        (terms,), floors, tops = solo_terms(own, bits, delay, energy, radio, (table,))
        for b in range(own.shape[0]):
            nodes = [NodeSpec(i, i, float(bits[b, i]), 1, float(delay[b, i]), float(energy[b, i]))
                     for i in range(own.shape[1])]
            # off the diagonal the gains play no part in a solo
            gains = GainMatrix(np.diag(own[b]) + 1e-3 * own[b].min() * (1 - np.eye(own.shape[1])))
            records = ladder_records(table, terms, b)
            assert repr(records) == repr(ladder_solos(nodes, gains, table, radio))
            assert repr(records) == repr(frozen_ladder_solos(nodes, gains, table, radio))
            pairs = list(zip(floors[b].tolist(), tops[b].tolist()))
            assert repr(pairs) == repr(continuous_solos(nodes, gains, radio))
            assert floors[b].tolist() == frozen_slot_floors(nodes, gains, radio)
            for i in range(own.shape[1]):
                alone = dataclasses.replace(nodes[i], id=0, controller_id=0)
                check_continuous_solo([alone], GainMatrix([[own[b, i]]]), radio)


# Integer packet sizes up to the float range: each reaches the block pass
# and the frozen loop's int / float as the same correctly rounded float.
INT_PACKETS = (50, 2**53 + 1, 2**70, 2**1000)


class TestIntegerPackets:
    @staticmethod
    def row(table, radio, packets):
        """One seed of links with integer ``packets``: each link's lowest
        level is 1 and its energy budget puts its ceiling at 2."""
        nodes = []
        for i, bits in enumerate(packets):
            delay = bits / table.rate(1)
            energy = 1.5 * bits / table.rate(2) * table.threshold(2) * radio.noise_power
            nodes.append(NodeSpec(i, i, bits, 1, delay, energy))
        return nodes, GainMatrix(np.eye(len(packets)) + 1e-3 * (1 - np.eye(len(packets))))

    @pytest.mark.parametrize("model", ["disc4", "disc8"])
    def test_ladder_records_match_the_frozen_loop(self, model):
        table, radio = TABLES[model, 1e8], TABLE1_RADIO
        # every row a rotation of the sizes, so no two rows share a link's times
        rows = [self.row(table, radio, INT_PACKETS[k:] + INT_PACKETS[:k])
                for k in range(len(INT_PACKETS))]
        wants = []
        for nodes, gains in rows:
            frozen = frozen_ladder_solos(nodes, gains, table, radio)
            assert [(lowest, ceiling) for _, lowest, ceiling, _ in frozen] == [(1, 2)] * 4
            assert all(solo is not None for *_, solo in frozen)
            wants.append(repr(frozen))
            assert repr(ladder_solos(nodes, gains, table, radio)) == wants[-1]
        own, bits, delay, energy = (
            np.concatenate(x) for x in zip(*(allocation._link_arrays(*row) for row in rows))
        )
        (terms,), _, _ = solo_terms(own, bits, delay, energy, radio, (table,))
        for b, want in enumerate(wants):
            assert repr(ladder_records(table, terms, b)) == want

    def test_integer_rates_divide_as_floats(self):
        # (2**53 + 1) / 3 is 3002399751580331 exactly, but 2**53 + 1 reaches
        # the block pass as the float 2**53, whose quotient is
        # 3002399751580330.5: a table keeps its levels as floats, so the
        # reference's quotient is that one too and both see it within delay
        table = RateTable(((1, 3), (2, 5)))
        assert [type(x) for level in table.levels for x in level] == [float] * 4
        nodes = [NodeSpec(0, 0, 2**53 + 1, 1, 3002399751580330.5, math.inf)]
        gains = GainMatrix([[1.0]])
        records = ladder_solos(nodes, gains, table, TABLE1_RADIO)
        assert repr(records) == repr(frozen_ladder_solos(nodes, gains, table, TABLE1_RADIO))
        assert records[0][0] == [3002399751580330.5, 1801439850948198.5]
        want = brute_force_optimal(nodes, gains, table, TABLE1_RADIO)
        assert want.feasible and repr(lttf(nodes, gains, table, TABLE1_RADIO)) == repr(want)


class TestNoGuess:
    @settings(max_examples=200)
    @given(blocks())
    def test_t_lo_fails_wherever_a_link_has_no_guess(self, block):
        # the invariant that lets a solo with no guess skip t_lo until its
        # predicted cell or the plain bisection reaches it: wherever the top
        # is NaN, t_lo <= t_hi and _search's up-front checks pass, the check
        # at t_lo is infeasible or raises
        own, bits, delay, energy, radio, _ = block
        _, floors, tops = solo_terms(own, bits, delay, energy, radio)
        width = radio.bandwidth_hz
        for (b, i), top in np.ndenumerate(tops):
            t_lo, t_hi = floors[b, i], delay[b, i]
            if not (math.isnan(top) and t_lo <= t_hi and 0.0 < t_lo < math.inf
                    and t_lo * width > 0 and _capacity_targets(bits[b, i], t_hi, width) > 0):
                continue
            targets = _capacity_targets(np.array([bits[b, i]]), t_lo, width).tolist()
            gains = GainMatrix([[float(own[b, i])]])
            try:
                report = check_targets(gains, targets, radio, [float(t_lo)], [float(t_hi)],
                                       [float(energy[b, i])])
            except NumericalError:
                continue
            assert not report.feasible

    @settings(max_examples=300)
    @given(k=st.integers(1, 3), bandwidth=st.sampled_from(BANDWIDTHS),
           seed=st.integers(0, 2**32 - 1))
    def test_binding_energy_prices_are_the_plain_bisections(self, k, bandwidth, seed):
        # 1-3 links with binding energy budgets: the price is the frozen
        # plain bisection's, bit for bit, wherever that answers, and a solo
        # with no guess whose predicted cell is confirmed takes exactly the
        # two probes of the cell
        radio = dataclasses.replace(TABLE1_RADIO, bandwidth_hz=bandwidth)
        nodes, gains = random_instance(
            np.random.default_rng(seed), k, TABLES["disc8", bandwidth], radio=radio,
            binding_energy_prob=1.0, loose_delay=1e-3 * 1e8 / bandwidth,
        )
        priced = outcome(continuous_optimal, nodes, gains, radio)
        frozen = outcome(frozen_continuous_optimal, nodes, gains, radio)
        if frozen is not NumericalError:
            assert priced == frozen
        if k > 1:
            return
        [(t_lo, top)] = continuous_solos(nodes, gains, radio)
        t_hi = nodes[0].delay_bound
        if not (math.isnan(top) and t_lo <= t_hi):
            return
        y = allocation._inverse_slack(gains, radio, [nodes[0].packet_bits],
                                      [nodes[0].energy_budget], allocation._Tally())
        cell = allocation._predicted_cell(y, t_lo, t_hi, t_hi)
        if cell is None:
            return
        lo, hi = cell
        verdicts = []
        for t in (hi, lo):
            targets = _capacity_targets(np.array([nodes[0].packet_bits]), t, bandwidth).tolist()
            try:
                verdicts.append(check_targets(gains, targets, radio, [t], [t_hi],
                                              [nodes[0].energy_budget]).feasible)
            except NumericalError:
                return
        if verdicts == [True, False]:
            assert priced.checks == 2 and priced.slot == hi


class TestContinuousGuess:
    def test_t_lo_feasible_and_failing_by_rounding_both_keep_the_price(self):
        # alone, a link's power at t_lo is p_max up to rounding: about a
        # third of links round above it, and halve from t_hi towards t_lo
        kinds = []
        for own in np.geomspace(1e-7, 1e-3, 60):
            nodes, gains = link(own)
            kinds.append(check_continuous_solo(nodes, gains, TABLE1_RADIO))
            ((floor, top),) = continuous_solos(nodes, gains, TABLE1_RADIO)
            if kinds[-1] == "halved":
                assert top == nodes[0].delay_bound
                assert floor < solo_guess(floor, top) <= floor * (1 + 1e-6) / (1 - 1e-6)
        assert {"t_lo", "halved"} <= set(kinds)

    @pytest.mark.parametrize(
        "case, kwargs, radio",
        [
            ("energy binding", {"own": 1e-5, "energy": 1e-8}, TABLE1_RADIO),
            ("delay too tight", {"own": 1e-7, "delay": 1e-8}, TABLE1_RADIO),
            # p_max is the largest float: the power at t_lo, p_max up to
            # rounding, overflows
            ("power overflows at t_lo", {"own": 0.7},
             RadioConfig(p_max=1.7976931348623157e308, noise_power=1.0, bandwidth_hz=1e8)),
        ],
    )
    def test_no_guess_goes_to_the_predicted_cell(self, case, kwargs, radio):
        # with no guess, the first slot checked is the predicted cell's hi,
        # then its lo, unless t_lo > t_hi answers without one
        nodes, gains = link(**kwargs)
        assert check_continuous_solo(nodes, gains, radio) == "none"
        [(floor, _)] = continuous_solos(nodes, gains, radio)
        with mock.patch.object(allocation, "check_targets", wraps=check_targets) as check:
            outcome(continuous_optimal, nodes, gains, radio)
        slots = [call.args[3][0] for call in check.call_args_list]
        targets = [math.expm1(50.0 * math.log(2.0) / (t * radio.bandwidth_hz))
                   for t in (floor, nodes[0].delay_bound)]
        powers = [x * radio.noise_power / gains.cols[0][0] if x < math.inf else x
                  for x in targets]
        if case == "delay too tight":
            assert floor > nodes[0].delay_bound and slots == []
            return
        delay, energy = nodes[0].delay_bound, nodes[0].energy_budget
        y = allocation._inverse_slack(gains, radio, [nodes[0].packet_bits], [energy],
                                      allocation._Tally())
        lo, hi = allocation._predicted_cell(y, floor, delay, delay)
        assert slots == [hi, lo]
        if case == "energy binding":
            assert floor * powers[0] > energy and lo > floor
            assert continuous_optimal(nodes, gains, radio).slot == hi
        else:
            # the cell's lo is t_lo, where the check raises
            assert powers[0] == math.inf and lo == floor
            assert outcome(continuous_optimal, nodes, gains, radio) is NumericalError

    def test_power_underflowing_at_t_hi_keeps_the_guess(self):
        # targets near 3.5e-307 at t_hi: the power there underflows to 0,
        # where the kernel raises NumericalError. The guess never checks
        # t_hi, so the link keeps it and is priced in one check, while the
        # same link without a guess, its prediction NaN at t_hi, checks t_hi
        # and raises
        nodes, gains = link(own=1e12, delay=1e300)
        [(floor, top)] = continuous_solos(nodes, gains, TABLE1_RADIO)
        assert top == nodes[0].delay_bound
        target = math.expm1(50.0 * math.log(2.0) / (top * TABLE1_RADIO.bandwidth_hz))
        assert target > 0 and target * TABLE1_RADIO.noise_power / gains.cols[0][0] == 0.0
        res = continuous_optimal(nodes, gains, TABLE1_RADIO)
        assert res.slot == solo_guess(floor, top) and res.checks == 1
        assert pricer_solo(nodes, gains, TABLE1_RADIO) == res
        no_guess = [(floor, math.nan)]
        price = outcome(continuous_optimal, nodes, gains, TABLE1_RADIO, math.inf, no_guess)
        assert price is NumericalError

    def test_solo_guess(self):
        assert solo_guess(2.0, 2.0) == 2.0
        assert math.isnan(solo_guess(2.0, math.nan))
        # t_lo + t_hi overflows: the midpoint is taken half by half
        hi = solo_guess(1e308, 1.7e308)
        assert 1e308 < hi <= 1e308 * (1 + 2e-6)
        # it is the final slot of the plain bisection with every midpoint
        # feasible, walked by the independent bisection_cell; at the float
        # max above, bisection_cell's midpoint overflows
        for t_lo, top in ((2.0, 2.0), (1e-6, 1e-3), (1e-300, 1e295)):
            assert solo_guess(t_lo, top) == bisection_cell(t_lo, top, lambda mid: True)[1]
