import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ratesched import (
    OVER_CAP,
    AllocationResult,
    ContinuousPricer,
    FixedPricer,
    Frame,
    GainMatrix,
    InfeasibleInstanceError,
    NodeSpec,
    TablePricer,
    ValidationError,
    Verdict,
    check_targets,
    compute_metrics,
    continuous_optimal,
    disc8_table,
    exhaustive_fits,
    exhaustive_schedule,
    lttf,
    mla_allocate,
    mua_allocate,
    schedule,
    sna_assign,
    validate_instance,
)
from ratesched import ExperimentConfig, experiment, run_experiment, scheduling
from ratesched.scheduling import STRATEGIES

from helpers import (
    TABLE1_RADIO,
    WORKLOADS,
    assert_group_certificate,
    four_node_fixture,
    near_singular_links,
    outcome,
    pricing_instances,
    random_gains,
    random_nodes,
    reference_schedule,
)

DISC8 = disc8_table(1e8)
MS = 1e-3


def gain_pricer(inst, gains, continuous=False):
    """Continuous or disc8 prices over ``gains`` at the Table-1 radio."""
    if continuous:
        return ContinuousPricer(inst, gains, TABLE1_RADIO)
    return TablePricer(inst, gains, DISC8, TABLE1_RADIO)


def two_node_pricer(kind):
    """Nodes 0 and 1 on distinct controllers, priced by ``kind``: "fixed"
    prices of 0.1 and 0.2 ms alone and 0.25 ms together, or "table" or
    "continuous" prices over random gains."""
    inst = fixture_instance(periods={0: 1, 1: 1}, controllers={0: 0, 1: 1})
    if kind == "fixed":
        return FixedPricer(inst, {(0,): 0.1 * MS, (1,): 0.2 * MS, (0, 1): 0.25 * MS})
    return gain_pricer(inst, random_gains(np.random.default_rng(3), 2), kind == "continuous")


def fixture_instance(periods, controllers):
    nodes = [
        NodeSpec(
            id=i,
            controller_id=controllers[i],
            packet_bits=100.0,
            period=periods[i],
            delay_bound=1e-3,
        )
        for i in sorted(periods)
    ]
    return validate_instance(nodes)


class TestSnaAssign:
    def test_four_node_example_split(self):
        inst, pricer = four_node_fixture()
        assignments = sna_assign(pricer)
        # longest slow node lands alone; the pairable two share the other slot
        assert assignments == {1: 0, 4: 0, 3: 1, 2: 1}

    def test_single_node_offset_zero(self):
        inst = fixture_instance(periods={0: 1}, controllers={0: 0})
        pricer = FixedPricer(inst, {(0,): 0.1 * MS})
        assert sna_assign(pricer) == {0: 0}

    def test_equal_nodes_spread_over_subframes(self):
        inst = fixture_instance(periods={0: 2, 1: 2}, controllers={0: 0, 1: 1})
        pricer = FixedPricer(inst, {(0,): 0.2 * MS, (1,): 0.2 * MS})
        assignments = sna_assign(pricer)
        assert sorted(assignments.values()) == [0, 1]

    def test_solo_infeasible_node_raises(self):
        inst = fixture_instance(periods={0: 1, 1: 1}, controllers={0: 0, 1: 1})
        pricer = FixedPricer(inst, {(0,): 0.1 * MS})
        with pytest.raises(InfeasibleInstanceError):
            sna_assign(pricer)


def priced_only_in_a_group():
    """Seven period-1 nodes on distinct controllers, each priced alone at
    1 ms except node 3, which is priced only in the group (2, 3)."""
    inst = fixture_instance(periods={i: 1 for i in range(7)}, controllers={i: i for i in range(7)})
    prices = {(i,): 1.0 * MS for i in range(7) if i != 3}
    prices[(2, 3)] = 0.5 * MS
    return FixedPricer(inst, prices)


class TestSoloRule:
    @pytest.mark.parametrize(
        "run",
        [
            sna_assign,
            lambda pricer: schedule(pricer, "sna-mla"),
            lambda pricer: schedule(pricer, "sna-mua"),
            lambda pricer: mla_allocate(range(6), pricer),
            lambda pricer: mla_allocate(range(7), pricer),
            lambda pricer: mua_allocate(range(7), pricer),
            exhaustive_schedule,
        ],
        ids=["sna_assign", "sna-mla", "sna-mua", "mla-exact", "mla-greedy", "mua", "exhaustive"],
    )
    def test_a_node_priced_only_in_a_group_has_no_schedule(self, run):
        # every scheduler takes its solos from SubsetPricer.solo, so none
        # lets a group cover a node that cannot transmit alone
        with pytest.raises(InfeasibleInstanceError) as excinfo:
            run(priced_only_in_a_group())
        assert excinfo.value.node_id == 3


class TestMlaAllocate:
    def test_empty_population_gives_no_groups(self):
        # the exact branch's partition of no members is empty, as is MUA's loop
        pricer = FixedPricer(fixture_instance({0: 1}, {0: 0}), {(0,): 0.1 * MS})
        assert mla_allocate([], pricer) == []
        assert mua_allocate([], pricer) == []

    def test_pair_beats_singletons(self):
        inst = fixture_instance(
            periods={2: 1, 3: 1, 4: 1}, controllers={2: 0, 3: 1, 4: 2}
        )
        pricer = FixedPricer(
            inst,
            {(2,): 0.20 * MS, (3,): 0.25 * MS, (4,): 0.30 * MS, (2, 3): 0.30 * MS},
        )
        groups = mla_allocate([2, 3, 4], pricer)
        assert [g[0] for g in groups] == [(2, 3), (4,)]
        assert math.fsum(g[1].slot for g in groups) == pytest.approx(0.60 * MS, rel=1e-12)

    def test_all_pairs_infeasible_gives_singletons(self):
        inst = fixture_instance(
            periods={0: 1, 1: 1, 2: 1}, controllers={0: 0, 1: 1, 2: 2}
        )
        pricer = FixedPricer(
            inst, {(0,): 0.1 * MS, (1,): 0.2 * MS, (2,): 0.3 * MS}
        )
        groups = mla_allocate([0, 1, 2], pricer)
        assert [g[0] for g in groups] == [(0,), (1,), (2,)]

    def test_cheap_pair_selected(self):
        inst = fixture_instance(periods={0: 1, 1: 1}, controllers={0: 0, 1: 1})
        pricer = FixedPricer(
            inst, {(0,): 0.2 * MS, (1,): 0.3 * MS, (0, 1): 0.3 * MS}
        )
        groups = mla_allocate([0, 1], pricer)
        assert [g[0] for g in groups] == [(0, 1)]

    def test_uncoverable_node_raises(self):
        inst = fixture_instance(periods={0: 1, 1: 1}, controllers={0: 0, 1: 1})
        pricer = FixedPricer(inst, {(0,): 0.2 * MS})
        with pytest.raises(InfeasibleInstanceError):
            mla_allocate([0, 1], pricer)

    def test_shared_controller_nodes_never_grouped(self):
        inst = fixture_instance(periods={0: 1, 1: 1}, controllers={0: 0, 1: 0})
        # the pair price exists but must be ignored: same controller
        pricer = FixedPricer(
            inst, {(0,): 0.2 * MS, (1,): 0.3 * MS, (0, 1): 0.25 * MS}
        )
        groups = mla_allocate([0, 1], pricer)
        assert [g[0] for g in groups] == [(0,), (1,)]

    def test_large_population_greedy_cover_with_overlap_cleanup(self):
        # seven nodes use the greedy cover; the last pick overlaps an earlier
        # one and the overlap is resolved by re-pricing the shrunken subset
        controllers = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0}
        inst = fixture_instance(
            periods={i: 1 for i in range(7)}, controllers=controllers
        )
        prices = {(i,): 1.0 * MS for i in range(6)}
        prices[(6,)] = 2.0 * MS
        prices.update({(0, 1): 1.0 * MS, (2, 3): 1.0 * MS, (4, 5): 1.0 * MS,
                       (5, 6): 1.0 * MS})
        groups = mla_allocate(list(range(7)), FixedPricer(inst, prices))
        assert [g[0] for g in groups] == [(0, 1), (2, 3), (4, 5), (6,)]
        seen = [i for ids, _ in groups for i in ids]
        assert sorted(seen) == list(range(7))
        assert math.fsum(g[1].slot for g in groups) == pytest.approx(5.0 * MS, rel=1e-12)

    def test_exact_branch_never_returns_an_unpriced_group(self):
        # the two pairs cover every node, but no partition into priced groups
        # exists: node 1 can join only one pair and no singleton has a price
        inst = fixture_instance(
            periods={0: 1, 1: 1, 2: 1}, controllers={0: 0, 1: 1, 2: 2}
        )
        pricer = FixedPricer(inst, {(0, 1): 0.2 * MS, (1, 2): 0.3 * MS})
        with pytest.raises(InfeasibleInstanceError):
            mla_allocate([0, 1, 2], pricer)

    def test_greedy_branch_never_returns_an_unpriced_group(self):
        # seven nodes take the greedy cover: (0, 1) at 0.1 ms per node, then
        # (1, 2, 3) at 0.45 ms per new node, then the solos at 1 ms; the
        # overlap clean-up shrinks (1, 2, 3) to (2, 3), which has no price
        # (or one above its solo sum), so pricer.group rejects it and its
        # members transmit alone
        inst = fixture_instance(
            periods={i: 1 for i in range(7)}, controllers={i: i for i in range(7)}
        )
        prices = {(i,): 1.0 * MS for i in range(7)}
        prices.update({(0, 1): 0.2 * MS, (1, 2, 3): 0.9 * MS})
        for pair in ({}, {(2, 3): 2.5 * MS}):
            groups = mla_allocate(list(range(7)), FixedPricer(inst, prices | pair))
            assert [ids for ids, _ in groups] == [(0, 1), (2,), (3,), (4,), (5,), (6,)]
            assert sorted(i for ids, _ in groups for i in ids) == list(range(7))
            assert all(res.slot == prices[ids] for ids, res in groups)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        n=st.integers(7, 10),
        n_controllers=st.integers(2, 4),
        continuous=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_overlap_cleanup_can_only_reduce_the_total(self, n, n_controllers, continuous, seed):
        # above 6 nodes the greedy cover's selection may overlap; keeping each
        # node only in its cheapest selected subset re-prices the shrunk
        # subsets, which stay feasible and cost no more in total
        rng = np.random.default_rng(seed)
        controllers = {i: int(rng.integers(0, n_controllers)) for i in range(n)}
        inst = fixture_instance(periods={i: 1 for i in range(n)}, controllers=controllers)
        pricer = gain_pricer(inst, random_gains(rng, n), continuous)
        population = list(range(n))
        candidates = scheduling._candidates(population, pricer)
        selected = scheduling._greedy_cover(population, candidates)
        groups = scheduling._dedup_cover(selected, pricer)
        assert math.fsum(g[1].slot for g in groups) <= math.fsum(s[1].slot for s in selected)
        assert all(res.feasible for _, res in groups)
        assert sorted(i for ids, _ in groups for i in ids) == population

    def test_overlap_cleanup_drops_an_emptied_subset(self):
        # the cover picks (1, 2, 3) first (2.9 ms for 3 nodes), then the
        # 2 ms pairs (1, 4), (2, 5), (3, 6) and the solo (7,); each of 1, 2
        # and 3 stays in its cheaper pair, which leaves (1, 2, 3) empty
        controllers = {1: 0, 2: 1, 3: 2, 4: 1, 5: 2, 6: 0, 7: 3}
        inst = fixture_instance(periods={i: 1 for i in controllers}, controllers=controllers)
        prices = {(i,): 5 * MS for i in controllers}
        prices.update({(1, 2, 3): 2.9 * MS, (1, 4): 2 * MS, (2, 5): 2 * MS, (3, 6): 2 * MS})
        groups = mla_allocate(list(controllers), FixedPricer(inst, prices))
        assert [(ids, res.slot) for ids, res in groups] == [
            ((1, 4), 2 * MS), ((2, 5), 2 * MS), ((3, 6), 2 * MS), ((7,), 5 * MS)
        ]

    def test_exact_branch_matches_exhaustive_optimum(self):
        # with every period 1 the frame is one subframe, so the exhaustive
        # optimum is the minimum-total partition of the whole population
        rng = np.random.default_rng(27)
        compared = 0
        while compared < 15:
            n = int(rng.integers(2, 7))
            controllers = {i: int(rng.integers(0, 3)) for i in range(n)}
            inst = fixture_instance(periods={i: 1 for i in range(n)}, controllers=controllers)
            pricer = gain_pricer(inst, random_gains(rng, n))
            try:
                _, optimum = exhaustive_schedule(pricer)
            except InfeasibleInstanceError:
                continue
            groups = mla_allocate(list(range(n)), pricer)
            assert math.fsum(g[1].slot for g in groups) == optimum.max_active
            compared += 1


@pytest.mark.parametrize("kind", ["table", "continuous", "fixed"])
@pytest.mark.parametrize("allocate", [mla_allocate, mua_allocate])
def test_allocators_reject_a_repeated_id(allocate, kind):
    # as price does: MLA's partition DP would fail on the repeated bit and
    # MUA's unassigned set would group the node once
    pricer = two_node_pricer(kind)
    for population in ([0, 0], (1, 0, 1)):
        with pytest.raises(ValidationError, match="repeated"):
            allocate(population, pricer)


class TestMuaAllocate:
    def test_pair_formed_by_utility(self):
        inst = fixture_instance(
            periods={2: 1, 3: 1, 4: 1}, controllers={2: 0, 3: 1, 4: 2}
        )
        pricer = FixedPricer(
            inst,
            {(2,): 0.20 * MS, (3,): 0.25 * MS, (4,): 0.30 * MS, (2, 3): 0.30 * MS},
        )
        # seed is node 4 (largest solo); no partner is feasible for it, so it
        # stays alone; nodes 2 and 3 then pair with utility 0.15 ms
        groups = mua_allocate([2, 3, 4], pricer)
        assert [g[0] for g in groups] == [(2, 3), (4,)]

    def test_single_node_group(self):
        inst = fixture_instance(periods={0: 1}, controllers={0: 0})
        pricer = FixedPricer(inst, {(0,): 0.1 * MS})
        assert [g[0] for g in mua_allocate([0], pricer)] == [(0,)]

    def test_zero_utility_addition_rejected(self):
        inst = fixture_instance(periods={0: 1, 1: 1}, controllers={0: 0, 1: 1})
        # pairing saves nothing (price equals the solo sum), so both stay solo
        pricer = FixedPricer(
            inst, {(0,): 0.2 * MS, (1,): 0.3 * MS, (0, 1): 0.5 * MS}
        )
        groups = mua_allocate([0, 1], pricer)
        assert [g[0] for g in groups] == [(0,), (1,)]

    def test_greedy_seed_choice_can_lose_to_exact_cover(self):
        # Node 0 prefers node 1 (utility 0.20 > 0.18) although the partition
        # {0,2} + {1,3} has the smaller total; MLA's exact cover finds it.
        inst = fixture_instance(
            periods={0: 1, 1: 1, 2: 1, 3: 1},
            controllers={0: 0, 1: 1, 2: 1, 3: 0},
        )
        pricer = FixedPricer(
            inst,
            {
                (0,): 1.00 * MS,
                (1,): 0.90 * MS,
                (2,): 0.80 * MS,
                (3,): 0.70 * MS,
                (0, 1): 1.70 * MS,
                (0, 2): 1.62 * MS,
                (1, 3): 1.42 * MS,
            },
        )
        mla_total = math.fsum(g[1].slot for g in mla_allocate([0, 1, 2, 3], pricer))
        mua_total = math.fsum(g[1].slot for g in mua_allocate([0, 1, 2, 3], pricer))
        assert mla_total == pytest.approx(3.04 * MS, rel=1e-12)
        assert mua_total == pytest.approx(3.20 * MS, rel=1e-12)
        assert mua_total > mla_total
        # the exhaustive scheduler agrees with the exact cover here
        _, metrics = exhaustive_schedule(pricer)
        assert metrics.max_active == pytest.approx(3.04 * MS, rel=1e-12)


class TestSchedule:
    def test_four_node_example_max_active(self):
        inst, pricer = four_node_fixture()
        for strategy in ("sna-mla", "sna-mua"):
            frame, metrics = schedule(pricer, strategy)
            assert metrics.max_active == pytest.approx(0.45 * MS, rel=1e-12)
            assert list(metrics.active_lengths) == pytest.approx(
                [0.45 * MS, 0.45 * MS], rel=1e-12
            )
        _, optimum = exhaustive_schedule(pricer)
        assert optimum.max_active == pytest.approx(0.45 * MS, rel=1e-12)

    def test_single_node_schedule(self):
        inst = fixture_instance(periods={0: 1}, controllers={0: 0})
        pricer = FixedPricer(inst, {(0,): 0.1 * MS})
        _, metrics = schedule(pricer)
        assert metrics.max_active == 0.1 * MS

    def test_no_concurrency_sums_solo_times(self):
        inst = fixture_instance(
            periods={0: 1, 1: 1, 2: 1}, controllers={0: 0, 1: 1, 2: 2}
        )
        prices = {(0,): 0.1 * MS, (1,): 0.2 * MS, (2,): 0.3 * MS}
        pricer = FixedPricer(inst, prices)
        _, metrics = schedule(pricer)
        assert metrics.max_active == pytest.approx(0.6 * MS, rel=1e-12)

    def test_unknown_strategy_rejected(self):
        inst = fixture_instance(periods={0: 1}, controllers={0: 0})
        with pytest.raises(ValidationError, match="strategy"):
            schedule(FixedPricer(inst, {(0,): 1e-4}), strategy="bogus")


def _random_real_instance(rng, n):
    periods = [int(p) for p in rng.choice([1, 2, 4], size=n)]
    controllers = [int(c) for c in rng.integers(0, 3, size=n)]
    nodes = [
        NodeSpec(
            id=i,
            controller_id=controllers[i],
            packet_bits=float(rng.choice([50.0, 100.0])),
            period=periods[i],
            delay_bound=1e-3,
        )
        for i in range(n)
    ]
    inst = validate_instance(nodes)
    gains = random_gains(rng, n)
    return inst, gains


@st.composite
def small_instances(draw):
    """Up to 6 nodes on 3 controllers with periods from {1, 2, 4}, and gains
    whose solo SNR (at least 2 dB) clears disc8's lowest level."""
    n = draw(st.integers(1, 6))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    periods = column(st.sampled_from([1, 2, 4]))
    controllers = column(st.integers(0, 2))
    bits = column(st.sampled_from([50.0, 100.0]))
    nodes = [
        NodeSpec(
            id=i,
            controller_id=controllers[i],
            packet_bits=bits[i],
            period=periods[i],
            delay_bound=1e-3,
        )
        for i in range(n)
    ]
    gains = random_gains(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    return validate_instance(nodes), gains


def _occupied(inst, frame, node_id):
    period = inst.periods[node_id]
    offset = frame.assignments[node_id]
    return {m for m in range(frame.subframe_count) if m % period == offset}


def assert_frame_invariants(pricer, frame, metrics):
    """Every node of ``pricer.inst`` once per period, and groups of feasible,
    controller-distinct nodes of one period; under a gain-backed pricer
    every group also carries its certificate (``assert_group_certificate``)."""
    inst = pricer.inst
    assert frame.subframe_count == inst.subframe_count
    for i in inst.ids:
        assert 0 <= frame.assignments[i] < inst.periods[i]
        occupied = _occupied(inst, frame, i)
        for m in range(frame.subframe_count):
            hits = sum(i in ids for ids, _ in frame.groups[m])
            assert hits == (1 if m in occupied else 0)
    for subframe in frame.groups:
        for ids, alloc in subframe:
            ctrl = [inst.node(i).controller_id for i in ids]
            assert len(set(ctrl)) == len(ctrl)
            assert len({inst.periods[i] for i in ids}) == 1
            assert alloc.feasible
            if hasattr(pricer, "gains"):
                assert_group_certificate(pricer, ids, alloc)
    assert metrics.max_active == max(metrics.active_lengths)


def _partition_slots(pricer, nodes):
    """Slot lengths of every partition of ``nodes`` into feasible,
    controller-distinct groups of one period."""
    if not nodes:
        yield ()
        return
    first, rest = nodes[0], nodes[1:]
    for size in range(len(rest) + 1):
        for others in itertools.combinations(rest, size):
            group = (first,) + others
            if len({pricer.inst.periods[i] for i in group}) > 1:
                continue
            if len({pricer.controller(i) for i in group}) < len(group):
                continue
            res = pricer.price(group)
            if not res.feasible:
                continue
            left = [i for i in rest if i not in others]
            for tail in _partition_slots(pricer, left):
                yield (res.slot,) + tail


def exhaustive_oracle(inst, pricer):
    """Brute force over every offset vector, without the rotation pin.

    Vectors run in ``itertools.product`` order over the ids sorted by (period,
    id); a subframe costs the least fsum over all partitions of its population.
    Returns the optimum and the first optimal assignment that puts the first
    node of the longest period at offset 0, the frame the exhaustive search
    documents to return.
    """
    ids = sorted(inst.ids, key=lambda i: (inst.periods[i], i))
    pinned = next(i for i in ids if inst.periods[i] == inst.subframe_count)
    cost = {}

    def subframe_cost(population):
        if population not in cost:
            slots = _partition_slots(pricer, sorted(population))
            cost[population] = min(map(math.fsum, slots), default=math.inf)
        return cost[population]

    scores = {}
    for offsets in itertools.product(*(range(inst.periods[i]) for i in ids)):
        assignment = dict(zip(ids, offsets))
        scores[offsets] = max(
            subframe_cost(
                frozenset(i for i in ids if m % inst.periods[i] == assignment[i])
            )
            for m in range(inst.subframe_count)
        )
    optimum = min(scores.values())
    first = next(
        offsets
        for offsets, score in scores.items()
        if score == optimum and offsets[ids.index(pinned)] == 0
    )
    return optimum, dict(zip(ids, first))


def assert_matches_oracle(inst, pricer):
    optimum, assignment = exhaustive_oracle(inst, pricer)
    if optimum == math.inf:
        with pytest.raises(InfeasibleInstanceError):
            exhaustive_schedule(pricer)
        return
    frame, metrics = exhaustive_schedule(pricer)
    assert metrics.max_active == optimum
    assert_frame_invariants(pricer, frame, metrics)
    assert compute_metrics(frame).max_active == metrics.max_active
    assert frame.assignments == assignment


def _two_class_case():
    # M = 4 with a period-1 and a period-4 class, both with shareable slots
    periods = [1, 4, 4, 1, 4, 4]
    nodes = [
        NodeSpec(
            id=i,
            controller_id=i % 3,
            packet_bits=(50.0, 100.0)[i % 2],
            period=periods[i],
            delay_bound=1e-3,
        )
        for i in range(len(periods))
    ]
    gains = random_gains(np.random.default_rng(27), len(nodes), iso_db=(15.0, 25.0))
    return validate_instance(nodes), gains


class TestFrameInvariants:
    def test_coverage_controllers_periods_feasibility(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            inst, gains = _random_real_instance(rng, n)
            pricer = gain_pricer(inst, gains)
            for strategy in ("sna-mla", "sna-mua"):
                assert_frame_invariants(pricer, *schedule(pricer, strategy))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(case=small_instances(), continuous=st.booleans())
    def test_every_scheduler_keeps_the_frame_invariants(self, case, continuous):
        inst, gains = case
        pricer = gain_pricer(inst, gains, continuous)
        for strategy in STRATEGIES:
            assert_frame_invariants(pricer, *schedule(pricer, strategy))
        assert_frame_invariants(pricer, *exhaustive_schedule(pricer))

    @pytest.mark.parametrize("energy_scale", [1.0, 1e-4])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_workload_frames_carry_their_certificates(self, workload, energy_scale, monkeypatch):
        # every frame of a benchmark workload's sweep, on a tenth of its
        # seeds, heuristic and exhaustive, with loose and binding energy
        # budgets, keeps the invariants and each group's certificate
        built = Counter()

        def checking(name, build):
            def call(pricer, *args):
                frame, metrics = build(pricer, *args)
                assert_frame_invariants(pricer, frame, metrics)
                built[name, type(pricer).__name__] += 1
                return frame, metrics
            return call

        for name in ("schedule", "exhaustive_schedule"):
            monkeypatch.setattr(experiment, name, checking(name, getattr(experiment, name)))
        spec = WORKLOADS[workload]
        run_experiment(ExperimentConfig.from_dict(dict(
            spec["config"], seeds=max(2, spec["config"]["seeds"] // 10),
            master_seed=spec["default_seed"], energy_scale=energy_scale,
        )))
        assert built["schedule", "ContinuousPricer"] and built["schedule", "TablePricer"]

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(case=small_instances(), continuous=st.booleans())
    def test_exhaustive_never_beaten(self, case, continuous):
        inst, gains = case
        pricer = gain_pricer(inst, gains, continuous)
        _, optimum = exhaustive_schedule(pricer)
        for strategy in STRATEGIES:
            _, metrics = schedule(pricer, strategy)
            assert optimum.max_active <= metrics.max_active

    def test_removing_a_node_from_a_group_never_hurts(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 40:
            n = int(rng.integers(4, 7))
            inst, gains = _random_real_instance(rng, n)
            pricer = gain_pricer(inst, gains)
            frame, _ = schedule(pricer, "sna-mla")
            for m in range(frame.subframe_count):
                for ids, alloc in frame.groups[m]:
                    if len(ids) < 2:
                        continue
                    drop = ids[int(rng.integers(0, len(ids)))]
                    kept = tuple(i for i in ids if i != drop)
                    shrunk = pricer.price(kept)
                    assert shrunk.feasible
                    assert shrunk.slot <= alloc.slot
                    checked += 1

    def test_schedule_is_deterministic(self):
        rng = np.random.default_rng(24)
        inst, gains = _random_real_instance(rng, 6)
        a_frame, a_metrics = schedule(gain_pricer(inst, gains), "sna-mua")
        b_frame, b_metrics = schedule(gain_pricer(inst, gains), "sna-mua")
        assert a_frame == b_frame
        assert a_metrics == b_metrics


class TestExhaustive:
    def test_node_guard(self):
        rng = np.random.default_rng(25)
        inst, gains = _random_real_instance(rng, 9)
        assert not exhaustive_fits(inst)
        with pytest.raises(ValidationError, match="8 nodes"):
            exhaustive_schedule(gain_pricer(inst, gains))

    def test_subframe_guard(self):
        nodes = [
            NodeSpec(id=0, controller_id=0, packet_bits=100.0, period=1, delay_bound=1e-3),
            NodeSpec(id=1, controller_id=1, packet_bits=100.0, period=8, delay_bound=1e-3),
        ]
        inst = validate_instance(nodes)
        assert not exhaustive_fits(inst)
        with pytest.raises(ValidationError, match="4 subframes"):
            exhaustive_schedule(gain_pricer(inst, GainMatrix(np.eye(2) * 1e-6 + 1e-12)))

    def test_decoupled_pair_shares_a_slot(self):
        nodes = [
            NodeSpec(id=0, controller_id=0, packet_bits=100.0, period=1, delay_bound=1e-3),
            NodeSpec(id=1, controller_id=1, packet_bits=50.0, period=1, delay_bound=1e-3),
        ]
        inst = validate_instance(nodes)
        gains = GainMatrix([[1e-4, 1e-15], [1e-15, 1e-4]])
        pricer = gain_pricer(inst, gains)
        _, metrics = exhaustive_schedule(pricer)
        solos = [pricer.price((0,)).slot, pricer.price((1,)).slot]
        assert metrics.max_active == max(solos)
        frame, _ = exhaustive_schedule(pricer)
        assert frame.groups[0][0][0] == (0, 1)

    def test_infeasible_instance_raises(self):
        nodes = [
            NodeSpec(id=0, controller_id=0, packet_bits=100.0, period=1, delay_bound=1e-9)
        ]
        inst = validate_instance(nodes)
        with pytest.raises(InfeasibleInstanceError):
            exhaustive_schedule(gain_pricer(inst, GainMatrix([[1e-4]])))

    def test_denser_ladder_never_hurts_the_optimum(self):
        # disc4's levels are a subset of disc8's, so every group price under
        # disc8 is at most the disc4 price and the exact optima are ordered
        from ratesched import disc4_table

        disc4 = disc4_table(1e8)
        rng = np.random.default_rng(26)
        compared = 0
        while compared < 10:
            n = int(rng.integers(3, 6))
            inst, gains = _random_real_instance(rng, n)
            try:
                _, opt4 = exhaustive_schedule(TablePricer(inst, gains, disc4, TABLE1_RADIO))
            except InfeasibleInstanceError:
                continue
            _, opt8 = exhaustive_schedule(gain_pricer(inst, gains))
            assert opt8.max_active <= opt4.max_active
            compared += 1

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(case=small_instances(), continuous=st.booleans())
    @example(case=_two_class_case(), continuous=False)
    @example(case=_two_class_case(), continuous=True)
    def test_matches_unpinned_brute_force(self, case, continuous):
        inst, gains = case
        assert_matches_oracle(inst, gain_pricer(inst, gains, continuous))

    def test_eight_nodes_of_the_longest_period_match_brute_force(self):
        # the largest search the guards allow: 4**7 pinned offset vectors
        nodes = [
            NodeSpec(
                id=i,
                controller_id=i % 4,
                packet_bits=(50.0, 100.0)[i % 2],
                period=4,
                delay_bound=1e-3,
            )
            for i in range(8)
        ]
        inst = validate_instance(nodes)
        assert (len(inst.nodes), inst.subframe_count) == (8, 4)
        assert exhaustive_fits(inst)
        gains = random_gains(np.random.default_rng(28), 8, iso_db=(15.0, 25.0))
        assert_matches_oracle(inst, gain_pricer(inst, gains))


class TestPricerSolos:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        instance=pricing_instances(sizes=st.just(5)),
        order=st.permutations(
            [c for k in range(1, 6) for c in itertools.combinations(range(5), k)]
        ),
    )
    def test_cached_solo_terms_change_no_price(self, instance, order):
        # every subset, priced in random order through one pricer per rate
        # model, gets the bare solver's result bit for bit, or its error type
        nodes, gains, table, radio = instance
        inst = validate_instance(nodes)
        pricers = TablePricer(inst, gains, table, radio), ContinuousPricer(inst, gains, radio)
        for ids in order:
            subset, sub = [nodes[i] for i in ids], gains.sub(ids)
            bare = (
                outcome(lttf, subset, sub, table, radio),
                outcome(continuous_optimal, subset, sub, radio),
            )
            assert tuple(outcome(p.price, ids) for p in pricers) == bare


class TestSubsetPricer:
    @pytest.mark.parametrize("kind", ["table", "continuous", "fixed"])
    def test_repeated_or_unknown_ids_raise(self, kind):
        # a repeated id would collapse into the frozenset key, and an unknown
        # one would reach the gain-backed pricers' position lookup
        pricer = two_node_pricer(kind)
        with pytest.raises(ValidationError, match="repeated"):
            pricer.price((1, 1))
        assert pricer.price((0,)).feasible
        for ids in ((0, 0), [0, 1, 0]):
            with pytest.raises(ValidationError, match="repeated"):
                pricer.price(ids)
        for ids in ((5,), (0, 5), (-1, 1)):
            with pytest.raises(ValidationError, match="unknown"):
                pricer.price(ids)
        for ids in ((9,), (0, 9)):  # group's controller lookup, as solo and price
            with pytest.raises(ValidationError, match="unknown"):
                pricer.group(ids)

    @pytest.mark.parametrize("kind", ["table", "continuous", "fixed"])
    def test_ids_that_are_not_ints_raise(self, kind):
        # True and 1.0 hash as node 1, so a lookup by key alone would take
        # them for it: price would price node 1, solo read its kept result
        # and group the pair's kept answer
        pricer = two_node_pricer(kind)
        assert pricer.solo(1).feasible and pricer.group((0, 1)) is not None
        calls = [(pricer.price, ids) for ids in ((True,), (1.0,), (0, np.int64(1)))]
        calls += [(pricer.solo, i) for i in (True, 1.0, np.int64(1))]
        calls += [(pricer.group, ids) for ids in ((False, 1.0), (0, True), (1.0,))]
        for call, arg in calls:
            with pytest.raises(ValidationError, match="must be ints"):
                call(arg)

    @pytest.mark.parametrize("kind", ["table", "continuous", "fixed"])
    def test_an_empty_subset_raises(self, kind):
        # every pricer gives the one answer before any _price call: fixed
        # prices would answer infeasible, the solvers raise their own error
        pricer, priced = two_node_pricer(kind), []
        price = pricer._price
        pricer._price = lambda ids, cap: priced.append(ids) or price(ids, cap)
        for ids in ((), [], frozenset()):
            for call in (pricer.price, pricer.group):
                with pytest.raises(ValidationError, match="nonempty"):
                    call(ids)
        assert priced == []
        assert pricer.group((0, 1)) is not None and priced[-1] == (0, 1)
        with pytest.raises(ValidationError, match="nonempty"):
            pricer.group(())

    @pytest.mark.parametrize("over_cap", [False, True])
    def test_a_repeated_group_returns_the_first_answer(self, over_cap):
        # group keeps its answer per member set, None included, and prices
        # each set once; a repeated id is still None once {0, 1} is kept
        inst = fixture_instance(periods={0: 1, 1: 1}, controllers={0: 0, 1: 1})
        slot = (0.4 if over_cap else 0.2) * MS
        prices = {(0,): 0.1 * MS, (1,): 0.2 * MS, (0, 1): slot}
        pricer, priced = FixedPricer(inst, prices), []
        price = pricer._price
        pricer._price = lambda ids, cap: priced.append(ids) or price(ids, cap)
        pricer.solo(0), pricer.solo(1)
        first = pricer.group((0, 1))
        assert (first is None) == over_cap
        assert pricer.group((1, 0)) is first
        assert priced.count((0, 1)) == 1
        assert first == FixedPricer(inst, prices).group((0, 1))
        assert pricer.group((0, 1, 0)) is None

    @pytest.mark.parametrize("continuous", [False, True])
    def test_gain_matrix_must_cover_the_instance(self, continuous):
        inst = fixture_instance(periods={0: 1, 1: 1}, controllers={0: 0, 1: 1})
        with pytest.raises(ValidationError, match="every instance node"):
            gain_pricer(inst, GainMatrix([[1e-6]]), continuous)

    def test_group_rule(self):
        # distinct controllers, a feasible price, and a slot at most the
        # fsum of the members' solo slots; one member is that node's solo
        inst = fixture_instance(
            periods={0: 1, 1: 1, 2: 1, 3: 1}, controllers={0: 0, 1: 1, 2: 0, 3: 2}
        )
        prices = {(0,): 0.1 * MS, (1,): 0.2 * MS, (2,): 0.3 * MS, (3,): 0.4 * MS}
        at_sum = math.fsum([prices[(1,)], prices[(3,)]])
        above_sum = math.nextafter(math.fsum([prices[(0,)], prices[(3,)]]), math.inf)
        prices.update({(0, 2): 0.1 * MS, (1, 3): at_sum, (0, 3): above_sum})
        pricer = FixedPricer(inst, prices)
        assert pricer.group((0, 2)) is None  # controller 0 twice
        assert pricer.group((2, 3)) is None  # unpriced
        assert pricer.group((0, 3)) is None  # one ulp above its solo sum
        assert pricer.group((3, 1)).slot == at_sum
        assert pricer.group((2,)) is pricer.solo(2)
        assert pricer.group([2]).slot == 0.3 * MS
        pricer, caps = FixedPricer(inst, prices), []
        price = pricer.price
        pricer.price = lambda ids, cap=math.inf: caps.append(cap) or price(ids, cap)
        assert pricer.group((2,)).slot == 0.3 * MS
        assert caps == [math.inf]  # priced as a solo, never capped
        del prices[(3,)]
        with pytest.raises(InfeasibleInstanceError) as excinfo:
            FixedPricer(inst, prices).group((1, 3))  # as solo does
        assert excinfo.value.node_id == 3

    def test_fixed_prices_ignore_the_cap(self):
        inst = fixture_instance(periods={0: 1, 1: 1}, controllers={0: 0, 1: 1})
        pricer = FixedPricer(inst, {(0,): 0.1 * MS, (1,): 0.2 * MS, (0, 1): 0.5 * MS})
        assert pricer.price((0, 1), 0.3 * MS).slot == 0.5 * MS
        # a feasible price is a finite slot > 0, as the schedulers assume
        for bad in (-1.0, 0, math.nan, math.inf, True, "1"):
            with pytest.raises(ValidationError, match="finite number > 0"):
                FixedPricer(inst, {(0,): 0.1 * MS, (0, 1): bad})


class TestPricerCounts:
    def test_group_counts_its_rejections_hits_and_prices(self):
        # nodes 1 and 2 share controller 0; the pair (2, 3) is priced once,
        # after its members' solos, and then read from the kept answer
        _, pricer = four_node_fixture()
        assert pricer.group((1, 2)) is None
        assert pricer.group((2, 3)) == pricer.group((3, 2)) is not None
        counts = pricer.counts()
        assert (counts["rejections"], counts["group_hits"]) == (1, 1)
        assert counts["priced"] == [2, 1, 0, 0]
        assert counts["checks"] == counts["evaluations"] == counts["over_cap"] == 0

    def test_a_continuous_group_over_its_cap_reads_over_cap(self):
        # two links on distinct controllers, each interfering at 0.9 of the
        # other's own gain: the pair is feasible, but only at a slot above
        # the sum of its solo slots, its cap, so group prices it over cap;
        # its reason is OVER_CAP, not the verdict of the check at the cap
        nodes = [NodeSpec(i, i, 50.0, 1, 1e-3) for i in range(2)]
        gains = GainMatrix([[1e-6, 0.9e-6], [0.9e-6, 1e-6]])
        pricer = ContinuousPricer(validate_instance(nodes), gains, TABLE1_RADIO)
        cap = math.fsum(pricer.solo(i).slot for i in (0, 1))
        exact = continuous_optimal(nodes, gains, TABLE1_RADIO)
        assert exact.feasible and exact.slot > cap
        assert pricer.group((0, 1)) is None
        assert pricer.counts()["over_cap"] == 1
        capped = pricer.price((0, 1), cap)
        assert not capped.feasible and capped.reason is OVER_CAP
        assert pricer.counts()["over_cap"] == 2
        # the check at the cap fails on the spectral test: a verdict about
        # that slot alone, which the price does not report as its reason
        targets = [math.expm1(50.0 * math.log(2.0) / (cap * 1e8))] * 2
        at_cap = check_targets(gains, targets, TABLE1_RADIO, [cap] * 2, [1e-3] * 2, [math.inf] * 2)
        assert at_cap.verdict is Verdict.INFEASIBLE_SPECTRAL


class CappingFixedPricer(FixedPricer):
    """Fixed prices that stop at every cap, as the gain-backed pricers may:
    a price above ``cap`` comes back infeasible."""

    def _price(self, ids, cap):
        res = super()._price(ids, cap)
        return res if res.slot <= cap else AllocationResult.infeasible()


def ignoring_cap(pricer):
    """``pricer`` with every cap dropped, so that each price is exact: its
    ``_price``, the seam of ``price``, ``solo`` and ``group``, is called with
    no cap."""
    pricer._price = lambda ids, cap: type(pricer)._price(pricer, ids, math.inf)
    return pricer


def unfiltered_candidates(members, pricer):
    """``scheduling._candidates`` without caps: every member's solo from
    ``pricer.solo``, then every feasible controller-distinct subset,
    dominated ones included."""
    bit = {i: 1 << k for k, i in enumerate(members)}
    out = [(bit[i], (i,), pricer.solo(i)) for i in members]
    for size in range(2, len({pricer.controller(i) for i in members}) + 1):
        for ids in itertools.combinations(members, size):
            if len({pricer.controller(i) for i in ids}) < size:
                continue
            res = pricer.price(ids)
            if res.feasible:
                out.append((sum(bit[i] for i in ids), ids, res))
    return out


def random_prices(rng, inst):
    """Solo prices of 0.1-1 ms, and prices for about 4 in 5 groups of 2 or 3
    nodes at 0.4-1.6 times the sum of their solo prices, so that about half
    of them are above it."""
    solo = {i: float(rng.uniform(0.1, 1.0)) * MS for i in inst.ids}
    prices = {(i,): slot for i, slot in solo.items()}
    for size in (2, 3):
        for ids in itertools.combinations(inst.ids, size):
            if rng.random() < 0.8:
                prices[ids] = math.fsum(solo[i] for i in ids) * float(rng.uniform(0.4, 1.6))
    return prices


@st.composite
def cap_cases(draw):
    """An instance of ``small_instances``; 7-8 nodes of period 1 on 2-4
    controllers (MLA's greedy branch); or 2-8 nodes with periods from
    {1, 2} on 3 controllers whose energy budgets bind (``random_nodes``);
    a pricer kind; a seed for fixed prices."""
    shape = draw(st.sampled_from(["small", "greedy", "energy"]))
    if shape == "small":
        inst, gains = draw(small_instances())
    elif shape == "greedy":
        n = draw(st.integers(7, 8))
        n_controllers = draw(st.integers(2, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        controllers = {i: int(rng.integers(0, n_controllers)) for i in range(n)}
        inst = fixture_instance(periods={i: 1 for i in range(n)}, controllers=controllers)
        gains = random_gains(rng, n)
    else:
        n = draw(st.integers(2, 8))
        energy_prob = draw(st.sampled_from([0.5, 1.0]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        controllers = [int(rng.integers(0, 3)) for _ in range(n)]
        inst = validate_instance(
            random_nodes(
                rng, n, DISC8, periods=(1, 2), controllers=controllers,
                binding_energy_prob=energy_prob,
            )
        )
        gains = random_gains(rng, n)
    return inst, gains, draw(st.sampled_from(["table", "continuous", "fixed"])), draw(
        st.integers(0, 2**32 - 1)
    )


class TestCappedPricing:
    @settings(derandomize=True, deadline=None, max_examples=180)
    @given(case=cap_cases())
    def test_caps_change_no_schedule(self, case):
        # MLA (both branches), MUA and the exhaustive search give equal
        # frames and bit-identical max_active whether the pricer stops at
        # each cap, ignores every cap, or also prices the subsets whose slot
        # is above their members' solo sum (which _candidates leaves out)
        inst, gains, kind, seed = case

        def make():
            if kind == "fixed":
                return CappingFixedPricer(inst, random_prices(np.random.default_rng(seed), inst))
            return gain_pricer(inst, gains, kind == "continuous")

        def run(pricer):
            runs = [lambda s=s: schedule(pricer, s) for s in STRATEGIES]
            if exhaustive_fits(inst):
                runs.append(lambda: exhaustive_schedule(pricer))
            out = []
            for fn in runs:
                try:
                    out.append(fn())
                except InfeasibleInstanceError:
                    out.append(InfeasibleInstanceError)
            return out

        capped = run(make())
        assert capped == run(ignoring_cap(make()))
        with mock.patch.object(scheduling, "_candidates", unfiltered_candidates):
            assert capped == run(ignoring_cap(make()))


class TestSharedPricer:
    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(
        instance=small_instances(),
        kind=st.sampled_from(["table", "continuous", "fixed"]),
        order=st.permutations(["sna-mla", "sna-mua", "exhaustive"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_pricer_serves_every_scheduler(self, instance, kind, order, seed):
        # the offsets, populations, partitions and frame a pricer keeps
        # give the frames and bit-identical max_active of fresh pricers, in
        # any order; sna_assign runs once, both strategies get the kept
        # population tuples, only populations of three or more nodes reach
        # an allocator, each member tuple's candidates are enumerated at most
        # once, a repeated call returns an equal frame, running no allocator
        # where no population has more than two nodes, and each frame owns
        # its assignments
        inst, gains = instance

        def make():
            if kind == "fixed":
                return FixedPricer(inst, random_prices(np.random.default_rng(seed), inst))
            return gain_pricer(inst, gains, kind == "continuous")

        def run(pricer, name):
            return exhaustive_schedule(pricer) if name == "exhaustive" else schedule(pricer, name)

        allocators = {name: mock.Mock(wraps=fn) for name, fn in scheduling._ALLOCATORS.items()}
        shared = make()
        with (
            mock.patch.object(scheduling, "sna_assign", wraps=sna_assign) as assign,
            mock.patch.object(
                scheduling, "_candidates", wraps=scheduling._candidates
            ) as candidates,
            mock.patch.dict(scheduling._ALLOCATORS, allocators),
        ):
            results = {name: run(shared, name) for name in order}
        assert assign.call_count == 1
        enumerated = Counter(tuple(call.args[0]) for call in candidates.call_args_list)
        assert enumerated and max(enumerated.values()) == 1
        kept = shared.populations()
        assert shared.populations() is kept
        allocated = [call.args[0] for spy in allocators.values() for call in spy.call_args_list]
        assert all(any(p is members for _, members in kept) for p in allocated)
        above_two = sum(len(members) > 2 for _, members in kept)
        assert len(allocated) == 2 * above_two
        for name, (frame, metrics) in results.items():
            fresh_frame, fresh_metrics = run(make(), name)
            assert frame == fresh_frame
            assert metrics.max_active.hex() == fresh_metrics.max_active.hex()
        for spy in allocators.values():
            spy.reset_mock()
        with mock.patch.dict(scheduling._ALLOCATORS, allocators):
            repeated = [schedule(shared, name) for name in STRATEGIES]
        assert sum(spy.call_count for spy in allocators.values()) == 2 * above_two
        assert repeated == [results[name] for name in STRATEGIES]
        frames = [frame for frame, _ in [*results.values(), *repeated]]
        owned = [dict(frame.assignments) for frame in frames]
        for frame in frames:
            frame.assignments[min(frame.assignments)] += 1
            assert [f.assignments == a for f, a in zip(frames, owned)].count(False) == 1
            frame.assignments[min(frame.assignments)] -= 1

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        instance=small_instances(),
        kind=st.sampled_from(["table", "continuous", "fixed"]),
        order=st.permutations(STRATEGIES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_populations_of_two_nodes_give_one_frame_for_both_strategies(
        self, instance, kind, order, seed
    ):
        # with no population above two nodes the frame does not depend on
        # the strategy: the second strategy takes the kept frame, with no
        # allocator or pair rule, and a fresh pricer's bit-identical metrics
        inst, gains = instance

        def make():
            if kind == "fixed":
                return FixedPricer(inst, random_prices(np.random.default_rng(seed), inst))
            return gain_pricer(inst, gains, kind == "continuous")

        shared = make()
        assume(max(len(members) for _, members in shared.populations()) <= 2)
        first = schedule(shared, order[0])

        def refusing(*args):
            raise AssertionError("the kept frame is rebuilt")

        with (
            mock.patch.dict(scheduling._ALLOCATORS, dict.fromkeys(STRATEGIES, refusing)),
            mock.patch.object(scheduling, "_pair", refusing),
        ):
            second = schedule(shared, order[1])
        assert second == first and second[0].groups is first[0].groups
        fresh_frame, fresh_metrics = schedule(make(), order[1])
        assert second[0] == fresh_frame
        assert second[1].max_active.hex() == fresh_metrics.max_active.hex()


@st.composite
def population_cases(draw):
    """7-8 nodes of period 1 (one population for MLA's greedy branch), 3 of
    period 2, which sorted node assignment mostly splits into a one-node and
    a two-node population, and 0-4 of period 4, on 2-4 controllers; a pricer
    kind and a seed for fixed prices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    periods = [1] * draw(st.integers(7, 8)) + [2] * 3 + [4] * draw(st.integers(0, 4))
    n_controllers = draw(st.integers(2, 4))
    controllers = {i: int(rng.integers(0, n_controllers)) for i in range(len(periods))}
    inst = fixture_instance(periods=dict(enumerate(periods)), controllers=controllers)
    gains = random_gains(rng, len(periods))
    kind = draw(st.sampled_from(["table", "continuous", "fixed"]))
    return inst, gains, kind, draw(st.integers(0, 2**32 - 1))


class TestPopulationAssembly:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(case=population_cases())
    def test_matches_the_plain_reference(self, case):
        # per-population assembly, with one-node populations taking their
        # solo and two-node ones the pair rule, gives the plain reference's
        # frame and bit-identical max_active under both strategies; no
        # population of one or two nodes is enumerated, both allocators give
        # a lone node its solo, and a two-node population the groups that
        # schedule put in its subframe
        inst, gains, kind, seed = case

        def make():
            if kind == "fixed":
                return FixedPricer(inst, random_prices(np.random.default_rng(seed), inst))
            return gain_pricer(inst, gains, kind == "continuous")

        pricer = make()
        sizes = Counter(len(members) for _, members in pricer.populations())
        assume(sizes[1] and sizes[2])
        assert max(sizes) > 6
        for strategy in STRATEGIES:
            with mock.patch.object(
                scheduling, "_candidates", wraps=scheduling._candidates
            ) as candidates:
                frame, metrics = schedule(pricer, strategy)
            ref_frame, ref_metrics = reference_schedule(make(), strategy)
            assert frame == ref_frame
            assert metrics.max_active.hex() == ref_metrics.max_active.hex()
            assert all(len(call.args[0]) > 2 for call in candidates.call_args_list)
            for (_, off), members in pricer.populations():
                if len(members) == 2:
                    groups = [g for g in frame.groups[off] if set(g[0]) <= set(members)]
                    assert mla_allocate(members, pricer) == groups
                    assert mua_allocate(members, pricer) == groups
        for i in inst.ids:
            solo = [((i,), pricer.solo(i))]
            assert mla_allocate([i], pricer) == mua_allocate([i], pricer) == solo

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_a_pair_is_grouped_only_below_its_solo_sum(self, step, strategy):
        # a pair priced one float below the fsum of its solos is grouped; at
        # that fsum, or one float above it (where group rejects it), the two
        # nodes keep their solos, in schedule and in both allocators
        inst = fixture_instance(periods={0: 1, 1: 1}, controllers={0: 0, 1: 1})
        total = math.fsum((0.1 * MS, 0.2 * MS))
        slot = math.nextafter(total, step * math.inf) if step else total
        pricer = FixedPricer(inst, {(0,): 0.1 * MS, (1,): 0.2 * MS, (0, 1): slot})
        assert (pricer.group((0, 1)) is None) == (step > 0)
        if step < 0:
            groups = [((0, 1), pricer.group((0, 1)))]
        else:
            groups = [((0,), pricer.solo(0)), ((1,), pricer.solo(1))]
        frame, metrics = schedule(pricer, strategy)
        assert frame.groups == (tuple(groups),)
        assert metrics.max_active == math.fsum(res.slot for _, res in groups)
        assert mla_allocate([0, 1], pricer) == mua_allocate([0, 1], pricer) == groups

    def test_one_node_classes_still_reach_the_exhaustive_search(self):
        # schedule enumerates no population of one or two nodes; the
        # exhaustive search enumerates every period class, the one-node
        # class included; the spy holds each call's members, the pricer's
        # count only how many calls there were
        inst, pricer = four_node_fixture()
        with mock.patch.object(
            scheduling, "_candidates", wraps=scheduling._candidates
        ) as candidates:
            for strategy in STRATEGIES:
                schedule(pricer, strategy)
            assert not candidates.called
            assert pricer.counts()["candidates"] == 0
            exhaustive_schedule(pricer)
        assert [call.args[0] for call in candidates.call_args_list] == [(1,), (2, 3, 4)]
        assert pricer.counts()["candidates"] == 2


class TestSubsetMonotonicity:
    @pytest.mark.parametrize("kind", ["lttf", "continuous", "near-singular"])
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_a_subset_of_a_feasible_set_is_feasible_and_no_dearer(self, kind, data):
        # the claim mla_allocate's partition DP and _dedup_cover rest on: for
        # a feasible uncapped price of two or more links by a gain-backed
        # pricer, every set of one link fewer is feasible, its slot at most
        # the whole set's; at energy-binding budgets, near rho = 1 and near
        # both ends of the float range
        if kind == "near-singular":
            nodes, gains, radio = data.draw(near_singular_links())
        else:
            nodes, gains, table, radio = data.draw(pricing_instances(st.integers(2, 5)))
        inst = validate_instance(nodes)
        if kind == "lttf":
            pricer = TablePricer(inst, gains, table, radio)
        else:
            pricer = ContinuousPricer(inst, gains, radio)
        whole = outcome(pricer.price, inst.ids)
        assume(isinstance(whole, AllocationResult) and whole.feasible)
        for i in inst.ids:
            part = pricer.price([j for j in inst.ids if j != i])
            assert part.feasible and part.slot <= whole.slot


class TestComputeMetrics:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        slots=st.lists(
            st.lists(st.floats(1e-9, 1e3), min_size=1, max_size=8), min_size=1, max_size=4
        ),
        data=st.data(),
    )
    def test_group_order_within_a_subframe_changes_no_bit(self, slots, data):
        # active lengths are fsums, so equal group-length multisets give
        # exactly equal metrics (== on positive floats is bit equality)
        def metrics(rows):
            groups = tuple(
                tuple(((k,), AllocationResult(feasible=True, slot=slot)) for k, slot in row)
                for row in rows
            )
            return compute_metrics(Frame(len(rows), {}, groups))

        rows = [list(enumerate(row)) for row in slots]
        shuffled = [data.draw(st.permutations(row)) for row in rows]
        assert metrics(shuffled) == metrics(rows)
