"""TDMA frame construction: subframe assignment and concurrency grouping.

A frame spans M unit subframes, M being the ratio of the largest to the
smallest packet period. Every node occupies one subframe per period, fixed by
its offset. Within a subframe, nodes of equal period are partitioned into
concurrency groups; a group shares one time slot whose length comes from the
joint rate/power allocation of its members. The objective throughout is the
maximum total active length over the subframes of the frame.

Slot prices are supplied by a ``SubsetPricer`` so the same machinery runs on
discrete-rate allocation, the continuous-rate baseline, or fixed price tables
used in tests. Active lengths are always accumulated with ``math.fsum`` so
that schedules with equal group-length multisets compare exactly equal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .allocation import continuous_optimal, continuous_solos, ladder_solos, lttf
from .model import (
    OVER_CAP, AllocationResult, GainMatrix, Instance, RadioConfig, RateTable, ValidationError,
    _not_an_id, is_number,
)

__all__ = [
    "InfeasibleInstanceError",
    "SubsetPricer",
    "TablePricer",
    "ContinuousPricer",
    "FixedPricer",
    "Frame",
    "ScheduleMetrics",
    "compute_metrics",
    "sna_assign",
    "mla_allocate",
    "mua_allocate",
    "schedule",
    "exhaustive_fits",
    "exhaustive_schedule",
    "STRATEGIES",
]

# Size limits of the exhaustive reference scheduler.
EXHAUSTIVE_MAX_NODES = 8
EXHAUSTIVE_MAX_SUBFRAMES = 4


class InfeasibleInstanceError(Exception):
    """Some node cannot transmit even alone; no schedule exists.

    ``node_id`` names that node, ``model`` the rate model it was priced
    under, which ``experiment`` adds, and ``reason`` its solo price's
    reason (see ``AllocationResult``).
    """

    def __init__(self, node_id, model=None, reason=None):
        self.node_id = node_id
        self.model = model
        self.reason = reason
        under = f" under {model}" if model is not None else ""
        super().__init__(f"instance is infeasible (node {node_id}){under}")


class SubsetPricer:
    """Base class mapping node subsets to allocation results, with caching.

    A pricer is the per-(instance, rate model) cache. It keeps each feasible
    ``solo()``, each ``group()`` answer, the ``offsets()`` with the
    population map they give (``populations()``), each sorted member
    tuple's ``partitions()`` and, when no population has more than two
    nodes, the groups and metrics of the one frame ``schedule`` builds on it
    for both strategies, since the allocators then never run. The
    gain-backed pricers also keep one solo record per node. ``price`` keeps
    nothing.

    A pricer counts its work; ``counts()`` reports it.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        # work counts, as counts() reports them
        self.checks = self.evaluations = self.over_cap = 0
        self.group_hits = self.rejections = self.candidates = self.allocations = 0
        self.priced = [0] * (len(inst.nodes) + 1)  # by subset size
        # (offsets, populations), as offsets() and populations() answer
        self._assignment: tuple | None = None
        # sorted member tuple -> (slots, groups)
        self._partitions: dict[tuple[int, ...], tuple] = {}
        # node id -> its feasible solo result
        self._solo_results: dict[int, AllocationResult] = {}
        # member set -> its group() answer, None included
        self._groups: dict[frozenset, AllocationResult | None] = {}
        # schedule()'s (groups, metrics) where no allocator ran, for every strategy
        self._frame: tuple | None = None

    def price(self, ids, cap: float = math.inf) -> AllocationResult:
        """Allocation of the node subset ``ids``, a nonempty sequence of
        distinct ids of ``inst``; an empty subset, an id that is not an int,
        or a repeated or unknown id raises ValidationError.

        ``cap`` is an upper bound on the slot the caller can use. The result
        is exact whenever its slot is at most ``cap``; otherwise it may be
        ``AllocationResult.infeasible()``, since the pricer may stop once one
        verdict proves the slot is above ``cap``. A NaN ``cap`` is no cap,
        the same as ``math.inf``, as for ``lttf`` and ``continuous_optimal``
        (``test_allocation.py::TestCap::test_nan_cap_is_no_cap``).
        """
        for i in ids:
            if type(i) is not int:
                raise _not_an_id(i)
        key = frozenset(ids)
        if not key:
            raise ValidationError("subset must be nonempty")
        if len(key) != len(ids):
            raise ValidationError(f"repeated node id in subset {tuple(ids)}")
        if not key <= self.inst.position.keys():
            raise ValidationError(f"unknown node id in subset {tuple(ids)}")
        return self._counted(tuple(sorted(key)), cap)

    def counts(self) -> dict:
        """The pricer's work so far, as a JSON-serialisable dict:

        * ``checks`` and ``evaluations``: the sums of its prices' fields
          (see ``AllocationResult``);
        * ``priced``: its prices by subset size, a list from size 1 to
          the instance's node count;
        * ``over_cap``: its prices whose reason is OVER_CAP;
        * ``group_hits``: ``group`` calls answered from a kept answer;
        * ``rejections``: ``group`` calls whose members share a controller;
        * ``candidates``: the populations ``_candidates`` enumerated for it;
        * ``allocations``: the allocator calls ``schedule`` made with it.

        Every ``_price`` call, through ``price`` or ``group``, is a price.
        """
        return {
            "checks": self.checks,
            "evaluations": self.evaluations,
            "priced": self.priced[1:],
            "over_cap": self.over_cap,
            "group_hits": self.group_hits,
            "rejections": self.rejections,
            "candidates": self.candidates,
            "allocations": self.allocations,
        }

    def _counted(self, ids: tuple[int, ...], cap: float) -> AllocationResult:
        """``_price(ids, cap)``, added to the counts."""
        res = self._price(ids, cap)
        self.checks += res.checks
        self.evaluations += res.evaluations
        self.over_cap += res.reason is OVER_CAP
        self.priced[len(ids)] += 1
        return res

    def offsets(self) -> dict[int, int]:
        """The ``sna_assign`` offsets, computed on the first call (raising as
        ``sna_assign`` does) together with ``populations()``, and returned as
        a fresh dict by each call."""
        return dict(self._assign()[0])

    def populations(self) -> tuple[tuple[tuple[int, int], tuple[int, ...]], ...]:
        """The subframe populations of ``offsets()``: a ``((period, offset),
        members)`` pair per occupied pair, in sorted order, ``members`` the
        sorted ids of the nodes of that period at that offset. Computed with
        ``offsets()`` and kept, so every strategy shares one map."""
        return self._assign()[1]

    def _assign(self):
        if self._assignment is None:
            offsets, periods = sna_assign(self), self.inst.periods
            populations: dict[tuple[int, int], list[int]] = {}
            for i in sorted(offsets):
                populations.setdefault((periods[i], offsets[i]), []).append(i)
            kept = tuple((key, tuple(ids)) for key, ids in sorted(populations.items()))
            self._assignment = offsets, kept
        return self._assignment

    def partitions(self, members: tuple[int, ...]):
        """``(slots, groups)`` of the sorted tuple ``members``: the
        ``_best_partitions`` of its ``_candidates``, computed on the first
        call."""
        entry = self._partitions.get(members)
        if entry is None:
            entry = _best_partitions(len(members), _candidates(members, self))
            self._partitions[members] = entry
        return entry

    def solo(self, node_id: int) -> AllocationResult:
        """Allocation of the node transmitting alone, the one solo rule of
        every scheduler: raises InfeasibleInstanceError(node_id) unless it is
        feasible, and ValidationError for an id that is not an int."""
        if type(node_id) is not int:
            raise _not_an_id(node_id)
        res = self._solo_results.get(node_id)
        if res is None:
            res = self.price((node_id,))
            if not res.feasible:
                raise InfeasibleInstanceError(node_id, reason=res.reason)
            self._solo_results[node_id] = res
        return res

    def group(self, ids) -> AllocationResult | None:
        """Allocation of the nodes ``ids`` sharing one slot, the one group
        rule of every scheduler; a one-member group is that node's ``solo``.

        None unless the members' controllers are pairwise distinct and the
        subset, priced with ``cap`` the ``math.fsum`` of the members' solo
        slots, is feasible with a slot at most ``cap``. No scheduler can use
        a subset S above its cap, since splitting S into solos is strictly
        cheaper (a float slot above the correctly rounded sum is above the
        exact sum):

        * ``_best_partitions`` weighs S only at masks that hold S's lowest
          member, after that member's solo, whose option costs less in exact
          sums; so S is never a strict optimum. The costs compared are
          rounded ``fsum`` values, so only where rounding ties or reverses
          such a comparison could S have won, and the DP without S would then
          return another partition, of equal or next-to-equal cost.
        * ``_greedy_cover``: S's key ``slot / new`` is at least, and its
          ``slot`` above, that of the solo of its cheapest uncovered member,
          so S never has the smallest key.
        * ``mua_allocate``: S's utility, ``cap`` minus its slot, is below 0,
          never above the current utility.

        The answer is kept per member set, None included. The controller test
        runs first, so an id that is not an int or is unknown raises
        ValidationError there, and a repeated id is None and never reaches a
        kept answer; an empty subset raises ValidationError, as ``price``
        does. The members, so checked, are priced by ``_price`` as a sorted
        tuple, with no second check.
        """
        if len({self.controller(i) for i in ids}) < len(ids):
            self.rejections += 1
            return None
        key = frozenset(ids)
        if key in self._groups:
            self.group_hits += 1
        else:
            if not key:
                raise ValidationError("subset must be nonempty")
            solos = [self.solo(i) for i in ids]
            cap = math.fsum(res.slot for res in solos)
            res = solos[0] if len(solos) == 1 else self._counted(tuple(sorted(ids)), cap)
            self._groups[key] = res if res.feasible and res.slot <= cap else None
        return self._groups[key]

    def controller(self, node_id: int) -> int:
        """The controller of the node ``node_id``; raises ValidationError for
        an id that is not an int or is unknown."""
        return self.inst.node(node_id).controller_id

    def _price(self, ids: tuple[int, ...], cap: float) -> AllocationResult:
        raise NotImplementedError


class _GainBackedPricer(SubsetPricer):
    def __init__(self, inst: Instance, gains: GainMatrix, radio: RadioConfig):
        super().__init__(inst)
        if gains.n != len(inst.nodes):
            raise ValidationError("gain matrix must cover every instance node")
        self.gains = gains
        self.radio = radio

    def _sub(self, ids):
        """Nodes, gain submatrix and solo records of the subset ``ids``;
        ``_solos`` holds one record per node of ``inst``."""
        idx = [self.inst.position[i] for i in ids]
        nodes, solos = self.inst.nodes, self._solos
        return [nodes[k] for k in idx], self.gains.sub(idx), [solos[k] for k in idx]


class TablePricer(_GainBackedPricer):
    """Prices each subset with ``lttf`` on its submatrix of ``gains`` (rows in
    ``inst.nodes`` order), ``table`` and ``radio``.

    Each node's solo record (see ``ladder_solos``) is derived once, here,
    unless ``solos`` holds them already, and passed to every ``lttf`` call;
    ``solo`` reads their solo prices with no check, so only a node without
    one is priced alone, by ``lttf``.
    """

    def __init__(
        self, inst: Instance, gains: GainMatrix, table: RateTable, radio: RadioConfig, solos=None
    ):
        super().__init__(inst, gains, radio)
        self.table = table
        if solos is None:
            solos = ladder_solos(inst.nodes, gains, table, radio)
        self._solos = solos
        self._solo_results = {
            i: r[3] for i, r in zip(inst.ids, solos) if type(r) is tuple and r[3]
        }

    def _price(self, ids, cap):
        nodes, sub, solos = self._sub(ids)
        return lttf(nodes, sub, self.table, self.radio, cap, solos)


class ContinuousPricer(_GainBackedPricer):
    """Prices each subset with ``continuous_optimal`` on its submatrix of
    ``gains`` and ``radio``.

    Each node's ``(t_lo, top)`` pair (see ``continuous_solos``) is derived
    once, here, unless ``solos`` holds them already in ``inst.nodes`` order,
    and passed to every ``continuous_optimal`` call, which checks a single
    node at its guess first, as it checks any other price at its predicted
    cell; a submatrix's diagonal holds the full matrix's diagonal entries,
    so the floats are those a bare call derives.
    """

    def __init__(self, inst: Instance, gains: GainMatrix, radio: RadioConfig, solos=None):
        super().__init__(inst, gains, radio)
        if solos is None:
            solos = continuous_solos(inst.nodes, gains, radio)
        self._solos = solos

    def _price(self, ids, cap):
        nodes, sub, solos = self._sub(ids)
        return continuous_optimal(nodes, sub, self.radio, cap, solos)


class FixedPricer(SubsetPricer):
    """Prices subsets from an explicit table; anything absent is infeasible.

    Useful for pinning worked examples where only the slot lengths matter.
    Prices are exact whatever the ``cap``. Raises ValidationError unless
    every price is a finite number > 0 (``model.is_number``).
    """

    def __init__(self, inst: Instance, prices):
        super().__init__(inst)
        for ids, slot in prices.items():
            if not is_number(slot):
                raise ValidationError(f"price of {ids} must be a finite number > 0, not {slot!r}")
        self._prices = {frozenset(k): float(v) for k, v in prices.items()}

    def _price(self, ids, cap):
        slot = self._prices.get(frozenset(ids))
        if slot is None:
            return AllocationResult.infeasible()
        return AllocationResult(feasible=True, slot=slot)


@dataclass(frozen=True)
class Frame:
    """A complete TDMA frame.

    ``assignments[id]`` is the node's subframe offset in [0, period).
    ``groups[m]`` lists the concurrency groups of subframe m as
    ``(ids, allocation)`` pairs. Nodes in one group always have pairwise
    distinct controllers and identical periods.
    """

    subframe_count: int
    assignments: dict[int, int]
    groups: tuple[tuple[tuple[tuple[int, ...], AllocationResult], ...], ...]


@dataclass(frozen=True)
class ScheduleMetrics:
    """Per-subframe active lengths and their maximum, in seconds."""

    active_lengths: tuple[float, ...]
    max_active: float


def compute_metrics(frame: Frame) -> ScheduleMetrics:
    active = tuple(
        math.fsum(alloc.slot for _, alloc in subframe) for subframe in frame.groups
    )
    return ScheduleMetrics(active, max(active))


def sna_assign(pricer: SubsetPricer) -> dict[int, int]:
    """Assign each node a subframe offset, longest solo transmissions first.

    Nodes are processed in descending order of their solo slot length (ties by
    node id). Each node takes the offset that minimizes the largest resulting
    active length among the subframes it would occupy, active lengths being
    tracked with solo slot lengths at this stage; offset ties resolve to the
    smallest offset.

    The largest active length an offset would give is taken as
    ``max(active[off::s]) + solo[i]``: float addition rounds monotonically,
    so it equals the largest of the sums.
    """
    inst = pricer.inst
    m_count = inst.subframe_count
    solo = {i: pricer.solo(i).slot for i in inst.ids}
    active = [0.0] * m_count
    assignments: dict[int, int] = {}
    for i in sorted(solo, key=lambda k: (-solo[k], k)):
        s = inst.periods[i]
        best_off, best_val = 0, None
        for off in range(s):
            val = max(active[off::s]) + solo[i]
            if best_val is None or val < best_val:
                best_off, best_val = off, val
        assignments[i] = best_off
        for m in range(best_off, m_count, s):
            active[m] += solo[i]
    return assignments


def _candidates(members, pricer):
    """Every subset of ``members`` that ``pricer.group`` accepts, as
    ``(bitmask, ids, allocation)`` triples, bit k standing for ``members[k]``:
    every member's ``pricer.solo`` first, then larger subsets by increasing
    size, in ``itertools.combinations`` order.
    """
    pricer.candidates += 1
    bit = {i: 1 << k for k, i in enumerate(members)}
    out = [(bit[i], (i,), pricer.solo(i)) for i in members]
    for size in range(2, len({pricer.controller(i) for i in members}) + 1):
        for ids in itertools.combinations(members, size):
            res = pricer.group(ids)
            if res is not None:
                out.append((sum(bit[i] for i in ids), ids, res))
    return out


def _best_partitions(k, candidates):
    """Minimum-cost partition of every subset of k members into candidates.

    Returns ``slots[mask], groups[mask]`` where ``slots`` holds the tuple of
    group slot lengths (costs compare by exact fsum) and ``groups`` the chosen
    partition. ``candidates`` hold every member's solo, so every mask has one.
    """
    by_bit = {b: [c for c in candidates if c[0] & (1 << b)] for b in range(k)}
    full = (1 << k) - 1
    slots: list[tuple[float, ...] | None] = [None] * (full + 1)
    groups: list[tuple | None] = [None] * (full + 1)
    slots[0], groups[0] = (), ()
    for mask in range(1, full + 1):
        low = (mask & -mask).bit_length() - 1
        best_cost = math.inf
        for cmask, ids, res in by_bit[low]:
            if cmask & mask != cmask:
                continue
            rest = mask ^ cmask
            trial_slots = slots[rest] + (res.slot,)
            cost = math.fsum(trial_slots)
            if cost < best_cost:
                best_cost = cost
                slots[mask] = trial_slots
                groups[mask] = groups[rest] + ((ids, res),)
    return slots, groups


def _dedup_cover(selected, pricer):
    """Keep each node only in its cheapest selected subset, re-pricing the rest.

    Each shrunk subset comes from ``pricer.group``; one that it rejects
    transmits as its members' solos. Shrinking a subset never raises its slot
    length under the gain-backed pricers, as a property test states (it need
    not hold for a ``FixedPricer``), so this step can only reduce the total.
    Returns disjoint groups in canonical order.
    """
    order = sorted(range(len(selected)), key=lambda k: (selected[k][1].slot, selected[k][0]))
    owner: dict[int, int] = {}
    for k in order:
        for i in selected[k][0]:
            owner.setdefault(i, k)
    groups = []
    for k, (ids, res) in enumerate(selected):
        kept = tuple(i for i in ids if owner[i] == k)
        if kept == ids:
            groups.append((ids, res))
        elif kept:
            res = pricer.group(kept)
            groups += [(kept, res)] if res is not None else [((i,), pricer.solo(i)) for i in kept]
    return sorted(groups, key=lambda g: g[0])


def _greedy_cover(population, candidates):
    # Classic weighted set cover: cheapest price per newly covered node first.
    uncovered = set(population)
    selected = []
    while uncovered:
        best = None
        for _, ids, res in candidates:
            new = len(uncovered.intersection(ids))
            if new == 0:
                continue
            key = (res.slot / new, res.slot, ids)
            if best is None or key < best[0]:
                best = (key, ids, res)
        _, ids, res = best
        selected.append((ids, res))
        uncovered.difference_update(ids)
    return selected


def _distinct(population):
    """The ids of ``population`` sorted; ValidationError if one repeats."""
    population = sorted(population)
    if len(set(population)) != len(population):
        raise ValidationError(f"repeated node id in population {tuple(population)}")
    return population


def mla_allocate(population, pricer: SubsetPricer):
    """Minimum-total-length concurrency grouping of one subframe population.

    Over the feasible controller-distinct subsets, takes the exact
    minimum-total partition for ≤ 6 nodes, greedy set cover with overlap
    clean-up above: the cover picks the cheapest price per newly covered node
    first, then every node stays only in its cheapest selected subset. The
    exact partitions of a population come from ``pricer.partitions``, which
    ``exhaustive_schedule`` shares. A repeated id raises ValidationError.
    """
    population = _distinct(population)
    if len(population) > 6:
        candidates = _candidates(population, pricer)
        return _dedup_cover(_greedy_cover(population, candidates), pricer)
    # A minimum cover shrinks to a partition that costs no more whenever
    # subsets of feasible groups stay feasible and no dearer, so the
    # partition DP also finds the minimum cover. That holds for the
    # gain-backed pricers, as a property test states; it need not hold for
    # a FixedPricer.
    _, groups = pricer.partitions(tuple(population))
    return sorted(groups[-1], key=lambda g: g[0])


def mua_allocate(population, pricer: SubsetPricer):
    """Utility-greedy concurrency grouping of one subframe population.

    Seeds a group with the unassigned node of largest solo slot, then keeps
    adding the node that most increases the utility (total solo time saved by
    sharing the slot) while ``pricer.group`` accepts the group; each addition
    must strictly improve the utility. Repeats until every node is grouped.
    A repeated id raises ValidationError.
    """
    population = _distinct(population)
    groups = []
    solo = {i: pricer.solo(i) for i in population}
    unassigned = set(population)
    while unassigned:
        seed = max(unassigned, key=lambda i: (solo[i].slot, -i))
        current = [seed]
        cur_res = solo[seed]
        cur_util = 0.0
        while True:
            best = None
            for k in sorted(unassigned - set(current)):
                trial = current + [k]
                res = pricer.group(trial)
                if res is None:
                    continue
                util = math.fsum(solo[i].slot for i in trial) - res.slot
                if util > cur_util and (best is None or util > best[0]):
                    best = (util, k, res)
            if best is None:
                break
            cur_util, k, cur_res = best
            current.append(k)
        groups.append((tuple(sorted(current)), cur_res))
        unassigned.difference_update(current)
    return sorted(groups, key=lambda g: g[0])


_ALLOCATORS = {"sna-mla": mla_allocate, "sna-mua": mua_allocate}
STRATEGIES = tuple(_ALLOCATORS)


def _pair(members, pricer):
    """The groups of the two-node population ``members``: the pair if
    ``pricer.group`` accepts it with a slot below the ``math.fsum`` of the
    two solos, otherwise the two solos, as either allocator returns them."""
    a, b = members
    res, sa, sb = pricer.group(members), pricer.solo(a), pricer.solo(b)
    if res is not None and res.slot < math.fsum((sa.slot, sb.slot)):
        return [(members, res)]
    return [((a,), sa), ((b,), sb)]


def schedule(pricer: SubsetPricer, strategy: str = "sna-mla") -> tuple[Frame, ScheduleMetrics]:
    """Build a frame for ``pricer.inst`` with sorted node assignment plus the
    chosen allocator.

    The pricer is the rate model: a ``TablePricer`` for a discrete ladder, a
    ``ContinuousPricer`` for the continuous baseline or a ``FixedPricer`` for
    pinned slot prices. Deterministic for fixed inputs.

    The offsets and populations come from ``pricer.offsets()`` and
    ``pricer.populations()``, so ``sna_assign`` runs once per pricer and
    every strategy shares its populations. The allocator runs once per
    population of three or more nodes. A one-node population takes its
    solo, ``[((i,), solo)]``. A two-node population ``(a, b)`` takes
    ``[((a, b), res)]``, ``res`` its ``pricer.group``, when ``res`` is not
    None and its slot is below the ``math.fsum`` of the two solo slots, and
    its two solos otherwise. Either allocator returns just that, for any
    pricer: MLA's partition DP weighs the split first and takes the pair
    only at a strictly smaller cost, and MUA adds the second node only when
    the fsum minus the pair's slot is above 0, which holds exactly when the
    slot is below the fsum. Each population's groups go to its own
    subframes, off, off + s, ..., in sorted (period, offset) order:
    subframe m holds, in order of period, the groups of each period s at
    offset m mod s.

    When no population has more than two nodes, no allocator runs and the
    frame does not depend on the strategy: the pricer keeps its groups and
    metrics, and every later call returns them in a new ``Frame`` with a
    fresh copy of the offsets, so each frame owns its assignments. A frame
    that an allocator built is not kept.
    """
    if strategy not in _ALLOCATORS:
        raise ValidationError(f"unknown strategy {strategy!r}")
    m_count = pricer.inst.subframe_count
    kept = pricer._frame
    if kept is None:
        allocator = _ALLOCATORS[strategy]
        per_subframe: list[list] = [[] for _ in range(m_count)]
        allocated = False
        for (s, off), members in pricer.populations():
            if len(members) == 1:
                groups = [(members, pricer.solo(members[0]))]
            elif len(members) == 2:
                groups = _pair(members, pricer)
            else:
                groups, allocated = allocator(members, pricer), True
                pricer.allocations += 1
            for m in range(off, m_count, s):
                per_subframe[m] += groups
        frame = Frame(m_count, pricer.offsets(), tuple(map(tuple, per_subframe)))
        metrics = compute_metrics(frame)
        if not allocated:
            pricer._frame = frame.groups, metrics
        return frame, metrics
    groups, metrics = kept
    return Frame(m_count, pricer.offsets(), groups), metrics


def exhaustive_fits(inst: Instance) -> bool:
    """Whether ``exhaustive_schedule`` takes ``inst``: at most 8 nodes and 4
    subframes."""
    nodes, subframes = len(inst.nodes), inst.subframe_count
    return nodes <= EXHAUSTIVE_MAX_NODES and subframes <= EXHAUSTIVE_MAX_SUBFRAMES


def exhaustive_schedule(pricer: SubsetPricer) -> tuple[Frame, ScheduleMetrics]:
    """Exact minimum of the maximum active length of ``pricer.inst``, for
    small instances, under the slot prices of ``pricer``.

    Searches every offset assignment combined with every partition of each
    subframe population into feasible controller-distinct groups (computed
    per period class by dynamic programming). Raises ValidationError unless
    ``exhaustive_fits(pricer.inst)``.

    Every period divides the frame length M, so shifting every offset by one
    subframe (off_i -> (off_i + 1) mod s_i) rotates the subframes of a frame
    and keeps the multiset of group slots of each, whose ``fsum`` does not
    depend on order. Some rotation of an optimal frame puts the first node of
    the largest period (which is M) at offset 0, so the search pins that node
    there and visits a factor M fewer offset vectors. The objective is
    bit-identical to the unpinned search. Offset vectors run in
    ``itertools.product`` order over the nodes sorted by period, then id, and
    the first optimal one wins; among equal optima the returned frame may
    therefore differ from versions without the pin.

    The cost of a subframe depends only on which nodes it holds, so it is
    read from one table over the 2**N node masks, each entry the ``fsum`` of
    the concatenated per-class partition slots (never an fsum of per-class
    fsums, which can differ in the last bit). The offset vectors are scored
    at once from a (V, M) array of subframe masks, one byte per mask: with
    N <= 8 nodes and M <= 4, V <= 4**7 = 16384 vectors, so the array holds at
    most 64 KiB and its gathered costs 512 KiB. Only the entries of masks
    that occur in it are filled; the others are never read. The per-class
    partitions come from ``pricer.partitions``, as ``mla_allocate``'s do, so
    a class that MLA also groups (the period-1 class) is enumerated once.
    """
    inst = pricer.inst
    if not exhaustive_fits(inst):
        raise ValidationError(
            f"exhaustive search limited to {EXHAUSTIVE_MAX_NODES} nodes "
            f"and {EXHAUSTIVE_MAX_SUBFRAMES} subframes"
        )

    m_count = inst.subframe_count
    # Bits [shift, shift + len(members)) of a node mask hold one period class.
    classes = []
    ids: list[int] = []
    for s in sorted(set(inst.periods.values())):
        members = tuple(sorted(i for i in inst.periods if inst.periods[i] == s))
        slots, groups = pricer.partitions(members)
        classes.append((len(ids), (1 << len(members)) - 1, slots, groups))
        ids.extend(members)

    # Subframe masks of every offset vector, in itertools.product order; the
    # first node of the longest period (the last class) stays at offset 0.
    pinned = classes[-1][0]
    spans = [1 if k == pinned else inst.periods[i] for k, i in enumerate(ids)]
    subframes = np.arange(m_count)
    masks = np.zeros((1, m_count), dtype=np.uint8)
    for k, i in enumerate(ids):
        present = subframes % inst.periods[i] == np.arange(spans[k])[:, None]
        masks = (masks[:, None, :] | (present << k).astype(np.uint8)).reshape(-1, m_count)

    cost = np.full(1 << len(ids), math.inf)
    for mask in set(masks.tobytes()):  # one byte per mask
        cost[mask] = math.fsum(
            [t for shift, full, slots, _ in classes for t in slots[(mask >> shift) & full]]
        )
    objective = cost[masks].max(axis=1)
    best = int(objective.argmin())

    offsets = np.unravel_index(best, spans)
    per_m_groups = []
    for mask in masks[best].tolist():
        rows = []
        for shift, full, _, groups in classes:
            rows.extend(groups[(mask >> shift) & full])
        per_m_groups.append(tuple(sorted(rows, key=lambda x: x[0])))
    frame = Frame(
        m_count,
        {i: int(off) for i, off in sorted(zip(ids, offsets))},
        tuple(per_m_groups),
    )
    return frame, compute_metrics(frame)
