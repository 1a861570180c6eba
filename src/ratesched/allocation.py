"""Minimum-slot-length rate and power assignment for one concurrent subset.

Three solvers share the same constraint checks:

* ``lttf`` walks the discrete rate ladder, always raising the rate of the
  link that currently takes longest, and keeps the last feasible vector.
* ``brute_force_optimal`` enumerates every rate vector (small subsets only)
  and serves as the optimality oracle.
* ``continuous_optimal`` drops the ladder and bisects on the slot length with
  capacity-derived SINR targets, giving the continuous-rate baseline.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from . import feasibility
from .feasibility import (
    FeasibilityReport,
    NumericalError,
    Verdict,
    check_rate_vector,
    check_targets,
)
from .model import (
    OVER_CAP,
    AllocationResult,
    GainMatrix,
    RadioConfig,
    RateTable,
    ValidationError,
)

__all__ = ["lttf", "brute_force_optimal", "continuous_optimal"]

# Relative width at which the continuous slot bisection stops.
_REL_TOL = 1e-6
# The secant that predicts the continuous bisection's final cell stops at
# this relative width of its bracket or after _GUIDE_CAP steps; it steps a
# relative _NUDGE across a converged root.
_GUIDE_TOL = 1e-9
_GUIDE_CAP = 40
_NUDGE = 4e-10

# The verdicts of ``solo_terms``' ladder solo test, by its ``verdict`` code.
SOLO_VERDICTS = (
    Verdict.FEASIBLE,
    Verdict.INFEASIBLE_DELAY,
    Verdict.INFEASIBLE_MAX_POWER,
    Verdict.INFEASIBLE_ENERGY,
)


def _result_for(rates, times, report: FeasibilityReport, checks=0, evaluations=0):
    return AllocationResult(
        True, max(times), tuple(rates), report.min_powers, tuple(times), checks, evaluations
    )


class _Tally:
    """The checks and bare kernel evaluations of one continuous price."""

    __slots__ = ("checks", "evaluations")

    def __init__(self, checks: int = 0):
        self.checks, self.evaluations = checks, 0


def solo_terms(own, bits, delay, energy, radio: RadioConfig, tables=()):
    """Every link's solo terms, elementwise over arrays that broadcast to one
    shape, such as (seeds, links): each link's own gain ``g_ii``, packet
    bits, delay bound and energy budget. Returns ``(ladders, floors, tops)``.

    ``ladders[m]`` holds the terms of ``ladder_solos`` under ``tables[m]``:
    ``(times, lowest, ceiling, power, verdict, solo)``, with ``times`` each
    link's time b_i / r_q at every level q of the table (one more axis, the
    last), ``verdict`` the index in ``SOLO_VERDICTS`` of its solo test's
    verdict, ``solo`` whether its record has a solo price, and ``lowest``,
    ``ceiling`` and the solo ``power``, the kernel's interference-free power
    at the ceiling, read only where it does. The link has a record where
    the verdict is FEASIBLE (0): its solo test passes at ``lowest``.
    Otherwise the verdict is INFEASIBLE_DELAY where no level is within its
    delay bound, and INFEASIBLE_MAX_POWER or INFEASIBLE_ENERGY, as the
    kernel checks them, where its test fails at ``lowest``.
    ``floors`` holds each link's interference-free slot t_lo = b_i / (W *
    log2(1 + p_max * g_ii / N)), the shortest slot in which it alone carries
    its packet at p_max: inf where that leaves the float range, as when
    1 + SNR rounds to 1 or the rate W * log2(1 + SNR) underflows to 0.

    ``tops`` holds the top of the bisection whose final slot, ``solo_guess(
    t_lo, top)``, is where ``continuous_optimal`` first checks the link
    alone, NaN where there is none: t_lo where the check there passes, and
    t_hi (the delay bound) where it fails on power alone, which makes the
    guess the final slot of its bisection with every midpoint feasible.
    Both need t_lo <= t_hi, t_lo * W > 0, capacity targets > 0 at t_hi (so
    at every slot up to it), and a power at t_lo in (0, inf) whose energy
    is within the budget. So a link has no guess only where t_lo > t_hi,
    where ``continuous_optimal`` raises before any check, or where the check
    at t_lo is infeasible with its energy over the budget or would raise.
    A guess is checked near t_lo, never at t_hi, so it answers even where
    the power at t_hi underflows to 0 and a check there would raise.

    Each term is the same float expression as the kernel's, on float64
    arrays (the logarithms and capacity targets use numpy, as everywhere);
    values given as integers are compared as floats (``float_array``).
    """
    noise, p_max, width = (float(x) for x in (radio.noise_power, radio.p_max, radio.bandwidth_hz))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ladders = []
        for table in tables:
            thresholds, rates = (float_array(x) for x in zip(*table.levels))
            times = bits[..., None] / rates
            powers = thresholds * noise / own[..., None]
            within = times <= delay[..., None]  # every level from the lowest on
            failing = within & ~((powers <= p_max) & (times * powers <= energy[..., None]))
            lowest = within.argmax(-1)
            ceiling = np.where(failing.any(-1), failing.argmax(-1), len(rates)) - 1
            # a record needs the lowest level to pass; its power is unread elsewhere
            low_power, low_fails = (
                np.take_along_axis(x, lowest[..., None], -1)[..., 0] for x in (powers, failing)
            )
            verdict = np.where(
                within.any(-1), np.where(low_power <= p_max, np.where(low_fails, 3, 0), 2), 1
            )
            power = np.take_along_axis(powers, ceiling[..., None], -1)[..., 0]
            solo = (verdict == 0) & ((powers > 0) | ~within).all(-1)  # powers rise with the level
            ladders.append((times, lowest, ceiling, power, verdict, solo))
        floors = bits / (width * np.log2(1.0 + p_max * own / noise))
        # the kernel's solo power at t_lo; one > 0 has a target > 0
        p_lo = _capacity_targets(bits, floors, width) * noise / own
        guessed = (
            (floors <= delay) & (floors * width > 0) & (_capacity_targets(bits, delay, width) > 0)
            & (0 < p_lo) & (p_lo < np.inf) & (floors * p_lo <= energy)
        )
        tops = np.where(guessed, np.where(p_lo <= p_max, floors, delay), np.nan)
    return ladders, floors, tops


def ladder_triage(ladders, rows: int):
    """Where a ``TablePricer``'s ``sna_assign`` drops each row of
    ``solo_terms``' ``ladders``, tried in order: under the first ladder where
    some link fails its solo test, the first such link raises
    InfeasibleInstanceError there if it has no record (one with a record and
    no solo price raises NumericalError instead). Returns the ladder's and
    the link's index per row, the ladder's -1 where no link is dropped, and
    the ``verdict`` code of the dropped link's solo test, its reason."""
    ladder, link, reason = np.full(rows, -1), np.zeros(rows, dtype=int), np.zeros(rows, dtype=int)
    pending = np.ones(rows, dtype=bool)
    for m, (*_, verdict, solo) in enumerate(ladders):
        first = (~solo).argmax(-1)
        failing = pending & ~solo.all(-1)
        why = np.take_along_axis(verdict, first[:, None], -1)[:, 0]
        dropped = failing & (why != 0)
        ladder, link = np.where(dropped, m, ladder), np.where(dropped, first, link)
        reason = np.where(dropped, why, reason)
        pending &= ~failing
    return ladder, link, reason


def solo_guess(t_lo: float, top: float) -> float:
    """The final slot of ``continuous_optimal``'s bisection from (t_lo, top)
    with every midpoint feasible: t_lo for top = t_lo, NaN for a NaN top."""
    return _final_cell(t_lo, top, lambda mid: True)[1]


def _final_cell(lo: float, hi: float, feasible) -> tuple[float, float]:
    """The final cell (lo, hi) of ``continuous_optimal``'s bisection from
    (lo, hi), each midpoint's verdict given by ``feasible(mid)``: the one
    walk of the predicted cell, the plain bisection and, with every
    midpoint feasible, ``solo_guess``."""
    while hi - lo > _REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if mid == math.inf:  # lo + hi overflows
            mid = 0.5 * lo + 0.5 * hi
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def float_array(values) -> np.ndarray:
    """``values`` as a float64 array, an integer beyond the float range as
    the largest float, which every float compares with as with the integer."""
    top = sys.float_info.max
    return np.array([min(x, top) if isinstance(x, int) else x for x in values], dtype=float)


def _link_arrays(nodes, gains: GainMatrix):
    """``solo_terms``' inputs for one subset: arrays of shape (1, links)."""
    return tuple(
        float_array(values)[None]
        for values in (
            [col[i] for i, col in enumerate(gains.cols)],
            [n.packet_bits for n in nodes],
            [n.delay_bound for n in nodes],
            [n.energy_budget for n in nodes],
        )
    )


def ladder_records(table: RateTable, terms, b: int = 0) -> list:
    """The ``ladder_solos`` records of the links of row ``b`` of
    ``solo_terms``' ladder ``terms`` under ``table``, each with the level
    times of its row."""
    records = []
    for times, lowest, ceiling, power, verdict, solo in zip(*(x[b].tolist() for x in terms)):
        if verdict:  # no record
            records.append(SOLO_VERDICTS[verdict])
            continue
        t = times[ceiling]
        result = AllocationResult(True, t, (table.rate(ceiling),), (power,), (t,)) if solo else None
        records.append((times, lowest, ceiling, result))
    return records


def ladder_solos(nodes, gains: GainMatrix, table: RateTable, radio: RadioConfig) -> list:
    """Each link's solo terms on the rate ladder, for ``lttf`` and ``TablePricer``.

    One record per link, in ``nodes`` order: ``(times, lowest, ceiling,
    solo)``, with ``times[q] = packet_bits / rate(q)`` at every level,
    ``lowest`` the first level within the delay bound, ``ceiling`` the last
    level, counting up from ``lowest``, up to which every level passes the
    link's solo test (see ``lttf``), and ``solo`` the link's price alone. A
    link with no level within its delay bound, or one that fails the solo
    test at ``lowest``, has no record: it gets its solo test's ``Verdict``
    (see ``solo_terms``) instead.

    Alone, every level up to the ceiling passes the kernel's checks with the
    same floats, so ``solo`` is the ceiling level, with the result a check
    there would give: slot and time ``times[ceiling]``, rate
    ``table.rate(ceiling)`` and power ``threshold(ceiling) * N / g_ii``. It
    is None when that power underflows to 0 at ``lowest``, where the kernel
    raises NumericalError. The terms, ``times`` among them, are
    ``solo_terms``' for one subset.
    """
    (terms,), _, _ = solo_terms(*_link_arrays(nodes, gains), radio, (table,))
    return ladder_records(table, terms)


def lttf(
    nodes,
    gains: GainMatrix,
    table: RateTable,
    radio: RadioConfig,
    cap: float = math.inf,
    solos=None,
) -> AllocationResult:
    """Longest-transmission-time-first rate assignment.

    Each link starts at the lowest rate level that meets its delay bound; if
    some link has no such level the subset is infeasible outright. While the
    current vector is feasible, the link with the largest transmission time
    gets its rate raised one level (ties broken by lowest position). The walk
    stops when that link already sits at the top level or the raise breaks
    feasibility, and the last feasible vector is returned together with its
    minimum power vector and slot length.

    The path of level vectors does not depend on any verdict. Along it targets
    and (the ladder being concave) time * target products rise and times fall,
    so by the series argument of ``continuous_optimal`` its verdicts are a
    feasible prefix. A link's ceiling is the last level, counting up from its
    lowest level within delay, up to which every level passes its solo test:
    u <= p_max and time * u <= energy budget, with u = threshold * N / g_ii
    the kernel's interference-free power, as the same float expression.
    ``min_power_vector`` never returns a power below u, so a vector with a
    link above its ceiling is infeasible. The path (at most
    1 + (num_levels - 1) * len(nodes) vectors) is therefore built only up to
    the vector whose longest link sits at its ceiling; a subset with a link
    that fails its solo test at its lowest level is infeasible without a
    check. Position 0 is checked (infeasible there, the subset is) and the
    last feasible position is binary-searched: the linear walk's result from
    at most 1 + ceil(log2(path length)) ``check_targets`` calls on the
    thresholds ``table.threshold(q)``.

    ``solos`` holds each link's record as ``ladder_solos(nodes, gains,
    table, radio)`` returns it; a ``TablePricer`` derives them once per node
    and passes them in, and a bare call derives them itself. A single link
    searches its path like any subset; a ``TablePricer`` reads its solo
    price from its record instead.

    ``lttf`` never checks a vector above a ceiling: such a vector is
    infeasible, even where the kernel would raise NumericalError on it for
    an overflowing solo power.

    ``cap`` is an upper bound on the slot the caller can use: the result is
    exact whenever its slot is at most ``cap``, and
    ``AllocationResult.infeasible()`` otherwise. Slots never rise along the
    walk, so the path keeps only the vectors whose slot is not over ``cap``,
    a suffix of the walk, and the search starts at its first; with none
    kept, or an infeasible verdict at the first, every feasible vector is
    over ``cap``. A price over ``cap`` therefore takes at most one check.
    A NaN ``cap`` is no cap, the same as ``math.inf``
    (``test_allocation.py::TestCap::test_nan_cap_is_no_cap``).

    An infeasible result's reason is the solo test verdict of the first
    link with no record (see ``solo_terms``), else OVER_CAP where the walk's
    first vector is over ``cap``, else the verdict of the check there.

    Raises ValidationError when ``nodes`` is empty or its length differs
    from ``gains.n``.
    """
    nodes = list(nodes)
    if not nodes:
        raise ValidationError("subset must be nonempty")
    if len(nodes) != gains.n:
        raise ValidationError("one node per gain matrix row required")
    if solos is None:
        solos = ladder_solos(nodes, gains, table, radio)
    for record in solos:
        if type(record) is Verdict:  # no record
            return AllocationResult.infeasible(record)
    thresholds, rates = zip(*table.levels)
    delays = [n.delay_bound for n in nodes]
    energies = [n.energy_budget for n in nodes]
    checks = 0

    def check(vector):
        nonlocal checks
        checks += 1
        link_times = [s[0][q] for s, q in zip(solos, vector)]
        targets = [thresholds[q] for q in vector]
        return vector, link_times, check_targets(gains, targets, radio, link_times, delays, energies)

    levels = [s[1] for s in solos]
    current = [s[0][q] for s, q in zip(solos, levels)]
    path, cut = [], False  # cut: the walk's first vectors are over cap
    while True:
        j, slot = 0, current[0]  # the first longest link
        for i in range(1, len(nodes)):
            if current[i] > slot:
                j, slot = i, current[i]
        if not slot > cap:  # a NaN cap is no cap
            path.append(tuple(levels))
        else:
            cut = True
        if levels[j] == solos[j][2]:
            break
        levels[j] += 1
        current[j] = solos[j][0][levels[j]]
    if not path:
        return AllocationResult.infeasible(OVER_CAP)
    best = check(path[0])
    if not best[2].feasible:
        return AllocationResult.infeasible(OVER_CAP if cut else best[2].verdict, checks)
    lo, hi = 0, len(path)  # position lo is feasible, none from hi on is
    while hi - lo > 1:
        mid = (lo + hi + 1) // 2  # rounded up: many walks end at the top
        found = check(path[mid])
        if found[2].feasible:
            lo, best = mid, found
        else:
            hi = mid
    vector, link_times, report = best
    return _result_for([rates[q] for q in vector], link_times, report, checks)


def brute_force_optimal(
    nodes, gains: GainMatrix, table: RateTable, radio: RadioConfig
) -> AllocationResult:
    """Exhaustive optimality oracle over all rate vectors.

    Guarded to at most 4 links and 8 usable levels. Ties on the slot length
    are broken by the lexicographically smallest level-index vector, which the
    enumeration order delivers for free. It checks rates through
    ``check_rate_vector``, so it shares no loop with ``lttf``.

    A vector with a link whose interference-free power ``threshold * N /
    g_ii`` (the kernel's float expression) is above ``p_max`` is infeasible
    without a check, since ``min_power_vector`` never returns less; so a
    link whose power overflows there is infeasible, as ``lttf`` reads it,
    where the kernel would raise NumericalError.
    """
    nodes = list(nodes)
    if not nodes:
        raise ValidationError("subset must be nonempty")
    if len(nodes) > 4:
        raise ValidationError("brute force limited to 4 links")
    if table.num_levels > 8:
        raise ValidationError("brute force limited to 8 rate levels")
    if len(nodes) != gains.n:
        raise ValidationError("one node per gain matrix row required")
    noise, p_max = radio.noise_power, radio.p_max
    own = [col[k] for k, col in enumerate(gains.cols)]
    best: AllocationResult | None = None
    for combo in itertools.product(range(table.num_levels), repeat=len(nodes)):
        if any(table.threshold(q) * noise / g > p_max for q, g in zip(combo, own)):
            continue
        rates = [table.rate(q) for q in combo]
        report = check_rate_vector(nodes, gains, rates, table, radio)
        if not report.feasible:
            continue
        times = [n.packet_bits / r for n, r in zip(nodes, rates)]
        if best is None or max(times) < best.slot:
            best = _result_for(rates, times, report)
    return best if best is not None else AllocationResult.infeasible()


def _capacity_targets(packet_bits: np.ndarray, slot: float, bandwidth: float) -> np.ndarray:
    # SINR needed for each link to carry its packet in `slot` seconds.
    return np.expm1(packet_bits * (math.log(2.0) / (slot * bandwidth)))


def continuous_solos(nodes, gains: GainMatrix, radio: RadioConfig) -> list[tuple[float, float]]:
    """Each link's ``solo_terms`` floor t_lo and top, as ``(t_lo, top)``
    pairs in ``nodes`` order: ``continuous_optimal``'s ``solos``."""
    _, floors, tops = solo_terms(*_link_arrays(nodes, gains), radio)
    return list(zip(floors[0].tolist(), tops[0].tolist()))


def continuous_optimal(
    nodes, gains: GainMatrix, radio: RadioConfig, cap: float = math.inf, solos=None
) -> AllocationResult:
    """Minimum common slot length under capacity-derived (continuous) rates.

    All links transmit for the whole slot t at rate packet_bits/t, so link i
    needs the SINR target g_i(t) = 2**(b_i/(t*W)) - 1; both g_i(t) and
    t*g_i(t) strictly decrease in t. The interference matrix F(t) scales its
    rows by the targets, so its spectral radius cannot grow with t. The
    minimum power vector is the series p(t) = sum_m F(t)**m u(t), and each
    term of p_i(t) is a positive constant times g_i(t) times other targets
    g_j(t); in the energy t*p_i(t) the factor g_i(t) becomes t*g_i(t). So
    the spectral, power and energy checks pass for all t >= t*, and the
    delay check for all t <= t_hi, the tightest delay bound: the feasible
    slots form the one interval [t*, t_hi], and a single bisection between
    the interference-free single-link bound t_lo and t_hi finds t*. t_lo is
    the largest of the links' interference-free slots. ``solos`` holds each
    link's ``(t_lo, top)``, as ``continuous_solos`` returns them: a
    ``ContinuousPricer`` derives them once per node and passes them in, and
    a bare call derives them itself.

    Probes are made in this order, each only when the answer needs it. A
    single link with a guess is first checked at ``solo_guess(t_lo, top)``,
    unless that is over ``cap``; a feasible verdict there is the answer: it
    is t_lo, or the final slot of the bisection with every midpoint
    feasible, where t_lo fails on power alone. The anchor is min(cap, t_hi).
    Any price that goes on, a single link's with no guess or an infeasible
    one included, takes the bisection's final cell (lo, hi) as arithmetic
    predicts it, which only chooses where to probe: the closed form of the
    minimum powers for two links, the kernel run bare for any other count
    (``_predicted_cell``). Unless hi is above the anchor or the arithmetic
    finds the anchor infeasible, it probes hi, then lo. The cell is
    confirmed, and hi is the answer, only where hi is feasible and lo
    infeasible: the bisection's result depends only on its verdicts, which
    are monotone, and every midpoint outside the cell decides as the probed
    slot on its side of it, so the slot, rates and powers are the plain
    bisection's, bit for bit.

    Where the cell is missing or not confirmed, the plain bisection runs,
    probed in its own order. The anchor is probed, and an infeasible
    verdict there is the answer infeasible: no slot up to it is feasible.
    Then t_lo is probed, and a feasible verdict there is the answer. Then
    every midpoint of the bisection from (t_lo, t_hi) below the anchor is
    probed, and those at or above it count as feasible; so where rounding
    breaks monotonicity the verdicts are still those the plain bisection
    probes. The answer is thus a confirmed cell's hi or the plain
    bisection's: the arithmetic only chooses where to probe.

    The pricers make two kinds of call, which this order serves: a solo
    from ``SubsetPricer.solo``, with no cap, and a group of two or more
    links from ``SubsetPricer.group``, capped at the sum of its members'
    solo slots, which at the benchmark workloads is below its tightest
    delay bound, so it is anchored at its cap. Under those calls a feasible
    group whose cell is confirmed takes two probes, as does a solo with no
    guess whose cell is confirmed. t_hi is probed only for a solo that its
    guess does not answer and whose cell is missing, unconfirmed or ends at
    t_hi; an unconfirmed cell that ends at t_hi probes it twice, as its hi
    and as the anchor.

    ``cap`` is an upper bound on the slot the caller can use: the result is
    exact whenever its slot is at most ``cap``, and
    ``AllocationResult.infeasible()`` otherwise. An anchor below t_lo gives
    infeasible without a probe; a ``cap`` anchor is probed, and an
    infeasible verdict there means t* > cap. So a price with t* > cap takes
    one probe, or two where a predicted cell fails first. The
    slot is compared with ``cap`` once, as it is returned: a feasible slot
    at or under ``cap`` is always a probed slot, and a bisection slot above
    ``cap`` (as where t* <= cap lies below it, within its relative
    ``_REL_TOL``) is infeasible without a probe. A NaN ``cap`` is no cap,
    the same as ``math.inf``
    (``test_allocation.py::TestCap::test_nan_cap_is_no_cap``).

    Guarantee: a feasible result's slot passed the ordered check, and either
    it equals t_lo or the true boundary t* lies within a relative
    ``_REL_TOL`` below it.

    The result counts its probes as ``checks`` and the bare kernel runs of
    its prediction as ``evaluations``. An infeasible result's reason is the
    verdict of the probe at t_hi where that is the anchor, OVER_CAP where
    the anchor is ``cap`` or the slot is over it, and INFEASIBLE_MAX_POWER
    where t_lo > t_hi: some link alone needs more than p_max at every slot
    within the delay bound.

    The set-up and the result are Python floats, from the same float
    operations as on arrays; only the logarithms and the capacity targets
    use numpy (``math.log2`` and ``math.expm1`` differ in the last bit).

    Raises ValidationError when ``nodes`` is empty or its length differs
    from ``gains.n``. Raises NumericalError, whatever the cap and before any
    probe, when t_lo is not in (0, inf) (inf as when 1 + SNR rounds to 1 for
    a link's solo SNR at p_max, 0 as when that SNR overflows), when
    min(t_lo, t_hi) * W underflows to 0, or when the capacity targets at t_hi
    underflow to 0 (as when t_hi * W overflows); no link with a guess does.
    The kernel's own NumericalError (a minimum power that underflows to 0 or
    overflows) surfaces only from a slot that is probed: an error that the
    probe at t_hi alone would raise does not surface when t_hi is not
    probed, as when a solo's guess is feasible, a cell below t_hi is
    confirmed, or a cap below t_hi is infeasible. A prediction never raises:
    the bare kernel's errors there read as NaN.
    """
    nodes = list(nodes)
    if not nodes:
        raise ValidationError("subset must be nonempty")
    if len(nodes) != gains.n:
        raise ValidationError("one node per gain matrix row required")
    if solos is None:
        solos = continuous_solos(nodes, gains, radio)
    checks = 0
    packets = [n.packet_bits for n in nodes]
    delays = [n.delay_bound for n in nodes]
    energies = [n.energy_budget for n in nodes]
    if len(solos) == 1 and solos[0][1] > 0:  # a NaN top is no guess
        slot = solo_guess(*solos[0])
        if not slot > cap:  # a NaN cap is no cap
            targets = _capacity_targets(np.array(packets), slot, radio.bandwidth_hz).tolist()
            report = check_targets(gains, targets, radio, [slot], delays, energies)
            if report.feasible:
                return _result_for([packets[0] / slot], [slot], report, 1)
            checks = 1
    t_lo = max(t for t, _ in solos)
    return _search(gains, radio, packets, delays, energies, t_lo, cap, _Tally(checks))


def _inverse_slack(gains, radio, packets, energies, tally: _Tally):
    """y(t) = 1/slack, slack being the largest p_i/p_max and t*p_i/E_i of
    the minimum powers p(t) on ``math.expm1`` targets: y(t) >= 1 exactly
    where they exist and pass, NaN where there are none or arithmetic raises.

    For two links p = (I - F)^-1 u has numerators n_0 = u_0 + F_01 u_1 and
    n_1 = u_1 + F_10 u_0 over the pivot d = 1 - F_01 F_10, so y is the
    closed form d / max_i(n_i * max(1/p_max, t/E_i)). Any other count runs
    the kernel bare, through ``feasibility`` so that a wrapper there sees
    it, and counts each run in ``tally.evaluations``; its ValidationError (a
    target that underflows to 0) and NumericalError are NaN."""
    noise, rate = radio.noise_power, 1.0 / radio.p_max
    scales = [b * (math.log(2.0) / radio.bandwidth_hz) for b in packets]
    if len(packets) == 2:
        (c00, c01), (c10, c11) = gains.cols
        (s0, s1), (e0, e1) = scales, energies
        a0, a1, x01, x10 = noise / c00, noise / c11, c01 / c00, c10 / c11

        def y(t: float) -> float:
            try:
                z0, z1 = math.expm1(s0 / t), math.expm1(s1 / t)
                n0, n1 = z0 * (a0 + x01 * a1 * z1), z1 * (a1 + x10 * a0 * z0)
                m = max(n0 * max(rate, t / e0), n1 * max(rate, t / e1))
                return (1.0 - x01 * x10 * z0 * z1) / m
            except ArithmeticError:  # expm1 overflows, or a division by 0
                return math.nan

        return y

    def y(t: float) -> float:
        try:
            targets = [math.expm1(s / t) for s in scales]
            tally.evaluations += 1
            powers = feasibility.min_power_vector(gains, targets, noise)
            if powers is None:
                return math.nan
            return 1.0 / max(p * max(rate, t / e) for p, e in zip(powers, energies))
        except (ArithmeticError, ValidationError, NumericalError):
            return math.nan

    return y


def _predicted_cell(y, t_lo, t_hi, anchor):
    """The final cell (lo, hi) of the bisection from (t_lo, t_hi) under the
    verdicts y(t) >= 1 of ``_inverse_slack``; None where hi is above
    ``anchor`` or y(anchor) is not >= 1. It only chooses where to probe.

    From (no, yes) = (t_lo, anchor) a secant through the last two non-NaN
    values of y steps to y = 1: 1/slack is close to linear in t near t*,
    by the pole of p(t) where rho(F(t)) = 1, and far above it, where g_i(t)
    is about b_i*ln2/(t*W). It steps geometrically where the secant is
    unusable or leaves (no, yes) or y is NaN, and just across a converged
    root. The walk then takes midpoints at or below no as infeasible, at or
    above yes as feasible, and those between from y."""
    yes, y1 = anchor, y(anchor)
    if not y1 >= 1.0:  # t* above the anchor, or NaN
        return None
    t1, no = anchor, t_lo
    t, yt = t_lo, y(t_lo)
    if yt >= 1.0:  # every midpoint is feasible
        yes = t_lo
    for _ in range(_GUIDE_CAP):
        if yes - no <= _GUIDE_TOL * yes:
            break
        step = math.nan
        if yt == yt:  # a secant through (t1, y1) and (t, yt), NaN excluded
            if yt != y1:
                step = t + (1.0 - yt) * (t - t1) / (yt - y1)
                if abs(step - t) <= _GUIDE_TOL * t:  # close from the other side
                    step *= 1.0 - _NUDGE if yt >= 1.0 else 1.0 + _NUDGE
            t1, y1 = t, yt
        if not no < step < yes:  # NaN too
            step = math.sqrt(no) * math.sqrt(yes)  # sqrt(no * yes) can underflow
            if not no < step < yes:
                break
        t, yt = step, y(step)
        if yt >= 1.0:
            yes = t
        else:
            no = t
    lo, hi = _final_cell(t_lo, t_hi, lambda mid: mid >= yes or (mid > no and y(mid) >= 1.0))
    return (lo, hi) if hi <= anchor else None


@np.errstate(over="ignore")  # capacity targets overflow at tiny slots
def _search(gains, radio, packets, delays, energies, t_lo, cap, tally) -> AllocationResult:
    """``continuous_optimal`` after a single link's guess, whose check, if
    it made one, ``tally`` already holds."""
    k = len(packets)
    bits = np.array(packets)

    def probe(t: float) -> FeasibilityReport:
        tally.checks += 1
        targets = _capacity_targets(bits, t, radio.bandwidth_hz).tolist()
        return check_targets(gains, targets, radio, [t] * k, delays, energies)

    def at(t: float, report: FeasibilityReport) -> AllocationResult:
        return _result_for([b / t for b in packets], [t] * k, report, tally.checks, tally.evaluations)

    def infeasible(reason) -> AllocationResult:
        return AllocationResult.infeasible(reason, tally.checks, tally.evaluations)

    t_hi = float(min(delays))
    # Every probe is at t >= t_lo and the check below at t_hi, so t * W > 0
    # at each of them wherever min(t_lo, t_hi) * W > 0.
    if not (0.0 < t_lo < math.inf and min(t_lo, t_hi) * radio.bandwidth_hz > 0):
        raise NumericalError(f"interference-free slot bound {t_lo} leaves the float range")
    # Targets fall with t, so those at t_hi are the smallest of any probe.
    if not all(x > 0 for x in _capacity_targets(bits, t_hi, radio.bandwidth_hz).tolist()):
        raise NumericalError(f"capacity targets underflow to 0 at slot {t_hi}")
    anchor = cap if cap < t_hi else t_hi  # a NaN cap is no cap
    if t_lo > anchor:
        return infeasible(Verdict.INFEASIBLE_MAX_POWER if t_lo > t_hi else OVER_CAP)
    y = _inverse_slack(gains, radio, packets, energies, tally)
    cell = _predicted_cell(y, t_lo, t_hi, anchor)
    if cell is not None:
        lo, hi = cell
        report = probe(hi)
        if report.feasible and not probe(lo).feasible:
            return at(hi, report)
    # the cell is missing or not confirmed: the plain bisection
    report = probe(anchor)  # then the slot's
    if not report.feasible:
        return infeasible(OVER_CAP if anchor < t_hi else report.verdict)
    lo_report = probe(t_lo)
    if lo_report.feasible:
        return at(t_lo, lo_report)

    def feasible(mid: float) -> bool:
        nonlocal report
        if mid >= anchor:  # not probed: the anchor is feasible
            return True
        verdict = probe(mid)
        if verdict.feasible:
            report = verdict
        return verdict.feasible

    _, slot = _final_cell(t_lo, t_hi, feasible)
    return infeasible(OVER_CAP) if slot > cap else at(slot, report)  # a NaN cap is no cap
