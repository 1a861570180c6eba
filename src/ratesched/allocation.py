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

import numpy as np

from .feasibility import (
    FeasibilityReport,
    NumericalError,
    check_rate_vector,
    check_targets,
)
from .model import (
    AllocationResult,
    GainMatrix,
    RadioConfig,
    RateTable,
    ValidationError,
)

__all__ = ["lttf", "brute_force_optimal", "continuous_optimal"]

# Relative width at which the continuous slot bisection stops.
_REL_TOL = 1e-6
# The continuous guide stops at this relative width of (no, yes) or after
# _GUIDE_CAP probes; it steps a relative _NUDGE across a converged secant.
_GUIDE_TOL = 1e-9
_GUIDE_CAP = 40
_NUDGE = 4e-10


def _result_for(rates, times, report: FeasibilityReport) -> AllocationResult:
    return AllocationResult(
        feasible=True,
        slot=max(times),
        rates=tuple(rates),
        powers=report.min_powers,
        times=tuple(times),
    )


def lttf(
    nodes, gains: GainMatrix, table: RateTable, radio: RadioConfig, cap: float = math.inf
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
    the vector whose longest link sits at its ceiling; a subset whose first
    vector is above a ceiling is infeasible without a check. Position 0 is
    checked (infeasible there, the subset is) and the last feasible position
    is binary-searched: the linear walk's result from at most
    1 + ceil(log2(path length)) ``check_targets`` calls on the thresholds
    ``table.threshold(q)``. Each link's time at every level is divided out
    once per call, and the walk keeps each position's slot.

    ``lttf`` never checks a vector above a ceiling: such a vector is
    infeasible, even where the kernel would raise NumericalError on it for
    an overflowing solo power. With one link every vector on the path
    passes the kernel's checks with the same floats, so only the last one
    is checked: a solo price takes 0 or 1 checks. The exception is a solo
    power that underflows to 0 at the first position to check; that position
    is checked first, and the kernel raises NumericalError there.

    ``cap`` is an upper bound on the slot the caller can use: the result is
    exact whenever its slot is at most ``cap``, and
    ``AllocationResult.infeasible()`` otherwise. Slots never rise along the
    path, so when position 0 is over ``cap`` the search starts at the first
    position that is not; with no such position, or an infeasible verdict
    there, every feasible position is over ``cap``. A price over ``cap``
    therefore takes at most one check.
    """
    nodes = list(nodes)
    if not nodes:
        raise ValidationError("subset must be nonempty")
    top = table.num_levels - 1
    levels = []
    for n in nodes:
        q = table.lowest_level_within(n.packet_bits, n.delay_bound)
        if q is None:
            return AllocationResult.infeasible()
        levels.append(q)
    thresholds, rates = zip(*table.levels)
    times = [[n.packet_bits / r for r in rates] for n in nodes]  # [link][level]
    delays = [n.delay_bound for n in nodes]
    energies = [n.energy_budget for n in nodes]
    noise, p_max = radio.noise_power, radio.p_max
    solo_gains = [col[i] for i, col in enumerate(gains.cols)]

    def solo_power(i: int, q: int) -> float:
        return thresholds[q] * noise / solo_gains[i]

    def within_ceiling(i: int, q: int) -> bool:
        u = solo_power(i, q)
        return u <= p_max and times[i][q] * u <= energies[i]

    if not all(within_ceiling(i, q) for i, q in enumerate(levels)):
        return AllocationResult.infeasible()
    k = len(nodes)
    current = [t[q] for t, q in zip(times, levels)]
    path, slots = [], []
    while True:
        path.append(tuple(levels))
        j, slot = 0, current[0]  # the first longest link
        for i in range(1, k):
            if current[i] > slot:
                j, slot = i, current[i]
        slots.append(slot)
        if levels[j] == top or not within_ceiling(j, levels[j] + 1):
            break
        levels[j] += 1
        current[j] = times[j][levels[j]]

    def check(pos: int):
        vector = path[pos]
        link_times = [t[q] for t, q in zip(times, vector)]
        targets = [thresholds[q] for q in vector]
        report = check_targets(gains, targets, radio, link_times, delays, energies)
        return (vector, link_times, report) if report.feasible else None

    lo = 0
    if slots[0] > cap:
        lo = next((pos for pos, slot in enumerate(slots) if slot <= cap), None)
        if lo is None:
            return AllocationResult.infeasible()
    if k == 1 and solo_power(0, path[lo][0]) > 0:
        lo = len(path) - 1  # every position from lo on passes
    best = check(lo)
    if best is None:
        return AllocationResult.infeasible()
    hi = len(path)  # position lo is feasible, none from hi on is
    while hi - lo > 1:
        mid = (lo + hi + 1) // 2  # rounded up: many walks end at the top
        found = check(mid)
        if found is None:
            hi = mid
        else:
            lo, best = mid, found
    vector, link_times, report = best
    return _result_for([rates[q] for q in vector], link_times, report)


def brute_force_optimal(
    nodes, gains: GainMatrix, table: RateTable, radio: RadioConfig
) -> AllocationResult:
    """Exhaustive optimality oracle over all rate vectors.

    Guarded to at most 4 links and 8 usable levels. Ties on the slot length
    are broken by the lexicographically smallest level-index vector, which the
    enumeration order delivers for free. It checks rates through
    ``check_rate_vector``, so it shares no loop with ``lttf``.
    """
    nodes = list(nodes)
    if not nodes:
        raise ValidationError("subset must be nonempty")
    if len(nodes) > 4:
        raise ValidationError("brute force limited to 4 links")
    if table.num_levels > 8:
        raise ValidationError("brute force limited to 8 rate levels")
    best: AllocationResult | None = None
    for combo in itertools.product(range(table.num_levels), repeat=len(nodes)):
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


@np.errstate(over="ignore")  # capacity targets overflow at tiny slots
def continuous_optimal(
    nodes, gains: GainMatrix, radio: RadioConfig, cap: float = math.inf
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
    the interference-free single-link bound t_lo and t_hi finds t*.

    That bisection is replayed: its result depends only on its monotone
    verdicts, so a probed feasible slot ``yes`` and a probed infeasible slot
    ``no`` decide every midpoint outside (no, yes). A guide that only
    chooses where to probe first narrows (no, yes): a secant on 1/slack(t),
    slack being the largest p_i/p_max and t*p_i/E_i of the last two probes
    that found powers. 1/slack is close to linear in t near t*, by the pole
    of p(t) where rho(F(t)) = 1, and far above it, where g_i(t) is about
    b_i*ln2/(t*W). It takes a geometric step instead when the secant is
    unusable or leaves (no, yes) or the last probe found no powers, and
    steps just across a converged secant's root. The replay probes only the
    midpoints inside (no, yes), and the final slot unless it was probed, so
    slot and powers are the plain bisection's, bit for bit; should that final
    probe be infeasible (rounding broke monotonicity), the plain one runs.

    ``cap`` is an upper bound on the slot the caller can use: the result is
    exact whenever its slot is at most ``cap``, and
    ``AllocationResult.infeasible()`` otherwise. After the probe at t_hi
    (which raises the errors below whatever ``cap`` is), a ``cap`` below
    t_lo gives infeasible at once; one below t_hi is probed, and an
    infeasible verdict there means t* > cap, while a feasible one becomes
    the guide's first ``yes``. So a price with t* > cap takes at most two
    probes. One with t* <= cap below the bisection's slot (within its
    relative ``_REL_TOL``) is replayed in full and then reported infeasible.

    Guarantee: a feasible result's slot passed the ordered check, and either
    it equals t_lo or the true boundary t* lies within a relative
    ``_REL_TOL`` below it.

    The set-up and the result are Python floats, from the same float
    operations as on arrays; only the logarithms and the capacity targets
    use numpy (``math.log2`` and ``math.expm1`` differ in the last bit).

    Raises NumericalError when a bound leaves the float range: the capacity
    targets at t_hi underflow to 0 (as when t_hi * W overflows), or t_lo
    underflows to 0 (as when the solo SNR at p_max overflows).
    """
    nodes = list(nodes)
    if not nodes:
        raise ValidationError("subset must be nonempty")
    k = len(nodes)
    packets = [n.packet_bits for n in nodes]
    bits = np.array(packets)
    delays = [n.delay_bound for n in nodes]
    energies = [n.energy_budget for n in nodes]

    def probe(t: float) -> FeasibilityReport:
        targets = _capacity_targets(bits, t, radio.bandwidth_hz).tolist()
        return check_targets(gains, targets, radio, [t] * k, delays, energies)

    t_hi = float(min(delays))
    if not math.isfinite(t_hi):
        raise ValidationError("continuous baseline needs finite delay bounds")
    cols = gains.cols
    snr_caps = [radio.p_max * cols[i][i] / radio.noise_power for i in range(k)]
    log_caps = np.log2([1.0 + s for s in snr_caps]).tolist()
    t_lo = max(b / (radio.bandwidth_hz * x) for b, x in zip(packets, log_caps))
    if t_lo > t_hi:
        return AllocationResult.infeasible()
    # Targets fall with t, so those at t_hi are the smallest of any probe.
    hi_targets = _capacity_targets(bits, t_hi, radio.bandwidth_hz).tolist()
    if not all(x > 0 for x in hi_targets):
        raise NumericalError(f"capacity targets underflow to 0 at slot {t_hi}")
    hi_report = check_targets(gains, hi_targets, radio, [t_hi] * k, delays, energies)
    if not hi_report.feasible:
        return AllocationResult.infeasible()
    if not t_lo > 0:
        raise NumericalError("interference-free slot bound underflows to 0")
    if cap < t_lo:
        return AllocationResult.infeasible()
    no, yes, yes_report = t_lo, t_hi, hi_report
    if cap < t_hi:
        cap_report = probe(cap)
        if not cap_report.feasible:
            return AllocationResult.infeasible()
        yes, yes_report = cap, cap_report
    lo_report = probe(t_lo)
    if lo_report.feasible:
        return _result_for([b / t_lo for b in packets], [t_lo] * k, lo_report)

    def inverse_slack(t: float, powers) -> float:  # NaN outside the float range
        s = max(max(p / radio.p_max, t * p / e) for p, e in zip(powers, energies))
        return 1.0 / s if 0.0 < s < math.inf else math.nan

    def bisect(no: float, yes: float, yes_report: FeasibilityReport):
        # The bisection from (t_lo, t_hi), probing only midpoints inside
        # (no, yes); the report is None when the final slot was not probed.
        lo, hi, report = t_lo, t_hi, hi_report
        while hi - lo > _REL_TOL * hi:
            mid = 0.5 * (lo + hi)
            if no < mid < yes:
                mid_report = probe(mid)
                if mid_report.feasible:
                    yes, yes_report = mid, mid_report
                else:
                    no = mid
            if mid >= yes:
                hi, report = mid, yes_report if mid == yes else None
            else:
                lo = mid
        return hi, report

    t, last = t_lo, lo_report
    t1, y1 = yes, inverse_slack(yes, yes_report.min_powers)
    for _ in range(_GUIDE_CAP):
        if yes - no <= _GUIDE_TOL * yes:
            break
        step = math.nan
        if last.min_powers is not None:  # a secant through (t1, y1) and (t, y)
            y = inverse_slack(t, last.min_powers)
            if y != y1:
                step = t + (1.0 - y) * (t - t1) / (y - y1)
                if abs(step - t) <= _GUIDE_TOL * t:  # close from the other side
                    step *= 1.0 - _NUDGE if last.feasible else 1.0 + _NUDGE
            t1, y1 = t, y
        if not no < step < yes:  # NaN too
            step = math.sqrt(no) * math.sqrt(yes)  # sqrt(no * yes) can underflow
            if not no < step < yes:
                break
        t, last = step, probe(step)
        if last.feasible:
            yes, yes_report = t, last
        else:
            no = t

    slot, report = bisect(no, yes, yes_report)
    if slot > cap:
        return AllocationResult.infeasible()
    if report is None:
        report = probe(slot)
        if not report.feasible:  # float verdicts were not monotone: replay nothing
            slot, report = bisect(t_lo, t_hi, hi_report)
    return _result_for([b / slot for b in packets], [slot] * k, report)
