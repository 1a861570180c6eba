"""Core domain types for SINR-constrained power/rate allocation and TDMA scheduling.

Unit conventions used throughout the package:

* powers in watts, noise in watts (total receiver noise, not a density)
* bandwidth in Hz, rates in bits/second, packets in bits
* times (delays, slots, subframes) in seconds
* channel gains are linear power gains, SINR thresholds are linear ratios

All types are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ValidationError",
    "RateTable",
    "build_rate_table",
    "disc4_table",
    "disc8_table",
    "DISC4_THRESHOLDS_DB",
    "DISC8_THRESHOLDS_DB",
    "NodeSpec",
    "RadioConfig",
    "GainMatrix",
    "AllocationResult",
    "OVER_CAP",
    "Instance",
    "validate_instance",
]


class ValidationError(ValueError):
    """Raised when an input object violates a documented invariant."""


def is_number(value, kind=(int, float), low=0, top=sys.float_info.max) -> bool:
    """Whether ``value`` is a ``kind``, never a bool, with ``low < value <= top``.

    The default ``top`` is the largest float, so NaN, infinities and integers
    beyond the float range fail; a string or None fails the ``kind`` test.
    """
    return isinstance(value, kind) and not isinstance(value, bool) and low < value <= top


# Threshold ladders for the two bundled discrete-rate models. The -inf entry
# stands for "no transmission" and is dropped from the usable levels.
DISC4_THRESHOLDS_DB = (-math.inf, 10.0, 20.0, 30.0)
DISC8_THRESHOLDS_DB = (-math.inf, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


@dataclass(frozen=True)
class RateTable:
    """Ordered ladder of (SINR threshold, rate) pairs a link may transmit at.

    ``levels[q] = (threshold, rate)`` with thresholds as linear ratios and
    rates in bits/s. A link may use level q only if its SINR is at least
    ``levels[q][0]``. Levels are strictly increasing in both coordinates from
    a rate above 0, and the threshold->rate map must be concave over the
    listed points (slopes non-increasing), which every Shannon-derived ladder
    satisfies; a chord slope past the first that overflows fails this test,
    since it cannot be compared. Every threshold and rate must be a finite
    number > 0 (``is_number``); each is kept, and tested, as a float, so that
    packet bits divided by a rate, an integer number of bits included, is
    the float64 quotient that ``allocation.solo_terms`` computes.
    """

    levels: tuple[tuple[float, float], ...]
    dropped_db: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if not self.levels:
            raise ValidationError("no positive rate levels")
        for g, r in self.levels:
            if not (is_number(g) and is_number(r)):
                raise ValidationError(f"rate level ({g!r}, {r!r}) must be finite numbers > 0")
        object.__setattr__(self, "levels", tuple((float(g), float(r)) for g, r in self.levels))
        prev_g, prev_r = -math.inf, 0.0
        for g, r in self.levels:
            if not (g > prev_g and r > prev_r):
                raise ValidationError(
                    "rate levels must be strictly increasing in threshold and rate"
                )
            prev_g, prev_r = g, r
        # Concavity over the listed points: chord slopes must not increase.
        # The leading chord from the origin is included so that rate/threshold
        # stays non-increasing along the ladder.
        pts = [(0.0, 0.0)] + list(self.levels)
        slopes = [
            (pts[i + 1][1] - pts[i][1]) / (pts[i + 1][0] - pts[i][0])
            for i in range(len(pts) - 1)
        ]
        # A slope that overflows cannot be compared, so past the first one it
        # fails closed; an overflowing first slope is above every finite one.
        for a, b in zip(slopes, slopes[1:]):
            if b == math.inf or b > a * (1 + 1e-12):
                raise ValidationError("threshold->rate map must be concave")

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def rate(self, q: int) -> float:
        return self.levels[q][1]

    def threshold(self, q: int) -> float:
        return self.levels[q][0]

    def index_of(self, rate: float) -> int:
        """Level index of an exact rate value; raises if the rate is unknown."""
        for q, (_, r) in enumerate(self.levels):
            if r == rate:
                return q
        raise ValidationError(f"rate {rate!r} not in table")

    def threshold_for_rate(self, rate: float) -> float:
        """SINR threshold of an exact rate value; raises if the rate is unknown."""
        return self.levels[self.index_of(rate)][0]

    def lowest_level_within(self, packet_bits: float, deadline_s: float) -> int | None:
        """Smallest level whose rate transmits ``packet_bits`` within the deadline.

        Returns None when even the top rate is too slow.
        """
        for q, (_, r) in enumerate(self.levels):
            if packet_bits / r <= deadline_s:
                return q
        return None


def build_rate_table(sinr_thresholds_db, bandwidth_hz: float) -> RateTable:
    """Build a rate ladder from dB thresholds using the AWGN capacity map.

    Each threshold ``x`` dB becomes a linear ratio ``g = 10**(x/10)`` with rate
    ``bandwidth_hz * log2(1 + g)``. Levels with nonpositive rate (the -inf dB
    "silent" entry) are excluded from the usable ladder and recorded in
    ``dropped_db``. Each threshold is -inf or a finite number whose ratio ``g``
    is finite; raises ValidationError otherwise.
    """
    if not is_number(bandwidth_hz):
        raise ValidationError(f"bandwidth must be a finite number > 0, not {bandwidth_hz!r}")
    thresholds = list(sinr_thresholds_db)
    for db in thresholds:
        if db != -math.inf and not is_number(db, low=-math.inf):
            raise ValidationError(f"threshold must be a finite number of dB or -inf, not {db!r}")
    for a, b in zip(thresholds, thresholds[1:]):
        if not b > a:
            raise ValidationError("thresholds must be strictly increasing")
    levels = []
    dropped = []
    for db in thresholds:
        try:
            g = math.pow(10.0, db / 10.0) if db != -math.inf else 0.0
        except OverflowError:
            raise ValidationError(f"threshold {db!r} dB overflows its linear ratio") from None
        r = bandwidth_hz * math.log2(1.0 + g)
        if r > 0:
            levels.append((g, r))
        else:
            dropped.append(db)
    return RateTable(tuple(levels), tuple(dropped))


def disc4_table(bandwidth_hz: float) -> RateTable:
    """Four-level ladder (thresholds -inf/10/20/30 dB; three usable rates)."""
    return build_rate_table(DISC4_THRESHOLDS_DB, bandwidth_hz)


def disc8_table(bandwidth_hz: float) -> RateTable:
    """Eight-level ladder (thresholds -inf and 0..30 dB in 5 dB steps)."""
    return build_rate_table(DISC8_THRESHOLDS_DB, bandwidth_hz)


@dataclass(frozen=True)
class NodeSpec:
    """One sensor link.

    ``period`` counts subframes between packets, ``delay_bound`` caps the
    transmission time of one packet and ``energy_budget`` caps the per-packet
    transmit energy (``math.inf`` means not binding). ``id`` and
    ``controller_id`` must be integers >= 0, ``packet_bits`` and
    ``delay_bound`` finite numbers > 0, ``period`` an integer in
    [1, sys.maxsize] and ``energy_budget`` a number > 0; none may be a bool.
    Anything else raises ValidationError.
    """

    id: int
    controller_id: int
    packet_bits: float
    period: int
    delay_bound: float
    energy_budget: float = math.inf

    def __post_init__(self):
        for name in ("id", "controller_id"):
            if not is_number(getattr(self, name), int, -1, math.inf):
                raise ValidationError(f"node {self.id!r}: {name} must be an integer >= 0")
        if not is_number(self.packet_bits):
            raise ValidationError(f"node {self.id}: packet_bits must be a finite number > 0")
        if not is_number(self.period, int, top=sys.maxsize):
            raise ValidationError(f"node {self.id}: period must be an integer in [1, sys.maxsize]")
        if not is_number(self.delay_bound):
            raise ValidationError(f"node {self.id}: delay_bound must be a finite number > 0")
        if not is_number(self.energy_budget, top=math.inf):
            raise ValidationError(f"node {self.id}: energy_budget must be a number > 0")


@dataclass(frozen=True)
class RadioConfig:
    """Radio-wide constants: max transmit power, receiver noise power, bandwidth,
    each a finite number > 0 and not a bool; anything else raises
    ValidationError."""

    p_max: float
    noise_power: float
    bandwidth_hz: float

    def __post_init__(self):
        if not all(map(is_number, (self.p_max, self.noise_power, self.bandwidth_hz))):
            raise ValidationError("radio parameters must all be finite numbers > 0")


class GainMatrix:
    """Square matrix of linear power gains for a set of concurrent links.

    Entry (l, k) is the gain from the transmitter of link l to the receiver
    (controller) of link k, so row l describes where link l's power lands.
    It must be square with at least one link. The entries are validated on
    construction and kept only column by column: ``cols[k][l]`` is entry
    (l, k), a Python float, so that the feasibility kernel reads them without
    converting. ``sub(idx)`` is the matrix of a subset of links.
    """

    __slots__ = ("cols",)

    def __init__(self, g):
        arr = np.array(g, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
            raise ValidationError("gain matrix must be square and nonempty")
        if not np.all(np.isfinite(arr)) or not np.all(arr > 0):
            raise ValidationError("gains must be finite and > 0")
        self.cols = tuple(map(tuple, arr.T.tolist()))

    def sub(self, idx) -> "GainMatrix":
        """The gains among the links at positions ``idx``, in that order;
        equal to ``GainMatrix`` of those rows and columns but without
        validating entries again that were checked when this matrix was
        built."""
        sub = GainMatrix.__new__(GainMatrix)
        cols = self.cols
        sub.cols = tuple([tuple([cols[k][l] for l in idx]) for k in idx])
        return sub

    @property
    def n(self) -> int:
        return len(self.cols)

    def __repr__(self):
        return f"GainMatrix(n={self.n})"


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of a rate/power assignment for one concurrent subset.

    When ``feasible``, ``slot`` equals ``max(times)`` and ``times[i]`` is
    packet_bits/rate for link i. Infeasible results carry ``slot = inf`` and
    no per-link detail. Results produced from externally supplied slot prices
    (schedule fixtures) may also omit per-link detail.

    ``lttf`` and ``continuous_optimal`` fill in three more fields, which
    take no part in equality: ``checks``, the ``check_targets`` calls that
    produced the result; ``evaluations``, the kernel's bare evaluations
    (``min_power_vector`` outside a check) that chose where to check; and,
    for an infeasible result, its ``reason``, a ``feasibility.Verdict`` or
    ``OVER_CAP`` where the price's ``cap`` cut it short. Only the reason
    shows in the repr.
    """

    feasible: bool
    slot: float
    rates: tuple[float, ...] | None = None
    powers: tuple[float, ...] | None = None
    times: tuple[float, ...] | None = None
    checks: int = field(default=0, compare=False, repr=False)
    evaluations: int = field(default=0, compare=False, repr=False)
    reason: object = field(default=None, compare=False)

    @classmethod
    def infeasible(cls, reason=None, checks: int = 0, evaluations: int = 0) -> "AllocationResult":
        return cls(False, math.inf, None, None, None, checks, evaluations, reason)


class Cut(enum.Enum):
    """The reason of an infeasible price that its ``cap`` cut short: every
    slot it could prove feasible is over the cap, or it checked none."""

    OVER_CAP = "over_cap"


OVER_CAP = Cut.OVER_CAP


@dataclass(frozen=True)
class Instance:
    """A validated set of nodes and the frame geometry they define.

    The constructor takes only ``nodes`` and raises ValidationError for an
    empty set, duplicate ids or periods that do not nest (every period must
    be a power-of-two multiple of the smallest one); NodeSpec field
    invariants are enforced by its own constructor. The other fields are
    derived: ``periods[id]`` is the node period in subframes and
    ``subframe_count`` is the largest period, so one frame covers every
    node's cycle. Canonical instances have a smallest period of 1 (the
    subframe is defined as the shortest packet period); the experiment
    sampler renormalizes its draws into this form. ``position[id]``, the
    one map from node ids, is the node's index in ``nodes`` and its row in a
    gain matrix over them. The rate model (gains, radio, rate ladder) is not
    part of an instance: a ``SubsetPricer`` carries it.
    """

    nodes: tuple[NodeSpec, ...]
    subframe_count: int = field(init=False)
    periods: dict[int, int] = field(init=False)
    position: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = self.nodes
        if not nodes:
            raise ValidationError("instance must contain at least one node")
        min_p = min(n.period for n in nodes)
        periods = {}
        for n in nodes:
            if n.id in periods:
                raise ValidationError(f"duplicate node id {n.id}")
            if not is_nested_period(n.period, min_p):
                raise ValidationError(
                    f"non-nested periods: {n.period} is not a power-of-two "
                    f"multiple of {min_p}"
                )
            periods[n.id] = n.period
        object.__setattr__(self, "subframe_count", max(periods.values()))
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "position", {n.id: k for k, n in enumerate(nodes)})

    def node(self, node_id: int) -> NodeSpec:
        """The node ``node_id``; raises ValidationError for an id that is not
        an int (a bool or a float that equals a node id hashes as that id)
        or is unknown."""
        if type(node_id) is not int:
            raise _not_an_id(node_id)
        k = self.position.get(node_id)
        if k is None:
            raise ValidationError(f"unknown node id {node_id!r}")
        return self.nodes[k]

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes)


def _not_an_id(value) -> ValidationError:
    """The error for an id that is not an int, which every lookup by node id
    raises before it looks: a bool or a float that equals a node id hashes as
    that id, so a dict lookup alone would take it for that node."""
    return ValidationError(f"node ids must be ints, not {value!r}")


def is_nested_period(period: int, base: int) -> bool:
    """Whether ``period`` is a power-of-two multiple of ``base``; periods nest
    when this holds for each of them and the smallest as ``base``."""
    ratio, rem = divmod(period, base)
    return rem == 0 and ratio & (ratio - 1) == 0


def validate_instance(nodes) -> Instance:
    """``Instance(tuple(nodes))``: the checked node set and its frame geometry."""
    return Instance(tuple(nodes))
