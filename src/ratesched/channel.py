"""Random topologies and channel gains: uniform placement, log-distance path
loss (``PATH_LOSS_1M_DB`` at 1 m, exponent ``PATH_LOSS_EXPONENT``) with
log-normal shadowing (``SHADOWING_DB``), and unit-mean exponential (Rayleigh
power) fading.

Every draw is reproducible from an integer seed; identical seeds give
bit-identical results.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .feasibility import NumericalError
from .model import GainMatrix, ValidationError, is_number

__all__ = [
    "Topology",
    "ChannelRealization",
    "generate_topology",
    "realize_channel",
    "path_loss_db",
    "mean_gain",
    "topology_to_json",
    "topology_from_json",
    "PATH_LOSS_1M_DB",
    "PATH_LOSS_EXPONENT",
    "SHADOWING_DB",
    "MAX_LINKS",
]

# Path loss at 1 m in dB, its distance exponent, and the standard deviation of
# the log-normal shadowing in dB.
PATH_LOSS_1M_DB = 70.0
PATH_LOSS_EXPONENT = 3.5
SHADOWING_DB = 4.0

# Why a seed is dropped when one of its gains underflows to 0.
GAINS_UNDERFLOW = "channel gains underflow to 0"

# The largest n_sensors * n_controllers: the bytes of the (n_sensors,
# n_controllers, 2) float64 array of sensor-controller offsets must fit in
# sys.maxsize for numpy to size it.
MAX_LINKS = sys.maxsize // 16


@dataclass(frozen=True)
class Topology:
    """Sensor and controller positions in a square of the requested density.

    Each sensor is attached to its nearest controller, which maximizes the
    expected desired-link gain. Density counts sensors only.
    """

    side: float
    sensors: np.ndarray
    controllers: np.ndarray
    controller_of: tuple[int, ...]
    density: float
    seed: int | None

    def __post_init__(self):
        self.sensors.setflags(write=False)
        self.controllers.setflags(write=False)

    @property
    def n_sensors(self) -> int:
        return self.sensors.shape[0]

    @property
    def n_controllers(self) -> int:
        return self.controllers.shape[0]


def generate_topology(
    n_sensors: int, n_controllers: int, density: float, seed=None
) -> Topology:
    """Place sensors and controllers uniformly in a square of side
    sqrt(n_sensors / density) meters.

    Raises ValidationError unless both counts are integers >= 1 (not bools)
    whose product is at most ``MAX_LINKS`` and the density is a finite real
    number > 0 (not a bool), and NumericalError when the side overflows to
    infinity.
    """
    for name, count in (("n_sensors", n_sensors), ("n_controllers", n_controllers)):
        if not is_number(count, (int, np.integer), top=math.inf):
            raise ValidationError(f"{name} must be an integer >= 1, not {count!r}")
    if int(n_sensors) * int(n_controllers) > MAX_LINKS:
        raise ValidationError(f"n_sensors * n_controllers must be at most {MAX_LINKS}")
    if not is_number(density, (int, float, np.integer, np.floating)):
        raise ValidationError(f"density must be a finite number > 0, not {density!r}")
    side = square_side(n_sensors, density)
    xy = draw_positions(np.random.default_rng(seed), side, n_sensors + n_controllers)
    sensors, controllers = xy[:n_sensors], xy[n_sensors:]
    controller_of = tuple(nearest_controllers(distances(sensors, controllers)).tolist())
    return Topology(side, sensors, controllers, controller_of, float(density), seed)


def square_side(n_sensors, density) -> float:
    """Side in meters of the square that holds ``n_sensors`` at ``density``
    sensors per square meter; raises NumericalError when it overflows."""
    side = math.sqrt(n_sensors / density)
    if not math.isfinite(side):
        raise NumericalError(f"square side overflows at density {density!r}")
    return side


# A seed's draw, alone (``generate_topology``, ``realize_channel``) or in a
# block of seeds (``experiment._draw_block``), makes its random draws through
# the two functions below, so both give one seed the same floats.


def draw_positions(rng: np.random.Generator, side: float, count: int) -> np.ndarray:
    """``count`` points drawn uniformly in the square of side ``side``, shape
    (count, 2). A seed places its sensors, then its controllers, in one such
    call, which fills row by row, so it leaves the floats and the generator
    state of one call per kind."""
    return rng.uniform(0.0, side, size=(count, 2))


def draw_losses(rng: np.random.Generator, shape) -> tuple[np.ndarray, np.ndarray]:
    """The shadowing in dB, ``Normal(0, SHADOWING_DB**2)``, then the
    unit-mean exponential fading, each of ``shape`` (sensor, controller)."""
    return rng.normal(0.0, SHADOWING_DB, size=shape), rng.exponential(1.0, size=shape)


# The three transforms below act on the last axes and broadcast over any
# leading batch axes, so that a batch of topologies gives, entry by entry, the
# same bits as each topology alone.


def distances(sensors: np.ndarray, controllers: np.ndarray) -> np.ndarray:
    """Distance from every sensor (row) to every controller (column):
    positions of shape (..., n_sensors, 2) and (..., n_controllers, 2) give
    distances of shape (..., n_sensors, n_controllers)."""
    return np.linalg.norm(sensors[..., :, None, :] - controllers[..., None, :, :], axis=-1)


def nearest_controllers(dist: np.ndarray) -> np.ndarray:
    """Index of each sensor's nearest controller in ``distances``' output
    (the first one on a tie)."""
    return np.argmin(dist, axis=-1)


def fade(dist: np.ndarray, shadowing_db: np.ndarray, fading: np.ndarray) -> np.ndarray:
    """Linear gains at distances ``dist``: the mean gain of
    ``path_loss_db(dist) + shadowing_db``, capped at 1, times ``fading``."""
    pl = path_loss_db(dist) + shadowing_db
    return np.minimum(1.0, 10.0 ** (-pl / 10.0)) * fading


def underflows(gains):
    """Per seed, whether some gain of ``gains`` is not > 0: over the last two
    axes, one seed's (sensor, controller) gains, so a 2-D array gives one
    answer and a block of seeds one per seed. Such a seed cannot be priced,
    and is dropped with ``NumericalError(GAINS_UNDERFLOW)``."""
    return ~np.all(gains > 0, axis=(-2, -1))


def path_loss_db(distance_m):
    """Log-distance path loss in dB (no shadowing term) at a distance in
    meters, or elementwise at an array of them.

    A distance below 1e-9 m, 0 included, takes the loss at that 1e-9 m
    floor, and an infinite one an infinite loss. Raises ValidationError for
    a negative or NaN distance.
    """
    d = np.asarray(distance_m, dtype=float)
    if not np.all(d >= 0.0):
        raise ValidationError("distances must be >= 0 m, not negative or NaN")
    return PATH_LOSS_1M_DB + 10.0 * PATH_LOSS_EXPONENT * np.log10(np.maximum(d, 1e-9))


def mean_gain(distance_m):
    """Mean linear power gain at a distance, capped at 1 (0 dB loss).

    The cap keeps very short links physical; without it the log-distance
    model would amplify below ``10**(-PATH_LOSS_1M_DB / (10 * PATH_LOSS_EXPONENT))``
    meters, 1 cm. Raises ValidationError, as ``path_loss_db`` does, for a
    negative or NaN distance.
    """
    return np.minimum(1.0, 10.0 ** (-path_loss_db(distance_m) / 10.0))


@dataclass(frozen=True)
class ChannelRealization:
    """Gains from every sensor transmitter to every controller receiver.

    ``gains[l, c]`` is a linear power gain. ``shadowing_db`` and ``fading``
    hold the drawn log-normal and exponential components for diagnostics.
    """

    gains: np.ndarray
    controller_of: tuple[int, ...]
    shadowing_db: np.ndarray
    fading: np.ndarray

    def __post_init__(self):
        for arr in (self.gains, self.shadowing_db, self.fading):
            arr.setflags(write=False)

    def link_gains(self, sensors) -> GainMatrix:
        """Gain matrix for a concurrent subset: entry (l, k) is the gain from
        transmitter ``sensors[l]`` to the controller of ``sensors[k]``.

        Raises ValidationError unless ``sensors`` are distinct integers (not
        bools) in [0, n_sensors), at least one.
        """
        ids = list(sensors)
        n = len(self.controller_of)
        in_range = all(is_number(i, (int, np.integer), -1, n - 1) for i in ids)
        if not (ids and in_range and len(set(ids)) == len(ids)):
            raise ValidationError(f"sensor ids must be distinct integers in [0, {n}), not {ids!r}")
        cols = [self.controller_of[i] for i in ids]
        return GainMatrix(self.gains[np.ix_(ids, cols)])


def realize_channel(topology: Topology, seed=None) -> ChannelRealization:
    """Draw one static channel over all sensor-to-controller pairs.

    Large-scale loss is ``path_loss_db(d) + Z`` dB with
    ``Z ~ Normal(0, SHADOWING_DB**2)``; the resulting mean gain (capped at 1)
    scales a unit-mean exponential fading factor, so the average received
    power matches the large-scale level. The same physical pair (sensor,
    controller) always gets the same gain, whichever link it interferes with.

    Raises NumericalError when a gain underflows to 0, which happens once
    distances reach about 1e90 m (densities near 1e-180 per square meter).
    """
    dist = distances(topology.sensors, topology.controllers)
    shadowing, fading = draw_losses(np.random.default_rng(seed), dist.shape)
    gains = fade(dist, shadowing, fading)
    if underflows(gains):
        raise NumericalError(GAINS_UNDERFLOW)
    return ChannelRealization(gains, topology.controller_of, shadowing, fading)


_JSON_KEYS = ("side", "density", "seed", "sensors", "controllers", "controller_of")


def topology_to_json(topology: Topology) -> str:
    doc = {
        "side": topology.side,
        "density": topology.density,
        "seed": topology.seed,
        "sensors": topology.sensors.tolist(),
        "controllers": topology.controllers.tolist(),
        "controller_of": list(topology.controller_of),
    }
    return json.dumps(doc, indent=2)


def _positions(doc: dict, key: str) -> np.ndarray:
    value = doc[key]
    if not (
        isinstance(value, list)
        and value
        and all(
            isinstance(xy, list) and len(xy) == 2 and all(is_number(x, low=-math.inf) for x in xy)
            for xy in value
        )
    ):
        raise ValidationError(f"{key} must be a nonempty list of finite [x, y] pairs")
    return np.array(value, dtype=float)


def topology_from_json(text: str) -> Topology:
    """The topology of a ``topology_to_json`` document.

    The document comes from outside, so it is validated here rather than on
    every ``Topology``: ValidationError unless it is a JSON object with every
    key of ``topology_to_json``, ``sensors`` and ``controllers`` are
    nonempty lists of finite [x, y] pairs, ``controller_of`` names one
    existing controller per sensor, ``side`` and ``density`` are finite
    numbers > 0 and ``seed`` is an integer or null.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"topology document is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("topology document must be a JSON object")
    missing = [key for key in _JSON_KEYS if key not in doc]
    if missing:
        raise ValidationError(f"topology document lacks {', '.join(missing)}")
    sensors = _positions(doc, "sensors")
    controllers = _positions(doc, "controllers")
    controller_of = doc["controller_of"]
    if not (
        isinstance(controller_of, list)
        and len(controller_of) == len(sensors)
        and all(is_number(k, int, -1, len(controllers) - 1) for k in controller_of)
    ):
        raise ValidationError("controller_of must name one existing controller per sensor")
    for key in ("side", "density"):
        if not is_number(doc[key]):
            raise ValidationError(f"{key} must be a finite number > 0, not {doc[key]!r}")
    seed = doc["seed"]
    if seed is not None and not is_number(seed, int, -math.inf, math.inf):
        raise ValidationError(f"seed must be an integer or null, not {seed!r}")
    return Topology(
        side=float(doc["side"]),
        sensors=sensors,
        controllers=controllers,
        controller_of=tuple(controller_of),
        density=float(doc["density"]),
        seed=seed,
    )
