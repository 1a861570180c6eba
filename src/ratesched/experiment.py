"""Seeded scheduling experiments over random topologies.

A run sweeps either the sensor count or the density. For every sweep point it
draws independent topologies, channels and traffic, schedules each instance
under every configured rate model and strategy, and reports the maximum total
active length normalized by a continuous-rate reference: the exhaustive
optimum when the instance is small enough, otherwise the best continuous-rate
heuristic (the reference kind used is counted per sweep point).

Seeds fan out from one master seed through counter-style spawn keys, so any
(sweep point, topology) pair can be reproduced in isolation, by
``draw_seed``, and a fixed config always produces byte-identical output
files. A sweep point's seeds are drawn together, in blocks, each from its
own three ``subseed`` streams. ``run_experiment`` splits each point's seeds
across one forked process per usable CPU and merges their records back in
seed order.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import pickle
import signal
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, fields, replace

import numpy as np

from .allocation import SOLO_VERDICTS, float_array, ladder_records, ladder_triage, solo_terms

# generate_topology and realize_channel draw one seed's topology and channel
# alone, through the channel functions that _draw_block draws each seed of a
# block through; no sweep calls them, but perfbench's tracer wraps them under
# these names.
from .channel import (
    GAINS_UNDERFLOW,
    MAX_LINKS,
    distances,
    draw_losses,
    draw_positions,
    fade,
    generate_topology,
    nearest_controllers,
    realize_channel,
    square_side,
    underflows,
)
from .feasibility import NumericalError
from .model import (
    GainMatrix,
    Instance,
    NodeSpec,
    RadioConfig,
    RateTable,
    ValidationError,
    disc4_table,
    disc8_table,
    is_nested_period,
    is_number,
    validate_instance,
)
from .scheduling import (
    ContinuousPricer,
    InfeasibleInstanceError,
    STRATEGIES,
    SubsetPricer,
    TablePricer,
    exhaustive_fits,
    exhaustive_schedule,
    schedule,
)
from .seeding import seed_states, subseed

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResults",
    "run_experiment",
    "draw_seed",
    "emit_results",
    "RESULT_COLUMNS",
    "subseed",
]

RESULT_COLUMNS = (
    "sweep_var",
    "value",
    "strategy",
    "rate_model",
    "seed_count",
    "infeasible_count",
    "mean_norm",
    "std_norm",
    "mean_max_active_s",
)

RATE_MODELS = ("cont", "disc4", "disc8")

# Rate ladder of each discrete model, built from the radio bandwidth.
_LADDERS = {"disc4": disc4_table, "disc8": disc8_table}

# Longest frame, in subframes (longest over shortest period), a config may
# ask for; the paper's period set spans 8.
MAX_FRAME_SUBFRAMES = 2**20

# Radio of every config; a config's "radio" object overrides single fields.
DEFAULT_RADIO = RadioConfig(p_max=0.25, noise_power=1e-8, bandwidth_hz=1e8)


class ConfigError(ValueError):
    """Bad experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment description; any field may come from a JSON config file.

    At most one of ``n_sensors`` and ``density`` may be a list (or tuple) of
    distinct values, which makes it the sweep variable. ``rate_models``,
    ``strategies``, ``period_set`` and ``packet_bits_set`` are lists or
    tuples, stored as tuples; rate models and strategies must be distinct.
    ``delay_rule`` is either the string "subframe" (delay bound equals the
    effective subframe duration) or a fixed number of seconds.
    ``energy_scale`` scales the default per-packet energy budget
    p_max * delay_bound. Each benchmark workload's rows at its default seed
    are identical at 1.0 and 1e-3
    (``test_experiment.py::TestDropReasons::test_energy_scale_1e_3_moves_no_row``).
    At 1e-4, paper-sweep at its default seed drops 17, 28 and 27 seeds for
    INFEASIBLE_ENERGY at 4, 6 and 8 sensors
    (``test_experiment.py::TestDropReasons::test_drops_per_size_and_reason``).
    """

    n_sensors: object = 8
    n_controllers: int = 3
    density: object = 5.0
    seeds: int = 100
    master_seed: int = 1
    rate_models: tuple[str, ...] = RATE_MODELS
    strategies: tuple[str, ...] = STRATEGIES
    radio: RadioConfig = DEFAULT_RADIO
    period_set: tuple[int, ...] = (1, 2, 4, 8)
    packet_bits_set: tuple[float, ...] = (50.0, 100.0)
    delay_rule: object = "subframe"
    energy_scale: float = 1.0
    base_period_s: float = 1e-3

    def __post_init__(self):
        for name in ("rate_models", "strategies", "period_set", "packet_bits_set"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name} must be a list")
            object.__setattr__(self, name, tuple(value))
        if not (self.rate_models and self.strategies):
            raise ConfigError("rate_models and strategies must be nonempty")
        for model in self.rate_models:
            if model not in RATE_MODELS:
                raise ConfigError(f"unknown rate model {model!r}")
        for strategy in self.strategies:
            if strategy not in STRATEGIES:
                raise ConfigError(f"unknown strategy {strategy!r}")
        if isinstance(self.n_sensors, (list, tuple)) and isinstance(self.density, (list, tuple)):
            raise ConfigError("only one of n_sensors and density may sweep")
        if not (self.density and _positive_numbers(self.density)):
            raise ConfigError("density must be a finite number > 0 or a nonempty list")
        if not (self.n_sensors and _positive_numbers(self.n_sensors, int, math.inf)):
            raise ConfigError("n_sensors must be an integer >= 1 or a list")
        for name in ("n_sensors", "density", "rate_models", "strategies"):
            # compared as numbers: 5 and 5.0 are one sweep point
            values = getattr(self, name)
            if isinstance(values, (list, tuple)) and len(set(values)) < len(values):
                raise ConfigError(f"{name} values must be distinct")
        if not is_number(self.n_controllers, int, top=math.inf):
            raise ConfigError("n_controllers must be an integer >= 1")
        # MAX_LINKS keeps the bytes of _draw_block's float64 (block, n, C, 2)
        # sensor-controller offsets within what numpy can size for a block of
        # one seed, the block size where n * C is large; checked here so that
        # no draw fails on it
        if not _positive_numbers(self.n_sensors, int, MAX_LINKS // self.n_controllers):
            raise ConfigError(f"n_sensors * n_controllers must be at most {MAX_LINKS}")
        if not (self.packet_bits_set and _positive_numbers(self.packet_bits_set)):
            raise ConfigError("packet_bits_set must be positive numbers")
        if not is_number(self.energy_scale):
            raise ConfigError("energy_scale must be a finite number > 0")
        if not is_number(self.seeds, int, top=sys.maxsize):
            raise ConfigError("seeds must be an integer in [1, sys.maxsize]")
        if not is_number(self.master_seed, int, -1, math.inf):
            raise ConfigError("master_seed must be an integer >= 0")
        if not (self.period_set and _positive_numbers(self.period_set, int)):
            raise ConfigError("period_set must be positive integers")
        if not all(is_nested_period(p, min(self.period_set)) for p in self.period_set):
            raise ConfigError("period_set ratios must be powers of two")
        if max(self.period_set) // min(self.period_set) > MAX_FRAME_SUBFRAMES:
            raise ConfigError(
                f"period_set spans more than {MAX_FRAME_SUBFRAMES} subframes per frame"
            )
        if not is_number(self.base_period_s):
            raise ConfigError("base_period_s must be a finite number > 0")
        if self.delay_rule != "subframe" and not is_number(self.delay_rule):
            raise ConfigError("delay_rule must be 'subframe' or a finite number > 0")
        if not isinstance(self.radio, RadioConfig):
            raise ConfigError("radio must be a RadioConfig")
        for model in (m for m in self.rate_models if m in _LADDERS):
            try:
                _ladder(model, self.radio.bandwidth_hz)
            except ValidationError as exc:
                raise ConfigError(f"radio bandwidth_hz gives no {model} ladder: {exc}") from exc
        delay, _ = self._budget(max(self.period_set))  # the longest of any draw
        _, energy = self._budget(min(self.period_set))  # the least of any draw
        if not is_number(delay):
            raise ConfigError("base_period_s times the longest period must be finite")
        if not energy > 0:
            raise ConfigError("energy_scale * p_max * delay bound underflows to 0")

    def _budget(self, min_period: int) -> tuple[float, float]:
        """Each node's delay bound and energy budget in a draw whose shortest
        period is ``min_period``: the delay is the subframe,
        ``base_period_s * min_period``, or the fixed ``delay_rule``, and the
        energy is ``energy_scale * p_max * delay``."""
        if self.delay_rule == "subframe":
            delay = self.base_period_s * min_period
        else:
            delay = float(self.delay_rule)
        return delay, self.energy_scale * self.radio.p_max * delay

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "radio" in doc:
            try:
                doc["radio"] = replace(DEFAULT_RADIO, **doc["radio"])
            except (TypeError, ValidationError) as exc:
                raise ConfigError(f"bad radio overrides: {exc}") from exc
        try:
            return cls(**doc)
        except (TypeError, ValidationError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        # a JSON document nested too deeply for the parser raises RecursionError
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(doc)

    def sweep(self) -> tuple[str, list]:
        if isinstance(self.n_sensors, (list, tuple)):
            return "n_sensors", list(self.n_sensors)
        if isinstance(self.density, (list, tuple)):
            return "density", list(self.density)
        return "n_sensors", [self.n_sensors]


@dataclass
class ExperimentResults:
    rows: list[dict]
    reference_counts: dict
    per_seed: list[dict]

    @property
    def all_infeasible(self) -> bool:
        return all(row["seed_count"] == 0 for row in self.rows)


def _positive_numbers(value, kind=(int, float), top=sys.float_info.max) -> bool:
    """``is_number`` of ``value``, or of each item of a list or tuple."""
    items = value if isinstance(value, (list, tuple)) else [value]
    return all(is_number(x, kind, 0, top) for x in items)


@functools.cache
def _ladder(model: str, bandwidth_hz: float) -> RateTable:
    """The rate ladder of a discrete model, built once per bandwidth; a
    RateTable is immutable, so every seed shares it."""
    return _LADDERS[model](bandwidth_hz)


def _pricer(
    model: str, inst: Instance, gains: GainMatrix, radio: RadioConfig, solos=None
) -> SubsetPricer:
    """The subset pricer of one rate model, ``cont`` or a discrete ladder,
    given its nodes' solo records ``solos`` or deriving them."""
    if model == "cont":
        return ContinuousPricer(inst, gains, radio, solos)
    return TablePricer(inst, gains, _ladder(model, radio.bandwidth_hz), radio, solos)


# Most float64 elements a block of seeds drawn together puts in one array, as
# counted by 2 * (n*C + n + C) per seed (the sensor-controller offsets and the
# positions): a sweep point's seeds are drawn in blocks, so that memory does
# not grow with ``seeds``, n or C. Larger blocks save little seeding time but
# hold more memory while their seeds are scheduled.
_BLOCK_ELEMENTS = 2**12


def _blocks(ks: range, size: int):
    """``ks`` in ranges of at most ``size`` seeds, split at 2**32, where a
    seed index starts to take two words of ``seed_states``' entropy."""
    start = ks.start
    while start < ks.stop:
        stop = min(ks.stop, start + size)
        if start < 2**32 < stop:
            stop = 2**32
        yield range(start, stop)
        start = stop


def _reseed(rng: np.random.Generator, state: int, inc: int) -> None:
    """Put ``rng`` in the state of a fresh PCG64 generator ``(state, inc)``."""
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _draw_block(cfg: ExperimentConfig, n: int, side: float, point: int, block: range):
    """The link gains (seed, sensor, controller), nearest controllers (seed,
    sensor) and traffic indices (seed, period or packet, sensor) of a block of
    seeds of ``_draw_seeds``, each seed drawn from its own streams by one
    reseeded generator. Only these arrays outlive the call while the block's
    seeds are scheduled."""
    c = cfg.n_controllers
    rng = np.random.Generator(np.random.PCG64(0))
    states = iter(seed_states(cfg.master_seed, point, block))
    xy = np.empty((len(block), n + c, 2))
    shadowing = np.empty((len(block), n, c))
    fading = np.empty((len(block), n, c))
    traffic = np.empty((len(block), 2, n), dtype=np.int64)
    # one draw per seed gives the values and generator state of one draw of
    # n periods and then one of n packet sizes
    highs = np.repeat([len(cfg.period_set), len(cfg.packet_bits_set)], n).reshape(2, n)
    for b in range(len(block)):
        _reseed(rng, *next(states))
        xy[b] = draw_positions(rng, side, n + c)
        _reseed(rng, *next(states))
        shadowing[b], fading[b] = draw_losses(rng, (n, c))
        _reseed(rng, *next(states))
        traffic[b] = rng.integers(0, highs)
    dist = distances(xy[:, :n], xy[:, n:])
    return fade(dist, shadowing, fading), nearest_controllers(dist), traffic


def _draw_seeds(cfg: ExperimentConfig, n: int, density: float, point: int, ks: range):
    """Topology, channel and traffic of the seeds ``ks`` of one sweep point:
    in seed order, each seed's ``(nodes, gains, solos)``, or the
    NumericalError or InfeasibleInstanceError that drops it.

    Seed k draws from ``default_rng(subseed(cfg.master_seed, point, k,
    role))``: role 0 places the sensors, then the controllers, and role 1
    draws the shadowing, then the fading, through the ``channel`` functions
    that ``generate_topology`` and ``realize_channel`` draw through; role 2
    draws each node's period, then its packet size, by index into the
    config's sets. ``_seed_instance`` builds a seed's nodes and gains. A
    seed raises NumericalError when one of its gains underflows to 0, and
    every seed does when the square's side overflows.

    The seeds are seeded, and their channel arithmetic and links' solo terms
    (``solo_terms``) are computed, a block at a time (``_BLOCK_ELEMENTS``).
    A seed is dropped there, as ``InfeasibleInstanceError(node_id, model,
    reason)``, when under some table model of the config, the first of them
    in config order where some link fails its ladder solo test, the first
    such link has no ladder record: ``_run_seed`` would build that model's
    pricer and its ``sna_assign`` would raise just that, with that link's
    solo test verdict as the reason. Any other seed's
    nodes, gain matrix and ``solos``, each needed model's solo records for
    its pricer, are built, and validated, only when it is reached.
    """
    try:
        side = square_side(n, density)
    except NumericalError as exc:
        for _ in ks:
            yield NumericalError(*exc.args)
        return
    c = cfg.n_controllers
    tables = [m for m in cfg.rate_models if m != "cont"]
    ladders = [_ladder(m, cfg.radio.bandwidth_hz) for m in tables]
    packet_bits = float_array(cfg.packet_bits_set)
    # Both budgets rise with the shortest period, so a seed's are the
    # smallest of its nodes' periods' budgets.
    delays, energies = (float_array(x) for x in zip(*map(cfg._budget, cfg.period_set)))
    for block in _blocks(ks, max(1, _BLOCK_ELEMENTS // (2 * (n * c + n + c)))):
        gains, controller_of, traffic = _draw_block(cfg, n, side, point, block)
        underflowing = underflows(gains).tolist()
        own = np.take_along_axis(gains, controller_of[..., None], -1)[..., 0]
        budgets = (x[traffic[:, 0]].min(axis=1, keepdims=True) for x in (delays, energies))
        bits = packet_bits[traffic[:, 1]]
        terms, floors, tops = solo_terms(own, bits, *budgets, cfg.radio, ladders)
        drop_model, drop_node, drop_reason = (x.tolist() for x in ladder_triage(terms, len(block)))
        for b in range(len(block)):
            if underflowing[b]:
                yield NumericalError(GAINS_UNDERFLOW)
                continue
            if drop_model[b] >= 0:
                reason = SOLO_VERDICTS[drop_reason[b]]
                yield InfeasibleInstanceError(drop_node[b], tables[drop_model[b]], reason)
                continue
            nodes, matrix = _seed_instance(cfg, gains[b], controller_of[b], traffic[b])
            solos = {m: ladder_records(t, x, b) for m, t, x in zip(tables, ladders, terms)}
            solos["cont"] = list(zip(floors[b].tolist(), tops[b].tolist()))
            yield nodes, matrix, solos


def _seed_instance(cfg: ExperimentConfig, gains, controller_of, traffic):
    """One seed's nodes and gain matrix, from its rows of ``_draw_block``'s
    arrays. Each node is attached to its nearest controller, its period is
    divided by the shortest drawn period, the subframe, and its delay bound
    and energy budget are ``cfg._budget`` of that period."""
    ctrl = controller_of.tolist()
    drawn = [cfg.period_set[i] for i in traffic[0].tolist()]
    packets = [float(cfg.packet_bits_set[i]) for i in traffic[1].tolist()]
    min_p = min(drawn)
    delay, energy = cfg._budget(min_p)
    nodes = [
        NodeSpec(
            id=i,
            controller_id=ctrl[i],
            packet_bits=packets[i],
            period=drawn[i] // min_p,
            delay_bound=delay,
            energy_budget=energy,
        )
        for i in range(len(ctrl))
    ]
    # entry (l, k): from sensor l to the controller of sensor k
    return nodes, GainMatrix(gains[:, ctrl])


def _point_size(cfg: ExperimentConfig, sweep_var: str, value) -> tuple[int, float]:
    """The sensor count and density of the sweep point ``value`` of
    ``sweep_var``, as ``cfg.sweep()`` gives them."""
    if sweep_var == "n_sensors":
        return int(value), float(cfg.density)
    return int(cfg.n_sensors), float(value)


def draw_seed(cfg: ExperimentConfig, point: int, k: int) -> tuple[list[NodeSpec], GainMatrix]:
    """The nodes and gain matrix of seed ``k`` of sweep point ``point``, the
    index of its value in ``cfg.sweep()``, as ``run_experiment`` draws them:
    the seed replayed alone, whatever its fate in the sweep, a seed that its
    block's triage drops included.

    Raises ValidationError unless ``point`` and ``k`` are integers (not
    bools) in ``[0, len(cfg.sweep()[1]))`` and ``[0, cfg.seeds)``, and the
    NumericalError that the sweep drops the seed for: the square's side
    overflows, or one of its gains underflows to 0.
    """
    sweep_var, values = cfg.sweep()
    for name, index, count in (("point", point, len(values)), ("k", k, cfg.seeds)):
        if not is_number(index, int, -1, count - 1):
            raise ValidationError(f"{name} must be an integer in [0, {count}), not {index!r}")
    n, density = _point_size(cfg, sweep_var, values[point])
    gains, controller_of, traffic = _draw_block(
        cfg, n, square_side(n, density), point, range(k, k + 1)
    )
    if underflows(gains):
        raise NumericalError(GAINS_UNDERFLOW)
    return _seed_instance(cfg, gains[0], controller_of[0], traffic[0])


def _run_seed(cfg: ExperimentConfig, drawn, pricers: dict):
    """All (strategy, model) max-actives plus the reference for one seed,
    given as ``_draw_seeds`` yields it: ``(nodes, gains, solos)``, or the
    error that drops the seed, which is raised here afresh, so that no
    reference cycle through this frame keeps it alive. ``pricers`` gets
    each needed model's pricer as it is built, so that the caller reads
    their counts whether the seed is kept or dropped.

    The reference is the ``cont`` optimum of ``exhaustive_schedule`` when the
    instance fits it (``exhaustive_fits``), otherwise the smallest ``cont``
    max-active over the configured strategies; ``cont`` is scheduled for the
    reference only when it is not a configured model.

    Raises InfeasibleInstanceError, with ``node_id``, ``model`` and
    ``reason`` set, when some node cannot transmit alone under some needed
    model, so that averages
    always compare the same seeds. Before any scheduling, each needed model's
    pricer is built in turn, from the seed's solo records, and its
    ``offsets()`` runs ``sna_assign``, which prices every solo and raises on
    the first infeasible one; once every solo is feasible each node is a
    feasible group by itself, so MLA, MUA and the exhaustive search always
    find a frame. Kept seeds reuse those offsets.
    """
    if isinstance(drawn, NumericalError):
        raise NumericalError(*drawn.args)
    if isinstance(drawn, InfeasibleInstanceError):
        raise InfeasibleInstanceError(drawn.node_id, drawn.model, drawn.reason)
    nodes, gains, solos = drawn
    inst = validate_instance(nodes)
    needed = cfg.rate_models if "cont" in cfg.rate_models else ("cont",) + cfg.rate_models

    # Table models first (this order also picks the model a drop is charged
    # to): a ladder solo takes no check, a continuous solo about 1.
    for model in sorted(needed, key=lambda m: m == "cont"):
        pricers[model] = _pricer(model, inst, gains, cfg.radio, solos[model])
        try:
            pricers[model].offsets()
        except InfeasibleInstanceError as exc:
            raise InfeasibleInstanceError(exc.node_id, model, exc.reason) from None

    max_active: dict[tuple[str, str], float] = {}
    for strategy in cfg.strategies:
        for model in cfg.rate_models:
            _, metrics = schedule(pricers[model], strategy)
            max_active[(strategy, model)] = metrics.max_active

    if exhaustive_fits(inst):
        _, opt = exhaustive_schedule(pricers["cont"])
        return max_active, opt.max_active, "exhaustive"
    reference = min(
        max_active[(strategy, "cont")]
        if "cont" in cfg.rate_models
        else schedule(pricers["cont"], strategy)[1].max_active
        for strategy in cfg.strategies
    )
    return max_active, reference, "heuristic"


def _usable_cpus() -> int:
    """The CPUs this process may run on, ``os.sched_getaffinity``'s count or
    ``os.cpu_count()`` where that call is missing; 1 where ``os.fork`` is."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _seed_records(cfg: ExperimentConfig, sweep_var: str, point: int, value, ks: range):
    """The ``per_seed`` records of the seeds ``ks`` of sweep point ``point``,
    whose value is ``value``, in seed order."""
    n, density = _point_size(cfg, sweep_var, value)
    records = []
    for k, drawn in zip(ks, _draw_seeds(cfg, n, density, point, ks)):
        record = {"sweep_var": sweep_var, "value": value, "seed_index": k, "dropped": None}
        pricers: dict[str, SubsetPricer] = {}
        try:
            max_active, reference, ref_kind = _run_seed(cfg, drawn, pricers)
        except InfeasibleInstanceError as exc:
            record["dropped"] = exc.model
            record["node"] = exc.node_id
            record["reason"] = exc.reason.name
        except NumericalError:
            record["dropped"] = "numerical"
        else:
            record["reference"] = reference
            record["reference_kind"] = ref_kind
            record["max_active"] = {f"{s}/{m}": t for (s, m), t in max_active.items()}
        record["counts"] = {model: pricer.counts() for model, pricer in pricers.items()}
        records.append(record)
    return records


def _part_outcome(cfg: ExperimentConfig, ks: range):
    """``(records, error)``: the records of the seeds ``ks`` of each sweep
    point in turn, and the exception that ended the part early, or None. The
    point that raised has no records, so ``len(records)`` is its index. The
    exception is kept, not raised, so that the caller can raise the one of
    the earliest seed over every part."""
    sweep_var, values = cfg.sweep()
    records = []
    try:
        for point, value in enumerate(values):
            records.append(_seed_records(cfg, sweep_var, point, value, ks))
    except Exception as exc:
        return records, exc
    return records, None


def _child(cfg: ExperimentConfig, ks: range, fd: int):
    """The body of a forked sweep process: ``_part_outcome`` of ``ks``,
    pickled to the pipe's write end ``fd``, as ``(records, error, text)``
    where ``text`` is the traceback of a raised ``error``. An error that does
    not pickle is sent as a RuntimeError holding that text. The process then
    ends in ``os._exit``, so that it never returns into the caller's stack,
    runs no exit handler and flushes no buffer it copied from its parent; it
    exits 1 without a payload when the pickling fails."""
    code = 1
    try:
        records, error = _part_outcome(cfg, ks)
        text = None
        if error is not None:
            text = "".join(traceback.format_exception(error))
            try:
                pickle.loads(pickle.dumps(error))
            except Exception:
                error = RuntimeError(
                    f"a forked sweep process raised an exception that does not pickle:\n{text}"
                )
                text = None
        with os.fdopen(fd, "wb") as pipe:
            pickle.dump((records, error, text), pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)


def _outcomes(cfg: ExperimentConfig, parts: list[range]) -> list[tuple]:
    """``(records, error, text)`` of each of ``parts``: the first run in this
    process, with ``text`` None, and each other in a child forked for it,
    read back from a pipe (``_child``). Every child is reaped; when this
    process raises meanwhile, the children still running are killed first.
    Raises RuntimeError, naming the exit status, for a child that ends
    without a payload."""
    pipes = {}  # pid: read end of its pipe, until the child is reaped
    try:
        for ks in parts[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(cfg, ks, write)
            os.close(write)
            pipes[pid] = os.fdopen(read, "rb")
        outcomes = [(*_part_outcome(cfg, parts[0]), None)]
        for pid in list(pipes):
            with pipes[pid] as pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pipes[pid]
            # a child exits 0 only once its whole payload is written
            if status != 0:
                raise RuntimeError(f"a forked sweep process exited {status} without its records")
            outcomes.append(pickle.loads(data))
        return outcomes
    finally:
        for pid, pipe in pipes.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResults:
    """Execute the configured sweep; unusable seeds are recorded and skipped.

    A seed is unusable when some node cannot transmit alone under some needed
    rate model or when its draw or pricing raises NumericalError. ``per_seed``
    holds one record per seed, in sweep-point then seed order, with keys
    ``sweep_var``, ``value``, ``seed_index`` and ``dropped``: ``None`` for a
    kept seed, otherwise the rate model that dropped it or ``"numerical"``.
    A kept record also has ``reference``, ``reference_kind`` ("exhaustive" or
    "heuristic") and ``max_active``, keyed "strategy/model". A record
    dropped under a rate model also has ``node``, the id of the node that
    cannot transmit alone, and ``reason``, the name of its solo price's
    reason (a ``Verdict`` name). Every record has ``counts``: each pricer's
    ``SubsetPricer.counts()`` keyed by its model, in the order the pricers
    were built, empty for a seed dropped before any was.

    The rows and ``reference_counts`` are counted from these records. A
    point's counts hold its reference kinds, ``infeasible`` (every dropped
    seed, the CSV's ``infeasible_count``), ``infeasible_by_model`` (in the
    order the models first dropped a seed) and ``numerical``.

    The seeds are split into P contiguous, near-equal parts, P the smaller
    of ``cfg.seeds`` and the usable CPUs (``_usable_cpus``). This process
    runs the first part of every sweep point and a forked child runs each
    other part; the records come back in seed order, so the results do not
    depend on P. Any exception other than a seed's InfeasibleInstanceError
    or NumericalError reaches the caller with its type: that of the earliest
    seed in sweep order to raise one, with a child's traceback as its cause.
    Each call with P > 1 pays a fixed cost of a few milliseconds for its
    forks (on a 2-vCPU VM, ``ExperimentConfig(n_sensors=[2, 3], seeds=3)``
    took a median of 3.4-5.8 ms in one process and 9.2-16 ms forked), so a
    process pinned to one CPU, which forks nothing, suits many tiny sweeps.
    """
    sweep_var, values = cfg.sweep()
    processes = min(_usable_cpus(), cfg.seeds)
    parts = [
        range(cfg.seeds * i // processes, cfg.seeds * (i + 1) // processes)
        for i in range(processes)
    ]
    outcomes = _outcomes(cfg, parts)
    # a part ends at its first error, and at a sweep point the parts run in
    # seed order: the earliest error has the least (point, part)
    failed = [
        (len(records), i) for i, (records, error, _) in enumerate(outcomes) if error is not None
    ]
    if failed:
        _, error, text = outcomes[min(failed)[1]]
        try:
            if text is None:
                raise error
            raise error from RuntimeError(f"in a forked sweep process:\n{text}")
        finally:
            # no cycle through this frame keeps the error alive
            del error, outcomes

    rows = []
    reference_counts = {}
    per_seed = []
    for point, value in enumerate(values):
        records = [record for part, _, _ in outcomes for record in part[point]]
        per_seed += records

        kept = [r for r in records if r["dropped"] is None]
        dropped = [r["dropped"] for r in records if r["dropped"] is not None]
        kinds = [r["reference_kind"] for r in kept]
        reference_counts[(sweep_var, value)] = {
            "exhaustive": kinds.count("exhaustive"),
            "heuristic": kinds.count("heuristic"),
            "infeasible": len(dropped),
            "infeasible_by_model": dict(Counter(d for d in dropped if d != "numerical")),
            "numerical": dropped.count("numerical"),
        }
        for strategy in cfg.strategies:
            for model in cfg.rate_models:
                raws = [r["max_active"][f"{strategy}/{model}"] for r in kept]
                norms = [t / r["reference"] for t, r in zip(raws, kept)]
                rows.append(
                    {
                        "sweep_var": sweep_var,
                        "value": value,
                        "strategy": strategy,
                        "rate_model": model,
                        "seed_count": len(kept),
                        "infeasible_count": len(dropped),
                        "mean_norm": float(np.mean(norms)) if norms else math.nan,
                        "std_norm": float(np.std(norms)) if norms else math.nan,
                        "mean_max_active_s": _mean(raws),
                    }
                )
    return ExperimentResults(rows, reference_counts, per_seed)


def _mean(values) -> float:
    """``np.mean(values)``, NaN for no values. Where the sum of finite values
    overflows, the mean of the values scaled down by 2**k, with 2**k above
    their count, is scaled back up, so the mean stays finite."""
    if not values:
        return math.nan
    with np.errstate(over="ignore"):
        mean = float(np.mean(values))
    if mean == math.inf:
        k = len(values).bit_length()
        mean = math.ldexp(float(np.mean(np.ldexp(values, -k))), k)
    return mean


def emit_results(results: ExperimentResults, path, fmt: str = "csv") -> None:
    """Write result rows with a fixed column order to a CSV or JSON file."""
    rows = results.rows
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    elif fmt == "json":
        with open(path, "w") as fh:
            # the means of a sweep point without kept seeds are NaN: null in JSON
            doc = [{c: None if row[c] != row[c] else row[c] for c in RESULT_COLUMNS} for row in rows]
            json.dump(doc, fh, indent=2, allow_nan=False)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
