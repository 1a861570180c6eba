"""Seeded scheduling experiments over random topologies.

A run sweeps either the sensor count or the density. For every sweep point it
draws independent topologies, channels and traffic, schedules each instance
under every configured rate model and strategy, and reports the maximum total
active length normalized by a continuous-rate reference: the exhaustive
optimum when the instance is small enough, otherwise the best continuous-rate
heuristic (the reference kind used is counted per sweep point).

Seeds fan out from one master seed through counter-style spawn keys, so any
(sweep point, topology) pair can be reproduced in isolation and a fixed
config always produces byte-identical output files.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import MAX_LINKS, generate_topology, realize_channel
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

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResults",
    "run_experiment",
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
    p_max * delay_bound. For the default radio and periods the results are
    identical from 1.0 down to 1e-3; checks first end in INFEASIBLE_ENERGY
    at 3e-4, and at 1e-4 perfbench's paper-sweep keeps 69 of 300 seeds.
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
        # generate_topology's bound, checked here so that no draw fails on it
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


def subseed(master_seed: int, *key: int) -> int:
    """Deterministic child seed for a (sweep point, topology, role) counter."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


@functools.cache
def _ladder(model: str, bandwidth_hz: float) -> RateTable:
    """The rate ladder of a discrete model, built once per bandwidth; a
    RateTable is immutable, so every seed shares it."""
    return _LADDERS[model](bandwidth_hz)


def _pricer(model: str, inst: Instance, gains: GainMatrix, radio: RadioConfig) -> SubsetPricer:
    """The subset pricer of one rate model: ``cont`` or a discrete ladder."""
    if model == "cont":
        return ContinuousPricer(inst, gains, radio)
    return TablePricer(inst, gains, _ladder(model, radio.bandwidth_hz), radio)


def _draw_instance(cfg: ExperimentConfig, n: int, density: float, point: int, k: int):
    """Topology, channel and traffic for one seeded instance."""
    topo = generate_topology(
        n, cfg.n_controllers, density, subseed(cfg.master_seed, point, k, 0)
    )
    chan = realize_channel(topo, seed=subseed(cfg.master_seed, point, k, 1))
    rng = np.random.default_rng(subseed(cfg.master_seed, point, k, 2))
    drawn = [int(p) for p in rng.choice(cfg.period_set, size=n)]
    packets = [float(b) for b in rng.choice(cfg.packet_bits_set, size=n)]
    # canonical form: the subframe is the shortest drawn period
    min_p = min(drawn)
    periods = [p // min_p for p in drawn]
    delay, energy = cfg._budget(min_p)
    nodes = [
        NodeSpec(
            id=i,
            controller_id=topo.controller_of[i],
            packet_bits=packets[i],
            period=periods[i],
            delay_bound=delay,
            energy_budget=energy,
        )
        for i in range(n)
    ]
    gains = chan.link_gains(range(n))
    return nodes, gains


def _run_seed(cfg: ExperimentConfig, n: int, density: float, point: int, k: int):
    """All (strategy, model) max-actives plus the reference for one seed.

    The reference is the ``cont`` optimum of ``exhaustive_schedule`` when the
    instance fits it (``exhaustive_fits``), otherwise the smallest ``cont``
    max-active over the configured strategies; ``cont`` is scheduled for the
    reference only when it is not a configured model.

    Raises InfeasibleInstanceError, with ``node_id`` and ``model`` set, when
    some node cannot transmit alone under some needed model, so that averages
    always compare the same seeds. Before any scheduling, each needed model's
    pricer is built in turn and its ``offsets()`` runs ``sna_assign``, which
    prices every solo and raises on the first infeasible one; once every solo
    is feasible each node is a feasible group by itself, so MLA, MUA and the
    exhaustive search always find a frame. Kept seeds reuse those offsets.
    """
    nodes, gains = _draw_instance(cfg, n, density, point, k)
    inst = validate_instance(nodes)
    needed = cfg.rate_models if "cont" in cfg.rate_models else ("cont",) + cfg.rate_models
    pricers = {}

    # Table models first (this order also picks the model a drop is charged
    # to): a ladder solo takes no check, a continuous solo about 2.
    for model in sorted(needed, key=lambda m: m == "cont"):
        pricers[model] = _pricer(model, inst, gains, cfg.radio)
        try:
            pricers[model].offsets()
        except InfeasibleInstanceError as exc:
            raise InfeasibleInstanceError(exc.node_id, model) from None

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


def run_experiment(cfg: ExperimentConfig) -> ExperimentResults:
    """Execute the configured sweep; unusable seeds are recorded and skipped.

    A seed is unusable when some node cannot transmit alone under some needed
    rate model or when its draw or pricing raises NumericalError. ``per_seed``
    holds one record per seed, in sweep-point then seed order, with keys
    ``sweep_var``, ``value``, ``seed_index`` and ``dropped``: ``None`` for a
    kept seed, otherwise the rate model that dropped it or ``"numerical"``.
    A kept record also has ``reference``, ``reference_kind`` ("exhaustive" or
    "heuristic") and ``max_active``, keyed "strategy/model".

    The rows and ``reference_counts`` are counted from these records. A
    point's counts hold its reference kinds, ``infeasible`` (every dropped
    seed, the CSV's ``infeasible_count``), ``infeasible_by_model`` (in the
    order the models first dropped a seed) and ``numerical``.
    """
    sweep_var, values = cfg.sweep()
    rows = []
    reference_counts = {}
    per_seed = []
    for point, value in enumerate(values):
        n = int(value) if sweep_var == "n_sensors" else int(cfg.n_sensors)
        density = float(cfg.density) if sweep_var == "n_sensors" else float(value)
        records = []
        for k in range(cfg.seeds):
            record = {"sweep_var": sweep_var, "value": value, "seed_index": k, "dropped": None}
            try:
                max_active, reference, ref_kind = _run_seed(cfg, n, density, point, k)
            except InfeasibleInstanceError as exc:
                record["dropped"] = exc.model
            except NumericalError:
                record["dropped"] = "numerical"
            else:
                record["reference"] = reference
                record["reference_kind"] = ref_kind
                record["max_active"] = {f"{s}/{m}": t for (s, m), t in max_active.items()}
            records.append(record)
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
