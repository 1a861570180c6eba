import csv
import dataclasses
import functools
import gc
import itertools
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
import weakref
from collections import Counter, defaultdict
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratesched import (
    ConfigError,
    ExperimentConfig,
    ExperimentResults,
    InfeasibleInstanceError,
    NumericalError,
    RadioConfig,
    ValidationError,
    Verdict,
    emit_results,
    run_experiment,
    validate_instance,
)
from ratesched import allocation, cli, experiment, feasibility, scheduling, seeding
from ratesched.cli import main
from ratesched.experiment import RATE_MODELS, RESULT_COLUMNS, subseed
from ratesched.scheduling import STRATEGIES, exhaustive_fits

from helpers import WORKLOADS, draw_instance, oracle_sweep

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import same_results  # noqa: E402

HEADER = ",".join(RESULT_COLUMNS)

PERFBENCH = ROOT / "perfbench"


@functools.cache
def perfbench_layers():
    """``perfbench/layers.py`` as it stands, loaded once; the tests only
    read it and run its tracer."""
    spec = importlib.util.spec_from_file_location("layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


@pytest.fixture
def one_process(monkeypatch):
    """Sweeps run in the test's process alone: the test records calls in its
    own memory, where a forked sweep process's calls never arrive."""
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)


# A fixed delay bound below the time of every level of both ladders, whose
# top rate carries 50 bits in about 5e-8 s; an override of paper-sweep.
BELOW_EVERY_LEVEL = {"n_sensors": [3, 5], "seeds": 10, "delay_rule": 1e-8}

PAPER_SWEEP = dict(
    WORKLOADS["paper-sweep"]["config"], master_seed=WORKLOADS["paper-sweep"]["default_seed"]
)

# Every seed of these sweeps is replayed alone by draw_seed, and every seed
# the block triage drops is dropped alike by its pricers: the perfbench
# workloads at their default seeds, paper-sweep with binding energy budgets
# and below every level's time, and same_results.py's edge configs.
REPLAYED = {
    name: dict(spec["config"], master_seed=spec["default_seed"])
    for name, spec in WORKLOADS.items()
} | {
    "paper-sweep-energy": dict(PAPER_SWEEP, energy_scale=same_results.BINDING_ENERGY_SCALE),
    "below-every-level": dict(PAPER_SWEEP, **BELOW_EVERY_LEVEL),
} | {
    name: dict(doc, master_seed=same_results.EDGE_SEED)
    for name, doc in same_results.EDGE_CONFIGS.items()
}

# The sweeps checked against the whole-sweep oracle: paper-sweep at both
# energy scales of same_results.py and below every level's time, the first 6
# of dense-exhaustive's 60 seeds at both scales, and the edge configs. Each
# holds groups of at most 4 links (one per controller) on ladders of at most
# 8 levels, which brute_force_optimal's guard admits; dense-large's 6
# controllers do not.
ORACLE_SWEEPS = {
    f"{name}-energy{scale:g}": dict(
        WORKLOADS[name]["config"], master_seed=WORKLOADS[name]["default_seed"],
        energy_scale=scale, **extra,
    )
    for name, extra in (("paper-sweep", {}), ("dense-exhaustive", {"seeds": 6}))
    for scale in (1.0, same_results.BINDING_ENERGY_SCALE)
} | {
    "below-every-level": dict(PAPER_SWEEP, **BELOW_EVERY_LEVEL),
} | {
    name: dict(doc, master_seed=same_results.EDGE_SEED)
    for name, doc in same_results.EDGE_CONFIGS.items()
}

# Field values that parse as JSON but describe no experiment.
INVALID_FIELDS = (
    {"n_controllers": 0},
    {"packet_bits_set": []},
    {"energy_scale": -1},
    {"density": -5},
    {"period_set": [1, 3]},
    {"n_sensors": 0},
    {"n_sensors": [4, 0]},
    {"master_seed": -1},
    {"base_period_s": -1},
    {"seeds": 1.5},
    {"rate_models": []},
    {"strategies": []},
    # a bool is an int to isinstance, but never a count or a quantity here
    {"delay_rule": True},
    {"n_sensors": True},
    {"seeds": True},
    {"master_seed": False},
    {"n_controllers": True},
    {"energy_scale": True},
    {"base_period_s": True},
    {"density": True},
    {"packet_bits_set": [True]},
    {"period_set": [True, 2]},
    {"radio": {"p_max": True}},
    # JSON's 1e400 parses to inf
    {"delay_rule": math.inf},
    {"base_period_s": math.inf},
    {"density": math.inf},
    {"energy_scale": math.nan},
    {"packet_bits_set": [50.0, math.inf]},
    {"radio": {"p_max": math.inf}},
    # an integer literal too large for a float
    {"energy_scale": 10**400},
    {"period_set": [1, 2**1100]},
    # a frame of 2**60 subframes: sna_assign could not allocate its loads
    {"period_set": [1, 2**60], "n_sensors": 4, "seeds": 2},
    # counts beyond numpy's largest array dimension, sys.maxsize
    {"n_controllers": 10**400},
    {"n_sensors": 10**300},
    # an (n_sensors, n_controllers, 2) float64 array numpy cannot size
    {"n_sensors": 4611686018427387904, "seeds": 1},
    {"n_sensors": [4, 8], "n_controllers": 2**58},
    # run_experiment would loop over range(seeds) for ever
    {"seeds": 10**400},
    # disc ladder rates overflow to inf at this bandwidth
    {"radio": {"bandwidth_hz": 1e308}, "n_sensors": 2, "seeds": 1},
    # an empty sweep list would run no seed
    {"density": []},
    # radio overrides are JSON numbers, like every other number
    {"radio": {"p_max": "1"}},
    # two sweep points under one key; values compare as numbers
    {"n_sensors": [2, 2], "seeds": 2},
    {"density": [5, 5.0]},
    # a repeated rate model or strategy would repeat its rows
    {"rate_models": ["disc8", "disc8"], "n_sensors": 3, "seeds": 3},
    {"strategies": ["sna-mla", "sna-mla"], "n_sensors": 3, "seeds": 3},
)


def field_id(doc):
    # the field name, with "-bool" for the boolean cases, "-nonfinite" for inf
    # and nan, "-huge" for integers beyond the float range, "-empty" for an
    # empty sweep list, "-string" for a number given as a string, "-frame"
    # for a frame longer than the bound and "-duplicate" for a repeated value,
    # so ids stay unique
    text = json.dumps(doc)
    name = next(iter(doc))
    if "true" in text or "false" in text:
        return name + "-bool"
    if "Infinity" in text or "NaN" in text:
        return name + "-nonfinite"
    if re.search(r"\d{309}", text):
        return name + "-huge"
    if doc.get("density") == [] or doc.get("n_sensors") == []:
        return name + "-empty"
    if re.search(r'"\d', text):
        return name + "-string"
    if name == "period_set" and max(doc[name]) > experiment.MAX_FRAME_SUBFRAMES:
        return name + "-frame"
    if isinstance(doc[name], list) and len(set(doc[name])) < len(doc[name]):
        return name + "-duplicate"
    return name


# Numbers at and beyond the edges of the float range (JSON's 1e400 parses to
# inf), and values of the wrong type.
EXTREMES = (0, -1, 5e-324, 1e-300, 1e300, 1e308, sys.float_info.max,
            math.inf, -math.inf, math.nan, 10**400, -(10**400))
WRONG = (None, True, False, "", "x", "1", {}, [], [None], ["1"], [[1]])


def _fuzzed(valid):
    """A valid value of a field, an extreme or any float, a value of the
    wrong type, or a list of such entries."""
    entry = st.one_of(st.sampled_from(EXTREMES), valid, st.floats(), st.sampled_from(WRONG))
    return st.one_of(entry, st.lists(entry, max_size=3))


# Valid values are small (at most 3 sensors, 2 seeds and period 8), so an
# accepted config runs in milliseconds.
FUZZED_FIELDS = {
    "n_sensors": _fuzzed(st.integers(1, 3)),
    "n_controllers": _fuzzed(st.integers(1, 3)),
    "density": _fuzzed(st.floats(1e-3, 1e3)),
    "seeds": _fuzzed(st.integers(1, 2)).filter(lambda v: _runs_briefly("seeds", v)),
    "master_seed": _fuzzed(st.integers(0, 2**80)),
    "rate_models": _fuzzed(st.sampled_from(["cont", "disc4", "disc8", "disc16"])),
    "strategies": _fuzzed(st.sampled_from(["sna-mla", "sna-mua", "sna"])),
    "radio.p_max": _fuzzed(st.floats(1e-3, 1e3)),
    "radio.noise_power": _fuzzed(st.floats(1e-12, 1e-6)),
    "radio.bandwidth_hz": _fuzzed(st.floats(1e6, 1e9)),
    "radio": _fuzzed(
        st.dictionaries(st.sampled_from(["p_max", "noise_power", "bandwidth_hz", "gain"]),
                        st.floats(), max_size=2)
    ),
    "period_set": _fuzzed(st.sampled_from([1, 2, 3, 4, 8])),
    "packet_bits_set": _fuzzed(st.floats(1.0, 1e3)),
    "delay_rule": _fuzzed(st.just("subframe")),
    "energy_scale": _fuzzed(st.floats(1e-2, 1e2)),
    "base_period_s": _fuzzed(st.floats(1e-5, 1e-1)),
}


# Fields fuzzed two or three at a time, each at an extreme float, with one
# of these rate-model sets (None: the default).
COMBINED_FIELDS = ("radio.p_max", "radio.noise_power", "radio.bandwidth_hz", "packet_bits_set",
                   "delay_rule", "energy_scale", "base_period_s", "density")
EXTREME_FLOATS = (5e-324, 1e-308, 1e-30, 1e30, 1e300, 1.7e308)
RATE_MODEL_SETS = (None, ["cont"], ["disc8"], ["cont", "disc8"])


# Configs (of 2 seeds unless given) on which every seed drops, with the
# stderr line that splits the drops by cause; table models go first.
NUMERICAL_2 = "2 infeasible (numerical 2)"
ALL_DROPPED = {
    # t_lo * W, or t_hi * W, underflows to 0 in continuous_optimal
    "slot-floor-times-bandwidth": ({
        "n_sensors": 1, "n_controllers": 2, "master_seed": 69, "period_set": [1, 2],
        "delay_rule": 1e30, "packet_bits_set": [5e-324], "radio": {"bandwidth_hz": 1e-30},
    }, NUMERICAL_2),
    "delay-bound-times-bandwidth": ({
        "n_sensors": 1, "seeds": 1, "rate_models": ["cont"], "base_period_s": 1e-308,
        "radio": {"bandwidth_hz": 1e-30},
    }, "1 infeasible (numerical 1)"),
    # W * log2(1 + SNR) underflows to 0 in solo_terms, so no disc4 solo is
    # feasible; a kilowatt of receiver noise makes every link unusable
    "rate": ({"n_sensors": 4, "n_controllers": 1, "master_seed": 59, "period_set": [1],
              "radio": {"bandwidth_hz": 5e-324}}, "2 infeasible (disc4 2)"),
    "noise": ({"n_sensors": 2, "radio": {"noise_power": 1000.0}}, "2 infeasible (disc4 2)"),
    # every gain underflows to 0; the square side overflows
    "gains": ({"density": 1e-300}, NUMERICAL_2),
    "side": ({"density": 1e-310}, NUMERICAL_2),
    # slots of 1e300 s underflow the capacity targets to 0; a 1e308 W solo
    # SNR underflows the interference-free slot bound to 0
    "capacity-targets": ({"n_sensors": 2, "base_period_s": 1e300}, NUMERICAL_2),
    "slot-floor": ({"n_sensors": 2, "radio": {"p_max": 1e308}}, NUMERICAL_2),
}


def _runs_briefly(field, value):
    """False for the accepted values that would run for ages: a seed count
    above 2 (a huge count is valid, and out of scope here)."""
    return not (field == "seeds" and type(value) is int and value > 2)


@st.composite
def valid_configs(draw):
    """An accepted config: every field drawn from its valid range."""
    positive = st.floats(min_value=1e-100, max_value=1e100)
    counts = st.integers(1, 10**6)
    sweep = draw(st.sampled_from(["n_sensors", "density", None]))
    base_period = draw(st.integers(1, 4))

    def maybe_swept(field, value):
        return st.lists(value, min_size=1, max_size=4, unique=True) if sweep == field else value

    doc = {
        "n_sensors": draw(maybe_swept("n_sensors", counts)),
        "density": draw(maybe_swept("density", positive)),
        "n_controllers": draw(counts),
        "seeds": draw(counts),
        "master_seed": draw(st.integers(0, 2**80)),
        "rate_models": draw(
            st.lists(st.sampled_from(RATE_MODELS), min_size=1, max_size=3, unique=True)
        ),
        "strategies": draw(
            st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=2, unique=True)
        ),
        "radio": {
            "p_max": draw(positive),
            "noise_power": draw(positive),
            "bandwidth_hz": draw(positive),
        },
        "period_set": [base_period * 2**k for k in range(draw(st.integers(1, 4)))],
        "packet_bits_set": draw(st.lists(positive, min_size=1, max_size=4)),
        "delay_rule": draw(st.just("subframe") | positive),
        "energy_scale": draw(positive),
        "base_period_s": draw(positive),
    }
    return ExperimentConfig.from_dict(doc)


def tiny_config(**overrides):
    base = {
        "n_sensors": [2, 3],
        "n_controllers": 3,
        "density": 5.0,
        "seeds": 3,
        "master_seed": 7,
        "rate_models": ["cont", "disc4", "disc8"],
        "strategies": ["sna-mla", "sna-mua"],
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def straddling_config(**overrides):
    """Sweep points on both sides of the exhaustive limits: 7 to 9 nodes, and
    frames of 1 to 8 subframes."""
    doc = {"n_sensors": [7, 8, 9], "period_set": [1, 2, 4, 8], "seeds": 12,
           "rate_models": ["cont", "disc8"]}
    return tiny_config(**dict(doc, **overrides))


def mixed_drops_config():
    """Three density points: seeds dropped under disc4 and then disc8 (in that
    order, against the config's), kept seeds of both reference kinds beside
    drops under both models, and seeds all dropped as numerical."""
    return tiny_config(density=[0.5, 5.0, 1e-300], n_sensors=3, seeds=8,
                       rate_models=["disc8", "cont", "disc4"])


def kept_records(results):
    return [r for r in results.per_seed if r["dropped"] is None]


def without_counts(record):
    """A ``per_seed`` record without its ``counts``."""
    return {key: value for key, value in record.items() if key != "counts"}


def assert_only_seed_dropped_as_numerical(cfg, clean, results, bad):
    """Check that ``results``, of ``cfg``'s sweep over one point of 3
    sensors, equal ``clean`` but for seed ``bad``, dropped as numerical."""
    counts = results.reference_counts[("n_sensors", 3)]
    clean_counts = clean.reference_counts[("n_sensors", 3)]
    assert counts["numerical"] == 1
    assert counts["infeasible"] == clean_counts["infeasible"] + 1
    assert counts["infeasible_by_model"] == clean_counts["infeasible_by_model"]
    assert without_counts(results.per_seed[bad]) == {
        "sweep_var": "n_sensors", "value": 3, "seed_index": bad, "dropped": "numerical"
    }
    assert results.per_seed[:bad] + results.per_seed[bad + 1:] == (
        clean.per_seed[:bad] + clean.per_seed[bad + 1:]
    )
    for row, clean_row in zip(results.rows, clean.rows):
        assert row["seed_count"] == clean_row["seed_count"] - 1
        assert row["seed_count"] + row["infeasible_count"] == cfg.seeds


def drawn_item(cfg, n, point, k):
    """What ``_draw_seeds`` yields for one seed at the config's density."""
    return next(experiment._draw_seeds(cfg, n, cfg.density, point, range(k, k + 1)))


def fits_exhaustive(cfg, n, point, k):
    """Whether the instance drawn for one (kept) seed fits the exhaustive search."""
    nodes = drawn_item(cfg, n, point, k)[0]
    return exhaustive_fits(validate_instance(nodes))


def paper_sweep():
    """The benchmark's paper-sweep workload (acceptance criterion 8) and the
    CSV it must write at its default seed."""
    return ExperimentConfig.from_dict(PAPER_SWEEP), PERFBENCH / "expected" / "paper-sweep.csv"


class TestSubseed:
    def test_deterministic(self):
        assert subseed(1, 2, 3, 4) == subseed(1, 2, 3, 4)

    def test_distinct_roles(self):
        seeds = {subseed(1, 0, 0, r) for r in range(4)}
        assert len(seeds) == 4

    @pytest.mark.parametrize(
        "key, expected",
        [
            ((0, 0, 0, 0), 4189226428916626942),
            ((2**32 - 1, 0, 0, 1), 9761616283354268282),
            ((2**32, 1, 2, 2), 2713554719880617597),
            ((20260810000, 2, 99, 0), 10625477587754115896),
            ((1, 0, 2**32, 1), 7957918316143879930),
        ],
    )
    def test_pinned_values(self, key, expected):
        # every sweep's draws derive from these: a change to numpy's seeding
        # fails here rather than silently changing every CSV
        assert subseed(*key) == expected


def pcg64_state(state, inc):
    """A fresh PCG64 generator's ``bit_generator.state``."""
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def default_rng_states(master, point, ks):
    """``default_rng(subseed(...))``'s state for each seed of ``ks`` and role."""
    return [
        np.random.default_rng(subseed(master, point, k, role)).bit_generator.state
        for k in ks
        for role in range(3)
    ]


class TestSeedStates:
    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 20260810, 2**64 + 7, 2**130 + 5])
    @pytest.mark.parametrize(
        "point, ks",
        [(0, range(6)), (3, range(2**32 - 3, 2**32)), (2**33, range(2**32, 2**32 + 3))],
    )
    def test_equal_default_rng_of_subseed(self, master, point, ks):
        states = seeding.seed_states(master, point, ks)
        assert [pcg64_state(*s) for s in states] == default_rng_states(master, point, ks)

    @settings(max_examples=60, deadline=None)
    @given(
        master=st.integers(0, 2**140),
        point=st.integers(0, 2**40),
        k=st.integers(0, 2**40) | st.integers(2**32 - 4, 2**32 + 4),
    )
    def test_equal_default_rng_of_subseed_on_random_keys(self, master, point, k):
        # _blocks cuts a range of seeds where seed_states needs it cut
        blocks = list(experiment._blocks(range(k, k + 5), 3))
        assert [i for block in blocks for i in block] == list(range(k, k + 5))
        states = [s for block in blocks for s in seeding.seed_states(master, point, block)]
        assert [pcg64_state(*s) for s in states] == default_rng_states(master, point, range(k, k + 5))

    @pytest.mark.parametrize("value", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**200 + 3])
    def test_hash_and_mix_equal_seed_sequence(self, value):
        # more than 4 words take the mixing of the remaining entropy
        expected = np.random.SeedSequence(value).generate_state(4, np.uint64).tolist()
        words = seeding._words(value)
        assert seeding._generate(seeding._pool(words), 4) == expected

    def test_a_subseed_hashes_as_a_pair_of_words(self):
        # a subseed below 2**32 is one word: its high word, 0, hashes like a
        # missing one
        subs = np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
        pool = seeding._pool([subs & 0xFFFFFFFF, subs >> 32])
        got = [list(state) for state in zip(*(v.tolist() for v in seeding._generate(pool, 4)))]
        assert got == [
            np.random.SeedSequence(int(v)).generate_state(4, np.uint64).tolist() for v in subs
        ]


def oracle_draw(cfg, n, density, point, k):
    """``draw_instance``'s nodes and gains, or the NumericalError it raised."""
    try:
        return draw_instance(cfg, n, density, point, k)
    except NumericalError as exc:
        return exc


def pricers_drop(cfg, nodes, gains):
    """``(node_id, model, reason)`` of the drop that building each needed
    model's pricer, with its own solo records, and calling its ``offsets()``
    in ``_run_seed``'s order gives one seed; None if none drops it."""
    inst = validate_instance(nodes)
    for model in [m for m in cfg.rate_models if m != "cont"] + ["cont"]:
        try:
            experiment._pricer(model, inst, gains, cfg.radio).offsets()
        except InfeasibleInstanceError as exc:
            return exc.node_id, model, exc.reason
    return None


def derived_solos(cfg, nodes, gains):
    """Each needed model's solo records of one seed, derived per seed."""
    solos = {}
    for model in cfg.rate_models:
        if model != "cont":
            table = experiment._ladder(model, cfg.radio.bandwidth_hz)
            solos[model] = allocation.ladder_solos(nodes, gains, table, cfg.radio)
    solos["cont"] = allocation.continuous_solos(nodes, gains, cfg.radio)
    return solos


def same_draw(cfg, got, expected) -> bool:
    """Whether ``_draw_seeds`` yielded ``got`` for the seed the oracle drew
    as ``expected``: the same NumericalError, a drop that the pricers give
    too, or the same nodes and gains with the solo records the pricers
    derive (compared by ``repr``, exact for floats and NaN alike)."""
    if isinstance(expected, NumericalError):
        return type(got) is NumericalError and str(got) == str(expected)
    if isinstance(got, InfeasibleInstanceError):
        return (got.node_id, got.model, got.reason) == pricers_drop(cfg, *expected)
    nodes, gains, solos = got
    return (
        nodes == expected[0]
        and gains.cols == expected[1].cols
        and repr(solos) == repr(derived_solos(cfg, *expected))
    )


class TestDrawSeeds:
    @pytest.mark.parametrize("block_elements", [experiment._BLOCK_ELEMENTS, 150])
    @pytest.mark.parametrize(
        "doc, density, point, drops",
        [
            ({"n_sensors": 8, "master_seed": 20260810}, 5.0, 2, "none"),
            ({"n_sensors": 1, "n_controllers": 1, "master_seed": 2**32}, 0.25, 0, "none"),
            # the config's integers beyond int64, indexed rather than chosen
            ({"n_sensors": 4, "period_set": [2**70, 2**72], "packet_bits_set": [50, 2**70],
              "master_seed": 2**64 + 1}, 5.0, 1, "none"),
            # some seeds' gains underflow to 0
            ({"n_sensors": 4}, 1e-180, 0, "some"),
            # the side overflows
            ({"n_sensors": 4}, 1e-308, 3, "all"),
        ],
    )
    def test_equal_the_single_seed_oracle(
        self, monkeypatch, block_elements, doc, density, point, drops
    ):
        monkeypatch.setattr(experiment, "_BLOCK_ELEMENTS", block_elements)
        blocks = []
        seed_states = experiment.seed_states
        monkeypatch.setattr(
            experiment, "seed_states", lambda *args: blocks.append(args) or seed_states(*args)
        )
        cfg = ExperimentConfig.from_dict(dict(doc, seeds=24))
        n, c = cfg.n_sensors, cfg.n_controllers
        drawn = list(experiment._draw_seeds(cfg, n, density, point, range(cfg.seeds)))
        # blocks of at most _BLOCK_ELEMENTS elements, counting 2 * (n*C + n + C)
        # per seed, and at least one seed
        per_block = max(1, block_elements // (2 * (n * c + n + c)))
        assert len(blocks) == (0 if drops == "all" else math.ceil(cfg.seeds / per_block))
        expected = [oracle_draw(cfg, n, density, point, k) for k in range(cfg.seeds)]
        assert len(drawn) == len(expected)
        assert all(map(partial(same_draw, cfg), drawn, expected))
        dropped = sum(isinstance(d, NumericalError) for d in drawn)
        assert {"none": dropped == 0, "some": 0 < dropped < cfg.seeds,
                "all": dropped == cfg.seeds}[drops]

    def test_seeds_on_both_sides_of_two_to_the_32(self):
        cfg = tiny_config()
        ks = range(2**32 - 2, 2**32 + 2)
        drawn = experiment._draw_seeds(cfg, 3, cfg.density, 1, ks)
        assert all(
            same_draw(cfg, d, oracle_draw(cfg, 3, cfg.density, 1, k)) for d, k in zip(drawn, ks)
        )

    def test_a_seed_is_built_when_it_is_reached(self, monkeypatch):
        built = []
        node = experiment.NodeSpec
        monkeypatch.setattr(experiment, "NodeSpec", lambda **kw: built.append(kw) or node(**kw))
        cfg = tiny_config(seeds=50)
        drawn = experiment._draw_seeds(cfg, 3, cfg.density, 0, range(cfg.seeds))
        kept = []
        for _ in range(4):
            kept.append(isinstance(next(drawn), tuple))
            # a seed the triage drops builds no node
            assert len(built) == 3 * sum(kept)
        assert kept == [True, False, True, True]


def replay(cfg, point, k):
    """``draw_seed``'s nodes and gains, or the NumericalError it raised."""
    try:
        return experiment.draw_seed(cfg, point, k)
    except NumericalError as exc:
        return exc


def assert_replays_every_seed(cfg) -> int:
    """Check that ``draw_seed`` replays every seed of ``cfg``'s sweep as
    ``_draw_seeds`` draws it and as the oracle draws it alone, triaged seeds
    included, each of those dropped by its pricers as by the triage; the
    number of triaged seeds."""
    sweep_var, values = cfg.sweep()
    triaged = 0
    for point, value in enumerate(values):
        n, density = experiment._point_size(cfg, sweep_var, value)
        drawn_seeds = experiment._draw_seeds(cfg, n, density, point, range(cfg.seeds))
        for k, drawn in enumerate(drawn_seeds):
            got, expected = replay(cfg, point, k), oracle_draw(cfg, n, density, point, k)
            if isinstance(drawn, NumericalError):
                assert type(got) is NumericalError and str(got) == str(drawn) == str(expected)
                continue
            nodes, gains = got
            assert nodes == expected[0] and gains.cols == expected[1].cols
            if isinstance(drawn, InfeasibleInstanceError):
                assert pricers_drop(cfg, nodes, gains) == (drawn.node_id, drawn.model, drawn.reason)
                triaged += 1
            else:
                assert nodes == drawn[0] and gains.cols == drawn[1].cols
    return triaged


class TestDrawSeed:
    @pytest.mark.parametrize("name", REPLAYED)
    def test_replays_every_seed_of_the_sweep(self, name):
        assert_replays_every_seed(ExperimentConfig.from_dict(REPLAYED[name]))

    def test_replays_seeds_across_block_boundaries(self, monkeypatch):
        # blocks of 5 seeds at n = 3, of 2 at n = 8
        monkeypatch.setattr(experiment, "_BLOCK_ELEMENTS", 150)
        cfg = dataclasses.replace(paper_sweep()[0], n_sensors=[3, 8], seeds=9)
        assert assert_replays_every_seed(cfg) > 0

    @pytest.mark.parametrize(
        "bad, point, k",
        [("point", -1, 0), ("point", 3, 0), ("point", True, 0), ("point", 1.0, 0),
         ("point", np.int64(1), 0), ("point", "1", 0),
         ("k", 0, -1), ("k", 0, 100), ("k", 0, False), ("k", 0, 2.0), ("k", 0, None)],
    )
    def test_bad_point_or_seed_index_rejected(self, bad, point, k):
        # paper-sweep has 3 sweep points of 100 seeds
        with pytest.raises(ValidationError, match=f"^{bad} must be an integer in"):
            experiment.draw_seed(paper_sweep()[0], point, k)


class TestDropReasons:
    @pytest.mark.parametrize(
        "config, expected",
        [
            ({}, {(n, "INFEASIBLE_MAX_POWER"): c for n, c in ((4, 38), (6, 70), (8, 83))}),
            ({"energy_scale": same_results.BINDING_ENERGY_SCALE}, {
                (4, "INFEASIBLE_MAX_POWER"): 36, (6, "INFEASIBLE_MAX_POWER"): 57,
                (8, "INFEASIBLE_MAX_POWER"): 66, (4, "INFEASIBLE_ENERGY"): 17,
                (6, "INFEASIBLE_ENERGY"): 28, (8, "INFEASIBLE_ENERGY"): 27,
            }),
            (BELOW_EVERY_LEVEL, {(3, "INFEASIBLE_DELAY"): 10, (5, "INFEASIBLE_DELAY"): 10}),
        ],
        ids=["paper-sweep", "paper-sweep-energy", "below-every-level"],
    )
    def test_drops_per_size_and_reason(self, config, expected):
        # the one home of paper-sweep's drop figures at its default seed:
        # drops per (n_sensors, reason), every one under disc4 and every one
        # by the block triage, which builds no pricer and so leaves its
        # record's counts empty. Each drop's node and reason against plain
        # definitions is test_sweep_equals_the_oracle's, and each triaged
        # seed against its pricers test_replays_every_seed_of_the_sweep's.
        cfg = dataclasses.replace(paper_sweep()[0], **config)
        if "delay_rule" in config:
            tables = [experiment._ladder(m, cfg.radio.bandwidth_hz) for m in ("disc4", "disc8")]
            assert all(50.0 / t.rate(q) > cfg.delay_rule
                       for t in tables for q in range(t.num_levels))
        drops = [r for r in run_experiment(cfg).per_seed if r["dropped"] is not None]
        assert {r["dropped"] for r in drops} == {"disc4"}
        assert all(r["counts"] == {} for r in drops)
        assert Counter((r["value"], r["reason"]) for r in drops) == expected


class TestWholeSweepOracle:
    @pytest.mark.parametrize("name", ORACLE_SWEEPS)
    def test_sweep_equals_the_oracle(self, name, tmp_path):
        # helpers.oracle_sweep prices every controller-distinct subset by the
        # frozen bisection or the brute force, with no cap and no solo
        # records, so it checks the triage, the solo records and guesses,
        # the predicted cells, the priced answers under their caps and the
        # pricing caches against plain definitions. It shares schedule,
        # exhaustive_schedule and SubsetPricer's group rule with the
        # library, so it does not check the schedulers: their oracles are
        # helpers.reference_schedule and the exhaustive search.
        cfg = ExperimentConfig.from_dict(ORACLE_SWEEPS[name])
        expected, got = oracle_sweep(cfg), run_experiment(cfg)
        assert [without_counts(r) for r in got.per_seed] == expected.per_seed
        emit_results(expected, tmp_path / "oracle.csv")
        emit_results(got, tmp_path / "sweep.csv")
        assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"n_sensor": 4})

    def test_double_sweep_rejected(self):
        with pytest.raises(ConfigError, match="only one"):
            ExperimentConfig.from_dict({"n_sensors": [2, 3], "density": [1.0, 2.0]})
        with pytest.raises(ConfigError, match="only one"):
            ExperimentConfig(n_sensors=(2, 3), density=(1.0, 2.0))

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="rate model"):
            ExperimentConfig.from_dict({"rate_models": ["disc16"]})

    def test_unknown_radio_key_rejected(self):
        with pytest.raises(ConfigError, match="radio"):
            ExperimentConfig.from_dict({"radio": {"p_maxx": 0.1}})

    def test_radio_overrides_keep_other_defaults(self):
        cfg = ExperimentConfig.from_dict({"radio": {"noise_power": 1e-9}})
        assert cfg.radio == RadioConfig(p_max=0.25, noise_power=1e-9, bandwidth_hz=1e8)

    @pytest.mark.parametrize("doc", INVALID_FIELDS, ids=field_id)
    def test_invalid_field_value_rejected(self, doc):
        with pytest.raises(ConfigError, match=next(iter(doc))):
            ExperimentConfig.from_dict(doc)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(cfg=valid_configs())
    def test_config_round_trips_through_its_fields(self, cfg):
        doc = json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert ExperimentConfig.from_dict(doc) == cfg

    def test_derived_delay_and_energy_stay_in_the_float_range(self):
        # a subframe of 8 periods of 1e308 s overflows to inf, and an energy
        # budget of 5e-324 * p_max * 1 ms underflows to 0
        with pytest.raises(ConfigError, match="base_period_s"):
            ExperimentConfig.from_dict({"base_period_s": 1e308})
        with pytest.raises(ConfigError, match="energy_scale"):
            ExperimentConfig.from_dict({"energy_scale": 5e-324})

    def test_bad_delay_rule_rejected(self):
        with pytest.raises(ConfigError, match="delay_rule"):
            ExperimentConfig.from_dict({"delay_rule": "whenever"})

    def test_sweep_resolution(self):
        assert tiny_config().sweep() == ("n_sensors", [2, 3])
        cfg = tiny_config(n_sensors=4, density=[1.0, 5.0])
        assert cfg.sweep() == ("density", [1.0, 5.0])
        cfg = tiny_config(n_sensors=4)
        assert cfg.sweep() == ("n_sensors", [4])

    def test_tuple_sweeps_like_a_list(self):
        as_list = tiny_config(seeds=2)
        as_tuple = dataclasses.replace(as_list, n_sensors=(2, 3))
        assert as_tuple.sweep() == as_list.sweep()
        assert run_experiment(as_tuple).rows == run_experiment(as_list).rows
        with pytest.raises(ConfigError, match="density"):
            dataclasses.replace(as_list, n_sensors=2, density=(5, 5.0))

    def test_list_fields_run_like_tuples(self):
        # the constructor stores the list fields as tuples, as from_dict does
        lists = dict(rate_models=["disc8"], strategies=["sna-mla"],
                     period_set=[1, 2], packet_bits_set=[50.0])
        as_list = ExperimentConfig(n_sensors=3, seeds=2, **lists)
        as_tuple = ExperimentConfig(n_sensors=3, seeds=2,
                                    **{k: tuple(v) for k, v in lists.items()})
        assert as_list == as_tuple
        assert run_experiment(as_list).rows == run_experiment(as_tuple).rows
        for name in lists:
            for value in ("disc8", 4, None):
                with pytest.raises(ConfigError, match=name):
                    ExperimentConfig(**{name: value})


class TestRunExperiment:
    def test_row_structure_and_accounting(self):
        cfg = tiny_config()
        results = run_experiment(cfg)
        assert len(results.rows) == 2 * 2 * 3
        for row in results.rows:
            assert tuple(row) == RESULT_COLUMNS
            assert row["seed_count"] + row["infeasible_count"] == cfg.seeds
        counted = results.reference_counts[("n_sensors", 2)]
        assert counted["exhaustive"] + counted["heuristic"] + counted["infeasible"] == cfg.seeds
        by_model = counted["infeasible_by_model"]
        assert sum(by_model.values()) + counted["numerical"] == counted["infeasible"]

    @pytest.mark.usefixtures("one_process")
    def test_seeds_of_one_sweep_share_one_ladder(self, monkeypatch):
        # a RateTable is immutable, so each discrete model builds its ladder
        # once and every TablePricer built for that model reads that one
        # object
        tables = defaultdict(list)
        original = experiment._pricer

        def recording(model, *args):
            pricer = original(model, *args)
            if isinstance(pricer, scheduling.TablePricer):
                tables[model].append(pricer.table)
            return pricer

        monkeypatch.setattr(experiment, "_pricer", recording)
        run_experiment(tiny_config(n_sensors=3, seeds=3))
        # one seed is dropped under disc4 before any pricer is built
        assert {m: len(t) for m, t in tables.items()} == {"disc4": 2, "disc8": 2}
        for model, levels in (("disc4", 3), ("disc8", 7)):
            assert len({id(t) for t in tables[model]}) == 1
            assert tables[model][0].num_levels == levels

    def test_normalized_at_least_one_against_exhaustive_reference(self):
        results = run_experiment(tiny_config(seeds=5))
        for record in kept_records(results):
            if record["reference_kind"] != "exhaustive":
                continue
            for value in record["max_active"].values():
                assert value / record["reference"] >= 1.0

    def test_more_than_eight_nodes_take_the_heuristic_reference(self):
        cfg = tiny_config(n_sensors=[9], seeds=4, rate_models=["cont", "disc8"])
        results = run_experiment(cfg)
        counts = results.reference_counts[("n_sensors", 9)]
        assert counts["exhaustive"] == 0
        assert counts["heuristic"] > 0

    def test_exhaustive_reference_exactly_when_the_instance_fits(self):
        cfg = straddling_config()
        kinds = Counter()
        for record in kept_records(run_experiment(cfg)):
            n, k = record["value"], record["seed_index"]
            fits = fits_exhaustive(cfg, n, cfg.n_sensors.index(n), k)
            assert record["reference_kind"] == ("exhaustive" if fits else "heuristic")
            kinds[record["reference_kind"]] += 1
        assert kinds["exhaustive"] and kinds["heuristic"]

    def test_cont_is_scheduled_only_for_a_heuristic_reference(self, monkeypatch):
        # cont is not configured: a seed that fits takes the exhaustive
        # reference and runs no continuous heuristic, one that does not fit
        # runs it once per strategy
        cfg = straddling_config(rate_models=["disc8"])
        spy = mock.Mock(wraps=experiment.schedule)
        monkeypatch.setattr(experiment, "schedule", spy)
        seen = set()
        for point, n in enumerate(cfg.n_sensors):
            for k in range(cfg.seeds):
                spy.reset_mock()
                try:
                    experiment._run_seed(cfg, drawn_item(cfg, n, point, k), {})
                except InfeasibleInstanceError:
                    continue
                fits = fits_exhaustive(cfg, n, point, k)
                continuous = [
                    isinstance(call.args[0], scheduling.ContinuousPricer)
                    for call in spy.call_args_list
                ]
                assert continuous.count(True) == (0 if fits else len(cfg.strategies))
                assert continuous.count(False) == len(cfg.strategies)
                seen.add(fits)
        assert seen == {True, False}

    def test_single_node_normalization(self):
        # one node: the discrete solo slot divided by the continuous optimum
        results = run_experiment(tiny_config(n_sensors=1, seeds=4))
        for row in results.rows:
            if row["seed_count"] and row["rate_model"] != "cont":
                assert row["mean_norm"] >= 1.0

    def test_seeded_sweep_regression_pin(self):
        # frozen output of this exact seeded run; any drift in the generator
        # chain, scheduling, or aggregation shows up here first
        results = run_experiment(tiny_config(n_sensors=[4], seeds=20, master_seed=123))
        expected = {
            ("sna-mla", "cont"): (12, 1.0, 0.0),
            ("sna-mla", "disc4"): (12, 1.3360246191894796, 0.14013030114706015),
            ("sna-mla", "disc8"): (12, 1.1169435286413683, 0.11359512189399382),
            ("sna-mua", "cont"): (12, 1.0, 0.0),
            ("sna-mua", "disc4"): (12, 1.3360246191894796, 0.14013030114706015),
            ("sna-mua", "disc8"): (12, 1.124409303771866, 0.11945731087628343),
        }
        assert len(results.rows) == len(expected)
        for row in results.rows:
            count, mean, std = expected[(row["strategy"], row["rate_model"])]
            assert row["seed_count"] == count
            assert row["mean_norm"] == pytest.approx(mean, rel=1e-9)
            assert row["std_norm"] == pytest.approx(std, rel=1e-9)

    def test_seeded_energy_binding_sweep_regression_pin(self):
        # the sweep above with energy budgets 1e-4 of p_max * delay: frozen
        # output, and the budgets really bind (some seeds drop for
        # INFEASIBLE_ENERGY, and four more drop than at energy_scale 1.0)
        results = run_experiment(
            tiny_config(n_sensors=[4], seeds=20, master_seed=123, energy_scale=1e-4)
        )
        assert any(r.get("reason") == "INFEASIBLE_ENERGY" for r in results.per_seed)
        assert results.reference_counts[("n_sensors", 4)] == {
            "exhaustive": 3, "heuristic": 5, "infeasible": 12,
            "infeasible_by_model": {"disc4": 12}, "numerical": 0,
        }
        expected = {
            ("sna-mla", "cont"): (8, 1.0, 0.0),
            ("sna-mla", "disc4"): (8, 1.3507152780807345, 0.11173786267078226),
            ("sna-mla", "disc8"): (8, 1.092497124072283, 0.08847390941030833),
            ("sna-mua", "cont"): (8, 1.0, 0.0),
            ("sna-mua", "disc4"): (8, 1.3507152780807345, 0.11173786267078226),
            ("sna-mua", "disc8"): (8, 1.1036957867680295, 0.10189533591351238),
        }
        assert len(results.rows) == len(expected)
        for row in results.rows:
            count, mean, std = expected[(row["strategy"], row["rate_model"])]
            assert row["seed_count"] == count and row["infeasible_count"] == 12
            assert row["mean_norm"] == pytest.approx(mean, rel=1e-9)
            assert row["std_norm"] == pytest.approx(std, rel=1e-9)
        unbound = run_experiment(tiny_config(n_sensors=[4], seeds=20, master_seed=123))
        assert unbound.rows != results.rows

    def test_perfbench_trace_sees_every_scheduling_layer(self):
        # perfbench/layers.py, loaded as it stands, wraps module bindings
        # such as scheduling.sna_assign; an offsets() or a dispatch that
        # bypassed them would read as zero work. Tracing changes no result.
        # The allocators run only on populations of three or more nodes,
        # which this config's sweep holds.
        layers = perfbench_layers()
        cfg = tiny_config(period_set=[1, 2], n_sensors=[3, 4])
        untraced = run_experiment(cfg)
        tracer = layers.Tracer()
        with layers.traced(tracer):
            traced = experiment.run_experiment(cfg)
        spans = layers.span_stats(tracer)["spans"]
        for layer in ("sna_assign", "price", "mla", "exhaustive"):
            assert spans[f"scheduling.{layer}"]["calls"] > 0, layer
        assert json.dumps(traced.rows) == json.dumps(untraced.rows)
        assert traced.per_seed == untraced.per_seed

    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize("workload", ["two periods", "dense-exhaustive"])
    def test_counts_equal_the_perfbench_trace(self, workload):
        # perfbench/layers.py counts by patching the library's seams; on the
        # same sweeps its traced checks, kernel calls, solver calls, price
        # calls and allocator calls must equal the library's own counts,
        # summed over every per_seed record, dropped ones included, so that
        # a seam move the tracer misses fails. Two runs count alike.
        layers = perfbench_layers()
        if workload == "two periods":
            configs = [{"n_sensors": [3, 4], "n_controllers": 2, "seeds": 6,
                        "period_set": [1, 2], "rate_models": ["cont", "disc4"]}]
        else:
            configs = [dict(WORKLOADS[workload]["config"], master_seed=s) for s in (1000, 1001)]
        cfgs = [ExperimentConfig.from_dict(config) for config in configs]
        totals = Counter()
        for cfg in cfgs:
            records = run_experiment(cfg).per_seed
            assert [r["counts"] for r in run_experiment(cfg).per_seed] == [
                r["counts"] for r in records
            ]
            for counts in (c for r in records for c in r["counts"].values()):
                totals.update({key: counts[key] for key in ("checks", "evaluations", "allocations")})
                totals.update(priced=sum(counts["priced"]), solos=counts["priced"][0])
        tracer = layers.Tracer()
        with layers.traced(tracer):
            for cfg in cfgs:
                experiment.run_experiment(cfg)
        traced = layers.exact_counts(tracer, layers.span_stats(tracer))
        assert totals["checks"] == traced["feasibility.check.calls"] > 0
        assert totals["checks"] + totals["evaluations"] == traced["feasibility.kernel.calls"]
        # groups of three or four links predict their cells by the bare
        # kernel; pairs, all "two periods" has, by a closed form
        assert (totals["evaluations"] > 0) == (workload == "dense-exhaustive")
        solved = traced["allocation.lttf.calls"] + traced["allocation.continuous.calls"]
        assert totals["priced"] == solved
        assert totals["solos"] == traced["scheduling.price.calls"] > 0
        allocated = traced["scheduling.mla.calls"] + traced["scheduling.mua.calls"]
        assert totals["allocations"] == allocated > 0

    def test_perfbench_trace_puts_every_seam_back_when_a_sweep_raises(self, monkeypatch):
        # a sweep that raises inside perfbench/layers.py's traced() must not
        # leave a wrapper in the library for the sweeps that follow
        layers = perfbench_layers()

        def seams():
            modules = (allocation, experiment, feasibility, scheduling)
            return ([dict(vars(module)) for module in modules]
                    + [dict(scheduling._ALLOCATORS), scheduling.SubsetPricer.price])

        def failing_seed(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(experiment, "_run_seed", failing_seed)
        before = seams()
        tracer = layers.Tracer()
        with pytest.raises(RuntimeError, match="injected"), layers.traced(tracer):
            experiment.run_experiment(tiny_config())
        assert seams() == before
        assert tracer.counts["experiment.seed.raised"] == 1

    def test_solvers_see_uncapped_solos_and_groups_capped_below_their_delay(
        self, monkeypatch
    ):
        # the two kinds of call continuous_optimal's probe order is written
        # for, at each benchmark workload's default seed, and the probes of
        # its solos and feasible pairs
        kinds = set()
        checked, pairs = [], []
        check = allocation.check_targets

        def counting_check(gains, targets, radio, times, *args):
            checked.append(times[0])
            return check(gains, targets, radio, times, *args)

        def recording(name, solver):
            def call(nodes, gains, *args):  # both end (..., cap, solos)
                (cap, solos), tightest = args[-2:], min(n.delay_bound for n in nodes)
                if len(nodes) == 1:
                    kinds.add((name, "solo"))
                    assert cap == math.inf
                else:
                    kinds.add((name, "group"))
                    assert cap < tightest
                checked.clear()
                res = solver(nodes, gains, *args)
                if (name, len(nodes)) == ("continuous_optimal", 1):
                    # every continuous solo is kept at its guess, the one
                    # slot checked
                    assert checked == [res.slot] == [allocation.solo_guess(*solos[0])]
                if (name, len(nodes), res.feasible) == ("continuous_optimal", 2, True):
                    # every feasible continuous pair is its predicted cell,
                    # confirmed by two checks, one of them at the slot
                    assert len(checked) == 2 and res.slot in checked
                    pairs.append(res.slot)
                if (name, len(nodes)) == ("lttf", 1):
                    # a TablePricer reads every solo price from its record,
                    # so it hands lttf only a link without one, which the
                    # walk prices infeasible (or raises on); the block triage
                    # drops these seeds at the workloads' default seeds
                    assert type(solos[0]) is Verdict or solos[0][3] is None
                    assert not res.feasible
                return res
            return call

        for name in ("lttf", "continuous_optimal"):
            monkeypatch.setattr(scheduling, name, recording(name, getattr(scheduling, name)))
        monkeypatch.setattr(allocation, "check_targets", counting_check)
        for workload in WORKLOADS.values():
            run_experiment(ExperimentConfig.from_dict(
                dict(workload["config"], master_seed=workload["default_seed"])
            ))
        # every ladder solo there is read from its record, so lttf sees
        # groups alone
        assert kinds == {
            ("lttf", "group"), ("continuous_optimal", "solo"), ("continuous_optimal", "group")
        }
        assert pairs

    def test_every_group_is_priced_at_its_solo_sum(self, monkeypatch):
        # _price, the seam of both gain-backed pricers, is called only by
        # SubsetPricer.solo (through price) and SubsetPricer.group, with a
        # sorted member tuple: a solo has no cap, and a group of two or more
        # is capped at the fsum of its members' solo slots, at each benchmark
        # workload's default seed, with energy budgets loose and binding. So
        # a subset's cap is fixed by the subset, and no pricer prices a
        # subset twice. The record is keyed by the pricer itself: the id() of
        # a collected pricer is reused.
        sizes = Counter()
        priced = defaultdict(set)

        def checking(price):
            def checked(pricer, ids, cap):
                assert ids == tuple(sorted(ids))
                if len(ids) == 1:
                    assert cap == math.inf
                else:
                    assert cap == math.fsum(pricer.solo(i).slot for i in ids)
                assert frozenset(ids) not in priced[pricer]
                priced[pricer].add(frozenset(ids))
                sizes[min(len(ids), 2)] += 1
                return price(pricer, ids, cap)
            return checked

        for pricer in (scheduling.TablePricer, scheduling.ContinuousPricer):
            monkeypatch.setattr(pricer, "_price", checking(pricer._price))
        for workload, energy_scale in itertools.product(WORKLOADS.values(), (1.0, 1e-4)):
            run_experiment(ExperimentConfig.from_dict(dict(
                workload["config"],
                master_seed=workload["default_seed"],
                energy_scale=energy_scale,
            )))
        assert sizes[1] > 0 and sizes[2] > 0

    @pytest.mark.usefixtures("one_process")
    def test_numerical_error_drops_only_its_seed(self, monkeypatch):
        cfg = tiny_config(n_sensors=[3], seeds=4)
        clean = run_experiment(cfg)
        bad = kept_records(clean)[0]["seed_index"]
        running = []
        run_seed, kernel = experiment._run_seed, feasibility.min_power_vector

        def recording_run(*args):
            # one sweep point: the k-th call runs seed k
            running.append(len(running))
            return run_seed(*args)

        def failing_kernel(gains, sinr_targets, noise):
            if running[-1] == bad:
                raise NumericalError("injected")
            return kernel(gains, sinr_targets, noise)

        monkeypatch.setattr(experiment, "_run_seed", recording_run)
        monkeypatch.setattr(feasibility, "min_power_vector", failing_kernel)
        assert_only_seed_dropped_as_numerical(cfg, clean, run_experiment(cfg), bad)

    def test_numerical_error_in_a_forked_part_drops_only_its_seed(self, monkeypatch):
        # the second of two parts, seeds 2 and 3, runs in a forked child,
        # which knows the seed it runs from what _draw_seeds last yielded
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        cfg = tiny_config(n_sensors=[3], seeds=4)
        clean = run_experiment(cfg)
        bad = next(r["seed_index"] for r in kept_records(clean) if r["seed_index"] >= 2)
        running = []
        draw_seeds, kernel = experiment._draw_seeds, feasibility.min_power_vector

        def recording_draw(cfg, n, density, point, ks):
            for k, drawn in zip(ks, draw_seeds(cfg, n, density, point, ks)):
                running.append(k)
                yield drawn

        def failing_kernel(gains, sinr_targets, noise):
            if running[-1] == bad:
                raise NumericalError("injected")
            return kernel(gains, sinr_targets, noise)

        fork = mock.Mock(wraps=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(experiment, "_draw_seeds", recording_draw)
        monkeypatch.setattr(feasibility, "min_power_vector", failing_kernel)
        assert_only_seed_dropped_as_numerical(cfg, clean, run_experiment(cfg), bad)
        assert fork.call_count == 1
        # the parent ran seeds 0 and 1 alone
        assert running == [0, 1]

    def test_one_record_per_seed_in_seed_order(self):
        cfg = mixed_drops_config()
        records = run_experiment(cfg).per_seed
        sweep_var, values = cfg.sweep()
        assert [(r["sweep_var"], r["value"], r["seed_index"]) for r in records] == [
            (sweep_var, value, k) for value in values for k in range(cfg.seeds)
        ]
        assert {r["dropped"] for r in records} == {None, "disc4", "disc8", "numerical"}
        for r in records:
            if r["dropped"] is None:
                extra = {"reference", "reference_kind", "max_active"}
            else:
                extra = set() if r["dropped"] == "numerical" else {"node", "reason"}
            assert set(r) == {"sweep_var", "value", "seed_index", "dropped", "counts"} | extra

    def test_rows_and_reference_counts_are_counted_from_the_records(self):
        cfg = mixed_drops_config()
        results = run_experiment(cfg)
        for key, counts in results.reference_counts.items():
            records = [r for r in results.per_seed if (r["sweep_var"], r["value"]) == key]
            kept = [r for r in records if r["dropped"] is None]
            dropped = [r["dropped"] for r in records if r["dropped"] is not None]
            by_model = {}
            for model in dropped:
                if model != "numerical":
                    by_model[model] = by_model.get(model, 0) + 1
            kinds = Counter(r["reference_kind"] for r in kept)
            assert counts == {
                "exhaustive": kinds["exhaustive"],
                "heuristic": kinds["heuristic"],
                "infeasible": len(dropped),
                "infeasible_by_model": by_model,
                "numerical": dropped.count("numerical"),
            }
            # insertion order: the order in which the models first dropped a seed
            assert list(counts["infeasible_by_model"]) == list(by_model)
            for row in results.rows:
                if (row["sweep_var"], row["value"]) == key:
                    assert (row["seed_count"], row["infeasible_count"]) == (
                        len(kept), len(dropped)
                    )
        by_model = results.reference_counts[("density", 0.5)]["infeasible_by_model"]
        assert list(by_model) == ["disc4", "disc8"]

    def test_per_seed_is_deterministic(self):
        cfg = mixed_drops_config()
        first, second = (json.dumps(run_experiment(cfg).per_seed) for _ in range(2))
        assert first == second

    def test_mean_max_active_stays_finite_when_its_sum_overflows(self):
        # slots near 1e308 s (a 1.7e308 s delay bound at a 1e-306 Hz
        # bandwidth) are finite, but ten of them sum past the float max
        cfg = ExperimentConfig.from_dict({
            "n_sensors": 8, "n_controllers": 3, "density": 5.0, "seeds": 10,
            "rate_models": ["cont"], "packet_bits_set": [50.0], "delay_rule": 1.7e308,
            "radio": {"bandwidth_hz": 1e-306}, "period_set": [1],
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = run_experiment(cfg)
        for row in results.rows:
            raws = [r["max_active"][f"{row['strategy']}/cont"] for r in kept_records(results)]
            assert len(raws) == 10 and max(raws) > sys.float_info.max / 10
            assert math.fsum(v / 10 for v in raws) == pytest.approx(
                row["mean_max_active_s"], rel=1e-15
            )
        # where np.mean is finite it is kept
        assert experiment._mean([0.1, 0.2, 0.7]) == float(np.mean([0.1, 0.2, 0.7]))
        assert math.isnan(experiment._mean([]))


# The sweeps run in 1, 2 and 3 processes: paper-sweep at both energy scales
# of same_results.py, dense-exhaustive, an odd seed count with drops under
# disc4, disc8 and numerical, and one seed, fewer than the processes.
FORKED_SWEEPS = {
    "paper-sweep": lambda: ExperimentConfig.from_dict(PAPER_SWEEP),
    "paper-sweep-energy": lambda: ExperimentConfig.from_dict(
        dict(PAPER_SWEEP, energy_scale=same_results.BINDING_ENERGY_SCALE)
    ),
    "dense-exhaustive": lambda: ExperimentConfig.from_dict(REPLAYED["dense-exhaustive"]),
    "odd-seeds": lambda: dataclasses.replace(mixed_drops_config(), seeds=7),
    "one-seed": lambda: tiny_config(seeds=1),
}


class Injected(Exception):
    """An error a test injects into a sweep; it pickles."""


class Unpicklable(Exception):
    """An error that does not pickle: its argument is a closure."""

    def __init__(self, k):
        super().__init__(lambda: k)


class Halt(BaseException):
    """An interruption that no sweep process catches."""


def raise_injected(point, k):
    raise Injected(f"{point}/{k}")


def raise_unpicklable(point, k):
    raise Unpicklable(k)


def exit_7(point, k):
    os._exit(7)


def sleep_60(point, k):
    time.sleep(60)


def halt(point, k):
    raise Halt


def assert_no_child_left():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedSweep:
    @pytest.mark.parametrize("name", FORKED_SWEEPS)
    def test_forked_sweeps_equal_the_one_process_sweep(self, name, monkeypatch, tmp_path):
        cfg = FORKED_SWEEPS[name]()
        fork = mock.Mock(wraps=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        outputs = []
        for processes in (1, 2, 3):
            monkeypatch.setattr(experiment, "_usable_cpus", lambda: processes)
            fork.reset_mock()
            results = run_experiment(cfg)
            assert fork.call_count == min(processes, cfg.seeds) - 1
            emit_results(results, tmp_path / "out.csv")
            outputs.append((
                (tmp_path / "out.csv").read_bytes(),
                json.dumps(results.rows),
                results.reference_counts,
                results.per_seed,
            ))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert_no_child_left()

    @pytest.mark.parametrize(
        "processes, faults, error, match, from_child",
        [
            # the child's point 0 precedes the parent's point 1
            (2, {(1, 0): raise_injected, (0, 2): raise_injected}, Injected, "^0/2$", True),
            (2, {(0, 1): raise_injected, (0, 3): raise_injected}, Injected, "^0/1$", False),
            # parts of seeds 0, 1 and 2-3: the first child's seed is earlier
            (3, {(0, 3): raise_injected, (0, 1): raise_injected}, Injected, "^0/1$", True),
            (2, {(0, 2): raise_unpicklable}, RuntimeError,
             "does not pickle(.|\n)*Unpicklable", False),
            (2, {(0, 2): exit_7}, RuntimeError, "exited 7 without its records", False),
            # the parent stops at once and kills the sleeping child
            (2, {(0, 0): halt, (0, 2): sleep_60}, Halt, None, False),
        ],
        ids=["child-first", "parent-first", "earlier-child", "unpicklable", "no-payload",
             "parent-halted"],
    )
    def test_the_earliest_seed_error_reaches_the_caller(
        self, monkeypatch, processes, faults, error, match, from_child
    ):
        # faults[point, k] runs before seed k of sweep point point is
        # scheduled, in whichever process runs that seed; an error raised in
        # a child carries the child's traceback as its cause
        draw_seeds = experiment._draw_seeds

        def faulty_draw(cfg, n, density, point, ks):
            for k, drawn in zip(ks, draw_seeds(cfg, n, density, point, ks)):
                if (point, k) in faults:
                    faults[point, k](point, k)
                yield drawn

        monkeypatch.setattr(experiment, "_usable_cpus", lambda: processes)
        monkeypatch.setattr(experiment, "_draw_seeds", faulty_draw)
        t0 = time.monotonic()
        with pytest.raises(error, match=match) as raised:
            run_experiment(tiny_config(seeds=4))
        assert time.monotonic() - t0 < 30
        cause = raised.value.__cause__
        assert (cause is not None) == from_child
        if from_child:
            assert re.match("in a forked sweep process:(.|\n)*Injected: 0/", str(cause))
        assert_no_child_left()

    def test_usable_cpus_fall_back_to_the_cpu_count_and_to_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert experiment._usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert experiment._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert experiment._usable_cpus() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.delattr(os, "fork")
        assert experiment._usable_cpus() == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_a_process_pinned_to_one_cpu_forks_nothing(self):
        code = (
            "import os\n"
            "from unittest import mock\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from ratesched import ExperimentConfig, run_experiment\n"
            "with mock.patch('os.fork', wraps=os.fork) as fork:\n"
            "    run_experiment(ExperimentConfig(n_sensors=[2], seeds=4))\n"
            "print(fork.call_count)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [])
        ))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


class TestSeedTriage:
    @pytest.mark.parametrize("kind", [InfeasibleInstanceError, NumericalError])
    def test_no_dropped_seed_error_outlives_its_seed(self, kind):
        # _run_seed raises a fresh error, so that no reference cycle (error,
        # traceback, _run_seed's frame, the drawn error) keeps either alive
        # until the GC runs; numerical drops come from gains that underflow
        if kind is InfeasibleInstanceError:
            cfg, n, density = paper_sweep()[0], 8, 5.0
        else:
            cfg, n, density = tiny_config(density=1e-180, n_sensors=4), 4, 1e-180

        def dropped_error_refs():
            refs = []
            for drawn in experiment._draw_seeds(cfg, n, density, 0, range(cfg.seeds)):
                if isinstance(drawn, kind):
                    refs.append(weakref.ref(drawn))
                    try:
                        experiment._run_seed(cfg, drawn, {})
                    except kind as exc:
                        refs.append(weakref.ref(exc))
            return refs

        gc.disable()
        try:
            refs = dropped_error_refs()
            assert refs and not any(ref() is not None for ref in refs)
        finally:
            gc.enable()

    def test_dropped_seed_prices_only_solos_and_never_schedules(self):
        # paper-sweep with cont alone at energy budgets 1e-4 of p_max *
        # delay: the block triage tests table models only, so every seed
        # that drops is dropped by the cont pricer's offsets(), in _run_seed,
        # which prices the solos in id order up to the dropped node's and
        # prices no group, enumerates no population and runs no allocator
        cfg = ExperimentConfig.from_dict(dict(PAPER_SWEEP, rate_models=["cont"], energy_scale=1e-4))
        dropped = [r for r in run_experiment(cfg).per_seed if r["dropped"] is not None]
        assert dropped and {r["dropped"] for r in dropped} == {"cont"}
        for record in dropped:
            assert list(record["counts"]) == ["cont"]
            counts = record["counts"]["cont"]
            assert counts["priced"][0] == record["node"] + 1
            assert not any(counts["priced"][1:])
            assert counts["checks"] >= record["node"] + 1
            idle = ("group_hits", "rejections", "over_cap", "candidates", "allocations")
            assert [counts[key] for key in idle] == [0] * len(idle)

    def test_a_dropped_seed_builds_no_pricer_after_its_model(self):
        # the triage builds each model's pricer only when it reaches it, in
        # the order disc4, disc8, cont: a seed dropped under disc4 builds no
        # disc8 and no cont pricer, and one the block triage drops builds
        # none; a record's counts name the pricers its seed built
        order = ["disc4", "disc8", "cont"]
        for record in run_experiment(paper_sweep()[0]).per_seed:
            assert list(record["counts"]) == (order if record["dropped"] is None else [])

    def test_paper_sweep_writes_the_benchmark_expected_csv(self, tmp_path):
        cfg, expected = paper_sweep()
        out = tmp_path / "paper-sweep.csv"
        emit_results(run_experiment(cfg), out)
        assert out.read_bytes() == expected.read_bytes()


class TestEmitResults:
    def test_csv_header_and_determinism(self, tmp_path):
        cfg = tiny_config(seeds=2)
        paths = []
        for run in range(2):
            out = tmp_path / f"r{run}.csv"
            emit_results(run_experiment(cfg), out)
            paths.append(out)
        first = paths[0].read_bytes()
        assert first == paths[1].read_bytes()
        assert first.decode().splitlines()[0] == HEADER

    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(seeds=2, n_sensors=[2])
        results = run_experiment(cfg)
        out = tmp_path / "r.json"
        emit_results(results, out, fmt="json")
        loaded = json.loads(out.read_text())
        assert loaded == [{c: row[c] for c in RESULT_COLUMNS} for row in results.rows]

    def test_json_writes_null_for_a_point_without_kept_seeds(self, tmp_path):
        # no seed survives at density 1e-6, so that point's means are NaN,
        # which strict JSON has no token for
        cfg = tiny_config(density=[5.0, 1e-6], n_sensors=3, seeds=3)
        out = tmp_path / "r.json"
        emit_results(run_experiment(cfg), out, fmt="json")

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        loaded = json.loads(out.read_text(), parse_constant=reject)
        means = ("mean_norm", "std_norm", "mean_max_active_s")
        empty = [row for row in loaded if row["seed_count"] == 0]
        kept = [row for row in loaded if row["seed_count"] > 0]
        assert empty and kept
        assert all(row[c] is None for row in empty for c in means)
        assert all(isinstance(row[c], float) for row in kept for c in means)

    def test_empty_rows_give_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_results(ExperimentResults([], {}, []), out)
        assert out.read_text().splitlines() == [HEADER]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_results(ExperimentResults([], {}, []), tmp_path / "x.bin", fmt="parquet")


class TestCli:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_successful_run(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, {"n_sensors": 2, "seeds": 2, "master_seed": 3}
        )
        out = tmp_path / "results.csv"
        assert main(["--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == HEADER

    def test_bad_config_exits_2(self, tmp_path, capsys):
        # the exhaustive search's size limits are not a setting, and valid
        # JSON that is not an object is no config
        for doc in ({"bogus_key": 1}, {"exhaustive_guard": 8}, [1, 2]) + INVALID_FIELDS:
            cfg = self.write_config(tmp_path, doc)
            assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2, doc
            err = capsys.readouterr().err
            assert isinstance(doc, dict) or "config must be a JSON object" in err

    def test_unwritable_out_exits_2_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        # an output path in a missing directory, or a directory itself, is
        # refused before any seed is scheduled
        def no_sweep(cfg):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_experiment", no_sweep)
        cfg = self.write_config(tmp_path, {"n_sensors": 2, "seeds": 2})
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            assert main(["--config", cfg, "--out", str(out)]) == 2
            assert f"cannot write {out}" in capsys.readouterr().err

    def test_write_error_after_the_sweep_exits_2(self, tmp_path, monkeypatch, capsys):
        def failing_emit(results, path, fmt):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "emit_results", failing_emit)
        cfg = self.write_config(tmp_path, {"n_sensors": 2, "seeds": 2})
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "disk full" in capsys.readouterr().err

    def run_cli(self, doc):
        """Exit code of the CLI on the config ``doc`` and the CSV rows it
        wrote (none unless it exits 0)."""
        with tempfile.TemporaryDirectory() as tmp:
            cfg = self.write_config(Path(tmp), doc)
            out = Path(tmp) / "x.csv"
            code = main(["--config", cfg, "--out", str(out)])
            rows = list(csv.DictReader(out.read_text().splitlines())) if out.exists() else []
        return code, rows

    def exit_code(self, field, value, n_sensors=2, **others):
        """Exit code of the CLI on a small config of ``n_sensors`` sensors with
        ``field`` (``radio.<key>`` for one radio field) set to ``value`` and
        the top-level fields ``others``."""
        doc = {"n_sensors": n_sensors, "seeds": 2, **others}
        name, _, radio_key = field.partition(".")
        doc[name] = {radio_key: value} if radio_key else value
        return self.run_cli(doc)[0]

    @pytest.mark.parametrize("name", ALL_DROPPED)
    def test_every_seed_dropped_exits_3_and_writes_nothing(self, name, capsys):
        doc, line = ALL_DROPPED[name]
        assert self.run_cli(dict({"seeds": 2}, **doc)) == (3, [])
        assert line in capsys.readouterr().err

    def test_extreme_field_values_exit_0_2_or_3(self):
        # every field at every extreme ends in a documented exit code; with 3
        # sensors, continuous prices of k >= 2 links meet the extreme slot
        # scales too
        for field in FUZZED_FIELDS:
            for value in filter(partial(_runs_briefly, field), EXTREMES + WRONG):
                for n in (2, 3):
                    assert self.exit_code(field, value, n) in (0, 2, 3), (field, value, n)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(
        fields=st.lists(st.sampled_from(COMBINED_FIELDS), min_size=2, max_size=3, unique=True),
        data=st.data(),
        rate_models=st.sampled_from(RATE_MODEL_SETS),
        n_sensors=st.integers(1, 4),
        seeds=st.integers(1, 2),
        master_seed=st.integers(0, 99),
    )
    def test_fuzzed_fields_together_exit_0_2_or_3(
        self, fields, data, rate_models, n_sensors, seeds, master_seed
    ):
        # holes come from combinations of extremes that each field alone
        # passes; no combination ends in a traceback or a non-finite mean
        doc = {"n_sensors": n_sensors, "seeds": seeds, "master_seed": master_seed}
        if rate_models is not None:
            doc["rate_models"] = rate_models
        for field in fields:
            value = data.draw(st.sampled_from(EXTREME_FLOATS), label=field)
            name, _, radio_key = field.partition(".")
            if radio_key:
                doc.setdefault("radio", {})[radio_key] = value
            else:
                doc[name] = [value] if name == "packet_bits_set" else value
        code, rows = self.run_cli(doc)
        assert code in (0, 2, 3), doc
        for row in rows:
            assert int(row["seed_count"]) == 0 or math.isfinite(float(row["mean_max_active_s"])), doc

    @pytest.mark.parametrize("field", sorted(FUZZED_FIELDS))
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(data=st.data())
    def test_fuzzed_field_exits_0_2_or_3(self, field, data):
        # one field at a time is fuzzed, so no other field's error masks it;
        # no value ends in a traceback
        value = data.draw(FUZZED_FIELDS[field])
        assert self.exit_code(field, value) in (0, 2, 3), (field, value)

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["--config", missing, "--out", str(tmp_path / "x.csv")]) == 2
        # a byte that is not UTF-8, and nesting deeper than the JSON parser
        # recurses
        path = tmp_path / "config.json"
        for data in (b'{"seeds": 2}\xff', b"[" * 100000):
            path.write_bytes(data)
            assert main(["--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
            assert "cannot read config" in capsys.readouterr().err

    def test_master_seed_changes_output(self, tmp_path):
        outs = []
        for name, seed in (("a", 1), ("b", 2), ("c", 1)):
            cfg = self.write_config(tmp_path, {"n_sensors": 3, "seeds": 2, "master_seed": seed})
            outs.append(tmp_path / f"{name}.csv")
            assert main(["--config", cfg, "--out", str(outs[-1])]) == 0
        out_a, out_b, out_c = (out.read_bytes() for out in outs)
        assert out_a != out_b
        assert out_a == out_c

    def test_json_format_flag(self, tmp_path):
        cfg = self.write_config(tmp_path, {"n_sensors": 2, "seeds": 1})
        out = tmp_path / "results.json"
        assert main(["--config", cfg, "--out", str(out), "--format", "json"]) == 0
        assert isinstance(json.loads(out.read_text()), list)
