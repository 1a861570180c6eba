import importlib.util
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

import ratesched
from ratesched import allocation, experiment, feasibility, scheduling

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ab_sweeps  # noqa: E402

# one period, so that each kept seed's three nodes form one population, which
# an allocator groups
TINY = {
    "n_sensors": [3], "n_controllers": 2, "seeds": 3, "period_set": [1],
    "rate_models": ["cont", "disc4"],
}


def test_each_tree_imports_under_its_own_name():
    base = ab_sweeps.load(ROOT / "src", "ratesched_ab_test_base")
    head = ab_sweeps.load(ROOT / "src", "ratesched_ab_test_head")
    assert base.experiment is not head.experiment
    assert base.experiment.__name__ == "ratesched_ab_test_base.experiment"
    out = ab_sweeps.compare({"base": base, "head": head}, TINY, seed=1, reps=3, sweeps=2)
    assert out["same_results"] and out["reps"] == 3 and 0 <= out["head_wins"] <= 3
    assert [len(out["seconds"][side]) for side in ab_sweeps.SIDES] == [3, 3]
    assert out["ratio"] > 0
    # both sides of one tree do the same work, and every check runs the kernel
    assert out["checks"]["base"] == out["checks"]["head"] > 0
    assert out["kernel"]["base"] == out["kernel"]["head"] >= out["checks"]["head"]
    assert out["candidates"]["base"] == out["candidates"]["head"] > 0
    assert out["allocators"]["base"] == out["allocators"]["head"] > 0
    assert out["binding_checks"]["base"] == out["binding_checks"]["head"] > 0
    # each side's set-time quartiles, and the gain rule on them, which needs
    # the head side to win at least nine tenths of the reps
    for side in ab_sweeps.SIDES:
        spread = out["spread"][side]
        assert spread["runs"] == out["seconds"][side]
        assert spread["q1"] <= spread["median"] <= spread["q3"]
    assert isinstance(out["gain_rule"], bool)
    assert out["head_wins"] == 3 or not out["gain_rule"]


@pytest.mark.parametrize("workload", ["two periods", "dense-exhaustive"])
def test_counts_equal_the_perfbench_trace(workload):
    # ab_sweeps and perfbench/layers.py patch the library's seams each in
    # its own way: on the same sweeps, checks, kernel calls and allocator
    # calls must agree, so that a seam move that one follows and the other
    # misses fails here
    spec = importlib.util.spec_from_file_location("layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    if workload == "two periods":
        configs = [dict(TINY, n_sensors=[3, 4], seeds=6, period_set=[1, 2])]
    else:
        workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
        configs = [dict(workloads[workload]["config"], master_seed=seed) for seed in (1000, 1001)]
    cfgs = [ratesched.ExperimentConfig.from_dict(config) for config in configs]
    checks, kernel, _, allocated = ab_sweeps.count_calls(ratesched, cfgs)
    tracer = layers.Tracer()
    with layers.traced(tracer):
        for cfg in cfgs:
            experiment.run_experiment(cfg)
    traced = layers.exact_counts(tracer, layers.span_stats(tracer))
    assert checks == traced["feasibility.check.calls"] > 0
    assert kernel == traced["feasibility.kernel.calls"] > 0
    assert allocated == traced["scheduling.mla.calls"] + traced["scheduling.mua.calls"] > 0


def test_count_calls_puts_every_seam_back_when_a_sweep_raises(monkeypatch):
    def seams():
        return (
            allocation.check_targets, feasibility.min_power_vector, scheduling._candidates,
            dict(scheduling._ALLOCATORS),
        )

    def failing_seed(cfg, drawn):
        raise RuntimeError("injected")

    monkeypatch.setattr(experiment, "_run_seed", failing_seed)
    before = seams()
    with pytest.raises(RuntimeError, match="injected"):
        ab_sweeps.count_calls(ratesched, [ratesched.ExperimentConfig.from_dict(TINY)])
    assert seams() == before


def test_main_times_every_workload_of_the_head_tree(tmp_path, monkeypatch, capsys):
    def fake_export(rev, dest):
        shutil.copytree(ROOT / "src" / "ratesched", dest / "src" / "ratesched")
        (dest / "perfbench").mkdir()
        workloads = {
            "tiny": {"config": TINY},
            "tiny-cont": {"config": dict(TINY, rate_models=["cont"])},
        }
        (dest / "perfbench" / "workloads.json").write_text(json.dumps(workloads))

    monkeypatch.setattr(ab_sweeps, "export", fake_export)
    assert ab_sweeps.main(["--base", "a", "--head", "b", "--reps", "2", "--sweeps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["tiny", "tiny-cont"]
    assert all(line.endswith("same results") for line in lines)
    for line in lines:
        median = re.search(r" median set ([\d.]+) s /", line).group(1)
        q1, q2, q3, rule = re.search(
            r" base quartiles ([\d.]+) / ([\d.]+) / ([\d.]+) s, gain rule (yes|no), same results$",
            line,
        ).groups()
        assert float(q1) <= float(q2) <= float(q3) and q2 == median
        # two reps: the gain rule needs the head side to win both
        assert rule == "no" or " head won 2 of 2," in line
    for kind in ("checks", "kernel", "candidates", "allocator", "checks@1e-4"):
        counts = [re.search(" " + kind + r" (\d+) / (\d+),", line).groups() for line in lines]
        assert all(base == head != "0" for base, head in counts)


def test_fewer_than_two_reps_exit_2_before_any_export(monkeypatch, capsys):
    def no_export(rev, dest):
        raise AssertionError("a tree was exported")

    monkeypatch.setattr(ab_sweeps, "export", no_export)
    with pytest.raises(SystemExit) as exc:
        ab_sweeps.main(["--reps", "1"])
    assert exc.value.code == 2 and "--reps" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--sweeps", "0"), ("--seed", "-1")])
def test_bad_sweeps_or_seed_exit_2_before_any_export(monkeypatch, capsys, flag, value):
    # no sweeps gave a ratio of empty sets; seed -1 a master seed of -1000
    def no_export(rev, dest):
        raise AssertionError("a tree was exported")

    monkeypatch.setattr(ab_sweeps, "export", no_export)
    with pytest.raises(SystemExit) as exc:
        ab_sweeps.main(["--reps", "2", flag, value])
    assert exc.value.code == 2 and flag in capsys.readouterr().err


def test_unknown_workload_exits_2_before_any_sweep(monkeypatch, capsys):
    def fake_export(rev, dest):
        (dest / "perfbench").mkdir(parents=True)
        (dest / "perfbench" / "workloads.json").write_text(json.dumps({"tiny": {"config": TINY}}))

    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(ab_sweeps, "export", fake_export)
    monkeypatch.setattr(ab_sweeps, "load", lambda src, name: None)
    monkeypatch.setattr(ab_sweeps, "compare", no_sweep)
    with pytest.raises(SystemExit) as exc:
        ab_sweeps.main(["--reps", "2", "--workload", "tiny", "--workload", "nope"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "--workload nope" in err
