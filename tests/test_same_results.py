import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import same_results  # noqa: E402

from ratesched import (  # noqa: E402
    ExperimentConfig, allocation, emit_results, experiment, run_experiment,
)

TINY = {"n_sensors": [3, 4], "n_controllers": 2, "seeds": 3, "rate_models": ["cont", "disc4"]}


def test_sweep_dumps_the_per_seed_records(tmp_path):
    # the driver leaves the CLI's CSV and the library's per_seed records of
    # one and the same sweep
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "src").symlink_to(ROOT / "src")
    csv_path, refs_path, per_seed_path = same_results.sweep(tree, "tiny", TINY, 5)
    assert refs_path.read_text().startswith("exit 0\n")
    results = run_experiment(ExperimentConfig.from_dict(dict(TINY, master_seed=5)))
    assert json.loads(per_seed_path.read_text()) == json.loads(json.dumps(results.per_seed))
    emit_results(results, tmp_path / "expected.csv")
    assert csv_path.read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_unknown_revision_exits_2_before_any_export(monkeypatch, capsys):
    def no_export(rev, dest):
        raise AssertionError("a tree was exported")

    monkeypatch.setattr(same_results, "export", no_export)
    with pytest.raises(SystemExit) as exc:
        same_results.main(["--base", "nosuchrev", "--head", "HEAD"])
    assert exc.value.code == 2
    assert "--base 'nosuchrev' names no commit" in capsys.readouterr().err


def test_drift_in_one_seed_is_a_diff(tmp_path, monkeypatch, capsys):
    # one max_active one ulp apart: the CSV and the refs agree, the per-seed
    # dump does not
    workloads = {"w": {"config": TINY, "default_seed": 1, "held_out_seed": 2}}
    configs = {}

    def fake_export(rev, dest):
        (dest / "perfbench").mkdir(parents=True)
        (dest / "perfbench" / "workloads.json").write_text(json.dumps(workloads))

    def fake_sweep(tree, workload, config, seed):
        configs[workload] = config
        value = 0.25
        if tree.name == "head" and workload == "w" and seed == 1:
            value = math.nextafter(value, 1.0)
        suffixes = (".csv", ".refs", ".per_seed.json")
        paths = [tree / f"{workload}-{seed}{suffix}" for suffix in suffixes]
        paths[0].write_text("same rows\n")
        paths[1].write_text("exit 0\n")
        paths[2].write_text(json.dumps([{"max_active": {"sna-mla/cont": value}}]))
        return tuple(paths)

    monkeypatch.setattr(same_results, "commits", lambda parser, args: {"base": "a", "head": "b"})
    monkeypatch.setattr(same_results, "export", fake_export)
    monkeypatch.setattr(same_results, "sweep", fake_sweep)
    assert same_results.main(["--base", "a", "--head", "b"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "diff w-1.per_seed.json" in out
    assert "same w-1.csv" in out and "same w-1.refs" in out
    assert sum(line.startswith("diff") for line in out) == 1
    # every workload also runs with binding energy budgets
    assert "same w-energy1e-4-1.per_seed.json" in out
    assert configs == {"w": TINY, "w-energy1e-4": dict(TINY, energy_scale=1e-4),
                       **same_results.EDGE_CONFIGS}
    # and so does each edge config, at one seed
    for name in same_results.EDGE_CONFIGS:
        assert f"same {name}-{same_results.EDGE_SEED}.per_seed.json" in out
    files = 2 * 3 * (2 + len(same_results.EXTRA_SEEDS)) + 3 * len(same_results.EDGE_CONFIGS)
    assert out[-1] == f"1 of {files} files differ"


def test_drift_in_the_counts_alone_moves_work(tmp_path, monkeypatch, capsys):
    # one seed's counts differ and its result does not: the results agree,
    # so the tool exits 0 and reports the work that moved
    workloads = {"w": {"config": TINY, "default_seed": 1, "held_out_seed": 2}}

    def fake_export(rev, dest):
        (dest / "perfbench").mkdir(parents=True)
        (dest / "perfbench" / "workloads.json").write_text(json.dumps(workloads))

    def fake_sweep(tree, workload, config, seed):
        checks = 3 if (tree.name, workload, seed) == ("head", "w", 1) else 2
        suffixes = (".csv", ".refs", ".per_seed.json")
        paths = [tree / f"{workload}-{seed}{suffix}" for suffix in suffixes]
        paths[0].write_text("same rows\n")
        paths[1].write_text("exit 0\n")
        paths[2].write_text(json.dumps([{"max_active": {"sna-mla/cont": math.nan},
                                         "counts": {"cont": {"checks": checks}}}]))
        return tuple(paths)

    monkeypatch.setattr(same_results, "commits", lambda parser, args: {"base": "a", "head": "b"})
    monkeypatch.setattr(same_results, "export", fake_export)
    monkeypatch.setattr(same_results, "sweep", fake_sweep)
    assert same_results.main(["--base", "a", "--head", "b"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith(("moved", "diff"))] == [
        "moved w-1.per_seed.json"
    ]
    sweeps = 2 * (2 + len(same_results.EXTRA_SEEDS)) + len(same_results.EDGE_CONFIGS)
    assert out[-2:] == [f"work moved in 1 of {sweeps} sweeps", f"0 of {3 * sweeps} files differ"]


def edge_results(name):
    config = dict(same_results.EDGE_CONFIGS[name], master_seed=same_results.EDGE_SEED)
    return run_experiment(ExperimentConfig.from_dict(config))


def test_edge_configs_reach_their_edges():
    # each edge config keeps some seeds and reaches the edge it is named for
    for name in same_results.EDGE_CONFIGS:
        assert any(r["dropped"] is None for r in edge_results(name).per_seed), name
    one_node = same_results.EDGE_CONFIGS["edge-one-node"]
    assert (one_node["n_sensors"], one_node["n_controllers"]) == (1, 1)
    density_sweep = ExperimentConfig.from_dict(same_results.EDGE_CONFIGS["edge-density-sweep"])
    assert density_sweep.sweep()[0] == "density"
    records = edge_results("edge-underflow").per_seed
    assert {r["value"] for r in records if r["dropped"] == "numerical"} == {1e-180}
    huge = same_results.EDGE_CONFIGS["edge-huge-integers"]
    assert min(huge["period_set"]) > 2**63 and max(huge["packet_bits_set"]) > 2**63


def edge_draws(name):
    """What ``_draw_seeds`` yields for every seed of one edge config."""
    cfg = ExperimentConfig.from_dict(
        dict(same_results.EDGE_CONFIGS[name], master_seed=same_results.EDGE_SEED)
    )
    var, values = cfg.sweep()
    for point, value in enumerate(values):
        n, density = (value, cfg.density) if var == "n_sensors" else (cfg.n_sensors, value)
        yield from experiment._draw_seeds(cfg, n, density, point, range(cfg.seeds))


def test_edge_configs_reach_the_solo_triage_fallbacks(monkeypatch):
    # table models alone, in reverse order: drops are charged to each
    records = edge_results("edge-tables-reversed").per_seed
    assert {r["dropped"] for r in records} == {None, "disc8", "disc4"}
    # a short delay bound shuts the lowest ladder levels out of some solos
    kept = [d for d in edge_draws("edge-short-delay") if isinstance(d, tuple)]
    assert kept and any(
        record[1] > 0 for _, _, solos in kept for record in solos["disc4"] if record
    )
    # every continuous solo binds on energy at t_lo, so it has no guess and
    # continuous_optimal prices it; some seeds are still kept
    kept = [d for d in edge_draws("edge-energy-1e-6") if isinstance(d, tuple)]
    assert kept and all(
        math.isnan(top) for _, _, solos in kept for _, top in solos["cont"]
    )
    # huge packets leave some continuous prices with no predicted cell but a
    # feasible anchor, so they probe t_lo next, on the way to the plain
    # bisection; at the benchmark workloads a missing cell has always meant
    # an infeasible anchor
    events = []
    predicted, check = allocation._predicted_cell, allocation.check_targets

    def recording_cell(y, t_lo, t_hi, anchor):
        cell = predicted(y, t_lo, t_hi, anchor)
        events.append(("cell", cell, anchor, t_lo))
        return cell

    def recording_check(gains, targets, radio, times, *args):
        report = check(gains, targets, radio, times, *args)
        events.append(("probe", times[0], report.feasible))
        return report

    monkeypatch.setattr(allocation, "_predicted_cell", recording_cell)
    monkeypatch.setattr(allocation, "check_targets", recording_check)
    edge_results("edge-huge-integers")
    unpredicted = [
        event for event, anchor_probe, next_probe in zip(events, events[1:], events[2:])
        if event[:2] == ("cell", None) and anchor_probe == ("probe", event[2], True)
        and next_probe[:2] == ("probe", event[3])
    ]
    assert unpredicted
