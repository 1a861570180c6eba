import json
import re
import shutil
import sys
from pathlib import Path

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
    for kind in ("checks", "kernel", "candidates", "allocator", "checks@1e-4"):
        counts = [re.search(" " + kind + r" (\d+) / (\d+),", line).groups() for line in lines]
        assert all(base == head != "0" for base, head in counts)
