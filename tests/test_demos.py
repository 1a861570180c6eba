import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ratesched import ExperimentConfig, InfeasibleInstanceError, experiment

from helpers import draw_instance

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    """Run the interpreter on ``args`` with the source tree importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    # demos write their output files to the working directory
    proc = run_python([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    # the README's library quick start must keep up with the API
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Library quick start\n+```python\n(.*?)```", readme, re.S).group(1)
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_config_names_every_field():
    # the README's config.json example must parse and name exactly the
    # config's fields, so a field added or removed shows up there
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"Every key is optional:\n+```json\n(.*?)```", readme, re.S).group(1)
    doc = json.loads(example)
    ExperimentConfig.from_dict(doc)
    assert set(doc) == {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_readme_one_seed_recipe_matches_the_batch_draw():
    # the README's recipe replays one seed of a sweep, one the sweep drops
    # under disc4, in one draw_seed call; its nodes and gains must be those
    # the independent single-seed oracle draws
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"at master seed 20260810:\n+```python\n(.*?)```", readme, re.S).group(1)
    recipe = {}
    exec(code, recipe)
    cfg, point, k = (recipe[name] for name in ("cfg", "point", "k"))
    assert (cfg.master_seed, point, k, cfg.sweep()[1][point]) == (20260810, 2, 17, 8)
    nodes, gains = draw_instance(cfg, 8, cfg.density, point, k)
    assert recipe["nodes"] == nodes and recipe["gains"].cols == gains.cols
    drawn = next(experiment._draw_seeds(cfg, 8, cfg.density, point, range(k, k + 1)))
    assert isinstance(drawn, InfeasibleInstanceError) and drawn.model == "disc4"
