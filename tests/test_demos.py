import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ratesched import ExperimentConfig, GainMatrix, experiment

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
    # the README's recipe draws one seed of a sweep alone; its gains,
    # periods and packet sizes must be that seed's rows of the block draw,
    # so the documented stream layout cannot drift from _draw_block
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"at master seed 20260810:\n+```python\n(.*?)```", readme, re.S).group(1)
    recipe = {}
    exec(code, recipe)
    cfg, point, k, n = (recipe[name] for name in ("cfg", "point", "k", "n"))
    assert (cfg.master_seed, point, k, n) == (20260810, 2, 17, 8)
    side = math.sqrt(n / cfg.density)
    gains, controller_of, traffic = experiment._draw_block(cfg, n, side, point, range(k, k + 1))
    ctrl = controller_of[0].tolist()
    assert list(recipe["topo"].controller_of) == ctrl
    assert recipe["gains"].cols == GainMatrix(gains[0][:, ctrl]).cols
    periods, packets = traffic[0].tolist()
    assert recipe["periods"].tolist() == [cfg.period_set[i] for i in periods]
    assert recipe["packet_bits"].tolist() == [cfg.packet_bits_set[i] for i in packets]
