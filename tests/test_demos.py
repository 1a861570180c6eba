import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ratesched import ExperimentConfig

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
