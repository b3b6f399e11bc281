"""The Python demos print exactly the output committed in demos/expected/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["graph_space_tour", "brset_pipeline", "contrast_studies"])
def test_demo_prints_its_expected_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == (ROOT / "demos" / "expected" / f"{name}.txt").read_text()
