import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def run_python(*args):
    # A fresh interpreter on the package source, with every warning an error.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    done = run_python(str(demo))
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{k}" for k in range(1, len(README_BLOCKS) + 1)])
def test_readme_python_block_runs(block):
    done = run_python("-c", block)
    assert (done.returncode, done.stderr) == (0, "")
