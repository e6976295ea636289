"""Every script in demos/ runs to completion against the package source,
under the test suite's warning policy: a RuntimeWarning or a
DeprecationWarning is an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-W", "error::DeprecationWarning", str(demo)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
