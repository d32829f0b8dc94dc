"""Smoke test: demos 01-04 run to completion from a scratch working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "01_feature_extraction",
    "02_shares_and_recovery",
    "03_registration_and_retrieval",
    "04_view_synthesis",
])
def test_demo_runs(demo, tmp_path):
    # TMPDIR keeps demo 03's temporary registry directory inside tmp_path even
    # if the demo dies before its TemporaryDirectory is removed
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
