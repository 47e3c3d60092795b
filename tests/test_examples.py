"""The runnable examples stay runnable.

Each script runs in a fresh interpreter inside a temporary directory
(``live_honeyfarm.py`` writes its SQLite database into the working
directory) and must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["quickstart.py",
                                    "ransom_attack_demo.py",
                                    "live_honeyfarm.py"])
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
