"""Every demo script runs to completion against the checkout's package, printing its pinned stdout.

``tests/demo_stdout/<stem>.txt`` holds the exact stdout of each demo, as
``tests/cli_stdout`` does for the CLI: the demos are deterministic, so a
change to the package that moves any printed number shows here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).parent / "demo_stdout"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (PINNED / f"{demo.stem}.txt").read_text()
