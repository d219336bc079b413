"""The scripts under scripts/ run end to end on the package next to them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reproduce_counterexample_confirms_the_headline_model():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ROOT / "scripts" / "reproduce_counterexample.py"
    result = subprocess.run(
        [sys.executable, "-W", "error", str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "counterexample confirmed:    True" in result.stdout.splitlines()
