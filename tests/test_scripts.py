"""The scripts under scripts/ run end to end on the package next to them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_reproduce_counterexample_confirms_the_headline_model():
    result = _run_script("reproduce_counterexample.py")
    assert result.returncode == 0, result.stderr
    assert "counterexample confirmed:    True" in result.stdout.splitlines()


def test_snapshot_outputs_writes_the_same_42_files_twice(tmp_path):
    snapshots = []
    for run in ("first", "second"):
        result = _run_script("snapshot_outputs.py", str(tmp_path / run))
        assert result.returncode == 0, result.stderr
        files = {path.name: path.read_bytes() for path in (tmp_path / run).iterdir()}
        assert len(files) == 42 and all(files.values())
        snapshots.append(files)
    assert snapshots[0] == snapshots[1]
