"""The scripts under scripts/ run end to end on the package next to them."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """``python -W error`` with the package next to these tests first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return _run_python(str(ROOT / "scripts" / name), *args)


def test_readme_quick_start_runs_and_prints_the_headline_numbers():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    result = _run_python("-c", code)
    assert result.returncode == 0, result.stderr
    pearson, r_svd, r_analytic, slopes, confirmed = result.stdout.splitlines()
    assert float(pearson) == pytest.approx(0.05, abs=1e-6)
    assert float(r_svd) == pytest.approx(0.15, abs=1e-3)
    assert float(r_analytic) == pytest.approx(0.15, abs=1e-3)
    assert [float(slope) for slope in slopes.split()] == pytest.approx([0.05, 0.05], abs=1e-6)
    assert confirmed == "True"


def test_reproduce_counterexample_confirms_the_headline_model():
    result = _run_script("reproduce_counterexample.py")
    assert result.returncode == 0, result.stderr
    assert "counterexample confirmed:    True" in result.stdout.splitlines()


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """Two snapshot_outputs.py directories written by this checkout."""
    root = tmp_path_factory.mktemp("snapshots")
    runs = []
    for run in ("first", "second"):
        result = _run_script("snapshot_outputs.py", str(root / run))
        assert result.returncode == 0, result.stderr
        runs.append(root / run)
    return runs


def test_snapshot_outputs_writes_the_same_44_files_twice(snapshots):
    contents = [{path.name: path.read_bytes() for path in run.iterdir()} for run in snapshots]
    for files in contents:
        assert len(files) == 44 and all(files.values())
    assert contents[0] == contents[1]


def test_compare_snapshots_reports_only_an_edited_value(snapshots, tmp_path):
    first, second = snapshots
    result = _run_script("compare_snapshots.py", str(first), str(second))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["0 of 44 common files differ in bytes"]

    edited = tmp_path / "edited"
    shutil.copytree(second, edited)
    report = edited / "report-seed1-model0.json"
    doc = json.loads(report.read_text())
    scale = max(
        abs(c) for entry in doc["regressions"] for c in entry["polynomial"]["x_given_y"]["fitted_coeffs"]
    )
    doc["regressions"][1]["polynomial"]["x_given_y"]["fitted_coeffs"][2] += 2.0**-40
    report.write_text(json.dumps(doc, indent=2))
    rows = (edited / "bench.csv").read_text().splitlines()
    rows[2] = rows[2].replace("pball:1", "pball:one")
    (edited / "bench.csv").write_text("\n".join(rows) + "\n")
    result = _run_script("compare_snapshots.py", str(first), str(edited))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "bench.csv: fixture: 1 changed, largest change -",
        "report-seed1-model0.json: regressions[*].polynomial.x_given_y.fitted_coeffs[*]: 1 changed,"
        f" largest change {2.0**-40:.3g} ({2.0**-40 / scale:.3g} of its largest |value|)",
        "2 of 44 common files differ in bytes",
    ]
