"""Tests of the benchmark itself: the compare rule, the tracer and the output contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
from compare import compare_metric, compare_sets, format_rows, pair_order  # noqa: E402
from tracer import EXPECTED_LAYERS, FUNCTIONS, LAYERS, METHODS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


# -- compare rule on synthetic numbers ------------------------------------------


def _jitter(center: float, k: int, width: float) -> float:
    return center * (1.0 + width * ((k * 7) % 10 - 4.5) / 4.5)


def test_clear_gain_is_a_gain():
    parent = [_jitter(1.0, k, 0.01) for k in range(10)]
    change = [_jitter(0.8, k, 0.01) for k in range(10)]
    row = compare_metric(parent, change, "lower", 0.1)
    assert row["wins"] == 10 and row["verdict"] == "gain"


def test_gain_needs_nine_wins_in_ten():
    parent = [1.0] * 10
    change = [0.8] * 8 + [1.2] * 2
    row = compare_metric(parent, change, "lower", 0.25)
    assert row["wins"] == 8 and row["verdict"] == "within-bound"


def test_gain_needs_a_gap_larger_than_the_parent_iqr():
    parent = [0.90, 0.95, 1.0, 1.05, 1.10, 0.90, 0.95, 1.0, 1.05, 1.10]
    change = [p - 0.02 for p in parent]
    row = compare_metric(parent, change, "lower", 0.25)
    assert row["wins"] == 10 and row["verdict"] != "gain"


def test_ties_count_for_neither_side():
    row = compare_metric([1.0] * 10, [1.0] * 10, "lower", 0.1)
    assert row["wins"] == 0 and row["verdict"] == "within-bound"


def test_worse_beyond_the_bound_is_a_regression():
    parent = [_jitter(1.0, k, 0.01) for k in range(10)]
    change = [_jitter(1.2, k, 0.01) for k in range(10)]
    assert compare_metric(parent, change, "lower", 0.1)["verdict"] == "regression"
    assert compare_metric(parent, change, "lower", 0.25)["verdict"] == "within-bound"


def test_higher_is_better_metrics_flip_the_direction():
    parent = [_jitter(100.0, k, 0.01) for k in range(10)]
    assert compare_metric(parent, [v * 1.3 for v in parent], "higher", 0.1)["verdict"] == "gain"
    assert compare_metric(parent, [v * 0.7 for v in parent], "higher", 0.1)["verdict"] == "regression"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [_jitter(1.0, k, 0.4) for k in range(10)]
    change = [_jitter(1.05, k, 0.4) for k in range(10)]
    assert compare_metric(parent, change, "lower", 0.1)["verdict"] == "unresolved"


def test_wide_spread_is_resolved_when_every_change_run_is_better():
    parent = [_jitter(2.0, k, 0.3) for k in range(10)]
    change = [_jitter(1.0, k, 0.3) for k in range(10)]
    assert compare_metric(parent, change, "lower", 0.1)["verdict"] == "gain"


def test_pairs_alternate_which_side_runs_first():
    assert [pair_order(k)[0] for k in range(4)] == ["parent", "change", "parent", "change"]


def _records(scale, failed=0):
    return [
        {
            "failed": failed,
            "metrics": {m["name"]: {"value": scale * (1.0 + 0.001 * k)} for m in SPEC["end_to_end"]},
        }
        for k in range(10)
    ]


def test_compare_sets_gives_one_row_per_workload_and_metric():
    results = {
        "parent": {"verify-models": _records(1.0), "draw-library": _records(1.0)},
        "change": {"verify-models": _records(1.0), "draw-library": _records(1.0)},
    }
    rows = compare_sets(results, SPEC)
    assert len(rows) == 2 * len(SPEC["end_to_end"])
    assert {row["verdict"] for row in rows} == {"within-bound"}


def test_more_failed_ops_than_the_parent_voids_a_gain():
    change = _records(0.5)
    change[3]["failed"] = 2
    results = {"parent": {"draw-library": _records(1.0)}, "change": {"draw-library": change}}
    rows = compare_sets(results, SPEC)
    assert {row["verdict"] for row in rows} == {"failing"}
    assert rows[0]["failed"] == (0, 2)


def test_runs_without_a_result_are_left_out_of_the_pairs():
    change = _records(1.0)
    change[0] = {"failed": 1, "metrics": None}
    parent = _records(1.0)
    rows = compare_sets({"parent": {"draw-library": parent}, "change": {"draw-library": change}}, SPEC)
    assert {row["pairs"] for row in rows} == {9}
    assert {row["verdict"] for row in rows} == {"failing"}
    crashed = [{"failed": 1, "metrics": None}] * 10
    rows = compare_sets({"parent": {"draw-library": crashed}, "change": {"draw-library": crashed}}, SPEC)
    assert {row["verdict"] for row in rows} == {"no-result"}
    assert "no-result" in format_rows(rows)


def test_pairs_are_saved_after_every_pair(tmp_path, monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        if len(calls) == 2 * len(SPEC["workloads"]) + 1:
            raise KeyboardInterrupt
        calls.append((checkout, workload, seed, seconds))
        return {"seed": seed, "exit": 0, "correct": True, "attempted": 1, "failed": 0, "metrics": {}}

    monkeypatch.setattr(compare, "_run_once", fake_run)
    out = tmp_path / "pairs.json"
    with pytest.raises(KeyboardInterrupt):
        compare.run_pairs("p", "c", SPEC, str(out))
    saved = json.loads(out.read_text())
    assert all(len(saved[side][w["name"]]) == 1 for side in saved for w in SPEC["workloads"])
    assert {call[3] for call in calls} == {SPEC["run_seconds"]}
    # pair 0 runs the parent first, pair 1 the change, on the next seed
    assert calls[0][0] == "p" and calls[-1][0] == "c"
    assert calls[-1][2] == calls[0][2] + 1


# -- tracer self-test -----------------------------------------------------------


def test_every_layer_is_expected_on_some_workload():
    reached = set().union(*EXPECTED_LAYERS.values())
    assert reached == set(LAYERS)
    assert set(EXPECTED_LAYERS) == set(WORKLOADS)


def _bindings():
    """Every package attribute and class member, by identity."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "lancaster_lab" or name.startswith("lancaster_lab."):
            for key, value in vars(module).items():
                found[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        found[(name, key, attr)] = member
    return found


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracer_reaches_expected_layers_and_changes_nothing(name, tmp_path):
    import lancaster_lab.cli  # noqa: F401  (load every module the tracer wraps)

    workload = WORKLOADS[name](7, str(tmp_path))
    untraced = workload.check(0, workload.op(0)).digest
    before = _bindings()
    with Tracer() as tracer:
        # re-exported names are bound in more than one module
        assert len(tracer._restore) > len(FUNCTIONS) + len(METHODS)
        tracer.op = 0
        tracer.recording = True
        result = workload.op(0)
        tracer.recording = False
        traced = workload.check(0, result).digest
    assert traced == untraced
    assert tracer.unrestored() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    totals = tracer.layer_totals()
    missing = [layer for layer in EXPECTED_LAYERS[name] if totals[layer]["calls"] == 0]
    assert missing == []
    assert {span[0] for span in tracer.spans} == {0}


def test_self_time_excludes_child_spans():
    import lancaster_lab.cli as cli

    with Tracer() as tracer:
        tracer.recording = True
        assert cli.main(["maxcorr", "--fixture", "fgm:0.2", "--grid", "32", "--format", "json"]) == 0
        tracer.recording = False
    by_id = {span[1]: span for span in tracer.spans}
    for span in tracer.spans:
        children = [s for s in tracer.spans if s[2] == span[1]]
        duration = span[5] - span[4]
        assert span[6] == pytest.approx(duration - sum(c[5] - c[4] for c in children), abs=1e-12)
        assert span[2] == -1 or by_id[span[2]][4] <= span[4] <= span[5] <= by_id[span[2]][5]


def test_dropped_setups_leave_the_ops_on_the_first_modules(tmp_path):
    import run
    from workloads import DrawLibrary

    setups = run.Setups(os.path.join(ROOT, "src"), DrawLibrary, 7, str(tmp_path))
    setups.run()
    modules = run._package_modules()
    setups.run_and_drop()
    assert len(setups.times) == 2
    assert run._package_modules() == modules
    assert setups.workload.lancaster is sys.modules["lancaster_lab.lancaster"]


# -- output contract ------------------------------------------------------------


def _run(cwd, *args):
    argv = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric_of_the_spec(trace, section):
    proc = _run(ROOT, "--workload", "draw-library", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "draw-library", "--seed", "0"]
    proc = subprocess.run(
        argv + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
