#!/usr/bin/env python3
"""Compare a parent and a change by paired benchmark runs.

    python3 perfbench/compare.py run --parent DIR --change DIR --out pairs.json
    python3 perfbench/compare.py report pairs.json

``run`` measures both checkouts with this directory's run.py, so the
benchmark code and settings are identical on both sides: every workload of
BENCHMARK.json at its run_seconds. It makes ten pairs per workload, each pair
on its own seed, and alternates which side runs first. Each run's record
(exit code, correct, attempted, failed and metrics) is kept, and the file is
rewritten after every pair. ``report`` prints one row per workload and
end-to-end metric:

- failing:       the change has more failed ops than the parent on this
                 workload, so no gain counts on it; a run that exits nonzero
                 or prints no result counts as one failed op;
- no-result:     no pair has a result on both sides;
- gain:          the change wins at least 9 of every 10 pairs (ties count
                 for neither) and the medians differ by more than the
                 parent's inter-quartile range;
- unresolved:    the spread of either side exceeds the metric's bound,
                 unless every change run reads better than every parent run;
- regression:    the change's median is worse than the parent's by more than
                 the bound;
- within-bound:  otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_PY = os.path.join(HERE, "run.py")
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
PAIRS = 10
FIRST_SEED = 1000


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def compare_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Apply the paired rule to one metric; parent[k] and change[k] form pair k."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, nonzero number of parent and change runs")
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if _better(c, p, better))
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    worse_by = (c_med - p_med) / abs(p_med)
    if better == "higher":
        worse_by = -worse_by
    every_run_better = all(_better(c, p, better) for c in change for p in parent)
    if wins >= 0.9 * len(parent) and _better(c_med, p_med, better) and abs(c_med - p_med) > p_q3 - p_q1:
        verdict = "gain"
    elif spread > bound and not every_run_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "within-bound"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "spread": spread,
        "worse_by": worse_by,
        "verdict": verdict,
    }


def _failures(runs: list[dict]) -> int:
    return sum(run["failed"] for run in runs)


def compare_sets(results: dict, spec: dict) -> list[dict]:
    """One row per workload and end-to-end metric of the spec.

    ``results`` maps "parent" and "change" to {workload: [record of pair k]},
    each record holding a run's ``failed`` count and its ``metrics`` object,
    which is None when the run gave no result. Only pairs with metrics on both
    sides are compared.
    """
    rows = []
    for workload, parent_runs in results["parent"].items():
        change_runs = results["change"][workload]
        failed = (_failures(parent_runs), _failures(change_runs))
        both = [
            (p["metrics"], c["metrics"])
            for p, c in zip(parent_runs, change_runs)
            if p["metrics"] is not None and c["metrics"] is not None
        ]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if both:
                row = compare_metric(
                    [p[name]["value"] for p, _ in both],
                    [c[name]["value"] for _, c in both],
                    metric["better"],
                    metric["bound"],
                )
            else:
                nan = float("nan")
                row = {"parent": (nan,) * 3, "change": (nan,) * 3, "wins": 0, "pairs": 0, "verdict": "no-result"}
            if failed[1] > failed[0]:
                row["verdict"] = "failing"
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"], "failed": failed, **row})
    return rows


def pair_order(k: int) -> tuple[str, str]:
    """Which side runs first in pair k: the parent on even pairs, the change on odd."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def _run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """The record of one run; a run without a result counts as one failed op."""
    argv = [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    no_result = {"seed": seed, "correct": False, "attempted": 0, "failed": 1, "metrics": None}
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=900)
    except subprocess.TimeoutExpired:
        print(f"{checkout}: {workload} seed {seed} timed out", file=sys.stderr)
        return {**no_result, "exit": None}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        print(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return {**no_result, "exit": proc.returncode}
    return {"seed": seed, "exit": 0, **result}


def run_pairs(parent: str, change: str, spec: dict, out: str) -> dict:
    workloads = [w["name"] for w in spec["workloads"]]
    results: dict = {"parent": {w: [] for w in workloads}, "change": {w: [] for w in workloads}}
    checkouts = {"parent": parent, "change": change}
    for k in range(PAIRS):
        for workload in workloads:
            for side in pair_order(k):
                results[side][workload].append(
                    _run_once(checkouts[side], workload, FIRST_SEED + k, spec["run_seconds"])
                )
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(results, handle, indent=1)
            print(f"pair {k + 1}/{PAIRS} {workload} done", file=sys.stderr)
    return results


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<13} {'unit':<7} {'parent median [q1, q3]':<34}"
        f" {'change median [q1, q3]':<34} {'wins':>6} {'failed':>9}  verdict"
    ]
    for row in rows:
        p_q1, p_med, p_q3 = row["parent"]
        c_q1, c_med, c_q3 = row["change"]
        failed = "{}/{}".format(*row["failed"])
        lines.append(
            f"{row['workload']:<14} {row['metric']:<13} {row['unit']:<7}"
            f" {f'{p_med:.5g} [{p_q1:.5g}, {p_q3:.5g}]':<34}"
            f" {f'{c_med:.5g} [{c_q1:.5g}, {c_q3:.5g}]':<34}"
            f" {row['wins']:>3}/{row['pairs']:<2} {failed:>9}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run alternating pairs on two checkouts")
    run.add_argument("--parent", required=True, help="checkout root of the parent commit")
    run.add_argument("--change", required=True, help="checkout root of the change")
    run.add_argument("--out", required=True, help="where to write the paired results (JSON)")
    report = sub.add_parser("report", help="apply the rule to saved paired results")
    report.add_argument("results")
    args = parser.parse_args(argv)

    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.command == "run":
        results = run_pairs(args.parent, args.change, spec, args.out)
    else:
        with open(args.results, encoding="utf-8") as handle:
            results = json.load(handle)
    print(format_rows(compare_sets(results, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
