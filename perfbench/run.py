#!/usr/bin/env python3
"""Benchmark of lancaster-lab: one workload per process, one closed-loop client.

Run from the root of a source checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload verify-models --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

A run sets up its workload (fresh import of the package plus input
generation and one-time builds), runs one untimed warm-up op, and then times
ops back to back until their summed time reaches --seconds. Each output is
checked against its closed-form reference between ops, outside the timed
region. Nine more set-ups are spread over the timed run; setup_s is the
median of the ten. Those nine are timed and then dropped: the ops keep
running on the first set-up's modules and workload, so anything the package
keeps at module level stays warm for the whole run.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
spends half of --seconds untraced and half with every layer wrapped by the
tracer, and reports the per-layer metrics per traced op, plus the tracing
overhead. The spans are written to perfbench/out/spans-<workload>.csv.

Standard output ends with an environment line and then one JSON object with
the keys correct, attempted, failed and metrics. ``--workload all`` runs every
workload in its own process and prints a table instead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 10
# Hard stop on one run's wall time, checks included, well inside 180 s.
WALL_LIMIT_S = 150.0
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LANCASTER_LAB_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cap_threads() -> int:
    """Run BLAS on one thread, before numpy loads; returns the usable CPU count.

    On a 2-CPU host shared with other tenants, two BLAS threads made the same
    bench op vary between 0.26 and 0.46 s without lowering its median; one
    thread keeps it within a few per cent.
    """
    for var in _THREAD_VARS:
        os.environ.setdefault(var, "1")
    return len(os.sched_getaffinity(0))


def _read_first_line(path: str, prefix: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as handle:
                level = handle.read().strip()
            with open(os.path.join(base, entry, "type")) as handle:
                kind = handle.read().strip()
            with open(os.path.join(base, entry, "size")) as handle:
                size = handle.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(nproc: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    correlation = sys.modules.get("lancaster_lab.correlation")
    kernels = {}
    if correlation is not None:
        curved = correlation.DEFAULT_CURVED_GRID
        model = correlation.DEFAULT_MODEL_GRID
        # n_x * n_y * 8 bytes at the default grids, before node dropping
        for name, n in (("disc", curved), ("pball:1", curved), ("pball:2", curved), ("fourpoint", 3), ("fgm:0.2", model)):
            kernels[name] = n * n * 8 / float(1 << 20)
        kernels["verify-models report"] = model * model * 8 / float(1 << 20)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "nproc": nproc,
        "cpu": _read_first_line("/proc/cpuinfo", "model name") or platform.machine(),
        "cache_per_core": _cache_sizes(),
        "kernel_mib": kernels,
    }


def _package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "lancaster_lab" or n.startswith("lancaster_lab.")}


def _import_package(src: str):
    """Import lancaster_lab afresh from ``src``; returns the package module."""
    for name in _package_modules():
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("lancaster_lab")
    importlib.import_module("lancaster_lab.cli")
    if not os.path.abspath(package.__file__).startswith(os.path.join(src, "")):
        raise RuntimeError(f"lancaster_lab was imported from {package.__file__}, not {src}")
    return package


class Phase:
    """Timings and check outcomes of one closed-loop measurement."""

    def __init__(self):
        self.times: list[float] = []
        self.deviations: list[float] = []
        self.first_digest: str | None = None
        self.bytes_out = 0
        self.failed = 0


def _run_op(workload, i: int, phase: Phase, tracer=None) -> None:
    if tracer is not None:
        tracer.op = i
        tracer.recording = True
    started = time.perf_counter()
    try:
        result = workload.op(i)
        error = None
    except Exception:  # an op that raises is a failed op, not a failed run
        result, error = None, traceback.format_exc()
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.recording = False
    phase.times.append(elapsed)
    if error is None:
        from workloads import CheckFailed

        try:
            checked = workload.check(i, result)
        except CheckFailed as exc:
            error = f"check failed: {exc}"
        except Exception:
            error = traceback.format_exc()
    if phase.first_digest is None:
        phase.first_digest = "" if error is not None else checked.digest
    if error is not None:
        phase.failed += 1
        print(f"op {i} failed: {error}", file=sys.stderr)
        return
    phase.deviations.append(checked.deviation)
    phase.bytes_out += checked.bytes_out


class Setups:
    """Sets the workload up afresh, keeping the time of each set-up."""

    def __init__(self, src: str, factory, seed: int, workdir: str):
        self.src, self.factory, self.seed, self.workdir = src, factory, seed, workdir
        self.times: list[float] = []
        self.workload = None

    def run(self) -> None:
        """The set-up the ops run on."""
        started = time.perf_counter()
        _import_package(self.src)
        self.workload = self.factory(self.seed, self.workdir)
        self.times.append(time.perf_counter() - started)

    def run_and_drop(self) -> None:
        """A set-up that is only timed: its modules and workload are dropped
        and the ones the ops run on are put back in sys.modules."""
        kept = _package_modules()
        workdir = os.path.join(self.workdir, "dropped")
        os.makedirs(workdir, exist_ok=True)
        started = time.perf_counter()
        _import_package(self.src)
        self.factory(self.seed, workdir)
        self.times.append(time.perf_counter() - started)
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(kept)


def _measure(setups: Setups, seconds: float, wall_started: float, tracer=None, resetups: int = 0) -> Phase:
    """Closed loop until the ops' summed time reaches ``seconds``.

    ``resetups`` further set-ups are spread evenly over the timed seconds. The
    host's speed drifts over seconds, so set-ups made back to back at the start
    would all see the same speed. They are timed and dropped, so every op runs
    on the workload the loop started with.
    """
    phase = Phase()
    interval = seconds / (resetups + 1)
    next_setup = interval
    workload = setups.workload
    i = 0
    while sum(phase.times) < seconds and time.perf_counter() - wall_started < WALL_LIMIT_S:
        _run_op(workload, i, phase, tracer)
        i += 1
        if resetups and sum(phase.times) >= next_setup:
            setups.run_and_drop()
            resetups -= 1
            next_setup += interval
    return phase


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args, nproc: int) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lancaster_lab", "__init__.py")):
        print(f"error: no lancaster_lab sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (the environment's cost, kept out of setup_s)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wall_started = time.perf_counter()
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = Setups(src, WORKLOADS[args.workload], args.seed, workdir)
        setups.run()
        warmup = Phase()
        _run_op(setups.workload, 0, warmup)
        if args.trace:
            result = _traced_result(args, setups, warmup, wall_started)
        else:
            result = _end_to_end_result(args, setups, warmup, wall_started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"environment": environment(nproc)}))
    print(json.dumps(result))
    return 0


def _counts(*phases: Phase) -> tuple[int, int]:
    return sum(len(p.times) for p in phases), sum(p.failed for p in phases)


def _end_to_end_result(args, setups: Setups, warmup: Phase, wall_started) -> dict:
    phase = _measure(setups, args.seconds, wall_started, resetups=SETUP_REPEATS - 1)
    workload = setups.workload
    attempted, failed = _counts(warmup, phase)
    deviations = warmup.deviations + phase.deviations
    # a float64 carries about 17 significant digits; no deviation means none passed
    worst = max(workload.aggregate_deviation(deviations), 1e-17) if deviations else 1.0
    metrics = {
        "op_p90_s": _metric(statistics.quantiles(phase.times, n=10, method="inclusive")[-1], "s"),
        "items_per_s": _metric(workload.items_per_op * len(phase.times) / sum(phase.times), "1/s"),
        "setup_s": _metric(statistics.median(setups.times), "s"),
        "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "err_digits": _metric(-math.log10(worst), "digits"),
        "ok_frac": _metric((attempted - failed) / attempted, "ratio"),
    }
    print(f"{workload.name}: {len(phase.times)} timed ops", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _traced_result(args, setups: Setups, warmup: Phase, wall_started) -> dict:
    from tracer import EXPECTED_LAYERS, Tracer, per_layer_metrics

    workload = setups.workload
    untraced = _measure(setups, args.seconds / 2.0, wall_started)
    with Tracer() as tracer:
        traced = _measure(setups, args.seconds / 2.0, wall_started, tracer)
    problems = [f"binding not restored: {name}" for name in tracer.unrestored()]
    if traced.first_digest != warmup.first_digest:
        problems.append("traced output differs from untraced output for op 0")
    totals = tracer.layer_totals()
    problems += [
        f"layer {layer} recorded no span"
        for layer in sorted(EXPECTED_LAYERS[workload.name])
        if totals[layer]["calls"] == 0
    ]
    for problem in problems:
        print(f"trace self-check: {problem}", file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload.name}.csv"))

    ops = len(traced.times)
    metrics = {
        name: _metric(value, unit) for name, (value, unit) in per_layer_metrics(totals, ops).items()
    }
    metrics["cli.bytes_out"] = _metric(traced.bytes_out / max(ops, 1), "bytes")
    metrics["trace.overhead_frac"] = _metric(
        statistics.mean(traced.times) / statistics.mean(untraced.times) - 1.0, "ratio"
    )
    attempted, failed = _counts(warmup, untraced, traced)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own process; a table of every metric with its unit."""
    from workloads import WORKLOADS

    all_correct = True
    env = None
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stdout.write(proc.stderr)
            print(f"{name}: exit code {proc.returncode}, no result")
            all_correct = False
            continue
        env = json.loads(lines[-2])["environment"]
        result = json.loads(lines[-1])
        all_correct = all_correct and result["correct"]
        print(f"== {name}  correct={result['correct']}  attempted={result['attempted']}")
        print(f"   failed_frac {result['failed'] / result['attempted']:.6g} ratio")
        for metric, entry in result["metrics"].items():
            print(f"   {metric} {entry['value']:.6g} {entry['unit']}")
    print("environment " + json.dumps(env))
    return 0 if all_correct else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    nproc = _cap_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
