#!/usr/bin/env python3
"""Write 44 CLI outputs of this checkout into OUTDIR, for byte comparisons.

Usage: python3 scripts/snapshot_outputs.py OUTDIR

The outputs are:

- ``bench`` as csv and json, and as csv at 17 cells per axis, an odd count
  whose middle cells straddle the axes;
- ``maxcorr`` json for the disc, pball:1, pball:1.5, fgm:0.2 and fourpoint
  fixtures and for the fourth verify-models config of seed 1;
- a 20 000-draw ``sample`` of the headline model (seed 3) as csv and json;
- a 20 000-draw ``sample`` csv (seed 3) of the third verify-models config of
  seed 1, table x beta(2, 2), whose inverse CDFs have many segments on both
  axes;
- ``report`` json and csv for the four verify-models configs of seeds
  1, 2, 3 and 7.

The model configs come from ``model_configs`` and ``HEADLINE`` in
``perfbench/workloads.py``, which is only read. The package is imported from
the ``src`` directory next to this script, so running the same script from two
checkouts and comparing them with ``diff -r`` tells which outputs changed.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import lancaster_lab  # noqa: E402
from lancaster_lab.cli import main  # noqa: E402

REPORT_SEEDS = (1, 2, 3, 7)
MAXCORR_FIXTURES = ("disc", "pball:1", "pball:1.5", "fgm:0.2", "fourpoint")
MAXCORR_MODEL = (1, 3)  # (seed, slot): config (d), the degree-16 one
SAMPLE_MODEL = (1, 2)  # (seed, slot): config (c), table x beta(2, 2)
SAMPLE_COUNT = 20_000
SAMPLE_SEED = 3


def _load_workloads():
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(outdir: str, name: str, *args: str) -> None:
    code = main([*args, "--out", os.path.join(outdir, name)])
    if code != 0:
        raise SystemExit(f"lancaster-lab {' '.join(args)} exited with code {code}")


def _sample(outdir: str, name: str, model_path: str, fmt: str) -> None:
    _run(
        outdir, name,
        "sample", "--model", model_path, "--count", str(SAMPLE_COUNT), "--seed", str(SAMPLE_SEED),
        "--format", fmt,
    )


def _write_config(directory: str, name: str, cfg: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(cfg, handle)
    return path


def snapshot(outdir: str) -> None:
    workloads = _load_workloads()
    os.makedirs(outdir, exist_ok=True)
    with tempfile.TemporaryDirectory() as configs:
        for fmt in ("csv", "json"):
            _run(outdir, f"bench.{fmt}", "bench", "--format", fmt)
        _run(outdir, "bench-grid17.csv", "bench", "--grid", "17")
        for name in MAXCORR_FIXTURES:
            tag = name.replace(":", "-")
            _run(outdir, f"maxcorr-{tag}.json", "maxcorr", "--fixture", name, "--format", "json")
        headline = _write_config(configs, "headline.json", workloads.HEADLINE)
        for fmt in ("csv", "json"):
            _sample(outdir, f"sample-headline.{fmt}", headline, fmt)
        for seed in REPORT_SEEDS:
            cfgs = workloads.model_configs(lancaster_lab, np.random.default_rng(seed))
            for k, cfg in enumerate(cfgs):
                path = _write_config(configs, f"seed{seed}-model{k}.json", cfg)
                stem = f"seed{seed}-model{k}"
                for fmt in ("json", "csv"):
                    _run(outdir, f"report-{stem}.{fmt}", "report", "--model", path, "--format", fmt)
                if (seed, k) == MAXCORR_MODEL:
                    _run(outdir, f"maxcorr-{stem}.json", "maxcorr", "--model", path, "--format", "json")
                if (seed, k) == SAMPLE_MODEL:
                    _sample(outdir, f"sample-{stem}.csv", path, "csv")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.splitlines()[2])
    snapshot(sys.argv[1])
