"""The benchmark's workloads: inputs made from a seed, one operation, and its check.

Each workload is built once per set-up (input generation plus any one-time
build) and then runs ``op(i)`` in a closed loop. ``check(i, result)`` runs
outside the timed region; it raises CheckFailed when an output is wrong and
otherwise returns a Checked record: the worst absolute deviation of the op's
reported numbers from their closed-form references, a digest of the output
bytes (to compare traced and untraced runs bit for bit) and the bytes the CLI
wrote.

The seed only generates inputs. Marginal kinds, degrees, grids and draw counts
are fixed, so the cost of an op does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import statistics
from typing import NamedTuple

import numpy as np

HEADLINE = {
    "marginal_x": {"kind": "uniform", "support": [0.0, 1.0]},
    "marginal_y": {"kind": "uniform", "support": [0.0, 1.0]},
    "rho": [0.05, 0.15],
}
# Closed forms of the headline model: uniform marginals on [0, 1] have mean 1/2
# and standard deviation 1/sqrt(12), and Pearson correlation equals rho_1.
_HEADLINE_MEAN = 0.5
_HEADLINE_SD = math.sqrt(1.0 / 12.0)
_HEADLINE_PEARSON = 0.05

# Per-op sampler seeds are drawn in set-up; a run never gets near this many ops.
_MAX_OPS = 100_000

# The acceptance suite gates fitted leading coefficients at degrees 1-5 only.
# Higher up, converting the fit to monomial coefficients loses accuracy with
# the condition of the monomial basis (up to ~5e-6 relative at degree 12), so
# those coefficients are neither gated nor scored here.
_LEADING_MAX_DEGREE = 5

# Sampling checks: every statistic within this many standard errors.
_SAMPLING_SIGMAS = 5.0


class CheckFailed(Exception):
    """An op produced an output that disagrees with its reference."""


class Checked(NamedTuple):
    deviation: float
    digest: str
    bytes_out: int


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_output(code: int, path: str) -> bytes:
    if code != 0:
        raise CheckFailed(f"lancaster-lab exited with code {code}")
    with open(path, "rb") as handle:
        return handle.read()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


# -- verify-models --------------------------------------------------------------


def _uniform(rng) -> dict:
    lo = float(rng.uniform(-1.0, 1.0))
    return {"kind": "uniform", "support": [lo, lo + float(rng.uniform(0.5, 2.0))]}


def _beta(rng, params=None) -> dict:
    # integer parameters: with t**0.5-type endpoint behaviour the 128-node
    # Stieltjes rule misses the degree-8 orthonormality check (1e-10)
    lo = float(rng.uniform(-1.0, 1.0))
    a, b = params or (float(v) for v in rng.choice([1.0, 2.0, 3.0, 4.0], size=2))
    return {
        "kind": "beta",
        "support": [lo, lo + float(rng.uniform(0.5, 2.0))],
        "params": {"a": a, "b": b},
    }


# The table slot sets err_digits: its kinks limit the grid-200 estimates to
# ~1e-7. The seed jitters a fixed shape and the slot's beta partner is fixed,
# so the score is steady across seeds.
_TABLE_SHAPE = (0.6, 1.2, 0.9, 1.4, 0.7)


def _table(rng) -> dict:
    lo = float(rng.uniform(-1.0, 1.0))
    knots = lo + np.linspace(0.0, float(rng.uniform(0.5, 2.0)), 5)
    values = np.array(_TABLE_SHAPE) * rng.uniform(0.95, 1.05, size=5)
    mass = float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(knots)))
    return {
        "kind": "table",
        "support": [float(knots[0]), float(knots[-1])],
        "params": {"x": [float(v) for v in knots], "density": [float(v) for v in values / mass]},
    }


def _admissible_lambda(lab, cfg: dict, count: int) -> float:
    """1 / sum_n n c_n d_n, from the sup norms of the same marginals at the same degree."""
    probe = lab.model_from_config({**cfg, "rho": [0.0] * count})
    n = np.arange(1, count + 1)
    c = probe.system_x.sup_norms[1 : count + 1]
    d = probe.system_y.sup_norms[1 : count + 1]
    return 1.0 / float(np.sum(n * c * d))


def model_configs(lab, rng) -> list[dict]:
    """The four verify-models configs, in the order the op cycles through them."""
    r2 = float(rng.uniform(0.10, 0.15))
    headline_family = {
        "marginal_x": _uniform(rng),
        "marginal_y": _uniform(rng),
        "rho": [r2 * float(rng.uniform(0.2, 0.45)), r2],
    }
    beta_quadratic = {
        "marginal_x": _beta(rng),
        "marginal_y": _uniform(rng),
        "rho_builder": {"type": "quadratic", "N": 4},
    }
    table_linear = {"marginal_x": _table(rng), "marginal_y": _beta(rng, (2.0, 2.0))}
    lam = float(rng.uniform(0.5, 0.9)) * _admissible_lambda(lab, table_linear, 3)
    table_linear["rho_builder"] = {"type": "linear", "N": 3, "lambda": lam}
    deep_quadratic = {
        "marginal_x": _uniform(rng),
        "marginal_y": _beta(rng),
        "rho_builder": {"type": "quadratic", "N": 12},
        "max_degree": 16,
    }
    return [headline_family, beta_quadratic, table_linear, deep_quadratic]


def report_deviation(doc: dict) -> float:
    """Check one ``report`` document; return its worst deviation from closed form.

    Tolerances are those of the acceptance suite: Pearson within 1e-6 of
    rho_1, the SVD estimate within 1e-3 of max |rho_n| and ACE within 1e-3 of
    SVD, eigenfunction and affine residuals within 1e-8, fitted leading
    coefficients of degree 1-5 within 1e-7 (relative to max(|target|, 1)).
    """
    rho = doc["model"]["rho"]
    top = max(abs(r) for r in rho)
    _require(doc["maxcorr_analytic"] == top, "maxcorr_analytic is not max |rho_n|")
    _require(0.0 <= doc["bound_value"] <= 1.0 + 1e-12, "coefficient bound exceeded")
    deviations = {
        "pearson": abs(doc["pearson"] - rho[0]),
        "maxcorr_svd": abs(doc["maxcorr_svd"] - top),
        "maxcorr_ace": abs(doc["maxcorr_ace"] - top),
    }
    _require(deviations["pearson"] <= 1e-6, f"pearson off by {deviations['pearson']:.3e}")
    _require(deviations["maxcorr_svd"] <= 1e-3, f"R_svd off by {deviations['maxcorr_svd']:.3e}")
    _require(
        abs(doc["maxcorr_ace"] - doc["maxcorr_svd"]) <= 1e-3, "R_ace and R_svd disagree beyond 1e-3"
    )
    _require(len(doc["regressions"]) == len(rho), "one regression entry per coefficient expected")
    for entry in doc["regressions"]:
        n = entry["degree"]
        for side in ("x_given_y", "y_given_x"):
            eigen = entry["eigen"][side]
            poly = entry["polynomial"][side]
            _require(eigen["target"] == rho[n - 1], f"eigen target of degree {n} is not rho_{n}")
            deviations[f"eigen.{n}.{side}"] = eigen["max_residual"]
            deviations[f"poly_fit.{n}.{side}"] = poly["max_residual"]
            if n <= _LEADING_MAX_DEGREE:
                target = poly["target_leading"]
                deviations[f"leading.{n}.{side}"] = abs(poly["fitted_coeffs"][-1] - target) / max(
                    abs(target), 1.0
                )
        if n == 1:
            linear = entry["linear"]
            a1_target = entry["polynomial"]["x_given_y"]["target_leading"]
            b1_target = entry["polynomial"]["y_given_x"]["target_leading"]
            deviations["linear.residual"] = linear["residual"]
            deviations["linear.a1"] = abs(linear["a1"] - a1_target)
            deviations["linear.b1"] = abs(linear["b1"] - b1_target)
    for name, value in deviations.items():
        if name.startswith(("eigen.", "linear.")):
            _require(value <= 1e-8, f"{name} residual {value:.3e} exceeds 1e-8")
        elif name.startswith("leading."):
            _require(value <= 1e-7, f"{name} deviation {value:.3e} exceeds 1e-7")
    expected_gap = top - abs(rho[0])
    _require(abs(doc["gap"] - expected_gap) <= 2e-3, f"gap {doc['gap']!r} is not {expected_gap!r}")
    # the report calls a gap positive above 5e-3; allow the SVD tolerance on top
    if expected_gap > 5e-3 + 1e-3:
        _require(doc["summary"]["counterexample_confirmed"], "counterexample not confirmed")
    return max(deviations.values())


class VerifyModels:
    """``report --model <cfg>`` on each of four seed-drawn configs; one op is the cycle.

    One report takes 0.05-0.3 s depending on its config, so single-report
    times fall in four clusters and their median jumps between clusters from
    run to run; the time of the whole cycle is steady.
    """

    name = "verify-models"
    items_per_op = 4
    aggregate_deviation = staticmethod(max)

    def __init__(self, seed: int, workdir: str):
        lab = importlib.import_module("lancaster_lab")
        self.cli = importlib.import_module("lancaster_lab.cli")
        rng = np.random.default_rng(seed)
        self.paths = [
            _write_json(os.path.join(workdir, f"model{k}.json"), cfg)
            for k, cfg in enumerate(model_configs(lab, rng))
        ]
        self.outs = [os.path.join(workdir, f"report{k}.json") for k in range(len(self.paths))]

    def op(self, i: int):
        return [
            self.cli.main(["report", "--model", path, "--out", out])
            for path, out in zip(self.paths, self.outs)
        ]

    def check(self, i: int, result) -> Checked:
        documents = [_read_output(code, out) for code, out in zip(result, self.outs)]
        worst = max(report_deviation(json.loads(data)) for data in documents)
        data = b"".join(documents)
        return Checked(worst, _digest(data), len(data))


# -- fixture-sweep --------------------------------------------------------------

# Closed forms, independent of the package: (Pearson, maximal correlation,
# tolerance on the estimates). The curved-boundary fixtures converge O(1/n) at
# 400 nodes, which is why their gate is 0.01 in the acceptance suite.
FIXTURE_REFERENCES = {
    "disc": (0.0, 1.0 / 3.0, 0.01),
    "pball:1": (0.0, 0.5, 0.01),
    "pball:2": (0.0, 1.0 / 3.0, 0.01),
    "fourpoint": (0.0, 1.0, 1e-9),
    "fgm:0.2": (0.2, 0.2, 1e-3),
}


def bench_deviation(text: str) -> float:
    """Check one ``bench`` CSV; return its worst deviation from the closed forms."""
    lines = text.splitlines()
    _require(lines[0] == "fixture,pearson,R_analytic,R_svd,R_ace,gap", "unexpected bench header")
    rows = {fields[0]: [float(v) for v in fields[1:]] for fields in (l.split(",") for l in lines[1:])}
    _require(set(rows) == set(FIXTURE_REFERENCES), f"unexpected fixtures {sorted(rows)}")
    worst = 0.0
    for name, (pearson_ref, maxcorr_ref, tol) in FIXTURE_REFERENCES.items():
        pearson, analytic, svd, ace, _gap = rows[name]
        _require(abs(analytic - maxcorr_ref) <= 1e-15, f"{name}: R_analytic is {analytic!r}")
        errors = (abs(pearson - pearson_ref), abs(svd - maxcorr_ref), abs(ace - maxcorr_ref))
        _require(errors[0] <= 1e-4, f"{name}: pearson off by {errors[0]:.3e}")
        _require(max(errors[1:]) <= tol, f"{name}: maximal correlation off by {max(errors[1:]):.3e}")
        _require(abs(ace - svd) <= 1e-3, f"{name}: R_ace and R_svd disagree beyond 1e-3")
        worst = max(worst, *errors)
    return worst


class FixtureSweep:
    """``bench`` at default grids over the built-in fixtures; the seed is unused."""

    name = "fixture-sweep"
    items_per_op = len(FIXTURE_REFERENCES)
    aggregate_deviation = staticmethod(max)

    def __init__(self, seed: int, workdir: str):
        self.cli = importlib.import_module("lancaster_lab.cli")
        self.out = os.path.join(workdir, "bench.csv")

    def op(self, i: int):
        return self.cli.main(["bench", "--out", self.out])

    def check(self, i: int, result) -> Checked:
        data = _read_output(result, self.out)
        return Checked(bench_deviation(data.decode("utf-8")), _digest(data), len(data))


# -- draw-library ---------------------------------------------------------------


def sampling_deviation(samples: np.ndarray) -> float:
    """Empirical marginal means and Pearson against the headline model's closed forms.

    Each must lie within five standard errors. Pearson is estimated with the
    known marginal moments, so it is the mean of iid products and its
    standard error is their sample deviation over sqrt(n).
    """
    _require(samples.ndim == 2 and samples.shape[1] == 2, f"samples have shape {samples.shape}")
    _require(bool(np.all((samples >= 0.0) & (samples <= 1.0))), "a draw lies outside [0, 1]^2")
    n = samples.shape[0]
    standardized = (samples - _HEADLINE_MEAN) / _HEADLINE_SD
    products = standardized[:, 0] * standardized[:, 1]
    stats = (
        (float(np.mean(samples[:, 0])), _HEADLINE_MEAN, _HEADLINE_SD / math.sqrt(n)),
        (float(np.mean(samples[:, 1])), _HEADLINE_MEAN, _HEADLINE_SD / math.sqrt(n)),
        (float(np.mean(products)), _HEADLINE_PEARSON, float(np.std(products)) / math.sqrt(n)),
    )
    for value, reference, stderr in stats:
        _require(
            abs(value - reference) <= _SAMPLING_SIGMAS * stderr,
            f"sample statistic {value!r} is more than 5 standard errors from {reference!r}",
        )
    return max(abs(value - reference) for value, reference, _ in stats)


def _op_seeds(seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 0x5EED]).integers(0, 2**63, size=_MAX_OPS)


class DrawLibrary:
    """``sample_joint(model, 200_000, seed_i)`` on the headline model built in set-up."""

    name = "draw-library"
    count = 200_000
    items_per_op = count
    # One op's deviation is sampling noise; the median over ops is steady and,
    # unlike the worst, does not fall as more ops fit in a run.
    aggregate_deviation = staticmethod(statistics.median)

    def __init__(self, seed: int, workdir: str):
        self.lancaster = importlib.import_module("lancaster_lab.lancaster")
        self.model = self.lancaster.model_from_config(HEADLINE)
        self.seeds = _op_seeds(seed)

    def op(self, i: int):
        return self.lancaster.sample_joint(self.model, self.count, int(self.seeds[i]))

    def check(self, i: int, result) -> Checked:
        _require(result.shape == (self.count, 2), f"got {result.shape} draws")
        return Checked(sampling_deviation(result), _digest(result.tobytes()), 0)


WORKLOADS = {cls.name: cls for cls in (VerifyModels, FixtureSweep, DrawLibrary)}
