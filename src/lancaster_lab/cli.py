"""Command-line front end.

Subcommands and the flags each one reads (it accepts no other):
    validate   --model (required), --out, --format
               check the coefficient bound of a model config; exit 2 on failure
    report     --model | --fixture, --grid, --tol, --out, --format
               full verification report (correlations + regressions) as JSON
    maxcorr    --model | --fixture, --grid, --out, --format
               singular spectrum and optimizer samples of a model or fixture
    sample     --model | --fixture, --count, --seed, --out, --format
               draws from a model by rejection sampling, written in chunks
    bench      --grid, --tol, --out, --format
               run every built-in fixture and tabulate the estimates

Models come from ``--model PATH`` (JSON config) or ``--fixture NAME`` for the
built-ins (disc, pball:p, fourpoint, fgm:rho1). ``--grid`` is at most
MAX_GRID, ``--count`` at most MAX_COUNT and ``--tol`` at most MAX_TOL.
Flags are spelt in full: a prefix such as ``--g`` is an unknown flag.
Exit codes: 0 success, 1 config error (a malformed command line included),
2 validation failure (coefficient bound), 3 numerical failure; each failure
prints one machine-parsable ``error: <kind>: <detail>`` line on stderr.

CSV output uses '.' decimals, 17 significant digits and LF line endings so
doubles round-trip losslessly and runs diff cleanly. Files are written
atomically (temp file + rename) with the mode the umask gives a new file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

from .correlation import (
    DEFAULT_MODEL_GRID,
    MIN_GRID,
    AceConvergenceError,
    SpectralFailureError,
    correlation_report,
    discretize_model,
    maxcorr_decomposition,
)
from .fixtures import BENCH_FIXTURES, resolve_fixture
from .lancaster import (
    BoundViolationError,
    ModelVerificationError,
    model_from_config,
    model_to_config,
    sample_joint,
)
from .orthopoly import OrthonormalityError
from .quadrature import _MAX_AXIS_NODES, _count, _real
from .regression import counterexample_report

__all__ = ["RunConfig", "run", "main"]

# Input limits, checked before anything is allocated. A grid of n nodes per
# axis (at least correlation.MIN_GRID) makes an n x n kernel and an O(n^3) SVD:
# the library's tensor-grid limit.
# Draws are held in memory at 16 bytes each: 160 MB at 10 million. A looser
# ACE tolerance than MAX_TOL stops the sweeps before the estimate converges.
MAX_GRID = _MAX_AXIS_NODES
MAX_COUNT = 10_000_000
MAX_TOL = 1e-3

# Rows that `sample` formats per write: its output takes the same memory at any --count.
_SAMPLE_CHUNK_ROWS = 16384


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, fully resolved.

    ``format`` None takes the command's default from ``_COMMANDS``: json for
    ``validate`` and ``report``, csv for the others.
    """

    command: str
    model_path: str | None = None
    fixture: str | None = None
    grid: int | None = None
    seed: int = 0
    output_path: str | None = None
    format: str | None = None
    count: int = 1000
    tol: float = 1e-9

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.command == "validate" and self.model_path is None:
            raise ValueError("validate needs a model config: --model PATH")
        if self.grid is not None:
            _count(self.grid, "--grid", MIN_GRID, MAX_GRID)
        if self.format is None:
            object.__setattr__(self, "format", _COMMANDS[self.command][2])
        if self.format not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
        _count(self.count, "--count", 1, MAX_COUNT)
        _count(self.seed, "--seed", 0, 2**64 - 1)
        tol = _real(self.tol, "--tol")
        if not tol > 0.0:
            raise ValueError(f"--tol must be positive, got {tol}")
        if tol > MAX_TOL:
            raise ValueError(f"--tol must be at most {MAX_TOL}, got {tol}")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_atomic(path: str, chunks) -> None:
    """Write text chunks to a temp file and rename it to path, with the mode open() would give."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lancaster-lab-")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            umask = os.umask(0)  # reading the umask means setting it; it is restored at once
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)  # mkstemp makes the file 0600 whatever the umask
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(config: RunConfig, chunks) -> None:
    """Write text chunks to --out, atomically, or to stdout."""
    if config.output_path:
        _write_atomic(config.output_path, chunks)
    else:
        sys.stdout.writelines(chunks)


def _csv(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load_model_config(config: RunConfig) -> dict:
    with open(config.model_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _resolve(config: RunConfig):
    """(fixture, model) from --fixture or --model; either is None when absent."""
    if config.model_path is not None and config.fixture is not None:
        raise ValueError("--model and --fixture are mutually exclusive")
    if config.model_path is not None:
        return None, model_from_config(_load_model_config(config))
    if config.fixture is None:
        raise ValueError("one of --model or --fixture is required")
    fixture = resolve_fixture(config.fixture)
    return fixture, fixture.model


_NOT_A_MODEL = "fixture {!r} is not an expansion model; this command needs --model or an fgm fixture"


# -- subcommands -------------------------------------------------------------


def _cmd_validate(config: RunConfig) -> int:
    """Check the coefficient bound of a model config."""
    cfg = _load_model_config(config)
    try:
        model = model_from_config(cfg)
        bound = model.coeffs.bound_value
        ok = True
    except BoundViolationError as exc:
        bound = exc.bound_value
        ok = False
    if config.format == "json":
        # JSON has no infinity: a bound past the float range is written as null
        finite_bound = bound if math.isfinite(bound) else None
        _emit(config, [_json_text({"bound_value": finite_bound, "pass": ok})])
    else:
        _emit(config, [f"bound_value={_fmt(bound)} {'pass' if ok else 'fail'}\n"])
    if not ok:
        print(f"error: bound-violated: bound_value={_fmt(bound)}", file=sys.stderr)
        return 2
    return 0


def _check_entry(result) -> dict:
    """One identity check: an eigenfunction check has no fit, a moment check has one."""
    if result.fitted_coeffs is None:
        return {"target": result.target_leading, "max_residual": result.max_residual}
    return {
        "target_leading": result.target_leading,
        "fitted_coeffs": list(result.fitted_coeffs),
        "max_residual": result.max_residual,
    }


def _regression_entries(report) -> list[dict]:
    entries = []
    for checks in report.degree_checks:
        entry: dict = {
            "degree": checks.degree,
            "eigen": {
                "x_given_y": _check_entry(checks.eigen_x_given_y),
                "y_given_x": _check_entry(checks.eigen_y_given_x),
            },
            "polynomial": {
                "x_given_y": _check_entry(checks.poly_x_given_y),
                "y_given_x": _check_entry(checks.poly_y_given_x),
            },
        }
        if checks.degree == 1:
            linear = report.linear
            entry["linear"] = {
                "a1": linear.a1,
                "a0": linear.a0,
                "b1": linear.b1,
                "b0": linear.b0,
                "residual": linear.residual,
                "strict": linear.strict,
            }
        entries.append(entry)
    return entries


def _report_document(report, model) -> dict:
    return {
        "pearson": report.correlation.pearson,
        "maxcorr_analytic": report.correlation.maxcorr_analytic,
        "maxcorr_svd": report.correlation.maxcorr_svd,
        "maxcorr_ace": report.correlation.maxcorr_ace,
        "gap": report.correlation.gap,
        "regressions": _regression_entries(report),
        "bound_value": report.bound_value,
        "summary": {
            "strict_linear": report.strict_linear,
            "gap_positive": report.gap_positive,
            "degenerate_comparison": report.degenerate_comparison,
            "counterexample_confirmed": report.counterexample_confirmed,
        },
        "model": model_to_config(model),
    }


def _flatten(obj, prefix="") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            rows.extend(_flatten(value, f"{prefix}{key}."))
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            rows.extend(_flatten(value, f"{prefix}{index}."))
    else:
        key = prefix[:-1]
        if isinstance(obj, bool):
            rows.append((key, "true" if obj else "false"))
        elif isinstance(obj, float):
            rows.append((key, _fmt(obj)))
        else:
            rows.append((key, str(obj)))
    return rows


def _cmd_report(config: RunConfig) -> int:
    """Full correlation + regression verification report."""
    _, model = _resolve(config)
    if model is None:
        raise ValueError(_NOT_A_MODEL.format(config.fixture))
    report = counterexample_report(model, grid=config.grid or DEFAULT_MODEL_GRID, ace_tol=config.tol)
    document = _report_document(report, model)
    if config.format == "json":
        _emit(config, [_json_text(document)])
    else:
        _emit(config, [_csv("key,value", _flatten(document))])
    return 0


def _sibling_path(path: str, tag: str) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}.{tag}{ext or '.csv'}"


def _cmd_maxcorr(config: RunConfig) -> int:
    """Singular spectrum and optimizing transformations."""
    fixture, model = _resolve(config)
    if fixture is None:
        joint = discretize_model(model, config.grid or DEFAULT_MODEL_GRID)
    else:
        joint = fixture.joint(config.grid)
    result = maxcorr_decomposition(joint)
    if config.format == "json":
        document = {
            "R": result.R,
            "spectrum": [float(s) for s in result.spectrum],
            "g1": [float(v) for v in result.g1_values],
            "g2": [float(v) for v in result.g2_values],
        }
        _emit(config, [_json_text(document)])
        return 0
    spectrum_csv = _csv("index,value", ((i, _fmt(s)) for i, s in enumerate(result.spectrum)))
    g1_csv = _csv("index,value", ((i, _fmt(v)) for i, v in enumerate(result.g1_values)))
    g2_csv = _csv("index,value", ((i, _fmt(v)) for i, v in enumerate(result.g2_values)))
    if config.output_path:
        _write_atomic(config.output_path, [spectrum_csv])
        _write_atomic(_sibling_path(config.output_path, "g1"), [g1_csv])
        _write_atomic(_sibling_path(config.output_path, "g2"), [g2_csv])
    else:
        sys.stdout.write(f"# spectrum\n{spectrum_csv}# g1\n{g1_csv}# g2\n{g2_csv}")
    return 0


def _sample_chunks(samples, fmt: str):
    """The draws as text, _SAMPLE_CHUNK_ROWS rows at a time.

    The csv has an ``x,y`` header; the json is ``json.dumps(pairs, indent=2)``
    and a newline, byte for byte.
    """
    step = _SAMPLE_CHUNK_ROWS
    chunks = (samples[start : start + step].tolist() for start in range(0, len(samples), step))
    if fmt == "csv":
        yield "x,y\n"
        for rows in chunks:
            yield "".join(f"{_fmt(x)},{_fmt(y)}\n" for x, y in rows)
        return
    opening = "[\n"
    for rows in chunks:
        yield opening + ",\n".join(f"  [\n    {x!r},\n    {y!r}\n  ]" for x, y in rows)
        opening = ",\n"
    yield "\n]\n"


def _cmd_sample(config: RunConfig) -> int:
    """Rejection-sample (x, y) pairs from a model."""
    _, model = _resolve(config)
    if model is None:
        raise ValueError(_NOT_A_MODEL.format(config.fixture))
    _emit(config, _sample_chunks(sample_joint(model, config.count, config.seed), config.format))
    return 0


def _cmd_bench(config: RunConfig) -> int:
    """Run all built-in fixtures against their known values."""
    rows = []
    for name in BENCH_FIXTURES:
        fixture = resolve_fixture(name)
        joint = fixture.joint(config.grid)
        report = correlation_report(joint, model=fixture.model, ace_tol=config.tol)
        rows.append(
            {
                "fixture": name,
                "pearson": report.pearson,
                "R_analytic": fixture.reference_maxcorr,
                "R_svd": report.maxcorr_svd,
                "R_ace": report.maxcorr_ace,
                "gap": report.gap,
            }
        )
    if config.format == "json":
        _emit(config, [_json_text(rows)])
    else:
        cells = [_flatten(row) for row in rows]
        header = ",".join(key for key, _ in cells[0])
        _emit(config, [_csv(header, ([value for _, value in row] for row in cells))])
    return 0


# Each command: the function that runs it, the flags it reads (it accepts no
# other) and its default output format.
_COMMANDS = {
    "validate": (_cmd_validate, ("--model", "--out", "--format"), "json"),
    "report": (_cmd_report, ("--model", "--fixture", "--grid", "--tol", "--out", "--format"), "json"),
    "maxcorr": (_cmd_maxcorr, ("--model", "--fixture", "--grid", "--out", "--format"), "csv"),
    "sample": (_cmd_sample, ("--model", "--fixture", "--count", "--seed", "--out", "--format"), "csv"),
    "bench": (_cmd_bench, ("--grid", "--tol", "--out", "--format"), "csv"),
}


def _report_error(kind: str, exc: Exception, code: int) -> int:
    """Print one ``error: <kind>: <detail>`` line, naming the kind once; return ``code``."""
    print(f"error: {kind}: {str(exc).removeprefix(f'{kind}: ')}", file=sys.stderr)
    return code


def run(config: RunConfig) -> int:
    """Execute one resolved configuration; returns the process exit code."""
    try:
        return _COMMANDS[config.command][0](config)
    except BoundViolationError as exc:
        return _report_error("bound-violated", exc, 2)
    except SpectralFailureError as exc:
        return _report_error("spectral-failure", exc, 3)
    except AceConvergenceError as exc:
        return _report_error("no-convergence", exc, 3)
    except ModelVerificationError as exc:
        return _report_error("verification-failed", exc, 3)
    except OrthonormalityError as exc:
        return _report_error("orthonormality-failed", exc, 3)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        return _report_error("config-error", exc, 1)


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ValueError, so a bad command line is one config-error line."""

    def error(self, message):
        raise ValueError(message)


# How argparse reads each flag. A flag left unset takes RunConfig's default.
_FLAG_ARGS = {
    "--model": {"dest": "model_path", "metavar": "PATH", "help": "JSON model config file"},
    "--fixture": {"metavar": "NAME", "help": "built-in fixture name"},
    "--grid": {"type": int, "help": "quadrature nodes per axis"},
    "--tol": {"type": float, "help": "ACE convergence tolerance"},
    "--count": {"type": int, "help": "number of samples"},
    "--seed": {"type": int, "help": "sampler seed (64-bit)"},
    "--out": {"dest": "output_path", "metavar": "PATH", "help": "output file (default stdout)"},
    "--format": {"choices": ("csv", "json")},
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="lancaster-lab",
        description="Verify expansion joints whose maximal correlation exceeds |pearson|.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags, _) in _COMMANDS.items():
        cmd = sub.add_parser(
            name, help=handler.__doc__, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        for flag in flags:
            required = (name, flag) == ("validate", "--model")
            cmd.add_argument(flag, required=required, **_FLAG_ARGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        config = RunConfig(**vars(_build_parser().parse_args(argv)))
    except ValueError as exc:
        return _report_error("config-error", exc, 1)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
