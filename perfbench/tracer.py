"""Span tracer that wraps lancaster_lab's public functions from outside the package.

The package binds names with ``from .x import y``, so one function can sit in
several module namespaces (``lancaster_lab.cli.correlation_report``,
``lancaster_lab.orthopoly.gauss_legendre_rule``, the package's own
re-exports). Installing the tracer replaces every such binding with one
wrapper, and methods are wrapped on their class; uninstalling puts each
original object back. Nothing inside the package is edited.

Spans are kept in memory as rows ``(op, span, parent, layer, start, end,
self_s)``. A layer's self time is its span's duration minus the durations of
the spans it directly caused; since the program runs on one thread, child
spans nest inside their parent and never overlap each other, so that
difference is exactly the part of the interval no child covers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Module-level functions: (layer, defining module, attribute).
FUNCTIONS = (
    ("quadrature.gauss_legendre_rule", "lancaster_lab.quadrature", "gauss_legendre_rule"),
    ("quadrature.integrate_2d", "lancaster_lab.quadrature", "integrate_2d"),
    ("orthopoly.build_system", "lancaster_lab.orthopoly", "build_system"),
    ("orthopoly.sup_norm", "lancaster_lab.orthopoly", "sup_norm"),
    ("orthopoly.orthonormality_residual", "lancaster_lab.orthopoly", "orthonormality_residual"),
    ("lancaster.model_from_config", "lancaster_lab.lancaster", "model_from_config"),
    ("lancaster.build_model", "lancaster_lab.lancaster", "build_model"),
    ("lancaster.sample_joint", "lancaster_lab.lancaster", "sample_joint"),
    ("correlation.discretize_joint", "lancaster_lab.correlation", "discretize_joint"),
    ("correlation.pearson", "lancaster_lab.correlation", "pearson"),
    ("correlation.maxcorr_svd", "lancaster_lab.correlation", "maxcorr_svd"),
    ("correlation.maxcorr_ace", "lancaster_lab.correlation", "maxcorr_ace"),
    ("regression.conditional_expectation", "lancaster_lab.regression", "conditional_expectation"),
    ("regression.check_eigen_regression", "lancaster_lab.regression", "check_eigen_regression"),
    ("regression.check_polynomial_regression", "lancaster_lab.regression", "check_polynomial_regression"),
    ("regression.check_linear_regression", "lancaster_lab.regression", "check_linear_regression"),
    ("fixtures.resolve_fixture", "lancaster_lab.fixtures", "resolve_fixture"),
    ("cli", "lancaster_lab.cli", "main"),
)

# Methods: (layer, defining module, class, attribute).
METHODS = (
    ("orthopoly.evaluate", "lancaster_lab.orthopoly", "OrthonormalSystem", "evaluate"),
    ("orthopoly.evaluate_all", "lancaster_lab.orthopoly", "OrthonormalSystem", "evaluate_all"),
    ("lancaster.density", "lancaster_lab.lancaster", "LancasterModel", "density"),
    ("lancaster.series_factor", "lancaster_lab.lancaster", "LancasterModel", "series_factor"),
)

LAYERS = tuple(entry[0] for entry in FUNCTIONS + METHODS)

# Layers each workload's ops must reach; a traced run in which one of these
# records no span has lost a binding, and is reported as incorrect.
_MODEL_BUILD = {
    "quadrature.gauss_legendre_rule",
    "quadrature.integrate_2d",
    "orthopoly.build_system",
    "orthopoly.sup_norm",
    "orthopoly.evaluate",
    "orthopoly.evaluate_all",
    "orthopoly.orthonormality_residual",
    "lancaster.build_model",
    "lancaster.density",
    "lancaster.series_factor",
}
_CORRELATION = {
    "correlation.discretize_joint",
    "correlation.pearson",
    "correlation.maxcorr_svd",
    "correlation.maxcorr_ace",
}
EXPECTED_LAYERS = {
    "verify-models": _MODEL_BUILD
    | _CORRELATION
    | {
        "lancaster.model_from_config",
        "regression.conditional_expectation",
        "regression.check_eigen_regression",
        "regression.check_polynomial_regression",
        "regression.check_linear_regression",
        "cli",
    },
    "fixture-sweep": _MODEL_BUILD | _CORRELATION | {"fixtures.resolve_fixture", "cli"},
    "draw-library": {"lancaster.sample_joint", "lancaster.series_factor", "orthopoly.evaluate_all"},
}

_MIB = float(1 << 20)


def _count_nodes(args, kwargs, result):
    return {"nodes": int(args[0] if args else kwargs["n"])}


def _count_points(args, kwargs, result):
    return {"points": int(getattr(result, "size", 1))}


def _count_kept(args, kwargs, result):
    nodes = int(args[2] if len(args) > 2 else kwargs["nodes_per_axis"])
    return {"kept": result.x_nodes.size * result.y_nodes.size, "grid": nodes * nodes}


def _count_kernel(args, kwargs, result):
    joint = args[0] if args else kwargs["joint"]
    return {"kernel_bytes": joint.x_nodes.size * joint.y_nodes.size * 8}


def _count_iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


_COUNTERS = {
    "quadrature.gauss_legendre_rule": _count_nodes,
    "lancaster.density": _count_points,
    "lancaster.series_factor": _count_points,
    "correlation.discretize_joint": _count_kept,
    "correlation.maxcorr_svd": _count_kernel,
    "correlation.maxcorr_ace": _count_iterations,
}


class Tracer:
    """Context manager that wraps every layer while active and keeps the spans.

    ``recording`` gates span collection, so the caller can leave the wrappers
    installed but keep its own correctness checks out of the trace. Set
    ``op`` before each operation; spans are tagged with it.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self.recording = False
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []
        # held by id and kept alive, so a freed wrapper's id cannot be reused
        self._wrappers: dict[int, object] = {}

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        package = _package_modules()
        for layer, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(layer, original)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        for layer, module_name, class_name, attr in METHODS:
            owner = getattr(sys.modules[module_name], class_name)
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))
        return self

    def __exit__(self, *exc_info) -> None:
        self.recording = False
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def unrestored(self) -> list[str]:
        """Package attributes that still hold one of this tracer's wrappers."""
        leftovers = []
        for module in _package_modules():
            for key, value in vars(module).items():
                if id(value) in self._wrappers:
                    leftovers.append(f"{module.__name__}.{key}")
                elif isinstance(value, type):
                    leftovers.extend(
                        f"{module.__name__}.{key}.{attr}"
                        for attr, member in vars(value).items()
                        if id(member) in self._wrappers
                    )
        return leftovers

    def _wrap(self, layer: str, func):
        if layer == "lancaster.sample_joint":
            call = _sample_joint_caller(self, func)
            counter = None
        else:
            call = func
            counter = _COUNTERS.get(layer)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            frame = [tracer._next_id, time.perf_counter(), 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            try:
                result = call(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - frame[1]
                parent = tracer._stack[-1] if tracer._stack else None
                if parent is not None:
                    parent[2] += duration
                tracer.spans.append(
                    (
                        tracer.op,
                        frame[0],
                        parent[0] if parent is not None else -1,
                        layer,
                        frame[1],
                        end,
                        duration - frame[2],
                    )
                )
            if counter is not None:
                counts = tracer.counts[layer]
                for key, value in counter(args, kwargs, result).items():
                    # the kernel is reported as the largest one formed, the
                    # size that sets peak memory; other counters are summed
                    if key == "kernel_bytes":
                        counts[key] = max(counts[key], value)
                    else:
                        counts[key] += value
            return result

        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, summed self time and summed counters."""
        totals: dict[str, dict[str, float]] = {
            layer: {"calls": 0.0, "self_s": 0.0} for layer in LAYERS
        }
        for span in self.spans:
            entry = totals[span[3]]
            entry["calls"] += 1
            entry["self_s"] += span[6]
        for layer, counts in self.counts.items():
            totals[layer].update(counts)
        return totals

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("op,span,parent,layer,start_s,end_s,self_s\n")
            for op, span, parent, layer, start, end, self_s in self.spans:
                handle.write(f"{op},{span},{parent},{layer},{start!r},{end!r},{self_s!r}\n")


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "lancaster_lab" or name.startswith("lancaster_lab."))
    ]


def _sample_joint_caller(tracer: Tracer, func):
    """Call sample_joint with its statistics on, hand back what the caller asked for."""
    signature = inspect.signature(func)

    def call(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        wanted = bound.arguments["with_stats"]
        bound.arguments["with_stats"] = True
        samples, stats = func(*bound.args, **bound.kwargs)
        counts = tracer.counts["lancaster.sample_joint"]
        counts["draws"] += samples.shape[0]
        counts["proposals"] += stats.proposals
        return (samples, stats) if wanted else samples

    return call


def per_layer_metrics(totals: dict[str, dict[str, float]], ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per traced op, as ``name -> (value, unit)``."""
    ops = max(ops, 1)

    def per_op(layer, key):
        return totals[layer].get(key, 0.0) / ops

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (per_op(layer, "self_s"), "s")
    for layer in (
        "quadrature.gauss_legendre_rule",
        "orthopoly.build_system",
        "orthopoly.sup_norm",
        "orthopoly.evaluate",
        "orthopoly.evaluate_all",
        "regression.conditional_expectation",
    ):
        metrics[f"{layer}.calls"] = (per_op(layer, "calls"), "count")
    metrics["quadrature.gauss_legendre_rule.nodes"] = (
        per_op("quadrature.gauss_legendre_rule", "nodes"),
        "count",
    )
    for layer in ("lancaster.density", "lancaster.series_factor"):
        metrics[f"{layer}.points"] = (per_op(layer, "points"), "count")
    sampler = totals["lancaster.sample_joint"]
    metrics["lancaster.sample_joint.acceptance"] = (
        _ratio(sampler.get("draws", 0.0), sampler.get("proposals", 0.0)),
        "ratio",
    )
    discretize = totals["correlation.discretize_joint"]
    metrics["correlation.discretize_joint.kept_frac"] = (
        _ratio(discretize.get("kept", 0.0), discretize.get("grid", 0.0)),
        "ratio",
    )
    metrics["correlation.maxcorr_ace.iterations"] = (
        per_op("correlation.maxcorr_ace", "iterations"),
        "count",
    )
    metrics["correlation.kernel_mib"] = (
        totals["correlation.maxcorr_svd"].get("kernel_bytes", 0.0) / _MIB,
        "MiB",
    )
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
