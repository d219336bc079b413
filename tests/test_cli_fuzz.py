"""Fuzz of the CLI boundary: malformed model configs and flag values.

Every failure must end in exactly one ``error:`` line on stderr and an exit
code in {1, 2, 3}; a run that succeeds prints no error line, and no run
raises a warning. Configs are run for real, with integers kept small so that
a config that happens to be valid builds quickly. Flag values of any size go
only through the argument parser and ``RunConfig``'s limits: ``run`` is
patched, so nothing is allocated. Fixture names, parsable or not, run
``maxcorr`` for real at grid 16.
"""

import contextlib
import copy
import io
import json
import os
import warnings
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lancaster_lab import cli

UNIFORM = {"kind": "uniform", "support": [0.0, 1.0]}
BETA = {"kind": "beta", "support": [0.0, 1.0], "params": {"a": 2.0, "b": 3.0}}
TABLE = {
    "kind": "table",
    "support": [0.0, 2.0],
    "params": {"x": [0.0, 1.0, 2.0], "density": [0.0, 1.0, 0.0]},
}
BASE_CONFIGS = [
    {"marginal_x": UNIFORM, "marginal_y": UNIFORM, "rho": [0.05, 0.15], "max_degree": 8},
    {"marginal_x": BETA, "marginal_y": UNIFORM, "rho_builder": {"type": "quadratic", "N": 4}},
    {
        "marginal_x": TABLE,
        "marginal_y": BETA,
        "rho_builder": {"type": "linear", "N": 3, "lambda": 0.01},
        "quad_nodes": 64,
    },
]

# JSON values of every type; integers stay small (no config key has a budget)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 24),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(-3, 5), st.floats(-3.0, 3.0), st.text(max_size=2)), max_size=4),
    st.dictionaries(st.sampled_from(["a", "b", "x", "density", "type", "N"]), st.integers(-2, 5), max_size=3),
)


def _paths(node, prefix=()):
    """Every key path into a config, containers included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


@st.composite
def malformed_configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(BASE_CONFIGS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = [path for path in _paths(cfg) if path]
        if not paths:
            break
        *parents, last = draw(st.sampled_from(paths))
        container = cfg
        for key in parents:
            container = container[key]
        if draw(st.booleans()):
            container[last] = draw(JUNK)
        elif isinstance(container, dict):
            del container[last]
        else:
            container.pop(last)
    return cfg


def _invoke(argv):
    """(exit code, stderr lines, warnings raised) of one ``main`` call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
    return code, err.getvalue().splitlines(), caught


def _assert_one_outcome(code, lines, caught):
    assert [str(warning.message) for warning in caught] == []
    errors = [line for line in lines if "error:" in line]
    if code == 0:
        assert errors == []
    else:
        assert code in (1, 2, 3)
        assert len(errors) == 1, lines


@given(
    cfg=malformed_configs(),
    command=st.sampled_from(
        [["validate"], ["report", "--grid", "16"], ["sample", "--count", "8"], ["maxcorr", "--grid", "16"]]
    ),
)
@example(
    cfg={"marginal_x": UNIFORM, "marginal_y": UNIFORM, "rho": [0.05, 3.6e307]},
    command=["validate"],
)
@example(
    cfg={
        "marginal_x": {"kind": "uniform", "support": [0, 1.7976931348623155e308]},
        "marginal_y": UNIFORM,
        "rho": [0.05, 0.15],
    },
    command=["report", "--grid", "16"],
)
@settings(max_examples=60)
def test_malformed_configs_end_in_one_error_line(tmp_path_factory, cfg, command):
    path = os.path.join(tmp_path_factory.getbasetemp(), "fuzz-model.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(cfg, handle)
    _assert_one_outcome(*_invoke([command[0], "--model", path, *command[1:]]))


FLAG_VALUES = {
    "--grid": st.one_of(st.integers(-(10**15), 10**15), st.text(max_size=5)),
    "--count": st.one_of(st.integers(-(10**15), 10**15), st.text(max_size=5)),
    "--seed": st.one_of(st.integers(-(10**30), 10**30), st.text(max_size=5)),
    "--tol": st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.integers(-5, 5).map(str),
        st.text(max_size=5),
    ),
    "--format": st.one_of(st.sampled_from(["csv", "json"]), st.text(max_size=5)),
    "--fixture": st.one_of(st.sampled_from(["disc", "fgm:0.2"]), st.text(max_size=6)),
}


@given(
    command=st.sampled_from(["validate", "report", "maxcorr", "sample", "bench"]),
    flags=st.sets(st.sampled_from(sorted(FLAG_VALUES)), min_size=1, max_size=4).flatmap(
        lambda chosen: st.fixed_dictionaries({flag: FLAG_VALUES[flag] for flag in chosen})
    ),
)
@settings(max_examples=150)
def test_flag_values_meet_the_limits_or_end_in_one_error_line(command, flags):
    argv = [command]
    for flag, value in flags.items():
        argv.append(f"{flag}={value}")
    reached = []

    def record(config):
        reached.append(config)
        return 0

    with mock.patch.object(cli, "run", record):
        code, lines, caught = _invoke(argv)
    if reached:
        config = reached[0]
        assert code == 0 and lines == [] and caught == []
        assert config.grid is None or 16 <= config.grid <= cli.MAX_GRID
        assert 1 <= config.count <= cli.MAX_COUNT
        assert 0.0 < config.tol <= cli.MAX_TOL
        assert config.format in ("csv", "json")
    else:
        _assert_one_outcome(code, lines, caught)
        assert code == 1


FIXTURE_NAMES = st.one_of(
    st.tuples(st.sampled_from(["pball:", "fgm:"]), st.floats(allow_nan=True, allow_infinity=True)).map(
        lambda parts: parts[0] + repr(parts[1])
    ),
    st.text(max_size=8),
)


@given(name=FIXTURE_NAMES)
@example("pball:0.011")  # the area's Gamma(1 + 2/p) overflows
@example("pball:5e-324")
@settings(max_examples=60)
def test_fixture_names_run_or_end_in_one_error_line(name):
    code, lines, caught = _invoke(["maxcorr", "--fixture", name, "--grid", "16"])
    _assert_one_outcome(code, lines, caught)
