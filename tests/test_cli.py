import json
import os
import stat
import warnings

import numpy as np
import pytest

from lancaster_lab import cli, correlation, lancaster, model_from_config, sample_joint
from lancaster_lab.cli import main
from lancaster_lab.fixtures import BENCH_FIXTURES
from lancaster_lab.orthopoly import MarginalSpec
from lancaster_lab.regression import counterexample_report

HEADLINE_CONFIG = {
    "marginal_x": {"kind": "uniform", "support": [0, 1]},
    "marginal_y": {"kind": "uniform", "support": [0, 1]},
    "rho": [0.05, 0.15],
    "max_degree": 8,
}


def table_marginal(knots: int) -> dict:
    """The uniform density on [0, 1] as a table of ``knots`` equispaced knots.

    At the default quad_nodes of 128 its rule has max(16, ceil(128 / segments))
    nodes on each of its knots - 1 segments.
    """
    x = np.linspace(0.0, 1.0, knots).tolist()
    return {"kind": "table", "support": [0.0, 1.0], "params": {"x": x, "density": [1.0] * knots}}


BETA_MARGINAL = {"kind": "beta", "support": [0, 1], "params": {"a": 2, "b": 3}}

VIOLATING_CONFIG = {
    "marginal_x": {"kind": "uniform", "support": [0, 1]},
    "marginal_y": {"kind": "uniform", "support": [0, 1]},
    "rho": [0.1, 0.3],
}


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(HEADLINE_CONFIG))
    return str(path)


@pytest.fixture
def violating_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(VIOLATING_CONFIG))
    return str(path)


class TestValidate:
    def test_admissible_model_passes(self, model_file, capsys):
        assert main(["validate", "--model", model_file, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out
        assert "bound_value=0.9" in out

    def test_violation_exits_two_and_reports_bound(self, violating_file, capsys):
        assert main(["validate", "--model", violating_file, "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert "fail" in captured.out
        assert "bound_value=1.8" in captured.out
        assert "error: bound-violated" in captured.err

    def test_linear_builder_over_the_bound_is_a_bound_violation(self, tmp_path, capsys):
        # lambda = 0.5 against 1 / (1 * 3 + 2 * 5): the bound is 0.5 * 13 = 6.5
        cfg = {key: HEADLINE_CONFIG[key] for key in ("marginal_x", "marginal_y")}
        cfg["rho_builder"] = {"type": "linear", "N": 2, "lambda": 0.5}
        path = _write_config(tmp_path, cfg)
        assert main(["validate", "--model", path]) == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["pass"] is False
        assert payload["bound_value"] == pytest.approx(6.5, abs=1e-12)
        assert captured.err.startswith("error: bound-violated: bound_value=6.5")
        assert main(["report", "--model", path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: bound-violated: lambda-too-large: maximum admissible lambda is 0.0769230769")

    def test_json_format(self, model_file, capsys):
        assert main(["validate", "--model", model_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["bound_value"] == pytest.approx(0.9, abs=1e-9)

    def test_overflowing_coefficient_writes_a_null_bound_without_warnings(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(HEADLINE_CONFIG))
        cfg["rho"] = [0.05, 3.6e307]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["validate", "--model", _write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        assert json.loads(captured.out, parse_constant=reject) == {"bound_value": None, "pass": False}
        assert caught == []
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: bound-violated: ")


class TestReport:
    def test_report_fields_and_values(self, model_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["report", "--model", model_file, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for field in (
            "pearson",
            "maxcorr_analytic",
            "maxcorr_svd",
            "maxcorr_ace",
            "gap",
            "regressions",
            "bound_value",
        ):
            assert field in doc
        assert doc["pearson"] == pytest.approx(0.05, abs=1e-6)
        assert doc["maxcorr_analytic"] == 0.15
        assert doc["gap"] == pytest.approx(0.10, abs=2e-3)
        assert doc["summary"]["counterexample_confirmed"] is True
        degrees = [entry["degree"] for entry in doc["regressions"]]
        assert degrees == [1, 2]
        linear = doc["regressions"][0]["linear"]
        assert linear["a1"] == pytest.approx(0.05, abs=1e-8)
        assert linear["strict"] is True

    def test_embedded_model_round_trips(self, model_file, tmp_path):
        out = tmp_path / "report.json"
        main(["report", "--model", model_file, "--out", str(out)])
        doc = json.loads(out.read_text())
        reloaded = model_from_config(doc["model"])
        original = model_from_config(HEADLINE_CONFIG)
        assert reloaded.coeffs.rho == original.coeffs.rho
        assert reloaded.marginal_x == original.marginal_x
        assert np.array_equal(
            reloaded.system_x.recurrence_alpha, original.system_x.recurrence_alpha
        )

    def test_report_is_deterministic(self, model_file, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["report", "--model", model_file, "--out", str(first)])
        main(["report", "--model", model_file, "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_fgm_fixture_is_a_valid_model_source(self, tmp_path, capsys):
        assert main(["report", "--fixture", "fgm:0.2", "--grid", "64"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["maxcorr_analytic"] == pytest.approx(0.2)
        assert doc["gap"] == pytest.approx(0.0, abs=2e-3)

    def test_a_grid_report_has_the_library_numbers_on_that_joint(self, model_file, capsys):
        assert main(["report", "--model", model_file, "--grid", "64"]) == 0
        doc = json.loads(capsys.readouterr().out)
        model = model_from_config(HEADLINE_CONFIG)
        corr = counterexample_report(model, lancaster.discretize_model(model, 64)).correlation
        assert [doc[key] for key in ("pearson", "maxcorr_svd", "maxcorr_ace", "gap")] == [
            corr.pearson,
            corr.maxcorr_svd,
            corr.maxcorr_ace,
            corr.gap,
        ]

    @pytest.mark.parametrize("grid", [["--grid", "32"], []], ids=["grid-32", "default-grid"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", ["report", "maxcorr"])
    def test_an_fgm_fixture_and_its_model_config_write_the_same_bytes(self, tmp_path, capsys, command, fmt, grid):
        # fgm:0.2 is uniform [0, 1] x uniform [0, 1] with rho = (0.2,) at the default degree and rule
        cfg = {"marginal_x": HEADLINE_CONFIG["marginal_x"], "marginal_y": HEADLINE_CONFIG["marginal_y"], "rho": [0.2]}
        outputs = []
        for source in (["--fixture", "fgm:0.2"], ["--model", _write_config(tmp_path, cfg)]):
            assert main([command, *source, *grid, "--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_csv_flavor_is_flat_key_value(self, model_file, capsys):
        assert main(["report", "--model", model_file, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("key,value\n")
        assert "regressions.0.degree,1" in out


class TestMaxcorr:
    def test_fixture_spectrum_csv_files(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert main(["maxcorr", "--fixture", "fourpoint", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert values[1] == pytest.approx(1.0, abs=1e-9)
        assert (tmp_path / "spectrum.g1.csv").exists()
        assert (tmp_path / "spectrum.g2.csv").exists()

    def test_model_spectrum_json(self, model_file, capsys):
        assert main(["maxcorr", "--model", model_file, "--grid", "96", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["R"] == pytest.approx(0.15, abs=1e-3)
        assert doc["spectrum"][0] == pytest.approx(1.0, abs=1e-9)
        assert len(doc["g1"]) == 96

    @pytest.mark.parametrize("fixture", ["disc", "pball:1", "pball:2", "fourpoint", "fgm:0.2"])
    def test_R_is_the_second_printed_singular_value(self, fixture, capsys):
        assert main(["maxcorr", "--fixture", fixture, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["R"] == doc["spectrum"][1]

    def test_lf_line_endings_and_17_digits(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        main(["maxcorr", "--fixture", "fgm:0.2", "--grid", "32", "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        # 17 significant digits: the second singular value keeps its full mantissa
        second = raw.decode().splitlines()[2].split(",")[1]
        assert second.startswith("0.2000000000000000")
        assert float(second) == pytest.approx(0.2, abs=1e-12)


class TestSample:
    def test_csv_output_and_determinism(self, model_file, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        args = ["sample", "--model", model_file, "--count", "200", "--seed", "42"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 201
        x, y = map(float, lines[1].split(","))
        assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0

    def test_seed_changes_output(self, model_file, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["sample", "--model", model_file, "--count", "50", "--seed", "1", "--out", str(a)])
        main(["sample", "--model", model_file, "--count", "50", "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("rows_per_chunk", [7, 50, 16384])
    def test_chunked_output_has_the_bytes_of_the_whole_text(
        self, model_file, tmp_path, capsys, monkeypatch, rows_per_chunk
    ):
        monkeypatch.setattr(cli, "_SAMPLE_CHUNK_ROWS", rows_per_chunk)
        samples = sample_joint(model_from_config(HEADLINE_CONFIG), 50, 3)
        expected = {
            "json": json.dumps([[float(x), float(y)] for x, y in samples], indent=2) + "\n",
            "csv": "x,y\n" + "".join(f"{float(x):.17g},{float(y):.17g}\n" for x, y in samples),
        }
        for fmt, text in expected.items():
            args = ["sample", "--model", model_file, "--count", "50", "--seed", "3", "--format", fmt]
            out = tmp_path / f"xy.{fmt}"
            assert main(args + ["--out", str(out)]) == 0
            assert out.read_bytes() == text.encode()
            assert main(args) == 0
            assert capsys.readouterr().out == text

    def test_geometric_fixture_is_not_samplable(self, capsys):
        assert main(["sample", "--fixture", "disc"]) == 1
        assert "error: config-error" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(10**27)])
    def test_seeds_outside_u64_are_rejected(self, capsys, monkeypatch, seed):
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("the command ran"))
        assert main(["sample", "--fixture", "fgm:0.2", "--seed", seed]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config-error: --seed ")

    def test_largest_seed_is_accepted(self, capsys):
        assert main(["sample", "--fixture", "fgm:0.2", "--count", "3", "--seed", str(2**64 - 1)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4


class TestOutputMode:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_output_files_follow_the_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            assert main(["maxcorr", "--fixture", "fourpoint", "--out", str(tmp_path / "s.csv")]) == 0
        finally:
            os.umask(previous)
        assert sorted(os.listdir(tmp_path)) == ["s.csv", "s.g1.csv", "s.g2.csv"]
        for path in tmp_path.iterdir():
            assert stat.S_IMODE(path.stat().st_mode) == mode

    def test_a_write_leaves_the_process_umask_alone(self, tmp_path, monkeypatch):
        def no_umask(mask):
            raise AssertionError("the process umask was set")

        monkeypatch.setattr(os, "umask", no_umask)
        cli._write_atomic(str(tmp_path / "out.csv"), ["a,b\n"])
        assert os.listdir(tmp_path) == ["out.csv"]
        assert (tmp_path / "out.csv").read_text() == "a,b\n"

    def test_a_failed_write_removes_its_temp_file_and_leaves_the_target(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")

        def chunks():
            yield "new\n"
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            cli._write_atomic(str(target), chunks())
        assert os.listdir(tmp_path) == ["out.csv"]
        assert target.read_text() == "old\n"


class TestBench:
    def test_rows_and_reference_values(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--grid", "120", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "fixture,pearson,R_analytic,R_svd,R_ace,gap"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert set(rows) == {"disc", "pball:1", "pball:2", "fourpoint", "fgm:0.2"}
        assert float(rows["fourpoint"][3]) == pytest.approx(1.0, abs=1e-9)
        assert float(rows["disc"][1]) == pytest.approx(0.0, abs=1e-4)
        assert float(rows["fgm:0.2"][3]) == pytest.approx(0.2, abs=1e-3)

    def test_curved_rows_lie_just_below_their_closed_forms(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()[1:]
        rows = {line.split(",")[0]: [float(v) for v in line.split(",")[1:]] for line in lines}
        for name in ("disc", "pball:1", "pball:2"):
            _, analytic, svd, ace, _ = rows[name]
            assert analytic - 1e-4 <= min(svd, ace) <= max(svd, ace) <= analytic + 1e-12, name

    def test_maxcorr_of_a_general_exponent_lies_just_below_it(self, tmp_path):
        out = tmp_path / "maxcorr.json"
        assert main(["maxcorr", "--fixture", "pball:1.5", "--format", "json", "--out", str(out)]) == 0
        assert 0.4 - 1e-4 <= json.loads(out.read_text())["R"] <= 0.4 + 1e-12

    def test_byte_identical_across_runs(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(["bench", "--grid", "64", "--out", str(first)])
        main(["bench", "--grid", "64", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


class TestParser:
    def test_subcommands_keep_their_own_format_default(self, model_file, tmp_path):
        assert cli._build_parser() is cli._build_parser()
        report = tmp_path / "report.out"
        bench = tmp_path / "bench.out"
        assert main(["report", "--model", model_file, "--out", str(report)]) == 0
        assert main(["bench", "--grid", "64", "--out", str(bench)]) == 0
        assert "pearson" in json.loads(report.read_text())
        assert bench.read_text().startswith("fixture,pearson,")

    def test_bad_flag_exits_one_on_repeated_calls(self, model_file, capsys):
        for _ in range(2):
            assert main(["report", "--model", model_file, "--no-such-flag"]) == 1
            lines = capsys.readouterr().err.splitlines()
            assert lines == ["error: config-error: unrecognized arguments: --no-such-flag"]
        assert main(["validate", "--model", model_file]) == 0

    @pytest.mark.parametrize("argv", [["--help"], ["sample", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: lancaster-lab")


# The flags each command reads, and what each flag sets in RunConfig: a
# (command, flag) pair outside this table is a config error.
FLAG_TABLE = {
    "validate": {"--model", "--out", "--format"},
    "report": {"--model", "--fixture", "--grid", "--tol", "--out", "--format"},
    "maxcorr": {"--model", "--fixture", "--grid", "--out", "--format"},
    "sample": {"--model", "--fixture", "--count", "--seed", "--out", "--format"},
    "bench": {"--grid", "--tol", "--out", "--format"},
}
FLAG_SETTINGS = {
    "--model": ("model_path", "m.json", "m.json"),
    "--fixture": ("fixture", "fgm:0.2", "fgm:0.2"),
    "--grid": ("grid", "64", 64),
    "--tol": ("tol", "1e-6", 1e-6),
    "--count": ("count", "7", 7),
    "--seed": ("seed", "5", 5),
    "--out": ("output_path", "o.txt", "o.txt"),
    "--format": ("format", "json", "json"),
}


class TestFlagTable:
    @staticmethod
    def _main(monkeypatch, capsys, argv):
        """(exit code, stderr lines, configs that reached run) of one main call."""
        reached = []
        monkeypatch.setattr(cli, "run", lambda config: reached.append(config) or 0)
        code = main(argv)
        return code, capsys.readouterr().err.splitlines(), reached

    @pytest.mark.parametrize("flag", sorted(FLAG_SETTINGS))
    @pytest.mark.parametrize("command", sorted(FLAG_TABLE))
    def test_a_command_accepts_only_the_flags_it_reads(self, monkeypatch, capsys, command, flag):
        field, text, value = FLAG_SETTINGS[flag]
        argv = [command, flag, text]
        if command == "validate" and flag != "--model":
            argv += ["--model", "m.json"]
        code, lines, reached = self._main(monkeypatch, capsys, argv)
        if flag in FLAG_TABLE[command]:
            assert (code, lines) == (0, [])
            assert getattr(reached[0], field) == value
        else:
            assert (code, reached) == (1, [])
            assert len(lines) == 1 and lines[0].startswith("error: config-error: "), lines

    @pytest.mark.parametrize(
        "argv",
        [[], ["nope"], ["bench", "--grid", "abc"], ["validate"]],
        ids=["no-command", "unknown-command", "bad-int", "validate-without-model"],
    )
    def test_a_malformed_command_line_is_one_config_error(self, monkeypatch, capsys, argv):
        code, lines, reached = self._main(monkeypatch, capsys, argv)
        assert (code, reached) == (1, [])
        assert len(lines) == 1 and lines[0].startswith("error: config-error: "), lines

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--g", "16"],
            ["bench", "--gri", "16"],
            ["report", "--mod", "x"],
            ["maxcorr", "--fix", "disc"],
            ["sample", "--fixture", "fgm:0.2", "--cou", "5"],
            ["sample", "--fixture", "fgm:0.2", "--se=5"],
            ["validate", "--model", "m.json", "--form", "csv"],
        ],
        ids=["g", "gri", "mod", "fix", "cou", "se-equals", "form"],
    )
    def test_a_flag_prefix_is_one_config_error(self, monkeypatch, capsys, argv):
        code, lines, reached = self._main(monkeypatch, capsys, argv)
        assert (code, reached) == (1, [])
        assert len(lines) == 1 and lines[0].startswith("error: config-error: "), lines

    def test_validate_needs_a_model_path(self, capsys):
        with pytest.raises(ValueError, match="--model"):
            cli.RunConfig("validate")
        assert main(["validate"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config-error: "), lines

    @pytest.mark.parametrize("command", sorted(FLAG_TABLE))
    def test_unset_flags_take_the_run_config_defaults(self, monkeypatch, capsys, command):
        model = "m.json" if command == "validate" else None
        argv = [command, "--model", model] if model else [command]
        code, _, reached = self._main(monkeypatch, capsys, argv)
        assert code == 0
        expected_format = "json" if command in ("validate", "report") else "csv"
        assert reached == [cli.RunConfig(command, model_path=model, format=expected_format)]


class TestRunConfigValues:
    @pytest.mark.parametrize(
        "command,field,value",
        [
            ("sample", "count", "5"),
            ("sample", "count", 2.5),
            ("sample", "seed", 1.5),
            ("sample", "seed", True),
            ("bench", "grid", 2.5),
            ("bench", "grid", "64"),
            ("bench", "tol", "x"),
            ("bench", "tol", None),
        ],
    )
    def test_a_value_of_another_type_is_a_value_error_naming_its_flag(self, command, field, value):
        with pytest.raises(ValueError, match=f"^--{field} must be (an integer|a real number), got "):
            cli.RunConfig(command, **{field: value})

    @pytest.mark.parametrize(
        "command,fields,message",
        [
            ("frobnicate", {}, "unknown command 'frobnicate'"),
            ("bench", {"format": "xml"}, "format must be 'csv' or 'json'"),
        ],
        ids=["command", "format"],
    )
    def test_an_unknown_command_or_format_is_a_value_error(self, command, fields, message):
        with pytest.raises(ValueError, match=message):
            cli.RunConfig(command, **fields)

    def test_numpy_numbers_are_accepted(self):
        config = cli.RunConfig("sample", count=np.int64(5), seed=np.uint64(2**64 - 1))
        assert (config.count, config.seed) == (5, 2**64 - 1)
        config = cli.RunConfig("bench", grid=np.int32(64), tol=np.float32(1e-6))
        assert (config.grid, config.tol) == (64, np.float32(1e-6))

    @pytest.mark.parametrize(
        "command,expected",
        [("validate", "json"), ("report", "json"), ("maxcorr", "csv"), ("sample", "csv"), ("bench", "csv")],
    )
    def test_format_defaults_to_the_commands_own(self, command, expected):
        assert cli.RunConfig(command, model_path="m.json").format == expected

    def test_run_writes_sample_csv_by_default_as_the_command_line_does(self, tmp_path):
        library = tmp_path / "library.csv"
        command_line = tmp_path / "command_line.csv"
        assert cli.run(cli.RunConfig("sample", fixture="fgm:0.2", count=3, output_path=str(library))) == 0
        assert main(["sample", "--fixture", "fgm:0.2", "--count", "3", "--out", str(command_line)]) == 0
        assert library.read_text().startswith("x,y\n")
        assert library.read_bytes() == command_line.read_bytes()


class TestErrorHandling:
    def test_missing_model_file(self, capsys):
        assert main(["report", "--model", "/nonexistent/path.json"]) == 1
        assert "error: config-error" in capsys.readouterr().err

    def test_unknown_fixture(self, capsys):
        assert main(["maxcorr", "--fixture", "torus"]) == 1
        assert "error: config-error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,message",
        [("pball:x", "cannot parse exponent in fixture name 'pball:x'"), ("fgm:x", "cannot parse coefficient in fixture name 'fgm:x'")],
    )
    def test_unparsable_fixture_parameter(self, capsys, name, message):
        assert main(["maxcorr", "--fixture", name]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: config-error: {message}"]

    @pytest.mark.parametrize("command", ["report", "maxcorr", "sample"])
    def test_a_model_or_a_fixture_is_required(self, capsys, command):
        assert main([command]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: config-error: one of --model or --fixture is required"]

    def test_model_and_fixture_are_exclusive(self, model_file, capsys):
        assert main(["report", "--model", model_file, "--fixture", "disc"]) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_grid_too_small(self, model_file, capsys):
        assert main(["report", "--model", model_file, "--grid", "8"]) == 1
        assert "error: config-error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["report", "--model", str(path)]) == 1
        assert "error: config-error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda cfg: cfg.update(rho=5),
            lambda cfg: cfg.update(rho=[None]),
            lambda cfg: cfg["marginal_x"].update(support=5),
            lambda cfg: cfg.pop("rho") and cfg.update(rho_builder={"type": "quadratic", "N": [4]}),
            lambda cfg: cfg.update(max_degree=float("inf")),
            # a string, a bool or an object where a number or an array of numbers belongs
            lambda cfg: cfg["marginal_x"].update(support="05"),
            lambda cfg: cfg.update(rho="0"),
            lambda cfg: cfg.update(rho={"0.1": 1}),
            lambda cfg: cfg.update(marginal_x={**BETA_MARGINAL, "params": {"a": True, "b": 3}}),
            lambda cfg: cfg.update(marginal_x={**BETA_MARGINAL, "params": {"a": 2, "b": "3"}}),
            lambda cfg: cfg.pop("rho") and cfg.update(
                rho_builder={"type": "linear", "N": 2, "lambda": "0.01"}
            ),
            lambda cfg: cfg.pop("rho") and cfg.update(rho_builder={"type": "linear", "N": 2}),
        ],
    )
    def test_malformed_value_types_end_in_one_config_error(self, tmp_path, capsys, monkeypatch, mutate):
        def no_build(*args, **kwargs):
            raise AssertionError("a system was built from a malformed config")

        monkeypatch.setattr("lancaster_lab.lancaster.build_system", no_build)
        cfg = json.loads(json.dumps(HEADLINE_CONFIG))
        mutate(cfg)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(cfg))
        assert main(["report", "--model", str(path)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: config-error: ")

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (
                lambda cfg: cfg["marginal_x"].update(params={"a": 2, "b": 3}),
                "uniform marginal config needs 'params' with exactly the keys [], got {'a': 2, 'b': 3}",
            ),
            (
                lambda cfg: cfg.update(marginal_x={**BETA_MARGINAL, "params": {"a": 2, "b": 3, "c": 1}}),
                "beta marginal config needs 'params' with exactly the keys ['a', 'b'], got {",
            ),
            (
                lambda cfg: cfg.update(marginal_x={**BETA_MARGINAL, "params": [2, 3]}),
                "beta marginal config needs 'params' with exactly the keys ['a', 'b'], got [2, 3]",
            ),
            (lambda cfg: cfg.update(rho=[float("nan")]), "coefficients must be finite"),
            (
                lambda cfg: cfg.update(
                    marginal_x={
                        "kind": "table",
                        "support": [0, 2],
                        "params": {"x": [0, 1.5, 1, 2], "density": [0, 1, 1, 0]},
                    }
                ),
                "table knots must be strictly increasing",
            ),
        ],
        ids=["uniform-with-params", "beta-with-extra-param", "params-as-array", "rho-nan", "knots-decrease"],
    )
    def test_invalid_configs_end_in_one_config_error_naming_the_fault(self, tmp_path, capsys, mutate, message):
        cfg = json.loads(json.dumps(HEADLINE_CONFIG))
        mutate(cfg)
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--model", str(path)]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"error: config-error: {message}"), errors

    def test_a_geometric_fixture_is_not_a_model_to_report_on(self, capsys):
        assert main(["report", "--fixture", "disc"]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert errors == [
            "error: config-error: fixture 'disc' is not an expansion model;"
            " this command needs --model or an fgm fixture"
        ]

    @pytest.mark.parametrize("key,value", [("quad_nodes", 20000), ("max_degree", 1000000)])
    def test_oversized_counts_end_in_one_config_error_before_any_build(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("a system was built from an oversized config")

        monkeypatch.setattr("lancaster_lab.lancaster.build_system", no_build)
        cfg = json.loads(json.dumps(HEADLINE_CONFIG))
        cfg[key] = value
        path = tmp_path / "oversized.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--model", str(path)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: config-error: ")
        assert f"{key!r} must be at most" in errors[0]

    @pytest.mark.parametrize(
        "value", [True, 2.0, 2.9, "3", None, 0, -3], ids=["true", "2.0", "2.9", "str", "null", "0", "-3"]
    )
    @pytest.mark.parametrize("key", ["max_degree", "quad_nodes", "N"])
    def test_bad_config_counts_end_in_one_config_error_before_any_build(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("a system was built from a bad count")

        monkeypatch.setattr("lancaster_lab.lancaster.build_system", no_build)
        cfg = json.loads(json.dumps(HEADLINE_CONFIG))
        if key == "N":
            del cfg["rho"]
            cfg["rho_builder"] = {"type": "quadratic", "N": value}
        else:
            cfg[key] = value
        path = tmp_path / "count.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--model", str(path)]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: config-error: "), errors
        in_range = "must be at least 1" if type(value) is int else "must be an integer"
        assert f"{key!r} {in_range}, got " in errors[0]

    @pytest.mark.parametrize("axis", ["marginal_x", "marginal_y"])
    def test_a_table_whose_rule_is_oversized_ends_in_one_config_error_before_any_build(
        self, tmp_path, capsys, monkeypatch, axis
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("a system was built from an oversized config")

        monkeypatch.setattr("lancaster_lab.lancaster.build_system", no_build)
        # 1999 segments of at least 16 nodes each: a 31 984-node rule at quad_nodes 128
        cfg = json.loads(json.dumps(HEADLINE_CONFIG))
        cfg[axis] = table_marginal(2000)
        path = tmp_path / "oversized_table.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--model", str(path)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: config-error: ")
        assert f"{axis!r} makes a 31984-node rule at quad_nodes 128" in errors[0]

    @pytest.mark.parametrize(
        "mutate,named",
        [
            (lambda cfg: cfg.update(rho_builder={"type": "quadratic", "N": 100}), "rho_builder 'N'"),
            (lambda cfg: cfg.update(rho=[0.001] * 100), "'rho' length"),
        ],
        ids=["builder-N", "rho-length"],
    )
    def test_oversized_coefficient_count_names_its_own_key(self, tmp_path, capsys, monkeypatch, mutate, named):
        def no_build(*args, **kwargs):
            raise AssertionError("a system was built from an oversized config")

        monkeypatch.setattr("lancaster_lab.lancaster.build_system", no_build)
        cfg = json.loads(json.dumps(HEADLINE_CONFIG))
        del cfg["rho"], cfg["max_degree"]
        mutate(cfg)
        path = tmp_path / "oversized.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--model", str(path)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: config-error: model config {named} must be at most 64, got 100"]

    @pytest.mark.parametrize(
        "key,value",
        [("quad_nodes", 2048), ("max_degree", 64), ("marginal_x", table_marginal(129))],
        ids=["quad_nodes", "max_degree", "table-of-2048-nodes"],
    )
    def test_counts_at_their_limit_reach_the_build(self, monkeypatch, key, value):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr("lancaster_lab.lancaster.build_system", reached)
        cfg = json.loads(json.dumps(HEADLINE_CONFIG))
        cfg[key] = value
        with pytest.raises(Reached):
            model_from_config(cfg)

    def test_support_whose_width_overflows_ends_in_one_config_error(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(HEADLINE_CONFIG))
        cfg["marginal_x"]["support"] = [-1e308, 1e308]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(cfg))
        assert main(["report", "--model", str(path)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: config-error: support width")

    def test_failed_model_verification_ends_in_one_error_line(self, model_file, capsys, monkeypatch):
        monkeypatch.setattr("lancaster_lab.lancaster.integrate_2d", lambda *args, **kwargs: 1.5)
        assert main(["report", "--model", model_file]) == 3
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: verification-failed: ")

    def test_negative_density_ends_in_one_error_line(self, tmp_path, capsys, monkeypatch):
        # with the bound check bypassed, rho_1 = -0.9 makes the density 1 - 2.7 at (0, 0)
        monkeypatch.setattr(
            lancaster, "validate_coefficients", lambda rho, c, d: lancaster.CoefficientSequence(rho, 0.0)
        )
        cfg = {**HEADLINE_CONFIG, "rho": [-0.9]}
        assert main(["report", "--model", _write_config(tmp_path, cfg)]) == 3
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: verification-failed: density is negative (-1.700e+00)")

    def test_fgm_fixture_with_violating_coefficient_exits_two(self, capsys):
        assert main(["report", "--fixture", "fgm:0.5"]) == 2
        assert "error: bound-violated" in capsys.readouterr().err


class TestErrorKindOnce:
    def _raise(self, exc):
        def broken(*args, **kwargs):
            raise exc

        return broken

    @pytest.mark.parametrize(
        "target,exc,kind",
        [
            (
                "lancaster_lab.correlation.maxcorr_svd",
                cli.SpectralFailureError("spectral-failure: leading singular value is 0.5, expected 1"),
                "spectral-failure",
            ),
            (
                "lancaster_lab.correlation.maxcorr_ace",
                cli.AceConvergenceError(last_estimate=0.1, gap=1e-3, iterations=5),
                "no-convergence",
            ),
        ],
        ids=["spectral-failure", "no-convergence"],
    )
    def test_numerical_failure_names_its_kind_once(self, model_file, capsys, monkeypatch, target, exc, kind):
        monkeypatch.setattr(target, self._raise(exc))
        assert main(["report", "--model", model_file]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {kind}: ")
        assert lines[0].count(kind) == 1

    @pytest.mark.parametrize(
        "target,value,detail",
        [
            ("maxcorr_svd", 1.5, "maximal-correlation estimate (svd) is 1.5"),
            ("maxcorr_ace", correlation.AceResult(-0.5, None, None, 1), "maximal-correlation estimate (ace) is -0.5"),
            ("maxcorr_svd", 0.0, "maximal correlation 0.0 fell below |pearson|"),
        ],
        ids=["svd-above-one", "ace-below-zero", "svd-below-pearson"],
    )
    def test_report_guards_on_the_estimates_exit_three(self, model_file, capsys, monkeypatch, target, value, detail):
        monkeypatch.setattr(correlation, target, lambda *args, **kwargs: value)
        assert main(["report", "--model", model_file]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: spectral-failure: {detail}")

    def test_bound_violation_names_its_kind_once(self, violating_file, capsys):
        assert main(["report", "--model", violating_file]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: bound-violated: sum |rho_n|")
        assert lines[0].count("bound-violated") == 1


def _write_config(tmp_path, cfg, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSupportsFarFromZero:
    def test_narrow_support_near_1e4_reports(self, tmp_path):
        cfg = json.loads(json.dumps(HEADLINE_CONFIG))
        cfg["marginal_x"]["support"] = [1e4, 1e4 + 1.0]
        out = tmp_path / "report.json"
        assert main(["report", "--model", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["summary"]["counterexample_confirmed"] is True

    @pytest.mark.parametrize(
        "support", [[1e308, 1.7e308], [0.0, 1.7976931348623155e308]], ids=["far", "widest"]
    )
    def test_overflowing_support_ends_in_one_line_naming_the_overflow(self, tmp_path, capsys, support):
        cfg = json.loads(json.dumps(HEADLINE_CONFIG))
        cfg["marginal_x"]["support"] = support
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["report", "--model", _write_config(tmp_path, cfg)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert caught == []
        assert len(lines) == 1 and lines[0].startswith("error: config-error: stieltjes-overflow: ")
        assert repr(tuple(support)) in lines[0]


class TestNarrowSupports:
    """Floors relative to the support: a narrow model reports as it does on [0, 1]."""

    def _report(self, tmp_path, support, rho):
        marginal = {"kind": "uniform", "support": support}
        cfg = {"marginal_x": marginal, "marginal_y": marginal, "rho": rho}
        out = tmp_path / "report.json"
        code = main(["report", "--model", _write_config(tmp_path, cfg), "--out", str(out)])
        return code, json.loads(out.read_text()) if code == 0 else None

    def test_headline_model_on_a_micrometre_square_is_confirmed(self, tmp_path):
        code, doc = self._report(tmp_path, [0.0, 1e-6], [0.05, 0.15])
        assert code == 0
        assert doc["pearson"] == pytest.approx(0.05, abs=1e-6)
        assert doc["maxcorr_svd"] == pytest.approx(0.15, abs=1e-3)
        assert doc["summary"]["counterexample_confirmed"] is True

    def test_coefficient_at_the_bound_builds_on_a_narrow_square(self, tmp_path):
        code, doc = self._report(tmp_path, [0.0, 0.01], [-1.0 / 3.0])
        assert code == 0
        assert doc["pearson"] == pytest.approx(-1.0 / 3.0, abs=1e-6)


class TestEmbeddedModelReloads:
    def test_report_of_the_embedded_model_is_byte_identical(self, tmp_path):
        cfg = {
            "marginal_x": {"kind": "beta", "support": [0, 1], "params": {"a": 2, "b": 3}},
            "marginal_y": {"kind": "uniform", "support": [0, 1]},
            "rho": [0.02, 0.05],
            "quad_nodes": 40,
        }
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["report", "--model", _write_config(tmp_path, cfg), "--out", str(first)]) == 0
        embedded = json.loads(first.read_text())["model"]
        assert embedded["quad_nodes"] == 40
        reload_path = _write_config(tmp_path, embedded, "embedded.json")
        assert main(["report", "--model", reload_path, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestSvdRequests:
    @pytest.fixture
    def svd_calls(self, monkeypatch):
        """Records, per np.linalg.svd call, whether singular vectors were asked for."""
        calls = []
        svd = np.linalg.svd

        def spy(matrix, *args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return calls

    @pytest.fixture
    def kernel_svds(self, monkeypatch):
        """The shapes of the joints given to maxcorr_svd, of the kernels formed, and of every
        np.linalg.svd input shaped like one of those joints."""
        record = {"joints": [], "kernels": [], "svds": []}
        maxcorr, kernel_matrix, svd = correlation.maxcorr_svd, correlation._kernel_matrix, np.linalg.svd

        def maxcorr_spy(joint, *args, **kwargs):
            record["joints"].append(joint.masses.shape)
            return maxcorr(joint, *args, **kwargs)

        def kernel_spy(joint):
            kernel = kernel_matrix(joint)
            record["kernels"].append(kernel.shape)
            return kernel

        def svd_spy(matrix, *args, **kwargs):
            if np.shape(matrix) in record["joints"]:
                record["svds"].append(np.shape(matrix))
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(correlation, "maxcorr_svd", maxcorr_spy)
        monkeypatch.setattr(correlation, "_kernel_matrix", kernel_spy)
        monkeypatch.setattr(np.linalg, "svd", svd_spy)
        return record

    def test_bench_never_decomposes_a_kernel(self, kernel_svds, tmp_path):
        assert main(["bench", "--grid", "64", "--out", str(tmp_path / "bench.csv")]) == 0
        assert len(kernel_svds["joints"]) == len(BENCH_FIXTURES)
        assert kernel_svds["kernels"] == []
        assert kernel_svds["svds"] == []

    def test_report_never_decomposes_the_kernel(self, kernel_svds, model_file, tmp_path):
        assert main(["report", "--model", model_file, "--out", str(tmp_path / "r.json")]) == 0
        assert len(kernel_svds["joints"]) == 1
        assert kernel_svds["kernels"] == []
        assert kernel_svds["svds"] == []

    def test_maxcorr_asks_once(self, svd_calls, capsys):
        assert main(["maxcorr", "--fixture", "fgm:0.2", "--grid", "64", "--format", "json"]) == 0
        assert svd_calls == [True]


class TestEqualMarginals:
    def test_report_bytes_match_two_separately_built_systems(self, model_file, tmp_path, monkeypatch):
        built = []
        build_system = lancaster.build_system
        monkeypatch.setattr(lancaster, "build_system", lambda *args: built.append(args) or build_system(*args))
        shared, separate = tmp_path / "shared.json", tmp_path / "separate.json"
        assert main(["report", "--model", model_file, "--out", str(shared)]) == 0
        assert len(built) == 1
        # with equality by identity the two parsed marginals differ, so each builds its own system
        monkeypatch.setattr(MarginalSpec, "__eq__", object.__eq__)
        assert main(["report", "--model", model_file, "--out", str(separate)]) == 0
        assert len(built) == 3
        assert shared.read_bytes() == separate.read_bytes()


class TestBenchAgreesWithMaxcorr:
    def test_R_svd_is_the_second_singular_value(self, capsys):
        assert main(["bench", "--grid", "64", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["fixture"] for row in rows] == list(BENCH_FIXTURES)
        for row in rows:
            assert main(["maxcorr", "--fixture", row["fixture"], "--grid", "64", "--format", "json"]) == 0
            spectrum = json.loads(capsys.readouterr().out)["spectrum"]
            assert abs(row["R_svd"] - spectrum[1]) <= 1e-15, row["fixture"]


class TestOrthonormalityFailure:
    @pytest.mark.parametrize(
        "marginal",
        [
            {"kind": "uniform", "support": [1e5, 100001]},
            {"kind": "beta", "support": [0, 1], "params": {"a": 1.5, "b": 1.5}},
        ],
        ids=["uniform-far-from-zero", "beta-1.5"],
    )
    def test_report_exits_three_with_one_line(self, tmp_path, capsys, marginal):
        cfg = json.loads(json.dumps(HEADLINE_CONFIG))
        cfg["marginal_x"] = marginal
        cfg["max_degree"] = 4
        assert main(["report", "--model", _write_config(tmp_path, cfg)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: orthonormality-failed: Gram residual")
        assert lines[0].count("orthonormality-failed") == 1


class TestInputLimits:
    @pytest.mark.parametrize(
        "args",
        [
            ["bench", "--grid", str(cli.MAX_GRID + 1)],
            ["maxcorr", "--fixture", "disc", "--grid", str(10**9)],
            ["sample", "--fixture", "fgm:0.2", "--count", str(10**12)],
            ["sample", "--fixture", "fgm:0.2", "--count", str(cli.MAX_COUNT + 1)],
            ["bench", "--tol", "inf"],
            ["bench", "--tol", "1.0"],
            ["report", "--fixture", "fgm:0.2", "--tol", "1e300"],
        ],
        ids=[
            "grid-2049", "grid-1e9", "count-1e12", "count-limit-plus-one",
            "tol-inf", "tol-1", "tol-1e300",
        ],
    )
    def test_rejected_before_anything_runs(self, args, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("the command ran"))
        assert main(args) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config-error: ")
        assert "at most" in lines[0]

    def test_limits_themselves_are_accepted(self):
        assert cli.RunConfig("bench", grid=cli.MAX_GRID).grid == 2048
        assert cli.RunConfig("sample", count=cli.MAX_COUNT).count == 10_000_000
        assert cli.RunConfig("bench", tol=cli.MAX_TOL).tol == 1e-3
