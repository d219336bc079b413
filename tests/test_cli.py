import json
import warnings

import numpy as np
import pytest

from lancaster_lab import cli, model_from_config
from lancaster_lab.cli import main

HEADLINE_CONFIG = {
    "marginal_x": {"kind": "uniform", "support": [0, 1]},
    "marginal_y": {"kind": "uniform", "support": [0, 1]},
    "rho": [0.05, 0.15],
    "max_degree": 8,
}

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

    def test_geometric_fixture_is_not_samplable(self, capsys):
        assert main(["sample", "--fixture", "disc"]) == 1
        assert "error: config-error" in capsys.readouterr().err


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

    def test_bad_flag_exits_two_on_repeated_calls(self, model_file):
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(["report", "--model", model_file, "--no-such-flag"])
            assert exit_info.value.code == 2
        assert main(["validate", "--model", model_file]) == 0


class TestErrorHandling:
    def test_missing_model_file(self, capsys):
        assert main(["report", "--model", "/nonexistent/path.json"]) == 1
        assert "error: config-error" in capsys.readouterr().err

    def test_unknown_fixture(self, capsys):
        assert main(["maxcorr", "--fixture", "torus"]) == 1
        assert "error: config-error" in capsys.readouterr().err

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
        ],
    )
    def test_malformed_value_types_end_in_one_config_error(self, tmp_path, capsys, mutate):
        cfg = json.loads(json.dumps(HEADLINE_CONFIG))
        mutate(cfg)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(cfg))
        assert main(["report", "--model", str(path)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: config-error: ")

    @pytest.mark.parametrize(
        "key,value",
        [("N", 2.9), ("N", True), ("max_degree", 8.7), ("quad_nodes", 130.5)],
    )
    def test_non_integer_counts_end_in_one_config_error(self, tmp_path, capsys, key, value):
        cfg = json.loads(json.dumps(HEADLINE_CONFIG))
        if key == "N":
            cfg.pop("rho")
            cfg["rho_builder"] = {"type": "quadratic", "N": value}
        else:
            cfg[key] = value
        path = tmp_path / "count.json"
        path.write_text(json.dumps(cfg))
        assert main(["report", "--model", str(path)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: config-error: ")
        assert f"{key!r} must be an integer" in errors[0]

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

    @pytest.mark.parametrize("key,value", [("quad_nodes", 2048), ("max_degree", 64)])
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

    def test_bench_never_asks_for_singular_vectors(self, svd_calls, tmp_path):
        assert main(["bench", "--grid", "64", "--out", str(tmp_path / "bench.csv")]) == 0
        assert svd_calls == [False] * 5

    def test_report_never_asks_for_singular_vectors(self, svd_calls, model_file, tmp_path):
        assert main(["report", "--model", model_file, "--out", str(tmp_path / "r.json")]) == 0
        assert svd_calls == [False]

    def test_maxcorr_asks_once(self, svd_calls, capsys):
        assert main(["maxcorr", "--fixture", "fgm:0.2", "--grid", "64", "--format", "json"]) == 0
        assert svd_calls == [True]


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
