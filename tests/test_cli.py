"""Preset registry and the command-line front end."""

import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shallowop
from shallowop import experiment
from shallowop.cli import main
from shallowop.errors import ConfigError
from shallowop.experiment import ExperimentConfig
from shallowop.presets import (
    preset_description,
    preset_dict,
    preset_names,
)


class TestPresets:
    def test_registry_covers_the_benchmarks(self):
        names = preset_names()
        for expected in ("integral_gaussian", "poisson_dirichlet", "superposition_sin",
                         "matrix_sin_trace", "sequence_decay", "hilbert_poisson",
                         "zero_map"):
            assert expected in names

    def test_every_preset_parses(self):
        for name in preset_names():
            cfg = ExperimentConfig.from_dict(preset_dict(name))
            assert cfg.name == name
            assert preset_description(name)

    def test_preset_dict_is_a_private_copy(self):
        d = preset_dict("poisson_dirichlet")
        d["seed"] = 999
        d["ensemble"]["count"] = 1
        again = preset_dict("poisson_dirichlet")
        assert again["seed"] != 999
        assert again["ensemble"]["count"] != 1

    def test_unknown_preset_lists_alternatives(self):
        with pytest.raises(ConfigError, match="integral_gaussian"):
            preset_dict("not_a_preset")

    def test_presets_pin_unregularized_fits(self):
        # the shipped benchmark ensembles need the minimum-norm path to converge
        for name in preset_names():
            assert ExperimentConfig.from_dict(preset_dict(name)).fit["lam"] == 0.0


MATRIX_ENSEMBLE = {"family": "matrix_ball", "count": 30, "shape": [2, 2], "radius": 1.0}
#: overrides that make quick_config a matrix config, which takes no grid
MATRIX_CONFIG = {"grid": None, "ensemble": MATRIX_ENSEMBLE}
BAND_ENSEMBLE = {"family": "band_limited", "count": 30, "radii": [1.0, 0.5]}
TWO_SEMINORMS = [{"kind": "lq", "q": 2.0}, {"kind": "sup_derivative", "order": 0}]


def sin_trace(out_dim):
    return {"kind": "matrix_map", "map": "sin_of_trace_times_basis", "out_dim": out_dim}


def quick_config(tmp_path, **overrides):
    doc = {
        "name": "quick",
        "grid": {"a": 0.0, "b": 1.0, "n": 41},
        "ensemble": BAND_ENSEMBLE,
        "operator": {"kind": "poisson"},
        "seminorms": [{"kind": "lq", "q": 2.0}],
        "epsilons": [0.2, 0.1],
        "fit": {"lam": 0.0, "width": 32, "max_width": 256},
        "seed": 11,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def report_rows(path):
    """The rows of an emitted report.csv, as csv.DictReader reads them."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCliRun:
    def test_run_writes_reports_and_exits_zero(self, tmp_path, capsys):
        cfg = quick_config(tmp_path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        stdout = capsys.readouterr().out
        assert "epsilon=0.2" in stdout and "epsilon=0.1" in stdout

    def test_run_accepts_preset_name(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "--config", "zero_map", "--out", str(out)]) == 0
        (row,) = report_rows(out / "report.csv")[:1]
        assert int(row["m_centers"]) == 1

    def test_out_flag_overrides_config(self, tmp_path, capsys):
        cfg = quick_config(tmp_path, out=str(tmp_path / "from_config"))
        override = tmp_path / "flag_wins"
        assert main(["run", "--config", str(cfg), "--out", str(override)]) == 0
        assert (override / "report.csv").exists()
        assert not (tmp_path / "from_config").exists()

    def test_summary_line_shows_the_targeted_error_under_its_label(self, tmp_path, capsys):
        # the sup error of a Poisson solution exceeds its L2 error on [0, 1]
        cfg = quick_config(tmp_path, seminorms=TWO_SEMINORMS, target_index=0)
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        runs = json.loads((out / "report.json").read_text())["runs"]
        for line, run in zip(lines, runs):
            errors = run["train_errors"]
            assert errors["sup_d0"] > errors["lq(q=2)"]
            assert line.endswith(f"train_sup[lq(q=2)]={errors['lq(q=2)']:.3e}")

    def test_run_builds_the_config_once(self, tmp_path, capsys, monkeypatch):
        # loading builds the operator and seminorms; the sweep and the
        # summary line use what loading built
        built = []
        build_operator = experiment.build_operator

        def counting(config):
            built.append(config.name)
            return build_operator(config)

        monkeypatch.setattr(experiment, "build_operator", counting)
        cfg = quick_config(tmp_path, seminorms=TWO_SEMINORMS)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert built == ["quick"]
        # a seed override is set on the document before it is built
        built.clear()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "s"),
                     "--seed", "5"]) == 0
        assert built == ["quick"]

    def test_missing_out_dir_is_a_config_error(self, tmp_path, capsys):
        cfg = quick_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "output directory" in capsys.readouterr().err

    def test_seed_flag_changes_results(self, tmp_path, capsys):
        cfg = quick_config(tmp_path)
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        main(["run", "--config", str(cfg), "--out", str(out_a)])
        main(["run", "--config", str(cfg), "--out", str(out_b), "--seed", "12"])
        main(["run", "--config", str(cfg), "--out", str(out_c), "--seed", "11"])
        errors_a, errors_b, errors_c = (
            float(report_rows(out / "report.csv")[0]["train_sup_error"])
            for out in (out_a, out_b, out_c))
        assert errors_a != errors_b
        assert errors_a == errors_c

    def test_missing_config_file_diagnosed(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert "nope.json" in err

    def test_config_directory_diagnosed(self, tmp_path, capsys, monkeypatch):
        # a path that exists but is no file: open's OSError, exit status 2
        assert main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"cannot read config {tmp_path}" in err and not (tmp_path / "o").exists()
        # so is a name in the working directory that names no preset
        (tmp_path / "results").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "results", "--out", "o"]) == 2
        assert "cannot read config results" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_preset_name_is_the_preset_beside_a_directory_of_that_name(self, tmp_path,
                                                                       monkeypatch, capsys):
        # such as the output of an earlier --out zero_map; it used to be read
        # as the config path and fail with "Is a directory"
        (tmp_path / "zero_map").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "zero_map", "--out", "zero_map"]) == 0
        assert int(report_rows(tmp_path / "zero_map" / "report.csv")[0]["m_centers"]) == 1

    def test_file_named_like_a_preset_is_read_by_its_path(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "zero_map").write_text(json.dumps({**preset_dict("zero_map"),
                                                       "name": "local"}))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "zero_map", "--out", "preset"]) == 0
        assert main(["run", "--config", "./zero_map", "--out", "file"]) == 0
        names = [json.loads((tmp_path / out / "report.json").read_text())["config"]["name"]
                 for out in ("preset", "file")]
        assert names == ["zero_map", "local"]

    def test_invalid_json_diagnosed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2
        assert "bad.json" in capsys.readouterr().err

    def test_invalid_field_diagnosed_by_name(self, tmp_path, capsys):
        cfg = quick_config(tmp_path, epsilons=[-0.5])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "epsilons" in capsys.readouterr().err

    def test_seminorm_that_cannot_apply_exits_2_before_running(self, tmp_path, capsys):
        # a derivative of sequence entries: refused by name, and nothing written
        doc = {**preset_dict("sequence_decay"), "seminorms": [{"kind": "sup_derivative",
                                                               "order": 1}]}
        cfg, out = tmp_path / "config.json", tmp_path / "o"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "field 'seminorms[0].order'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg = quick_config(tmp_path)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seed", "-3"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, field", [
        ({"fit": {"activation": "nope"}}, "fit.activation"),
        ({"fit": {"activation": {"name": "polynomial", "coefficients": []}}}, "fit.activation"),
        ({"fit": {"functional_order": "3"}}, "fit.functional_order"),
        ({"fit": {"functional_scale": "1.0"}}, "fit.functional_scale"),
        ({"seminorms": [{"kind": "lq", "q": "2"}]}, "seminorms[0].q"),
        ({"seminorms": [{"kind": "schwartz", "radius": "8"}]}, "seminorms[0].radius"),
        ({**MATRIX_CONFIG, "operator": sin_trace(0)}, "operator.out_dim"),
        ({**MATRIX_CONFIG, "operator": sin_trace("two")}, "operator.out_dim"),
        ({**MATRIX_CONFIG, "operator": sin_trace(2.5)}, "operator.out_dim"),
        ({**MATRIX_CONFIG, "operator": {"kind": "zero", "out_dim": -1}},
         "operator.out_dim"),
        ({"seminorms": [{"kind": "schwartz", "alpha": -1}]}, "seminorms[0].alpha"),
        ({"seminorms": [{"kind": "schwartz", "alpha": "x"}]}, "seminorms[0].alpha"),
        ({"seminorms": [{"kind": "schwartz", "alpha": 1.5}]}, "seminorms[0].alpha"),
        ({"seminorms": [{"kind": "schwartz", "alpha": 10**400}]}, "seminorms[0].alpha"),
        ({"seminorms": [{"kind": "schwartz", "beta": -1}]}, "seminorms[0].beta"),
        ({"seminorms": [{"kind": "schwartz", "beta": "x"}]}, "seminorms[0].beta"),
        ({"seminorms": [{"kind": "schwartz", "beta": 1.5}]}, "seminorms[0].beta"),
        ({"ensemble": {**BAND_ENSEMBLE, "count": "100"}}, "ensemble.count"),
        ({"ensemble": {**BAND_ENSEMBLE, "radii": "abc"}}, "ensemble.radii"),
        ({"ensemble": {**BAND_ENSEMBLE, "radii": [1, "x"]}}, "ensemble.radii"),
        ({"ensemble": {**BAND_ENSEMBLE, "radii": 5}}, "ensemble.radii"),
        ({**MATRIX_CONFIG, "ensemble": {**MATRIX_ENSEMBLE, "shape": "ab"},
          "operator": sin_trace(3)}, "ensemble.shape"),
        ({**MATRIX_CONFIG, "ensemble": {**MATRIX_ENSEMBLE, "radius": "1"},
          "operator": sin_trace(3)}, "ensemble.radius"),
        ({"fit": {"theta_range": ["a", "b"]}}, "fit.theta_range"),
        ({"duals": [{"values": ["a"]}]}, "duals[0].values"),
        ({"ensemble": {**BAND_ENSEMBLE, "count": 2.5}}, "ensemble.count"),
        ({"ensemble": {**BAND_ENSEMBLE, "count": True}}, "ensemble.count"),
        ({"ensemble": {**BAND_ENSEMBLE, "count": 10**30}}, "ensemble.count"),
        ({**MATRIX_CONFIG, "ensemble": {**MATRIX_ENSEMBLE, "shape": [10**30, 2]},
          "operator": sin_trace(3)}, "ensemble.shape"),
        ({"fit": {"width": 10**30}}, "fit.width"),
        ({"fit": {"max_width": 10**30}}, "fit.max_width"),
        ({"fit": {"functional_order": 10**30}}, "fit.functional_order"),
        ({"grid": {"a": 0.0, "b": 1.0, "n": 2.7}}, "grid.n"),
        ({"fit": {"width": True}}, "fit.width"),
        ({"fit": {"lam": True}}, "fit.lam"),
        ({"seed": True}, "seed"),
        ({"seminorms": TWO_SEMINORMS, "target_index": True}, "target_index"),
        ({"seminorms": [{"kind": "sup_derivative", "order": True}]}, "seminorms[0].order"),
        ({"seminorms": [{"kind": "lq", "q": True}]}, "seminorms[0].q"),
        ({"epsilons": [True]}, "epsilons"),
        ({"epsilons": [float("inf")]}, "epsilons"),
        ({"duals": [{"values": [1.0, 2.0]}]}, "duals[0].values"),
        ({"duals": [{"name": 3}]}, "duals[0].name"),
        ({"seminorms": [{"kind": "lq", "qq": 3}]}, "seminorms[0].qq"),
        ({"operator": {"kind": "poisson", "kernal": {}}}, "operator.kernal"),
        ({"ensemble": {**BAND_ENSEMBLE, "radius": 1.0}}, "ensemble.radius"),
        ({"ensemble": {**BAND_ENSEMBLE, "shape": [2, 2]}}, "ensemble.shape"),
        ({"duals": [{"vals": [1.0]}]}, "duals[0].vals"),
        ({"grid": {"a": 0.0, "b": 1.0, "n": 41, "m": 3}}, "grid.m"),
        ({"seminorms": [{"kind": "schwartz", "radius": 8}, {"kind": "schwartz"}]},
         "seminorms[1]"),
        ({"duals": [{"name": "m"}, {"name": "m", "values": "ones"}]}, "duals[1].name"),
        ({"operator": {"kind": "integral", "kernel": {"name": "gaussian", "width": "nan"}}},
         "operator.kernel.width"),
        ({"operator": {"kind": "integral", "kernel": {"name": "gaussian", "width": "0.25"}}},
         "operator.kernel.width"),
        ({"operator": {"kind": "integral", "kernel": {"name": "gaussian", "width": True}}},
         "operator.kernel.width"),
        ({"operator": {"kind": "integral", "kernel": {"name": "gaussian",
                                                       "width": float("nan")}}},
         "operator.kernel.width"),
        ({"operator": {"kind": "integral", "kernel": {"name": "constant", "value": "nan"}}},
         "operator.kernel.value"),
        ({"operator": {"kind": "integral", "kernel": {"name": "constant", "value": True}}},
         "operator.kernel.value"),
        ({"operator": {"kind": "integral", "kernel": {"width": 0.25}}}, "operator.kernel.name"),
        ({"operator": {"kind": "integral", "kernel": {"name": "gaussian", "value": 1.0}}},
         "operator.kernel.value"),
        ({"grid": {"a": 0.0, "b": 1.0, "n": 2}}, "grid.n"),
        ({"ensemble": MATRIX_ENSEMBLE, "operator": sin_trace(3)}, "'grid'"),
        ({"ensemble": {"family": "sequence_box", "count": 30, "radii": [1.0, 0.5]},
          "operator": {"kind": "superposition", "map": "sin"}}, "'grid'"),
        ({"fit": {"theta_range": [-1e308, 1e308]}}, "'fit.theta_range'"),
        ({"ensemble": {**BAND_ENSEMBLE, "count": 2 * 10**17}}, "'ensemble.count'"),
        ({"grid": {"a": -10.0, "b": 10.0, "n": 101},
          "seminorms": [{"kind": "schwartz", "alpha": 400, "radius": 8.0}]},
         "'seminorms[0].alpha'"),
        ({"fit": {"activation": {"name": "polynomial", "coefficients": []}}},
         "'fit.activation.coefficients'"),
        ({"fit": {"activation": {"name": "tanh", "scale": 2}}},
         "'fit.activation.scale' is not an option of the tanh activation"),
        ({**MATRIX_CONFIG, "ensemble": {**MATRIX_ENSEMBLE, "shape": [2**31, 2**31]},
          "operator": sin_trace(3)}, "'ensemble.shape' must be at most 1152921504606846975, "
                                     "the most float64 entries of one array, "
                                     "got 2147483648 x 2147483648"),
    ], ids=["unknown_activation", "empty_polynomial", "string_order", "string_scale",
            "string_q", "string_radius", "zero_out_dim", "string_out_dim", "float_out_dim",
            "negative_out_dim", "negative_alpha", "string_alpha", "float_alpha", "huge_alpha",
            "negative_beta", "string_beta", "float_beta", "string_count", "string_radii",
            "mixed_radii", "scalar_radii", "string_shape", "string_radius_matrix",
            "string_theta_range", "string_dual_values", "float_count", "bool_count",
            "huge_count", "huge_shape", "huge_width", "huge_max_width", "huge_order",
            "float_grid_n", "bool_width", "bool_lam", "bool_seed", "bool_target_index",
            "bool_order", "bool_q", "bool_epsilon", "infinite_epsilon",
            "short_dual_values", "int_dual_name", "unknown_lq_key", "unknown_operator_key",
            "band_limited_radius", "band_limited_shape", "unknown_dual_key", "unknown_grid_key",
            "repeated_schwartz_label", "repeated_dual_name", "string_nan_kernel_width",
            "string_kernel_width", "bool_kernel_width", "nan_kernel_width",
            "string_kernel_value", "bool_kernel_value", "unnamed_kernel",
            "kernel_param_of_another_kernel", "poisson_grid_without_interior",
            "grid_on_matrix_ball", "grid_on_sequence_box", "infinite_theta_width",
            "unallocatable_count", "overflowing_schwartz_weight",
            "empty_polynomial_coefficients", "option_tanh_does_not_take",
            "shape_entries_no_array_holds"])
    def test_bad_field_type_named_with_exit_2(self, tmp_path, capsys, overrides, field):
        cfg = quick_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=re.escape(field)):
            ExperimentConfig.from_dict(json.loads(cfg.read_text()))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err


class TestCliPresets:
    def test_list_names_every_preset(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        for name in preset_names():
            assert name in out

    def test_show_emits_loadable_json(self, tmp_path, capsys):
        assert main(["presets", "show", "poisson_dirichlet"]) == 0
        doc = json.loads(capsys.readouterr().out)
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.name == "poisson_dirichlet"

    def test_show_unknown_preset_fails(self, capsys):
        assert main(["presets", "show", "wat"]) == 2
        assert "wat" in capsys.readouterr().err


class TestConsoleScript:
    def test_module_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shallowop.cli", "presets", "list"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "integral_gaussian" in proc.stdout

    def test_poisson_run_loads_no_scipy(self, tmp_path):
        # numpy is the only runtime dependency; scipy is a test-only reference,
        # so neither importing shallowop nor a Poisson solve may load it
        args = ["run", "--config", str(quick_config(tmp_path)), "--out", str(tmp_path / "o")]
        code = ("import sys\nfrom shallowop.cli import main\n"
                f"status = main({args!r})\n"
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
                "sys.exit(status)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_package_version_matches_pyproject(self):
        # a regex, not tomllib, which Python 3.10 lacks
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        versions = re.findall(r'^version = "([^"]+)"$', text, re.M)
        assert versions == [shallowop.__version__]
