"""Config parsing, sweep running, and report emission."""

import json

import numpy as np
import pytest

from shallowop.errors import ConfigError
from shallowop.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentReport,
    build_operator,
    emit_report,
    read_report_csv,
    run_experiment,
)
from shallowop.network import deserialize_network


def small_dict(**overrides):
    base = {
        "name": "small",
        "grid": {"a": 0.0, "b": 1.0, "n": 41},
        "ensemble": {"family": "band_limited", "count": 40, "radii": [1.0, 0.5]},
        "operator": {"kind": "poisson"},
        "seminorms": [{"kind": "lq", "q": 2.0}],
        "target_index": 0,
        "epsilons": [0.2],
        "heldout_fraction": 0.2,
        "fit": {"lam": 0.0, "width": 32, "max_width": 256},
        "seed": 7,
    }
    base.update(overrides)
    return base


def stripped(report):
    doc = report.to_dict()
    doc = json.loads(json.dumps(doc))
    doc.pop("created_at")
    for r in doc["runs"]:
        r.pop("wall_ms")
    return json.dumps(doc, sort_keys=True)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(small_dict())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg.to_dict() == again.to_dict()

    def test_defaults_filled(self):
        cfg = ExperimentConfig.from_dict(small_dict(fit={}))
        assert cfg.heldout_fraction == 0.2
        assert cfg.fit["activation"] == "tanh"
        assert cfg.fit["width"] == 64
        assert cfg.save_networks is False

    def test_unknown_top_level_field_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_dict(small_dict(bogus=1))

    def test_bad_heldout_fraction_named(self):
        with pytest.raises(ConfigError, match="heldout_fraction"):
            ExperimentConfig.from_dict(small_dict(heldout_fraction=1.0))
        with pytest.raises(ConfigError, match="heldout_fraction"):
            ExperimentConfig.from_dict(small_dict(heldout_fraction=-0.1))

    def test_bad_epsilons_named(self):
        with pytest.raises(ConfigError, match="epsilons"):
            ExperimentConfig.from_dict(small_dict(epsilons=[0.2, -0.1]))
        with pytest.raises(ConfigError, match="epsilons"):
            ExperimentConfig.from_dict(small_dict(epsilons=[0.0]))

    def test_bad_target_index_named(self):
        with pytest.raises(ConfigError, match="target_index"):
            ExperimentConfig.from_dict(small_dict(target_index=1))

    def test_bad_seminorm_named_with_position(self):
        bad = small_dict(seminorms=[{"kind": "lq", "q": 2.0}, {"kind": "huh"}])
        with pytest.raises(ConfigError, match=r"seminorms\[1\]"):
            ExperimentConfig.from_dict(bad)

    def test_bad_fit_fields_named(self):
        with pytest.raises(ConfigError, match="fit.width"):
            ExperimentConfig.from_dict(small_dict(fit={"width": 0}))
        with pytest.raises(ConfigError, match="fit.max_width"):
            ExperimentConfig.from_dict(small_dict(fit={"width": 64, "max_width": 32}))
        with pytest.raises(ConfigError, match="fit.lam"):
            ExperimentConfig.from_dict(small_dict(fit={"lam": -1.0}))
        with pytest.raises(ConfigError, match="fit.theta_range"):
            ExperimentConfig.from_dict(small_dict(fit={"theta_range": [3, -3]}))
        with pytest.raises(ConfigError, match="fit.nonsense"):
            ExperimentConfig.from_dict(small_dict(fit={"nonsense": 1}))

    def test_bad_seed_named(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict(small_dict(seed=-1))
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict(small_dict(seed=1.5))

    def test_unknown_operator_kind_named(self):
        with pytest.raises(ConfigError, match="operator.kind"):
            ExperimentConfig.from_dict(small_dict(operator={"kind": "mystery"}))

    def test_operator_ensemble_mismatch(self):
        bad = small_dict(
            ensemble={"family": "sequence_box", "count": 10, "radii": [1.0, 0.5]}
        )
        with pytest.raises(ConfigError, match="function ensemble"):
            ExperimentConfig.from_dict(bad)

    def test_band_limited_needs_grid(self):
        bad = small_dict()
        del bad["grid"]
        with pytest.raises(ConfigError, match="grid"):
            ExperimentConfig.from_dict(bad)

    def test_bad_kernel_params_named(self):
        bad = small_dict(operator={"kind": "integral",
                                   "kernel": {"name": "gaussian", "wobble": 2}})
        with pytest.raises(ConfigError, match="operator.kernel"):
            ExperimentConfig.from_dict(bad)

    def test_bad_dual_values_named(self):
        with pytest.raises(ConfigError, match=r"duals\[0\]"):
            ExperimentConfig.from_dict(small_dict(duals=[{"values": []}]))

    def test_empty_epsilons_allowed(self):
        cfg = ExperimentConfig.from_dict(small_dict(epsilons=[]))
        assert cfg.epsilons == ()


class TestBuildOperator:
    def test_kinds_instantiate_with_matching_shapes(self):
        for op_spec, ens in [
            ({"kind": "integral", "kernel": {"name": "gaussian", "width": 0.5}}, None),
            ({"kind": "poisson"}, None),
            ({"kind": "superposition", "map": "sin"}, None),
            ({"kind": "zero"}, None),
        ]:
            cfg = ExperimentConfig.from_dict(small_dict(operator=op_spec))
            op = build_operator(cfg)
            assert op.output_dim == 41
        mat = small_dict(
            ensemble={"family": "matrix_ball", "count": 10, "shape": [2, 2],
                      "radius": 1.0},
            operator={"kind": "matrix_map", "map": "row_sums"},
        )
        del mat["grid"]
        op = build_operator(ExperimentConfig.from_dict(mat))
        assert op.output_dim == 2


class TestRunExperiment:
    def test_zero_ensemble_superposition_trivial_branch(self):
        # all-zero samples make sin(f) identically zero: one center, no neurons
        cfg = ExperimentConfig.from_dict(small_dict(
            ensemble={"family": "band_limited", "count": 20, "radii": [0.0]},
            operator={"kind": "superposition", "map": "sin"},
            seminorms=[{"kind": "lq", "q": 2.0}, {"kind": "sup_derivative", "order": 0}],
        ))
        report = run_experiment(cfg)
        (run,) = report.runs
        assert run.m_centers == 1
        assert run.degenerate
        assert run.network_width == 0
        assert all(v == 0.0 for v in run.train_errors.values())
        assert all(v == 0.0 for v in run.heldout_errors.values())

    def test_repeat_runs_byte_identical_modulo_timing(self):
        cfg = ExperimentConfig.from_dict(small_dict(epsilons=[0.2, 0.1]))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.created_at != "" and stripped(a) == stripped(b)

    def test_threaded_matches_serial_and_preserves_order(self):
        cfg = ExperimentConfig.from_dict(small_dict(epsilons=[0.2, 0.1, 0.05]))
        serial = run_experiment(cfg)
        threaded = run_experiment(cfg, threads=3)
        assert [r.epsilon for r in threaded.runs] == [0.2, 0.1, 0.05]
        assert stripped(serial) == stripped(threaded)

    def test_poisson_sweep_train_error_below_epsilon_when_converged(self):
        cfg = ExperimentConfig.from_dict(small_dict(epsilons=[0.2, 0.1, 0.05]))
        report = run_experiment(cfg)
        for run in report.runs:
            if run.converged:
                assert run.train_errors["lq(q=2)"] < run.epsilon

    def test_heldout_fraction_zero_leaves_heldout_unreported(self):
        cfg = ExperimentConfig.from_dict(small_dict(heldout_fraction=0.0))
        (run,) = run_experiment(cfg).runs
        assert run.heldout_errors is None

    def test_duals_reported_only_when_configured(self):
        plain = run_experiment(ExperimentConfig.from_dict(small_dict())).runs[0]
        assert plain.dual_train_errors is None
        cfg = ExperimentConfig.from_dict(small_dict(
            duals=[{"name": "mean", "values": "ones"}]
        ))
        (run,) = run_experiment(cfg).runs
        assert set(run.dual_train_errors) == {"mean"}
        assert run.dual_train_errors["mean"] >= 0.0
        assert set(run.dual_heldout_errors) == {"mean"}

    def test_dual_sharing_a_member_label_keeps_its_own_value(self):
        mean, = run_experiment(ExperimentConfig.from_dict(small_dict(
            duals=[{"name": "mean", "values": "ones"}]))).runs
        shared, = run_experiment(ExperimentConfig.from_dict(small_dict(
            duals=[{"name": "lq(q=2)", "values": "ones"}]))).runs
        assert shared.train_errors == mean.train_errors
        assert shared.heldout_errors == mean.heldout_errors
        assert shared.dual_train_errors == {"lq(q=2)": mean.dual_train_errors["mean"]}
        assert shared.dual_heldout_errors == {"lq(q=2)": mean.dual_heldout_errors["mean"]}

    def test_dual_vector_length_mismatch_raises(self):
        cfg = ExperimentConfig.from_dict(small_dict(duals=[{"values": [1.0, 2.0]}]))
        with pytest.raises(ConfigError, match="entries"):
            run_experiment(cfg)

    def test_seed_changes_numbers(self):
        a = run_experiment(ExperimentConfig.from_dict(small_dict(seed=7)))
        b = run_experiment(ExperimentConfig.from_dict(small_dict(seed=8)))
        assert stripped(a) != stripped(b)

    def test_wall_clock_recorded(self):
        (run,) = run_experiment(ExperimentConfig.from_dict(small_dict())).runs
        assert run.wall_ms > 0.0


class TestEmitReport:
    def test_empty_sweep_writes_header_only(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_dict(epsilons=[]))
        report = run_experiment(cfg)
        emit_report(report, tmp_path)
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_single_run_single_seminorm_one_row(self, tmp_path):
        report = run_experiment(ExperimentConfig.from_dict(small_dict()))
        emit_report(report, tmp_path)
        rows = read_report_csv(tmp_path / "report.csv")
        assert len(rows) == 1

    def test_three_epsilon_two_seminorm_six_rows(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_dict(
            epsilons=[0.2, 0.1, 0.05],
            seminorms=[{"kind": "lq", "q": 2.0}, {"kind": "sup_derivative", "order": 0}],
        ))
        report = run_experiment(cfg)
        emit_report(report, tmp_path)
        rows = read_report_csv(tmp_path / "report.csv")
        assert len(rows) == 6
        assert [r["epsilon"] for r in rows] == [0.2, 0.2, 0.1, 0.1, 0.05, 0.05]

    def test_csv_reads_back_losslessly(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_dict(epsilons=[0.2, 0.1]))
        report = run_experiment(cfg)
        emit_report(report, tmp_path)
        rows = read_report_csv(tmp_path / "report.csv")
        for run, row in zip(report.runs, rows):
            assert row["epsilon"] == run.epsilon
            assert row["m_centers"] == run.m_centers
            assert row["C"] == run.C
            assert row["delta"] == run.delta
            assert row["width"] == run.network_width
            assert row["converged"] == run.converged
            assert row["train_sup_error"] == run.train_errors["lq(q=2)"]
            assert row["heldout_sup_error"] == run.heldout_errors["lq(q=2)"]
            assert row["wall_ms"] == run.wall_ms

    def test_degenerate_run_blanks_delta(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_dict(
            ensemble={"family": "band_limited", "count": 20, "radii": [0.0]},
            operator={"kind": "zero"},
        ))
        emit_report(run_experiment(cfg), tmp_path)
        (row,) = read_report_csv(tmp_path / "report.csv")
        assert row["delta"] is None
        assert row["train_sup_error"] == 0.0

    def test_json_config_round_trips(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_dict())
        emit_report(run_experiment(cfg), tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert ExperimentConfig.from_dict(doc["config"]).to_dict() == cfg.to_dict()
        assert doc["runs"][0]["m_centers"] >= 1

    def test_network_documents_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_dict(save_networks=True))
        report = run_experiment(cfg)
        emit_report(report, tmp_path)
        doc = json.loads((tmp_path / "network_run0.json").read_text())
        net = deserialize_network(doc)
        assert net.width == report.runs[0].network_width

    def test_io_failure_names_path(self, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("a file, not a directory")
        cfg = ExperimentConfig.from_dict(small_dict())
        report = run_experiment(cfg)
        with pytest.raises(OSError, match="taken"):
            emit_report(report, blocker / "sub")

    def test_unexpected_csv_columns_rejected(self, tmp_path):
        bad = tmp_path / "report.csv"
        bad.write_text("epsilon,surprise\n0.1,1\n")
        with pytest.raises(ValueError, match="columns"):
            read_report_csv(bad)
