"""Config parsing, sweep running, and report emission."""

import csv
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from shallowop import experiment, network
from shallowop.errors import ConfigError
from shallowop.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentReport,
    _split,
    build_operator,
    emit_report,
    run_experiment,
)
from shallowop.inputs import sample_ensemble
from shallowop.network import ShallowVectorNetwork, Tanh, deserialize_network
from shallowop.presets import preset_dict
from shallowop.seeding import derive_seed
from shallowop.targets import (
    DualPairing,
    GridMeta,
    LqNorm,
    SchwartzWeighted,
    SupDerivative,
)


#: the most float64 entries numpy can size one array by
LIMIT = np.iinfo(np.intp).max // 8


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


#: a number field set to an integer that no float holds, and the overrides
#: of small_dict that put it there
BEYOND_FLOAT_RANGE = {
    "epsilons": {"epsilons": [0.1, 10**400]},
    "heldout_fraction": {"heldout_fraction": 10**400},
    "fit.lam": {"fit": {"lam": 10**400}},
    "fit.theta_range": {"fit": {"theta_range": [-3.0, 10**400]}},
    "operator.kernel.width": {"operator": {"kind": "integral",
                                           "kernel": {"name": "gaussian", "width": 10**400}}},
    "fit.activation.coefficients": {"fit": {"activation": {"name": "polynomial",
                                                           "coefficients": [0.0, 10**400]}}},
    # an integer node count that numpy cannot size the grid's nodes by
    "grid.n": {"grid": {"a": 0.0, "b": 1.0, "n": 10**400}, "operator": {"kind": "integral"}},
}


SEQUENCE_SQUARE = {"kind": "superposition", "map": "square"}
SEQUENCE_BOX = {"family": "sequence_box", "count": 10, "radii": [1.0, 0.5]}
MATRIX_SIN_TRACE = {"kind": "matrix_map", "map": "sin_of_trace_times_basis", "out_dim": 3}
MATRIX_BALL = {"family": "matrix_ball", "count": 10, "shape": [2, 2], "radius": 1.0}


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
        # its width overflowed, and the run ended in numpy's OverflowError
        with pytest.raises(ConfigError, match=re.escape(
                "field 'fit.theta_range' must have a finite width")):
            ExperimentConfig.from_dict(small_dict(fit={"theta_range": [-1e308, 1e308]}))
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
            grid=None, ensemble={"family": "sequence_box", "count": 10, "radii": [1.0, 0.5]}
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

    def test_seminorms_apart_in_the_seventh_digit_load(self):
        cfg = ExperimentConfig.from_dict(small_dict(seminorms=[
            {"kind": "lq", "q": 2.0000001}, {"kind": "lq", "q": 2.0000002}]))
        run = run_experiment(cfg).runs[0]
        assert list(run.train_errors) == ["lq(q=2.0000001)", "lq(q=2.0000002)"]

    def test_bad_dual_values_named(self):
        with pytest.raises(ConfigError, match=r"duals\[0\]"):
            ExperimentConfig.from_dict(small_dict(duals=[{"values": []}]))

    @pytest.mark.parametrize("field", BEYOND_FLOAT_RANGE)
    def test_integer_beyond_float_range_named(self, field):
        with pytest.raises(ConfigError, match=f"'{field}'"):
            ExperimentConfig.from_dict(small_dict(**BEYOND_FLOAT_RANGE[field]))

    @pytest.mark.parametrize("overrides, field", [
        ({"seminorms": [{"kind": ["lq"]}]}, "seminorms[0].kind"),
        ({"fit": {"activation": {"name": ["tanh"]}}}, "fit.activation"),
        ({"operator": {"kind": "integral", "kernel": {"name": ["gaussian"]}}},
         "operator.kernel.name"),
        ({"operator": {"kind": "superposition", "map": ["sin"]}}, "operator.map"),
    ], ids=["seminorm_kind", "activation_name", "kernel_name", "pointwise_map"])
    def test_unhashable_name_named(self, overrides, field):
        # a list where a name belongs is refused by name, not a TypeError
        with pytest.raises(ConfigError, match=re.escape(f"'{field}'")):
            ExperimentConfig.from_dict(small_dict(**overrides))

    @pytest.mark.parametrize("overrides", [
        {"operator": {"kind": "zero", "out_dim": 3}},
        {"operator": {"kind": "zero", "out_dim": "x"}},
        {"operator": {"kind": "zero", "out_dim": 3}, "grid": None,
         "ensemble": {"family": "sequence_box", "count": 10, "radii": [1.0, 0.5]}},
        {"operator": {"kind": "matrix_map", "map": "row_sums", "out_dim": 2}, "grid": None,
         "ensemble": {"family": "matrix_ball", "count": 10, "shape": [2, 2], "radius": 1.0}},
    ], ids=["zero_function", "zero_function_string", "zero_sequence", "row_sums"])
    def test_out_dim_refused_where_it_sets_nothing(self, overrides):
        # the output is the input's shape, or one value per row
        with pytest.raises(ConfigError, match=re.escape("'operator.out_dim'")):
            ExperimentConfig.from_dict(small_dict(**overrides))

    @pytest.mark.parametrize("overrides, field", [
        ({"seminorms": [{"kind": "lq", "q": 2.0}, {"kind": "sup_derivative", "order": 41}]},
         "seminorms[1].order"),
        ({"seminorms": [{"kind": "schwartz", "beta": 41, "radius": 1.0}]}, "seminorms[0].beta"),
        ({"seminorms": [{"kind": "sup_derivative", "order": 1}], "grid": None,
          "operator": SEQUENCE_SQUARE, "ensemble": SEQUENCE_BOX}, "seminorms[0].order"),
        ({"seminorms": [{"kind": "sup_derivative", "order": 2}], "grid": None,
          "operator": MATRIX_SIN_TRACE, "ensemble": MATRIX_BALL}, "seminorms[0].order"),
        ({"seminorms": [{"kind": "schwartz"}], "grid": None,
          "operator": SEQUENCE_SQUARE, "ensemble": SEQUENCE_BOX}, "seminorms[0]"),
        ({"seminorms": [{"kind": "schwartz", "alpha": 1}], "grid": None,
          "operator": MATRIX_SIN_TRACE, "ensemble": MATRIX_BALL}, "seminorms[0]"),
    ], ids=["order_past_the_grid", "beta_past_the_grid", "order_on_sequences",
            "order_on_matrices", "schwartz_on_sequences", "schwartz_on_matrices"])
    def test_seminorm_that_cannot_apply_to_the_outputs_named(self, overrides, field):
        # refused when the config loads, not when a run first evaluates it
        with pytest.raises(ConfigError, match=re.escape(f"field '{field}'")):
            ExperimentConfig.from_dict(small_dict(**overrides))

    @pytest.mark.parametrize("overrides", [
        {"seminorms": [{"kind": "sup_derivative", "order": 40}]},
        {"seminorms": [{"kind": "schwartz", "beta": 40, "radius": 1.0}]},
        {"seminorms": [{"kind": "sup_derivative", "order": 0}], "grid": None,
         "operator": SEQUENCE_SQUARE, "ensemble": SEQUENCE_BOX},
    ], ids=["order_on_every_node", "beta_on_every_node", "order_zero_on_sequences"])
    def test_seminorm_that_applies_to_the_outputs_loads(self, overrides):
        ExperimentConfig.from_dict(small_dict(**overrides))

    def test_outputs_no_row_can_hold_are_refused(self):
        # out_dim 10**400 is an integer that numpy cannot size a row by: the
        # operator refuses it by name when the config loads, before any run
        refusal = re.escape("field 'operator.out_dim' must be at most")
        with pytest.raises(ConfigError, match=refusal):
            ExperimentConfig.from_dict(small_dict(
                seminorms=[{"kind": "lq", "q": 2.0}], grid=None, ensemble=MATRIX_BALL,
                operator={**MATRIX_SIN_TRACE, "out_dim": 10**400}))

    @pytest.mark.parametrize("overrides, field", [
        ({"ensemble": {"family": "band_limited", "count": 10**30, "radii": [1.0, 0.5]}},
         "ensemble.count"),
        ({"ensemble": {**MATRIX_BALL, "shape": [10**30, 2]}, "grid": None,
          "operator": MATRIX_SIN_TRACE}, "ensemble.shape"),
        ({"ensemble": {**MATRIX_BALL, "shape": [2**31, 2**31]}, "grid": None,
          "operator": MATRIX_SIN_TRACE}, "ensemble.shape"),
        ({"fit": {"lam": 0.0, "width": 10**30, "max_width": 10**30}}, "fit.width"),
        ({"fit": {"lam": 0.0, "width": 32, "max_width": 10**30}}, "fit.max_width"),
        ({"fit": {"lam": 0.0, "width": 32, "functional_order": 10**30}},
         "fit.functional_order"),
        ({"fit": {"lam": 0.0, "width": 32, "functional_order": 2**59}},
         "fit.functional_order"),
        ({"ensemble": {"family": "band_limited", "count": 2 * 10**17, "radii": [1.0, 0.5]}},
         "ensemble.count"),
        ({"ensemble": {"family": "band_limited", "count": LIMIT // 50, "radii": [1.0] * 64}},
         "ensemble.count"),
    ], ids=["count", "shape_entry", "shape_entries", "width", "max_width", "order",
            "order_basis_rows", "draw_rows", "draw_coefficients"])
    def test_sizes_no_array_can_hold_are_refused(self, overrides, field):
        # each loaded and ended its run in numpy's bare "Maximum allowed
        # dimension exceeded", or, for a draw, in its _ArrayMemoryError; the
        # bound covers a shape's rows x cols, the 1 + 2 order rows of the
        # functional basis, and a draw's count x 41 grid nodes or x 64 radii
        refusal = re.escape(f"field '{field}' must be at most")
        with pytest.raises(ConfigError, match=refusal):
            ExperimentConfig.from_dict(small_dict(**overrides))

    @pytest.mark.parametrize("overrides, refusal", [
        ({"ensemble": {**MATRIX_BALL, "shape": [2**31, 2**31]}, "grid": None,
          "operator": MATRIX_SIN_TRACE},
         f"field 'ensemble.shape' must be at most {LIMIT}, the most float64 entries of one "
         f"array, got 2147483648 x 2147483648"),
        ({"fit": {"lam": 0.0, "width": 32, "functional_order": 2**61}},
         f"field 'fit.functional_order' must be at most {(LIMIT - 1) // 2}, whose 1 + 2 "
         f"order basis rows fill one float64 array, got {2**61}"),
        ({"fit": {"lam": 0.0, "width": 32, "functional_order": (LIMIT - 1) // 2 + 1}},
         f"got {(LIMIT - 1) // 2 + 1}"),
    ], ids=["shape_entries", "order", "order_past_the_bound"])
    def test_size_refusals_quote_the_figures_written(self, overrides, refusal):
        # the refusals quoted rows * cols and 1 + 2 order, figures never written
        with pytest.raises(ConfigError, match=re.escape(refusal)):
            ExperimentConfig.from_dict(small_dict(**overrides))

    def test_large_q_training_error_is_the_scaled_norm_of_the_residuals(self):
        # q = 200 underflowed every training residual's sum to 0, so the run
        # reported a training error of 0.0 and converged on it
        cfg = ExperimentConfig.from_dict({
            **preset_dict("poisson_dirichlet"), "seminorms": [{"kind": "lq", "q": 200}],
            "target_index": 0, "epsilons": [0.02], "save_networks": True})
        (run,) = run_experiment(cfg).runs
        net = deserialize_network(run.network_doc)
        ens = sample_ensemble(cfg.ensemble, derive_seed(derive_seed(cfg.seed, 0), 0))
        train = ens[:run.n_train]
        residual = np.abs(cfg.parts.operator.apply_many(train) - net.evaluate_many(train))
        m = np.max(residual, axis=1)
        weights = cfg.parts.operator.output_grid.trapezoid_weights()
        scaled = m * np.sum(weights * (residual / m[:, None]) ** 200, axis=1) ** (1 / 200)
        assert np.all(m > 0)
        assert run.train_errors["lq(q=200)"] == pytest.approx(np.max(scaled), rel=1e-12)
        assert run.converged and 0.0 < run.train_errors["lq(q=200)"] < 0.02

    def test_schwartz_alpha_beyond_int64_is_refused(self):
        # alpha 10**400 used to load and end the run in a bare OverflowError
        refusal = re.escape("field 'seminorms[0].alpha' must be at most")
        for alpha in (np.iinfo(np.int64).max + 1, 10**400):
            with pytest.raises(ConfigError, match=refusal):
                ExperimentConfig.from_dict(small_dict(
                    seminorms=[{"kind": "schwartz", "alpha": alpha, "radius": 0.5}]))

    def test_draw_count_at_the_bound_loads(self):
        # 41 grid nodes per row: the bound is on count x 41, and nothing is drawn
        cfg = ExperimentConfig.from_dict(small_dict(
            ensemble={"family": "band_limited", "count": LIMIT // 41, "radii": [1.0, 0.5]}))
        assert cfg.ensemble.count == LIMIT // 41

    def test_schwartz_weight_that_overflows_is_refused(self):
        # 8.0**400 is inf: a zero row read NaN, and the run ended in a
        # BudgetError on a NaN stage-1 error
        refusal = re.escape("field 'seminorms[0].alpha' makes the weight")
        with pytest.raises(ConfigError, match=refusal):
            ExperimentConfig.from_dict(small_dict(
                grid={"a": -10.0, "b": 10.0, "n": 101},
                seminorms=[{"kind": "schwartz", "alpha": 400, "radius": 8.0}]))

    def test_activation_errors_name_their_field_once(self):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(small_dict(fit={"activation": "nope"}))
        assert str(info.value) == "field 'fit.activation': unknown activation 'nope'"
        with pytest.raises(ConfigError, match=re.escape(
                "field 'fit.activation.coefficients' must be a nonempty sequence")):
            ExperimentConfig.from_dict(small_dict(
                fit={"activation": {"name": "polynomial", "coefficients": []}}))

    @pytest.mark.parametrize("activation, flagged", [
        ("relu", True), ({"name": "polynomial", "coefficients": [0.0, 1.0, 1.0]}, True),
        ("tanh", False)], ids=["relu", "polynomial", "tanh"])
    def test_runs_flag_activations_polynomial_on_an_interval(self, activation, flagged):
        cfg = ExperimentConfig.from_dict(small_dict(
            fit={"lam": 1e-6, "width": 8, "max_width": 8, "activation": activation}))
        assert run_experiment(cfg).runs[0].activation_flagged is flagged

    def test_schwartz_alpha_at_int64_max_runs(self):
        cfg = ExperimentConfig.from_dict(small_dict(
            seminorms=[{"kind": "schwartz", "alpha": int(np.iinfo(np.int64).max),
                        "radius": 0.5}]))
        run = run_experiment(cfg).runs[0]
        # every node in the window has |x| <= 0.5, so the weight is zero
        assert list(run.train_errors.values()) == [0.0]

    def test_seminorms_are_built_on_the_output_grid(self):
        parts = ExperimentConfig.from_dict(small_dict(
            seminorms=[{"kind": "lq"}, {"kind": "sup_derivative", "order": 1},
                       {"kind": "schwartz", "radius": 1.0}],
            duals=[{"name": "mean"}])).parts
        grid = parts.operator.output_grid
        assert grid == GridMeta(0.0, 1.0, 41)
        assert all(rho.grid == grid for rho in parts.members + parts.duals)
        sequences = ExperimentConfig.from_dict(small_dict(
            grid=None, operator=SEQUENCE_SQUARE, ensemble=SEQUENCE_BOX)).parts
        assert sequences.members[0].grid is None

    def test_loading_evaluates_no_seminorm(self, monkeypatch):
        def refused(self, values):
            raise AssertionError("a seminorm was evaluated while the config loaded")

        for kind in (LqNorm, SupDerivative, SchwartzWeighted, DualPairing):
            monkeypatch.setattr(kind, "__call__", refused)
        ExperimentConfig.from_dict(small_dict(
            seminorms=[{"kind": "lq"}, {"kind": "sup_derivative", "order": 2},
                       {"kind": "schwartz", "beta": 1, "radius": 1.0}],
            duals=[{"name": "mean"}]))

    def test_empty_epsilons_allowed(self):
        cfg = ExperimentConfig.from_dict(small_dict(epsilons=[]))
        assert cfg.epsilons == ()

    def test_config_does_not_alias_its_document(self):
        # report.json records cfg.to_dict(), so neither the document a
        # config was read from nor a dict it returned may change it
        raw = small_dict(operator={"kind": "integral",
                                   "kernel": {"name": "gaussian", "width": 0.25}},
                         duals=[{"name": "mean", "values": [1.0] * 41}],
                         fit={"lam": 0.0, "theta_range": [-2.0, 2.0]})
        cfg = ExperimentConfig.from_dict(raw)
        before = json.dumps(cfg.to_dict())
        raw["operator"]["kernel"]["width"] = 9.0
        raw["duals"][0]["values"][0] = 5.0
        raw["seminorms"][0]["q"] = 3.0
        raw["fit"]["theta_range"][0] = -9.0
        doc = cfg.to_dict()
        doc["operator"]["kernel"]["width"] = 7.0
        doc["duals"][0]["values"][1] = 6.0
        doc["seminorms"][0]["q"] = 4.0
        doc["fit"]["theta_range"][1] = 8.0
        assert json.dumps(cfg.to_dict()) == before
        assert cfg.operator["kernel"]["width"] == 0.25


    @pytest.mark.parametrize("doc", [[], "config", None], ids=["list", "string", "null"])
    def test_document_not_a_mapping_refused(self, doc):
        with pytest.raises(ConfigError, match=re.escape(
                f"config must be a mapping, got {type(doc).__name__}")):
            ExperimentConfig.from_dict(doc)


#: fields a config built by dataclasses.replace used to keep unchecked, and
#: the refusal each now meets; on sequence_decay the repeated label hid a
#: report column, heldout_fraction 1.5 trained on 60 of its 120 samples, and
#: the unknown fit key ran
REPLACED = {
    "repeated_label": ({"seminorms": ({"kind": "lq", "q": 1}, {"kind": "lq", "q": 1})},
                       "field 'seminorms[1]': label 'lq(q=1)' repeats that of seminorms[0]"),
    "heldout_fraction": ({"heldout_fraction": 1.5}, "field 'heldout_fraction': must be below 1"),
    "fit_key": ({"fit": {"bogus": 1}}, "field 'fit.bogus': unknown field"),
    "seed": ({"seed": True}, "field 'seed' must be an integer, got True"),
    "epsilons": ({"epsilons": (0.1, -0.1)}, "field 'epsilons' must be greater than 0, got -0.1"),
    "target_index": ({"target_index": 1},
                     "field 'target_index': must index the 1 configured seminorms"),
    "repeated_dual": ({"duals": ({"name": "d"}, {"name": "d"})},
                      "field 'duals[1].name': label 'd' repeats that of duals[0].name"),
    "ensemble": ({"ensemble": {"family": "sequence_box"}},
                 "field 'ensemble': must be an EnsembleSpec"),
}


#: values a config builds from that a JSON document cannot hold as given:
#: the document's overrides, the path of the held value and what it holds
NOT_JSON = {
    "activation": ({"fit": {"lam": 0.0, "activation": Tanh()}}, ("fit", "activation"), "tanh"),
    "numpy_width": ({"fit": {"lam": 0.0, "width": np.int64(64)}}, ("fit", "width"), 64),
    "numpy_order": ({"seminorms": [{"kind": "sup_derivative", "order": np.int64(1)}]},
                    ("seminorms", 0, "order"), 1),
}


class TestConfigConstructor:
    """A config checks and builds itself, however it is made."""

    @pytest.mark.parametrize("case", NOT_JSON)
    def test_config_holds_json_and_writes_its_report(self, tmp_path, case):
        # each used to build and run, then fail in emit_report with a
        # TypeError after report.csv and part of report.json were written
        overrides, path, want = NOT_JSON[case]
        config = ExperimentConfig.from_dict({**preset_dict("hilbert_poisson"),
                                             "epsilons": [0.2], **overrides})
        held = getattr(config, path[0])
        for key in path[1:]:
            held = held[key]
        assert held == want and type(held) is type(want)
        emit_report(run_experiment(config), tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert ExperimentConfig.from_dict(doc["config"]) == config

    def test_value_no_json_holds_is_refused_by_field(self):
        # 0-d arrays are dual values as their rows stack, but no document
        # holds one
        doc = small_dict(duals=[{"name": "d", "values": [np.array(1.0)] * 41}])
        with pytest.raises(ConfigError, match=re.escape(
                "field 'duals[0].values[0]': no JSON document holds array(1.)")):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("case", REPLACED)
    def test_replaced_config_is_checked_as_a_document_is(self, case):
        overrides, refusal = REPLACED[case]
        config = ExperimentConfig.from_dict(preset_dict("sequence_decay"))
        with pytest.raises(ConfigError, match=re.escape(refusal)):
            replace(config, **overrides)
        if "ensemble" not in overrides:  # a document's ensemble is read, not held
            with pytest.raises(ConfigError, match=re.escape(refusal)):
                ExperimentConfig.from_dict({**config.to_dict(), **overrides})

    def test_replaced_config_builds_and_runs_as_its_document(self):
        doc = preset_dict("sequence_decay")
        replaced = replace(ExperimentConfig.from_dict(doc), seed=5, epsilons=(0.3,))
        read = ExperimentConfig.from_dict({**doc, "seed": 5, "epsilons": [0.3]})
        assert replaced == read and replaced.parts.fit == read.parts.fit
        assert stripped(run_experiment(replaced)) == stripped(run_experiment(read))

    def test_config_built_directly_is_the_one_its_document_reads(self):
        doc = small_dict(duals=[{"name": "mean"}])
        read = ExperimentConfig.from_dict(doc)
        fields = {key: value for key, value in doc.items() if key != "grid"}
        built = ExperimentConfig(**{**fields, "ensemble": read.ensemble})
        assert built == read and built.to_dict() == read.to_dict()
        # the fields a document leaves out take the constructor's defaults
        least = {key: doc[key] for key in ("operator", "seminorms")}
        assert (ExperimentConfig(**least, ensemble=read.ensemble)
                == ExperimentConfig.from_dict({**least, "grid": doc["grid"],
                                               "ensemble": doc["ensemble"]}))

    def test_config_built_directly_does_not_alias_its_mappings(self):
        fit = {"lam": 0.0, "theta_range": [-2, 2]}
        seminorms = [{"kind": "lq", "q": 2.0}]
        config = ExperimentConfig(operator={"kind": "poisson"}, seminorms=seminorms, fit=fit,
                                  ensemble=ExperimentConfig.from_dict(small_dict()).ensemble)
        # the config fills its own copy of fit and echoes theta_range as floats
        assert fit == {"lam": 0.0, "theta_range": [-2, 2]}
        assert config.fit["theta_range"] == [-2.0, 2.0] and "width" in config.fit
        seminorms[0]["q"] = 3.0
        assert config.seminorms == ({"kind": "lq", "q": 2.0},)

    def test_missing_fields_named(self):
        with pytest.raises(ConfigError, match=re.escape(
                "field 'seminorms': must be a nonempty list")):
            ExperimentConfig()
        with pytest.raises(ConfigError, match=re.escape("field 'operator': must be a mapping")):
            ExperimentConfig(seminorms=[{"kind": "lq"}])


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

    def test_zero_operator_on_sequences_keeps_their_length(self):
        op = build_operator(ExperimentConfig.from_dict(
            small_dict(grid=None, ensemble=SEQUENCE_BOX, operator={"kind": "zero"})))
        assert op.input_signature == ("sequence", 2)
        assert op.output_dim == 2 and op.output_grid is None
        np.testing.assert_array_equal(op.apply_many([[1.0, -0.5]]), [[0.0, 0.0]])

    @pytest.mark.parametrize("kind", [{"kind": "zero"}, {"kind": "superposition", "map": "sin"}],
                             ids=["zero", "superposition"])
    @pytest.mark.parametrize("inputs, dim, grid", [
        ({}, 41, GridMeta(0.0, 1.0, 41)),
        ({"grid": None, "ensemble": SEQUENCE_BOX}, 2, None),
    ], ids=["function", "sequence"])
    def test_same_shape_operators_keep_their_inputs_shape(self, kind, inputs, dim, grid):
        # one rule gives both kinds their output dim and grid
        config = ExperimentConfig.from_dict(small_dict(operator=kind, **inputs))
        op = build_operator(config)
        assert (op.output_dim, op.output_grid) == (dim, grid)
        ens = sample_ensemble(config.ensemble, 3)
        assert op.apply_many(ens).shape == (len(ens), dim)


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

    def test_poisson_sweep_train_error_below_epsilon_when_converged(self):
        cfg = ExperimentConfig.from_dict(small_dict(epsilons=[0.2, 0.1, 0.05]))
        report = run_experiment(cfg)
        assert [r.epsilon for r in report.runs] == [0.2, 0.1, 0.05]
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

    def test_schwartz_members_with_two_radii_report_two_columns(self):
        cfg = ExperimentConfig.from_dict(small_dict(seminorms=[
            {"kind": "schwartz", "radius": 8.0}, {"kind": "schwartz", "radius": 0.25}]))
        (run,) = run_experiment(cfg).runs
        assert list(run.train_errors) == ["schwartz(a0,b0,r=8)", "schwartz(a0,b0,r=0.25)"]
        assert list(run.heldout_errors) == list(run.train_errors)

    def test_dual_vector_length_mismatch_raises(self):
        with pytest.raises(ConfigError, match=r"duals\[0\].*entries"):
            ExperimentConfig.from_dict(small_dict(duals=[{"values": [1.0, 2.0]}]))

    @pytest.mark.parametrize("heldout, calls", [(0.2, 2), (0.0, 1)])
    def test_network_evaluated_once_per_split(self, monkeypatch, heldout, calls):
        counted = []
        evaluate_many = ShallowVectorNetwork.evaluate_many

        def counting(net, samples):
            counted.append(len(samples))
            return evaluate_many(net, samples)

        monkeypatch.setattr(ShallowVectorNetwork, "evaluate_many", counting)
        cfg = ExperimentConfig.from_dict(small_dict(
            heldout_fraction=heldout,
            seminorms=[{"kind": "lq", "q": 2.0}, {"kind": "sup_derivative", "order": 0}],
            duals=[{"name": "mean", "values": "ones"}],
        ))
        (run,) = run_experiment(cfg).runs
        assert len(counted) == calls
        assert counted[0] == run.n_train
        assert set(run.train_errors) == {"lq(q=2)", "sup_d0"}
        assert set(run.dual_train_errors) == {"mean"}

    def test_seed_changes_numbers(self):
        a = run_experiment(ExperimentConfig.from_dict(small_dict(seed=7)))
        b = run_experiment(ExperimentConfig.from_dict(small_dict(seed=8)))
        assert stripped(a) != stripped(b)

    def test_wall_clock_recorded(self):
        (run,) = run_experiment(ExperimentConfig.from_dict(small_dict())).runs
        assert run.wall_ms > 0.0

    @pytest.mark.parametrize("raises", (False, True), ids=("returns", "raises"))
    def test_blas_thread_count_held_and_restored(self, raises, monkeypatch):
        library = network._openblas()
        if library is None:
            pytest.skip("numpy ships no scipy-openblas library")
        _, get_threads, set_threads = library
        assemble, seen = experiment.assemble_vector_network, []

        def watching(*args):
            seen.append(get_threads())
            if raises:
                raise RuntimeError("stage failed")
            return assemble(*args)

        monkeypatch.setattr(experiment, "assemble_vector_network", watching)
        cfg = ExperimentConfig.from_dict(small_dict(epsilons=[0.2, 0.1]))
        before = get_threads()
        try:
            set_threads(2)
            if raises:
                with pytest.raises(RuntimeError, match="stage failed"):
                    run_experiment(cfg)
            else:
                assert len(run_experiment(cfg).runs) == 2
            # held at one thread through every run, restored after
            assert seen == [1] * (1 if raises else 2)
            assert get_threads() == 2 and network._holds[0] == 0
        finally:
            set_threads(before)


def report_rows(path):
    """The rows of an emitted report.csv, as csv.DictReader reads them."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
        rows = report_rows(tmp_path / "report.csv")
        assert len(rows) == 1

    def test_three_epsilon_two_seminorm_six_rows(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_dict(
            epsilons=[0.2, 0.1, 0.05],
            seminorms=[{"kind": "lq", "q": 2.0}, {"kind": "sup_derivative", "order": 0}],
        ))
        report = run_experiment(cfg)
        emit_report(report, tmp_path)
        rows = report_rows(tmp_path / "report.csv")
        assert len(rows) == 6
        assert [float(r["epsilon"]) for r in rows] == [0.2, 0.2, 0.1, 0.1, 0.05, 0.05]

    def test_csv_reads_back_losslessly(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_dict(epsilons=[0.2, 0.1]))
        report = run_experiment(cfg)
        emit_report(report, tmp_path)
        rows = report_rows(tmp_path / "report.csv")
        assert tuple(rows[0]) == CSV_COLUMNS
        for run, row in zip(report.runs, rows):
            assert float(row["epsilon"]) == run.epsilon
            assert int(row["m_centers"]) == run.m_centers
            assert float(row["C"]) == run.C
            assert float(row["delta"]) == run.delta
            assert int(row["width"]) == run.network_width
            assert row["converged"] == ("true" if run.converged else "false")
            assert float(row["train_sup_error"]) == run.train_errors["lq(q=2)"]
            assert float(row["heldout_sup_error"]) == run.heldout_errors["lq(q=2)"]
            assert float(row["wall_ms"]) == run.wall_ms

    def test_columns_but_the_rows_four_are_the_run_records(self, tmp_path):
        # each column is the report.json run record's field of that name,
        # but the seminorm label, its two sup errors, and width
        cfg = ExperimentConfig.from_dict(small_dict(
            epsilons=[0.2, 0.1],
            seminorms=[{"kind": "lq", "q": 2.0}, {"kind": "sup_derivative", "order": 0}]))
        emit_report(run_experiment(cfg), tmp_path)
        records = json.loads((tmp_path / "report.json").read_text())["runs"]
        rows = report_rows(tmp_path / "report.csv")
        own = {"seminorm", "train_sup_error", "heldout_sup_error", "width"}
        assert set(CSV_COLUMNS) - own <= set(records[0])
        for i, row in enumerate(rows):
            record = records[i // 2]
            for column in set(CSV_COLUMNS) - own:
                assert row[column] == experiment._fmt(record[column]), column
            assert row["width"] == str(record["network_width"])
            assert float(row["train_sup_error"]) == record["train_errors"][row["seminorm"]]
            assert float(row["heldout_sup_error"]) == record["heldout_errors"][row["seminorm"]]
        assert [row["seminorm"] for row in rows] == [*records[0]["train_errors"]] * 2

    def test_degenerate_run_blanks_delta(self, tmp_path):
        cfg = ExperimentConfig.from_dict(small_dict(
            ensemble={"family": "band_limited", "count": 20, "radii": [0.0]},
            operator={"kind": "zero"},
        ))
        emit_report(run_experiment(cfg), tmp_path)
        (row,) = report_rows(tmp_path / "report.csv")
        assert row["delta"] == ""
        assert float(row["train_sup_error"]) == 0.0

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

    def test_report_no_json_holds_writes_nothing(self, tmp_path):
        # report.json's text is built before any file is opened
        report = run_experiment(ExperimentConfig.from_dict(small_dict(epsilons=[])))
        with pytest.raises(TypeError, match="not JSON serializable"):
            emit_report(replace(report, created_at=object()), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_io_failure_names_path(self, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("a file, not a directory")
        cfg = ExperimentConfig.from_dict(small_dict())
        report = run_experiment(cfg)
        with pytest.raises(OSError, match="taken"):
            emit_report(report, blocker / "sub")


#: the keys of each run in report.json, in the order they are written
RUN_KEYS = ("epsilon", "m_centers", "C", "delta", "degenerate", "stage1_sup", "converged",
            "network_width", "coefficient_widths", "coefficient_errors", "n_train",
            "interpolating", "train_errors", "heldout_errors", "dual_train_errors",
            "dual_heldout_errors", "activation_flagged", "wall_ms")


class TestReportSchema:
    def test_run_keys_in_order_and_plain_types(self, tmp_path):
        cfg = ExperimentConfig.from_dict(preset_dict("integral_gaussian"))
        report = run_experiment(cfg)
        emit_report(report, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert list(doc) == ["config", "created_at", "runs"]
        for run, written in zip(report.runs, doc["runs"]):
            assert tuple(written) == RUN_KEYS
            record = run.to_dict()
            assert tuple(record) == RUN_KEYS
            for key in ("coefficient_widths", "coefficient_errors"):
                assert type(record[key]) is list and record[key] == written[key]
            for key in ("train_errors", "heldout_errors", "dual_train_errors",
                        "dual_heldout_errors"):
                assert type(record[key]) is dict and record[key] is not getattr(run, key)
                assert record[key] == written[key]


class TestRunDiagnostics:
    def test_integral_gaussian_runs_interpolate(self, tmp_path):
        # 80 training samples and coefficient fits that end at width 128
        cfg = ExperimentConfig.from_dict(preset_dict("integral_gaussian"))
        report = run_experiment(cfg)
        assert len(report.runs) == len(cfg.epsilons)
        for run in report.runs:
            assert run.n_train == 80
            assert max(run.coefficient_widths) >= run.n_train
            assert run.interpolating is True
        emit_report(report, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert [r["interpolating"] for r in doc["runs"]] == [True] * len(cfg.epsilons)
        assert [r["n_train"] for r in doc["runs"]] == [80] * len(cfg.epsilons)
        with open(tmp_path / "report.csv") as fh:
            assert tuple(fh.readline().strip().split(",")) == CSV_COLUMNS

    def test_wide_poisson_run_does_not_interpolate(self):
        raw = preset_dict("poisson_dirichlet")
        raw["ensemble"]["count"] = 4000
        raw["epsilons"] = [0.15]
        (run,) = run_experiment(ExperimentConfig.from_dict(raw)).runs
        assert run.n_train == 3200
        assert max(run.coefficient_widths) < run.n_train
        assert run.interpolating is False
        assert run.to_dict()["interpolating"] is False

    def test_split_parts_are_views(self):
        cfg = ExperimentConfig.from_dict(small_dict())
        ens = sample_ensemble(cfg.ensemble, 3)
        values = build_operator(cfg).apply_many(ens)
        train, train_values, heldout, heldout_values = _split(ens, values, 0.2)
        assert (len(train), len(heldout)) == (32, 8)
        for part, whole in ((train, ens), (heldout, ens)):
            assert np.shares_memory(part.flats, whole.flats)
        for part in (train_values, heldout_values):
            assert np.shares_memory(part, values) and not part.flags.writeable
        np.testing.assert_array_equal(heldout.flats, ens.flats[32:])
        np.testing.assert_array_equal(heldout_values, values[32:])
