"""End-to-end acceptance gate.

One test per numbered criterion; each finishes by printing a single
"criterion NN PASS" line with its measured quantities (visible with -s or
in captured output), so the -v listing plus these lines give one
pass/fail line per criterion.  One more table pins what every preset run
builds, so a change to how stage 2 solves cannot move it unnoticed.
"""

import itertools
import json
import time

import numpy as np
import pytest

from shallowop import (
    DualPairing,
    EnsembleSpec,
    FitConfig,
    FunctionSample,
    FunctionalSpec,
    GridMeta,
    LqNorm,
    SchwartzWeighted,
    SeminormFamily,
    SupDerivative,
    TargetElement,
    assemble_vector_network,
    build_epsilon_net,
    build_partition,
    derive_seed,
    deserialize_network,
    fit_columns,
    integral_operator,
    make_kernel,
    poisson_operator,
    sample_ensemble,
    serialize_network,
    uniform_error,
    zero_operator,
)
from shallowop.experiment import build_operator, run_experiment
from shallowop.presets import get_preset, preset_names

GRID = GridMeta(0.0, 1.0, 101)
BAND = EnsembleSpec("band_limited", 100, radii=(1.0, 0.5, 0.25), grid=GRID)
FSPEC = FunctionalSpec(kind="function", grid=GRID, order=3, scale=1.0)
EPSILONS = (0.2, 0.1, 0.05)


def report_line(num, text):
    print(f"criterion {num:2d} PASS  {text}")


@pytest.fixture(scope="module")
def preset_sweep():
    t0 = time.perf_counter()
    reports = {name: run_experiment(get_preset(name)) for name in preset_names()}
    return reports, time.perf_counter() - t0


def scalar_target_problem():
    # l0(f) = 2 c_1 exactly: trapezoid integrates sin^2(pi x) without error
    # on a uniform grid over [0, 1], so the target sin(l0(s)) is analytic
    ens = sample_ensemble(BAND, derive_seed(314, 0))
    phi = 4.0 * np.sin(np.pi * GRID.nodes())
    l0 = GRID.trapezoid_weights() * phi  # the weight row of the pairing with phi
    y = np.sin(ens.flats @ l0)
    return ens, y


def sup_error_at_width(ens, y, width, activation, lam, seed):
    """Training sup error of one fixed-width scalar fit."""
    cfg = FitConfig(functional_spec=FSPEC, width=width, max_width=width,
                    activation=activation, lam=lam, seed=seed)
    return fit_columns(ens.flats, y[:, None], cfg, [seed], 0.0)[0][3]


def test_criterion_01_finite_rank_suite():
    t0 = time.perf_counter()
    rho = LqNorm(2.0)
    cases = []
    for name in ("integral_gaussian", "poisson_dirichlet", "superposition_sin",
                 "matrix_sin_trace"):
        cfg = get_preset(name)
        ens = sample_ensemble(cfg.ensemble, derive_seed(cfg.seed, 0))
        assert len(ens) >= 50
        cases.append((name, build_operator(cfg).apply_many(ens)))

    worst = 0.0
    for name, values in cases:
        for eps in EPSILONS:
            net = build_epsilon_net(values, rho, eps)
            pou = build_partition(values, net, rho)
            # partition invariants: nonnegative, rows sum to one, support
            # strictly inside the epsilon balls, centers pairwise separated
            assert np.all(pou.weights >= 0.0)
            np.testing.assert_allclose(pou.weights.sum(axis=1), 1.0, rtol=1e-12)
            assert np.all(pou.distances[pou.weights > 0.0] < eps)
            for a in range(len(net)):
                for b in range(a + 1, len(net)):
                    gap = net.centers.values[a] - net.centers.values[b]
                    assert rho(TargetElement(gap, net.centers.grid)) >= eps
            # the finite-rank map: row i is sum_j psi_j(s_i) v_j
            finite_rank = pou.weights @ net.centers.values
            err = max(
                rho(TargetElement(values.values[i] - finite_rank[i], values.grid))
                for i in range(len(values))
            )
            assert err < eps * (1.0 + 1e-9), f"{name} at eps={eps}: {err}"
            worst = max(worst, err / eps)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report_line(1, f"4 operators x 3 eps, worst err/eps={worst:.3f}, {elapsed:.1f}s")


def test_criterion_02_budget_contract_across_presets(preset_sweep):
    reports, elapsed = preset_sweep
    checked = violations = 0
    for name, report in reports.items():
        target_index = get_preset(name).target_index
        for run in report.runs:
            if not run.converged:
                continue
            checked += 1
            targeted = list(run.train_errors)[target_index]
            if not run.train_errors[targeted] < run.epsilon:
                violations += 1
    assert checked > 0
    assert violations == 0
    assert elapsed < 120.0
    report_line(2, f"{checked} converged runs, 0 violations, sweep {elapsed:.1f}s")


def test_criterion_03_degenerate_zero_branch(preset_sweep):
    reports, _ = preset_sweep
    (run,) = reports["zero_map"].runs
    assert run.degenerate
    assert run.m_centers == 1
    assert run.network_width == 0
    assert all(v == 0.0 for v in run.train_errors.values())
    assert all(v == 0.0 for v in run.heldout_errors.values())
    report_line(3, "empty network, every error exactly 0.0")


def test_criterion_04_tanh_width_sweep():
    ens, y = scalar_target_problem()
    widths = (25, 50, 100, 200)
    errs = [sup_error_at_width(ens, y, w, "tanh", 0.0, 271) for w in widths]
    assert min(errs) < 1e-2
    assert errs[-1] < 1e-2
    for a, b in zip(errs, errs[1:]):
        assert b <= a * 1.1
    report_line(4, "tanh errs " + " ".join(f"{e:.1e}" for e in errs))


def test_criterion_05_polynomial_negative_control():
    ens, y = scalar_target_problem()
    tanh200 = sup_error_at_width(ens, y, 200, "tanh", 1e-8, 271)
    poly = {"name": "polynomial", "coefficients": [0.0, 0.0, 1.0]}
    poly400 = sup_error_at_width(ens, y, 400, poly, 1e-8, 271)
    assert poly400 >= 5.0 * tanh200
    report_line(5, f"poly@400 {poly400:.2e} vs tanh@200 {tanh200:.2e} "
                   f"(x{poly400 / tanh200:.0f})")


def test_criterion_06_seminorm_axiom_trials():
    rng = np.random.default_rng(derive_seed(606))
    sym = GridMeta(-8.0, 8.0, 81)
    grids = (GRID, GridMeta(0.0, 2.0, 33), sym, None)
    trials = 0
    for i in range(1000):
        grid = grids[i % len(grids)]
        dim = 17 if grid is None else grid.n
        variant = i % 8
        if variant < 3:
            rho = LqNorm((1.0, 1.5, 2.0)[variant])
        elif variant < 5:
            rho = SupDerivative(variant - 3)
        elif variant == 5:
            rho = SupDerivative(2)
        elif variant == 6 and grid is sym:
            rho = SchwartzWeighted(2, 1, radius=6.0)
        else:
            rho = DualPairing(rng.standard_normal(dim), grid)
        t = TargetElement(rng.standard_normal(dim) * 3.0, grid)
        u = TargetElement(rng.standard_normal(dim) * 3.0, grid)
        lam = float(rng.uniform(-3.0, 3.0))

        rho_t, rho_u = rho(t), rho(u)
        hom = rho(TargetElement(lam * t.values, grid))
        assert abs(hom - abs(lam) * rho_t) <= 1e-9 * max(1.0, abs(lam) * rho_t)
        tri = rho(TargetElement(t.values + u.values, grid))
        assert tri <= (rho_t + rho_u) * (1.0 + 1e-9)
        assert rho_t >= 0.0 and rho(TargetElement(np.zeros(dim), grid)) == 0.0
        trials += 1
    assert trials == 1000
    report_line(6, "1000 homogeneity + triangle trials at 1e-9")


def test_criterion_07_operator_oracles():
    x = GRID.nodes()

    # -u'' = 1, u(0) = u(1) = 0 has u = x(1-x)/2; the second-difference
    # scheme reproduces quadratics exactly
    u = poisson_operator(GRID).apply_many([FunctionSample(np.ones(GRID.n), GRID)])[0]
    np.testing.assert_allclose(u.values, x * (1.0 - x) / 2.0, rtol=0, atol=1e-12)

    def poisson_sin_err(grid):
        xs = grid.nodes()
        u = poisson_operator(grid).apply_many([FunctionSample(np.sin(np.pi * xs), grid)])[0]
        return float(np.max(np.abs(u.values - np.sin(np.pi * xs) / np.pi**2)))

    e_p1 = poisson_sin_err(GRID)
    e_p2 = poisson_sin_err(GridMeta(0.0, 1.0, 201))
    assert e_p1 < 1e-3
    assert 3.0 <= e_p1 / e_p2 <= 5.0

    kernel = make_kernel("gaussian", width=0.25)

    def integral_err(grid, n_fine):
        xs = grid.nodes()
        f = FunctionSample(np.sin(np.pi * xs), grid)
        out = integral_operator(kernel, grid).apply_many([f]).values[0]
        fine = np.linspace(0.0, 1.0, n_fine)
        w = np.full(n_fine, fine[1] - fine[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        ref = kernel(xs[:, None], fine[None, :]) @ (w * np.sin(np.pi * fine))
        return float(np.max(np.abs(out - ref)))

    e_i1 = integral_err(GRID, 1001)
    assert e_i1 < 1e-3
    e_i1_ref = integral_err(GRID, 8001)
    e_i2_ref = integral_err(GridMeta(0.0, 1.0, 201), 8001)
    assert 3.0 <= e_i1_ref / e_i2_ref <= 5.0
    report_line(7, f"poisson {e_p1:.1e} (x{e_p1 / e_p2:.2f}), "
                   f"integral {e_i1:.1e} (x{e_i1_ref / e_i2_ref:.2f})")


def test_criterion_08_dual_errors_along_width_sweep():
    ens = sample_ensemble(BAND, derive_seed(314, 0))
    op = integral_operator(make_kernel("gaussian", width=0.25), GRID)
    values = op.apply_many(ens)
    family = SeminormFamily((LqNorm(2.0),))
    duals = SeminormFamily((DualPairing(np.ones(GRID.n), GRID, name="mean"),
                            DualPairing(2.0 * np.sin(np.pi * GRID.nodes()), GRID,
                                        name="mode1")))

    sweeps = []
    for width in (25, 50, 100, 200):
        cfg = FitConfig(functional_spec=FSPEC, width=width, max_width=width,
                        lam=1e-8, seed=0)
        net, _, _ = assemble_vector_network(values, ens, family, 0, 0.1, cfg)
        sweeps.append(uniform_error(values, net, ens, duals))
    sweeps = np.asarray(sweeps)
    for k in range(sweeps.shape[1]):
        for a, b in zip(sweeps[:, k], sweeps[1:, k]):
            assert b <= a * 1.1

    # a vanishing primary error forces every dual error to vanish too
    zero_vals = zero_operator(ens.signature, GRID.n, GRID).apply_many(ens)
    zcfg = FitConfig(functional_spec=FSPEC, width=8, max_width=8, lam=0.0, seed=0)
    znet, _, zreport = assemble_vector_network(zero_vals, ens, family, 0, 0.1, zcfg)
    assert zreport.train_sup_error == 0.0
    assert np.all(uniform_error(zero_vals, znet, ens, duals) == 0.0)
    report_line(8, "dual errs " + " ".join(f"{e:.2e}" for e in sweeps[:, 0])
                   + "; zero case exact 0")


def strip_timing(report):
    doc = json.loads(json.dumps(report.to_dict()))
    doc.pop("created_at")
    for run in doc["runs"]:
        run.pop("wall_ms")
    return json.dumps(doc, sort_keys=True)


def test_criterion_09_determinism_and_serialization():
    cfg = get_preset("matrix_sin_trace")
    assert strip_timing(run_experiment(cfg)) == strip_timing(run_experiment(cfg))

    ens = sample_ensemble(BAND, derive_seed(314, 0))
    op = integral_operator(make_kernel("gaussian", width=0.25), GRID)
    fit_cfg = FitConfig(functional_spec=FSPEC, width=32, max_width=256,
                        lam=0.0, seed=5)
    net, _, _ = assemble_vector_network(op.apply_many(ens), ens,
                                        SeminormFamily((LqNorm(2.0),)), 0, 0.2,
                                        fit_cfg)
    doc = json.loads(json.dumps(serialize_network(net)))
    again = deserialize_network(doc)
    probes = sample_ensemble(
        EnsembleSpec("band_limited", 10, radii=(1.0, 0.5, 0.25), grid=GRID),
        derive_seed(909),
    )
    for s in probes:
        assert np.array_equal(net.evaluate_many([s]), again.evaluate_many([s]))
    report_line(9, "reports byte-identical; round-trip bit-identical on 10 inputs")


def test_criterion_10_preset_settings_converge(preset_sweep):
    reports, _ = preset_sweep
    settings = ("integral_gaussian", "sequence_decay", "matrix_sin_trace",
                "hilbert_poisson")
    for name in settings:
        run = next(r for r in reports[name].runs if r.epsilon == 0.1)
        assert run.converged, f"{name} failed to converge at eps=0.1"
    report_line(10, "function/sequence/matrix/Hilbert presets converged at eps=0.1")


# (preset, epsilon, m, coefficient widths as (width, repeat) runs, converged)
# of every preset run, as version 0.8.0 built them
PRESET_RUNS = (
    ("integral_gaussian", 0.2, 9, ((128, 4), (64, 1), (128, 4)), True),
    ("integral_gaussian", 0.1, 31, ((128, 31),), True),
    ("integral_gaussian", 0.05, 59, ((128, 59),), True),
    ("poisson_dirichlet", 0.2, 2, ((64, 2),), True),
    ("poisson_dirichlet", 0.1, 2, ((64, 2),), True),
    ("poisson_dirichlet", 0.05, 6, ((64, 1), (128, 3), (64, 1), (128, 1)), True),
    ("superposition_sin", 0.2, 58, ((128, 58),), True),
    ("superposition_sin", 0.1, 70, ((128, 70),), True),
    ("superposition_sin", 0.05, 79, ((128, 79),), True),
    ("matrix_sin_trace", 0.2, 14, ((128, 14),), True),
    ("matrix_sin_trace", 0.1, 25, ((128, 25),), True),
    ("sequence_decay", 0.2, 31, ((128, 31),), True),
    ("sequence_decay", 0.1, 64, ((128, 64),), True),
    ("hilbert_poisson", 0.2, 1, ((64, 1),), True),
    ("hilbert_poisson", 0.1, 3, ((64, 3),), True),
    ("hilbert_poisson", 0.05, 5, ((128, 1), (64, 1), (128, 2), (64, 1)), True),
    ("zero_map", 0.1, 1, ((0, 1),), True),
)


def test_preset_runs_keep_their_centers_widths_and_convergence(preset_sweep):
    reports, _ = preset_sweep
    built = []
    for name in preset_names():
        for run in reports[name].runs:
            widths = [(w, sum(1 for _ in group))
                      for w, group in itertools.groupby(run.coefficient_widths)]
            built.append((name, run.epsilon, run.m_centers, tuple(widths), run.converged))
    assert built == list(PRESET_RUNS)
