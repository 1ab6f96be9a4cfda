"""Ready-made experiment configs for the benchmark operators.

Each preset is a plain config dict (JSON-shaped) so it can be dumped,
edited, and fed back through the CLI.  Fit configs here pin lam=0.0:
random tanh features on these low-dimensional ensembles produce designs
with fast-decaying spectra, and minimum-norm interpolation is the path
that actually reaches the per-coefficient tolerances.
"""

from __future__ import annotations

import copy

from .errors import ConfigError

_GRID = {"a": 0.0, "b": 1.0, "n": 101}
_BAND = {"family": "band_limited", "count": 100, "radii": [1.0, 0.5, 0.25]}

_PRESETS = {
    "integral_gaussian": (
        "Gaussian-kernel integral operator on band-limited functions, L2/L1 targets",
        {
            "name": "integral_gaussian",
            "grid": _GRID,
            "ensemble": _BAND,
            "operator": {"kind": "integral", "kernel": {"name": "gaussian", "width": 0.25}},
            "seminorms": [{"kind": "lq", "q": 2.0}, {"kind": "lq", "q": 1.0}],
            "target_index": 0,
            "duals": [{"name": "mean", "values": "ones"}],
            "epsilons": [0.2, 0.1, 0.05],
            "heldout_fraction": 0.2,
            "fit": {"lam": 0.0},
            "seed": 20240809,
        },
    ),
    "poisson_dirichlet": (
        "Dirichlet Poisson solve -u'' = f on band-limited sources, L2 and sup targets",
        {
            "name": "poisson_dirichlet",
            "grid": _GRID,
            "ensemble": _BAND,
            "operator": {"kind": "poisson"},
            "seminorms": [{"kind": "lq", "q": 2.0}, {"kind": "sup_derivative", "order": 0}],
            "target_index": 0,
            "epsilons": [0.2, 0.1, 0.05],
            "heldout_fraction": 0.2,
            "fit": {"lam": 0.0},
            "seed": 20240810,
        },
    ),
    "superposition_sin": (
        "Pointwise nonlinearity f -> sin(f) on band-limited functions, L2 target",
        {
            "name": "superposition_sin",
            "grid": _GRID,
            "ensemble": _BAND,
            "operator": {"kind": "superposition", "map": "sin"},
            "seminorms": [{"kind": "lq", "q": 2.0}],
            "target_index": 0,
            "epsilons": [0.2, 0.1, 0.05],
            "heldout_fraction": 0.2,
            "fit": {"lam": 0.0},
            "seed": 20240811,
        },
    ),
    "matrix_sin_trace": (
        "Matrix inputs in a Frobenius ball mapped to sin(trace) times a basis vector",
        {
            "name": "matrix_sin_trace",
            "ensemble": {"family": "matrix_ball", "count": 120, "shape": [2, 2],
                         "radius": 1.2},
            "operator": {"kind": "matrix_map", "map": "sin_of_trace_times_basis",
                         "out_dim": 3},
            "seminorms": [{"kind": "lq", "q": 2.0}],
            "target_index": 0,
            "epsilons": [0.2, 0.1],
            "heldout_fraction": 0.2,
            "fit": {"lam": 0.0},
            "seed": 20240812,
        },
    ),
    "sequence_decay": (
        "Squaring map on a decaying sequence box, summable-sequence target norm",
        {
            "name": "sequence_decay",
            "ensemble": {"family": "sequence_box", "count": 120,
                         "radii": [1.0, 0.5, 0.25, 0.125, 0.0625]},
            "operator": {"kind": "superposition", "map": "square"},
            "seminorms": [{"kind": "lq", "q": 1.0}],
            "target_index": 0,
            "epsilons": [0.2, 0.1],
            "heldout_fraction": 0.2,
            "fit": {"lam": 0.0},
            "seed": 20240813,
        },
    ),
    "hilbert_poisson": (
        "Poisson solve viewed with a single Hilbert norm (L2 only)",
        {
            "name": "hilbert_poisson",
            "grid": _GRID,
            "ensemble": _BAND,
            "operator": {"kind": "poisson"},
            "seminorms": [{"kind": "lq", "q": 2.0}],
            "target_index": 0,
            "epsilons": [0.2, 0.1, 0.05],
            "heldout_fraction": 0.2,
            "fit": {"lam": 0.0},
            "seed": 20240814,
        },
    ),
    "zero_map": (
        "Identically-zero operator exercising the empty-network degenerate branch",
        {
            "name": "zero_map",
            "grid": _GRID,
            "ensemble": _BAND,
            "operator": {"kind": "zero"},
            "seminorms": [{"kind": "lq", "q": 2.0}, {"kind": "sup_derivative", "order": 1}],
            "target_index": 0,
            "epsilons": [0.1],
            "heldout_fraction": 0.2,
            "fit": {"lam": 0.0},
            "seed": 20240815,
        },
    ),
}


def preset_names() -> list[str]:
    return list(_PRESETS)


def preset_description(name: str) -> str:
    _check(name)
    return _PRESETS[name][0]


def preset_dict(name: str) -> dict:
    """Deep copy of the raw config dict for a preset."""
    _check(name)
    return copy.deepcopy(_PRESETS[name][1])


def _check(name):
    if name not in _PRESETS:
        known = ", ".join(_PRESETS)
        raise ConfigError(f"unknown preset {name!r}; available: {known}")
