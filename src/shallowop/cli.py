"""Command-line front end: run experiment sweeps, inspect presets.

Exit status is 0 on success and 2 on config or I/O problems, with the
diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError
from .experiment import ExperimentConfig, emit_report, run_experiment
from .presets import preset_description, preset_dict, preset_names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shallowop",
        description="Constructive shallow-network approximation of operators "
                    "between function, sequence, and matrix spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an epsilon sweep from a JSON config")
    run.add_argument("--config", required=True,
                     help="path to a JSON experiment config, or a preset name")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config's root seed")
    run.add_argument("--out", default=None,
                     help="override the config's output directory")

    presets = sub.add_parser("presets", help="inspect the shipped presets")
    psub = presets.add_subparsers(dest="presets_command", required=True)
    psub.add_parser("list", help="list preset names with one-line descriptions")
    show = psub.add_parser("show", help="print a preset config as JSON")
    show.add_argument("name")
    return parser


def _load_config(path_or_name: str):
    """The raw config document of a JSON file, or of a preset by name."""
    path = Path(path_or_name)
    if not path.exists():
        if path_or_name in preset_names():
            return preset_dict(path_or_name)
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _cmd_run(args) -> int:
    raw = _load_config(args.config)
    if args.seed is not None and isinstance(raw, dict):
        raw = {**raw, "seed": args.seed}
    config = ExperimentConfig.from_dict(raw)

    out_dir = args.out if args.out is not None else config.out
    if out_dir is None:
        raise ConfigError("no output directory: set 'out' in the config or pass --out")

    report = run_experiment(config)
    written = emit_report(report, out_dir)
    target = config.parts.members[config.target_index].label()
    for run in report.runs:
        status = "converged" if run.converged else "NOT converged"
        print(f"epsilon={run.epsilon:g}  m={run.m_centers}  width={run.network_width}  "
              f"{status}  train_sup[{target}]={run.train_errors[target]:.3e}")
    print(f"wrote {', '.join(str(p) for p in written)}")
    return 0


def _cmd_presets(args) -> int:
    if args.presets_command == "list":
        width = max(len(n) for n in preset_names())
        for name in preset_names():
            print(f"{name:<{width}}  {preset_description(name)}")
        return 0
    print(json.dumps(preset_dict(args.name), indent=2))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_presets(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
