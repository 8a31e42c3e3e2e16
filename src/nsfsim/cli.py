"""Command-line front end: validate / run / compare / sweep.

Exit codes: 0 success, 1 invariant violation, 2 configuration error (code
``output-dir`` where the output directory cannot be made or written),
3 solver failure.  ``--set key=value`` overrides configuration keys
one-to-one and may be repeated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import experiment as ex

__all__ = ["main"]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _apply_overrides(config: ex.ExperimentConfig, overrides) -> ex.ExperimentConfig:
    if not overrides:
        return config
    mapping = {key: str(value) for key, value in config.values.items()}
    for item in overrides:
        if "=" not in item:
            raise ex.ConfigError("parse", f"override {item!r} is not of the form key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        mapping[key] = value
    return ex.config_from_mapping(mapping)


def _load(args) -> ex.ExperimentConfig:
    if args.preset is not None:
        config = ex.config_from_mapping({}, preset=args.preset)
    else:
        if args.config is None:
            raise ex.ConfigError("missing-file", "need a configuration file or --preset")
        config = ex.load_config(args.config)
    return _apply_overrides(config, args.set or [])


def _cmd_validate(args) -> int:
    config = _load(args)
    gas, _ = ex.build_models(config)
    problem = ex.build_problem(config)
    print(f"configuration ok: label={config['label']}")
    print(f"epsilon_report = {problem.epsilon_report:.6g}")
    if problem.epsilon_report > ex.EPSILON_WARN:
        print(
            f"warning: data size {problem.epsilon_report:.3g} exceeds the "
            f"documented perturbative regime ({ex.EPSILON_WARN})",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _load(args)
    manifest = ex.run_experiment(config, output_dir=args.out)
    print(json.dumps({"status": manifest.status, "label": manifest.label}, sort_keys=True))
    for warning in manifest.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if manifest.status == "ok":
        return EXIT_OK
    if manifest.status == "invariant-violation":
        return EXIT_INVARIANT
    print(f"error: {manifest.error}", file=sys.stderr)
    return EXIT_SOLVER


def _read_manifest(path) -> ex.RunManifest:
    try:
        return ex.RunManifest.from_json(Path(path).read_text())
    except (ValueError, TypeError) as exc:
        raise ex.ConfigError("manifest", f"{path} is not a run manifest: {exc}") from exc


def _cmd_compare(args) -> int:
    try:
        report = ex.compare_runs(_read_manifest(args.manifest_a), _read_manifest(args.manifest_b))
    except OSError as exc:  # a manifest or the CSV it names
        raise ex.ConfigError("missing-file", f"cannot read {exc.filename}: {exc.strerror}") from exc
    for name in sorted(report):
        print(f"{name} = {report[name]:.6g}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load(args)
    values = [item for item in args.values.split(",") if item]
    manifests = ex.sweep(config, args.param, values, output_dir=args.out)
    worst = EXIT_OK
    for manifest in manifests:
        print(json.dumps({"status": manifest.status, "label": manifest.label}, sort_keys=True))
        if manifest.status != "ok":
            worst = max(worst, EXIT_INVARIANT if manifest.status == "invariant-violation" else EXIT_SOLVER)
    return worst


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsfsim",
        description="Desk-scale simulation and stability diagnostics for "
        "thermally driven compressible flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", nargs="?", default=None, help="configuration file")
        p.add_argument("--preset", default=None, choices=sorted(ex.PRESETS), help="start from a named preset")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a configuration key")

    p = sub.add_parser("validate", help="parse and validate a configuration")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="run a full experiment")
    common(p)
    p.add_argument("--out", default=None, help="output directory (overrides output_dir)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="column-wise comparison of two runs")
    p.add_argument("manifest_a")
    p.add_argument("manifest_b")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="run a parameter grid")
    common(p)
    p.add_argument("--param", required=True, help="configuration key to sweep")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ex.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ex.SolverStageError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
