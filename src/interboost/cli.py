"""Command-line interface: discover | train | predict | benchmark | tune.

All commands are deterministic given their config: every random choice is
derived from explicit integer seeds, and output files are written
atomically (temp file + rename). Exit codes: 0 success, 1 usage/config
error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .boosting import (
    FixedPartition,
    NoConstraints,
    PerResidual,
    TrainParams,
    load_model,
    predict_matrix,
    save_model,
    train,
)
from .data import DataError, Task, format_real, load_csv, write_atomic
from .data import checked_int, read_csv, read_json, write_json
from .discovery import ConstraintPartition, WrapperConfig, discover_constraints, discover_constraints_traced
from .experiment import BenchmarkConfig, TuningGrid, benchmark, report_to_csv, tune


class ConfigError(ValueError):
    """Bad flags or config file contents."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage errors to 1
        raise ConfigError(message)


# Config fields that stand in for an absent flag of the same name.
_TOP_LEVEL_FIELDS = ("data", "target", "task", "out_dir", "model")
# Every key a config may hold: those fields, the master seed and the sections.
_CONFIG_KEYS = (*_TOP_LEVEL_FIELDS, "seed", "wrapper", "grid", "train", "benchmark")


def _load_config(path) -> dict:
    config = read_json(path, ConfigError)
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for key in config:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}; the keys are {', '.join(_CONFIG_KEYS)}")
    for key in _TOP_LEVEL_FIELDS:
        value = config.get(key, "")
        if not isinstance(value, str) or "\0" in value:
            raise ConfigError(f"config field {key!r} must be a string, got {value!r}")
    if "seed" in config:
        try:
            checked_int("seed", config["seed"])
        except TypeError as exc:
            raise ConfigError(f"config field 'seed': {exc}") from exc
    return config


def _section(config: dict, name: str) -> dict:
    value = config.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return value


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"missing required {what} (flag or config field)")
    return value


def _load_dataset(args):
    data_path = _require(args.data, "--data")
    target = _require(args.target, "--target")
    return load_csv(data_path, target, Task.parse(_require(args.task, "--task")))


def _present(values: dict) -> dict:
    return {k: v for k, v in values.items() if v is not None}


def _build(cls, config: dict, name: str, defaults: dict, flags: dict, **built):
    """`cls` built from `defaults`, then every key of config section `name`,
    then `flags`; None in `defaults` or `flags` means "not given". The
    sub-configs in `built` go in as keywords of their own. The dataclass
    checks every value, and a key that is not one of its fields, or that
    names one of `built`, is its TypeError, so a config error."""
    try:
        return cls(**{**_present(defaults), **_section(config, name), **_present(flags)}, **built)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} config: {exc}") from exc


def _resolve(args) -> None:
    """Fill `args` from its config, once, whatever the command: each
    top-level field stands in for its absent flag, and every section is
    built and checked, from defaults, then the section, then flags (train's
    flags are absent on other commands). `tune_seed` is --seed, then the
    top-level `seed`, then 0."""
    config = _load_config(args.config) if args.config else {}
    for key in _TOP_LEVEL_FIELDS:  # a flag wins over its config field
        if getattr(args, key, None) is None:
            setattr(args, key, config.get(key))
    args.out_dir = Path(args.out_dir or ".")
    seed, seed_flag = config.get("seed"), getattr(args, "seed", None)  # predict has no --seed
    args.wrapper_cfg = _build(WrapperConfig, config, "wrapper", {"seed": seed}, {"seed": seed_flag})
    flags = {f: getattr(args, f, None) for f in ("n_trees", "max_depth", "learning_rate", "reg_lambda", "gamma")}
    defaults = {"n_trees": 100, "max_depth": 4, "learning_rate": 0.1}
    args.params = _build(TrainParams, config, "train", defaults, flags)
    grid = _build(TuningGrid, config, "grid", {}, {})
    args.benchmark_cfg = _build(
        BenchmarkConfig, config, "benchmark", {"split_seed": seed}, {"split_seed": seed_flag},
        grid=grid, wrapper_cfg=args.wrapper_cfg,
    )
    args.tune_seed = config.get("seed", 0) if seed_flag is None else seed_flag


def cmd_discover(args) -> int:
    cfg = args.wrapper_cfg
    ds = _load_dataset(args)
    partition, steps = discover_constraints_traced(ds, cfg)
    write_json(args.out_dir / "partition.json", partition.to_json_obj())
    log = {"seed": cfg.seed, "k_folds": cfg.k_folds, "epsilon": cfg.epsilon, "max_group_size": cfg.max_group_size}
    log["steps"] = [dataclasses.asdict(s) for s in steps]
    write_json(args.out_dir / "discovery_log.json", log)
    print(f"partition: {partition.to_json_obj()}")
    print(f"wrote {args.out_dir / 'partition.json'} and {args.out_dir / 'discovery_log.json'}")
    return 0


def cmd_train(args) -> int:
    if args.constraints is not None and args.partial_x is not None:
        raise ConfigError("--constraints and --partial-x are mutually exclusive")
    if args.partial_x is not None and args.partial_x < 1:  # PerResidual comes after discovery
        raise ConfigError(f"--partial-x must be >= 1, got {args.partial_x}")
    if args.seed is not None and args.partial_x is None:
        raise ConfigError("--seed seeds the discovery of --partial-x, so train takes it only with --partial-x")
    ds = _load_dataset(args)
    if args.constraints is not None:
        partition = read_json(args.constraints, DataError)
        schedule = FixedPartition(ConstraintPartition.from_json_obj(partition, ds.n_features))
    elif args.partial_x is not None:
        first = discover_constraints(ds, args.wrapper_cfg)
        schedule = PerResidual(args.partial_x, args.wrapper_cfg, first)
    else:
        schedule = NoConstraints()
    ens = train(ds, None, args.params, schedule)
    save_model(ens, args.out_dir / "model.json")
    print(f"trained {args.params.n_trees} trees; wrote {args.out_dir / 'model.json'}")
    return 0


def cmd_predict(args) -> int:
    model_path = _require(args.model, "--model")
    data_path = _require(args.data, "--data")
    ens = load_model(model_path)
    _, X = read_csv(data_path, ens.feature_names)
    with np.errstate(over="ignore"):  # an overflowed sum is refused below
        prediction = predict_matrix(ens, X)
    not_finite = np.flatnonzero(~np.isfinite(prediction))
    if not_finite.size:
        raise DataError(
            f"prediction for row {not_finite[0] + 1} is not finite: the model's leaf weights are too large"
        )
    lines = ["prediction"] + [format_real(v) for v in prediction]
    write_atomic(args.out_dir / "predictions.csv", "\n".join(lines) + "\n")
    print(f"wrote {len(prediction)} predictions to {args.out_dir / 'predictions.csv'}")
    return 0


def cmd_benchmark(args) -> int:
    ds = _load_dataset(args)
    report = benchmark(ds, args.benchmark_cfg, dataset_name=Path(args.data).stem)
    write_json(args.out_dir / "report.json", report)
    write_atomic(args.out_dir / "report.csv", report_to_csv(report))
    for v in report["variants"]:
        change = v["percent_change_from_baseline"]
        change = "n/a" if change is None else f"{change:+.4f}%"
        line = f"{v['variant']:>20}  score={v['test_score']:.6f}  change={change}"
        if "runs" in v:  # runs with equal groups share one trained model
            groupings = {ConstraintPartition.from_json_obj(r["groups"]).canonical() for r in v["runs"]}
            line += f"  ({len(v['runs'])} runs, {len(groupings)} distinct groupings)"
        print(line)
    print(f"wrote {args.out_dir / 'report.json'} and {args.out_dir / 'report.csv'}")
    return 0


def cmd_tune(args) -> int:
    cfg = args.benchmark_cfg
    ds = _load_dataset(args)
    params = tune(ds, cfg.grid, cfg.k, args.tune_seed)
    tuned = {"params": dataclasses.asdict(params), "k": cfg.k, "seed": args.tune_seed}
    write_json(args.out_dir / "tuned_params.json", tuned)
    print(
        f"tuned: n_trees={params.n_trees} max_depth={params.max_depth} "
        f"learning_rate={params.learning_rate}; wrote {args.out_dir / 'tuned_params.json'}"
    )
    return 0


def _add_shared_flags(sub: argparse.ArgumentParser, seeded: bool = True) -> None:
    sub.add_argument("--data", help="path to the dataset CSV")
    sub.add_argument("--target", help="name of the target column")
    sub.add_argument("--task", choices=[t.value for t in Task], help="prediction task")
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    if seeded:  # predict has nothing to seed
        sub.add_argument("--seed", type=int, help="master seed (overrides config seeds)")
    sub.add_argument("--out-dir", help="directory for output files (default: .)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="interboost", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = commands.add_parser("discover", help="discover a constraint partition")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_discover)

    p = commands.add_parser("train", help="train a boosted ensemble")
    _add_shared_flags(p)
    p.add_argument("--n-trees", type=int)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--reg-lambda", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--constraints", help="JSON partition file enforced in every tree")
    p.add_argument("--partial-x", type=int, help="per-residual constraints for the first x trees")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("predict", help="predict with a trained model")
    _add_shared_flags(p, seeded=False)
    p.add_argument("--model", help="model JSON written by train")
    p.set_defaults(func=cmd_predict)

    p = commands.add_parser("benchmark", help="compare constraint variants")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_benchmark)

    p = commands.add_parser("tune", help="grid-search shared hyperparameters")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_tune)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
