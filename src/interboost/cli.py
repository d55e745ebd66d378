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
from .experiment import BenchmarkConfig, TuningGrid, benchmark, report_to_csv, report_to_json_obj, tune


class ConfigError(ValueError):
    """Bad flags or config file contents."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage errors to 1
        raise ConfigError(message)


def _load_config(path) -> dict:
    config = read_json(path, ConfigError)
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for key in ("data", "target", "task", "out_dir", "model"):
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


def _effective(flag_value, config: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    return config.get(key, default)


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"missing required {what} (flag or config field)")
    return value


def _load_dataset(args, config: dict):
    data_path = _require(_effective(args.data, config, "data", None), "--data")
    target = _require(_effective(args.target, config, "target", None), "--target")
    task_name = _require(_effective(args.task, config, "task", None), "--task")
    return load_csv(data_path, target, Task.parse(task_name))


def _present(values: dict) -> dict:
    return {k: v for k, v in values.items() if v is not None}


def _build(cls, config: dict, name: str, defaults: dict, **overrides):
    """`cls` built from `defaults`, then the keys of config section `name`
    that are fields of `cls`, then `overrides` (flags and built sub-configs);
    None in `defaults` or `overrides` means "not given". The dataclass
    checks every value."""
    fields = {f.name for f in dataclasses.fields(cls)}
    section = {k: v for k, v in _section(config, name).items() if k in fields}
    try:
        return cls(**{**_present(defaults), **section, **_present(overrides)})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} config: {exc}") from exc


def _wrapper_config(args, config: dict) -> WrapperConfig:
    return _build(WrapperConfig, config, "wrapper", {"seed": config.get("seed")}, seed=args.seed)


def _train_params(args, config: dict) -> TrainParams:
    return _build(
        TrainParams,
        config,
        "train",
        {"n_trees": 100, "max_depth": 4, "learning_rate": 0.1, "seed": config.get("seed")},
        n_trees=args.n_trees,
        max_depth=args.max_depth,
        learning_rate=args.learning_rate,
        reg_lambda=args.reg_lambda,
        gamma=args.gamma,
        seed=args.seed,
    )


def _benchmark_config(args, config: dict) -> BenchmarkConfig:
    return _build(
        BenchmarkConfig,
        config,
        "benchmark",
        {"split_seed": config.get("seed")},
        split_seed=args.seed,
        grid=_build(TuningGrid, config, "grid", {}),
        wrapper_cfg=_wrapper_config(args, config),
    )


def _out_dir(args, config: dict) -> Path:
    return Path(_effective(args.out_dir, config, "out_dir", "."))


def cmd_discover(args) -> int:
    config = _load_config(args.config) if args.config else {}
    ds = _load_dataset(args, config)
    cfg = _wrapper_config(args, config)
    partition, steps = discover_constraints_traced(ds, None, cfg)
    out = _out_dir(args, config)
    write_json(out / "partition.json", partition.to_json_obj())
    write_json(
        out / "discovery_log.json",
        {
            "seed": cfg.seed,
            "k_folds": cfg.k_folds,
            "epsilon": cfg.epsilon,
            "steps": [s.to_json_obj() for s in steps],
        },
    )
    print(f"partition: {partition.to_json_obj()}")
    print(f"wrote {out / 'partition.json'} and {out / 'discovery_log.json'}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args.config) if args.config else {}
    if args.constraints is not None and args.partial_x is not None:
        raise ConfigError("--constraints and --partial-x are mutually exclusive")
    if args.partial_x is not None and args.partial_x < 1:  # PerResidual comes after discovery
        raise ConfigError(f"--partial-x must be >= 1, got {args.partial_x}")
    ds = _load_dataset(args, config)
    params = _train_params(args, config)
    if args.constraints is not None:
        partition = read_json(args.constraints, DataError)
        schedule = FixedPartition(ConstraintPartition.from_json_obj(partition, ds.n_features))
    elif args.partial_x is not None:
        wrapper_cfg = _wrapper_config(args, config)
        first = discover_constraints(ds, None, wrapper_cfg)
        schedule = PerResidual(args.partial_x, wrapper_cfg, first)
    else:
        schedule = NoConstraints()
    ens = train(ds, None, params, schedule)
    out = _out_dir(args, config)
    save_model(ens, out / "model.json")
    print(f"trained {params.n_trees} trees; wrote {out / 'model.json'}")
    return 0


def cmd_predict(args) -> int:
    config = _load_config(args.config) if args.config else {}
    model_path = _require(_effective(args.model, config, "model", None), "--model")
    data_path = _require(_effective(args.data, config, "data", None), "--data")
    ens = load_model(model_path)
    _, X = read_csv(data_path, ens.feature_names)
    prediction = predict_matrix(ens, X)
    out = _out_dir(args, config)
    lines = ["prediction"] + [format_real(v) for v in prediction]
    write_atomic(out / "predictions.csv", "\n".join(lines) + "\n")
    print(f"wrote {len(prediction)} predictions to {out / 'predictions.csv'}")
    return 0


def cmd_benchmark(args) -> int:
    config = _load_config(args.config) if args.config else {}
    ds = _load_dataset(args, config)
    cfg = _benchmark_config(args, config)
    data_path = _effective(args.data, config, "data", "dataset")
    report = benchmark(ds, cfg, dataset_name=Path(str(data_path)).stem)
    out = _out_dir(args, config)
    write_json(out / "report.json", report_to_json_obj(report))
    write_atomic(out / "report.csv", report_to_csv(report))
    for v in report.variants:
        change = (
            "n/a"
            if v.percent_change_from_baseline is None
            else f"{v.percent_change_from_baseline:+.4f}%"
        )
        print(f"{v.variant_id:>20}  score={v.test_score:.6f}  change={change}")
    print(f"wrote {out / 'report.json'} and {out / 'report.csv'}")
    return 0


def cmd_tune(args) -> int:
    config = _load_config(args.config) if args.config else {}
    ds = _load_dataset(args, config)
    cfg = _benchmark_config(args, config)
    seed = _effective(args.seed, config, "seed", 0)
    params = tune(ds, cfg.grid, cfg.k, seed)
    out = _out_dir(args, config)
    # `seed` is the tuning-fold seed, kept apart from TrainParams.seed
    write_json(out / "tuned_params.json", {"params": params.to_json_obj(), "k": cfg.k, "seed": seed})
    print(
        f"tuned: n_trees={params.n_trees} max_depth={params.max_depth} "
        f"learning_rate={params.learning_rate}; wrote {out / 'tuned_params.json'}"
    )
    return 0


def _add_shared_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", help="path to the dataset CSV")
    sub.add_argument("--target", help="name of the target column")
    sub.add_argument("--task", choices=[t.value for t in Task], help="prediction task")
    sub.add_argument("--config", help="JSON config file; flags override its fields")
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
    _add_shared_flags(p)
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
