"""Command-line interface: discover | train | predict | benchmark | tune.

All commands are deterministic given their config: every random choice is
derived from explicit integer seeds, and output files are written
atomically (temp file + rename). Exit codes: 0 success, 1 usage/config
error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
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
from .discovery import ConstraintPartition, WrapperConfig, discover_constraints, discover_constraints_traced
from .experiment import BenchmarkConfig, TuningGrid, benchmark, report_to_csv, report_to_json_obj, tune


class ConfigError(ValueError):
    """Bad flags or config file contents."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage errors to 1
        raise ConfigError(message)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return obj


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


def _wrapper_config(args, config: dict) -> WrapperConfig:
    section = _section(config, "wrapper")
    seed = _effective(args.seed, section, "seed", config.get("seed", 0))
    try:
        return WrapperConfig(
            k_folds=section.get("k_folds", 3),
            seed=seed,
            epsilon=section.get("epsilon", 1e-6),
            max_group_size=section.get("max_group_size"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad wrapper config: {exc}") from exc


def _tuning_grid(config: dict) -> TuningGrid:
    section = _section(config, "grid")
    try:
        return TuningGrid(
            n_trees=tuple(section.get("n_trees", (50, 100, 200, 300))),
            max_depth=tuple(section.get("max_depth", (3, 4, 6))),
            learning_rate=tuple(section.get("learning_rate", (0.05, 0.1, 0.3))),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad tuning grid: {exc}") from exc


def _train_params(args, config: dict) -> TrainParams:
    section = _section(config, "train")
    try:
        return TrainParams(
            n_trees=_effective(args.n_trees, section, "n_trees", 100),
            max_depth=_effective(args.max_depth, section, "max_depth", 4),
            learning_rate=_effective(args.learning_rate, section, "learning_rate", 0.1),
            reg_lambda=_effective(args.reg_lambda, section, "reg_lambda", 1.0),
            gamma=_effective(args.gamma, section, "gamma", 0.0),
            min_child_samples=section.get("min_child_samples", 1),
            min_child_hessian=section.get("min_child_hessian", 1e-6),
            base_score=section.get("base_score"),
            seed=_effective(args.seed, section, "seed", config.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad training params: {exc}") from exc


def _out_dir(args, config: dict) -> Path:
    return Path(_effective(args.out_dir, config, "out_dir", "."))


def cmd_discover(args) -> int:
    config = _load_config(args.config) if args.config else {}
    ds = _load_dataset(args, config)
    cfg = _wrapper_config(args, config)
    partition, steps = discover_constraints_traced(ds, None, cfg)
    out = _out_dir(args, config)
    write_atomic(out / "partition.json", _dump_json(partition.to_json_obj()))
    write_atomic(
        out / "discovery_log.json",
        _dump_json(
            {
                "seed": cfg.seed,
                "k_folds": cfg.k_folds,
                "epsilon": cfg.epsilon,
                "steps": [s.to_json_obj() for s in steps],
            }
        ),
    )
    print(f"partition: {partition.to_json_obj()}")
    print(f"wrote {out / 'partition.json'} and {out / 'discovery_log.json'}")
    return 0


def _load_partition_file(path, n_features: int) -> ConstraintPartition:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: constraints file is not valid JSON: {exc}") from exc
    return ConstraintPartition.from_json_obj(obj, n_features)


def cmd_train(args) -> int:
    config = _load_config(args.config) if args.config else {}
    if args.constraints and args.partial_x:
        raise ConfigError("--constraints and --partial-x are mutually exclusive")
    ds = _load_dataset(args, config)
    params = _train_params(args, config)
    if args.constraints:
        schedule = FixedPartition(_load_partition_file(args.constraints, ds.n_features))
    elif args.partial_x:
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


def _read_feature_matrix(path, feature_names: tuple[str, ...]):
    """Pull the model's feature columns (by name) out of a prediction CSV."""
    import csv as _csv

    import numpy as np

    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, expected a header row")
        names = [h.strip() for h in header]
        missing = [n for n in feature_names if n not in names]
        if missing:
            raise DataError(
                f"{path}: feature mismatch, missing columns {missing} required by the model"
            )
        positions = [names.index(n) for n in feature_names]
        rows = []
        for row_no, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
            if len(row) != len(names):
                raise DataError(f"{path}: row {row_no} has {len(row)} cells, expected {len(names)}")
            values = []
            for pos in positions:
                cell = row[pos]
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: cell {cell!r} at row {row_no}, column {names[pos]!r} "
                        "is not a number"
                    ) from None
                if not np.isfinite(value):
                    raise DataError(
                        f"{path}: non-finite value at row {row_no}, column {names[pos]!r}"
                    )
                values.append(value)
            rows.append(values)
        if not rows:
            raise DataError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def cmd_predict(args) -> int:
    config = _load_config(args.config) if args.config else {}
    model_path = _require(_effective(args.model, config, "model", None), "--model")
    data_path = _require(_effective(args.data, config, "data", None), "--data")
    ens = load_model(model_path)
    X = _read_feature_matrix(data_path, ens.feature_names)
    prediction = predict_matrix(ens, X)
    out = _out_dir(args, config)
    lines = ["prediction"] + [format_real(v) for v in prediction]
    write_atomic(out / "predictions.csv", "\n".join(lines) + "\n")
    print(f"wrote {len(prediction)} predictions to {out / 'predictions.csv'}")
    return 0


def _benchmark_config(args, config: dict) -> BenchmarkConfig:
    section = _section(config, "benchmark")
    try:
        return BenchmarkConfig(
            test_fraction=section.get("test_fraction", 0.25),
            split_seed=_effective(args.seed, section, "split_seed", config.get("seed", 0)),
            grid=_tuning_grid(config),
            k=section.get("k", 3),
            wrapper_cfg=_wrapper_config(args, config),
            partial_x_list=tuple(section.get("partial_x_list", (1, 5, 10, 20, 30))),
            random_runs=section.get("random_runs", 5),
            random_groups=section.get("random_groups", 2),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad benchmark config: {exc}") from exc


def cmd_benchmark(args) -> int:
    config = _load_config(args.config) if args.config else {}
    ds = _load_dataset(args, config)
    cfg = _benchmark_config(args, config)
    data_path = _effective(args.data, config, "data", "dataset")
    report = benchmark(ds, cfg, dataset_name=Path(str(data_path)).stem)
    out = _out_dir(args, config)
    write_atomic(out / "report.json", _dump_json(report_to_json_obj(report)))
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
    grid = _tuning_grid(config)
    k = _section(config, "benchmark").get("k", 3)
    seed = _effective(args.seed, config, "seed", 0)
    params = tune(ds, None, grid, k, seed)
    out = _out_dir(args, config)
    write_atomic(
        out / "tuned_params.json",
        _dump_json(
            {
                "n_trees": params.n_trees,
                "max_depth": params.max_depth,
                "learning_rate": params.learning_rate,
                "k": k,
                "seed": seed,
            }
        ),
    )
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
