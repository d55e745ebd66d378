#!/usr/bin/env python3
"""Run the four-variant comparison on the paired-products synthetic dataset.

Trains baseline, full-interaction, partial-interaction (several x), and
seeded random-partition ensembles on one shared split with shared tuned
hyperparameters, then prints the percent change from baseline per variant.

Usage: python scripts/run_synthetic_benchmark.py [--rows 2000] [--seed 0]
       [--fast] [--out-dir out]
"""

import argparse
from pathlib import Path

from interboost.data import write_atomic, write_json
from interboost.discovery import WrapperConfig
from interboost.experiment import BenchmarkConfig, TuningGrid, benchmark, report_to_csv, report_to_json_obj
from interboost.synth import paired_products_dataset


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fast", action="store_true", help="small grid and short partial list")
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args()

    ds = paired_products_dataset(args.rows, seed=args.seed)
    # the full run takes the default grid, folds, partial-x list and random runs
    fast = dict(grid=TuningGrid((50, 100), (3, 4), (0.1,)), partial_x_list=(5, 10)) if args.fast else {}
    cfg = BenchmarkConfig(split_seed=args.seed, wrapper_cfg=WrapperConfig(seed=args.seed, epsilon=5e-3), **fast)
    report = benchmark(ds, cfg, dataset_name="synthetic_paired")

    out = Path(args.out_dir)
    write_json(out / "report.json", report_to_json_obj(report))
    write_atomic(out / "report.csv", report_to_csv(report))

    params = report.tuned_params
    print(
        f"tuned: n_trees={params.n_trees} max_depth={params.max_depth} "
        f"learning_rate={params.learning_rate}"
    )
    for variant in report.variants:
        change = variant.percent_change_from_baseline
        shown = "n/a" if change is None else f"{change:+.4f}%"
        print(f"{variant.variant_id:>20}  R2={variant.test_score:.6f}  change={shown}")
    print(f"wrote {out / 'report.json'} and {out / 'report.csv'}")


if __name__ == "__main__":
    main()
