"""Child processes of the benchmark.

    python perfbench/child.py cli --spans FILE -- <interboost arguments>
        Run one `interboost` command in this process with every layer
        boundary wrapped (see tracer.py) and write the spans to FILE.

    python perfbench/child.py serve --model M --data CSV [--spans FILE]
        Load a model once and answer requests on stdin, one JSON line each
        on stdout: `all` gives library `predict` of every row of CSV's
        feature columns; `N` times the next N 256-row batches (cycling
        through the rows). Writes the spans, if asked, at end of input.

Untraced commands do not come here: the benchmark runs `python -m
interboost.cli` for them, which is what users run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np

from tracer import Tracer

BATCH_ROWS = 256


def _write_spans(path, tracer: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([s.to_json_obj() for s in tracer.spans], fh)


def run_cli(spans_path, argv) -> int:
    tracer = Tracer()
    with tracer.installed():
        from interboost import cli

        with tracer.span(f"cli.{argv[0]}"):
            code = cli.main(argv)
    _write_spans(spans_path, tracer)
    return code


def feature_matrix(path, feature_names) -> np.ndarray:
    """The named columns of a numeric CSV, read without the program's parser."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return values[:, [header.index(n) for n in feature_names]]


def serve(model_path, data_path, spans_path) -> int:
    tracer = Tracer()
    with tracer.installed() if spans_path else contextlib.nullcontext():
        from interboost import boosting

        ens = boosting.load_model(model_path)
        X = feature_matrix(data_path, ens.feature_names)
        next_row = 0
        for line in sys.stdin:
            request = line.strip()
            if request == "all":
                reply = {"predictions": boosting.predict_matrix(ens, X).tolist()}
            else:
                latencies = []
                for _ in range(int(request)):
                    batch = X[np.arange(next_row, next_row + BATCH_ROWS) % X.shape[0]]
                    next_row = (next_row + BATCH_ROWS) % X.shape[0]
                    start = time.perf_counter()
                    boosting.predict_matrix(ens, batch)
                    latencies.append(time.perf_counter() - start)
                reply = {"batch_rows": BATCH_ROWS, "latencies_s": latencies}
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    if spans_path:
        _write_spans(spans_path, tracer)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    modes = parser.add_subparsers(dest="mode", required=True)
    p = modes.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = modes.add_parser("serve")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "cli":
        rest = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return run_cli(args.spans, rest)
    return serve(args.model, args.data, args.spans)


if __name__ == "__main__":
    sys.exit(main())
