"""interboost benchmark: one workload, real CLI commands, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout (it needs src/interboost).
Inputs are generated from --seed before any timing. A job is the workload's
command sequence, one command after another, each its own process, with
BLAS and OpenMP held to one thread. Whole jobs repeat until about --seconds
have passed.

--trace 0 measures the end-to-end metrics over one job or more. After
every command it also takes a sample, so that the short operations are
spread over the run rather than bunched at the end of each job: one set-up
probe, then `interboost predict` of the deployed model and then library
predict batches from a process that loaded that model once, each repeated
for SAMPLE_SECONDS. Between these it times calibrate(), a fixed piece of
work, to see how fast the machine is just then. Every time in the result is
scaled to a machine on which calibrate() takes REFERENCE_CALIBRATION_S,
using the run's mean calibration; the record holds the times as measured.

--trace 1 alternates untraced jobs with traced ones, where every command
runs under timing wrappers (tracer.py), and prints the per-layer metrics.

The last stdout line is {"correct", "attempted", "failed", "metrics"}. The
line before it is the full record: per-job values, failures, the sha256 of
every output file and the run conditions; it is also written to
perfbench/_results/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import EXACT_METRICS, LAYER_UNITS, Span, layer_metrics, median, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

STEP_TIMEOUT_S = 120.0
SAMPLE_SECONDS = 0.4  # of `interboost predict`, then of library batches
REFERENCE_CALIBRATION_S = 0.05
MIN_BATCHES = 200  # at least 10 latencies beyond p95
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = {
    "job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "predict_s": "s",
    "predict_rows_per_s": "rows/s",
}
# Untraced quantities that cannot be end-to-end metrics (METRICS.md says why):
# the traced run reports them, and every run prints them.
UNTRACED_IN_TRACE_RUN = {
    "benchmark_s": "s",
    "discover_s": "s",
    "train_s": "s",
    "error_rate": "ratio",
    "predict_batch_p50_ms": "ms",
    "predict_batch_p95_ms": "ms",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Step:
    name: str
    wall_s: float
    max_rss_kb: int
    ok: bool


def _start(argv: list[str], log_path: Path, **pipes) -> tuple[subprocess.Popen, threading.Timer]:
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stderr=log,
                                **{"stdin": subprocess.DEVNULL, "stdout": log, **pipes})
    timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
    timer.start()
    return proc, timer


def _reap(name: str, proc: subprocess.Popen, timer: threading.Timer, start: float) -> Step:
    """Wait for the child; its peak RSS comes from wait4."""
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Step(name, wall, usage.ru_maxrss, proc.returncode == 0)


def run_process(name: str, argv: list[str], log_path: Path) -> Step:
    start = time.perf_counter()
    proc, timer = _start(argv, log_path)
    return _reap(name, proc, timer, start)


def setup_probe() -> float:
    """Seconds from process start until `interboost.cli` is imported."""
    code = "import interboost.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=STEP_TIMEOUT_S)
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError("interboost.cli does not import")
    return elapsed


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter loops and small numpy sorts and
    sums, the kind of work the program does: how fast the machine is now."""
    import numpy as np

    X = np.random.default_rng(0).normal(size=(500, 8))
    total = 0.0
    start = time.perf_counter()
    for i in range(3000):
        order = np.argsort(X[:, i % 8])
        total += float(np.cumsum(X[order, (i + 1) % 8])[-1])
        for k in range(40):
            total += k * 0.5
    return time.perf_counter() - start


class PredictServer:
    """`child.py serve`: the deployed model loaded once, asked for batches."""

    def __init__(self, deployed, log_path: Path, spans: Path | None = None):
        argv = [sys.executable, str(HERE / "child.py"), "serve", "--model", str(deployed.model),
                "--data", str(deployed.rows_csv)]
        if spans is not None:
            argv += ["--spans", str(spans)]
        self.start = time.perf_counter()
        self.proc, self.timer = _start(argv, log_path, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def ask(self, request: str) -> dict:
        """One request; the kill timer bounds each request, not the server's life."""
        self.timer.cancel()
        self.timer = threading.Timer(STEP_TIMEOUT_S, self.proc.kill)
        self.timer.start()
        self.proc.stdin.write(request.encode() + b"\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> Step:
        self.proc.stdin.close()
        self.proc.stdout.close()
        return _reap("serve", self.proc, self.timer, self.start)


@dataclass
class Job:
    traced: bool
    steps: list[Step] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)

    def command_s(self, name: str | None = None) -> float:
        """Wall time of the job's `interboost` commands (all, or one kind)."""
        return sum((s.wall_s for s in self.steps if s.name != "serve" and name in (None, s.name)), 0.0)

    def record(self, what: str, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(f"{what}: {failure}")


def _cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "interboost.cli", *args]


def _load_spans(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [Span.from_json_obj(s) for s in json.load(fh)]


def run_job(workload, inputs: Path, work: Path, traced: bool, after_command=None) -> Job:
    """Run the workload's commands; `after_command(job)` runs after each."""
    job = Job(traced)
    out, spans_dir = work / "out", work / "spans"
    for d in (out, spans_dir):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)

    def run_cli(name: str, args: list[str]) -> bool:
        spans = spans_dir / f"{len(job.steps)}.json"
        argv = _cli_argv(args)
        if traced:
            argv = [sys.executable, str(HERE / "child.py"), "cli", "--spans", str(spans), "--", *args]
        step = run_process(name, argv, work / "log.txt")
        job.steps.append(step)
        job.record(f"{name} command", None if step.ok else f"failed, see {work / 'log.txt'}")
        if traced and step.ok:
            job.spans.append(_load_spans(spans))
        if after_command is not None:
            after_command(job)
        return step.ok

    try:
        workload.job(run_cli, inputs, out)
    except (OSError, KeyError, ValueError, TypeError, StopIteration) as exc:
        job.record("job", f"{type(exc).__name__}: {exc}")
    return job


def check_job(job: Job, workload, inputs: Path, out: Path, deployed, library: list[float] | None) -> None:
    """Record the output checks of a finished job and hash its outputs."""
    import workloads

    checks = dict(workload.checks(inputs, out))
    checks["model"] = lambda: workloads.check_model(deployed.model, deployed.n_trees)
    checks["predictions"] = lambda: (
        "no library predictions to compare with" if library is None else
        workloads.check_predictions(deployed.predictions.read_text(encoding="utf-8"),
                                    deployed.n_rows, library, deployed.probabilities))
    for name, check in checks.items():
        try:
            failure = check()
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            failure = f"{type(exc).__name__}: {exc}"
        job.record(name, failure)
    job.outputs = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def _keep_going(start: float, done: int, seconds: float) -> bool:
    """One more job, unless one is done and stopping now ends nearer to
    `seconds` than one more would."""
    elapsed = time.perf_counter() - start
    return done == 0 or elapsed + 0.5 * elapsed / done < seconds


@dataclass
class Samples:
    calibration_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    predict_steps: list[Step] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    batch_rows: int = 0
    server_step: Step | None = None


def sampled_run(workload, inputs: Path, work: Path, seconds: float) -> tuple[list[Job], Samples]:
    """Jobs until about `seconds` have passed, with a sample after every command."""
    import workloads

    log, out = work / "log.txt", work / "out"
    samples = Samples()
    server: PredictServer | None = None
    library: list[float] | None = None
    pinned_model = work / "deployed" / "model.json"

    def sample(job: Job) -> None:
        nonlocal server, library
        samples.calibration_s.append(calibrate())
        samples.setup_s.append(setup_probe())
        deployed = workload.deployment(inputs, out)
        if server is None and deployed.model.is_file():
            pinned_model.parent.mkdir(exist_ok=True)
            shutil.copyfile(deployed.model, pinned_model)
            server = PredictServer(dataclasses.replace(deployed, model=pinned_model), log)
            library = server.ask("all")["predictions"]
        if server is None:
            return
        argv = _cli_argv(workloads.predict_args(dataclasses.replace(deployed, model=pinned_model),
                                                work / "sampled"))
        spent = 0.0
        while spent < SAMPLE_SECONDS:
            samples.calibration_s.append(calibrate())
            step = run_process("predict", argv, log)
            samples.predict_steps.append(step)
            job.record("sampled predict", None if step.ok else f"failed, see {log}")
            spent += step.wall_s
        samples.calibration_s.append(calibrate())
        spent = 0.0
        while spent < SAMPLE_SECONDS:
            reply = server.ask("10")
            samples.latencies_s += reply["latencies_s"]
            samples.batch_rows = reply["batch_rows"]
            spent += sum(reply["latencies_s"])
        samples.calibration_s.append(calibrate())

    jobs: list[Job] = []
    start = time.perf_counter()
    try:
        while _keep_going(start, len(jobs), seconds):
            job = run_job(workload, inputs, work, traced=False, after_command=sample)
            check_job(job, workload, inputs, out, workload.deployment(inputs, out), library)
            jobs.append(job)
        if server is not None:
            while len(samples.latencies_s) < MIN_BATCHES:
                reply = server.ask(str(MIN_BATCHES - len(samples.latencies_s)))
                samples.latencies_s += reply["latencies_s"]
    finally:
        if server is not None:
            samples.server_step = server.close()
    return jobs, samples


def traced_run(workload, inputs: Path, work: Path, seconds: float) -> list[Job]:
    """Pairs of an untraced and a traced job until about `seconds` have passed.
    Each job ends with its deployed model serving MIN_BATCHES library batches."""
    out = work / "out"
    jobs: list[Job] = []
    start = time.perf_counter()
    while _keep_going(start, len(jobs) // 2, seconds):
        for traced in (False, True):
            job = run_job(workload, inputs, work, traced)
            deployed = workload.deployment(inputs, out)
            spans = work / "spans" / "serve.json"
            library = None
            if deployed.model.is_file():
                server = PredictServer(deployed, work / "log.txt", spans if traced else None)
                try:
                    library = server.ask("all")["predictions"]
                    job.latencies_s = server.ask(str(MIN_BATCHES))["latencies_s"]
                finally:
                    job.steps.append(server.close())
                if traced and job.steps[-1].ok:
                    job.spans.append(_load_spans(spans))
            check_job(job, workload, inputs, out, deployed, library)
            jobs.append(job)
    return jobs


# --- metrics -----------------------------------------------------------------


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def measured_metrics(jobs: list[Job], samples: Samples) -> dict[str, float]:
    """The end-to-end metrics as measured, before scaling."""
    steps = [s for j in jobs for s in j.steps] + samples.predict_steps
    if samples.server_step is not None:
        steps.append(samples.server_step)
    latencies = samples.latencies_s
    return {
        "job_s": median(j.command_s() for j in jobs),
        "setup_s": median(samples.setup_s),
        "peak_rss_mb": max(s.max_rss_kb for s in steps) / 1024.0,
        # A mean: one predict is short, and the machine's speed can switch
        # faster than that, so a median of a few jumps between levels.
        "predict_s": _mean(s.wall_s for s in steps if s.name == "predict"),
        "predict_rows_per_s": samples.batch_rows * len(latencies) / sum(latencies) if latencies else 0.0,
    }


def end_to_end_metrics(measured: dict[str, float], samples: Samples) -> dict[str, float]:
    """Times scaled to a machine on which calibrate() takes REFERENCE_CALIBRATION_S.
    A shared machine's speed drifts by tens of percent from minute to minute;
    the calibrations, taken between the commands, slow down with it. A mean,
    like the times it scales: each calibration is short and lands on one
    speed or another, as a short command would."""
    slowdown = _mean(samples.calibration_s) / REFERENCE_CALIBRATION_S
    return {
        "job_s": measured["job_s"] / slowdown,
        "setup_s": measured["setup_s"] / slowdown,
        "peak_rss_mb": measured["peak_rss_mb"],
        "predict_s": measured["predict_s"] / slowdown,
        "predict_rows_per_s": measured["predict_rows_per_s"] * slowdown,
    }


def per_layer_metrics(jobs: list[Job]) -> dict[str, float]:
    traced = [j for j in jobs if j.traced]
    per_job = [layer_metrics(j.spans) for j in traced]
    metrics = {
        name: per_job[0][name] if name in EXACT_METRICS else median(m[name] for m in per_job)
        for name in per_job[0]
    }
    plain = [j for j in jobs if not j.traced]
    metrics["trace.overhead_s"] = (
        median(j.command_s() for j in traced) - median(j.command_s() for j in plain)
    )
    metrics.update(untraced_extras(jobs, [t for j in plain for t in j.latencies_s]))
    return metrics


def untraced_extras(jobs: list[Job], latencies: list[float]) -> dict[str, float]:
    """Measured, not scaled."""
    plain = [j for j in jobs if not j.traced]
    return {
        "benchmark_s": median(j.command_s("benchmark") for j in plain),
        "discover_s": median(j.command_s("discover") for j in plain),
        "train_s": median(j.command_s("train") for j in plain),
        "error_rate": sum(len(j.failures) for j in jobs) / sum(j.attempted for j in jobs),
        "predict_batch_p50_ms": percentile(latencies, 50) * 1e3,
        "predict_batch_p95_ms": percentile(latencies, 95) * 1e3,
    }


def per_layer_units() -> dict[str, str]:
    units = dict(LAYER_UNITS)
    units["trace.overhead_s"] = "s"
    units.update(UNTRACED_IN_TRACE_RUN)
    return units


# --- run conditions ------------------------------------------------------------


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def conditions(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    source = hashlib.sha256()
    for path in sorted((SRC / "interboost").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": _commit(),
        "source_sha256": source.hexdigest(),
        "child_thread_env": THREAD_ENV,
    }


# --- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "interboost" / "cli.py").is_file():
        print(f"error: no interboost sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]

    work = HERE / "_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    samples = Samples()
    measured = {}
    try:
        inputs.mkdir(parents=True)
        workload.generate(args.seed, inputs)
        if args.trace:
            jobs = traced_run(workload, inputs, work, args.seconds)
            values, units = per_layer_metrics(jobs), per_layer_units()
        else:
            jobs, samples = sampled_run(workload, inputs, work, args.seconds)
            measured = measured_metrics(jobs, samples)
            values, units = end_to_end_metrics(measured, samples), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(j.attempted for j in jobs)
    failures = [f for j in jobs for f in j.failures]
    outputs = [j.outputs for j in jobs]
    record = {
        "conditions": conditions(workload.name, args.seed, args.seconds, args.trace),
        "jobs": [
            {"traced": j.traced, "steps": [dataclasses.astuple(s) for s in j.steps], "failures": j.failures}
            for j in jobs
        ],
        "samples": {"calibration_s": samples.calibration_s, "setup_s": samples.setup_s,
                    "predict_s": [s.wall_s for s in samples.predict_steps], "batches": len(samples.latencies_s)},
        "measured": measured,
        "outputs_sha256": outputs[0],
        "outputs_identical_across_jobs": all(o == outputs[0] for o in outputs),
        "metrics": values,
    }
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"{workload.name} seed {args.seed}: {len(jobs)} jobs, {attempted} commands and checks, "
          f"{len(failures)} failed (error_rate {len(failures) / attempted:g})")
    for failure in failures:
        print(f"  FAILED {failure}")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:>16.6f} {unit}")
    if not args.trace:
        print(f"  mean of {len(samples.calibration_s)} calibrations {_mean(samples.calibration_s):.4f} s"
              f" (reference {REFERENCE_CALIBRATION_S} s); as measured:")
        for name, value in measured.items():
            print(f"  {name:40s} {value:>16.6f} {END_TO_END[name]}")
        print("  not in the result line (see perfbench/METRICS.md):")
        for name, value in untraced_extras(jobs, samples.latencies_s).items():
            print(f"  {name:40s} {value:>16.6f} {UNTRACED_IN_TRACE_RUN[name]}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
