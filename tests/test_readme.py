"""The README's library example is the documented entry point to the
package's public names, and its Scripts section is the documented
end-to-end benchmark run; both must run as written, and every package
name the README cites must exist. Its example config must load and build
with no unknown key, and its Model JSON table must list the fields
`save_model` writes."""

import dataclasses
import importlib
import json
import pkgutil
import re
import runpy
import shlex
import sys
from pathlib import Path

import interboost
from interboost import cli
from interboost.boosting import TrainParams, ensemble_to_json_obj, train
from interboost.experiment import TuningGrid
from interboost.synth import paired_products_dataset

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _section(heading: str) -> str:
    return README.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _block(section: str, language: str) -> str:
    match = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert match is not None, f"no {language} block in the section"
    return match.group(1)


def test_library_example_runs():
    code = _block(_section("Library example"), "python")
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})


def test_cited_module_names_exist():
    # every `module.name` in backticks outside code blocks whose module is an
    # interboost submodule, such as `data.kfold` or `boosting.WALK_CELLS`
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    submodules = {module.name for module in pkgutil.iter_modules(interboost.__path__)}
    cited = {
        (module, name)
        for span in re.findall(r"`([^`]+)`", text)
        for module, name in re.findall(r"\b(\w+)\.(\w+)", span)
        if module in submodules
    }
    assert cited, "the README cites no module names"
    missing = [f"{m}.{n}" for m, n in sorted(cited) if not hasattr(importlib.import_module(f"interboost.{m}"), n)]
    assert not missing, f"the README cites names that do not exist: {missing}"


def test_synthetic_benchmark_commands_run(tmp_path, monkeypatch):
    section = _section("Scripts")
    commands = _block(section, "bash").replace("\\\n", " ")
    generate, bench = [shlex.split(line) for line in commands.splitlines() if line.strip()]
    assert generate[:2] == ["python", "scripts/gen_synthetic.py"]
    assert bench[:2] == ["interboost", "benchmark"]
    generate[generate.index("--rows") + 1] = "200"  # a smaller table, for speed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fast.json").write_text(_block(section, "json"), encoding="utf-8")
    monkeypatch.setattr(sys, "argv", generate[1:])
    runpy.run_path(str(ROOT / generate[1]), run_name="__main__")
    assert cli.main(bench[1:]) == 0
    out = Path(bench[bench.index("--out-dir") + 1])
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["dataset"] == "synthetic_paired"


def test_example_config_builds(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(_block(_section("Command line"), "json"), encoding="utf-8")
    args = cli.build_parser().parse_args(["train", "--config", str(path)])
    cli._resolve(args)
    config = json.loads(path.read_text(encoding="utf-8"))
    assert args.params == TrainParams(**config["train"])
    assert args.benchmark_cfg.grid == TuningGrid(**config["grid"])


def test_model_table_lists_the_written_fields():
    table = README.read_text(encoding="utf-8").split("**Model JSON**", 1)[1].split("\n\n")[1]
    rows = {
        match.group(1): match.group(2)
        for match in re.finditer(r"^\| `(\w+)`\s*\| (.*) \|$", table, re.MULTILINE)
    }
    ens = train(paired_products_dataset(40, seed=0), None, TrainParams(1, 1, 0.1))
    assert list(rows) == list(ensemble_to_json_obj(ens))
    # the names after "the `TrainParams` used:", less their notes in parentheses
    named = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", rows["params"].split(":", 1)[1]))
    assert named == [f.name for f in dataclasses.fields(TrainParams)]
