"""README's library quick start runs as documented, its CLI commands parse,
and the config fields and run-config keys it names exist."""

import dataclasses
import re
import shlex
from pathlib import Path

from costcast import cli
from costcast.cost import CostWeights
from costcast.datagen import GenConfig
from costcast.forecast import TrainConfig
from costcast.motion import HISTORY_LEN, HORIZON_LEN
from costcast.planner import MppiConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    [code] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    n_steps = len(namespace["episode"]) - HISTORY_LEN - HORIZON_LEN + 1
    assert len(namespace["log"].records) == n_steps
    assert capsys.readouterr().out.startswith(f"{n_steps} planning steps,")


def test_readme_names_only_real_config_fields():
    sections = {"gen": GenConfig, "mppi": MppiConfig, "train": TrainConfig,
                "weights": CostWeights}
    named = set(re.findall(r"\b(gen|mppi|train|weights)\.([A-Za-z_]\w*)", README.read_text()))
    assert named
    fields = {section: {f.name for f in dataclasses.fields(config)}
              for section, config in sections.items()}
    assert sorted(f"{s}.{n}" for s, n in named if n not in fields[s]) == []


def test_readme_cli_commands_parse():
    parser = cli.build_parser()
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("costcast ")]
    assert {shlex.split(line)[1] for line in lines} == {
        "gen", "train", "eval-forecast", "eval-plan", "lemma-check", "report"}
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])   # exits 2 on a flag the CLI does not take


def test_readme_lists_the_run_config_keys_the_loader_accepts():
    [rows] = re.findall(r"^\| Key \| Default \| Meaning \|\n\|[-| ]+\|\n((?:\|.*\n)+)",
                        README.read_text(), re.M)
    listed = [key for row in rows.splitlines() for key in re.findall(r"`([^`]+)`",
                                                                     row.split("|")[1])]
    accepted = [name for key, names in cli.CONFIG_KEYS.items()
                for name in ([key] if names is None else [f"{key}.{n}" for n in names])]
    assert sorted(listed) == sorted(accepted)
