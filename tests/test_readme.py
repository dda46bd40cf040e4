"""README's library quick start runs as documented, its CLI commands parse,
the config fields and run-config keys it names exist, and its sim-log record
keys are the ones playback writes."""

import dataclasses
import re
import shlex
from pathlib import Path

from costcast import cli, datagen
from costcast.cost import CostWeights
from costcast.datagen import GenConfig
from costcast.forecast import TrainConfig, make_forecaster
from costcast.motion import HISTORY_LEN, HORIZON_LEN
from costcast.planner import MppiConfig, build_task_spec, run_episode
from costcast.robot import ArmModel

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


def test_readme_lists_the_sim_log_record_keys():
    [rows] = re.findall(
        r"^\| Record key \| Task \| Holds \| Read by \|\n\|[-| ]+\|\n((?:\|.*\n)+)",
        README.read_text(), re.M)
    cells = [row.split("|")[1:3] for row in rows.splitlines()]
    model = ArmModel()
    for task, gen in datagen.GENERATORS.items():
        listed = {key.strip(" `") for key, tasks in cells if tasks.strip() in ("every task", task)}
        # 11 s holds tableset's waypoint tour
        episode = gen(GenConfig(seed=0, episode_len_s=11.0, n_interactions=1))
        log = run_episode(episode, make_forecaster("cvm"), build_task_spec(episode, model),
                          CostWeights(), MppiConfig(n_samples=8), model=model)
        assert {frozenset(rec) for rec in log.records} == {frozenset(listed)}, task
