"""README's library quick start runs as documented, and the config fields
it names exist."""

import dataclasses
import re
from pathlib import Path

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
