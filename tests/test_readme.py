"""README's library quick start runs as documented."""

import re
from pathlib import Path

from costcast.motion import HISTORY_LEN, HORIZON_LEN

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    [code] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    n_steps = len(namespace["episode"]) - HISTORY_LEN - HORIZON_LEN + 1
    assert len(namespace["log"].records) == n_steps
    assert capsys.readouterr().out.startswith(f"{n_steps} planning steps,")
