"""The README's library quick start runs and prints what the README says."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    converged, gain = capsys.readouterr().out.splitlines()
    assert (converged, gain) == ("True 3 60", "3.5151149944762476")
