"""The README's code runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    # the ```python block under "## Library example", executed as a script
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    scope = {}
    exec(compile(code, f"{README}:Library example", "exec"), scope)
    assert float(capsys.readouterr().out) < 2e-12  # the printed oracle distance, ~1e-12
    assert scope["fid"] == pytest.approx(0.99, abs=0.01)  # "fid ~ 0.99"
