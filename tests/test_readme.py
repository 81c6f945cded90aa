"""The README's library quick start runs as written, so the documented API
cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README.name} (library quick start)", "exec"), {})
    depth_line, report_line = capsys.readouterr().out.splitlines()
    assert len(depth_line.split()) == 4
    assert report_line.startswith("{'ece': ")
