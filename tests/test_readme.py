"""The README's library quick start runs as written."""

import pathlib
import re

from dqdyn import read_trajectory

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    """The one python block of the README's "Quick start (library)" section."""
    section = README.read_text(encoding="utf-8").split("## Quick start (library)\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, f"expected one python block in the quick start, found {len(blocks)}"
    return blocks[0]


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(quick_start_code(), f"{README}:quick start", "exec"), {"__name__": "__main__"})
    assert "mean_newton_iterations" in capsys.readouterr().out
    assert read_trajectory(tmp_path / "top.tsv").n_states == 10_001
