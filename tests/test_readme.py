"""The README's library quick start runs as written."""

import pathlib
import re

import numpy as np

from dqdyn import SolverSettings, build_inertia, integrator, pose_identity, read_trajectory, simulate, write_trajectory

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


def test_readme_lists_the_written_columns(tmp_path):
    section = README.read_text(encoding="utf-8").split("## Trajectory files\n", 1)[1].split("\n## ", 1)[0]
    listed = section.split("Columns, in order:", 1)[1].split(".\n", 1)[0]
    names = [name for cell in re.findall(r"`([^`]*)`", listed) for name in cell.split()]
    path = tmp_path / "all.tsv"
    # a simulate run holds every group, so its file has every column
    traj = simulate(pose_identity(), np.ones(6), build_inertia(1.0, np.eye(3)), (), SolverSettings(h=0.01), 1)
    write_trajectory(traj, path)
    assert names == path.read_text(encoding="utf-8").splitlines()[0].split("\t")


def test_readme_row_size_is_the_loop_row():
    text = " ".join(README.read_text(encoding="utf-8").split())
    sizes = re.findall(r"a row of (\d+) floats per state", text) + re.findall(r'struct\.Struct\("(\d+)d"\)', text)
    assert len(sizes) == 2 and {int(s) for s in sizes} == {integrator._ROW}
