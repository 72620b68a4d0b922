"""Command line behavior: exit codes, output files, determinism."""

import gc
import os
import subprocess
import sys

import pytest

import dqdyn
from dqdyn.cli import main
from test_scenario import NOT_NUMBERS, SCENARIO_DIR
from test_trajectory import BAD_HEADERS, MISSPLIT_ROWS, ROW, write_table

# a child process imports the same dqdyn as this one, installed or not
CHILD_PYTHONPATH = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(dqdyn.__file__)), os.environ.get("PYTHONPATH")])
)

FREE_BODY = """
body:
  mass: 1.0
  inertia: [1.0, 2.0, 3.0]
initial:
  body_twist: [1.0, 0.1, 0.0, 0.0, 0.0, 0.0]
"""

FORCED = """
body:
  mass: 1.0
  inertia: [1.0, 2.0, 3.0]
forces:
  - type: gravity
    acceleration: [0.0, 0.0, -9.81]
run:
  steps: 50
"""


@pytest.fixture
def free_config(tmp_path):
    path = tmp_path / "free.yaml"
    path.write_text(FREE_BODY)
    return path


def test_run_writes_one_row_per_state(free_config, tmp_path, capsys):
    out = tmp_path / "traj.tsv"
    code = main(["run", "--config", str(free_config), "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1002  # header + 1001 states for the default 1000 steps
    printed = capsys.readouterr().out
    assert "steps: 1000" in printed
    assert "mean newton iterations:" in printed
    assert "energy drift:" in printed
    assert "momentum drift:" in printed
    assert "norm drift:" in printed
    assert f"wrote: {out}" in printed


def test_rk4_produces_same_schema(free_config, tmp_path):
    a = tmp_path / "dqvi.tsv"
    b = tmp_path / "rk4.tsv"
    assert main(["run", "--config", str(free_config), "--output", str(a), "--steps", "20"]) == 0
    assert (
        main(
            [
                "run",
                "--config",
                str(free_config),
                "--output",
                str(b),
                "--steps",
                "20",
                "--integrator",
                "rk4",
            ]
        )
        == 0
    )
    header_a = a.read_text().splitlines()[0]
    header_b = b.read_text().splitlines()[0]
    assert header_a == header_b
    assert len(a.read_text().splitlines()) == len(b.read_text().splitlines())


def test_flag_overrides(free_config, tmp_path, capsys):
    out = tmp_path / "traj.tsv"
    code = main(
        [
            "run",
            "--config",
            str(free_config),
            "--output",
            str(out),
            "--steps",
            "10",
            "--h",
            "0.5",
            "--tol",
            "1e-10",
            "--max-iter",
            "30",
            "--stride",
            "4",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    # states 0, 4, 8 plus the final state 10
    assert len(lines) == 5
    last = lines[-1].split("\t")
    assert float(last[0]) == pytest.approx(5.0)
    assert "steps: 10" in capsys.readouterr().out


def test_missing_config_is_io_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 4
    assert "error:" in capsys.readouterr().err


def test_bad_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("body: {mass: 1.0, inertia: [1, 2, 3], junk: 7}\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "junk" in capsys.readouterr().err


def test_malformed_config_value_is_config_error(tmp_path, capsys):
    path = tmp_path / "ragged.yaml"
    path.write_text("body: {mass: 1.0, inertia: [1, [2, 3], 4]}\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "body.inertia" in capsys.readouterr().err


def test_non_number_list_entry_is_config_error(tmp_path, capsys):
    for name, (text, key) in NOT_NUMBERS.items():
        path = tmp_path / f"{name}.yaml"
        path.write_text(text + "\n")
        assert main(["run", "--config", str(path), "--output", str(tmp_path / "x.tsv")]) == 2
        assert key in capsys.readouterr().err


def test_bad_flag_value_is_config_error(free_config, capsys):
    assert main(["run", "--config", str(free_config), "--steps", "-3"]) == 2
    capsys.readouterr()


HALF_TURN = """
body:
  mass: 1.0
  inertia: [1.0, 2.0, 3.0]
initial:
  body_twist: [10.0, 0.0, 0.0, 0.0, 0.0, 0.0]
run:
  h: 0.5
  steps: 5
"""


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--h", "0", "run.h"),
        ("--h", "100", "run.h"),  # breaks the first step's half-turn bound
        ("--tol", "-1", "run.tolerance"),
        ("--max-iter", "0", "run.max_iterations"),
        ("--steps", "-1", "run.steps"),
        ("--stride", "0", "output.stride"),
        ("--integrator", "euler", "run.integrator"),
    ],
)
def test_flag_is_checked_as_its_config_key(free_config, capsys, flag, value, key):
    assert main(["run", "--config", str(free_config), flag, value]) == 2
    assert key in capsys.readouterr().err


def test_step_flag_rescues_half_turn_config(tmp_path, capsys):
    path = tmp_path / "half_turn.yaml"
    path.write_text(HALF_TURN)
    assert main(["run", "--config", str(path)]) == 2
    assert "reduce h below 0.2" in capsys.readouterr().err
    assert main(["run", "--config", str(path), "--h", "1e-3"]) == 0
    assert "steps: 5" in capsys.readouterr().out


def test_infinite_step_flag_is_config_error(free_config, capsys):
    assert main(["run", "--config", str(free_config), "--h", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


def test_infinite_tolerance_flag_is_config_error(free_config, capsys):
    assert main(["run", "--config", str(free_config), "--tol", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


def test_divergence_is_exit_3(tmp_path, capsys):
    path = tmp_path / "diverge.yaml"
    path.write_text(
        """
body: {mass: 1.0, inertia: [1, 2, 3]}
forces:
  - type: constant_wrench
    torque: [2.0e+9, 0.0, 0.0]
run: {steps: 3, max_iterations: 6}
"""
    )
    assert main(["run", "--config", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_unwritable_output_is_io_error(free_config, capsys):
    code = main(
        [
            "run",
            "--config",
            str(free_config),
            "--steps",
            "5",
            "--output",
            "/nonexistent-dir-xyz/out.tsv",
        ]
    )
    assert code == 4
    capsys.readouterr()


def test_output_path_from_config(tmp_path, capsys):
    out = tmp_path / "from_config.tsv"
    path = tmp_path / "cfg.yaml"
    path.write_text(FORCED + f"output: {{path: {out}}}\n")
    assert main(["run", "--config", str(path)]) == 0
    assert out.exists()
    assert len(out.read_text().splitlines()) == 52
    capsys.readouterr()


def test_repeat_runs_are_byte_identical(free_config, tmp_path, capsys):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    assert main(["run", "--config", str(free_config), "--output", str(a), "--steps", "200"]) == 0
    assert main(["run", "--config", str(free_config), "--output", str(b), "--steps", "200"]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_run_builds_each_config_once(free_config, monkeypatch, capsys):
    # parsing builds the run to check the config; the CLI integrates that run
    import dqdyn.cli
    import dqdyn.scenario

    real = dqdyn.scenario.build_run
    built = []

    def counting(config):
        built.append(config)
        return real(config)

    monkeypatch.setattr(dqdyn.scenario, "build_run", counting)
    monkeypatch.setattr(dqdyn.cli, "build_run", counting, raising=False)
    assert main(["run", "--config", str(free_config), "--steps", "5"]) == 0
    assert len(built) == 1
    assert "steps: 5" in capsys.readouterr().out


def test_batch_runs_in_order(free_config, tmp_path, capsys):
    other = tmp_path / "forced.yaml"
    out = tmp_path / "forced.tsv"
    other.write_text(FORCED + f"output: {{path: {out}}}\n")
    code = main(
        [
            "run",
            "--config",
            str(free_config),
            "--config",
            str(other),
            "--steps",
            "50",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    first = printed.index(str(free_config))
    second = printed.index(str(other))
    assert first < second
    assert out.exists()


def test_failing_batch_prints_the_runs_it_finished(tmp_path, monkeypatch, capsys):
    # damped_drop diverges at h = 0.1: free_top's block is printed before
    # it, and the error names the config that failed
    monkeypatch.chdir(tmp_path)  # free_top writes free_top.tsv
    free, drop = (str(SCENARIO_DIR / f"{name}.yaml") for name in ("free_top", "damped_drop"))
    assert main(["run", "--config", free, "--config", drop, "--steps", "30", "--h", "0.1"]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith(f"config: {free}\n") and captured.out.endswith("wrote: free_top.tsv\n")
    assert captured.err.startswith(f"error: {drop}: Newton did not reach tolerance")
    assert (tmp_path / "free_top.tsv").exists()


def test_batch_rejects_shared_output_flag(free_config, tmp_path, capsys):
    code = main(
        [
            "run",
            "--config",
            str(free_config),
            "--config",
            str(free_config),
            "--output",
            str(tmp_path / "x.tsv"),
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_compare_identical_files(free_config, tmp_path, capsys):
    out = tmp_path / "traj.tsv"
    assert main(["run", "--config", str(free_config), "--output", str(out), "--steps", "50"]) == 0
    capsys.readouterr()
    assert main(["compare", str(out), str(out)]) == 0
    printed = capsys.readouterr().out
    assert "compared states: 51" in printed
    assert "max pose difference: 0.000000e+00" in printed
    assert "max twist difference: 0.000000e+00" in printed


def test_compare_reports_integrator_difference(free_config, tmp_path, capsys):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    assert main(["run", "--config", str(free_config), "--output", str(a), "--steps", "50"]) == 0
    args = ["run", "--config", str(free_config), "--output", str(b), "--steps", "50"]
    assert main(args + ["--integrator", "rk4"]) == 0
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 0
    printed = capsys.readouterr().out
    value = float(printed.splitlines()[1].split(": ")[1])
    assert 0.0 < value < 1e-5


def test_compare_schema_mismatch(tmp_path, capsys):
    good = tmp_path / "good.tsv"
    bad = tmp_path / "bad.tsv"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(FREE_BODY)
    assert main(["run", "--config", str(cfg), "--output", str(good), "--steps", "5"]) == 0
    bad.write_text("t\tp_rw\n0.0\t1.0\n")
    capsys.readouterr()
    assert main(["compare", str(good), str(bad)]) == 2
    capsys.readouterr()


def test_compare_malformed_file_is_exit_2(free_config, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("t\tp_rw\n0.0\t1.0\n0.1\tabc\n")
    assert main(["compare", str(bad), str(bad)]) == 2
    assert "bad.tsv" in capsys.readouterr().err
    # iteration counts that an int64 cast would turn into -2**63, 1 and -4
    good = tmp_path / "good.tsv"
    counts = tmp_path / "counts.tsv"
    assert main(["run", "--config", str(free_config), "--output", str(good), "--steps", "2"]) == 0
    header, *rows = good.read_text().splitlines()
    column = header.split("\t").index("newton_iterations")
    cells = [row.split("\t") for row in rows]
    for row, count in zip(cells, ("nan", "1.5", "-4")):
        row[column] = count
    counts.write_text("".join("\t".join(row) + "\n" for row in [header.split("\t")] + cells))
    capsys.readouterr()
    assert main(["compare", str(good), str(counts)]) == 2
    err = capsys.readouterr().err
    assert "counts.tsv" in err and "newton_iterations" in err


def test_compare_repeated_time_is_exit_2(free_config, tmp_path, capsys):
    good = tmp_path / "good.tsv"
    bad = tmp_path / "repeated.tsv"
    assert main(["run", "--config", str(free_config), "--output", str(good), "--steps", "5"]) == 0
    header, *rows = good.read_text().splitlines()
    # the last row again with different values at the same time; the
    # iteration count stays an integer so that the time check is reached
    t, *rest = rows[-1].split("\t")
    cells = ["0.5"] * len(rest)
    cells[header.split("\t").index("newton_iterations") - 1] = "1"
    rows.append("\t".join([t] + cells))
    bad.write_text("".join(line + "\n" for line in [header] + rows))
    capsys.readouterr()
    assert main(["compare", str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert "repeated.tsv" in err
    assert "strictly increasing" in err


def test_compare_missplit_row_is_exit_2(tmp_path, capsys):
    for name, cells in MISSPLIT_ROWS.items():
        bad = tmp_path / f"{name}.tsv"
        write_table(bad, cells)
        assert main(["compare", str(bad), str(bad)]) == 2
        assert f"{name}.tsv" in capsys.readouterr().err


def test_compare_bad_header_is_exit_2(tmp_path, capsys):
    for name, (header, message) in BAD_HEADERS.items():
        bad = tmp_path / f"{name}.tsv"
        write_table(bad, ROW, header)
        assert main(["compare", str(bad), str(bad)]) == 2
        assert f"{name}.tsv: {message}" in capsys.readouterr().err


def test_compare_missing_file(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")]) == 4
    capsys.readouterr()


def python_process(args, cwd):
    """``python args`` in a child process that imports this dqdyn."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": CHILD_PYTHONPATH},
    )


def dqdyn_process(argv, cwd):
    """``python -m dqdyn.cli argv`` in a child process."""
    return python_process(["-m", "dqdyn.cli", *argv], cwd)


def test_console_entry_point(free_config, tmp_path, capsys):
    # the process entry prints, writes and exits as main() does in-process
    a, b = tmp_path / "dqvi.tsv", tmp_path / "rk4.tsv"
    run = ["run", "--config", str(free_config), "--steps", "5", "--output"]
    commands = [
        (run + [str(a)], a),
        (run + [str(b), "--integrator", "rk4"], b),
        (["compare", str(a), str(b)], None),
    ]
    for argv, written in commands:
        code = main(argv)
        printed = capsys.readouterr()
        if written is not None:
            expected = written.read_bytes()
            written.unlink()
        result = dqdyn_process(argv, tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (code, printed.out, printed.err)
        if written is not None:
            assert written.read_bytes() == expected
    assert gc.get_freeze_count() == 0  # main() leaves its caller's heap alone


def test_console_entry_point_exit_codes(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("body: {mass: 1.0, inertia: [1, 2, 3], junk: 7}\n")
    assert dqdyn_process(["run", "--config", str(bad)], tmp_path).returncode == 2
    drop = dqdyn_process(["run", "--config", str(SCENARIO_DIR / "damped_drop.yaml"), "--h", "0.1"], tmp_path)
    assert drop.returncode == 3 and "at step 18" in drop.stderr
    assert dqdyn_process(["compare", "a.tsv", "b.tsv"], tmp_path).returncode == 4


# runs entry() on the arguments after -c; an exit handler reports whether the heap was frozen
FROZEN_AT_EXIT = (
    "import atexit, gc; from dqdyn.cli import entry; "
    "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0)); entry()"
)


def test_entry_freezes_the_heap_before_exit(free_config, tmp_path):
    result = python_process(["-c", FROZEN_AT_EXIT, "run", "--config", str(free_config), "--steps", "5"], tmp_path)
    assert result.returncode == 0
    assert result.stdout.endswith("frozen: True\n")


def test_console_script_is_the_process_entry():
    assert 'dqdyn = "dqdyn.cli:entry"' in (SCENARIO_DIR.parent / "pyproject.toml").read_text().splitlines()


# runs main() in a fresh process, then prints the modules that process loaded
LOADED_MODULES = "import sys; from dqdyn.cli import main; main(sys.argv[1:]); print(*sorted(sys.modules))"


def modules_loaded_by(argv, cwd) -> set:
    result = python_process(["-c", LOADED_MODULES, *argv], cwd)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def test_each_command_imports_only_its_layers(free_config, tmp_path, capsys):
    out = tmp_path / "traj.tsv"
    assert main(["run", "--config", str(free_config), "--output", str(out), "--steps", "5"]) == 0
    capsys.readouterr()
    compare = modules_loaded_by(["compare", str(out), str(out)], tmp_path)
    assert "dqdyn.trajectory" in compare
    assert not compare & {"dqdyn.scenario", "dqdyn.integrator", "dqdyn.newton_euler", "yaml"}
    dqvi = modules_loaded_by(["run", "--config", str(free_config), "--steps", "5"], tmp_path)
    assert "dqdyn.integrator" in dqvi and "dqdyn.newton_euler" not in dqvi
    rk4 = modules_loaded_by(["run", "--config", str(free_config), "--steps", "5", "--integrator", "rk4"], tmp_path)
    assert "dqdyn.newton_euler" in rk4
