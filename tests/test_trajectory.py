"""Trajectory container: file round trips, comparison, summaries."""

import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from dqdyn.dynamics import build_inertia, kinetic_energy, world_momentum
from dqdyn.errors import ValidationError
from dqdyn.integrator import SolverSettings, simulate
from dqdyn.kinematics import (
    pose_constraint_errors,
    pose_difference_magnitude,
    pose_from_rotation_translation,
    pose_identity,
)
from dqdyn.newton_euler import rk4_simulate
from dqdyn.quat import dq_mul
from dqdyn.scenario import build_run, load_config
from dqdyn.trajectory import (
    FIELD_GROUPS,
    Trajectory,
    compare_trajectories,
    read_trajectory,
    summarize,
    write_trajectory,
)

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def spinning_run():
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    chi0 = np.array([0.9, -0.3, 0.4, 0.2, 0.0, -0.1])
    return simulate(pose_identity(), chi0, M, (), SolverSettings(h=1e-3), 50)


def test_write_read_round_trip_is_lossless(spinning_run, tmp_path):
    path = tmp_path / "traj.tsv"
    write_trajectory(spinning_run, path)
    back = read_trajectory(path)
    np.testing.assert_array_equal(back.times, spinning_run.times)
    np.testing.assert_array_equal(back.poses, spinning_run.poses)
    np.testing.assert_array_equal(back.twists, spinning_run.twists)
    np.testing.assert_array_equal(back.kinetic, spinning_run.kinetic)
    np.testing.assert_array_equal(back.potential, spinning_run.potential)
    np.testing.assert_array_equal(back.angular_momentum, spinning_run.angular_momentum)
    np.testing.assert_array_equal(back.iterations, spinning_run.iterations)
    np.testing.assert_array_equal(back.residual_norms, spinning_run.residual_norms)
    np.testing.assert_array_equal(back.unit_norm_errors, spinning_run.unit_norm_errors)
    np.testing.assert_array_equal(
        back.orthogonality_errors, spinning_run.orthogonality_errors
    )


def test_write_full_schema_header(spinning_run, tmp_path):
    path = tmp_path / "traj.tsv"
    write_trajectory(spinning_run, path)
    header = path.read_text().splitlines()[0].split("\t")
    assert header == [
        "t",
        "p_rw", "p_rx", "p_ry", "p_rz", "p_dw", "p_dx", "p_dy", "p_dz",
        "omega_x", "omega_y", "omega_z", "v_x", "v_y", "v_z",
        "energy", "kinetic_energy", "potential_energy",
        "L_x", "L_y", "L_z",
        "newton_iterations", "residual_norm",
        "unit_norm_error", "orthogonality_error",
    ]


def test_stride_thins_but_keeps_final_row(spinning_run, tmp_path):
    path = tmp_path / "thin.tsv"
    write_trajectory(spinning_run, path, stride=7)
    back = read_trajectory(path)
    # states 0, 7, ..., 49 plus the final state 50
    assert back.n_states == 9
    assert back.times[-1] == spinning_run.times[-1]
    np.testing.assert_array_equal(back.poses[-1], spinning_run.poses[-1])


def test_field_subset(spinning_run, tmp_path):
    path = tmp_path / "subset.tsv"
    write_trajectory(spinning_run, path, fields=("twist", "pose"))
    back = read_trajectory(path)
    np.testing.assert_array_equal(back.poses, spinning_run.poses)
    assert back.kinetic is None
    assert back.iterations is None
    assert back.angular_momentum is None
    header = path.read_text().splitlines()[0]
    # canonical column order is kept even when the request lists twist first
    assert header.startswith("t\tp_rw")
    with pytest.raises(ValidationError):
        write_trajectory(spinning_run, path, fields=("pose", "nonsense"))


def test_rk4_file_has_same_schema(tmp_path):
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    chi0 = np.array([0.9, -0.3, 0.4, 0.0, 0.0, 0.0])
    traj = rk4_simulate(pose_identity(), chi0, M, (), SolverSettings(h=1e-3), 20)
    path = tmp_path / "rk4.tsv"
    write_trajectory(traj, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 22
    back = read_trajectory(path)
    # solver columns exist for schema stability; the fills mark "no data"
    assert np.all(back.iterations == 0)
    assert np.all(np.isnan(back.residual_norms))


def _scenario_run(name, integrator):
    run = build_run(replace(load_config(SCENARIO_DIR / f"{name}.yaml"), steps=200))
    integrate = simulate if integrator == "dqvi" else rk4_simulate
    return run.inertia, integrate(run.pose, run.twist, run.inertia, run.forces, run.settings, run.n_steps)


@pytest.mark.parametrize(
    "name, integrator", [("generic_forced", "dqvi"), ("damped_drop", "rk4")]
)
def test_diagnostic_columns_are_the_tested_functions(name, integrator):
    # one formula per reported quantity: the columns are the unit-tested
    # per-state functions applied to whole columns, bit for bit
    M, traj = _scenario_run(name, integrator)
    L, P = world_momentum(traj.poses, M, traj.twists)
    np.testing.assert_array_equal(L, traj.angular_momentum)
    np.testing.assert_array_equal(P, traj.linear_momentum)
    unit, orth = pose_constraint_errors(traj.poses)
    np.testing.assert_array_equal(unit, traj.unit_norm_errors)
    np.testing.assert_array_equal(orth, traj.orthogonality_errors)
    if integrator == "rk4":
        # RK4 twists are synchronous with the poses: no half-kick correction
        np.testing.assert_array_equal(kinetic_energy(M, traj.twists), traj.kinetic)


def _tsv(*rows):
    """File text of rows whose cells are written space-separated here."""
    return "".join("\t".join(row.split()) + "\n" for row in rows)


@pytest.fixture
def edge_values():
    """Five hand-built states: -0, nan fills, 1e-300/1e300, a subnormal,
    integer iteration counts and values that need all 17 digits."""
    nan = float("nan")
    return Trajectory(
        times=[0.0, 0.1, 0.2, 0.1 + 0.2, 0.4],
        poses=[
            [1.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0, 1e-300, 1e300, 0.0],
            [1 / 3, 2 / 3, -2 / 3, 0.0, 0.0, 0.1, -0.2, 0.1 + 0.2],
        ],
        twists=[
            [1e-300, -1e300, 0.0, 0.0, 0.0, -0.0],
            [0.0] * 6,
            [0.0] * 6,
            [0.0] * 6,
            [math.pi, -math.e, 1 / 7, 0.0, 5e-324, 1.0],
        ],
        iterations=[0, 1, 2, 3, 12],
        residual_norms=[nan] * 5,  # the fill an RK4 run writes
        kinetic=[0.1] * 5,
        potential=[0.2] * 5,
        angular_momentum=[[0.0, 0.0, 0.0]] * 3 + [[1e300, -1e-300, 1 / 7], [0.0, -0.0, 1.0]],
        unit_norm_errors=[2.220446049250313e-16] * 5,
        orthogonality_errors=[0.0] * 5,
    )


def test_write_golden_bytes_all_fields_stride_3(edge_values, tmp_path):
    path = tmp_path / "golden.tsv"
    write_trajectory(edge_values, path, stride=3)
    # states 0 and 3, plus the final state 4
    assert path.read_bytes().decode("utf-8") == _tsv(
        "t  p_rw p_rx p_ry p_rz p_dw p_dx p_dy p_dz  omega_x omega_y omega_z v_x v_y v_z"
        "  energy kinetic_energy potential_energy  L_x L_y L_z  newton_iterations residual_norm"
        "  unit_norm_error orthogonality_error",
        "0  1 -0 0 0 0 0 0 0  1e-300 -1.0000000000000001e+300 0 0 0 -0"
        "  0.30000000000000004 0.10000000000000001 0.20000000000000001  0 0 0  0 nan"
        "  2.2204460492503131e-16 0",
        "0.30000000000000004  1 0 0 0 0 1e-300 1.0000000000000001e+300 0  0 0 0 0 0 0"
        "  0.30000000000000004 0.10000000000000001 0.20000000000000001"
        "  1.0000000000000001e+300 -1e-300 0.14285714285714285  3 nan  2.2204460492503131e-16 0",
        "0.40000000000000002"
        "  0.33333333333333331 0.66666666666666663 -0.66666666666666663 0"
        "  0 0.10000000000000001 -0.20000000000000001 0.30000000000000004"
        "  3.1415926535897931 -2.7182818284590451 0.14285714285714285 0 4.9406564584124654e-324 1"
        "  0.30000000000000004 0.10000000000000001 0.20000000000000001  0 -0 1  12 nan"
        "  2.2204460492503131e-16 0",
    )


def test_write_golden_bytes_twist_and_pose(edge_values, tmp_path):
    path = tmp_path / "golden.tsv"
    write_trajectory(edge_values, path, fields=("twist", "pose"))
    assert path.read_bytes().decode("utf-8") == _tsv(
        "t  p_rw p_rx p_ry p_rz p_dw p_dx p_dy p_dz  omega_x omega_y omega_z v_x v_y v_z",
        "0  1 -0 0 0 0 0 0 0  1e-300 -1.0000000000000001e+300 0 0 0 -0",
        "0.10000000000000001  1 0 0 0 0 0 0 0  0 0 0 0 0 0",
        "0.20000000000000001  1 0 0 0 0 0 0 0  0 0 0 0 0 0",
        "0.30000000000000004  1 0 0 0 0 1e-300 1.0000000000000001e+300 0  0 0 0 0 0 0",
        "0.40000000000000002"
        "  0.33333333333333331 0.66666666666666663 -0.66666666666666663 0"
        "  0 0.10000000000000001 -0.20000000000000001 0.30000000000000004"
        "  3.1415926535897931 -2.7182818284590451 0.14285714285714285 0 4.9406564584124654e-324 1",
    )


def test_read_rejects_missing_required_columns(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("t\tp_rw\n0.0\t1.0\n")
    with pytest.raises(ValidationError):
        read_trajectory(path)
    path.write_text("t\tx\n")
    with pytest.raises(ValidationError):
        read_trajectory(path)


def test_read_rejects_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("t\tp_rw\n0.0\t1.0\n0.1\tabc\n")
    with pytest.raises(ValidationError, match="bad.tsv"):
        read_trajectory(path)


def test_read_rejects_ragged_row(tmp_path):
    path = tmp_path / "ragged.tsv"
    path.write_text("t\tp_rw\n0.0\t1.0\n0.1\n")
    with pytest.raises(ValidationError, match="ragged.tsv"):
        read_trajectory(path)


def test_read_rejects_repeated_column(spinning_run, tmp_path):
    path = tmp_path / "twice.tsv"
    write_trajectory(spinning_run, path, fields=("pose", "twist"))
    header, *rows = path.read_text().splitlines()
    # a second p_rw column would otherwise silently replace the first
    path.write_text("".join(line + "\n" for line in [header + "\tp_rw"] + [row + "\t0.5" for row in rows]))
    with pytest.raises(ValidationError, match="twice.tsv.*p_rw"):
        read_trajectory(path)


def test_empty_trajectory_is_rejected():
    with pytest.raises(ValidationError, match="at least one state"):
        Trajectory(np.empty(0), np.empty((0, 8)), np.empty((0, 6)))


def _two_states(times):
    return Trajectory(times, [pose_identity()] * 2, np.zeros((2, 6)))


def test_scalar_times_are_rejected():
    with pytest.raises(ValidationError, match="one-dimensional"):
        Trajectory(0.0, [pose_identity()], np.zeros((1, 6)))


def test_nan_times_are_rejected():
    # compare_trajectories would silently drop the NaN row
    with pytest.raises(ValidationError, match="finite"):
        _two_states([0.0, np.nan])


def test_repeated_times_are_rejected():
    # compare_trajectories would keep only the first row of a repeated time
    with pytest.raises(ValidationError, match="strictly increasing"):
        _two_states([0.1, 0.1])
    with pytest.raises(ValidationError, match="strictly increasing"):
        _two_states([0.2, 0.1])


def test_compare_identical_is_zero(spinning_run):
    report = compare_trajectories(spinning_run, spinning_run)
    assert report.n_common == spinning_run.n_states
    assert report.max_pose_error == 0.0
    assert report.max_twist_error == 0.0


def test_compare_shifted_equals_one_step_displacement():
    # pure z spin at rate 2: every step displaces the pose by exactly h*|omega|
    M = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
    chi0 = np.array([0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
    traj = simulate(pose_identity(), chi0, M, (), SolverSettings(h=1e-3), 30)
    shifted = Trajectory(
        times=traj.times[:-1],
        poses=traj.poses[1:],
        twists=traj.twists[1:],
    )
    report = compare_trajectories(traj, shifted)
    assert report.n_common == 30
    d01 = pose_difference_magnitude(traj.poses[0], traj.poses[1])
    np.testing.assert_allclose(report.pose_errors, d01, rtol=1e-12)
    # the discrete step angle is 2*asin(phi), h*|omega| + O(h^3)
    assert d01 == pytest.approx(2e-3, rel=1e-5)


def test_compare_disjoint_grids_raises(spinning_run):
    other = Trajectory(
        times=spinning_run.times + 0.5,
        poses=spinning_run.poses,
        twists=spinning_run.twists,
    )
    with pytest.raises(ValidationError):
        compare_trajectories(spinning_run, other)


def test_compare_mixed_pair_zero_on_equal_rows(spinning_run):
    # every third pose displaced by a small screw, the rest bitwise equal
    q = np.array([np.cos(0.003), 0.0, np.sin(0.003), 0.0])
    offset = pose_from_rotation_translation(q, [1e-3, 0.0, -2e-3])
    poses = spinning_run.poses.copy()
    moved = np.arange(0, spinning_run.n_states, 3)
    for k in moved:
        poses[k] = dq_mul(poses[k], offset)
    other = Trajectory(times=spinning_run.times, poses=poses, twists=spinning_run.twists)
    report = compare_trajectories(spinning_run, other)
    still = np.setdiff1d(np.arange(spinning_run.n_states), moved)
    assert np.all(report.pose_errors[still] == 0.0)
    expected = [pose_difference_magnitude(spinning_run.poses[k], poses[k]) for k in moved]
    np.testing.assert_allclose(report.pose_errors[moved], expected, rtol=1e-15, atol=0.0)
    assert np.all(report.pose_errors[moved] > 0.0)


def test_compare_sign_cover_is_zero(spinning_run):
    flipped = Trajectory(times=spinning_run.times, poses=-spinning_run.poses, twists=spinning_run.twists)
    report = compare_trajectories(spinning_run, flipped)
    assert report.max_pose_error < 1e-14


def test_compare_nan_rows_report_nan(spinning_run):
    poses = spinning_run.poses.copy()
    poses[4, 2] = np.nan
    other = Trajectory(times=spinning_run.times, poses=poses, twists=spinning_run.twists)
    errors = compare_trajectories(spinning_run, other).pose_errors
    assert np.isnan(errors[4])
    assert np.all(errors[np.arange(errors.size) != 4] == 0.0)


def test_summarize_keys(spinning_run):
    stats = summarize(spinning_run)
    assert stats["states"] == 51
    assert stats["duration"] == pytest.approx(0.05)
    for key in (
        "energy_drift",
        "relative_energy_drift",
        "momentum_drift",
        "relative_momentum_drift",
        "max_unit_norm_error",
        "max_orthogonality_error",
        "mean_newton_iterations",
        "max_newton_iterations",
        "max_residual_norm",
    ):
        assert key in stats
    assert stats["mean_newton_iterations"] >= 1.0


def test_field_groups_frozen():
    assert FIELD_GROUPS == ("pose", "twist", "energy", "momentum", "solver", "constraints")
