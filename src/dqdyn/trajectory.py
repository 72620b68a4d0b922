"""Trajectory storage, derived diagnostics, tabular output, and comparison.

A trajectory is columnar: one array per quantity, row k = state k. The file
format is tab-separated text with a single header row and a fixed column
order (time, pose, body twist, energies, world angular momentum, solver
diagnostics, constraint residuals); ``fields`` selects a subset of the
column groups, ``stride`` thins rows for long runs (the final state is
always kept so endpoint comparisons survive thinning).
"""

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynamics import InertiaMatrix6, kinetic_energy, potential_energy, world_momentum
from .errors import ValidationError
from .kinematics import pose_constraint_errors, pose_distance
from .quat import Array

FIELD_GROUPS = ("pose", "twist", "energy", "momentum", "solver", "constraints")

_GROUP_COLUMNS = {
    "pose": ("p_rw", "p_rx", "p_ry", "p_rz", "p_dw", "p_dx", "p_dy", "p_dz"),
    "twist": ("omega_x", "omega_y", "omega_z", "v_x", "v_y", "v_z"),
    "energy": ("energy", "kinetic_energy", "potential_energy"),
    "momentum": ("L_x", "L_y", "L_z"),
    "solver": ("newton_iterations", "residual_norm"),
    "constraints": ("unit_norm_error", "orthogonality_error"),
}


@dataclass(frozen=True)
class IntegratorState:
    """One trajectory sample with its diagnostics.

    ``step`` holds the six step variables [Phi; Psi] taking this pose to the
    next one; solver fields are None for trajectories not produced by the
    variational stepper.
    """

    k: int
    time: float
    pose: Array
    twist: Array
    step: Optional[Array]
    kinetic_energy: float
    potential_energy: float
    angular_momentum: Array
    linear_momentum: Array
    unit_norm_error: float
    orthogonality_error: float
    iterations: Optional[int]
    residual_norm: Optional[float]

    @property
    def energy(self) -> float:
        return self.kinetic_energy + self.potential_energy


class Trajectory:
    """Columnar record of one simulation run, states 0..N."""

    def __init__(
        self,
        times,
        poses,
        twists,
        steps=None,
        iterations=None,
        residual_norms=None,
        kinetic=None,
        potential=None,
        angular_momentum=None,
        linear_momentum=None,
        unit_norm_errors=None,
        orthogonality_errors=None,
    ):
        self.times = np.asarray(times, dtype=np.float64)
        self.poses = np.asarray(poses, dtype=np.float64)
        self.twists = np.asarray(twists, dtype=np.float64)
        if self.times.ndim != 1:
            raise ValidationError(f"times must be one-dimensional, got shape {self.times.shape}")
        n = self.times.shape[0]
        if n == 0:
            raise ValidationError("a trajectory needs at least one state")
        # compare_trajectories aligns runs on exact times: NaN or repeated times would drop rows
        if not np.all(np.isfinite(self.times)):
            raise ValidationError("times must be finite")
        if not np.all(self.times[1:] > self.times[:-1]):
            raise ValidationError("times must be strictly increasing")
        if self.poses.shape != (n, 8) or self.twists.shape != (n, 6):
            raise ValidationError("times, poses, and twists disagree on length")

        def opt(arr, shape):
            if arr is None:
                return None
            arr = np.asarray(arr)
            if arr.shape != shape:
                raise ValidationError(f"trajectory column has shape {arr.shape}, expected {shape}")
            return arr

        self.steps = opt(steps, (n, 6))
        self.iterations = opt(iterations, (n,))
        self.residual_norms = opt(residual_norms, (n,))
        self.kinetic = opt(kinetic, (n,))
        self.potential = opt(potential, (n,))
        self.angular_momentum = opt(angular_momentum, (n, 3))
        self.linear_momentum = opt(linear_momentum, (n, 3))
        self.unit_norm_errors = opt(unit_norm_errors, (n,))
        self.orthogonality_errors = opt(orthogonality_errors, (n,))

    @classmethod
    def from_raw(
        cls,
        times,
        poses,
        twists,
        inertia: InertiaMatrix6,
        force_models: Sequence = (),
        steps=None,
        iterations=None,
        residual_norms=None,
    ) -> "Trajectory":
        """Build a trajectory from the integrator's raw columns, computing
        energy, world momentum, and constraint diagnostics for every state.

        The columns come from the same functions that report them for one
        state, applied to whole columns: ``kinetic_energy``,
        ``world_momentum`` (which does not reject drifted rows; their
        constraint columns show the drift), ``pose_constraint_errors`` and
        ``potential_energy``. Each twist is taken at its pose's instant,
        which is how both integrators store them.
        """
        poses = np.asarray(poses, dtype=np.float64)
        twists = np.asarray(twists, dtype=np.float64)
        L, P = world_momentum(poses, inertia, twists)
        unit, orth = pose_constraint_errors(poses)
        return cls(
            times=times,
            poses=poses,
            twists=twists,
            steps=steps,
            iterations=iterations,
            residual_norms=residual_norms,
            kinetic=kinetic_energy(inertia, twists),
            potential=potential_energy(force_models, poses),
            angular_momentum=L,
            linear_momentum=P,
            unit_norm_errors=unit,
            orthogonality_errors=orth,
        )

    @property
    def n_states(self) -> int:
        return int(self.times.shape[0])

    def __len__(self) -> int:
        return self.n_states

    @property
    def energies(self) -> Optional[Array]:
        if self.kinetic is None:
            return None
        if self.potential is None:
            return self.kinetic
        return self.kinetic + self.potential

    def state(self, k: int) -> IntegratorState:
        idx = range(self.n_states)[k]

        def pick(col, default=None):
            return col[idx] if col is not None else default

        return IntegratorState(
            k=idx,
            time=float(self.times[idx]),
            pose=self.poses[idx],
            twist=self.twists[idx],
            step=pick(self.steps),
            kinetic_energy=float(pick(self.kinetic, np.nan)),
            potential_energy=float(pick(self.potential, np.nan)),
            angular_momentum=pick(self.angular_momentum),
            linear_momentum=pick(self.linear_momentum),
            unit_norm_error=float(pick(self.unit_norm_errors, np.nan)),
            orthogonality_error=float(pick(self.orthogonality_errors, np.nan)),
            iterations=None if self.iterations is None else int(self.iterations[idx]),
            residual_norm=None if self.residual_norms is None else float(self.residual_norms[idx]),
        )

    @property
    def final(self) -> IntegratorState:
        return self.state(-1)


def _resolve_groups(fields) -> tuple:
    if fields is None:
        return FIELD_GROUPS
    groups = tuple(fields)
    for g in groups:
        if g not in _GROUP_COLUMNS:
            raise ValidationError(f"unknown field group {g!r}; expected one of {FIELD_GROUPS}")
    # keep the canonical column order regardless of request order
    return tuple(g for g in FIELD_GROUPS if g in groups)


def _group_matrix(traj: Trajectory, group: str) -> Array:
    n = traj.n_states
    if group == "pose":
        return traj.poses
    if group == "twist":
        return traj.twists
    if group == "energy":
        kin = traj.kinetic if traj.kinetic is not None else np.full(n, np.nan)
        pot = traj.potential if traj.potential is not None else np.zeros(n)
        return np.column_stack([kin + pot, kin, pot])
    if group == "momentum":
        L = traj.angular_momentum
        return L if L is not None else np.full((n, 3), np.nan)
    if group == "solver":
        iters = traj.iterations if traj.iterations is not None else np.zeros(n, dtype=np.int64)
        rn = traj.residual_norms if traj.residual_norms is not None else np.full(n, np.nan)
        return np.column_stack([np.asarray(iters, dtype=np.float64), rn])
    if group == "constraints":
        une = traj.unit_norm_errors if traj.unit_norm_errors is not None else np.full(n, np.nan)
        oe = traj.orthogonality_errors if traj.orthogonality_errors is not None else np.full(n, np.nan)
        return np.column_stack([une, oe])
    raise ValidationError(f"unknown field group {group!r}")


def write_trajectory(traj: Trajectory, path, stride: int = 1, fields=None) -> None:
    """Write the trajectory as tab-separated text with one header row.

    Rows are states 0, stride, 2*stride, ... plus always the final state.
    Floats carry 17 significant digits so a read-back is lossless.
    """
    stride = int(stride)
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    groups = _resolve_groups(fields)
    indices = list(range(0, traj.n_states, stride))
    if indices[-1] != traj.n_states - 1:
        indices.append(traj.n_states - 1)
    names = ["t"]
    for g in groups:
        names.extend(_GROUP_COLUMNS[g])
    # one %-format per row; "%.17g" of a Python float is f"{x:.17g}", nan and -0 included
    row = "\t".join("%d" if name == "newton_iterations" else "%.17g" for name in names) + "\n"
    table = np.column_stack([traj.times] + [_group_matrix(traj, g) for g in groups])[indices]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(names) + "\n")
        # row by row: a whole-table tolist() would hold every cell as a Python float at once
        fh.writelines(row % tuple(r.tolist()) for r in table)


def read_trajectory(path) -> Trajectory:
    """Read a trajectory table written by write_trajectory.

    Requires the time, pose, and twist columns; any other recognized columns
    are restored as diagnostics.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split("\t")
        repeated = sorted({name for name in header if header.count(name) > 1})
        if repeated:
            raise ValidationError(f"{path}: header names column(s) {', '.join(repeated)} more than once")
        with warnings.catch_warnings():
            # empty data is reported as a ValidationError just below
            warnings.simplefilter("ignore", UserWarning)
            try:
                data = np.loadtxt(fh, ndmin=2)
            except ValueError as exc:
                # a non-numeric cell or a row of a different width
                raise ValidationError(f"{path}: {exc}") from None
    if data.size == 0:
        raise ValidationError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise ValidationError(f"{path}: header names {len(header)} columns, rows have {data.shape[1]}")
    col = {name: data[:, i] for i, name in enumerate(header)}

    def block(group):
        names = _GROUP_COLUMNS[group]
        if not all(name in col for name in names):
            return None
        return np.column_stack([col[name] for name in names])

    if "t" not in col:
        raise ValidationError(f"{path}: missing time column 't'")
    poses = block("pose")
    twists = block("twist")
    if poses is None or twists is None:
        raise ValidationError(f"{path}: pose and twist columns are required")
    energy = block("energy")
    solver = block("solver")
    constraints = block("constraints")
    try:
        return Trajectory(
            times=col["t"],
            poses=poses,
            twists=twists,
            iterations=None if solver is None else solver[:, 0].astype(np.int64),
            residual_norms=None if solver is None else solver[:, 1],
            kinetic=None if energy is None else energy[:, 1],
            potential=None if energy is None else energy[:, 2],
            angular_momentum=block("momentum"),
            unit_norm_errors=None if constraints is None else constraints[:, 0],
            orthogonality_errors=None if constraints is None else constraints[:, 1],
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class TrajectoryComparison:
    """Pointwise differences between two runs on their common time grid.

    Pose differences are screw magnitudes of the relative displacement, so
    rotation (radians) and translation (meters) enter on the same footing.
    """

    times: Array
    pose_errors: Array
    twist_errors: Array

    @property
    def n_common(self) -> int:
        return int(self.times.shape[0])

    @property
    def max_pose_error(self) -> float:
        return float(np.max(self.pose_errors))

    @property
    def rms_pose_error(self) -> float:
        return float(np.sqrt(np.mean(self.pose_errors**2)))

    @property
    def max_twist_error(self) -> float:
        return float(np.max(self.twist_errors))

    @property
    def rms_twist_error(self) -> float:
        return float(np.sqrt(np.mean(self.twist_errors**2)))


def compare_trajectories(a: Trajectory, b: Trajectory) -> TrajectoryComparison:
    """Compare two trajectories at exactly matching sample times.

    Nested step sizes (h and h/2, say) share their coarse grid bit-exactly
    because times are k*h in both runs, so exact matching is the right
    alignment; disjoint grids raise.
    """
    common, ia, ib = np.intersect1d(a.times, b.times, return_indices=True)
    if common.size == 0:
        raise ValidationError("trajectories share no sample times")
    pa = a.poses[ia]
    pb = b.poses[ib]
    # bitwise-equal poses report exactly zero; the log route would leave
    # ~1e-16 of roundoff even for identical inputs (NaN rows differ)
    differ = np.flatnonzero(np.any(pa != pb, axis=1))
    pose_errors = np.zeros(common.size)
    pose_errors[differ] = [pose_distance(x, y) for x, y in zip(pa[differ].tolist(), pb[differ].tolist())]
    twist_errors = np.linalg.norm(a.twists[ia] - b.twists[ib], axis=1)
    return TrajectoryComparison(times=common, pose_errors=pose_errors, twist_errors=twist_errors)


def summarize(traj: Trajectory) -> dict:
    """Scalar health summary: drifts, constraint residuals, solver effort."""
    out = {
        "states": traj.n_states,
        "duration": float(traj.times[-1] - traj.times[0]),
    }
    energies = traj.energies
    if energies is not None:
        dev = np.abs(energies - energies[0])
        scale = max(abs(float(energies[0])), 1e-300)
        out["energy_drift"] = float(dev.max())
        out["relative_energy_drift"] = float(dev.max() / scale)
    if traj.angular_momentum is not None:
        L0 = traj.angular_momentum[0]
        drift = np.abs(traj.angular_momentum - L0).max()
        out["momentum_drift"] = float(drift)
        out["relative_momentum_drift"] = float(drift / max(float(np.linalg.norm(L0)), 1e-300))
    if traj.unit_norm_errors is not None:
        out["max_unit_norm_error"] = float(traj.unit_norm_errors.max())
    if traj.orthogonality_errors is not None:
        out["max_orthogonality_error"] = float(traj.orthogonality_errors.max())
    if traj.iterations is not None:
        out["mean_newton_iterations"] = float(np.mean(traj.iterations))
        out["max_newton_iterations"] = int(np.max(traj.iterations))
    if traj.residual_norms is not None:
        out["max_residual_norm"] = float(np.max(traj.residual_norms))
    return out
