"""Trajectory storage, derived diagnostics, tabular output, and comparison.

A trajectory is columnar: one array per quantity, row k = state k. The file
format is tab-separated text with a single header row and a fixed column
order (time, pose, body twist, energies, world angular momentum, solver
diagnostics, constraint residuals); ``fields`` selects a subset of the
column groups, ``stride`` thins rows for long runs (the final state is
always kept so endpoint comparisons survive thinning). Each column is
declared once, in ``_COLUMNS``: the writer, the reader and the check of
field-group names all work from it.
"""

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dynamics import InertiaMatrix6, kinetic_energy, potential_energy, world_momentum
from .errors import ValidationError
from .kinematics import pose_constraint_errors, pose_distance
from .quat import Array, as_count

# Each group's file columns, in order, by the Trajectory attribute that holds
# them: (attribute, its column names, one per column of a 2-D attribute). A
# file holds a group only where the trajectory holds all of its attributes.
# The energy total is ``energies``, kinetic + potential; it is not read back.
_COLUMNS = {
    "pose": (("poses", ("p_rw", "p_rx", "p_ry", "p_rz", "p_dw", "p_dx", "p_dy", "p_dz")),),
    "twist": (("twists", ("omega_x", "omega_y", "omega_z", "v_x", "v_y", "v_z")),),
    "energy": (("energies", ("energy",)), ("kinetic", ("kinetic_energy",)), ("potential", ("potential_energy",))),
    "momentum": (("angular_momentum", ("L_x", "L_y", "L_z")),),
    "solver": (("iterations", ("newton_iterations",)), ("residual_norms", ("residual_norm",))),
    "constraints": (("unit_norm_errors", ("unit_norm_error",)), ("orthogonality_errors", ("orthogonality_error",))),
}
FIELD_GROUPS = tuple(_COLUMNS)
# the one column of counts: written with %d, held by Trajectory as int64
_COUNT_COLUMN = "newton_iterations"

# rows write_trajectory formats per % call: 256 rows are as fast to write
# as 512 and hold half the Python floats at once
_WRITE_BLOCK = 256


def _counts(values: Array) -> Array:
    """The iteration counts ``values`` as int64 (not copied when they are);
    a ValidationError unless each is a non-negative integer below 2**63."""
    # a NaN, fractional, negative or huge count would not survive the int64 cast
    if values.dtype.kind in "iuf" and np.all((values >= 0) & (values == np.floor(values)) & (values < 2**63)):
        return values.astype(np.int64, copy=False)
    raise ValidationError(f"column {_COUNT_COLUMN} must hold non-negative integers")


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
        iterations = opt(iterations, (n,))
        self.iterations = None if iterations is None else _counts(iterations)
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

    @property
    def energies(self) -> Optional[Array]:
        """Total energy, or None unless both of its terms are held."""
        if self.kinetic is None or self.potential is None:
            return None
        return self.kinetic + self.potential


def _resolve_groups(fields) -> tuple:
    """The requested groups in file order; every field-group name is checked here."""
    if fields is None:
        return FIELD_GROUPS
    if isinstance(fields, str):
        raise ValidationError(f"fields {fields!r} is a string; expected a sequence of group names")
    groups = tuple(fields)
    for g in groups:
        # a tuple's ``in`` compares by ==, so an unhashable name is reported too
        if g not in FIELD_GROUPS:
            raise ValidationError(f"unknown field group {g!r}; expected one of {FIELD_GROUPS}")
    # read_trajectory needs both, so a file without them could not be read back
    if "pose" not in groups or "twist" not in groups:
        raise ValidationError(f"fields {list(groups)} must include 'pose' and 'twist'")
    # keep the canonical column order regardless of request order
    return tuple(g for g in FIELD_GROUPS if g in groups)


def write_trajectory(traj: Trajectory, path, stride: int = 1, fields=None) -> None:
    """Write the trajectory as tab-separated text with one header row.

    The file holds each requested group (all of them when ``fields`` is
    None) whose attributes the trajectory holds, and no other column.
    Rows are states 0, stride, 2*stride, ... plus always the final state.
    Floats carry 17 significant digits so a read-back is lossless.
    """
    stride = as_count(stride, "stride", 1)
    groups = [g for g in _resolve_groups(fields) if all(getattr(traj, a) is not None for a, _ in _COLUMNS[g])]
    indices = list(range(0, traj.n_states, stride))
    if indices[-1] != traj.n_states - 1:
        indices.append(traj.n_states - 1)
    attrs = [entry for g in groups for entry in _COLUMNS[g]]
    names = [name for _, group_names in attrs for name in group_names]
    # one %-format per row; "%.17g" of a Python float is f"{x:.17g}", nan and -0 included
    row = "\t".join(["%.17g"] + ["%d" if name == _COUNT_COLUMN else "%.17g" for name in names]) + "\n"
    table = np.column_stack([traj.times] + [getattr(traj, attr) for attr, _ in attrs])[indices]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["t"] + names) + "\n")
        # _WRITE_BLOCK rows per % call: a whole-table tolist() would hold
        # every cell as a Python float at once
        for start in range(0, len(table), _WRITE_BLOCK):
            block = table[start:start + _WRITE_BLOCK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


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
                # comments=None: a "#" in a cell is data, so it is reported, not cut
                data = np.loadtxt(fh, ndmin=2, delimiter="\t", comments=None)
            except ValueError as exc:
                # a non-numeric cell or a row of a different width
                raise ValidationError(f"{path}: {exc}") from None
    if data.size == 0:
        raise ValidationError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise ValidationError(f"{path}: header names {len(header)} columns, rows have {data.shape[1]}")
    col = {name: data[:, i] for i, name in enumerate(header)}
    if "t" not in col:
        raise ValidationError(f"{path}: missing time column 't'")
    groups = [g for g, attrs in _COLUMNS.items() if all(name in col for _, names in attrs for name in names)]
    if "pose" not in groups or "twist" not in groups:
        raise ValidationError(f"{path}: pose and twist columns are required")
    restored = {}
    for attr, names in (entry for g in groups for entry in _COLUMNS[g]):
        if attr == "energies":  # the total, derived from its terms
            continue
        restored[attr] = np.column_stack([col[name] for name in names]) if len(names) > 1 else col[names[0]]
    try:
        return Trajectory(times=col["t"], **restored)
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
