"""Correctness gates and the ledger that counts failed operations.

Every bar is the one ``tests/test_acceptance.py`` uses, never a looser
one. A gate returns a list of failure messages; an empty list passes.
"""

import numpy as np

from dqdyn.errors import DqdynError

CONSTRAINT_BAR = 1e-10  # test_long_run_preserves_group_constraints
MOMENTUM_BAR = 1e-8  # test_world_angular_momentum_conserved


def constraint_failures(traj) -> list:
    """Unit-norm and orthogonality error of every pose within the bar."""
    out = []
    for label, column in (("unit-norm", traj.unit_norm_errors), ("orthogonality", traj.orthogonality_errors)):
        worst = float(np.max(column))
        if not worst <= CONSTRAINT_BAR:
            out.append(f"{label} error {worst:.3e} > {CONSTRAINT_BAR:g}")
    return out


def dqvi_failures(traj, tolerance: float) -> list:
    """Group constraints plus every Newton residual within the run's tolerance."""
    out = constraint_failures(traj)
    worst = float(np.max(traj.residual_norms))
    if not worst <= tolerance:
        out.append(f"max Newton residual {worst:.3e} > tolerance {tolerance:g}")
    return out


def momentum_failures(angular_momentum, reference) -> list:
    """Free-body world angular momentum drift relative to ``reference``."""
    drift = float(np.abs(angular_momentum - reference).max() / np.linalg.norm(reference))
    if not drift <= MOMENTUM_BAR:
        return [f"angular momentum relative drift {drift:.3e} > {MOMENTUM_BAR:g}"]
    return []


def readback_failures(memory, back) -> list:
    """A file read back must hold exactly the in-memory time, pose and twist columns."""
    out = []
    for label in ("times", "poses", "twists"):
        if not np.array_equal(getattr(memory, label), getattr(back, label)):
            out.append(f"read-back {label} differ from the in-memory trajectory")
    return out


def identical_failures(label: str, first, again) -> list:
    """A repeat with the same inputs must reproduce the first output byte for byte."""
    return [] if first == again else [f"{label}: repeat is not byte-identical"]


FAILED = object()  # returned by Ledger.attempt when the operation raised


class Ledger:
    """Counts operations, and the ones that raised or failed a gate.

    ``attempt`` runs an operation; ``check`` gates its output afterwards, at
    most once per operation; ``record`` does both for an operation run
    elsewhere, such as a subprocess.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def attempt(self, what: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (DqdynError, OSError) as exc:
            self.check(what, [f"{type(exc).__name__}: {exc}"])
            return FAILED

    def check(self, what: str, failures) -> bool:
        if failures:
            self.failed += 1
            self.messages.append(f"{what}: {'; '.join(failures)}")
        return not failures

    def record(self, what: str, failures) -> bool:
        self.attempted += 1
        return self.check(what, failures)

    @property
    def pass_rate(self) -> float:
        return (self.attempted - self.failed) / self.attempted
