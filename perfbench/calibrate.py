"""Machine-speed calibration of the benchmark's timings.

On a shared host the speed of a core drifts by a third over minutes, in
CPU time as much as in wall time (2-core Xeon VM: one fixed 300-step
dqdyn run took 70-127 ms across two minutes). No median inside a run
removes a drift that lasts longer than the run. So the benchmark times a
fixed reference loop of its own between measurements and reports every
timing at a nominal speed:

    reported = measured * NOMINAL_S / (median reference-loop time nearby)

The loop composes unit dual quaternions with the benchmark's own numpy
code (``inputs._dq_mul``), the same mix of interpreter work and small-array
numpy calls as dqdyn's kernels, and it never calls dqdyn, so a change to
the program moves the reported figures and a change of machine speed does
not (on the host above, the ratio stayed within 9.2-9.9 while the raw
time moved by 80%). Reported seconds are seconds of a machine on which the
loop takes NOMINAL_S.

Times that are mostly process start-up (set-up, the CLI batch) drift with
the host's spawn, import and page-fault costs more than with the loop, so
they are scaled by ``SpawnCalibration``: the spawn-to-exit time of a fresh
interpreter that imports numpy and yaml and runs the loop once (this file
as a script), against SPAWN_NOMINAL_S. Over two and a half minutes on the
host above, a ``dqdyn run`` subprocess moved by 43%, its ratio to the loop
by 34% and its ratio to the reference process by 19%.
"""

import os
import subprocess
import sys
import time
from statistics import median

import numpy as np

import inputs

REFERENCE_STEPS = 500
NOMINAL_S = 0.015  # the loop at nominal speed: 30 µs per composition
SPAWN_NOMINAL_S = 0.3  # the reference process at nominal speed
SPAWN_TIMEOUT_S = 60


class Calibration:
    """Times of the reference loop, one per ``sample`` call."""

    nominal = NOMINAL_S

    def __init__(self):
        self.times = []
        self._steps = np.random.default_rng(0).uniform(-1e-3, 1e-3, size=(REFERENCE_STEPS, 6))

    def sample(self) -> None:
        pose = np.eye(8)[0]
        start = time.perf_counter()
        for step in self._steps:
            pose = inputs._dq_mul(pose, inputs._step_dq(step))
        self.times.append(time.perf_counter() - start)

    def speed(self, since: int = 0) -> float:
        """Factor that takes times measured since sample ``since`` to nominal speed."""
        return self.nominal / median(self.times[since:])


class SpawnCalibration(Calibration):
    """Spawn-to-exit times of the reference process, one per ``sample`` call."""

    nominal = SPAWN_NOMINAL_S

    def sample(self) -> None:
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__)], check=True, timeout=SPAWN_TIMEOUT_S)
        self.times.append(time.perf_counter() - start)


if __name__ == "__main__":
    Calibration().sample()
