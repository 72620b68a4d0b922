"""Seeded benchmark inputs, built without calling into dqdyn.

Scenario configs are copies of the shipped ``scenarios/*.yaml`` whose
nonzero initial-twist entries are scaled by a seeded factor in
[1 - TWIST_JITTER, 1 + TWIST_JITTER]. The jitter is small so that the
accuracy metrics, which depend on the twist, vary little between seeds. Zero entries stay zero, so the pure
translation scenario stays rotation free and the spring pendulum is still
released from rest. The output path is dropped: callers pass their own.

The synthetic trajectory for ``trajectory_io`` composes seeded step
variables [Phi; Psi] into unit dual quaternion poses with a numpy product
of the benchmark's own, so the program receives only arrays.
"""

import os

import numpy as np
import yaml

WORKLOADS = ("free_top_long", "forced_coupled", "cli_batch", "trajectory_io")
SCENARIOS = (
    "free_top",
    "generic_forced",
    "damped_drop",
    "spring_pendulum",
    "offset_reference",
    "pure_translation",
)
TWIST_JITTER = 0.01
SYNTHETIC_H = 1e-3

# Work per sub-run; every timing metric is a median over sub-runs. "tiny"
# keeps the self-tests fast.
SIZES = {
    "full": {"free_steps": 2000, "forced_steps": 400, "io_states": 4000, "cli_steps": 250,
             "replay_inputs": 200, "rk4_steps": 100, "trace_pairs": 2, "cli_probes": 3},
    "tiny": {"free_steps": 40, "forced_steps": 20, "io_states": 50, "cli_steps": 10,
             "replay_inputs": 10, "rk4_steps": 5, "trace_pairs": 1, "cli_probes": 1},
}


def write_configs(scenario_dir: str, out_dir: str, seed: int) -> dict:
    """Write one perturbed copy of every shipped scenario; returns name -> path."""
    rng = np.random.default_rng([seed, 1])
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name in SCENARIOS:
        with open(os.path.join(scenario_dir, name + ".yaml"), encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        initial = doc.setdefault("initial", {})
        twist = np.asarray(initial.get("body_twist", [0.0] * 6), dtype=np.float64)
        twist = twist * (1.0 + TWIST_JITTER * rng.uniform(-1.0, 1.0, size=6))
        initial["body_twist"] = [float(x) for x in twist]
        doc.get("output", {}).pop("path", None)
        path = os.path.join(out_dir, name + ".yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)
        paths[name] = path
    return paths


def _quat_mul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def _dq_mul(p, q):
    real = _quat_mul(p[:4], q[:4])
    dual = _quat_mul(p[:4], q[4:]) + _quat_mul(p[4:], q[:4])
    return np.concatenate([real, dual])


def _step_dq(f):
    phi, psi = f[:3], f[3:]
    gamma = np.sqrt(1.0 - phi @ phi)
    return np.concatenate([[gamma], phi, [-(psi @ phi) / gamma], psi])


def synthetic_trajectory(n_states: int, seed: int) -> dict:
    """Seeded columns of a smooth tumbling, drifting body: states 0..n-1.

    Twists are smooth seeded signals; step k is (h/2) times twist k, and
    pose k+1 is pose k times the step's unit dual quaternion, so every pose
    is on the unit group up to roundoff.
    """
    rng = np.random.default_rng([seed, 2])
    h = SYNTHETIC_H
    times = np.arange(n_states) * h
    base = rng.uniform(-1.5, 1.5, size=6)
    amp = rng.uniform(0.1, 0.5, size=6)
    freq = rng.uniform(0.5, 3.0, size=6)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=6)
    twists = base + amp * np.sin(freq * times[:, None] + phase)
    steps = 0.5 * h * twists
    poses = np.empty((n_states, 8))
    poses[0] = _dq_mul(_step_dq(rng.uniform(-0.5, 0.5, size=6)), np.eye(8)[0])
    for k in range(1, n_states):
        poses[k] = _dq_mul(poses[k - 1], _step_dq(steps[k - 1]))
    return {
        "times": times,
        "poses": poses,
        "twists": twists,
        "steps": steps,
        "iterations": np.ones(n_states, dtype=np.int64),
        "residual_norms": rng.uniform(0.0, 1e-13, size=n_states),
    }
