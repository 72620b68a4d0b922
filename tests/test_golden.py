"""Golden state hashes: the sha256 of ``simulate``'s poses, steps and
iterations, in that order, for the shipped scenarios at a small step and
two large ones.

Only columns that are pure Python float arithmetic on the scenario's
inputs are hashed. Whatever reads M^-1 is left out, since
``np.linalg.inv`` may round differently with another LAPACK build or CPU
kernel: the twists, ``rk4_simulate``, and damped_drop, whose damping reads
the predicted twist (2/h) M^-1 (...) in the loop. Each run is repeated with
every entry of M^-1 moved by one ulp, which must give the same hash. The
``from_raw`` diagnostics are left out too: ``kinetic_energy`` sums with
``np.einsum``, whose reduction order may differ between numpy builds.

A change that moves a state by one bit fails here; a change that does so
on purpose (a new predictor, another discrete Lagrangian) updates the
hashes and reports its largest difference. 1000 steps reach
pure_translation's two refused updates at h = 0.05 (steps 538 and 931)
and at h = 0.1 (steps 135 and 230), and the sign change of its Jacobian
determinant (state 492 at h = 0.05). At h = 0.1 most steps of the other
scenarios take two or three updates.

The same five scenarios are also pinned as ``dqdyn run`` writes them: the
sha256 of the TSV file of a ``python -m dqdyn.cli`` process, with the pose
and solver columns only (t, pose, Newton iterations, residual norm), each
written with ``%.17g``.
"""

import hashlib
import pathlib
from dataclasses import replace

import numpy as np
import pytest
import yaml

from dqdyn.dynamics import InertiaMatrix6
from dqdyn.integrator import simulate
from dqdyn.scenario import load_run
from test_cli import dqdyn_process

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
N_STEPS = 1000
COLUMNS = ("poses", "steps", "iterations")
GOLDEN = {
    ("free_top", 0.001): "e130218d7b1e3888f715f6de6af5904977f4649886b77a0b78b303dca943e42f",
    ("free_top", 0.05): "9b222dcf8309f5297931ea9940310c3a83b3487578cd91f7b6a59a1c33710b3b",
    ("free_top", 0.1): "9c82461715ffcfcef31d8c95e97f9faec73260fb8652e4f642d5bbfcf7881418",
    ("generic_forced", 0.001): "3fba5e052aecb13c29c8eab24b33ab3c6aa80bf43e4f7e7694089f3a1ea033fd",
    ("generic_forced", 0.05): "c573e1c2f69366e9ad90dfc8f5ba4963544f713048b4ddd8814c32f2d59c4c55",
    ("generic_forced", 0.1): "e01692ec508d788165489e57969d9dc2e184254bd73f7b2e83057f23267d13c1",
    ("offset_reference", 0.001): "c68aee4b5dd371bd5baf24f651cc8e4ef5ab3beaa992b9028955d52baa4af748",
    ("offset_reference", 0.05): "35d7ed64da7724b9369e23121c824c6a4540f76dce4a1bbc0d1be38ddf32af6f",
    ("offset_reference", 0.1): "345f8ce06aebdb38cda1ba764158d857ee0357fc1b89af26a578ece44dec892c",
    ("pure_translation", 0.001): "b7ae903a1da8480e91206d12f7003ce10414c9cfba50dbe0b6171289dd51656d",
    ("pure_translation", 0.05): "57398177ebf55e0f9e7d1c3a6201818b1a62af24ed76bca0657084f2886c2eb0",
    ("pure_translation", 0.1): "35d1b29b13db47cea6295ee0e5127ce23c608d0012b7909ad7c6ff74a0dd1372",
    ("spring_pendulum", 0.001): "e3f8602db9fa0acd0b3dec0140c90c52a74d8e1f53998118ce00528075e5fc5a",
    ("spring_pendulum", 0.05): "61cb34c23c900ee791ee1539b7a749b08d1e38d2c79a4069889d27a3bd781b85",
    ("spring_pendulum", 0.1): "2be6fa3f21f7049ccb3f4f4f3d2b9330586e9f37c0333ab73b21e66865d111cc",
}


@pytest.mark.parametrize("name, h", sorted(GOLDEN))
def test_states_match_their_golden_hash(name, h):
    inputs = load_run(SCENARIO_DIR / f"{name}.yaml")[1]
    M = inputs.inertia
    shifted = InertiaMatrix6(matrix=M.matrix, inverse=np.nextafter(M.inverse, np.inf))
    for inertia in (M, shifted):
        traj = simulate(inputs.pose, inputs.twist, inertia, inputs.forces, replace(inputs.settings, h=h), N_STEPS)
        digest = hashlib.sha256()
        for column in COLUMNS:
            digest.update(np.ascontiguousarray(getattr(traj, column)).tobytes())
        assert digest.hexdigest() == GOLDEN[name, h]


CLI_STEPS = 250
GOLDEN_TSV = {
    "free_top": "bd17fc884717095fb0640a6808b0aaabfe790a5d27f9f91e32d2edbef67e7be8",
    "generic_forced": "bed0e34b87b7d5d049f45d9c1c2bf730738661be69ec3095ba48cd53011028b3",
    "offset_reference": "7a20611e2e7738bf8b3573f95607558462e15cefd0df0b177a49036d831a2fb0",
    "pure_translation": "4bed4411025819f5f6bbf243f870c9c78883f2cb4213eeec4ab21bb00845ec12",
    "spring_pendulum": "acfd93578727c9d150bdd78bb6cca8e0d6f767b1ada2e92c60327ce2fb3a46e6",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TSV))
def test_cli_trajectory_file_matches_its_golden_hash(name, tmp_path):
    config = yaml.safe_load((SCENARIO_DIR / f"{name}.yaml").read_text())
    config["output"] = {"fields": ["pose", "solver"]}
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(config))
    out = tmp_path / f"{name}.tsv"
    argv = ["run", "--config", str(path), "--output", str(out), "--steps", str(CLI_STEPS), "--stride", "1"]
    assert dqdyn_process(argv, tmp_path).returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_TSV[name]
