"""Golden state hashes: the sha256 of state columns for the shipped
scenarios at a small step and large ones.

``GOLDEN`` holds ``simulate``'s poses, steps and iterations, in that order,
for the five scenarios whose poses never read M^-1, at h = 1e-3, 0.05 and
0.1. Each of these runs is repeated with every entry of M^-1 moved by one
ulp, which must give the same hash. What reads M^-1 is pinned at h = 1e-3
and 0.05 in tables of its own, with no one-ulp-up run: ``simulate``'s
twists, ``rk4_simulate``'s poses and twists, and damped_drop's poses, steps
and iterations, since its damping reads the predicted twist
(2/h) M^-1 (...) in the loop. M^-1 is ``linsolve.solve_rows`` on the unit
vectors, plain float arithmetic like the loops, so these hashes do not
depend on a LAPACK build. Only pose, twist, step and solver columns are
hashed. The ``from_raw`` diagnostics are left out: energies and constraint
errors reduce with ``np.einsum``, whose summation order is numpy's own and
may differ between numpy builds.

A change that moves a state by one bit fails here; a change that does so
on purpose (a new predictor, another discrete Lagrangian) updates the
hashes and reports its largest difference. 1000 steps reach
pure_translation's two refused updates at h = 0.05 (steps 538 and 931)
and at h = 0.1 (steps 135 and 230), and the sign change of its Jacobian
determinant (state 492 at h = 0.05). At h = 0.1 most steps of the other
scenarios take two or three updates.

Every scenario is also pinned as ``dqdyn run`` writes it: the sha256 of
the TSV file of a ``python -m dqdyn.cli`` process, with the pose, twist and
solver columns only (t, pose, twist, Newton iterations, residual norm),
each written with ``%.17g``.
"""

import hashlib
import pathlib
from dataclasses import replace

import numpy as np
import pytest
import yaml

from dqdyn.dynamics import InertiaMatrix6
from dqdyn.integrator import simulate
from dqdyn.newton_euler import rk4_simulate
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


# what reads M^-1, by scenario and step size
GOLDEN_TWISTS = {
    ("damped_drop", 0.001): "d266aa0993895b3ebff119de5fc6ce34ade1bb4c9fd31138a24ffc8b114058b4",
    ("damped_drop", 0.05): "c7f39f1c88018d20875f6fadf6cb6ed77516ac3d23f2497479b52e856502fe4a",
    ("free_top", 0.001): "1351976098b228441168f2b8aa51b03adf7eab7d1ef85b282d07ba2ee4aca987",
    ("free_top", 0.05): "14fa9ab5e0cb26cecd771470c4710c7799d378b46166c8ee817f4a50a454ed22",
    ("generic_forced", 0.001): "91f18100020287aa29b2b5a8fcaa15c33343c73e3884fe908b6c868f2584250f",
    ("generic_forced", 0.05): "0f7bb89529217dd984ee429931ce25edcf97315acf4fc1ca0d6bb005987ec11e",
    ("offset_reference", 0.001): "81965942710e19dbafb16c03e4d26bb1aaafb46925150314485bd185acc52ed3",
    ("offset_reference", 0.05): "dd5116d5667d148312fb9a0da29b34b11ce521a6ee008801265806e57b3825a7",
    ("pure_translation", 0.001): "588701cf085bf25ac0ccaab406a7b80006aad332e4592dd243c61416ceb6d810",
    ("pure_translation", 0.05): "3b034770f604096f6272f7f7e69f8bfd2a7c09a26312a60b1fbcc531c063849f",
    ("spring_pendulum", 0.001): "85f2f8310597e1dfa95cae0bfdce6d36dc562ab4abf8b746902c895e9a469c7b",
    ("spring_pendulum", 0.05): "082d383dcb4c64d92b30430a1fa3c1420e3a99e40d222d391a88fa6f63ff2e24",
}
GOLDEN_RK4 = {
    ("damped_drop", 0.001): "4b65c1dbb82332192d4976c8c38b32517d0f9c907c70e3db16c5e5e7ee606174",
    ("damped_drop", 0.05): "25e60e15a8a3919ea27e6e2f123d8375e71891c66ee677036348fdfc4526fcbd",
    ("free_top", 0.001): "eae8fcc698564db3cd6d0aef21b69cea4672c040413cac07b838054cd85b33c9",
    ("free_top", 0.05): "4ccb580ccdda07768229a73809489289b38850929a43940febdb26367d524523",
    ("generic_forced", 0.001): "1f5fa1af32623750fe98379fda96d5de311d80f0c217018087d717acb6ad2e3a",
    ("generic_forced", 0.05): "698c3936e77ce673434d8e206ad9edc5575e11e837537fd16c9399481b1c309a",
    ("offset_reference", 0.001): "e4ceab5d485c0211e8b397d7140f23ea5be797c0e95f50bb8aefedc73084c36c",
    ("offset_reference", 0.05): "a1cda8ac7a1478daa16b47c0bd34a9574899b835fe1b0e370351b3e30bbb74ad",
    ("pure_translation", 0.001): "8e1b319f099740990a6e7880c05a78bea9aac9195aeeb53f52abc383b8d39210",
    ("pure_translation", 0.05): "28ce29f8137482c70408b48f837d322cd24a0120c922a5371524906969568ca6",
    ("spring_pendulum", 0.001): "25d32a7aee31b66a763947036bee0b586208681d20de3561132f812ba3f8dbdb",
    ("spring_pendulum", 0.05): "b6e5dac44731a4a88df6255fb4f175d8f406892fe3e910c513f0e8f3fe645037",
}
GOLDEN_DAMPED_DROP = {
    0.001: "1e7dd456ec09116136765f9739405e5c83f46766af5c7a4133299c9c83d206bd",
    0.05: "55e927d9780f7e39c75db9da43c37c5f239a58a2a86fb1483d1b588d3fef6dc3",
}


def _run(integrate, name, h, inertia=None):
    inputs = load_run(SCENARIO_DIR / f"{name}.yaml")[1]
    M = inputs.inertia if inertia is None else inertia
    return integrate(inputs.pose, inputs.twist, M, inputs.forces, replace(inputs.settings, h=h), N_STEPS)


def _sha256(traj, columns) -> str:
    digest = hashlib.sha256()
    for column in columns:
        digest.update(np.ascontiguousarray(getattr(traj, column)).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name, h", sorted(GOLDEN))
def test_states_match_their_golden_hash(name, h):
    M = load_run(SCENARIO_DIR / f"{name}.yaml")[1].inertia
    shifted = InertiaMatrix6(matrix=M.matrix, inverse=np.nextafter(M.inverse, np.inf))
    for inertia in (M, shifted):
        assert _sha256(_run(simulate, name, h, inertia), COLUMNS) == GOLDEN[name, h]


@pytest.mark.parametrize("name, h", sorted(GOLDEN_TWISTS))
def test_twists_match_their_golden_hash(name, h):
    assert _sha256(_run(simulate, name, h), ("twists",)) == GOLDEN_TWISTS[name, h]


@pytest.mark.parametrize("name, h", sorted(GOLDEN_RK4))
def test_rk4_states_match_their_golden_hash(name, h):
    assert _sha256(_run(rk4_simulate, name, h), ("poses", "twists")) == GOLDEN_RK4[name, h]


@pytest.mark.parametrize("h", sorted(GOLDEN_DAMPED_DROP))
def test_damped_drop_states_match_their_golden_hash(h):
    assert _sha256(_run(simulate, "damped_drop", h), COLUMNS) == GOLDEN_DAMPED_DROP[h]


CLI_STEPS = 250
GOLDEN_TSV = {
    "damped_drop": "d84c1a6581e2bae4e63ae6736cd466871a075133a647150374967abf8ea1d6e5",
    "free_top": "3473a64e807fe4fd1fb2b2fa1d4fa19b1eead215e1f1c6521e5adad664c5d6e7",
    "generic_forced": "10fa6e453ade4d6f8ea105cd6fed28a19a274a51309e8026a9ae5f0ea1f1c01d",
    "offset_reference": "8388e9112d883869935001de323f88dc3004b12ffc2ec1db6fc5d7f1b9e8509d",
    "pure_translation": "e8479e1fc44f4f043482371812f8e8875738f087037cc8540d986599993a4048",
    "spring_pendulum": "45a5f14d9c0827e3fce652f9006528d8acc111991ffaef1ddc1baa8b48616ea9",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TSV))
def test_cli_trajectory_file_matches_its_golden_hash(name, tmp_path):
    config = yaml.safe_load((SCENARIO_DIR / f"{name}.yaml").read_text())
    config["output"] = {"fields": ["pose", "twist", "solver"]}
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(config))
    out = tmp_path / f"{name}.tsv"
    argv = ["run", "--config", str(path), "--output", str(out), "--steps", str(CLI_STEPS), "--stride", "1"]
    assert dqdyn_process(argv, tmp_path).returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_TSV[name]
