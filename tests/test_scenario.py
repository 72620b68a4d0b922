"""Scenario config grammar: parsing, validation, round trips."""

import dataclasses
import pathlib

import numpy as np
import pytest

from dqdyn.dynamics import gravity_potential, total_wrench
from dqdyn.errors import ConfigError
from dqdyn.integrator import simulate
from dqdyn.kinematics import (
    ScrewParameters,
    pose_to_rotation_translation,
    screw_compose,
)
from dqdyn.scenario import (
    _KEYS,
    ScenarioConfig,
    build_force_models,
    build_run,
    config_inertia,
    load_config,
    load_run,
    parse_config,
    serialize_config,
)

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
body:
  mass: 1.0
  inertia: [1.0, 2.0, 3.0]
"""

FULL = """
body:
  mass: 2.5
  inertia: [[1.0, 0.1, 0.0], [0.1, 2.0, 0.0], [0.0, 0.0, 3.0]]
  reference_offset: [0.1, -0.2, 0.3]
initial:
  orientation: [0.8775825618903728, 0.479425538604203, 0.0, 0.0]
  translation: [1.0, 2.0, 3.0]
  body_twist: [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
forces:
  - type: gravity
    acceleration: [0.0, 0.0, -9.81]
  - type: spring
    stiffness: 12.0
    anchor_world: [0.0, 0.0, 2.0]
    attachment_body: [0.5, 0.0, 0.0]
    rest_length: 0.25
  - type: constant_wrench
    torque: [0.0, 0.0, 0.1]
    force: [1.0, 0.0, 0.0]
    frame: world
  - type: linear_damping
    angular: 0.05
    linear: [0.01, 0.02, 0.03]
run:
  h: 2.0e-3
  steps: 500
  integrator: rk4
  tolerance: 1.0e-11
  max_iterations: 12
output:
  path: out.tsv
  stride: 5
  fields: [pose, twist, energy]
"""

# the other spellings: a screw pose, momentum, a world-frame wrench and
# per-axis damping
SPELLINGS = """
body:
  mass: 2.0
  inertia: [1.0, 2.0, 3.0]
initial:
  screw: {axis: [0.0, 0.0, 1.0], angle: 0.3, slide: 0.3}
  momentum: [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
forces:
  - type: constant_wrench
    torque: [0.0, 0.0, 0.1]
    frame: world
  - type: linear_damping
    angular: [0.01, 0.02, 0.03]
    linear: 0.05
"""

# 1.8e-7 off unit norm: dividing the normalized quaternion by its own norm
# again would move its last bits
NEAR_UNIT = """
body: {mass: 1.0, inertia: [1.0, 2.0, 3.0]}
initial: {orientation: [0.6, 0.8, 0.0, 6.0e-4]}
"""


def test_minimal_config_fills_defaults():
    config = parse_config(MINIMAL)
    assert config.mass == 1.0
    assert config.inertia == ((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0))
    assert config.reference_offset == (0.0, 0.0, 0.0)
    assert config.orientation == (1.0, 0.0, 0.0, 0.0)
    assert config.translation == (0.0, 0.0, 0.0)
    assert config.body_twist == (0.0,) * 6
    assert config.forces == ()
    assert config.h == 1e-3
    assert config.steps == 1000
    assert config.integrator == "dqvi"
    assert config.tolerance == 1e-12
    assert config.max_iterations == 20
    assert config.output_path is None
    assert config.stride == 1
    assert config.fields is None


def test_full_config_parses():
    config = parse_config(FULL)
    assert config.mass == 2.5
    assert config.integrator == "rk4"
    assert config.steps == 500
    assert len(config.forces) == 4
    assert config.forces[2].get("frame") == "world"
    assert config.forces[3].get("angular") == (0.05,) * 3
    assert config.fields == ("pose", "twist", "energy")


def test_round_trip_is_identity():
    for text in (MINIMAL, FULL, SPELLINGS, NEAR_UNIT):
        config = parse_config(text)
        again = parse_config(serialize_config(config))
        assert again == config


def test_round_trip_raw_inertia():
    config = parse_config(
        """
body:
  mass: 2.0
  inertia_raw:
    - [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    - [0.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    - [0.0, 0.0, 3.0, 0.0, 0.0, 0.0]
    - [0.0, 0.0, 0.0, 2.0, 0.0, 0.0]
    - [0.0, 0.0, 0.0, 0.0, 2.0, 0.0]
    - [0.0, 0.0, 0.0, 0.0, 0.0, 2.0]
"""
    )
    assert config.inertia is None
    assert config_inertia(config).matrix[1, 1] == 2.0
    assert parse_config(serialize_config(config)) == config


def test_both_inertia_forms_rejected():
    with pytest.raises(ConfigError, match="inertia"):
        parse_config(
            """
body:
  mass: 1.0
  inertia: [1.0, 1.0, 1.0]
  inertia_raw:
    - [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    - [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    - [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    - [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    - [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    - [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
"""
        )


def test_offset_with_raw_inertia_rejected():
    with pytest.raises(ConfigError, match="reference_offset"):
        parse_config(
            """
body:
  mass: 1.0
  reference_offset: [1.0, 0.0, 0.0]
  inertia_raw:
    - [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    - [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    - [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    - [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    - [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    - [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
"""
        )


def test_diagonal_shorthand_matches_full_matrix():
    a = parse_config("body: {mass: 1.0, inertia: [1.0, 2.0, 3.0]}")
    b = parse_config(
        "body: {mass: 1.0, inertia: [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]}"
    )
    assert a == b


def test_momentum_converted_to_twist():
    config = parse_config(
        """
body:
  mass: 2.0
  inertia: [1.0, 2.0, 3.0]
initial:
  momentum: [1.0, 4.0, 9.0, 2.0, 4.0, 6.0]
"""
    )
    np.testing.assert_allclose(config.body_twist, [1.0, 2.0, 3.0, 1.0, 2.0, 3.0], atol=1e-14)


def test_momentum_and_twist_both_rejected():
    with pytest.raises(ConfigError, match="momentum"):
        parse_config(
            """
body: {mass: 1.0, inertia: [1.0, 1.0, 1.0]}
initial:
  body_twist: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
  momentum: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
"""
        )


def test_screw_initial_pose():
    config = parse_config(
        """
body: {mass: 1.0, inertia: [1.0, 1.0, 1.0]}
initial:
  screw:
    axis: [0.0, 0.0, 1.0]
    angle: 1.5707963267948966
    slide: 0.3
"""
    )
    expected = screw_compose(
        ScrewParameters(
            axis=np.array([0.0, 0.0, 1.0]),
            moment=np.zeros(3),
            angle=np.pi / 2,
            slide=0.3,
        )
    )
    q, l = pose_to_rotation_translation(expected)
    np.testing.assert_allclose(config.orientation, q, atol=1e-15)
    np.testing.assert_allclose(config.translation, l, atol=1e-15)


def test_screw_exclusive_with_pose():
    with pytest.raises(ConfigError, match="screw"):
        parse_config(
            """
body: {mass: 1.0, inertia: [1.0, 1.0, 1.0]}
initial:
  translation: [1.0, 0.0, 0.0]
  screw: {axis: [0.0, 0.0, 1.0], angle: 0.5}
"""
        )


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("body: {mass: 1.0, inertia: [1, 2, 3]}\nextra: 1", "unknown"),
        ("body: {mass: 1.0, inertia: [1, 2, 3], color: red}", "unknown"),
        (
            "body: {mass: 1.0, inertia: [1, 2, 3]}\ninitial: {spin: [1, 0, 0]}",
            "unknown",
        ),
        (
            "body: {mass: 1.0, inertia: [1, 2, 3]}\nrun: {dt: 0.1}",
            "unknown",
        ),
        (
            "body: {mass: 1.0, inertia: [1, 2, 3]}\noutput: {file: x.tsv}",
            "unknown",
        ),
        (
            "body: {mass: 1.0, inertia: [1, 2, 3]}\n"
            "forces: [{type: gravity, acceleration: [0, 0, -1], frame: body}]",
            "unknown",
        ),
        ("body: {inertia: [1, 2, 3]}", "mass"),
        ("body: {mass: 1.0}", "inertia"),
        ("body: {mass: -1.0, inertia: [1, 2, 3]}", "mass"),
        ("body: {mass: 1.0, inertia: [-1, 2, 3]}", "definite"),
        (
            "body: {mass: 1.0, inertia: [[1, 0.5, 0], [0, 2, 0], [0, 0, 3]]}",
            "symmetric",
        ),
        ("body: {mass: 1.0, inertia: [1, 2, 3]}\nrun: {steps: -5}", "steps"),
        ("body: {mass: 1.0, inertia: [1, 2, 3]}\nrun: {h: 0.0}", "h"),
        ("body: {mass: 1.0, inertia: [1, 2, 3]}\nrun: {integrator: euler}", "integrator"),
        ("body: {mass: 1.0, inertia: [1, 2, 3]}\nrun: {tolerance: -1.0e-12}", "tolerance"),
        ("body: {mass: 1.0, inertia: [1, 2, 3]}\nrun: {max_iterations: 0}", "max_iterations"),
        ("body: {mass: 1.0, inertia: [1, 2, 3]}\noutput: {stride: 0}", "stride"),
        ("body: {mass: 1.0, inertia: [1, 2, 3]}\noutput: {fields: [pose, junk]}", "junk"),
        (
            "body: {mass: 1.0, inertia: [1, 2, 3]}\n"
            "initial: {orientation: [1.0, 1.0, 0.0, 0.0]}",
            "norm",
        ),
        (
            "body: {mass: 1.0, inertia: [1, 2, 3]}\n"
            "forces: [{type: vortex}]",
            "type",
        ),
        (
            "body: {mass: 1.0, inertia: [1, 2, 3]}\n"
            "forces: [{type: spring, stiffness: 1.0}]",
            "anchor",
        ),
        (
            "body: {mass: 1.0, inertia: [1, 2, 3]}\n"
            "forces: [{type: linear_damping, angular: -0.1}]",
            "non-negative",
        ),
        (
            "body: {mass: 1.0, inertia: [1, 2, 3]}\n"
            "forces: [{type: linear_damping, angular: .nan}]",
            "forces[0].angular",
        ),
        (
            "body: {mass: 1.0, inertia: [1, 2, 3]}\n"
            "forces: [{type: constant_wrench, frame: inertial}]",
            "frame",
        ),
        ("[1, 2, 3]", "mapping"),
        ("", "empty"),
        ("body: {mass: 1.0, inertia: [1, 2, 3]}\ninitial: {body_twist: [1, 2]}", "6"),
        (
            "body: {mass: 1.0, inertia: [1, 2, 3]}\n"
            "forces: [{type: spring, stiffness: .nan, anchor_world: [0, 0, 1], attachment_body: [0, 0, 0]}]",
            "forces[0].stiffness: must be finite",
        ),
        ("body: {mass: 1.0, inertia: [1, [2, 3], 4]}", "body.inertia"),
        ("body: {mass: 1.0, inertia: abc}", "body.inertia"),
        pytest.param(
            "body: {mass: 1" + "0" * 400 + ", inertia: [1, 2, 3]}", "body.mass", id="mass-overflows-float"
        ),
        pytest.param(
            "body: {mass: 1.0, inertia: [1, 2, 3]}\n"
            "initial: {translation: [1" + "0" * 400 + ", 0, 0]}",
            "initial.translation",
            id="translation-overflows-float",
        ),
        ("body: {mass: 1.0, inertia: [1, 2, 3]}\noutput: {fields: [[pose]]}", "output.fields"),
        ("body: {mass: 1.0, inertia: [1, 2, 3], 1: 2, color: red}", "color"),
        ("body: {mass: 1.0, inertia: [1, 2, 3]}\n1: 2\nfoo: 3", "foo"),
    ],
)
def test_rejections_are_actionable(text, fragment):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert fragment in str(excinfo.value)


def test_first_step_half_turn_bound_names_the_constraint():
    text = """
body: {mass: 1.0, inertia: [1, 2, 3]}
initial: {body_twist: [4000.0, 0.0, 0.0, 0.0, 0.0, 0.0]}
"""
    with pytest.raises(ConfigError, match="180 degrees"):
        parse_config(text)
    # same rate with a small enough step is fine
    parse_config(text + "run: {h: 1.0e-5}")


def test_gravity_model_uses_body_mass_and_offset():
    config = parse_config(
        """
body:
  mass: 2.0
  inertia: [1.0, 2.0, 3.0]
  reference_offset: [0.1, 0.0, -0.2]
forces:
  - type: gravity
    acceleration: [0.0, 0.0, -9.81]
"""
    )
    models = build_force_models(config)
    rng = np.random.default_rng(7)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    pose = np.concatenate([q, np.zeros(4)])
    direct = gravity_potential(2.0, [0.0, 0.0, -9.81], (0.1, 0.0, -0.2))
    got = total_wrench(models, pose, np.zeros(6), 0.0)
    want = direct.body_wrench(pose)
    np.testing.assert_allclose(got[:3], want.torque, atol=1e-15)
    np.testing.assert_allclose(got[3:], want.force, atol=1e-15)


def test_build_run_smoke():
    inputs = build_run(parse_config(FULL))
    assert inputs.integrator == "rk4"
    assert inputs.n_steps == 500
    assert inputs.settings.h == 2e-3
    assert len(inputs.forces) == 4
    # the dqvi flavor of the same config integrates
    config = parse_config(MINIMAL)
    inputs = build_run(config)
    traj = simulate(
        inputs.pose,
        inputs.twist,
        inputs.inertia,
        inputs.forces,
        inputs.settings,
        5,
    )
    assert traj.n_states == 6


def test_every_config_field_has_one_key():
    # a field that no key names would be neither parsed nor serialized
    named = [field for keys in _KEYS.values() for field, _ in keys.values() if field is not None]
    fields = [f.name for f in dataclasses.fields(ScenarioConfig) if f.name != "forces"]
    assert sorted(named) == sorted(fields)


def test_direct_dataclass_is_usable():
    config = ScenarioConfig(mass=1.0, inertia=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    assert parse_config(serialize_config(config)) == config


@pytest.mark.parametrize(
    "path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem
)
def test_shipped_scenarios_parse_and_build(path):
    # every config in scenarios/ must stay loadable end to end; load_run
    # hands back the run parsing built, equal to a fresh build_run
    config, inputs = load_run(path)
    assert config == load_config(path)
    rebuilt = build_run(config)
    np.testing.assert_array_equal(inputs.pose, rebuilt.pose)
    np.testing.assert_array_equal(inputs.twist, rebuilt.twist)
    np.testing.assert_array_equal(inputs.inertia.matrix, rebuilt.inertia.matrix)
    assert len(inputs.forces) == len(rebuilt.forces) == len(config.forces)
    assert (inputs.settings, inputs.n_steps, inputs.integrator) == (rebuilt.settings, rebuilt.n_steps, rebuilt.integrator)
    assert inputs.n_steps >= 1
    assert inputs.settings.h > 0.0
    # round trip through the serializer as well
    assert parse_config(serialize_config(config)) == config
