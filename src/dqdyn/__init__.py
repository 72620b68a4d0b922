"""dqdyn: rigid-body dynamics on unit dual quaternions.

The package splits into thin layers. quat holds the raw dual quaternion
algebra, kinematics builds poses, twists, and wrenches on top of it,
dynamics adds inertia and force models, integrator implements the
momentum-conserving one-step scheme, newton_euler provides an
independent Runge-Kutta cross-check, trajectory records and compares
runs, and scenario/cli wire YAML configs to the command line.

``import dqdyn`` loads none of these layers. Each public name below is
resolved on first use (``dqdyn.simulate``, ``from dqdyn import simulate``)
by importing the module that defines it, so a program pays only for the
layers it touches: ``dqdyn compare`` never loads the scenario grammar,
PyYAML or the integrator.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "dynamics": (
        "ForceModel",
        "InertiaMatrix6",
        "PotentialField",
        "build_inertia",
        "build_inertia_raw",
        "constant_wrench_model",
        "damping_model",
        "force_model_from_potential",
        "gravity_potential",
        "kinetic_energy",
        "momentum",
        "numeric_conservative_wrench",
        "potential_energy",
        "skew",
        "spring_potential",
        "total_wrench",
        "world_momentum",
    ),
    "errors": (
        "ConfigError",
        "DqdynError",
        "SingularMatrixError",
        "SolverDivergenceError",
        "StepTooLargeError",
        "ValidationError",
    ),
    "integrator": (
        "SolverSettings",
        "initial_guess",
        "jacobian",
        "residual",
        "retrieve_twist",
        "rhs",
        "simulate",
        "solve_step",
        "step_to_dual_quaternion",
    ),
    "kinematics": (
        "FRAME_BODY",
        "FRAME_WORLD",
        "ScrewParameters",
        "Wrench",
        "body_wrench",
        "check_pose",
        "dual_force_to_body_wrench",
        "pose_constraint_errors",
        "pose_difference_magnitude",
        "pose_from_rotation_translation",
        "pose_identity",
        "pose_rate_from_body_twist",
        "pose_to_rotation_translation",
        "rotate_vector",
        "screw_compose",
        "transform_point",
        "twist",
        "twist_world_from_body",
        "world_wrench",
        "wrench_body_from_world",
        "wrench_to_dual_force",
    ),
    "newton_euler": ("rk4_simulate",),
    "quat": (
        "dq_dual_transpose",
        "dq_exp",
        "dq_mul",
        "dq_quat_conjugate",
        "pure_dual_quaternion",
        "quat_conjugate",
        "quat_mul",
        "quaternion",
        "unit_quaternion",
    ),
    "scenario": (
        "INTEGRATOR_RK4",
        "INTEGRATOR_VARIATIONAL",
        "ScenarioConfig",
        "build_force_models",
        "build_run",
        "config_inertia",
        "load_config",
        "load_run",
        "parse_config",
        "serialize_config",
    ),
    "trajectory": (
        "FIELD_GROUPS",
        "Trajectory",
        "compare_trajectories",
        "read_trajectory",
        "summarize",
        "write_trajectory",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
