"""dqdyn: rigid-body dynamics on unit dual quaternions.

The package splits into thin layers. quat holds the raw dual quaternion
algebra, kinematics builds poses, twists, and wrenches on top of it,
dynamics adds inertia and force models, integrator implements the
momentum-conserving one-step scheme, newton_euler provides an
independent Runge-Kutta cross-check, trajectory records and compares
runs, and scenario/cli wire YAML configs to the command line.
"""

from .dynamics import (
    ForceModel,
    InertiaMatrix6,
    PotentialField,
    build_inertia,
    build_inertia_raw,
    constant_wrench_model,
    damping_model,
    force_model_from_potential,
    gravity_potential,
    kinetic_energy,
    momentum,
    numeric_conservative_wrench,
    potential_energy,
    skew,
    spring_potential,
    total_wrench,
    world_momentum,
)
from .errors import (
    ConfigError,
    DqdynError,
    SingularMatrixError,
    SolverDivergenceError,
    StepTooLargeError,
    ValidationError,
)
from .integrator import (
    SolverSettings,
    initial_guess,
    jacobian,
    residual,
    retrieve_twist,
    rhs,
    simulate,
    solve_step,
    step_to_dual_quaternion,
)
from .kinematics import (
    FRAME_BODY,
    FRAME_WORLD,
    ScrewParameters,
    Wrench,
    body_wrench,
    check_pose,
    dual_force_to_body_wrench,
    pose_constraint_errors,
    pose_difference_magnitude,
    pose_from_rotation_translation,
    pose_identity,
    pose_rate_from_body_twist,
    pose_to_rotation_translation,
    rotate_vector,
    screw_compose,
    transform_point,
    twist,
    twist_world_from_body,
    world_wrench,
    wrench_body_from_world,
    wrench_to_dual_force,
)
from .newton_euler import rk4_simulate
from .quat import (
    dq_dual_transpose,
    dq_exp,
    dq_mul,
    dq_quat_conjugate,
    pure_dual_quaternion,
    quat_conjugate,
    quat_mul,
    quaternion,
    unit_quaternion,
)
from .scenario import (
    INTEGRATOR_RK4,
    INTEGRATOR_VARIATIONAL,
    ScenarioConfig,
    build_force_models,
    build_run,
    config_inertia,
    load_config,
    load_run,
    parse_config,
    serialize_config,
)
from .trajectory import (
    FIELD_GROUPS,
    Trajectory,
    compare_trajectories,
    read_trajectory,
    summarize,
    write_trajectory,
)

__version__ = "0.1.0"
