"""Scenario configs: a YAML grammar for single-body simulation runs.

A config is a mapping with up to four sections. ``body`` is required; the
rest have usable defaults::

    body:
      mass: 1.0
      inertia: [1.0, 2.0, 3.0]        # diagonal, or a full 3x3 nested list
      reference_offset: [0.0, 0.0, 0.0]
    initial:
      orientation: [1.0, 0.0, 0.0, 0.0]
      translation: [0.0, 0.0, 0.0]
      body_twist: [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    forces:
      - type: gravity
        acceleration: [0.0, 0.0, -9.81]
    run:
      h: 1.0e-3
      steps: 1000
      integrator: dqvi
      tolerance: 1.0e-12
      max_iterations: 20
    output:
      path: trajectory.tsv
      stride: 1
      fields: [pose, twist, energy, momentum, solver, constraints]

All quantities are SI; angular components precede linear ones in twists,
momenta, and wrenches; quaternions are scalar-first (w, x, y, z).

Alternative spellings, each exclusive with its counterpart:

- ``body.inertia_raw``: a full 6x6 inertia (rows), instead of ``inertia`` +
  ``reference_offset``, for matrices not expressible in the offset form.
- ``initial.screw``: ``{axis, angle, moment, slide}`` composing the initial
  pose instead of ``orientation`` + ``translation``.
- ``initial.momentum``: body momentum [angular; linear], converted to a
  twist through the inverse inertia at parse time.

``parse_config`` fills every default, so parse -> serialize -> parse is the
identity on configs. Unknown keys are rejected rather than ignored: a typo
in a tolerance should fail loudly, not silently run with the default.

Parsing proves a config can be built by building it: it ends with
``build_run`` and the first step's warm start, so the rules of the library
constructors (positive h and tolerance, at least one Newton iteration,
non-negative stiffness and damping, the half-turn bound on the first step)
are checked once, where they are defined, and every error is a
``ConfigError`` naming the key at fault (``run.h``, ``forces[1]``...).
Overrides such as the CLI flags are merged into the document before
parsing, so a flag value meets exactly the checks of the key it sets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import yaml

from .dynamics import (
    InertiaMatrix6,
    build_inertia,
    build_inertia_raw,
    constant_wrench_model,
    damping_model,
    force_model_from_potential,
    gravity_potential,
    spring_potential,
)
from .errors import ConfigError, DqdynError, StepTooLargeError
from .integrator import SolverSettings, initial_guess
from .kinematics import (
    FRAME_BODY,
    ScrewParameters,
    Wrench,
    pose_from_rotation_translation,
    pose_to_rotation_translation,
    screw_compose,
)

INTEGRATOR_VARIATIONAL = "dqvi"
INTEGRATOR_RK4 = "rk4"
_INTEGRATORS = (INTEGRATOR_VARIATIONAL, INTEGRATOR_RK4)

_FORCE_KEYS = {
    "gravity": {"acceleration"},
    "spring": {"stiffness", "anchor_world", "attachment_body", "rest_length"},
    "constant_wrench": {"torque", "force", "frame"},
    "linear_damping": {"angular", "linear"},
}
_FORCE_TYPES = tuple(_FORCE_KEYS)


def _vector(value, n: int, where: str) -> tuple:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected {n} numbers, got {value!r}") from exc
    if arr.shape != (n,):
        raise ConfigError(f"{where}: expected {n} numbers, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where}: values must be finite")
    return tuple(float(x) for x in arr)


def _matrix(value, n: int, where: str) -> tuple:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected a {n}x{n} matrix") from exc
    if arr.shape != (n, n):
        raise ConfigError(f"{where}: expected a {n}x{n} matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where}: entries must be finite")
    return tuple(tuple(float(x) for x in row) for row in arr)


def _scalar(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    out = float(value)
    if not np.isfinite(out):
        raise ConfigError(f"{where}: must be finite")
    return out


def _integer(value, where: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be at least {minimum}, got {value}")
    return value


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


@dataclass(frozen=True)
class ForceSpec:
    """One entry of the ``forces`` list, normalized and validated.

    ``params`` holds the type-specific parameters as plain tuples/floats so
    specs compare by value.
    """

    type: str
    params: tuple  # sorted (name, value) pairs

    def get(self, name):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated run description with every default filled in."""

    mass: float
    inertia: Optional[tuple] = None          # 3x3 rows, exclusive with inertia_raw
    reference_offset: tuple = (0.0, 0.0, 0.0)
    inertia_raw: Optional[tuple] = None      # 6x6 rows
    orientation: tuple = (1.0, 0.0, 0.0, 0.0)
    translation: tuple = (0.0, 0.0, 0.0)
    body_twist: tuple = (0.0,) * 6
    forces: tuple = ()
    h: float = 1e-3
    steps: int = 1000
    integrator: str = INTEGRATOR_VARIATIONAL
    tolerance: float = SolverSettings.tolerance
    max_iterations: int = SolverSettings.max_iterations
    output_path: Optional[str] = None
    stride: int = 1
    fields: Optional[tuple] = None


def _parse_body(section) -> dict:
    body = _require_mapping(section, "body")
    _reject_unknown(body, ("mass", "inertia", "inertia_raw", "reference_offset"), "body")
    if "mass" not in body:
        raise ConfigError("body: required key 'mass' is missing")
    out = {"mass": _scalar(body["mass"], "body.mass")}
    if "inertia" in body and "inertia_raw" in body:
        raise ConfigError(
            "body: 'inertia' and 'inertia_raw' are both present; keep exactly "
            "one (they are alternative spellings of the same matrix)"
        )
    if "inertia_raw" in body:
        if "reference_offset" in body:
            raise ConfigError(
                "body: 'reference_offset' only applies to the 'inertia' form; "
                "a raw 6x6 matrix already encodes the reference point"
            )
        out["inertia_raw"] = _matrix(body["inertia_raw"], 6, "body.inertia_raw")
    elif "inertia" in body:
        value = np.asarray(body["inertia"], dtype=np.float64)
        if value.shape == (3,):
            value = np.diag(value)
        out["inertia"] = _matrix(value, 3, "body.inertia")
        if "reference_offset" in body:
            out["reference_offset"] = _vector(
                body["reference_offset"], 3, "body.reference_offset"
            )
    else:
        raise ConfigError("body: one of 'inertia' or 'inertia_raw' is required")
    return out


def _parse_initial(section, inertia: InertiaMatrix6) -> dict:
    initial = _require_mapping(section, "initial")
    _reject_unknown(
        initial,
        ("orientation", "translation", "screw", "body_twist", "momentum"),
        "initial",
    )
    out = {}
    if "screw" in initial:
        if "orientation" in initial or "translation" in initial:
            raise ConfigError(
                "initial: 'screw' replaces 'orientation'/'translation'; "
                "give one form or the other"
            )
        screw = _require_mapping(initial["screw"], "initial.screw")
        _reject_unknown(screw, ("axis", "angle", "moment", "slide"), "initial.screw")
        for key in ("axis", "angle"):
            if key not in screw:
                raise ConfigError(f"initial.screw: required key '{key}' is missing")
        try:
            params = ScrewParameters(
                axis=_vector(screw["axis"], 3, "initial.screw.axis"),
                moment=_vector(screw.get("moment", (0.0, 0.0, 0.0)), 3, "initial.screw.moment"),
                angle=_scalar(screw["angle"], "initial.screw.angle"),
                slide=_scalar(screw.get("slide", 0.0), "initial.screw.slide"),
            )
        except DqdynError as exc:
            raise ConfigError(f"initial.screw: {exc}") from exc
        pose = screw_compose(params)
        q, translation = pose_to_rotation_translation(pose)
        out["orientation"] = tuple(float(x) for x in q)
        out["translation"] = tuple(float(x) for x in translation)
    else:
        if "orientation" in initial:
            q = np.asarray(_vector(initial["orientation"], 4, "initial.orientation"))
            norm = float(np.linalg.norm(q))
            if abs(norm - 1.0) > 1e-6:
                raise ConfigError(
                    f"initial.orientation: quaternion norm is {norm:.6g}; "
                    "must be unit to 1e-6 (it is normalized exactly after the check)"
                )
            out["orientation"] = tuple(float(x) for x in q / norm)
        if "translation" in initial:
            out["translation"] = _vector(initial["translation"], 3, "initial.translation")
    if "body_twist" in initial and "momentum" in initial:
        raise ConfigError(
            "initial: 'body_twist' and 'momentum' are both present; keep "
            "exactly one (momentum is converted to a twist at parse time)"
        )
    if "momentum" in initial:
        pi = np.asarray(_vector(initial["momentum"], 6, "initial.momentum"))
        out["body_twist"] = tuple(float(x) for x in inertia.inverse @ pi)
    elif "body_twist" in initial:
        out["body_twist"] = _vector(initial["body_twist"], 6, "initial.body_twist")
    return out


def _parse_force(entry, index: int) -> ForceSpec:
    where = f"forces[{index}]"
    force = _require_mapping(entry, where)
    kind = force.get("type")
    if kind not in _FORCE_TYPES:
        raise ConfigError(
            f"{where}: 'type' must be one of {', '.join(_FORCE_TYPES)}, got {kind!r}"
        )
    _reject_unknown(force, _FORCE_KEYS[kind] | {"type"}, where)
    params = {}
    if kind == "gravity":
        if "acceleration" not in force:
            raise ConfigError(f"{where}: gravity requires 'acceleration'")
        params["acceleration"] = _vector(force["acceleration"], 3, f"{where}.acceleration")
    elif kind == "spring":
        for key in ("stiffness", "anchor_world", "attachment_body"):
            if key not in force:
                raise ConfigError(f"{where}: spring requires '{key}'")
        params["stiffness"] = _scalar(force["stiffness"], f"{where}.stiffness")
        params["anchor_world"] = _vector(force["anchor_world"], 3, f"{where}.anchor_world")
        params["attachment_body"] = _vector(
            force["attachment_body"], 3, f"{where}.attachment_body"
        )
        params["rest_length"] = _scalar(force.get("rest_length", 0.0), f"{where}.rest_length")
    elif kind == "constant_wrench":
        params["frame"] = force.get("frame", FRAME_BODY)
        params["torque"] = _vector(force.get("torque", (0.0, 0.0, 0.0)), 3, f"{where}.torque")
        params["force"] = _vector(force.get("force", (0.0, 0.0, 0.0)), 3, f"{where}.force")
    else:  # linear_damping
        for key in ("angular", "linear"):
            value = force.get(key, 0.0)
            if isinstance(value, list):
                params[key] = _vector(value, 3, f"{where}.{key}")
            else:
                params[key] = (_scalar(value, f"{where}.{key}"),) * 3
    return ForceSpec(type=kind, params=tuple(sorted(params.items())))


def _parse_run(section) -> dict:
    run = _require_mapping(section, "run")
    _reject_unknown(run, ("h", "steps", "integrator", "tolerance", "max_iterations"), "run")
    out = {}
    if "h" in run:
        out["h"] = _scalar(run["h"], "run.h")
    if "steps" in run:
        out["steps"] = _integer(run["steps"], "run.steps", minimum=0)
    if "integrator" in run:
        if run["integrator"] not in _INTEGRATORS:
            raise ConfigError(
                f"run.integrator: must be one of {', '.join(_INTEGRATORS)}, "
                f"got {run['integrator']!r}"
            )
        out["integrator"] = run["integrator"]
    if "tolerance" in run:
        out["tolerance"] = _scalar(run["tolerance"], "run.tolerance")
    if "max_iterations" in run:
        out["max_iterations"] = _integer(run["max_iterations"], "run.max_iterations")
    return out


def _parse_output(section) -> dict:
    from .trajectory import FIELD_GROUPS

    output = _require_mapping(section, "output")
    _reject_unknown(output, ("path", "stride", "fields"), "output")
    out = {}
    if "path" in output:
        if not isinstance(output["path"], str) or not output["path"]:
            raise ConfigError(f"output.path: expected a non-empty string, got {output['path']!r}")
        out["output_path"] = output["path"]
    if "stride" in output:
        out["stride"] = _integer(output["stride"], "output.stride", minimum=1)
    if "fields" in output:
        if not isinstance(output["fields"], list) or not output["fields"]:
            raise ConfigError("output.fields: expected a non-empty list of group names")
        bad = sorted(set(output["fields"]) - set(FIELD_GROUPS))
        if bad:
            raise ConfigError(
                f"output.fields: unknown group(s) {', '.join(map(repr, bad))}; "
                f"allowed: {', '.join(FIELD_GROUPS)}"
            )
        out["fields"] = tuple(output["fields"])
    return out


def config_inertia(config: ScenarioConfig) -> InertiaMatrix6:
    """Build the 6x6 inertia operator a config describes."""
    try:
        if config.inertia_raw is not None:
            return build_inertia_raw(np.asarray(config.inertia_raw))
        return build_inertia(
            config.mass, np.asarray(config.inertia), config.reference_offset
        )
    except DqdynError as exc:
        raise ConfigError(f"body: {exc}") from exc


def parse_config(text: str, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Parse and validate a YAML scenario document.

    ``overrides`` maps section names to keys, e.g. ``{"run": {"h": 1e-4}}``,
    and is merged into the document before anything is checked, so an
    override meets exactly the checks of the key it replaces.

    Every default is filled in and momentum initial conditions are
    converted to twists. Parsing ends by building the run (inertia, force
    models, solver settings) and the first step's warm start, so a config
    that parses will start integrating; an error names the section or key
    at fault.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    if doc is None:
        raise ConfigError("empty config")
    doc = _require_mapping(doc, "config")
    for name, values in (overrides or {}).items():
        doc[name] = {**_require_mapping(doc.get(name, {}), name), **values}
    _reject_unknown(doc, ("body", "initial", "forces", "run", "output"), "config")
    if "body" not in doc:
        raise ConfigError("config: required section 'body' is missing")

    values = _parse_body(doc["body"])
    config = ScenarioConfig(**values)
    inertia = config_inertia(config)

    if "initial" in doc:
        values = _parse_initial(doc["initial"], inertia)
        config = replace(config, **values)
    if "forces" in doc:
        entries = doc["forces"]
        if not isinstance(entries, list):
            raise ConfigError("forces: expected a list")
        config = replace(
            config,
            forces=tuple(_parse_force(entry, i) for i, entry in enumerate(entries)),
        )
    if "run" in doc:
        config = replace(config, **_parse_run(doc["run"]))
    if "output" in doc:
        config = replace(config, **_parse_output(doc["output"]))

    run = build_run(config)
    try:
        initial_guess(run.twist, run.settings.h)
    except StepTooLargeError as exc:
        raise ConfigError(f"run.h: {exc}") from exc
    return config


def load_config(path, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Read and parse a config file; ``overrides`` as in ``parse_config``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read(), overrides)


def serialize_config(config: ScenarioConfig) -> str:
    """YAML text for a config; parsing it back yields an equal config."""
    body = {"mass": config.mass}
    if config.inertia_raw is not None:
        body["inertia_raw"] = [list(row) for row in config.inertia_raw]
    else:
        body["inertia"] = [list(row) for row in config.inertia]
        body["reference_offset"] = list(config.reference_offset)
    doc = {
        "body": body,
        "initial": {
            "orientation": list(config.orientation),
            "translation": list(config.translation),
            "body_twist": list(config.body_twist),
        },
        "forces": [
            {"type": spec.type, **{k: list(v) if isinstance(v, tuple) else v for k, v in spec.params}}
            for spec in config.forces
        ],
        "run": {
            "h": config.h,
            "steps": config.steps,
            "integrator": config.integrator,
            "tolerance": config.tolerance,
            "max_iterations": config.max_iterations,
        },
        "output": {
            "stride": config.stride,
        },
    }
    if config.output_path is not None:
        doc["output"]["path"] = config.output_path
    if config.fields is not None:
        doc["output"]["fields"] = list(config.fields)
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def _force_model(config: ScenarioConfig, spec: ForceSpec):
    if spec.type == "gravity":
        return force_model_from_potential(
            gravity_potential(config.mass, spec.get("acceleration"), config.reference_offset)
        )
    if spec.type == "spring":
        return force_model_from_potential(
            spring_potential(
                spec.get("anchor_world"),
                spec.get("attachment_body"),
                spec.get("stiffness"),
                spec.get("rest_length"),
            )
        )
    if spec.type == "constant_wrench":
        return constant_wrench_model(
            Wrench(
                torque=np.asarray(spec.get("torque")),
                force=np.asarray(spec.get("force")),
                frame=spec.get("frame"),
            )
        )
    return damping_model(spec.get("angular"), spec.get("linear"))


def build_force_models(config: ScenarioConfig) -> tuple:
    """Instantiate the force models a config's ``forces`` list describes.

    A model constructor's error is re-raised as a ``ConfigError`` naming
    the entry, ``forces[i]``.
    """
    models = []
    for index, spec in enumerate(config.forces):
        try:
            models.append(_force_model(config, spec))
        except DqdynError as exc:
            raise ConfigError(f"forces[{index}]: {exc}") from exc
    return tuple(models)


@dataclass(frozen=True)
class RunInputs:
    """Everything a simulation call needs, built from one config."""

    pose: np.ndarray
    twist: np.ndarray
    inertia: InertiaMatrix6
    forces: tuple
    settings: SolverSettings
    n_steps: int
    integrator: str


def build_run(config: ScenarioConfig) -> RunInputs:
    """Turn a config into concrete simulation inputs.

    Constructor errors are re-raised as ``ConfigError``s naming the config
    key: ``body``, ``forces[i]``, or ``run.<key>`` for the solver settings
    (whose messages start with the setting's name).
    """
    try:
        settings = SolverSettings(
            h=config.h,
            tolerance=config.tolerance,
            max_iterations=config.max_iterations,
        )
    except DqdynError as exc:
        raise ConfigError(f"run.{exc}") from exc
    return RunInputs(
        pose=pose_from_rotation_translation(config.orientation, config.translation),
        twist=np.asarray(config.body_twist, dtype=np.float64),
        inertia=config_inertia(config),
        forces=build_force_models(config),
        settings=settings,
        n_steps=config.steps,
        integrator=config.integrator,
    )
