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

Each key is declared once, in a table: ``_KEYS`` maps every section's keys
to the ``ScenarioConfig`` field they set and the parser of their values,
``_FORCES`` lists each force type's keys with their defaults. Parsing,
unknown-key rejection and ``serialize_config`` all read these tables, and
parse -> serialize -> parse is the identity on configs. Unknown keys are
rejected rather than ignored: a typo in a tolerance should fail loudly, not
silently run with the default. A value that is not what its key needs (a
ragged matrix, a word for a number) is a ``ConfigError`` naming the key.

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
from functools import partial
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
from .trajectory import FIELD_GROUPS

INTEGRATOR_VARIATIONAL = "dqvi"
INTEGRATOR_RK4 = "rk4"
_INTEGRATORS = (INTEGRATOR_VARIATIONAL, INTEGRATOR_RK4)


def _array(value, where: str, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: expected {what}, got {value!r}") from exc


def _vector(value, where: str, n: int) -> tuple:
    arr = _array(value, where, f"{n} numbers")
    if arr.shape != (n,):
        raise ConfigError(f"{where}: expected {n} numbers, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where}: values must be finite")
    return tuple(float(x) for x in arr)


def _matrix(value, where: str, n: int, diagonal: bool = False) -> tuple:
    """An n x n matrix as row tuples; with ``diagonal``, n numbers are its diagonal."""
    arr = _array(value, where, f"a {n}x{n} matrix")
    if diagonal and arr.shape == (n,):
        arr = np.diag(arr)
    if arr.shape != (n, n):
        raise ConfigError(f"{where}: expected a {n}x{n} matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where}: entries must be finite")
    return tuple(tuple(float(x) for x in row) for row in arr)


def _scalar(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    out = float(_array(value, where, "a number"))
    if not np.isfinite(out):
        raise ConfigError(f"{where}: must be finite")
    return out


def _integer(value, where: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be at least {minimum}, got {value}")
    return value


def _per_axis(value, where: str) -> tuple:
    """Three numbers, or one number for all three axes."""
    if isinstance(value, list):
        return _vector(value, where, 3)
    return (_scalar(value, where),) * 3


def _orientation(value, where: str) -> tuple:
    q = np.asarray(_vector(value, where, 4))
    norm = float(np.linalg.norm(q))
    if abs(norm - 1.0) > 1e-6:
        raise ConfigError(
            f"{where}: quaternion norm is {norm:.6g}; "
            "must be unit to 1e-6 (it is normalized exactly after the check)"
        )
    # dividing by the norm again can move a normalized quaternion's last bits;
    # keeping one that is unit to round-off (~2 ulp) makes parsing idempotent
    if abs(norm - 1.0) > 1e-15:
        q = q / norm
    return tuple(float(x) for x in q)


def _screw(value, where: str) -> dict:
    """The orientation and translation of the pose an ``initial.screw`` composes."""
    screw = _require_mapping(value, where)
    _reject_unknown(screw, _SCREW, where)
    params = _params(screw, _SCREW, where, "screw")
    try:
        pose = screw_compose(ScrewParameters(**params))
    except DqdynError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    q, translation = pose_to_rotation_translation(pose)
    return {"orientation": _orientation(q, where), "translation": tuple(map(float, translation))}


def _choice(value, where: str, options: tuple) -> str:
    if value not in options:
        raise ConfigError(f"{where}: must be one of {', '.join(options)}, got {value!r}")
    return value


def _path(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where}: expected a non-empty string, got {value!r}")
    return value


def _fields(value, where: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a non-empty list of group names")
    bad = sorted({repr(name) for name in value if name not in FIELD_GROUPS})
    if bad:
        raise ConfigError(
            f"{where}: unknown group(s) {', '.join(bad)}; allowed: {', '.join(FIELD_GROUPS)}"
        )
    return tuple(value)


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = sorted(repr(key) for key in section if key not in allowed)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


_vector3 = partial(_vector, n=3)

# section -> key -> (ScenarioConfig field, parser(value, where)). ``screw``
# and ``momentum`` have no field: they are other spellings of fields, and
# _parse converts them once the body is known.
_KEYS = {
    "body": {
        "mass": ("mass", _scalar),
        "inertia": ("inertia", partial(_matrix, n=3, diagonal=True)),
        "inertia_raw": ("inertia_raw", partial(_matrix, n=6)),
        "reference_offset": ("reference_offset", _vector3),
    },
    "initial": {
        "orientation": ("orientation", _orientation),
        "translation": ("translation", _vector3),
        "screw": (None, _screw),
        "body_twist": ("body_twist", partial(_vector, n=6)),
        "momentum": (None, partial(_vector, n=6)),
    },
    "run": {
        "h": ("h", _scalar),
        "steps": ("steps", partial(_integer, minimum=0)),
        "integrator": ("integrator", partial(_choice, options=_INTEGRATORS)),
        "tolerance": ("tolerance", _scalar),
        "max_iterations": ("max_iterations", _integer),
    },
    "output": {
        "path": ("output_path", _path),
        "stride": ("stride", partial(_integer, minimum=1)),
        "fields": ("fields", _fields),
    },
}
_SECTIONS = ("body", "initial", "forces", "run", "output")

# (section, key, key, why the two cannot both be present)
_EXCLUSIVE = (
    ("body", "inertia", "inertia_raw", "'inertia' and 'inertia_raw' are both present; "
     "keep exactly one (they are alternative spellings of the same matrix)"),
    ("body", "reference_offset", "inertia_raw", "'reference_offset' only applies to the "
     "'inertia' form; a raw 6x6 matrix already encodes the reference point"),
    ("initial", "screw", "orientation",
     "'screw' replaces 'orientation'/'translation'; give one form or the other"),
    ("initial", "screw", "translation",
     "'screw' replaces 'orientation'/'translation'; give one form or the other"),
    ("initial", "body_twist", "momentum", "'body_twist' and 'momentum' are both present; "
     "keep exactly one (momentum is converted to a twist at parse time)"),
)

_REQUIRED = object()

# force type -> key -> default, or _REQUIRED for a key without one
_FORCES = {
    "gravity": {"acceleration": _REQUIRED},
    "spring": {"stiffness": _REQUIRED, "anchor_world": _REQUIRED, "attachment_body": _REQUIRED,
               "rest_length": 0.0},
    "constant_wrench": {"torque": (0.0, 0.0, 0.0), "force": (0.0, 0.0, 0.0), "frame": FRAME_BODY},
    "linear_damping": {"angular": 0.0, "linear": 0.0},
}
_SCREW = {"axis": _REQUIRED, "angle": _REQUIRED, "moment": (0.0, 0.0, 0.0), "slide": 0.0}

# key of a force or of initial.screw -> parser(value, where); a key name
# means the same wherever it appears
_PARAM_PARSERS = {
    **dict.fromkeys(("acceleration", "anchor_world", "attachment_body", "torque", "force"), _vector3),
    **dict.fromkeys(("axis", "moment"), _vector3),
    **dict.fromkeys(("stiffness", "rest_length", "angle", "slide"), _scalar),
    **dict.fromkeys(("angular", "linear"), _per_axis),
    "frame": lambda value, where: value,  # Wrench checks the tag
}


@dataclass(frozen=True)
class ForceSpec:
    """One entry of the ``forces`` list, normalized and validated.

    ``params`` holds the type-specific parameters as plain tuples/floats so
    specs compare by value.
    """

    type: str
    params: tuple  # sorted (name, value) pairs

    def get(self, name):
        return dict(self.params)[name]


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


def _parse_section(doc: dict, name: str) -> dict:
    """The parsed value of each key of section ``name`` that ``doc`` sets,
    under its ``ScenarioConfig`` field, or under the key if it has none."""
    section = _require_mapping(doc.get(name, {}), name)
    keys = _KEYS[name]
    _reject_unknown(section, keys, name)
    for where, a, b, reason in _EXCLUSIVE:
        if where == name and a in section and b in section:
            raise ConfigError(f"{name}: {reason}")
    return {field or key: parse(section[key], f"{name}.{key}")
            for key, (field, parse) in keys.items() if key in section}


def _params(mapping: dict, defaults: dict, where: str, kind: str) -> dict:
    """Each key of ``defaults`` parsed from ``mapping``, or from its default."""
    params = {}
    for key, default in defaults.items():
        if key not in mapping and default is _REQUIRED:
            raise ConfigError(f"{where}: {kind} requires '{key}'")
        params[key] = _PARAM_PARSERS[key](mapping.get(key, default), f"{where}.{key}")
    return params


def _parse_force(entry, index: int) -> ForceSpec:
    where = f"forces[{index}]"
    force = _require_mapping(entry, where)
    kind = _choice(force.get("type"), f"{where}.type", tuple(_FORCES))
    _reject_unknown(force, (*_FORCES[kind], "type"), where)
    params = _params(force, _FORCES[kind], where, kind)
    return ForceSpec(type=kind, params=tuple(sorted(params.items())))


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


def _parse(text: str, overrides: Optional[dict]) -> tuple[ScenarioConfig, RunInputs]:
    """The config a document describes and the run that parsing built to prove it."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    if doc is None:
        raise ConfigError("empty config")
    doc = _require_mapping(doc, "config")
    for name, keys in (overrides or {}).items():
        doc[name] = {**_require_mapping(doc.get(name, {}), name), **keys}
    _reject_unknown(doc, _SECTIONS, "config")
    if "body" not in doc:
        raise ConfigError("config: required section 'body' is missing")
    parsed = {key: value for name in _KEYS for key, value in _parse_section(doc, name).items()}
    if "mass" not in parsed:
        raise ConfigError("body: required key 'mass' is missing")
    if "inertia" not in parsed and "inertia_raw" not in parsed:
        raise ConfigError("body: one of 'inertia' or 'inertia_raw' is required")
    screw, momentum = parsed.pop("screw", None), parsed.pop("momentum", None)
    entries = doc.get("forces", [])
    if not isinstance(entries, list):
        raise ConfigError("forces: expected a list")
    forces = tuple(_parse_force(entry, i) for i, entry in enumerate(entries))
    config = ScenarioConfig(**parsed, forces=forces)
    if screw is not None:
        config = replace(config, **screw)
    if momentum is not None:
        pi = np.asarray(momentum)
        config = replace(config, body_twist=tuple(float(x) for x in config_inertia(config).inverse @ pi))

    run = build_run(config)
    try:
        initial_guess(run.twist, run.settings.h)
    except StepTooLargeError as exc:
        raise ConfigError(f"run.h: {exc}") from exc
    return config, run


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
    return _parse(text, overrides)[0]


def load_run(path, overrides: Optional[dict] = None) -> tuple[ScenarioConfig, RunInputs]:
    """Read and parse a config file; ``overrides`` as in ``parse_config``.

    Returns the config and the run that parsing built to check it, so a
    caller that integrates needs no second ``build_run``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        return _parse(handle.read(), overrides)


def load_config(path, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Read and parse a config file; ``overrides`` as in ``parse_config``."""
    return load_run(path, overrides)[0]


def serialize_config(config: ScenarioConfig) -> str:
    """YAML text for a config; parsing it back yields an equal config."""
    doc = {name: {} for name in _SECTIONS}
    for name, keys in _KEYS.items():
        for key, (field, _) in keys.items():
            value = None if field is None else getattr(config, field)
            # the offset form's default offset is no key of the raw form
            if value is not None and not (key == "reference_offset" and config.inertia_raw is not None):
                doc[name][key] = _plain(value)
    doc["forces"] = [
        {"type": spec.type, **{key: _plain(value) for key, value in spec.params}}
        for spec in config.forces
    ]
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def _plain(value):
    """A config value for YAML: tuples (vectors, matrix rows) become lists."""
    return [_plain(x) for x in value] if isinstance(value, tuple) else value


def _force_model(config: ScenarioConfig, spec: ForceSpec):
    # every force key but gravity's is its constructor's keyword
    params = dict(spec.params)
    if spec.type == "gravity":
        return force_model_from_potential(
            gravity_potential(config.mass, params["acceleration"], config.reference_offset)
        )
    if spec.type == "spring":
        return force_model_from_potential(spring_potential(**params))
    if spec.type == "constant_wrench":
        return constant_wrench_model(Wrench(**params))
    return damping_model(**params)


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
