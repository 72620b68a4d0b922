"""Command line front end: run scenario configs, compare trajectory files.

Exit codes: 0 success, 2 config or validation error, 3 solver divergence,
4 I/O error. Runs are deterministic; repeating one writes a byte-identical
trajectory file.

A command imports only the layers it uses: ``compare`` loads the
trajectory layer, ``run`` the scenario grammar and then the integrator the
config names. The ``dqdyn`` script and ``python -m dqdyn.cli`` both end in
:func:`entry`, which skips the interpreter's final garbage collection;
:func:`main` is a plain function that can be called in a process that
goes on.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .errors import (
    ConfigError,
    DqdynError,
    SingularMatrixError,
    SolverDivergenceError,
    StepTooLargeError,
    ValidationError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqdyn",
        description="Rigid-body simulation with a variational dual "
        "quaternion integrator (plus an RK4 reference).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate one or more scenario configs")
    run.add_argument(
        "--config",
        action="append",
        required=True,
        metavar="PATH",
        help="scenario YAML; repeat for a batch",
    )
    run.add_argument("--output", metavar="PATH", help="trajectory file (single config only)")
    run.add_argument("--h", type=float, help="time step override")
    run.add_argument("--steps", type=int, help="step count override")
    run.add_argument("--tol", type=float, help="Newton tolerance override")
    run.add_argument("--max-iter", type=int, dest="max_iter", help="Newton iteration cap override")
    run.add_argument("--integrator", help="integrator override")
    run.add_argument("--stride", type=int, help="output thinning override")

    comparison = sub.add_parser("compare", help="difference statistics of two trajectory files")
    comparison.add_argument("file_a", metavar="A")
    comparison.add_argument("file_b", metavar="B")
    return parser


# flag (argparse dest) -> (config section, key) it overrides
_FLAG_KEYS = {
    "output": ("output", "path"),
    "h": ("run", "h"),
    "steps": ("run", "steps"),
    "tol": ("run", "tolerance"),
    "max_iter": ("run", "max_iterations"),
    "integrator": ("run", "integrator"),
    "stride": ("output", "stride"),
}


def _flag_overrides(args) -> dict:
    """The flags given on the command line as config overrides, {section: {key: value}}."""
    overrides = {}
    for flag, (section, key) in _FLAG_KEYS.items():
        value = getattr(args, flag)
        if value is not None:
            overrides.setdefault(section, {})[key] = value
    return overrides


def _format_float(value: float) -> str:
    return f"{value:.6e}"


def _run_one(path: str, overrides: dict) -> str:
    from .scenario import INTEGRATOR_VARIATIONAL, load_run
    from .trajectory import summarize, write_trajectory

    config, inputs = load_run(path, overrides)
    if inputs.integrator == INTEGRATOR_VARIATIONAL:
        from .integrator import simulate as integrate
    else:
        from .newton_euler import rk4_simulate as integrate
    traj = integrate(
        inputs.pose,
        inputs.twist,
        inputs.inertia,
        inputs.forces,
        inputs.settings,
        inputs.n_steps,
    )
    stats = summarize(traj)
    lines = [
        f"config: {path}",
        f"integrator: {inputs.integrator}",
        f"steps: {inputs.n_steps}",
    ]
    if "mean_newton_iterations" in stats:
        lines.append(f"mean newton iterations: {stats['mean_newton_iterations']:.3f}")
        lines.append(f"max residual: {_format_float(stats['max_residual_norm'])}")
    else:
        lines.append("mean newton iterations: n/a")
        lines.append("max residual: n/a")
    lines.append(f"energy drift: {_format_float(stats.get('energy_drift', 0.0))}")
    lines.append(f"momentum drift: {_format_float(stats.get('momentum_drift', 0.0))}")
    lines.append(f"norm drift: {_format_float(stats['max_unit_norm_error'])}")
    if config.output_path is not None:
        write_trajectory(traj, config.output_path, stride=config.stride, fields=config.fields)
        lines.append(f"wrote: {config.output_path}")
    return "\n".join(lines)


def _cmd_run(args) -> int:
    """Run each config in turn and print its block as soon as it finishes,
    so a batch that fails shows the runs it finished; an error raised while
    a config runs names that config."""
    if args.output is not None and len(args.config) > 1:
        raise ConfigError("--output applies to a single --config; batch runs take paths from each config")
    overrides = _flag_overrides(args)
    for i, path in enumerate(args.config):
        try:
            block = _run_one(path, overrides)
        except DqdynError as exc:
            exc.args = (f"{path}: {exc}",)  # the type, its attributes and its exit code stay
            raise
        print(f"\n{block}" if i else block, flush=True)
    return EXIT_OK


def _cmd_compare(args) -> int:
    from .trajectory import compare_trajectories, read_trajectory

    report = compare_trajectories(read_trajectory(args.file_a), read_trajectory(args.file_b))
    print(f"compared states: {report.n_common}")
    print(f"max pose difference: {_format_float(report.max_pose_error)}")
    print(f"rms pose difference: {_format_float(report.rms_pose_error)}")
    print(f"max twist difference: {_format_float(report.max_twist_error)}")
    print(f"rms twist difference: {_format_float(report.rms_twist_error)}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverDivergenceError, StepTooLargeError, SingularMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    """Run :func:`main` as the whole process and exit with its code.

    The heap is frozen first, so the interpreter's last collection skips
    every object numpy, PyYAML and dqdyn keep alive and the OS reclaims
    the memory. Nothing written depends on that collection: trajectory
    files are closed by their ``with`` block, and finalization flushes
    stdout and stderr.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
