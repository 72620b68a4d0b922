"""One benchmark workload, run in a process of its own.

``run.py`` starts this script once per run for the measurement and several
more times with ``--setup-only`` to time start-up. Every call into dqdyn
goes through a tracer (``tracing.py``); the untraced run uses the null one.
The last stdout line is a JSON object with the raw metric values, the
operation counts and the environment record.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import resource
import subprocess
import sys
import time
from dataclasses import replace
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import dqdyn  # noqa: E402
from dqdyn import (  # noqa: E402
    SolverSettings,
    Trajectory,
    build_inertia,
    build_run,
    compare_trajectories,
    dq_mul,
    jacobian,
    load_config,
    read_trajectory,
    residual,
    rk4_simulate,
    simulate,
    solve_step,
    step_to_dual_quaternion,
    summarize,
    total_wrench,
    write_trajectory,
)
from dqdyn.linsolve import solve_full_pivot  # noqa: E402

import gates  # noqa: E402
from calibrate import Calibration, SpawnCalibration  # noqa: E402
import inputs  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

FORCED_PAIR = ("generic_forced", "damped_drop")
# configs loaded and warmed up before the first measured step
SETUP_CONFIGS = {
    "free_top_long": ("free_top",),
    "forced_coupled": FORCED_PAIR,
    "cli_batch": ("free_top", "generic_forced"),
}
FREE_BODIES = ("free_top", "offset_reference")
CLI_ENV = dict(os.environ, PYTHONPATH=SRC)
CLI_TIMEOUT_S = 120
CAL_EVERY = 3  # cli_batch runs the reference process after every third subprocess
# per-layer metrics that are times, scaled to nominal speed like the end-to-end ones
TIMED = re.compile(r"_(us|ms|s)(_per_\w+)?$")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dqdyn_cli(args, cwd):
    """Run the dqdyn command line in a subprocess; returns (process, wall s)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dqdyn.cli", *args],
        cwd=cwd, env=CLI_ENV, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return proc, time.perf_counter() - start


def cli_failures(proc) -> list:
    if proc.returncode == 0:
        return []
    return [f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"]


def parse_max_pose(stdout: str) -> str:
    match = re.search(r"^max pose difference: (\S+)$", stdout, re.MULTILINE)
    return match.group(1) if match else ""


class Sample:
    """Timings of one sub-run. ``dqvi_*`` cover only the variational integrator.

    Times are as measured; ``speed`` (set by ``measure``) takes them to
    nominal machine speed.
    """

    def __init__(self, wall, steps, rows, integrator_wall, dqvi_wall=0.0, dqvi_steps=0, trajs=None):
        self.wall = wall
        self.steps = steps
        self.rows = rows
        self.integrator_wall = integrator_wall
        self.dqvi_wall = dqvi_wall
        self.dqvi_steps = dqvi_steps
        self.trajs = trajs or {}
        self.speed = 1.0
        self.cli_walls = None  # cli_batch: spawn-to-exit seconds per subcommand
        self.reported = None  # cli_batch: "max pose difference" printed by compare


class Bench:
    """Inputs and state shared by one worker's sub-runs."""

    def __init__(self, workload, work_dir, sizes):
        self.workload = workload
        self.work_dir = work_dir
        self.sizes = sizes
        self.ledger = gates.Ledger()
        # cli_batch's time is mostly process start-up
        self.cal = SpawnCalibration() if workload == "cli_batch" else Calibration()
        self.configs = {name: os.path.join(work_dir, "configs", name + ".yaml") for name in inputs.SCENARIOS}
        self._runs = {}
        self.first = {}  # digests of first outputs, for the repeat gates
        self.chain = None  # free top: state carried from one sub-run to the next

    def run_inputs(self, name):
        if name not in self._runs:
            self._runs[name] = build_run(load_config(self.configs[name]))
        return self._runs[name]

    def prepare(self):
        """Everything before the first measured step, warm-up included."""
        if self.workload == "trajectory_io":
            with np.load(os.path.join(self.work_dir, "synthetic.npz")) as data:
                self.synthetic = {key: data[key] for key in data.files}
            self.io_inertia = build_inertia(1.0, np.diag([1.0, 2.0, 3.0]))
            self.io_settings = SolverSettings(h=inputs.SYNTHETIC_H)
            cols = self.synthetic
            Trajectory.from_raw(times=cols["times"][:2], poses=cols["poses"][:2],
                                twists=cols["twists"][:2], inertia=self.io_inertia)
            return
        for name in SETUP_CONFIGS[self.workload]:
            inp = self.run_inputs(name)
            simulate(inp.pose, inp.twist, inp.inertia, inp.forces, inp.settings, 1)

    # -- sub-runs ---------------------------------------------------------

    def free_top(self, tr):
        """One leg of a long free-top chain: each leg starts where the last ended."""
        inp = self.run_inputs("free_top")
        n = self.sizes["free_steps"]
        if self.chain is None:
            self.chain = {"pose": inp.pose, "twist": inp.twist, "L0": None}
        start = time.perf_counter()
        traj = self.ledger.attempt("free_top simulate", tr.call, "integrator.simulate", simulate,
                                   self.chain["pose"], self.chain["twist"], inp.inertia, (), inp.settings, n)
        wall = time.perf_counter() - start
        if traj is gates.FAILED:
            self.chain = None
            return None
        if self.chain["L0"] is None:
            self.chain["L0"] = traj.angular_momentum[0]
            self.first.setdefault("free_top", digest(traj.poses, traj.twists, traj.steps))
        failures = gates.dqvi_failures(traj, inp.settings.tolerance)
        failures += gates.momentum_failures(traj.angular_momentum, self.chain["L0"])
        self.ledger.check("free_top simulate", failures)
        self.chain.update(pose=traj.poses[-1], twist=traj.twists[-1])
        return Sample(wall, n, n + 1, wall, wall, n, {"free_top": traj})

    def free_top_repeat(self):
        """Re-run the chain's first leg and require byte-identical output."""
        inp = self.run_inputs("free_top")
        traj = self.ledger.attempt("free_top repeat", simulate, inp.pose, inp.twist, inp.inertia, (),
                                   inp.settings, self.sizes["free_steps"])
        if traj is not gates.FAILED:
            again = digest(traj.poses, traj.twists, traj.steps)
            self.ledger.check("free_top repeat", gates.identical_failures("free_top", self.first.get("free_top"), again))

    def forced(self, tr):
        n = self.sizes["forced_steps"]
        wall = 0.0
        trajs = {}
        for name in FORCED_PAIR:
            inp = self.run_inputs(name)
            models = tr.wrap_models(inp.forces)
            start = time.perf_counter()
            traj = self.ledger.attempt(f"{name} simulate", tr.call, "integrator.simulate", simulate,
                                       inp.pose, inp.twist, inp.inertia, models, inp.settings, n)
            wall += time.perf_counter() - start
            if traj is gates.FAILED:
                return None
            failures = gates.dqvi_failures(traj, inp.settings.tolerance)
            again = digest(traj.poses, traj.twists, traj.steps)
            failures += gates.identical_failures(name, self.first.setdefault(name, again), again)
            self.ledger.check(f"{name} simulate", failures)
            trajs[name] = traj
        steps = n * len(FORCED_PAIR)
        return Sample(wall, steps, steps + len(FORCED_PAIR), wall, wall, steps, trajs)

    def trajectory_io(self, tr, cols=None):
        """from_raw, write (all fields, stride 1), read, compare, summarize."""
        cols = self.synthetic if cols is None else cols
        path = os.path.join(self.work_dir, "synthetic.tsv")
        led = self.ledger
        start = time.perf_counter()
        traj = led.attempt("from_raw", tr.call, "trajectory.from_raw", Trajectory.from_raw,
                           times=cols["times"], poses=cols["poses"], twists=cols["twists"],
                           inertia=self.io_inertia, steps=cols["steps"], iterations=cols["iterations"],
                           residual_norms=cols["residual_norms"])
        if traj is gates.FAILED:
            return None
        if led.attempt("write", tr.call, "trajectory.write_trajectory", write_trajectory, traj, path,
                       stride=1) is gates.FAILED:
            return None
        back = led.attempt("read", tr.call, "trajectory.read_trajectory", read_trajectory, path)
        if back is gates.FAILED:
            return None
        report = led.attempt("compare", tr.call, "trajectory.compare_trajectories", compare_trajectories, traj, back)
        stats = led.attempt("summarize", tr.call, "trajectory.summarize", summarize, traj)
        wall = time.perf_counter() - start
        if report is gates.FAILED or stats is gates.FAILED:
            return None
        led.check("from_raw", gates.constraint_failures(traj))
        written = file_digest(path)
        led.check("write", gates.identical_failures("trajectory file", self.first.setdefault("io", written), written))
        led.check("read", gates.readback_failures(traj, back))
        same = report.max_pose_error == 0.0 and report.max_twist_error == 0.0
        led.check("compare", [] if same else [f"read-back differs by {report.max_pose_error:.3e}"])
        worst = stats["max_unit_norm_error"]
        led.check("summarize", [] if worst <= gates.CONSTRAINT_BAR else [f"unit-norm error {worst:.3e}"])
        n = traj.n_states
        return Sample(wall, n - 1, n, wall, trajs={"synthetic": traj})

    def cli_batch(self):
        """The README cross-check: run every scenario with dqvi, then rk4, then compare."""
        steps = str(self.sizes["cli_steps"])
        out = {"dqvi": os.path.join(self.work_dir, "dqvi"), "rk4": os.path.join(self.work_dir, "rk4")}
        for d in out.values():
            os.makedirs(d, exist_ok=True)
        walls = {"run": [], "compare": []}
        reported = {}
        procs = []
        for integrator in ("dqvi", "rk4"):
            for name in inputs.SCENARIOS:
                args = ["run", "--config", self.configs[name], "--steps", steps, "--stride", "1",
                        "--integrator", integrator, "--output", os.path.join(out[integrator], name + ".tsv")]
                proc, wall = dqdyn_cli(args, self.work_dir)
                walls["run"].append(wall)
                procs.append((f"cli run {integrator} {name}", proc))
                if len(procs) % CAL_EVERY == 0:
                    self.cal.sample()
        for name in inputs.SCENARIOS:
            proc, wall = dqdyn_cli(["compare", os.path.join(out["dqvi"], name + ".tsv"),
                                    os.path.join(out["rk4"], name + ".tsv")], self.work_dir)
            walls["compare"].append(wall)
            procs.append((f"cli compare {name}", proc))
            reported[name] = parse_max_pose(proc.stdout)
            if len(procs) % CAL_EVERY == 0:
                self.cal.sample()
        wall = sum(walls["run"]) + sum(walls["compare"])

        ok = True
        for what, proc in procs:
            ok &= self.ledger.record(what, cli_failures(proc))
        if not ok:
            return None
        for name in inputs.SCENARIOS:
            what = f"cli output {name}"
            back = self.ledger.attempt(what, read_trajectory, os.path.join(out["dqvi"], name + ".tsv"))
            if back is gates.FAILED:
                return None
            failures = gates.dqvi_failures(back, self.run_inputs(name).settings.tolerance)
            if name in FREE_BODIES:
                failures += gates.momentum_failures(back.angular_momentum, back.angular_momentum[0])
            for integrator, d in out.items():
                written = file_digest(os.path.join(d, name + ".tsv"))
                key = f"cli {integrator} {name}"
                failures += gates.identical_failures(key, self.first.setdefault(key, written), written)
            self.ledger.check(what, failures)
        n_steps = 2 * len(inputs.SCENARIOS) * self.sizes["cli_steps"]
        rows = 4 * len(inputs.SCENARIOS) * (self.sizes["cli_steps"] + 1)
        sample = Sample(wall, n_steps, rows, sum(walls["run"]))
        sample.cli_walls = walls
        sample.reported = reported
        return sample

    def cli_mirror(self, tr):
        """The batch's API calls in-process, so the trace can split it by layer."""
        n = self.sizes["cli_steps"]
        out = os.path.join(self.work_dir, "mirror")
        os.makedirs(out, exist_ok=True)
        led = self.ledger
        start = time.perf_counter()
        integ = dqvi = 0.0
        trajs = {}
        for name in inputs.SCENARIOS:
            config = led.attempt(f"{name} load", tr.call, "scenario.load_config", load_config, self.configs[name])
            if config is gates.FAILED:
                return None
            inp = led.attempt(f"{name} build", tr.call, "scenario.build_run", build_run,
                              replace(config, steps=n, stride=1))
            if inp is gates.FAILED:
                return None
            models = tr.wrap_models(inp.forces)
            pair = []
            for label, fn, span in (("dqvi", simulate, "integrator.simulate"),
                                    ("rk4", rk4_simulate, "newton_euler.rk4_simulate")):
                t0 = time.perf_counter()
                traj = led.attempt(f"{name} {label}", tr.call, span, fn,
                                   inp.pose, inp.twist, inp.inertia, models, inp.settings, n)
                elapsed = time.perf_counter() - t0
                integ += elapsed
                if label == "dqvi":
                    dqvi += elapsed
                if traj is gates.FAILED:
                    return None
                path = os.path.join(out, f"{name}.{label}.tsv")
                if led.attempt(f"{name} write", tr.call, "trajectory.write_trajectory", write_trajectory,
                               traj, path, stride=1) is gates.FAILED:
                    return None
                back = led.attempt(f"{name} read", tr.call, "trajectory.read_trajectory", read_trajectory, path)
                if back is gates.FAILED:
                    return None
                failures = gates.readback_failures(traj, back)
                if label == "dqvi":
                    failures += gates.dqvi_failures(traj, inp.settings.tolerance)
                    if name in FREE_BODIES:
                        failures += gates.momentum_failures(traj.angular_momentum, traj.angular_momentum[0])
                    trajs[name] = traj
                led.check(f"{name} {label}", failures)
                pair.append(back)
            led.attempt(f"{name} compare", tr.call, "trajectory.compare_trajectories", compare_trajectories, *pair)
        wall = time.perf_counter() - start
        n_states = len(inputs.SCENARIOS)
        return Sample(wall, 2 * n_states * n, 4 * n_states * (n + 1), integ, dqvi, n_states * n, trajs)

    def subrun(self, tr):
        if self.workload == "free_top_long":
            return self.free_top(tr)
        if self.workload == "forced_coupled":
            return self.forced(tr)
        if self.workload == "trajectory_io":
            return self.trajectory_io(tr)
        return self.cli_mirror(tr)

    # -- accuracy ----------------------------------------------------------

    def accuracy_probe(self):
        """dqvi against RK4 at the same h on the free top and generic_forced."""
        n = self.sizes["cli_steps"]
        errors = {}
        for key, name in (("pose_err_free", "free_top"), ("pose_err_forced", "generic_forced")):
            inp = self.run_inputs(name)
            a = self.ledger.attempt(f"probe {name} dqvi", simulate, inp.pose, inp.twist, inp.inertia,
                                    inp.forces, inp.settings, n)
            b = self.ledger.attempt(f"probe {name} rk4", rk4_simulate, inp.pose, inp.twist, inp.inertia,
                                    inp.forces, inp.settings, n)
            if a is gates.FAILED or b is gates.FAILED:
                continue
            self.ledger.check(f"probe {name} dqvi", gates.dqvi_failures(a, inp.settings.tolerance))
            errors[key] = (compare_trajectories(a, b).max_pose_error, a)
        return errors


def measure(seconds, fn, cal, min_samples=3):
    """Repeat a sub-run while another fits in ``seconds``, at least ``min_samples`` times.

    ``cal``'s reference runs before the first sub-run and after each one;
    a sub-run's speed comes from the samples around it (and any ``fn``
    takes inside it). Trajectories are dropped so that peak RSS does not
    grow with the run length.
    """
    samples = []
    attempts = 0
    last = 0.0
    end = time.perf_counter() + seconds
    cal.sample()
    while attempts < min_samples or time.perf_counter() + last < end:
        attempts += 1
        first = len(cal.times) - 1
        start = time.perf_counter()
        sample = fn()
        last = time.perf_counter() - start
        cal.sample()
        if sample is not None:
            sample.trajs = {}
            sample.speed = cal.speed(first)
            samples.append(sample)
    return samples


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(bench, seconds) -> dict:
    if bench.workload == "cli_batch":
        samples = measure(seconds, bench.cli_batch, bench.cal)
    else:
        samples = measure(seconds, lambda: bench.subrun(NullTracer()), bench.cal)
    if not samples:
        raise SystemExit("every sub-run failed; no timing to report")
    metrics = {
        "wall_s": median(s.wall * s.speed for s in samples),
        "us_per_step": median(1e6 * s.integrator_wall * s.speed / s.steps for s in samples),
        "us_per_row": median(1e6 * s.wall * s.speed / s.rows for s in samples),
    }
    if bench.workload == "free_top_long":
        bench.free_top_repeat()
    if bench.workload == "cli_batch":
        probe = bench.accuracy_probe()
        reported = samples[0].reported
        for key, name in (("pose_err_free", "free_top"), ("pose_err_forced", "generic_forced")):
            metrics[key] = float(reported[name])
            if key in probe:
                # the CLI's TSV must hold exactly what the API returns in-process
                back = read_trajectory(os.path.join(bench.work_dir, "dqvi", name + ".tsv"))
                failures = gates.readback_failures(probe[key][1], back)
                if f"{probe[key][0]:.6e}" != reported[name]:
                    failures.append(f"CLI reports {reported[name]}, API {probe[key][0]:.6e}")
                bench.ledger.record(f"cli matches API {name}", failures)
    else:
        for key, (err, _) in bench.accuracy_probe().items():
            metrics[key] = err
    metrics["peak_rss_mb"] = peak_rss_mb(bench.workload)
    metrics["pass_rate"] = bench.ledger.pass_rate
    return metrics


def per_call_us(fn, arg_list, budget) -> float:
    """Median over rounds of the mean wall time of one call, in µs."""
    rounds = []
    end = time.perf_counter() + budget
    while len(rounds) < 3 or time.perf_counter() < end:
        start = time.perf_counter()
        for args in arg_list:
            fn(*args)
        rounds.append(1e6 * (time.perf_counter() - start) / len(arg_list))
    return median(rounds)


def replay(bench, traj, inertia, models, settings, budget) -> dict:
    """Time each layer's public function on inputs recorded from the workload's run."""
    n = min(traj.n_states - 1, bench.sizes["replay_inputs"])
    ks = range(1, n + 1)
    h = settings.h
    steps, poses, twists = traj.steps, traj.poses, traj.twists
    wrenches = [total_wrench(models, poses[k], twists[k - 1], k * h) for k in ks]
    systems = [(jacobian(steps[k], inertia), -np.concatenate(residual(steps[k - 1], inertia))) for k in ks]
    out = {
        "integrator.residual_us": per_call_us(residual, [(steps[k], inertia) for k in ks], budget),
        "integrator.jacobian_us": per_call_us(jacobian, [(steps[k], inertia) for k in ks], budget),
        "integrator.solve_step_us": per_call_us(
            solve_step, [(steps[k - 1], inertia, w, settings) for k, w in zip(ks, wrenches)], budget),
        "linsolve.solve_us": per_call_us(solve_full_pivot, systems, budget),
        "quat.dq_mul_us": per_call_us(
            dq_mul, [(poses[k - 1], step_to_dual_quaternion(steps[k - 1])) for k in ks], budget),
        "dynamics.total_wrench_us": per_call_us(
            total_wrench, [(models, poses[k], twists[k - 1], k * h) for k in ks], budget),
    }
    iterations = [solve_step(steps[k - 1], inertia, w, settings)[1] for k, w in zip(ks, wrenches)]

    path = os.path.join(bench.work_dir, "replay.tsv")
    states = traj.n_states

    def from_raw():
        return Trajectory.from_raw(times=traj.times, poses=poses, twists=twists, inertia=inertia,
                                   force_models=models, steps=steps, iterations=traj.iterations,
                                   residual_norms=traj.residual_norms)

    out["trajectory.from_raw_us_per_state"] = per_call_us(from_raw, [()], budget) / states
    out["trajectory.write_us_per_row"] = per_call_us(write_trajectory, [(traj, path)], budget) / states
    out["trajectory.bytes_written"] = os.path.getsize(path)
    out["trajectory.read_us_per_row"] = per_call_us(read_trajectory, [(path,)], budget) / states
    back = read_trajectory(path)
    out["trajectory.compare_us_per_state"] = per_call_us(compare_trajectories, [(traj, back)], budget) / states
    k = bench.sizes["rk4_steps"]
    out["newton_euler.rk4_us_per_step"] = per_call_us(
        rk4_simulate, [(poses[0], twists[0], inertia, models, settings, k)], budget) / k
    configs = [(path,) for path in bench.configs.values()]
    out["scenario.load_build_ms"] = per_call_us(
        lambda p: build_run(load_config(p)), configs, budget) / 1000.0
    return out, iterations


def cli_probe(bench) -> dict:
    """Spawn-to-exit time of ``dqdyn run`` and ``dqdyn compare`` on this workload's data."""
    name = "generic_forced" if bench.workload == "forced_coupled" else "free_top"
    tsv = os.path.join(bench.work_dir, "probe.tsv")
    run_args = ["run", "--config", bench.configs[name], "--steps", str(bench.sizes["cli_steps"]),
                "--stride", "1", "--output", tsv]
    if bench.workload == "trajectory_io":
        tsv = os.path.join(bench.work_dir, "synthetic.tsv")
    walls = {"run": [], "compare": []}
    for _ in range(bench.sizes["cli_probes"]):
        for kind, args in (("run", run_args), ("compare", ["compare", tsv, tsv])):
            proc, wall = dqdyn_cli(args, bench.work_dir)
            bench.ledger.record(f"cli {kind} probe", cli_failures(proc))
            walls[kind].append(wall)
    return walls


def per_layer(bench, seconds, trace_path) -> dict:
    budget = max(0.05, min(0.4, seconds / 40.0))
    metrics = {}
    walls = None
    bench.cal.sample()
    if bench.workload == "cli_batch":
        batch = bench.cli_batch()
        walls = None if batch is None else batch.cli_walls
    untraced, traced = [], []
    tracer = Tracer()
    for _ in range(bench.sizes["trace_pairs"]):
        untraced.append(bench.subrun(NullTracer()))
        traced.append(bench.subrun(tracer))
    if None in untraced or None in traced:
        raise SystemExit("a traced or untraced sub-run failed; no per-layer figures")
    bench.cal.sample()
    if walls is None:
        walls = cli_probe(bench)
    tracer.dump(trace_path)
    passes = len(traced)
    metrics["cli.run_s"] = median(walls["run"])
    metrics["cli.compare_s"] = median(walls["compare"])
    metrics["trace.overhead_s"] = median(s.wall for s in traced) - median(s.wall for s in untraced)

    selfs = tracer.self_seconds()
    for layer in ("integrator", "newton_euler", "trajectory", "scenario"):
        metrics[f"{layer}.self_s"] = sum(v for k, v in selfs.items() if k.startswith(layer + ".")) / passes
    metrics["dynamics.force_eval_s"] = selfs["dynamics.force_eval"] / passes
    metrics["dynamics.potential_eval_s"] = selfs["dynamics.potential_eval"] / passes
    metrics["dynamics.force_evals_per_step"] = tracer.counts["force_evals"] / sum(s.steps for s in traced)
    metrics["dynamics.potential_evals"] = tracer.counts["potential_evals"] / passes

    last = traced[-1]
    if bench.workload == "trajectory_io":
        traj, inertia, models, settings = last.trajs["synthetic"], bench.io_inertia, (), bench.io_settings
    else:
        name = "free_top" if bench.workload == "free_top_long" else "generic_forced"
        inp = bench.run_inputs(name)
        traj, inertia, models, settings = last.trajs[name], inp.inertia, inp.forces, inp.settings
    bench.cal.sample()
    kernels, replay_iterations = replay(bench, traj, inertia, models, settings, budget)
    bench.cal.sample()
    metrics.update(kernels)

    dqvi = [t for s in traced for t in s.trajs.values()] if bench.workload != "trajectory_io" else []
    iterations = np.concatenate([t.iterations[1:] for t in dqvi]) if dqvi else np.asarray(replay_iterations)
    metrics["integrator.newton_iters_per_step"] = float(np.mean(iterations))
    metrics["integrator.newton_iters_max"] = int(np.max(iterations))

    # calls per step in simulate: per Newton iteration two residuals, one
    # Jacobian and one solve; per step one more residual (twist retrieval),
    # one pose product and one wrench sum
    base_samples = [s for s in untraced if s.dqvi_steps] or untraced
    base = median(1e6 * (s.dqvi_wall or s.wall) / (s.dqvi_steps or s.steps) for s in base_samples)
    per_step = (
        metrics["integrator.newton_iters_per_step"]
        * (2 * kernels["integrator.residual_us"] + kernels["integrator.jacobian_us"] + kernels["linsolve.solve_us"])
        + kernels["integrator.residual_us"] + kernels["quat.dq_mul_us"] + kernels["dynamics.total_wrench_us"]
    )
    metrics["integrator.replay_coverage"] = per_step / base
    metrics["integrator.replay_base_us_per_step"] = base
    speed = bench.cal.speed()
    return {k: v * speed if TIMED.search(k) else v for k, v in metrics.items()}


def environment(speed: float) -> dict:
    try:
        numba_version = importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        numba_version = None
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "dqdyn")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for line in fh if line.strip())
    from dqdyn import _compat

    return {
        "backend": "numba" if _compat.NUMBA_AVAILABLE else "python",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_version,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "dqdyn": dqdyn.__version__,
        "speed": speed,  # nominal / measured reference-loop time; below 1 means slower than nominal
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full")
    parser.add_argument("--trace-file", help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, help="time.monotonic() just before this process was started")
    args = parser.parse_args(argv)

    bench = Bench(args.workload, args.work_dir, inputs.SIZES[args.size])
    bench.prepare()
    if args.setup_only:
        print(json.dumps({"setup_s": time.monotonic() - args.spawned_at}))
        return 0
    if args.trace:
        metrics = per_layer(bench, args.seconds, args.trace_file)
    else:
        metrics = end_to_end(bench, args.seconds)
    for message in bench.ledger.messages:
        print(f"gate failed: {message}", file=sys.stderr)
    print(json.dumps({
        "attempted": bench.ledger.attempted,
        "failed": bench.ledger.failed,
        "metrics": metrics,
        "env": environment(bench.cal.speed()),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
