"""dqdyn benchmark: one workload per invocation, result as the last stdout line.

    python3 perfbench/run.py --workload free_top_long --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; dqdyn is imported from ``src/``.
This process writes the seeded inputs, times start-up in fresh processes
(``setup_s``), then starts ``worker.py`` for the measurement so that the
worker's peak RSS belongs to the workload alone. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
A line ``{"env": ...}`` before the result records backend and versions.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from calibrate import SpawnCalibration  # noqa: E402

SETUP_SPAWNS = 9
CHILD_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_child(cmd, **kwargs):
    """Run a child in its own session; on timeout kill the whole group, grandchildren too."""
    with subprocess.Popen(cmd, start_new_session=True, text=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return proc.returncode, out, err


def setup_seconds(workload, work_dir, configs, size) -> tuple:
    """Spawn-to-ready seconds of fresh processes, and how many of them failed.

    For cli_batch the process is ``dqdyn run --steps 0``, timed to exit:
    the CLI's start-up up to its first step. Each sample is taken to nominal
    speed by the reference process run before and after its spawn.
    """
    samples, failed = [], 0
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cal = SpawnCalibration()
    cal.sample()
    for _ in range(SETUP_SPAWNS):
        first = len(cal.times) - 1
        spawned = time.monotonic()
        if workload == "cli_batch":
            cmd = [sys.executable, "-m", "dqdyn.cli", "run", "--config", configs["free_top"], "--steps", "0"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                   "--work-dir", work_dir, "--size", size, "--setup-only", "--spawned-at", repr(spawned)]
        code, out, err = run_child(cmd, cwd=work_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        ready = time.monotonic() - spawned
        cal.sample()
        if code != 0:
            failed += 1
            print(err, file=sys.stderr)
            continue
        if workload != "cli_batch":
            ready = json.loads(out.strip().splitlines()[-1])["setup_s"]
        samples.append(ready * cal.speed(first))
    return samples, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full",
                        help="work per sub-run; 'tiny' is for the self-tests")
    args = parser.parse_args(argv)

    for needed in ("src/dqdyn/__init__.py", "scenarios/free_top.yaml", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return fail(f"{needed} not found; run from the root of a dqdyn source checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        configs = inputs.write_configs(os.path.join(ROOT, "scenarios"), os.path.join(work_dir, "configs"), args.seed)
        synthetic = inputs.synthetic_trajectory(inputs.SIZES[args.size]["io_states"], args.seed)
        np.savez(os.path.join(work_dir, "synthetic.npz"), **synthetic)

        setup, setup_failed = [], 0
        if not args.trace:
            setup, setup_failed = setup_seconds(args.workload, work_dir, configs, args.size)
            if not setup:
                return fail("every set-up process failed")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--work-dir", work_dir, "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size,
               "--trace-file", os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")]
        code, out, _ = run_child(cmd, cwd=work_dir, stdout=subprocess.PIPE)
        if code != 0:
            return fail(f"worker exited with code {code}")
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values = result["metrics"]
    attempted = result["attempted"] + len(setup) + setup_failed
    failed = result["failed"] + setup_failed
    if setup:
        values["setup_s"] = median(setup)
        values["pass_rate"] = (attempted - failed) / attempted
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"no value for {', '.join(missing)}")
    print(json.dumps({"env": result["env"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
