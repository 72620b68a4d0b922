"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the repo root."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import gates  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.2",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert np.isfinite(entry["value"])
        if trace == "0":
            assert entry["value"] > 0.0, m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "free_top_long", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def io_bench(tmp_path):
    np.savez(tmp_path / "synthetic.npz", **inputs.synthetic_trajectory(50, seed=9))
    bench = worker.Bench("trajectory_io", str(tmp_path), inputs.SIZES["tiny"])
    bench.prepare()
    return bench


def test_clean_trajectory_passes_every_gate(io_bench):
    assert io_bench.trajectory_io(NullTracer()) is not None
    assert io_bench.ledger.failed == 0
    assert io_bench.ledger.attempted == 5


def test_corrupted_pose_row_fails_and_is_counted(io_bench):
    cols = dict(io_bench.synthetic)
    cols["poses"] = cols["poses"].copy()
    cols["poses"][17, :4] *= 1.0 + 1e-6  # off the unit group by 1e-6
    io_bench.trajectory_io(NullTracer(), cols)
    # the constraint columns of from_raw and the summary both see the bad row
    assert io_bench.ledger.failed == 2
    assert [m.split(":")[0] for m in io_bench.ledger.messages] == ["from_raw", "summarize"]
    assert all("unit-norm error" in m for m in io_bench.ledger.messages)
    assert io_bench.ledger.pass_rate == pytest.approx(3 / 5)


def test_gates_catch_drift_and_readback_differences():
    L = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0 + 1e-6]])
    assert gates.momentum_failures(L, L[0])
    assert not gates.momentum_failures(L[:1], L[0])

    class Columns:
        times = np.zeros(2)
        poses = np.zeros((2, 8))
        twists = np.zeros((2, 6))

    other = Columns()
    other.twists = np.ones((2, 6))
    assert gates.readback_failures(Columns, other) == ["read-back twists differ from the in-memory trajectory"]
    assert gates.identical_failures("x", "a", "b") and not gates.identical_failures("x", "a", "a")


def test_inputs_depend_only_on_the_seed(tmp_path):
    texts = []
    for seed, sub in ((4, "a"), (4, "b"), (5, "c")):
        paths = inputs.write_configs(os.path.join(ROOT, "scenarios"), str(tmp_path / sub), seed)
        texts.append([open(paths[name]).read() for name in inputs.SCENARIOS])
    assert texts[0] == texts[1] and texts[0] != texts[2]
    a, b = inputs.synthetic_trajectory(30, 4), inputs.synthetic_trajectory(30, 4)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    reals = a["poses"][:, :4]
    assert np.abs(np.linalg.norm(reals, axis=1) - 1.0).max() < 1e-12
    assert np.abs(np.einsum("ni,ni->n", reals, a["poses"][:, 4:])).max() < 1e-12


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.call("outer", lambda: tracer.call("inner", sum, range(10)))
    selfs = tracer.self_seconds()
    (_, _, s0, e0), (_, parent, s1, e1) = tracer.spans
    assert parent == 0
    assert selfs["outer"] == pytest.approx((e0 - s0) - (e1 - s1))


def test_each_sub_run_is_scaled_by_the_reference_loop_around_it():
    class HalfSpeed(calibrate.Calibration):
        def sample(self):  # the reference loop took twice its nominal time
            self.times.append(2 * calibrate.NOMINAL_S)

    cal = HalfSpeed()
    samples = worker.measure(0.0, lambda: worker.Sample(1.0, 10, 11, 1.0), cal, min_samples=3)
    assert [s.speed for s in samples] == [0.5] * 3
    assert len(cal.times) == 4  # one before the first sub-run, one after each
    cal.times = [calibrate.NOMINAL_S, 2 * calibrate.NOMINAL_S, 4 * calibrate.NOMINAL_S]
    assert cal.speed(1) == pytest.approx(1 / 3)
