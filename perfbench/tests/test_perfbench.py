"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

WORKLOADS = run.WORKLOADS


def worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), *args],
        env=run.child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_result_is_counted(workload):
    res = worker("--workload", workload, "--seed", "5", "--size", "tiny",
                 "--plant")
    wrong = [o for o in res["outcomes"] if o.startswith("wrong:")]
    assert len(wrong) == 1, res["outcomes"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_self_times_fit_in_run():
    res = worker("--workload", "monodromy-tables", "--seed", "2",
                 "--size", "tiny", "--trace")
    self_sum = sum(st["self_s"] for st in res["layers"].values())
    assert 0 < self_sum <= res["run_wall_s"]
    assert res["layers"]["sheaf.path"]["calls"] > 0
    assert 0 <= res["layers"]["sheaf.local"]["hit_ratio"] < 1


def test_sampler_samples_beside_long_calls():
    sampler = run.Sampler()
    sampler.start()
    t = time.monotonic()
    while time.monotonic() - t < 1.0:      # one long call
        pass
    sampler.stop()
    assert len(sampler.window(t, t + 1.0)) >= 4
    assert all(0 < d < 1.0 for _, d in sampler.samples)
    assert sampler.speed(t, t + 1.0) > 0


def test_times_are_cpu_seconds_scaled_by_host_speed():
    sampler = run.Sampler()
    sampler.samples = [(10.0, run.REF_LOOP_S), (10.3, run.REF_LOOP_S / 2),
                       (99.0, 1.0)]
    batch = {"spawned_at": 9.9, "setup_end": 10.0, "setup_cpu_s": 0.1,
             "run_start": 10.0, "run_end": 10.2, "cpu_s": 2.0}
    run.normalise(batch, sampler)
    assert batch["setup_s"] == pytest.approx(0.1)
    assert batch["run_s"] == pytest.approx(3.0)


def test_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "cli-session", "--seed", "3", "--seconds",
                 "1", "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == run.PER_LAYER
    assert result["metrics"]["cli.monodromy.total_s"]["value"] > 0
    assert result["metrics"]["cli.help.total_s"]["value"] > 0


def test_same_seed_same_outputs():
    a = worker("--workload", "schottky-catalog", "--seed", "9",
               "--size", "tiny")
    b = worker("--workload", "schottky-catalog", "--seed", "9",
               "--size", "tiny", "--trace")
    assert a["sha256"] == b["sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli-session", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(n, run.unit_of(n)) for n in run.PER_LAYER]
