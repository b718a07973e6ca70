"""Benchmark runner for curvelog.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each batch of the workload runs
in a fresh interpreter (``worker.py``), one process at a time, with the
numpy/BLAS/OpenMP thread pools capped at one thread.  Batches repeat
until ``--seconds`` is used up (at least ``MIN_BATCHES``); between
batches, set-up-only processes add samples of the set-up time.  Times are
reported in CPU seconds at reference host speed (see ``Sampler``).

``--trace 0`` reports the end-to-end metrics, medians over the batches.
``--trace 1`` alternates untraced and traced batches and reports the
per-layer metrics from the traced ones, plus the tracing overhead.

The last line of standard output is the result object; the line before
it holds the details: provenance, every batch's raw figures, outcome
counts by type and the sha256 of the canonical outputs.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = tuple(workloads.WORKLOADS)
MIN_BATCHES = 2
TIME_LIMIT_S = 170        # one invocation must end within this

# The reference loop's CPU time at the host speed the figures are quoted
# in: a typical reading on a 2-core Intel Xeon VM (x86-64).
REF_LOOP_S = 0.0125
SAMPLE_EVERY_S = 0.25

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

CLI_COMMANDS = ("graph_validate", "graph_expand", "graph_contract",
                "graph_subtree", "schottky_fixed_points",
                "schottky_verify_prop21", "schottky_compare_thm31",
                "mzv_eval", "assoc_kz", "assoc_elliptic", "monodromy",
                "decompose")


def _stats(module: str, names, stats) -> list[str]:
    return [f"{module}.{n}.{s}" for n in names for s in stats]


# Per-layer metrics, grouped by the end-to-end metric they should move
# (see README.md for the table).
PER_LAYER = (
    ["catalog.stable_graphs.calls", "catalog.stable_graphs.total_s",
     "catalog.graphs_out", "stable_graph.closed_words.total_s"]
    + _stats("schottky", ["verify_graph"], ["calls", "total_s", "self_s"])
    + ["schottky.verify_word.calls"]
    + _stats("cpseries", ["mul", "invert", "solve_quadratic"],
             ["calls", "self_s"])
    + ["chart_compare.expand_and_compare.calls",
       "chart_compare.expand_and_compare.total_s",
       "chart_compare.report.total_s", "chart_compare.failed",
       "chart_compare.failed.ZeroDivisionError",
       "chart_compare.failed.DegenerateWord",
       "chart_compare.failed.NoWitnessLoops", "chart_compare.failed.other"]
    + _stats("ncseries", ["mul", "substitute", "exp", "invert"],
             ["calls", "self_s"])
    + _stats("constants", ["mul", "add", "in_zeta_span"], ["calls", "self_s"])
    + _stats("logpoly", ["mul", "add"], ["calls", "self_s"])
    + ["sheaf.build_sheaf.total_s", "sheaf.path.calls", "sheaf.path.total_s",
       "sheaf.path.self_s", "sheaf.local.calls", "sheaf.local.hit_ratio",
       "sheaf.decompose_element.total_s", "sheaf.decompose_element.self_s",
       "sheaf.reassemble_element.total_s", "sheaf.entries",
       "associator.kz_associator.calls", "associator.kz_associator.hit_ratio",
       "regularize.decompose.hit_ratio", "polylog.mzv_numeric.calls",
       "polylog.mzv_numeric.hit_ratio"]
    + _stats("sewing", ["zone_mul", "sewcoeff_mul", "ordered_exp",
                        "frame_series"], ["calls", "self_s"])
    + ["sewing.dressed_neck_transport.total_s", "sewing.sew_specialize.total_s",
       "sewing.kappa_dust", "sewing.result_words",
       "associator.ode_transport.total_s"]
    + [f"cli.{c}.total_s" for c in CLI_COMMANDS]
    + ["cli.help.total_s", "jsonio.bytes_out", "proc.import_s"]
    + ["proc.run_wall_s", "proc.ref_s", "proc.cpu_s",
       "proc.trace_overhead_s", "proc.traced_run_s", "proc.self_s_sum",
       "proc.spans", "error_rate", "oracle_err"]
)

# Metrics the worker counts from results rather than from spans.
WORK_COUNTS = {"catalog.graphs_out", "sheaf.entries", "chart_compare.failed",
               "chart_compare.failed.ZeroDivisionError",
               "chart_compare.failed.DegenerateWord",
               "chart_compare.failed.NoWitnessLoops",
               "chart_compare.failed.other", "sewing.kappa_dust",
               "sewing.result_words", "jsonio.bytes_out", "oracle_err"}
UNITS = {"calls": "count", "total_s": "s", "self_s": "s",
         "hit_ratio": "ratio", "graphs_out": "count", "entries": "count",
         "failed": "count", "ZeroDivisionError": "count",
         "DegenerateWord": "count", "NoWitnessLoops": "count",
         "other": "count", "kappa_dust": "abs", "result_words": "count",
         "bytes_out": "bytes", "import_s": "s", "cpu_s": "s",
         "run_wall_s": "s", "ref_s": "s",
         "trace_overhead_s": "s", "traced_run_s": "s", "self_s_sum": "s",
         "spans": "count", "error_rate": "ratio", "oracle_err": "abs"}


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = "1"
    return env


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def reference_loop() -> None:
    """Fixed pure-Python work of the program's kind (Fraction and dict
    arithmetic, no curvelog code)."""
    acc: dict[int, Fraction] = {}
    for i in range(1, 4001):
        k = i % 251
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i, k + 1)


class Sampler(threading.Thread):
    """Samples host speed beside the workers.

    On a shared host the same work can take 1.75 times longer, in CPU time
    as in wall time, while another tenant loads the same physical core, for
    seconds to minutes at a time.  This thread of the runner times the
    reference loop in its own CPU seconds every ``SAMPLE_EVERY_S``, on the
    CPU the workers run on, with the collector off.  The samples come from
    this small, steady process, so nothing a worker holds in memory can
    change them."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []   # (at, CPU seconds)
        self.halt = threading.Event()
        self.sample()

    def sample(self) -> None:
        gc.disable()
        try:
            t = time.thread_time()
            reference_loop()
            self.samples.append((time.monotonic(), time.thread_time() - t))
        finally:
            gc.enable()

    def run(self) -> None:
        while not self.halt.wait(SAMPLE_EVERY_S):
            self.sample()

    def stop(self) -> None:
        self.halt.set()
        self.join()
        self.sample()

    def window(self, a: float, b: float) -> list[float]:
        """Durations of the samples taken in ``[a, b]``, widened by one
        sampling interval on each side; the nearest sample if none."""
        inside = [d for t, d in self.samples
                  if a - SAMPLE_EVERY_S <= t <= b + SAMPLE_EVERY_S]
        return inside or [min(self.samples,
                              key=lambda s: min(abs(s[0] - a),
                                                abs(s[0] - b)))[1]]

    def speed(self, a: float, b: float) -> float:
        """Host speed over ``[a, b]`` relative to the reference: the mean
        of ``REF_LOOP_S`` over each sample's duration."""
        return statistics.fmean(REF_LOOP_S / d for d in self.window(a, b))


def normalise(b: dict, sampler: Sampler) -> None:
    """Adds the batch's times at reference speed: its CPU seconds scaled by
    the host speed over the same window."""
    b["setup_s"] = b["setup_cpu_s"] * sampler.speed(b["spawned_at"],
                                                    b["setup_end"])
    if "run_start" in b:
        b["run_s"] = b["cpu_s"] * sampler.speed(b["run_start"], b["run_end"])
        b["ref_s"] = statistics.median(sampler.window(b["run_start"],
                                                      b["run_end"]))


class Runner:
    """Spawns worker processes one at a time within the time limit."""

    def __init__(self, args, env: dict):
        self.args, self.env = args, env
        self.t0 = time.monotonic()

    def spawn(self, *flags: str) -> dict:
        budget = TIME_LIMIT_S - (time.monotonic() - self.t0)
        t_spawn = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--size", self.args.size, "--spawned-at", repr(t_spawn),
               *flags]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=max(budget, 1))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"worker exceeded the {TIME_LIMIT_S}s limit")
        if proc.returncode != 0:
            raise SystemExit(f"worker failed ({proc.returncode}):\n"
                             f"{proc.stderr[-2000:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["spawned_at"] = t_spawn
        res["wall_s"] = time.monotonic() - t_spawn
        return res


def collect(args, runner: Runner) -> tuple[list, list, list]:
    """Untraced batches, traced batches and set-up-only processes."""
    runner.spawn("--setup-only")       # warm-up: bytecode and file caches
    plain, traced, setups, cycles = [], [], [], []
    while True:
        t = time.monotonic()
        b = runner.spawn()
        plain.append(b)
        if args.trace:
            traced.append(runner.spawn("--trace"))
        setups.append(runner.spawn("--setup-only"))
        cycles.append(time.monotonic() - t)
        elapsed = time.monotonic() - runner.t0
        if len(plain) >= (1 if args.trace else MIN_BATCHES) and \
                elapsed + max(cycles) > args.seconds:
            return plain, traced, setups


def per_layer_value(name: str, r: dict, plain: list, attempted: int,
                    failed: int) -> float:
    layers, extra = r["layers"], r["trace"]
    median = statistics.median
    if name in ("proc.cpu_s", "proc.run_wall_s", "proc.ref_s"):
        return median(b[name[5:]] for b in plain)
    if name == "proc.trace_overhead_s":
        return r["run_s"] - median(b["run_s"] for b in plain)
    if name == "proc.traced_run_s":          # the spans' clock
        return r["run_wall_s"]
    if name == "proc.self_s_sum":
        return extra.get("self_s_sum", 0.0)
    if name == "proc.spans":
        return extra.get("spans", 0)
    if name == "proc.import_s":
        return extra.get("import_s", r["import_s"])
    if name == "cli.help.total_s":
        return extra.get("help_s", 0.0)
    if name == "error_rate":
        return failed / attempted
    if name in WORK_COUNTS:
        return r["counts"].get(name, 0)
    layer, stat = name.rsplit(".", 1)
    if layer.startswith("cli."):
        layer = "cli.cmd_" + layer[4:]
    return layers.get(layer, {}).get(stat, 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("tiny", "bench"), default="bench")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "curvelog",
                                       "__init__.py")):
        print("perfbench: no curvelog sources under src/ at "
              "the checkout root", file=sys.stderr)
        return 2

    # every process of the run, the sampler too, on one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = Sampler()
    sampler.start()
    runner = Runner(args, child_env())
    try:
        plain, traced, setups = collect(args, runner)
    finally:
        sampler.stop()
    batches = plain + traced
    for b in batches + setups:
        normalise(b, sampler)
    outcomes = Counter(o for b in batches for o in b["outcomes"])
    attempted = sum(outcomes.values())
    failed = attempted - outcomes["ok"]
    digests = sorted({b["sha256"] for b in batches})
    correct = len(digests) == 1 and \
        not any(o.startswith("wrong:") for o in outcomes)

    median = statistics.median
    if args.trace:
        metrics = {}
        for name in PER_LAYER:
            vals = [per_layer_value(name, r, plain, attempted, failed)
                    for r in traced]
            metrics[name] = {"value": statistics.median_low(vals),
                             "unit": unit_of(name)}
    else:
        values = {"run_s": median(b["run_s"] for b in plain),
                  "setup_s": median(b["setup_s"] for b in plain + setups),
                  "peak_rss_mb": median(b["peak_rss_mb"] for b in plain)}
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}

    details = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "batches": [{k: b[k] for k in ("run_s", "cpu_s", "run_wall_s",
                                        "setup_s", "setup_cpu_s",
                                        "setup_wall_s", "ref_s", "wall_s",
                                        "peak_rss_mb")}
                    | {"traced": i >= len(plain)}
                    for i, b in enumerate(batches)],
        "setup_samples": [b["setup_s"] for b in plain + setups],
        "speed_samples": len(sampler.samples),
        "outcomes": dict(sorted(outcomes.items())),
        "failures": sorted({(i, o) for b in batches
                            for i, o in zip(b["ids"], b["outcomes"])
                            if o != "ok"}),
        "sha256": digests,
    }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
