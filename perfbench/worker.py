"""One batch of one workload, in a fresh interpreter.

    python perfbench/worker.py --workload NAME --seed N [--size bench]
                               [--trace] [--setup-only] [--plant]

Prints one JSON line with the set-up and run windows (readings of
``time.monotonic``, which is system-wide on Linux, so the parent can match
them with its host-speed samples), their CPU seconds and wall seconds,
resource use, per-item outcomes, the sha256 of the canonical outputs and,
with ``--trace``, the span summary per layer.  Set-up counts from
``--spawned-at``, a reading taken by the parent before spawning; its CPU
time is the process's own from interpreter start.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")

def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def remove_workdir(tmp: str) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        os.rmdir(WORKDIR)
    except OSError:             # not empty
        pass


def cli_launcher(trace: bool) -> list[str]:
    if trace:
        return [sys.executable, os.path.join(HERE, "trace_cli.py")]
    return [sys.executable, "-m", "curvelog.cli"]


def merge_layers(summaries: list[dict]) -> dict:
    """Sum span statistics of several traced processes (one per CLI
    call); hit ratios are recombined from distinct counts."""
    out: dict[str, dict] = {}
    for s in summaries:
        for name, st in s["layers"].items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            for k in ("calls", "total_s", "self_s"):
                acc[k] += st[k]
            if "distinct" in st:
                acc["distinct"] = acc.get("distinct", 0) + st["distinct"]
    for st in out.values():
        if "distinct" in st:
            st["hit_ratio"] = 1 - st["distinct"] / st["calls"] \
                if st["calls"] else 0.0
    return out


def cli_trace(trace_dir: str) -> tuple[dict, dict]:
    """Merge the span summaries the traced CLI calls wrote, and time the
    start-up alone with ``--help`` (its exit code is returned too)."""
    summaries = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as fh:
            summaries.append(json.load(fh))
    imports = sorted(s["import_s"] for s in summaries)
    extra = {"spans": sum(s["spans"] for s in summaries),
             "self_s_sum": sum(s["self_s_sum"] for s in summaries),
             "root_s": sum(s["root_s"] for s in summaries),
             "import_s": imports[len(imports) // 2]}
    t = time.monotonic()
    proc = subprocess.run(cli_launcher(False) + ["--help"],
                          capture_output=True)
    extra["help_s"] = time.monotonic() - t
    extra["help_code"] = proc.returncode
    return merge_layers(summaries), extra


def work_counts(items, outcomes) -> dict:
    """Work counts from the results, reported with the trace."""
    counts = {"catalog.graphs_out": 0, "sheaf.entries": 0,
              "chart_compare.failed": 0, "oracle_err": 0.0}
    for item, outcome in zip(items, outcomes):
        if item.kind == "catalog" and not item.error:
            counts["catalog.graphs_out"] += len(item.value)
        elif item.kind == "element" and not item.error:
            counts["sheaf.entries"] += item.value["n_entries"]
        elif item.kind == "compare" and outcome != "ok":
            counts["chart_compare.failed"] += 1
            kind = outcome.split(":", 1)[1]
            if kind not in ("ZeroDivisionError", "DegenerateWord",
                            "NoWitnessLoops"):
                kind = "other"
            key = f"chart_compare.failed.{kind}"
            counts[key] = counts.get(key, 0) + 1
        elif item.kind == "transport" and not item.error:
            counts["sewing.kappa_dust"] = item.data["kappa_dust"]
            counts["sewing.result_words"] = len(item.value[1].terms)
        elif item.kind == "specialize" and not item.error:
            counts["oracle_err"] = max(counts["oracle_err"], item.data["err"])
        elif item.kind == "cli" and not item.error:
            counts["jsonio.bytes_out"] = counts.get("jsonio.bytes_out", 0) \
                + len(item.value.encode())
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="bench", choices=("tiny", "bench"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--plant", action="store_true",
                    help="perturb one result, to test the checker")
    ap.add_argument("--spawned-at", type=float, default=time.monotonic(),
                    help="the parent's time.monotonic() before spawning")
    args = ap.parse_args(argv)

    setup, run, render = workloads.WORKLOADS[args.workload]

    t_imp = time.monotonic()
    for mod in workloads.MODULES[args.workload]:
        importlib.import_module(mod)
    import_s = time.monotonic() - t_imp

    tmp = None
    if args.workload == "cli-session":
        os.makedirs(WORKDIR, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=WORKDIR)
        inputs = setup(args.seed, args.size, tmp)
    else:
        inputs = setup(args.seed, args.size)
    tracer = None
    if args.trace and args.workload != "cli-session":
        from tracer import Tracer
        tracer = Tracer(f"{args.workload}:{args.seed}:{os.getpid()}")
        tracer.install()
    setup_end = time.monotonic()
    setup = {"setup_end": setup_end,
             "setup_wall_s": setup_end - args.spawned_at,
             "setup_cpu_s": time.process_time()}
    if args.setup_only:
        if tmp:
            remove_workdir(tmp)
        print(canonical(setup))
        return 0

    trace_dir = tempfile.mkdtemp(dir=tmp) if tmp and args.trace else None
    try:
        rec = workloads.Recorder()
        cli = args.workload == "cli-session"
        run_start = time.monotonic()
        cpu0 = time.process_time()
        if cli:
            items = run(inputs, args.plant, rec, cli_launcher(args.trace),
                        trace_dir)
        else:
            items = run(inputs, args.plant, rec)
        cpu_s = time.process_time() - cpu0
        run_end = time.monotonic()
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli
                                   else resource.RUSAGE_SELF)
        if cli:
            cpu_s += usage.ru_utime + usage.ru_stime
        peak_rss_mb = usage.ru_maxrss / 1024     # ru_maxrss is in KiB

        layers, extra = {}, {}
        if tracer is not None:
            tracer.uninstall()
            extra = tracer.summary()
            layers = extra.pop("layers")
        elif trace_dir is not None:
            layers, extra = cli_trace(trace_dir)

        neck_spec = inputs.get("spec") if args.workload == "neck-sewing" \
            else None
        outcomes = checks.check(items, neck_spec)
        ids = [i.id for i in items]
        if extra.get("help_code"):
            outcomes.append(f"error:exit{extra['help_code']}")
            ids.append("cli --help")
        digest = hashlib.sha256()
        for item in items:
            digest.update(canonical([item.kind, item.id, item.error,
                                     None if item.error else render(item)])
                          .encode())
            digest.update(b"\n")
        result = {
            **setup, "run_start": run_start, "run_end": run_end,
            "run_wall_s": run_end - run_start, "cpu_s": cpu_s,
            "import_s": import_s, "peak_rss_mb": peak_rss_mb,
            "outcomes": outcomes, "ids": ids,
            "sha256": digest.hexdigest(),
            "counts": work_counts(items, outcomes),
            "layers": layers, "trace": extra,
        }
    finally:
        if tmp:
            remove_workdir(tmp)
    print(canonical(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
