"""Run ``curvelog.cli`` under the span tracer.

    python perfbench/trace_cli.py SUMMARY.json <cli arguments...>

Behaves like ``python -m curvelog.cli <cli arguments...>`` (same output,
same exit code) and writes the span summary, plus the time spent
importing ``curvelog.cli``, to SUMMARY.json.
"""
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t = time.perf_counter()
    import curvelog.cli as cli
    import_s = time.perf_counter() - t
    tracer = Tracer(f"cli:{os.getpid()}")
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(out_path, "w") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
