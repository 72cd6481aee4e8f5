"""One cold `hopf-calc` invocation, started by run.py in a fresh interpreter.

    python3 child.py REPORT_PATH MODE ARGV...

MODE is `run` (plain invocation), `trace` (the layer tracer of
layertrace.py is installed before the run) or `setup` (stop once
`hopfcalc.cli` is imported, to sample set-up time only).  The canonical
JSON goes to stdout untouched and the exit status is that of
`hopfcalc.cli.run`.  A small JSON record with CLOCK_MONOTONIC stamps
(comparable with the parent's clock), the peak RSS and, when tracing, the
layer counters is written to REPORT_PATH.
"""

import json
import os
import sys
import time


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _peak_rss_kib() -> int:
    """High-water RSS of this process image.  The rusage `ru_maxrss` that
    the parent gets from wait4 would also count the parent's own RSS,
    which the kernel carries over at exec."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    import_start = _now_ns()
    import hopfcalc.cli

    imported = _now_ns()
    record = {"import_start_ns": import_start, "imported_ns": imported, "status": 0}
    if mode == "setup":
        status = 0
    elif mode == "trace":
        import layertrace

        tracer = layertrace.install()
        status = hopfcalc.cli.run(argv)
        record["trace"] = tracer.snapshot()
    else:
        status = hopfcalc.cli.run(argv)
    sys.stdout.flush()
    record["status"] = status
    record["peak_rss_kib"] = _peak_rss_kib()
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
