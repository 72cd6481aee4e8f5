"""Cold-process benchmark of the `hopf-calc` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every invocation is a fresh interpreter (child.py) with an empty temporary
HOME, XDG_CACHE_HOME and working directory, because that is how the CLI
is used and because in-process repeats would share the `lru_cache` tables
of `hopfcalc.scalars`.  Load is a closed loop: one client, one invocation
at a time, the harness and every child pinned to one CPU.  One repetition
runs every invocation of the workload once; the run repeats until the next
repetition would end after S seconds (at least once) and reports medians
over repetitions.  The end-to-end times are normalised by a calibration
kernel that calibrate.py times on the same CPU while each repetition runs,
so that a host that runs everything slower for a while does not move them.

Every verdict is checked: exit status and sha256 of stdout against
reference.json, plus the answers the tests pin (`"ok": true`, de Rham
dimensions).  With --trace 1 the same workload runs untraced, then twice
under layertrace.py; the two traced runs must give identical counters and
the same stdout bytes as the untraced run.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics, holding the
end-to-end metrics of BENCHMARK.json (or, with --trace 1, its per-layer
metrics).  The exit status is 1 if any invocation mismatched and 2 if the
benchmark cannot run here at all.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "sample-data")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

# command -> answer pinned by the tests, checked apart from the stored bytes;
# sample-data/ arguments are passed to the child as absolute paths
WORKLOADS = {
    "radford": {
        "verify radford": {"ok": True},
        "cohomology radford --max-degree 3": {"dims": {"H0": 2, "H1": 4, "H2": 2, "H3": 0}},
    },
    "small": {
        "verify user-hopf --file sample-data/c4.hopf --ideal-file sample-data/c4-ideal.txt": {"ok": True},
        "verify group-c2 --ideal zero": {"ok": True},
        "verify group-c2 --ideal full": {"ok": True},
        "cohomology group-c2 --ideal zero --max-degree 1": {"dims": {"H0": 1, "H1": 1}},
    },
}

# set-up time is sampled at least this often per command in every run
SETUP_SAMPLES = 5

# CPU seconds of one calibration pass at the speed the normalised times are
# quoted at, about the mean pass on the machine where the benchmark was defined
REFERENCE_PROBE_S = 0.004


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def normalised(stdout: bytes) -> bytes:
    """Stdout with the absolute sample-data directory written as `sample-data`,
    so that the hash does not depend on where the checkout lives."""
    return stdout.replace(json.dumps(DATA)[1:-1].encode(), b"sample-data")


class Invocation:
    def __init__(self, command, mode, hash_seed, tmp_root):
        argv = [os.path.join(ROOT, a) if a.startswith("sample-data/") else a for a in command.split()]
        box = tempfile.mkdtemp(dir=tmp_root)
        home, cache, cwd = (os.path.join(box, d) for d in ("home", "cache", "cwd"))
        for d in (home, cache, cwd):
            os.mkdir(d)
        env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "HOME": home,
            "XDG_CACHE_HOME": cache,
            "PYTHONHASHSEED": str(hash_seed),
        }
        report_path = os.path.join(box, "report.json")
        cpu = pinned_cpu()
        with open(os.path.join(box, "stderr"), "w+b") as err:
            steal = steal_ticks(cpu)
            spawn = now_ns()
            proc = subprocess.Popen(
                [sys.executable, CHILD, report_path, mode, *argv],
                cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err,
            )
            try:
                self.stdout = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, wait_status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(wait_status)
            end = now_ns()
            steal_after = steal_ticks(cpu)
            err.seek(0)
            self.stderr_tail = err.read()[-2000:].decode(errors="replace")
        try:
            with open(report_path, encoding="utf-8") as handle:
                report = json.load(handle)
        except FileNotFoundError:
            report = None
        shutil.rmtree(box)
        self.command = command
        self.status = proc.returncode
        self.spawn_ns, self.end_ns = spawn, end
        # time the hypervisor ran something else on this CPU, not the program
        self.steal_s = (steal_after - steal) / os.sysconf("SC_CLK_TCK") if None not in (steal, steal_after) else 0.0
        # CPU seconds of a calibration pass while this ran; set by end_to_end
        self.probe_s = None
        self.wall_s = (end - spawn) / 1e9
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mib = report["peak_rss_kib"] / 1024 if report else None
        self.report = report
        self.setup_s = (report["imported_ns"] - spawn) / 1e9 if report else None
        self.import_s = (report["imported_ns"] - report["import_start_ns"]) / 1e9 if report else None
        self.trace = report.get("trace") if report else None

    def mismatch(self, reference, expected) -> str | None:
        """Why this verdict differs from the reference, or None."""
        if self.report is None:
            return "child did not finish: " + self.stderr_tail.strip()[-300:]
        if self.status != reference["status"]:
            return f"exit status {self.status}, expected {reference['status']}"
        digest = hashlib.sha256(normalised(self.stdout)).hexdigest()
        if digest != reference["sha256"]:
            return f"stdout sha256 {digest}, expected {reference['sha256']}"
        payload = json.loads(self.stdout)
        for key, value in expected.items():
            if payload.get(key) != value:
                return f"{key} is {payload.get(key)!r}, expected {value!r}"
        return None

    def witnesses_kept(self) -> int:
        payload = json.loads(self.stdout)
        return sum(
            1 for rep in payload.get("reports", ()) for check in rep["checks"] if check["witness"] is not None
        )


class Run:
    """One benchmark run of one workload: seeded plans, invocations and their checks."""

    def __init__(self, workload, seed, seconds, tmp_root):
        self.commands = WORKLOADS[workload]
        with open(REFERENCE, encoding="utf-8") as handle:
            self.reference = json.load(handle)
        self.rng = random.Random(f"{workload}:{seed}")
        self.seconds = seconds
        self.tmp_root = tmp_root
        self.attempted = 0
        self.failures: list[str] = []

    def plan(self):
        """Seeded invocation order and one hash seed per invocation."""
        order = self.rng.sample(list(self.commands), len(self.commands))
        return [(command, self.rng.randrange(2**32)) for command in order]

    def repetition(self, plan, mode):
        out = []
        for command, hash_seed in plan:
            inv = Invocation(command, mode, hash_seed, self.tmp_root)
            self.attempted += 1
            why = inv.mismatch(self.reference[command], self.commands[command])
            if why is not None:
                self.failures.append(f"{command} [{mode}]: {why}")
            out.append(inv)
        return out

    def repeat(self):
        """Untraced repetitions until the next one would end after the deadline."""
        reps, start = [], now_ns()
        while True:
            plan = self.plan()
            reps.append((plan, self.repetition(plan, "run")))
            elapsed = (now_ns() - start) / 1e9
            typical = statistics.median(rep_total(r, "wall_s") for _, r in reps)
            if elapsed + typical > self.seconds:
                return reps

    def setup_samples(self, reps, probe_s):
        """Per-command invocations with a set-up time, topped up with
        set-up-only probes, which are given the calibration pass `probe_s`."""
        samples = {
            c: [inv for _, rep in reps for inv in rep if inv.command == c and inv.setup_s is not None]
            for c in self.commands
        }
        for command, invs in samples.items():
            while len(invs) < SETUP_SAMPLES:
                probe = Invocation(command, "setup", self.rng.randrange(2**32), self.tmp_root)
                if probe.status != 0 or probe.setup_s is None:
                    self.failures.append(f"{command} [setup]: exit status {probe.status}")
                    break
                probe.probe_s = probe_s
                invs.append(probe)
        return samples


def rep_total(rep, attr) -> float:
    return sum(getattr(inv, attr) for inv in rep)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def end_to_end(run: Run, reps, sampler):
    """The end-to-end metrics of one run, with their samples.

    The times are normalised: each repetition's seconds are scaled by
    REFERENCE_PROBE_S over the mean calibration pass made while its
    processes ran (the mean, not the median, because the share of time the
    CPU spends slow is what drifts), and wall time leaves out steal."""
    runs = [rep for _, rep in reps]
    overall = statistics.fmean(cpu for _, _, cpu in sampler.samples)
    for rep in runs:
        passes = [cpu for inv in rep for cpu in sampler.within(inv.spawn_ns, inv.end_ns)]
        probe_s = statistics.fmean(passes) if passes else overall
        for inv in rep:
            inv.probe_s = probe_s
    scale = [REFERENCE_PROBE_S / rep[0].probe_s for rep in runs]
    samples = {
        "wall_s": [rep_total(rep, "wall_s") for rep in runs],
        "cpu_s": [rep_total(rep, "cpu_s") for rep in runs],
        "steal_s": [rep_total(rep, "steal_s") for rep in runs],
        "probe_s": [rep[0].probe_s for rep in runs],
        "peak_rss_mib": [max((inv.rss_mib for inv in rep if inv.rss_mib is not None), default=0.0) for rep in runs],
    }
    samples["wall_norm_s"] = [(w - stolen) * k for w, stolen, k in zip(samples["wall_s"], samples["steal_s"], scale)]
    samples["cpu_norm_s"] = [c * k for c, k in zip(samples["cpu_s"], scale)]
    # the i-th set-up sample of every command, summed: one workload's set-up
    setups = run.setup_samples(reps, overall).values()
    samples["setup_raw_s"] = [sum(inv.setup_s for inv in column) for column in zip(*setups)]
    samples["setup_s"] = [sum(inv.setup_s * REFERENCE_PROBE_S / inv.probe_s for inv in column) for column in zip(*setups)]
    return {name: statistics.median(v) for name, v in samples.items()}, samples


def per_layer(run: Run, reps, suite_names):
    """Traced repetitions: per-layer metrics plus the tracer's own checks."""
    plan, untraced = reps[0]
    traced = [run.repetition(plan, "trace"), run.repetition(plan, "trace")]
    for rep in traced:
        for inv, plain in zip(rep, untraced):
            if inv.stdout != plain.stdout:
                run.failures.append(f"{inv.command} [trace]: stdout differs from the untraced run")
    totals = [_trace_totals(rep) for rep in traced]
    if any(t is None for t in totals):
        return {}
    if totals[0]["counts"] != totals[1]["counts"]:
        diff = sorted(k for k in set(totals[0]["counts"]) | set(totals[1]["counts"])
                      if totals[0]["counts"].get(k) != totals[1]["counts"].get(k))
        run.failures.append("trace counts differ between two traced runs: " + ", ".join(diff))
    counts = totals[0]["counts"]
    seconds = {}
    for key in set(totals[0]["seconds"]) | set(totals[1]["seconds"]):
        seconds[key] = statistics.median(t["seconds"].get(key, 0.0) for t in totals)

    def share(part, whole):
        return counts.get(part, 0) / counts[whole] if counts.get(whole) else 0.0

    kept = sum(inv.witnesses_kept() for inv in traced[0])
    formatted = counts.get("report.witnesses", 0)
    untraced_wall = statistics.median(rep_total(rep, "wall_s") for _, rep in reps)
    traced_wall = statistics.median(rep_total(rep, "wall_s") for rep in traced)
    values = {
        "scalars.mul_unit_share": share("scalars.mul_unit", "scalars.mul"),
        "scalars.mul_monomial_share": share("scalars.mul_monomial", "scalars.mul"),
        "scalars.mul_cross_order_share": share("scalars.mul_cross_order", "scalars.mul"),
        "scalars.inverse_monomial_share": share("scalars.inverse_monomial", "scalars.inverse"),
        "linalg.columns_hit_rate": share("linalg.columns_hits", "linalg.columns_calls"),
        "report.witness_kept_share": kept / formatted if formatted else 0.0,
        "cli.import_s": statistics.median(rep_total(rep, "import_s") for rep in traced),
        "trace.wall_s": traced_wall,
        "trace.overhead": traced_wall / untraced_wall,
    }
    for name in suite_names:
        values[f"suite.{name}_s"] = seconds.get(f"suite.{name}_s", 0.0)
    return {**counts, **seconds, **values}


def _trace_totals(rep):
    """Counters and times summed over the invocations of one traced repetition."""
    counts, seconds = {}, {}
    for inv in rep:
        if inv.trace is None:
            return None
        for key, value in inv.trace["counts"].items():
            counts[key] = max(counts.get(key, 0), value) if key == "linalg.max_rank" else counts.get(key, 0) + value
        for layer, ns in inv.trace["self_ns"].items():
            seconds[f"{layer}.self_s"] = seconds.get(f"{layer}.self_s", 0.0) + ns / 1e9
        for key, ns in inv.trace["timers_ns"].items():
            seconds[key] = seconds.get(key, 0.0) + ns / 1e9
    return {"counts": counts, "seconds": seconds}


def noise_record(load_before, steal_before):
    steal_after = steal_ticks()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": [round(x, 2) for x in load_before],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "steal_s": (steal_after - steal_before) / os.sysconf("SC_CLK_TCK")
        if None not in (steal_before, steal_after) else None,
    }


def pinned_cpu() -> str:
    """The CPU this process is pinned to, as /proc/stat names it, or '' for all."""
    cpus = os.sched_getaffinity(0)
    return str(min(cpus)) if len(cpus) == 1 else ""


def steal_ticks(cpu: str = ""):
    """Cumulative steal time of one CPU (all for '') from /proc/stat (read only), or None."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            for line in handle:
                fields = line.split()
                if fields and fields[0] == f"cpu{cpu}":
                    return int(fields[8])
    except (OSError, IndexError, ValueError):
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (os.path.join(SRC, "hopfcalc", "cli.py"), DATA, REFERENCE, BENCHMARK) if not os.path.exists(p)]
    if missing:
        sys.stderr.write("perfbench: cannot run here, missing " + ", ".join(missing) + "\n")
        return 2
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    suite_names = [m["name"][len("suite."):-len("_s")] for m in spec["per_layer"] if m["name"].startswith("suite.")]

    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_file(os.path.join(HERE, "layertrace.py"), quiet=1)
    # harness, sampler and every child on one CPU: a neighbour on the host
    # slows one CPU at a time, so a calibration pass speaks only for its CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tmp_root = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    load_before, steal_before = os.getloadavg(), steal_ticks()
    try:
        run = Run(args.workload, args.seed, args.seconds, tmp_root)
        sampler = calibrate.Sampler()
        sampler.start()
        try:
            reps = run.repeat()
        finally:
            sampler.stop()
        e2e, samples = end_to_end(run, reps, sampler)
        layers = per_layer(run, reps, suite_names) if args.trace else {}
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    noise = noise_record(load_before, steal_before)

    values = {**e2e, **layers}
    invocations = sum(len(rep) for _, rep in reps)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{len(reps)} repetitions of {len(run.commands)} invocations, closed loop, one client")
    for name, values_of in samples.items():
        q1, q3 = quartiles(values_of)
        print(f"  {name:<16} {values[name]:12.4f} median of {len(values_of)}, q1 {q1:.4f} q3 {q3:.4f}")
    print(f"  {'mismatch_share':<16} {len(run.failures) / run.attempted:12.4f} share  {len(run.failures)} of {run.attempted} invocations")
    if args.trace:
        for metric in spec["per_layer"]:
            print(f"  {metric['name']:<32} {values.get(metric['name'], 0.0):14.4f} {metric['unit']}")
    for failure in run.failures:
        print(f"  MISMATCH {failure}")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "repetitions": len(reps), "invocations": invocations, "samples": samples, "noise": noise,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
