"""cantorlab benchmark: cold-process CLI workloads with frozen-output checks.

    python3 perfbench/run.py --workload stages|scheme|uogas|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a cantorlab checkout.  Each sample is a fresh,
single-threaded Python process (``worker.py``) that imports the package from
``src/`` and makes the workload's ``cantorlab.cli.main`` calls; samples run
one at a time until ``--seconds`` is spent, and at least ``MIN_SAMPLES``.
The host's speed drifts by tens of percent over minutes, so a fixed
reference loop runs on the same CPU just before and after each sample, and
the sample's times are scaled by it to a host of fixed speed (``REF_S``).
With ``--trace 0`` the last line reports the end-to-end metrics of
``BENCHMARK.json`` as medians over the samples; with ``--trace 1`` it reports
the per-layer metrics from traced samples, alternated with plain ones to
measure the tracing overhead.  An operation fails on a non-zero exit, an
exception or an output that differs from ``frozen.json``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

MIN_SAMPLES = 5
MIN_TRACED = 2
# Times are reported scaled to a host on which one pass of the reference
# loop takes REF_S seconds (about what it takes on the 2 GHz Xeon VM the
# benchmark was written on).
REF_S = 0.07
# Passes of the reference loop before and after each sample.
REF_PASSES = 2
# A run gives up, without a result, this long after it started.
DEADLINE_S = 170
# Span prefixes that must see no call on a workload: building stages and
# checking them never touches clopen sets or maps.  (Graphs are allowed: the
# stage checks may come to use the uogas validator.)
UNTOUCHED = {"stages": ("cylinders.", "maps.")}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(workload, seed, mode, tmp_root, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # Fixed string hashing: set orders, and so the traced counts, repeat.
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), mode, str(tmp_root)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} sample ran past the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode} sample exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["setup_s"] = sample["ready"] - spawned
    return sample


def _reference() -> float:
    """Seconds one pass of a fixed loop of dict, set and tuple work takes.

    The loop runs no cantorlab code, so its time gauges how fast the host
    runs at the moment.  The parent runs it around each sample and scales
    the sample's times by it.
    """
    t0 = time.perf_counter()
    for r in range(10):
        table = {}
        for i in range(10_000):
            table[(i * 7919 + r) % 10_007] = (i, str(i))
        seen = {k ^ v[0] for k, v in table.items()}
        sorted(seen)
    return time.perf_counter() - t0


def _scaled_median(samples, key):
    """Median of a time over samples, each scaled to the host REF_S describes."""
    return statistics.median(s[key] * s["speed"] for s in samples)


def _verify(workload, seed, sample, frozen):
    """Failed operations of one sample, each with its reason."""
    failures = []
    for i, op in enumerate(sample["ops"]):
        if op["rc"] != 0:
            last_line = (op["stderr"].strip().splitlines() or [""])[-1]
            failures.append(f"{op['name']}: exit {op['rc']}: {last_line}")
        elif "seen" not in op:
            failures.append(f"{op['name']}: output unreadable: {op['unreadable']}")
        else:
            diff = workloads.mismatch(workload, i, seed, op["seen"], frozen)
            if diff:
                failures.append(f"{op['name']}: {diff}")
    return failures


class Run:
    """The samples of one workload and what they verified."""

    def __init__(self, workload, seed, tmp_root, frozen, deadline):
        self.workload, self.seed, self.tmp_root, self.frozen = workload, seed, tmp_root, frozen
        self.deadline = deadline
        self.plain, self.traced = [], []
        self.attempted = 0
        self.failures = []  # one entry per failed operation
        self.problems = []  # trace invariants that did not hold

    def sample(self, mode):
        before = [_reference() for _ in range(REF_PASSES)]
        s = _worker(self.workload, self.seed, mode, self.tmp_root, self.deadline)
        # Host speed around this sample, relative to the host REF_S describes.
        s["speed"] = REF_S / statistics.mean(before + [_reference() for _ in range(REF_PASSES)])
        failures = _verify(self.workload, self.seed, s, self.frozen)
        self.attempted += len(s["ops"])
        self.failures += failures
        s["items"] = None if failures else workloads.items(self.workload, [op["seen"] for op in s["ops"]])
        (self.traced if mode == "traced" else self.plain).append(s)
        return s

    def measure(self, seconds, trace):
        start = time.monotonic()
        # Compiles the package's bytecode so that no sample pays for it.
        _worker(self.workload, self.seed, "setup", self.tmp_root, self.deadline)
        rounds, last = 0, 0.0
        enough = MIN_TRACED if trace else MIN_SAMPLES
        while rounds < enough or time.monotonic() - start + last <= seconds:
            t = time.monotonic()
            self.sample("plain")
            if trace:
                self.sample("traced")
            rounds += 1
            last = time.monotonic() - t

    def end_to_end(self):
        ok = [s for s in self.plain if s["items"] is not None]
        return {
            "wall_s": _scaled_median(self.plain, "wall_s"),
            "setup_s": _scaled_median(self.plain, "setup_s"),
            "peak_rss_mb": statistics.median(s["peak_rss_kib"] for s in self.plain) / 1024,
            "items_per_s": statistics.median(s["items"] / (s["wall_s"] * s["speed"]) for s in ok) if ok else 0.0,
        }

    def per_layer(self, names):
        """Per-layer metrics from the traced samples; counts must repeat."""
        traces = [s["trace"] for s in self.traced]
        counts = [(t["calls"], t["counts"]) for t in traces]
        if any(c != counts[0] for c in counts[1:]):
            self.problems.append("counts differ between traced samples")
        calls, extra = counts[0]
        self._check_untouched(calls, extra)

        def med(key, name):
            return statistics.median(t[key].get(name, 0.0) for t in traces)

        def ratio(num, den):
            return num / den if den else 0.0

        special = {
            "sequences.binword_new.calls": extra.get("sequences.binword_new", 0),
            "orientedgraphs.validate_uogas.vertices": extra.get("orientedgraphs.validate_uogas.vertices", 0),
            "orientedgraphs.validate_uogas.ok_ratio": ratio(
                extra.get("orientedgraphs.validate_uogas.ok", 0), calls.get("orientedgraphs.validate_uogas", 0)),
            "cylinders.intersect.nonempty_ratio": ratio(
                extra.get("cylinders.intersect.nonempty", 0), calls.get("cylinders.intersect", 0)),
            "approximation.stage_reuse_ratio": 1 - ratio(
                calls.get("approximation.step", 0), extra.get("approximation.run.requested", 0))
            if extra.get("approximation.run.requested") else 0.0,
            "cli.emit.bytes": statistics.median(t["emit_bytes"] for t in traces),
            "trace.overhead_ratio": _scaled_median(self.traced, "wall_s") / _scaled_median(self.plain, "wall_s") - 1,
        }
        out = {}
        for name in names:
            prefix, _, kind = name.rpartition(".")
            if name in special:
                out[name] = special[name]
            elif kind == "calls":
                out[name] = calls.get(prefix, 0)
            elif kind in ("busy_s", "wall_s"):
                out[name] = med("busy", prefix)
            elif kind == "self_s":
                out[name] = med("self", prefix)
            else:
                raise BenchError(f"BENCHMARK.json names per-layer metric {name!r}, which the trace does not give")
        return out

    def _check_untouched(self, calls, extra):
        touched = [n for n in list(calls) + list(extra)
                   if n.startswith(UNTOUCHED.get(self.workload, ())) and (calls.get(n) or extra.get(n))]
        if touched:
            self.problems.append(f"{self.workload} calls {sorted(touched)}")
        if self.workload == "stages" and calls.get("approximation.step") != workloads.STAGES_DEPTH:
            self.problems.append(
                f"{calls.get('approximation.step')} step calls, expected {workloads.STAGES_DEPTH}; "
                "stages were not built cold or the memo did not serve the checks")


def _git_sha():
    try:
        # The ceiling keeps git from reporting a repository above the checkout.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _context():
    return {
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "rss_method": "getrusage(RUSAGE_SELF).ru_maxrss of the sample process, KiB on Linux",
    }


def _summary(workload, run, e2e):
    fail_ratio = len(run.failures) / run.attempted
    unscaled = {k: statistics.median(s[k] for s in run.plain) for k in ("wall_s", "setup_s")}
    print(f"{workload}: wall_s {e2e['wall_s']:.4f} s; setup_s {e2e['setup_s']:.4f} s; "
          f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MiB; items_per_s {e2e['items_per_s']:.1f} 1/s; "
          f"fail_ratio {fail_ratio:.4f} ({len(run.failures)}/{run.attempted} ops); "
          f"{len(run.plain)} samples; unscaled wall_s {unscaled['wall_s']:.4f} s, setup_s {unscaled['setup_s']:.4f} s, "
          f"host speed {statistics.median(s['speed'] for s in run.plain):.3f}")
    for f in run.failures[:10]:
        print(f"  failed: {f}")
    for p in run.problems:
        print(f"  trace: {p}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cantorlab" / "cli.py").is_file():
        raise BenchError(f"no cantorlab source under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    frozen = json.loads((BENCH_DIR / "frozen.json").read_text())
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)

    context = _context()
    # The reference loop and the samples share one CPU, so that the loop
    # gauges the speed of the CPU the samples ran on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print("context:", json.dumps({**context, "cpu": cpu}))
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in chosen:
        run = Run(workload, args.seed, tmp_root, frozen, time.monotonic() + DEADLINE_S)
        run.measure(args.seconds, args.trace)
        e2e = run.end_to_end()
        values = run.per_layer([m["name"] for m in declared]) if args.trace else e2e
        _summary(workload, run, e2e)
        prefix = f"{workload}." if len(chosen) > 1 else ""
        for m in declared:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        attempted += run.attempted
        failed += len(run.failures)
        correct = correct and not run.failures and not run.problems
    try:
        tmp_root.rmdir()
    except OSError:
        pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
