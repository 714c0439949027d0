"""One benchmark sample in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <mode> <tmp-root>

``mode`` is ``setup`` (start, import, make the temp directory and stop),
``plain`` (run the workload's operations) or ``traced`` (the same, inside
spans).  The process prints one JSON object on its standard output: the
monotonic time at which it was ready, and for a run the wall time of the
timed operations, peak RSS after them, the values the frozen table checks
for every operation and, when traced, the span summary of the timed ones.  Output is checked by the parent, outside the timed part.
"""

import contextlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import cantorlab.cli

import workloads


def _run_ops(ops, call):
    results = []
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = call(argv)
            except Exception:  # an operation failing must not end the sample
                rc, err = None, io.StringIO(traceback.format_exc())
        results.append({"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(workload: str, seed: int, mode: str, tmp_root: str) -> dict:
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    ready = time.monotonic()
    try:
        if mode == "setup":
            return {"ready": ready}
        ops = workloads.operations(workload, seed, tmp)
        timed = len(ops) - workloads.CHECKED_ONLY.get(workload, 0)
        call = cantorlab.cli.main
        tracer = None
        if mode == "traced":
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)

            def call(argv):
                return tracer.wrap("cli." + workloads.op_name(argv), cantorlab.cli.main)(argv)

        t0 = time.perf_counter()
        results = _run_ops(ops[:timed], call)
        wall = time.perf_counter() - t0
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sample = {"ready": ready, "wall_s": wall, "peak_rss_kib": peak_kib, "ops": []}
        if tracer is not None:
            sample["trace"] = tracer.summary()
            sample["trace"]["emit_bytes"] = _tree_bytes(tmp)
        results += _run_ops(ops[timed:], cantorlab.cli.main)
        for res in results:
            op = {"name": workloads.op_name(res["argv"]), "rc": res["rc"], "stderr": res["stderr"][-2000:]}
            if res["rc"] is not None:
                try:
                    op["seen"] = workloads.observe(res["argv"], res["stdout"])
                except (ValueError, KeyError, StopIteration, OSError) as exc:
                    op["unreadable"] = f"{type(exc).__name__}: {exc}"
            sample["ops"].append(op)
        return sample
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    result = main(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4])
    print(json.dumps(result))
