"""One repetition of a workload in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last stdout line.  The
monotonic clock is shared between processes, so ``run.py`` turns the
``ready`` stamp into set-up time (interpreter start, imports, inputs).  A
traced repetition also writes its spans to .perfbench_work/spans-<workload>.jsonl.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import llt_lab.cli
    import_s = time.perf_counter() - t0
    if Path(llt_lab.cli.__file__).resolve().parent != SRC / "llt_lab":
        print(f"llt_lab imported from {llt_lab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import workloads

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        tasks = workloads.WORKLOADS[args.workload](args.seed, args.size, work)
        ready = time.monotonic()
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install([workloads])
        run_s = 0.0
        failures, digests = [], []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            for task in tasks:
                t = time.perf_counter()
                try:
                    if tracer:
                        tracer.active = True
                    value = task.run()
                except Exception:
                    failures.append(f"{task.name}: {traceback.format_exc(limit=-2).strip()}")
                    digests.append(f"{task.name}: FAILED")
                    continue
                finally:
                    run_s += time.perf_counter() - t
                    if tracer:
                        tracer.active = False
                try:
                    digests.append(f"{task.name}: {task.check(value)}")
                except Exception as exc:
                    failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
                    digests.append(f"{task.name}: FAILED")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "ready": ready,
        "import_s": import_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(tasks),
        "failed": len(failures),
        "failures": failures,
        "outputs": digests,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer:
        result["layers"] = tracer.metrics()
        tracer.write(ROOT / ".perfbench_work" / f"spans-{args.workload}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
