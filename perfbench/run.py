"""Benchmark of llt-lab: end-to-end and per-layer metrics on three workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload heavy_tail --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all      # every workload, traced and untraced;
                                        # prints a table, writes perfbench/results/
    python3 perfbench/run.py --smoke    # tiny sizes; checks every metric is emitted

Load model: a closed loop in one process.  Each repetition runs the
workload's task list once in a fresh interpreter (``child.py``), so caches
inside the package start cold as they do for every command-line call.
Repetitions continue until ``--seconds`` have passed (at least three) and
each metric is the median over them.  Only the estimator path pool runs in
parallel, with at most ``nproc`` threads; BLAS/OpenMP run single-threaded.

``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced repetitions and reports the
``per_layer`` metrics: span self times and work counts per module from
``tracer.py``, import times from ``python -X importtime``, and the tracing
overhead.  The last stdout line is the result object; the line before it
describes the machine, the inputs and a digest of the deterministic outputs.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("heavy_tail", "llt_scan", "estimators")
MIN_REPS = 3
#: a run must end within 180 s; no repetition starts after this point
DEADLINE_S = 120.0
CHILD_TIMEOUT_S = 170.0
IMPORT_PACKAGES = ("scipy.signal", "scipy.fft", "scipy.stats", "scipy.integrate", "llt_lab")

#: which end-to-end metric, on which workloads, each per-layer metric should
#: move; the first matching prefix applies
MOVES = (
    ("lattice.", "run_s, peak_rss_mb", "heavy_tail"),
    ("exact.weighted_sum_law.", "run_s", "estimators"),
    ("exact.RunningConvolution.", "run_s", "estimators"),
    ("exact.sum_law.repeat_ratio", "run_s", "llt_scan"),
    ("exact.", "run_s", "heavy_tail, llt_scan"),
    ("approx.delta_n_report.", "run_s", "llt_scan"),
    ("approx.edgeworth3_sup_error.", "run_s", "llt_scan"),
    ("approx.variation_distance.", "run_s", "llt_scan"),
    ("approx.mukhin_criterion.", "run_s", "llt_scan"),
    ("approx.", "run_s", "heavy_tail"),
    ("characteristics.", "run_s", "llt_scan"),
    ("bernoulli_part.", "run_s", "llt_scan"),
    ("poisson.", "run_s", "llt_scan"),
    ("suites.", "run_s", "llt_scan"),
    ("asllt.", "run_s", "estimators"),
    ("cli.import_s", "setup_s", "heavy_tail, llt_scan, estimators"),
    ("import.", "setup_s", "heavy_tail, llt_scan, estimators"),
    ("cli.", "run_s", "llt_scan, estimators"),
    ("trace.", "run_s (traced minus untraced)", "heavy_tail, llt_scan, estimators"),
)


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def moves(metric: str) -> tuple[str, str]:
    for prefix, e2e, workloads in MOVES:
        if metric.startswith(prefix):
            return e2e, workloads
    raise HarnessError(f"per-layer metric {metric} has no end-to-end target")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    env.update(LLT_LAB_THREADS=str(nproc()), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1", VECLIB_MAXIMUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu, "platform": platform.platform()}


def run_child(workload: str, seed: int, size: str, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", str(int(trace))]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    rep = json.loads(lines[-1])
    rep["setup_s"] = rep.pop("ready") - spawned
    return rep


def import_times() -> dict:
    """Self time summed over each package's modules, and the cumulative time of
    the package's own line (absent for packages scipy loads through its lazy
    submodule hook, which report 0)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import llt_lab.cli"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"import of llt_lab.cli failed:\n{proc.stderr[-2000:]}")
    out = {f"import.{pkg}.{k}": 0.0 for pkg in IMPORT_PACKAGES for k in ("self_s", "cum_s")}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = (f.strip() for f in line[len("import time:"):].split("|"))
        for pkg in IMPORT_PACKAGES:
            if name == pkg or name.startswith(pkg + "."):
                out[f"import.{pkg}.self_s"] += int(self_us) / 1e6
            if name == pkg and not out[f"import.{pkg}.cum_s"]:
                out[f"import.{pkg}.cum_s"] = int(cum_us) / 1e6
    return out


def repeat(workload: str, seed: int, seconds: float, size: str, traced_too: bool):
    """Repetitions until ``seconds`` have passed; with ``traced_too`` they alternate."""
    need = 1 if size == "smoke" else 2 if traced_too else MIN_REPS
    start = time.monotonic()
    plain, traced = [], []
    while True:
        plain.append(run_child(workload, seed, size, False))
        if traced_too:
            traced.append(run_child(workload, seed, size, True))
        elapsed = time.monotonic() - start
        next_end = elapsed * (len(plain) + 1) / len(plain)
        if len(plain) >= need and (elapsed >= seconds or next_end > DEADLINE_S):
            return plain, traced


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> tuple[dict, dict]:
    """Result object (the contract's last line) and the information line before it."""
    plain, traced = repeat(workload, seed, seconds, size, trace)
    reps = plain + traced
    outputs = {json.dumps(r["outputs"]) for r in reps}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    def med(key, rs=plain):
        return statistics.median(r[key] for r in rs)

    if not trace:
        metrics = {"setup_s": med("setup_s"), "run_s": med("run_s"),
                   "peak_rss_mb": med("peak_rss_mb"), "ok_frac": 1.0 - failed / attempted}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        imports = import_times()
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_frac":
                # pairs run back to back, so machine drift largely cancels
                metrics[name] = statistics.median(
                    t["run_s"] / p["run_s"] for p, t in zip(plain, traced)) - 1.0
            elif name == "cli.import_s":
                metrics[name] = med("import_s", reps)
            elif name in imports:
                metrics[name] = imports[name]
            elif name in traced[0]["layers"]:
                metrics[name] = statistics.median(r["layers"][name] for r in traced)
            else:
                raise HarnessError(f"per-layer metric {name} is not produced by the tracer")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    result = {"correct": failed == 0 and len(outputs) == 1, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    info = {"workload": workload, "seed": seed, "seconds": seconds, "size": size,
            "trace": int(trace), "machine": machine(), "versions": reps[0]["versions"],
            "repetitions": len(plain), "traced_repetitions": len(traced),
            "digest": hashlib.sha256(json.dumps(reps[0]["outputs"]).encode()).hexdigest(),
            "outputs_identical": len(outputs) == 1,
            "failures": sorted({f for r in reps for f in r["failures"]}),
            "per_repetition": {k: [r[k] for r in plain] for k in ("setup_s", "run_s", "peak_rss_mb")}}
    if trace:
        info["per_repetition"]["traced_run_s"] = [r["run_s"] for r in traced]
        info["moves"] = {m["name"]: moves(m["name"]) for m in spec["per_layer"]}
    return result, info


def run_all(spec: dict, seed: int, seconds: float) -> int:
    rows, report = [], {"date": datetime.date.today().isoformat(), "seed": seed,
                        "seconds": seconds, "machine": machine(), "workloads": {}}
    ok = True
    for w in WORKLOADS:
        e2e, info = measure(spec, w, seed, seconds, False)
        layers, linfo = measure(spec, w, seed, seconds, True)
        ok = ok and e2e["correct"] and layers["correct"]
        report["versions"] = info["versions"]
        report["workloads"][w] = {"end_to_end": e2e, "per_layer": layers, "info": info,
                                  "traced_info": linfo}
        m = e2e["metrics"]
        rows.append((w, m["setup_s"]["value"], m["run_s"]["value"], m["peak_rss_mb"]["value"],
                     e2e["failed"] / e2e["attempted"], info["digest"][:12]))
    print(f"{'workload':<12} {'setup_s [s]':>12} {'run_s [s]':>10} {'peak_rss_mb [MB]':>17} "
          f"{'failed_frac [ratio]':>20}  digest")
    for w, setup, run, rss, frac, digest in rows:
        print(f"{w:<12} {setup:>12.3f} {run:>10.3f} {rss:>17.1f} {frac:>20.4f}  {digest}")
    out = HERE / "results" / f"BENCH_{report['date']}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


def smoke(spec: dict) -> int:
    """Each workload at a tiny size, both modes; every named metric must appear with its unit."""
    problems = []
    for w in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = measure(spec, w, 0, 0.0, trace, size="smoke")
            if not result["correct"]:
                problems.append(f"{w} trace={int(trace)}: incorrect ({result['failed']} failed)")
            for m in spec[section]:
                got = result["metrics"].get(m["name"])
                if (got is None or got["unit"] != m["unit"]
                        or not isinstance(got["value"], (int, float))):
                    problems.append(f"{w} trace={int(trace)}: {m['name']} missing or malformed")
                if trace:
                    moves(m["name"])
    for p in problems:
        print(p)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, write results/")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes; check metric names and units")
    args = ap.parse_args(argv)
    try:
        if not (SRC / "llt_lab" / "__init__.py").is_file():
            raise HarnessError(f"no package source at {SRC / 'llt_lab'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        # byte-compile up front so the first repetition does not pay for it
        compileall.compile_dir(SRC / "llt_lab", quiet=1)
        compileall.compile_dir(HERE, quiet=1)
        if args.smoke:
            return smoke(spec)
        if args.all:
            return run_all(spec, args.seed, seconds)
        if args.workload is None:
            ap.error("--workload, --all or --smoke is required")
        result, info = measure(spec, args.workload, args.seed, seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
