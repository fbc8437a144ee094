"""Command line front end.

Subcommands load a distribution spec, run one experiment family and write
deterministic CSV tables (optionally a small SVG error curve).  Outputs are
byte-identical across reruns with the same inputs and seeds; parallel width
is capped by the LLT_LAB_THREADS environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import asllt as asl
from .approx import delta_n_report, stable_llt_error, write_reports_csv
from .characteristics import characteristics_record
from .errors import LltLabError
from .exact import sum_law
from .lattice import (LatticePmf, bernoulli, centered_coin, lazy_walk, power_tail,
                      uniform_range, write_csv)
from .rng import worker_count
from .suites import run_suite


def parse_dist(spec: str) -> LatticePmf:
    """Inline family (bernoulli:p, uniform:a..b, coin, lazy, power_tail:a[,c]) or JSON path."""
    if spec == "coin":
        return centered_coin()
    if spec == "lazy":
        return lazy_walk()
    if ":" in spec:
        name, _, arg = spec.partition(":")
        if name == "bernoulli":
            return bernoulli(float(arg))
        if name == "uniform":
            a, _, b = arg.partition("..")
            return uniform_range(int(a), int(b))
        if name == "power_tail":
            parts = arg.split(",")
            c = float(parts[1]) if len(parts) > 1 else 1.0
            return power_tail(float(parts[0]), c=c)
        raise LltLabError(f"unknown family {name!r}")
    path = Path(spec)
    if not path.exists():
        raise LltLabError(f"distribution spec not found: {spec}")
    return LatticePmf.from_json(path.read_text())


def parse_grid(text: str) -> list[int]:
    """Dyadic range "a..b" (doubling, 1 <= a <= b) or explicit comma list."""
    if ".." in text:
        a, _, b = text.partition("..")
        lo, hi = int(a), int(b)
        if not 1 <= lo <= hi:
            raise LltLabError(f"dyadic range {text!r} needs 1 <= a <= b")
        out = []
        n = lo
        while n <= hi:
            out.append(n)
            n *= 2
        return out
    return [int(x) for x in text.split(",")]


def parse_seeds(args) -> list[int]:
    if args.seeds:
        a, _, b = args.seeds.partition(":")
        lo, hi = int(a), int(b)
        if not lo < hi:
            raise LltLabError(f"seed range {args.seeds!r} needs lo < hi")
        return list(range(lo, hi))
    return [args.seed]


def _write_out(args, name: str, write, *data, **kw) -> None:
    """write(path, *data, **kw) to the file name under --out, then report the path."""
    path = Path(args.out) / name
    write(path, *data, **kw)
    print(f"wrote {path}")


def _write_svg(path: Path, xs, ys, title: str) -> None:
    """Minimal deterministic polyline plot (log-free, scaled to the data box)."""
    W, H, pad = 640, 400, 40
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = (W - 2 * pad) / (x1 - x0 if x1 > x0 else 1.0)
    sy = (H - 2 * pad) / (y1 - y0 if y1 > y0 else 1.0)
    pts = " ".join(f"{pad + (x - x0) * sx:.2f},{H - pad - (y - y0) * sy:.2f}"
                   for x, y in zip(xs, ys))
    body = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">'
        f'<rect width="{W}" height="{H}" fill="white"/>'
        f'<text x="{pad}" y="20" font-size="14">{title}</text>'
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>'
        "</svg>\n"
    )
    path.write_text(body)


def cmd_delta_n(args) -> int:
    p = parse_dist(args.dist)
    grid = parse_grid(args.n)
    reports = [delta_n_report(p, n) for n in grid]
    _write_out(args, "delta_n.csv", write_reports_csv, reports,
               comment="delta_n = sup_N |B_n P(S_n=N) - (D/sqrt(2pi)) exp(-(N-M_n)^2/(2 B_n^2))|")
    if args.format == "svg":
        _write_out(args, "delta_n.svg", _write_svg, grid, [r.error for r in reports],
                   "scaled local error vs n")
    return 0


def _seed_batches(seeds: list[int], k: int) -> list[list[int]]:
    """seeds cut into k runs of consecutive seeds whose lengths differ by at most one."""
    q, r = divmod(len(seeds), k)
    cuts = [i * q + min(i, r) for i in range(k + 1)]
    return [seeds[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


#: --kind -> the builder of that estimator's batch kernel, args -> (seeds -> estimates).
#: The model is built once; laws and chains are immutable, so the worker threads share it.
ASLLT_KINDS = {
    "t1": lambda args: functools.partial(asl.asllt_paths, parse_dist(args.dist), args.kappa,
                                         args.N),
    "ce": lambda args: asl.chung_erdos_kernel(parse_dist(args.dist), args.a, args.N),
    "markov": lambda args: functools.partial(
        asl.markov_asllt_paths, asl.TwoStateChain(args.p01, args.p10), args.kappa, args.N),
    "dickman": lambda args: functools.partial(asl.asllt_dickman_paths, args.N,
                                              rho=asl.dickman_rho(), x=args.x),
}


def cmd_asllt(args) -> int:
    seeds = parse_seeds(args)
    paths = ASLLT_KINDS[args.kind](args)
    # each worker runs one batch of seeds in one pass; the rows come back in seed order
    batches = _seed_batches(seeds, worker_count(len(seeds)))
    with ThreadPoolExecutor(max_workers=len(batches)) as pool:
        estimates = [est for batch in pool.map(paths, batches) for est in batch]
    _write_out(args, f"asllt_{args.kind}.csv", asl.write_paths_csv, estimates)
    if args.format == "svg":
        est = estimates[0]
        _write_out(args, f"asllt_{args.kind}.svg", _write_svg,
                   [math.log10(n) for n, _ in est.checkpoints], [v for _, v in est.checkpoints],
                   f"log-average trace vs log10 N (target {est.target:.4f})")
    return 0


def cmd_dickman_rho(args) -> int:
    rho = asl.dickman_rho(u_max=args.u_max, step=args.step)
    rows = ((i * rho.step, v) for i, v in enumerate(rho.values.tolist()))
    _write_out(args, "dickman_rho.csv", write_csv, ["u", "rho"], rows,
               "solution of u r'(u) + r(u-1) = 0, r=1 on [0,1]")
    return 0


def cmd_stable_error(args) -> int:
    p = power_tail(args.alpha, c=args.c)
    grid = parse_grid(args.n)
    reports = [stable_llt_error(p, n, x_max=args.x_max) for n in grid]
    _write_out(args, "stable_error.csv", write_reports_csv, reports,
               comment="sup_m |B_n P(S_n=m) - g(m/B_n)|")
    return 0


def cmd_characteristics(args) -> int:
    p = parse_dist(args.dist).relabel()
    _write_out(args, "characteristics.csv", characteristics_record(p).to_csv)
    return 0


def cmd_sum_law(args) -> int:
    law = sum_law(parse_dist(args.dist), args.N)
    _write_out(args, f"sum_law_{args.N}.csv", law.to_csv)
    return 0


def cmd_verify(args) -> int:
    checks = run_suite(args.suite)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[{status}] {name}{suffix}")
        if not ok:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="llt-lab",
                                 description="exact lattice-sum distributions and "
                                             "local limit diagnostics")
    sub = ap.add_subparsers(dest="command", required=True)
    required, count = {"required": True}, {"type": int, "required": True}
    # name -> (help, runner, writes an SVG, flags).  Built per call, not at import, so the
    # parser calls whatever runner the module holds now (a tracer may have wrapped it).
    commands = {
        "delta-n": ("scaled sup-error of the Gaussian local term", cmd_delta_n, True, {
            "--dist": required,
            "--n": {"required": True, "help": "dyadic range a..b or comma list"}}),
        "asllt": ("almost-sure local estimator paths", cmd_asllt, True, {
            "--kind": {"choices": list(ASLLT_KINDS), "required": True},
            "--dist": {"default": "bernoulli:0.5"},
            "--x": {"type": float, "default": 1.0, "help": "dickman target slope"},
            "--kappa": {"type": float, "default": 0.0, "help": "normalised offset"},
            "--a": {"type": int, "default": 0, "help": "fixed level for the ce kind"},
            "--p01": {"type": float, "default": 0.5},
            "--p10": {"type": float, "default": 0.5},
            "--N": count,
            "--seed": {"type": int, "default": 0},
            "--seeds": {"help": "half-open range lo:hi of master seeds"}}),
        "dickman-rho": ("tabulate the delay-equation solution", cmd_dickman_rho, False, {
            "--u-max": {"type": float, "default": 20.0},
            "--step": {"type": float, "default": 1.0 / 1024.0}}),
        "stable-error": ("local error against the stable density", cmd_stable_error, False, {
            "--alpha": {"type": float, "required": True},
            "--c": {"type": float, "default": 1.0},
            "--n": required,
            "--x-max": {"type": float, "default": 60.0}}),
        "characteristics": ("structural characteristics table", cmd_characteristics, False,
                            {"--dist": required}),
        "sum-law": ("exact pmf table of S_N", cmd_sum_law, False,
                    {"--dist": required, "--N": count}),
        "verify": ("run invariant suites", cmd_verify, False, {"--suite": {"default": "all"}}),
    }
    for name, (help_, runner, svg, flags) in commands.items():
        p = sub.add_parser(name, help=help_)
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        if name != "verify":  # the one runner that writes no file
            p.add_argument("--out", default=".", help="output directory")
        if svg:
            p.add_argument("--format", choices=["csv", "svg"], default="csv")
        p.set_defaults(fn=runner)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if "out" in args and not Path(args.out).is_dir():  # before any work
            raise LltLabError(f"--out {args.out!r} is not an existing directory")
        return args.fn(args)
    except (LltLabError, ValueError, KeyError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
