"""The three benchmark workloads as lists of tasks.

A task's ``run`` calls into llt_lab and is the only part that is timed (and
traced).  Its ``check`` compares what ``run`` returned against an oracle from
``oracles`` and returns text describing the deterministic outputs, which the
harness hashes into the workload digest.  Each workload function generates
its inputs from the workload seed; the package only sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from llt_lab import approx, asllt, bernoulli_part, characteristics, cli, exact, gen, lattice, poisson

import oracles as orc


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str]


def _floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the llt-lab command line in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# -- heavy_tail ------------------------------------------------------------------

HEAVY_TAIL = {
    # 10^6 atoms keeps peak memory near 0.5 GB; the README's default
    # truncation (8.4M atoms) needs 3.3 GB
    "full": dict(alpha=0.5, tail_mass=1e-3, n_grid=(8, 16, 32, 64), x_max=60.0,
                 fm_alpha=1.5, fm_max_index=200_000, doney_n=32,
                 doney_mults=(8, 16, 32, 64, 128, 256, 512), doney_picks=3),
    "smoke": dict(alpha=0.5, tail_mass=0.03, n_grid=(4, 8), x_max=10.0,
                  fm_alpha=1.5, fm_max_index=5_000, doney_n=8,
                  doney_mults=(8, 16, 32), doney_picks=2),
}

#: reference values are stored with their relative tolerances in this file
REFERENCE = Path(__file__).with_name("reference.json")


def _same_law(a, b, what: str) -> None:
    orc.require((a.v0, a.D, a.offset, a.family) == (b.v0, b.D, b.offset, b.family),
                f"{what}: lattice or family descriptor changed")
    orc.require(a.dense.tobytes() == b.dense.tobytes(), f"{what}: masses not bit-identical")


def heavy_tail(seed: int, size: str, work: Path) -> list[Task]:
    cfg = HEAVY_TAIL[size]
    ref = json.loads(REFERENCE.read_text())["heavy_tail"][size]
    rng = np.random.default_rng(seed)
    mults = sorted(int(m) for m in rng.choice(cfg["doney_mults"], cfg["doney_picks"], replace=False))
    points = [cfg["doney_n"] * m for m in mults]
    state: dict = {}

    def build():
        state["tail"] = lattice.power_tail(cfg["alpha"], tail_mass=cfg["tail_mass"])
        return state["tail"]

    def check_build(p):
        J = max(math.ceil((1.0 / cfg["tail_mass"]) ** (1.0 / cfg["alpha"])), 8)
        orc.require(p.family["truncation_index"] == J and len(p.dense) == J,
                    f"power_tail: {len(p.dense)} atoms, expected {J}")
        orc.close(p.dense.sum(), 1.0, "power_tail total mass", atol=1e-12)
        orc.close(p.discarded_mass, float(J + 1) ** -cfg["alpha"], "discarded mass", rtol=1e-12)
        return f"atoms={len(p.dense)} discarded={p.discarded_mass!r}"

    def spec_roundtrip():
        state["spec"] = lattice.LatticePmf.from_json(state["tail"].to_json())
        return state["spec"]

    def check_spec(q):
        _same_law(q, state["tail"], "JSON spec round-trip")
        return q.to_json()

    def stable(n):
        def run():
            return approx.stable_llt_error(state["spec"], n, x_max=cfg["x_max"])

        def check(rep):
            orc.close(rep.error, ref["stable_error"][str(n)], f"stable error n={n}",
                      rtol=ref["stable_rtol"])
            orc.require(rep.flags == (), f"stable error n={n}: flags {rep.flags}")
            return f"n={n} {rep.error!r} {rep.exact!r} {rep.approx!r}"
        return Task(f"stable_llt_error[{n}]", run, check)

    def closed_form():
        params = approx.StableParams(alpha=0.5)
        xs = (0.5, 1.0, 2.0, 5.0, 20.0)
        return xs, [approx.stable_density(params, x) for x in xs]

    def check_closed_form(res):
        xs, got = res
        orc.close(got, [orc.stable_half_density(x) for x in xs], "stable density at alpha=1/2",
                  atol=1e-9)
        return _floats(got)

    def build_finite_mean():
        state["fm"] = lattice.power_tail(cfg["fm_alpha"], max_index=cfg["fm_max_index"])
        return state["fm"]

    def check_finite_mean(p):
        orc.require(len(p.dense) == cfg["fm_max_index"], "finite-mean tail truncation")
        orc.close(p.dense.sum(), 1.0, "finite-mean tail total mass", atol=1e-12)
        return repr(p.discarded_mass)

    def explicit_roundtrip():
        fm = state["fm"]
        explicit = lattice.LatticePmf(fm.v0, fm.D, dict(fm.weights))
        return explicit, lattice.LatticePmf.from_json(explicit.to_json())

    def check_explicit(res):
        explicit, back = res
        orc.require(explicit.dense.tobytes() == state["fm"].dense.tobytes(),
                    "explicit copy of the finite-mean tail")
        _same_law(back, explicit, "explicit JSON round-trip")
        return f"explicit atoms={len(back.dense)}"

    def doney(m):
        def run():
            return approx.doney_ratio(state["fm"], cfg["doney_n"], m)

        def check(ratio):
            orc.close(ratio, ref["doney_ratio"][str(m)], f"doney ratio m={m}",
                      rtol=ref["doney_rtol"])
            return f"m={m} {ratio!r}"
        return Task(f"doney_ratio[{m}]", run, check)

    def capped_table():
        return exact.sum_law(state["fm"], cfg["doney_n"], max_index=points[-1] + 4)

    def check_capped(law):
        orc.ledger(law, "capped finite-mean table")
        orc.require(law.beyond_mass > 0, "capped table reports no beyond mass")
        return f"beyond={law.beyond_mass!r} lost={law.lost_mass!r} len={len(law.probs)}"

    return ([Task("power_tail", build, check_build),
             Task("spec_roundtrip", spec_roundtrip, check_spec)]
            + [stable(n) for n in cfg["n_grid"]]
            + [Task("stable_density_closed_form", closed_form, check_closed_form),
               Task("power_tail_finite_mean", build_finite_mean, check_finite_mean),
               Task("explicit_roundtrip", explicit_roundtrip, check_explicit)]
            + [doney(m) for m in points]
            + [Task("capped_sum_law", capped_table, check_capped)])


# -- llt_scan ------------------------------------------------------------------------

LLT_SCAN = {
    # widths of the random laws' dense windows; the grid crosses
    # exact.DIRECT_CONV_LIMIT for windows wider than 4
    "full": dict(adjacent=tuple(range(3, 13)) * 5, mixing=(3, 4, 5, 6) * 12,
                 grid=(4, 32, 256, 1024), coin_n=256, kappa_points=40, poisson_cases=16,
                 bernoulli=(0.5, 0.2), bernoulli_grid=(64, 1024, 8192)),
    "smoke": dict(adjacent=(4, 8), mixing=(3, 5), grid=(4, 32), coin_n=32, kappa_points=8,
                  poisson_cases=2, bernoulli=(0.5,), bernoulli_grid=(64,)),
}


def _with_widths(draw, widths) -> list:
    """One law per entry of ``widths``, redrawn until its window has that width.

    The cost of a law's task grows steeply with its width, so fixing the
    widths keeps the work the same for every seed.
    """
    laws = []
    for width in widths:
        p = draw()
        while len(p.dense) != width:
            p = draw()
        laws.append(p)
    return laws


def _law_task(name: str, p, cfg) -> Task:
    def run():
        per_n = []
        for n in cfg["grid"]:
            rep = approx.delta_n_report(p, n)
            law = exact.sum_law(p, n)
            per_n.append((n, law, rep.error, approx.edgeworth3_sup_error(p, n),
                          approx.variation_distance(law), approx.mukhin_criterion(p, n)))
        rec = characteristics.characteristics_record(p.relabel())
        # coin-extraction sandwich around the exact point masses
        n = cfg["coin_n"]
        dec = bernoulli_part.decompose(p)
        law = exact.sum_law(p, n)
        theta_n = n * dec.theta
        h = min(0.9, max(0.1, math.sqrt(7.0 * math.log(max(theta_n, 2.0)) / (2.0 * theta_n))))
        inp = bernoulli_part.EffectiveRateInput(
            n=n, var_sn=law.meta.sigma2, mean_sn=law.meta.mu, theta_n=theta_n,
            h_n=bernoulli_part.h_n_exact(dec, n), rho_n=bernoulli_part.rho_exact_iid(n, dec.theta, h),
            h=h, D=p.D, C0=1.5 * approx.measure_lltber_constant())
        stride = max(1, len(law.probs) // cfg["kappa_points"])
        ks = law.offset + np.arange(0, len(law.probs), stride)
        bounds = [bernoulli_part.effective_bounds(inp, float(v)) for v in law.points(ks)]
        return per_n, rec, law, ks, bounds

    def check(res):
        per_n, rec, law, ks, bounds = res
        lines = []
        for n, table, *values in per_n:
            orc.ledger(table, f"{name} n={n}")
            orc.require(all(math.isfinite(v) and v >= 0 for v in values), f"{name} n={n}: {values}")
            lines.append(f"n={n} {_floats(values)}")
        orc.close(rec.delta, 2.0 * (1.0 - rec.theta), f"{name}: delta = 2(1 - theta)", atol=1e-12)
        orc.require(all(0.0 <= v < 1.0 for v in rec.nu.values()), f"{name}: nu outside [0,1)")
        orc.ledger(law, f"{name} coin table")
        for k, b in zip(ks, bounds):
            orc.require(b.lower <= law.prob(int(k)) <= b.upper,
                        f"{name}: P(S_n = {k}) outside the explicit sandwich")
        lines.append(f"delta={rec.delta!r} theta={rec.theta!r} "
                     f"D={_floats(rec.mukhinD.values())} H={_floats(rec.H.values())} "
                     f"nu={_floats(rec.nu.values())}")
        lines.append(_floats(b.upper for b in bounds) + " | " + _floats(b.lower for b in bounds))
        return "\n".join(lines)
    return Task(name, run, check)


def _bernoulli_task(p: float, n: int) -> Task:
    def run():
        return exact.sum_law(lattice.bernoulli(p), n)

    def check(law):
        orc.ledger(law, f"bernoulli({p}) n={n}")
        orc.close(law.probs, orc.binomial_table(n, p, law.offset, len(law.probs)),
                  f"bernoulli({p}) n={n} against binom.pmf", atol=1e-12)
        return f"p={p} n={n} {law.total_mass()!r}"
    return Task(f"bernoulli[{p},{n}]", run, check)


def _poisson_task(i: int, ps: np.ndarray) -> Task:
    def run():
        laws = [np.array([1.0 - q, q]) for q in ps]
        lam = float(np.sum(ps))
        pb = poisson.poisson_binomial_law(ps)
        total = poisson.convolve_laws(laws)
        return (pb, poisson.coupling(ps), poisson.lecam_full_sum(ps), poisson.lecam_bound(ps),
                poisson.d0_distance(total, poisson.poisson_pmf(lam)), poisson.franken_bound(laws),
                poisson.tv_distance(pb, poisson.poisson_pmf(lam)))

    def check(res):
        pb, cp, full, lecam, d0, franken, tv = res
        orc.ledger(pb, f"poisson case {i}")
        orc.close(orc.dense_from(pb), orc.poisson_binomial_dp(ps), f"poisson case {i} against DP",
                  atol=1e-14)
        orc.require(full <= lecam + 1e-12, f"poisson case {i}: full sum {full} > bound {lecam}")
        orc.require(d0 <= franken + 1e-12, f"poisson case {i}: d0 {d0} > bound {franken}")
        orc.close(2.0 * tv, full, f"poisson case {i}: full sum = 2 tv", rtol=1e-12)
        orc.close([cp.row_sum(r) for r in range(len(ps))], np.ones(len(ps)),
                  f"poisson case {i}: coupling rows", atol=1e-12)
        return _floats((full, lecam, d0, franken, tv))
    return Task(f"poisson[{i}]", run, check)


def _verify_task() -> Task:
    def run():
        return _cli(["verify", "--suite", "all"])

    def check(res):
        rc, out, err = res
        orc.require(rc == 0, f"verify exited {rc}: {err.strip() or out.strip()[-200:]}")
        return out
    return Task("verify_all", run, check)


def llt_scan(seed: int, size: str, work: Path) -> list[Task]:
    cfg = LLT_SCAN[size]
    rng = np.random.default_rng(seed)
    adjacent = _with_widths(lambda: gen.random_adjacent_pmf(rng), cfg["adjacent"])
    mixing = _with_widths(lambda: gen.mixing_span1_pmf(rng), cfg["mixing"])
    laws = [(f"adjacent[{i}]", p) for i, p in enumerate(adjacent)]
    laws += [(f"mixing[{i}]", p) for i, p in enumerate(mixing)]
    laws += [("bernoulli(0.5)", lattice.bernoulli(0.5)), ("uniform(0..5)", lattice.uniform_range(0, 5)),
             ("lazy", lattice.lazy_walk()), ("coin", lattice.centered_coin())]
    cases = [rng.uniform(0.01, 0.45, size=int(rng.integers(2, 13))) for _ in range(cfg["poisson_cases"])]

    def constant():
        return approx.measure_lltber_constant()

    def check_constant(c):
        orc.close(c, orc.fair_coin_constant(4096, 16), "fair-coin local constant", rtol=1e-6)
        return repr(c)

    return ([Task("lltber_constant", constant, check_constant)]
            + [_law_task(name, p, cfg) for name, p in laws]
            + [_bernoulli_task(p, n) for p in cfg["bernoulli"] for n in cfg["bernoulli_grid"]]
            + [_poisson_task(i, ps) for i, ps in enumerate(cases)]
            + [_verify_task()])


# -- estimators --------------------------------------------------------------------------

ESTIMATORS = {
    "full": dict(seeds=20, path_N=500_000, ce_N=20_000, rerun_seeds=4, exp_N=20_000,
                 markov_exp_N=5_000, dickman_exp_N=20_000, strong_n=1000,
                 small_dickman=(5, 10, 20, 40), small_N=12),
    "smoke": dict(seeds=4, path_N=2_000, ce_N=500, rerun_seeds=2, exp_N=500,
                  markov_exp_N=200, dickman_exp_N=500, strong_n=60,
                  small_dickman=(5, 10), small_N=8),
}

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _read_paths(path: Path) -> tuple[str, list[list[str]]]:
    text = path.read_text()
    return text, list(csv.reader(io.StringIO(text)))[1:]


def _path_task(kind: str, argv: list[str], target: float, N: int, cfg, lo: int,
               work: Path) -> Task:
    seeds = f"{lo}:{lo + cfg['seeds']}"

    def run():
        return _cli(["asllt", "--kind", kind, "--N", str(N), "--seeds", seeds,
                     "--out", str(work / "pool")] + argv)

    def check(res):
        rc, _, err = res
        orc.require(rc == 0, f"asllt {kind} exited {rc}: {err.strip()}")
        body, rows = _read_paths(work / "pool" / f"asllt_{kind}.csv")
        orc.require({int(r[1]) for r in rows} == set(range(lo, lo + cfg["seeds"])),
                    f"asllt {kind}: seeds missing from the CSV")
        values = [float(r[3]) for r in rows]
        orc.require(all(math.isfinite(v) and v >= 0 for v in values), f"asllt {kind}: bad estimate")
        orc.close([float(r[4]) for r in rows], np.full(len(rows), target), f"asllt {kind} target",
                  rtol=1e-12)
        # the CSV must not depend on the number of workers
        sub = f"{lo}:{lo + cfg['rerun_seeds']}"
        old = os.environ.get("LLT_LAB_THREADS")
        os.environ["LLT_LAB_THREADS"] = "1"
        try:
            rc, _, err = _cli(["asllt", "--kind", kind, "--N", str(N), "--seeds", sub,
                               "--out", str(work / "one")] + argv)
        finally:
            if old is None:
                del os.environ["LLT_LAB_THREADS"]
            else:
                os.environ["LLT_LAB_THREADS"] = old
        orc.require(rc == 0, f"asllt {kind} with one worker exited {rc}: {err.strip()}")
        _, single = _read_paths(work / "one" / f"asllt_{kind}.csv")
        wanted = [r for r in rows if int(r[1]) < lo + cfg["rerun_seeds"]]
        orc.require(single == wanted, f"asllt {kind}: one-worker CSV differs from the pool's")
        return body
    return Task(f"paths[{kind}]", run, check)


def estimators(seed: int, size: str, work: Path) -> list[Task]:
    cfg = ESTIMATORS[size]
    rng = np.random.default_rng(seed)
    lo = 1000 * seed
    kappa = round(float(rng.uniform(-1.0, 1.0)), 6)
    p01, p10 = (round(float(v), 6) for v in rng.uniform(0.15, 0.85, size=2))
    coin, lazy = lattice.bernoulli(0.5), lattice.lazy_walk()
    chain = asllt.TwoStateChain(p01, p10)
    state: dict = {}
    k = f"--kappa={kappa!r}"
    for sub in ("pool", "one"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    paths = [
        _path_task("t1", ["--dist", "bernoulli:0.5", k],
                   2.0 / SQRT_2PI * math.exp(-0.5 * kappa * kappa), cfg["path_N"], cfg, lo, work),
        _path_task("markov", ["--p01", repr(p01), "--p10", repr(p10), k],
                   math.exp(-0.5 * kappa * kappa) / SQRT_2PI, cfg["path_N"], cfg, lo, work),
        _path_task("dickman", ["--x", "1.0"], math.exp(-float(np.euler_gamma)), cfg["path_N"],
                   cfg, lo, work),
        _path_task("ce", ["--dist", "lazy", "--a", "0"], 1.0, cfg["ce_N"], cfg, lo, work),
    ]

    def iid_expectation():
        return asllt.asllt_expectation(coin, kappa, cfg["exp_N"])

    def check_iid(v):
        orc.close(v, orc.fair_coin_expectation(kappa, cfg["exp_N"]), "asllt_expectation", rtol=1e-9)
        return repr(v)

    def hit_masses():
        return asllt.hit_mass_sequence(lazy, 0, cfg["exp_N"])

    def check_hits(m):
        orc.close(m, orc.lazy_return_masses(cfg["exp_N"]), "hit_mass_sequence of the lazy walk",
                  rtol=1e-9)
        return repr(float(m.sum()))

    def markov_expectation():
        return asllt.markov_asllt_expectation(chain, kappa, cfg["markov_exp_N"])

    def check_markov(v):
        orc.require(math.isfinite(v) and v > 0, f"markov expectation {v}")
        small = asllt.markov_asllt_expectation(chain, kappa, cfg["small_N"])
        orc.close(small, orc.markov_expectation_brute(p01, p10, kappa, cfg["small_N"]),
                  "markov expectation against enumeration", rtol=1e-12)
        return repr(v)

    def rho():
        state["rho"] = asllt.dickman_rho()
        return state["rho"]

    def check_rho(r):
        orc.close(float(r(2.0)), 1.0 - math.log(2.0), "dickman rho(2)", atol=1e-8)
        return repr(float(r.values.sum()))

    def dickman_expectation():
        return asllt.dickman_expectation(cfg["dickman_exp_N"], 1.0, state["rho"])

    def check_dickman_expectation(v):
        orc.require(math.isfinite(v) and v > 0, f"dickman expectation {v}")
        small = asllt.dickman_expectation(cfg["small_N"], 1.0, state["rho"])
        orc.close(small, orc.dickman_expectation_dp(cfg["small_N"], 1.0),
                  "dickman expectation against the direct DP", rtol=1e-12)
        return repr(v)

    def small_laws():
        return [asllt.dickman_sum_law(n) for n in cfg["small_dickman"]]

    def check_small_laws(tables):
        for n, t in zip(cfg["small_dickman"], tables):
            orc.ledger(t, f"dickman law n={n}")
            orc.close(orc.dense_from(t), orc.dickman_dp(n), f"dickman law n={n} against DP",
                      atol=1e-14)
        return _floats(t.probs.sum() for t in tables)

    def strong():
        return asllt.dickman_strong_llt(cfg["strong_n"], state["rho"])

    def check_strong(v):
        orc.require(0.0 < v < 1.0, f"dickman strong LLT distance {v}")
        return repr(v)

    return paths + [
        Task("asllt_expectation", iid_expectation, check_iid),
        Task("hit_mass_sequence", hit_masses, check_hits),
        Task("markov_asllt_expectation", markov_expectation, check_markov),
        Task("dickman_rho", rho, check_rho),
        Task("dickman_expectation", dickman_expectation, check_dickman_expectation),
        Task("dickman_sum_law", small_laws, check_small_laws),
        Task("dickman_strong_llt", strong, check_strong),
    ]


WORKLOADS = {"heavy_tail": heavy_tail, "llt_scan": llt_scan, "estimators": estimators}
