"""Invariant suites behind ``llt-lab verify``.

Each suite returns a list of (check name, passed, detail) triples.  The
checks mirror the package's exact identities and inequality web on seeded
random inputs; they are deliberately cheap so the whole battery runs in
well under a minute.
"""

from __future__ import annotations

import math

import numpy as np

from . import bernoulli_part as bp
from . import characteristics as ch
from . import poisson as ps
from .approx import delta_n, variation_distance
from .asllt import dickman_rho
from .exact import convolve_tables, sum_law
from .gen import mixing_span1_pmf, random_adjacent_pmf, random_pmf, seeded
from .lattice import LatticePmf, bernoulli, char_fn, moments

Check = tuple[str, bool, str]


def identities_suite() -> list[Check]:
    rng = seeded(2024)
    out: list[Check] = []
    worst_dt = worst_rec = worst_var = worst_lmd = 0.0
    for _ in range(50):
        p = random_adjacent_pmf(rng)
        worst_dt = max(worst_dt, abs(ch.delta_char(p) - 2.0 * (1.0 - ch.theta_char(p))))
        dec = bp.decompose(p)
        worst_rec = max(worst_rec, ps.tv_distance(dec.reconstructed(), p))
        n = int(rng.integers(2, 7))
        sp = bp.exact_Sprime_law(dec, n)
        sn = sum_law(p, n)
        worst_var = max(worst_var, abs(sp.meta.sigma2
                                       - (sn.meta.sigma2 - 0.25 * n * dec.theta)))
        # sum identity: W_n + D M_n with binomial mixing over the eps count
        mix = _mixture_law(dec, n)
        worst_lmd = max(worst_lmd, ps.tv_distance(mix, sn))
    out.append(("delta = 2(1 - theta)", worst_dt < 1e-10, f"max gap {worst_dt:.2e}"))
    out.append(("coin-extraction reconstruction", worst_rec < 1e-10, f"max TV {worst_rec:.2e}"))
    out.append(("smoothed-sum variance identity", worst_var < 1e-10, f"max gap {worst_var:.2e}"))
    out.append(("sum decomposition identity", worst_lmd < 1e-10, f"max TV {worst_lmd:.2e}"))
    return out


def _mixture_law(dec, n: int) -> LatticePmf:
    """Exact law of W_n + D * M_n by conditioning on the eps count."""
    theta, w = dec.theta, dec.law.dense
    # laws of V given eps = 1, 0: for theta <= theta_X both end atoms have
    # eps = 0, so the window runs over the indices 2k_min .. 2k_max
    v1, v0 = w[1::2] / theta, w[0::2] / (1 - theta)
    counts = sum_law(bernoulli(theta), n).dense  # Binomial(n, theta) from index 0
    coin = bernoulli(0.5)
    total = 0.0
    # V draws are exchangeable given the eps count
    for count in range(n + 1):
        # add D * Binomial(count, 1/2) in index steps of 1
        coins = [sum_law(coin, count).dense] if count else []
        law = ps.convolve_laws([v1] * count + [v0] * (n - count) + coins)
        total = total + counts[count] * law
    return LatticePmf._from_window(dec.source.v0 * n, dec.source.D, n * dec.source.offset, total)


def inequalities_suite() -> list[Check]:
    rng = seeded(77)
    names = ["variance >= (1/4) theta", "D(X,d) >= d^2 theta/4",
             "nu/(2h^3) <= D(X,1/h) <= nu/4", "cf bounds via H", "cf bound via delta",
             "delta shrinks under convolution"]
    ok = [True] * 6
    detail = [""] * 6
    for _ in range(40):
        p = random_pmf(rng)
        mom = moments(p)
        theta = ch.theta_char(p)
        delta = ch.delta_char(p)
        if mom.sigma2 < 0.25 * theta - 1e-12:
            ok[0], detail[0] = False, f"pmf {dict(p.weights)}"
        for d in (0.5, 0.25, 1.0 / 3.0):
            if ch.mukhin_D(p, d) < d * d / 4.0 * theta - 1e-9:
                ok[1], detail[1] = False, f"d={d}"
        for h in (2, 3, 4):
            nu = ch.nu_char(p, h)
            Dd = ch.mukhin_D(p, 1.0 / h)
            if not (nu / (2 * h ** 3) - 1e-9 <= Dd <= nu / 4.0 + 1e-9):
                ok[2], detail[2] = False, f"h={h}"
        for t in np.linspace(0.3, math.pi, 7):
            mod = abs(char_fn(p, t))
            H = ch.mukhin_H(p, t / (2 * math.pi))
            if not (1 - 2 * math.pi ** 2 * H - 1e-9 <= mod <= 1 - 4 * H + 1e-9):
                ok[3], detail[3] = False, f"t={t:.3f}"
            if mod > delta / (2 * abs(math.sin(t / 2))) + 1e-9:
                ok[4], detail[4] = False, f"t={t:.3f}"
        q = random_pmf(rng)
        s = convolve_tables(sum_law(p, 1), sum_law(q, 1))
        if ch.delta_char(s) > min(ch.delta_char(p), ch.delta_char(q)) + 1e-12:
            ok[5], detail[5] = False, "convolution pair"
    return [(n, o, d) for n, o, d in zip(names, ok, detail)]


def poisson_suite() -> list[Check]:
    rng = seeded(5)
    cases = 20
    out: list[Check] = []
    lecam_ok = True
    franken_ok = True
    for _ in range(cases):
        k = int(rng.integers(2, 12))
        probs = rng.uniform(0.01, 0.45, size=k)
        if ps.lecam_full_sum(probs) > ps.lecam_bound(probs) + 1e-12:
            lecam_ok = False
        laws = [np.array([1 - q, q]) for q in probs]
        total = ps.convolve_laws(laws)
        lam = float(np.sum(probs))
        if ps.d0_distance(total, ps.poisson_pmf(lam)) > ps.franken_bound(laws) + 1e-12:
            franken_ok = False
    out.append(("poisson full-sum bound", lecam_ok, f"{cases} random cases"))
    out.append(("pointwise poisson bound", franken_ok, f"{cases} random cases"))
    worked = ps.tv_distance(ps.poisson_binomial_law([0.1, 0.1]), ps.poisson_pmf(0.2))
    out.append(("worked binomial example",
                abs(worked - 0.0162540) < 5e-6 and 2 * worked <= 0.04,
                f"tv={worked:.7f}"))
    cp = ps.coupling([0.1, 0.3, 0.5])
    rows_ok = all(abs(cp.row_sum(i) - 1.0) < 1e-12 for i in range(3))
    out.append(("coupling rows sum to one", rows_ok, ""))
    return out


def trends_suite() -> list[Check]:
    out: list[Check] = []
    p = bernoulli(0.5)
    deltas = [delta_n(p, n) for n in (64, 128, 256, 512)]
    out.append(("scaled local error decreasing", all(a > b for a, b in zip(deltas, deltas[1:])),
                " ".join(f"{d:.4f}" for d in deltas)))
    var = [variation_distance(sum_law(p, n)) for n in (16, 64, 256)]
    out.append(("variation distance decreasing", all(a > b for a, b in zip(var, var[1:])),
                " ".join(f"{v:.4f}" for v in var)))
    rho = dickman_rho(u_max=4.0)
    out.append(("dickman value at 2", abs(float(rho(2.0)) - (1 - math.log(2))) < 1e-8,
                f"rho(2)={float(rho(2.0)):.9f}"))
    p1 = mixing_span1_pmf(seeded(11))
    d_big = delta_n(p1, 512)
    out.append(("span-1 pmf local error small", d_big < 0.1, f"delta_512={d_big:.4f}"))
    return out


SUITES = {
    "identities": identities_suite,
    "inequalities": inequalities_suite,
    "poisson": poisson_suite,
    "trends": trends_suite,
}


def run_suite(name: str) -> list[Check]:
    if name == "all":
        checks: list[Check] = []
        for key in SUITES:
            checks.extend(SUITES[key]())
        return checks
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
