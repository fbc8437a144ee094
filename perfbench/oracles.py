"""Reference computations and checks that the workloads compare against.

Everything here is written independently of llt_lab: direct dynamic
programs, brute-force enumeration and closed forms.  A failed check raises
``CheckFailed``; the harness counts the task as failed and carries on.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.stats import binom

#: rounding scale the exact engine documents for an n-fold table
LEDGER_TOL_PER_SUMMAND = 1e-12


class CheckFailed(Exception):
    """An output of the package disagrees with its oracle."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(got, want, what: str, rtol: float = 0.0, atol: float = 0.0) -> None:
    """Elementwise |got - want| <= atol + rtol |want|, with the worst gap in the message."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    gap = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    require(bool(np.all(np.isfinite(got))), f"{what}: non-finite values")
    if not np.all(gap <= limit):
        i = int(np.argmax(gap - limit))
        raise CheckFailed(f"{what}: |{got.flat[i]!r} - {want.flat[i]!r}| "
                          f"> {limit.flat[i]:.3g}")


def ledger(table, what: str) -> None:
    """Stored mass + lost_mass + beyond_mass = 1 to the documented rounding scale."""
    gap = abs(float(table.probs.sum()) + table.lost_mass + table.beyond_mass - 1.0)
    require(gap <= LEDGER_TOL_PER_SUMMAND * max(table.n, 1),
            f"{what}: mass ledger gap {gap:.3g} at n={table.n}")


def dense_from(table) -> np.ndarray:
    """Mass vector of a nonnegative-index table, indexed from 0."""
    out = np.zeros(table.offset + len(table.probs))
    out[table.offset:] = table.probs
    return out


def binomial_table(n: int, p: float, offset: int, length: int) -> np.ndarray:
    return binom.pmf(offset + np.arange(length), n, p)


def poisson_binomial_dp(ps) -> np.ndarray:
    """Law of a sum of independent Bernoulli(p_i), one summand at a time."""
    law = np.array([1.0])
    for p in ps:
        nxt = np.zeros(len(law) + 1)
        nxt[:-1] += law * (1.0 - p)
        nxt[1:] += law * p
        law = nxt
    return law


def dickman_dp(n: int) -> np.ndarray:
    """Law of sum_{k<=n} k Z_k with Z_k ~ Bernoulli(1/k), values 0..n(n+1)/2."""
    law = np.array([1.0])
    for k in range(1, n + 1):
        q = 1.0 / k
        nxt = np.zeros(len(law) + k)
        nxt[:len(law)] += law * (1.0 - q)
        nxt[k:] += law * q
        law = nxt
    return law


def dickman_expectation_dp(N: int, x: float) -> float:
    """(1/log N) sum_{n<=N} P{T_n = round(x n)} from the direct Dickman DP."""
    acc = 0.0
    for n in range(1, N + 1):
        law = dickman_dp(n)
        kappa = math.floor(x * n + 0.5)
        if kappa < len(law):
            acc += law[kappa]
    return acc / math.log(N)


def markov_ones_brute(p01: float, p10: float, nu: int) -> np.ndarray:
    """Law of #ones among nu steps of the stationary 0/1 chain, by enumeration."""
    P = ((1.0 - p01, p01), (p10, 1.0 - p10))
    pi = (p10 / (p01 + p10), p01 / (p01 + p10))
    law = np.zeros(nu + 1)
    for states in itertools.product((0, 1), repeat=nu):
        prob = pi[states[0]]
        for a, b in zip(states, states[1:]):
            prob *= P[a][b]
        law[sum(states)] += prob
    return law


def markov_expectation_brute(p01: float, p10: float, kappa: float, N: int) -> float:
    """(1/log N) sum_{nu<=N} (sigma/sqrt(nu)) P{#ones_nu = k_nu} by enumeration."""
    pi1 = p01 / (p01 + p10)
    g = 1.0 - p01 - p10
    sigma = math.sqrt((1.0 - pi1) * pi1 * (1.0 + g) / (1.0 - g))
    acc = 0.0
    for nu in range(1, N + 1):
        k = math.floor(nu * pi1 + kappa * sigma * math.sqrt(nu) + 0.5)
        law = markov_ones_brute(p01, p10, nu)
        if 0 <= k <= nu:
            acc += law[k] * sigma / math.sqrt(nu)
    return acc / math.log(N)


def fair_coin_expectation(kappa: float, N: int) -> float:
    """(1/log N) sum_{n<=N} n^{-1/2} P{Bin(n, 1/2) = j_n}, j_n the nearest index to n/2 + kappa sqrt(n)/2."""
    n = np.arange(1, N + 1, dtype=np.float64)
    j = np.floor(n * 0.5 + kappa * 0.5 * np.sqrt(n) + 0.5)
    return float(np.sum(binom.pmf(j, n, 0.5) / np.sqrt(n)) / math.log(N))


def lazy_return_masses(N: int) -> np.ndarray:
    """P{S_k = 0} for k = 1..N of the lazy walk, whose S_k + k is Binomial(2k, 1/2)."""
    k = np.arange(1, N + 1)
    return binom.pmf(k, 2 * k, 0.5)


def fair_coin_constant(n_max: int, n_min: int) -> float:
    """max over dyadic n of n^{3/2} sup_k |P{Bin(n,1/2)=k} - sqrt(2/(pi n)) e^{-(2k-n)^2/(2n)}|."""
    worst = 0.0
    n = n_min
    while n <= n_max:
        k = np.arange(n + 1)
        gauss = math.sqrt(2.0 / (math.pi * n)) * np.exp(-((2 * k - n) ** 2) / (2.0 * n))
        worst = max(worst, float(np.max(np.abs(binom.pmf(k, n, 0.5) - gauss))) * n ** 1.5)
        n *= 2
    return worst


def stable_half_density(x: float) -> float:
    """Closed form of the one-sided stable density at alpha = 1/2."""
    return 0.5 * x ** -1.5 * math.exp(-math.pi / (4.0 * x))
