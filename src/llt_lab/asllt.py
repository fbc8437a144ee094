"""Almost sure local limit estimators and the Dickman model.

Path estimators average hit indicators of a moving lattice target with
logarithmic weights; their almost sure limits are local densities.  Each
estimator comes in two modes: a seeded single-path simulation and an
"expectation mode" where the indicator is replaced by its exact probability
from the convolution engine, isolating the deterministic part of the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import PreconditionError, ResourceLimitError
from .exact import RunningConvolution, _visit_tables, _WeightedDP, sum_law, weighted_sum_law
from .lattice import (MASS_TOL, MAX_WINDOW, SQRT_2PI, LatticePmf, adjacent_overlap, moments,
                      write_csv)
from .rng import stream

EULER_GAMMA = float(np.euler_gamma)


# -- path records -------------------------------------------------------------------


@dataclass(frozen=True)
class PathEstimate:
    """Trace of a log-average estimator along dyadic checkpoints."""

    kind: str
    seed: int
    target: float
    checkpoints: tuple  # ((N, estimate), ...)

    @property
    def final(self) -> float:
        return self.checkpoints[-1][1]

    def value_at(self, N: int) -> float:
        for cn, est in self.checkpoints:
            if cn == N:
                return est
        raise KeyError(f"no checkpoint at N={N}")


def write_paths_csv(path, estimates: Sequence[PathEstimate]) -> None:
    write_csv(path, ["kind", "seed", "N", "estimate", "target"],
              ((est.kind, est.seed, n, value, est.target)
               for est in estimates for n, value in est.checkpoints))


def _checkpoints(N: int) -> list[int]:
    """Dyadic checkpoints from 4, decade marks from 10, and the horizon N itself."""
    pts = {N}
    n = 4
    while n < N:
        pts.add(n)
        n *= 2
    d = 10
    while d < N:
        pts.add(d)
        d *= 10
    return sorted(pts)


def _require_horizon(N: int, least: int) -> None:
    if N < least:
        raise PreconditionError(f"need a horizon of at least {least}, got {N}")


def _log_average(terms: np.ndarray, N: int, norm: Optional[np.ndarray] = None) -> tuple:
    """Checkpoints (m, sum_{n<=m} terms_n / log L_m) where L_m > 1; L_m = m or norm[m-1].

    Paths pass weighted hit indicators, expectations the same weights times
    exact hit masses; np.cumsum adds in index order, like a running sum.
    """
    csum = np.cumsum(terms)
    level = range(1, N + 1) if norm is None else norm
    return tuple((m, float(csum[m - 1] / math.log(level[m - 1])))
                 for m in _checkpoints(N) if level[m - 1] > 1.0)


# -- the i.i.d. square-integrable estimator ------------------------------------------


@dataclass(frozen=True)
class KappaRule:
    """Nearest-lattice-point target indices for a normalised offset kappa.

    For summand law p, index j_n = round((n mu + kappa sigma sqrt(n) - n v0)/D)
    so that the target value n v0 + D j_n tracks n mu + kappa sigma sqrt(n).
    """

    mu: float
    sigma: float
    v0: float
    D: float
    kappa: float

    @classmethod
    def for_pmf(cls, p: LatticePmf, kappa: float) -> "KappaRule":
        mom = moments(p)
        if mom.sigma2 is None or mom.sigma2 <= 0:
            raise PreconditionError("kappa rule needs positive variance")
        return cls(mu=mom.mu, sigma=math.sqrt(mom.sigma2), v0=p.v0, D=p.D, kappa=kappa)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu, self.sigma, self.v0, self.D, self.kappa))):
            raise PreconditionError(f"kappa rule fields must be finite: {self}")

    def index(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=np.float64)
        # in place, in the rounding order of floor((n mu + kappa sigma sqrt(n) - n v0) / D + 1/2);
        # starting from sqrt(n) instead made each asllt_path fault in ~20 MB of fresh pages
        x = np.multiply(n, self.mu, out=np.empty(n.shape))
        x += self.kappa * self.sigma * np.sqrt(n)
        x -= n * self.v0
        x /= self.D
        x += 0.5
        return np.floor(x, out=x).astype(np.int64)


def asllt_target(p: LatticePmf, kappa: float) -> float:
    """Limit value D/(sqrt(2 pi) sigma) * exp(-kappa^2/2) of the hit average."""
    mom = moments(p)
    return p.D / (SQRT_2PI * math.sqrt(mom.sigma2)) * math.exp(-0.5 * kappa * kappa)


def _simulate_index_path(p: LatticePmf, N: int, rng) -> np.ndarray:
    """Cumulative sums of i.i.d. support indices (exact integer arithmetic)."""
    supp, w = p.atoms()
    w = w / w.sum()
    draws = rng.choice(supp, size=N, p=w)
    return np.cumsum(draws)


def asllt_path(p: LatticePmf, kappa: float, N: int, seed: int) -> PathEstimate:
    """One simulated path of (1/log N) sum_{n<=N} n^{-1/2} 1{S_n = kappa_n}."""
    _require_horizon(N, 4)
    rule = KappaRule.for_pmf(p, kappa)
    ks = _simulate_index_path(p, N, stream(seed))
    n = np.arange(1, N + 1)
    hits = (ks == rule.index(n)) / np.sqrt(n)
    return PathEstimate(kind="t1", seed=seed, target=asllt_target(p, kappa),
                        checkpoints=_log_average(hits, N))


def asllt_expectation(p: LatticePmf, kappa: float, N: int) -> float:
    """Exact (1/log N) sum_{n<=N} n^{-1/2} P{S_n = kappa_n}."""
    _require_horizon(N, 2)
    n = np.arange(1, N + 1)
    m = hit_mass_sequence(p, KappaRule.for_pmf(p, kappa).index(n), N)
    return _log_average(m / np.sqrt(n), N)[-1][1]


# -- the log-average hitting estimator with exact mass normalisation ---------------


def hit_mass_sequence(p: LatticePmf, a_index, N: int) -> np.ndarray:
    """m_k = P{S_k = a_k} for k = 1..N, for one fixed level a or one target a_k per step."""
    run = RunningConvolution(p)
    out = np.empty(N)
    for k, target in enumerate(np.broadcast_to(a_index, (N,)).tolist()):
        run.step()
        out[k] = run.prob(target)
    return out


def require_recurrent(p: LatticePmf, a_index: int) -> None:
    """Reject a walk that visits the level a finitely often in expectation.

    The level a is an index, so a walk whose index increments have a nonzero
    mean drifts away from it: sum_k P{S_k = a} is finite and no N suffices.
    """
    drift = float(np.dot(*p.atoms()))
    if abs(drift) > MASS_TOL:
        raise PreconditionError(f"index increments have mean {drift:.6g}, not 0: level "
                                f"{a_index} is visited finitely often in expectation")


def _mass_totals(p: LatticePmf, a_index: int, N: int,
                 masses: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Hit masses m_k = P{S_k = a} for k = 1..N (or the given ones) and their totals M_k."""
    require_recurrent(p, a_index)
    m = hit_mass_sequence(p, a_index, N) if masses is None else masses
    if len(m) != N:
        raise PreconditionError(f"masses must hold N = {N} hit masses, not {len(m)}")
    M = np.cumsum(m)
    if M[-1] < 2.0:
        raise PreconditionError("insufficient mass, increase N")
    return m, M


def _per_mass(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x_k / M_k, and 0 while M_k = 0: no step up to k can be at the level, so x_k = 0."""
    return np.divide(x, M, out=np.zeros(len(M)), where=M > 0)


def chung_erdos_path(p: LatticePmf, a_index: int, N: int, seed: int,
                     masses: Optional[np.ndarray] = None) -> PathEstimate:
    """Path of (1/log M_n) sum_{k<=n} 1{S_k = a}/M_k with M_k = sum_{i<=k} P{S_i=a}.

    The target is 1.  ``masses`` may carry a precomputed m_k array so that a
    batch of seeds shares one exact-mass computation.
    """
    if p.is_degenerate():
        raise PreconditionError("degenerate summand law")
    _, M = _mass_totals(p, a_index, N, masses)
    ks = _simulate_index_path(p, N, stream(seed))
    return PathEstimate(kind="chung_erdos", seed=seed, target=1.0,
                        checkpoints=_log_average(_per_mass(ks == a_index, M), N, norm=M))


def chung_erdos_expectation(p: LatticePmf, a_index: int, N: int,
                            masses: Optional[np.ndarray] = None) -> float:
    """(1/log M_N) sum_{k<=N} m_k/M_k; tends to 1 as the mass accumulates."""
    m, M = _mass_totals(p, a_index, N, masses)
    return _log_average(_per_mass(m, M), N, norm=M)[-1][1]


# -- two-state chain ------------------------------------------------------------------


@dataclass(frozen=True)
class TwoStateChain:
    """0/1 chain with all transition probabilities positive.

    Centered functional f(0) = -pi_1, f(1) = pi_0 makes S_n = #ones - n pi_1;
    the spectral variance is pi_0 pi_1 (1+g)/(1-g) with g = 1 - p01 - p10.
    """

    p01: float
    p10: float

    def __post_init__(self):
        if not (0.0 < self.p01 < 1.0 and 0.0 < self.p10 < 1.0):
            raise PreconditionError("transition probabilities must lie in (0,1)")

    @property
    def gamma(self) -> float:
        return 1.0 - self.p01 - self.p10

    @property
    def pi(self) -> tuple[float, float]:
        s = self.p01 + self.p10
        return (self.p10 / s, self.p01 / s)

    @property
    def sigma2(self) -> float:
        pi0, pi1 = self.pi
        return pi0 * pi1 * (1.0 + self.gamma) / (1.0 - self.gamma)

    def f(self, state: int) -> float:
        pi0, pi1 = self.pi
        return pi0 if state == 1 else -pi1

    def transition(self) -> np.ndarray:
        return np.array([[1.0 - self.p01, self.p01],
                         [self.p10, 1.0 - self.p10]])


def markov_kappa_indices(chain: TwoStateChain, kappa: float, n) -> np.ndarray:
    """Integer targets k_nu with kappa_nu = -nu pi_1 + k_nu tracking kappa sigma sqrt(nu)."""
    return KappaRule(mu=chain.pi[1], sigma=math.sqrt(chain.sigma2), v0=0.0, D=1.0,
                     kappa=kappa).index(n)


def markov_ones_pmf(chain: TwoStateChain, nu: int) -> np.ndarray:
    """Exact pmf of the number of ones among xi_1..xi_nu (stationary start).

    For nu = 0 the count is 0 almost surely; nu < 0 raises PreconditionError.
    """
    if nu < 0:
        raise PreconditionError("markov_ones_pmf requires nu >= 0")
    if nu == 0:
        return np.array([1.0])
    *_, table = _visit_tables(chain.transition(), chain.pi, nu)
    return table.sum(axis=1)


def _simulate_chain(chain: TwoStateChain, N: int, rng) -> np.ndarray:
    """States xi_1..xi_N from the stationary start, vectorised.

    Using one uniform per step, the next state is forced whenever the two
    conditional draws agree; between forced steps the state either carries
    (gamma > 0) or flips (gamma < 0), which an accumulated parity resolves.
    The draw order matches the obvious sequential loop exactly.
    """
    pi0, pi1 = chain.pi
    u = rng.random(N)
    first = 1 if u[0] < pi1 else 0
    v = u[1:]
    p01, p10 = chain.p01, chain.p10
    from0 = v < p01          # next state 1 when currently 0
    from1 = v >= p10         # next state 1 when currently 1 (0 when u < p10)
    forced = from0 == from1
    flip = from0 & ~from1    # v below both thresholds: state toggles; the
    # remaining case (above both) carries the previous state unchanged
    idx = np.arange(1, N)
    last_forced = np.maximum.accumulate(np.where(forced, idx, 0))
    forced_val = np.zeros(N, dtype=np.int64)
    forced_val[0] = first
    forced_val[idx[forced]] = from0[forced]
    cumflip = np.concatenate(([0], np.cumsum(flip)))
    states = np.empty(N, dtype=np.int64)
    states[0] = first
    par = (cumflip[idx] - cumflip[last_forced]) & 1
    states[1:] = forced_val[last_forced] ^ par
    return states


def markov_asllt_path(chain: TwoStateChain, kappa: float, N: int, seed: int) -> PathEstimate:
    """Path of (1/log n) sum (sigma/sqrt(nu)) 1{S_nu = kappa_nu}; target phi(kappa)."""
    _require_horizon(N, 4)
    ones = np.cumsum(_simulate_chain(chain, N, stream(seed)))
    nu = np.arange(1, N + 1)
    hits = ones == markov_kappa_indices(chain, kappa, nu)
    cps = _log_average(hits * (math.sqrt(chain.sigma2) / np.sqrt(nu)), N)
    target = math.exp(-0.5 * kappa * kappa) / SQRT_2PI
    return PathEstimate(kind="markov", seed=seed, target=target, checkpoints=cps)


def markov_asllt_expectation(chain: TwoStateChain, kappa: float, N: int) -> float:
    """Exact (1/log N) sum (sigma/sqrt(nu)) P{S_nu = kappa_nu} via the transfer table."""
    _require_horizon(N, 2)
    nu = np.arange(1, N + 1)
    targets = markov_kappa_indices(chain, kappa, nu).tolist()
    m = np.zeros(N)  # P{S_nu = kappa_nu}: the row sum at the target, 0 outside the table
    for i, table in enumerate(_visit_tables(chain.transition(), chain.pi, N)):
        if 0 <= targets[i] < table.shape[0]:
            m[i] = table[targets[i]].sum()
    return _log_average(m * math.sqrt(chain.sigma2) / np.sqrt(nu), N)[-1][1]


# -- Dickman function and model -------------------------------------------------------


def _cumquad4(g: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral over a uniform grid of >= 4 nodes, 4th order, one-sided at the ends."""
    n = len(g) - 1
    steps = np.empty(n)
    steps[0] = h * (9 * g[0] + 19 * g[1] - 5 * g[2] + g[3]) / 24.0
    steps[n - 1] = h * (g[n - 3] - 5 * g[n - 2] + 19 * g[n - 1] + 9 * g[n]) / 24.0
    steps[1:n - 1] = h * (-g[0:n - 2] + 13 * g[1:n - 1] + 13 * g[2:n] - g[3:n + 1]) / 24.0
    return np.concatenate(([0.0], np.cumsum(steps)))


@dataclass(frozen=True)
class DickmanRho:
    """Tabulated solution of u r'(u) + r(u-1) = 0 with r = 1 on [0,1]."""

    step: float
    u_max: float
    values: np.ndarray

    def __call__(self, u) -> np.ndarray:
        """Cubic interpolation on the table; 0 outside [0, u_max]."""
        u_arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
        out = np.zeros(u_arr.shape)
        inside = (u_arr >= 0) & (u_arr <= self.u_max)
        ui = u_arr[inside]
        pos = ui / self.step
        i1 = np.clip(np.floor(pos).astype(np.int64), 1, len(self.values) - 3)
        t = pos - i1
        ym1, y0, y1, y2 = (self.values[i1 - 1], self.values[i1],
                           self.values[i1 + 1], self.values[i1 + 2])
        out[inside] = (
            y0
            + t * (-ym1 / 3.0 - y0 / 2.0 + y1 - y2 / 6.0)
            + t * t * (ym1 / 2.0 - y0 + y1 / 2.0)
            + t ** 3 * (-ym1 / 6.0 + y0 / 2.0 - y1 / 2.0 + y2 / 6.0)
        )
        return float(out[0]) if np.ndim(u) == 0 else out

    def integral(self) -> float:
        """Integral over [0, u_max] by composite Simpson."""
        from scipy.integrate import simpson

        u = np.arange(len(self.values)) * self.step
        return float(simpson(self.values, x=u))


def dickman_rho(u_max: float = 20.0, step: float = 1.0 / 1024.0) -> DickmanRho:
    """Solve the delay equation on a delay-aligned grid.

    The derivative at u only involves values one unit back, so each unit
    interval integrates a fully known function; a 4th-order cumulative rule
    per piece keeps kinks at the integers on grid nodes.
    """
    if not 0.0 < step <= 1e-3 + 1e-15:  # NaN fails the comparison too
        raise PreconditionError(f"step must lie in (0, 1e-3], got {step!r}")
    if not 0.0 < u_max < math.inf:
        raise PreconditionError(f"u_max must be finite and > 0, got {u_max!r}")
    units = int(math.ceil(u_max))
    if units / step + 1 > MAX_WINDOW:  # before 1 / step can overflow
        raise ResourceLimitError(f"a grid of step {step!r} up to {units} exceeds memory budget")
    m = round(1.0 / step)
    if abs(m * step - 1.0) > 1e-12:
        raise PreconditionError("step must divide 1 exactly")
    values = np.empty(units * m + 1)
    values[: m + 1] = 1.0
    u = np.arange(units * m + 1) * step
    for j in range(1, units):
        lo, hi = j * m, (j + 1) * m
        g = values[lo - m: hi - m + 1] / u[lo: hi + 1]
        cum = _cumquad4(g, step)
        values[lo: hi + 1] = values[lo] - cum
    values = np.maximum(values, 0.0)
    return DickmanRho(step=step, u_max=float(units), values=values)


def dickman_sum_law(n: int, max_value: Optional[int] = None):
    """Law of T_n = sum k Z_k with Z_k ~ Bernoulli(1/k), k = 1..n."""
    return weighted_sum_law(range(1, n + 1), [1.0 / k for k in range(1, n + 1)],
                            max_value=max_value)


def _dickman_index(x: float, n, least: float = 0.0):
    """The Dickman target round(x n) = floor(x n + 1/2) as int64, for a finite x >= least."""
    t = np.floor(np.multiply(x, n) + 0.5)
    if not (least <= x and np.max(t) < 2.0 ** 63):  # NaN and inf fail too
        raise PreconditionError(f"round(x n) needs a finite x >= {least:g}, x n < 2**63; got {x!r}")
    return t.astype(np.int64)


def dickman_llt_check(n: int, x: float, rho: DickmanRho):
    """Exact n P{T_n = round(x n)} against the limit e^{-gamma} rho(x)."""
    from .approx import ApproxReport

    _require_horizon(n, 2)
    kappa = int(_dickman_index(x, n))
    law = dickman_sum_law(n, max_value=kappa)
    exact = n * law.prob(kappa)
    target = math.exp(-EULER_GAMMA) * float(rho(x))
    return ApproxReport(n=n, metric="dickman_local", exact=float(exact), approx=target,
                        error=abs(exact - target), normalization="n")


def dickman_strong_llt(n: int, rho: DickmanRho) -> float:
    """Full sum over kappa of |P{T_n=kappa} - n^{-1} e^{-gamma} rho(kappa/n)|."""
    _require_horizon(n, 2)
    law = dickman_sum_law(n)
    hi = max(law.offset + len(law.dense) - 1, int(math.ceil(n * rho.u_max)))
    kappa = np.arange(0, hi + 1)
    probs = np.zeros(len(kappa))
    probs[law.offset: law.offset + len(law.dense)] = law.dense
    limit = math.exp(-EULER_GAMMA) / n * rho(kappa / n)
    return float(np.abs(probs - limit).sum())


def asllt_dickman_path(N: int, seed: int, rho: DickmanRho, x: float = 1.0) -> PathEstimate:
    """Coupled path of (1/log N) sum_{n<=N} 1{T_n = round(x n)}.

    Target e^{-gamma} rho(x).  Convergence of the log average is slow: the
    finite-N expectation carries an O(1/log N) bias whose constant is of
    order one for this model (unlike the i.i.d. estimator, where the early
    terms happen to cancel the harmonic-sum surplus).
    """
    _require_horizon(N, 4)
    k = np.arange(1, N + 1)
    t = np.cumsum(k * (stream(seed).random(N) < 1.0 / k))
    hits = (t == _dickman_index(x, k, least=1.0)).astype(np.float64)  # x >= 1: round(x n) increases
    return PathEstimate(kind="dickman", seed=seed, target=math.exp(-EULER_GAMMA) * float(rho(x)),
                        checkpoints=_log_average(hits, N))


def dickman_expectation(N: int, x: float, rho: Optional[DickmanRho] = None) -> float:
    """Exact (1/log N) sum_{n<=N} P{T_n = round(x n)} via the running DP.

    ``rho`` is ignored: the exact expectation needs no Dickman table.  It is
    kept so that calls passing one still work.
    """
    _require_horizon(N, 2)
    targets = _dickman_index(x, np.arange(1, N + 1)).tolist()
    dp = _WeightedDP(targets[-1] + 1)
    m = np.zeros(N)  # P{T_n = round(x n)}; the law is 0.0 above the reachable range
    for n, kappa in enumerate(targets, 1):
        dp.step(n, 1.0 / n)
        m[n - 1] = dp.law[kappa]
    return _log_average(m, N)[-1][1]


# -- correlation diagnostics -----------------------------------------------------------


@dataclass(frozen=True)
class CovarianceRecord:
    m: int
    n: int
    lhs: float
    bracket: float
    sqrt_ratio: float  # sqrt(m/n), the scaled-regime shape

    @property
    def fitted_c(self) -> float:
        return self.lhs / self.bracket

    @property
    def fitted_c_scaled(self) -> float:
        return self.lhs / self.sqrt_ratio


def covariance_check(p: LatticePmf, m: int, n: int, kappa: float = 0.0) -> CovarianceRecord:
    """Scaled joint-vs-product gap sqrt(nm) |P{S_n=k_n, S_m=k_m} - P P| with its bound shape.

    The bound bracket is 1/(sqrt(n/m) - 1) + n^{1/2}/(n-m)^{3/2}; in the
    regime m <= n/2 the alternative shape sqrt(m/n) applies.
    """
    if not 1 <= m < n:
        raise PreconditionError("need 1 <= m < n")
    if adjacent_overlap(p) <= 0:
        raise PreconditionError("adjacent positive masses required")
    rule = KappaRule.for_pmf(p, kappa)
    jm = int(rule.index(m))
    jn = int(rule.index(n))
    law_m = sum_law(p, m)
    law_inc = sum_law(p, n - m)
    law_n = sum_law(p, n)
    joint = law_m.prob(jm) * law_inc.prob(jn - jm)
    prod = law_m.prob(jm) * law_n.prob(jn)
    lhs = math.sqrt(n * m) * abs(joint - prod)
    bracket = 1.0 / (math.sqrt(n / m) - 1.0) + math.sqrt(n) / (n - m) ** 1.5
    return CovarianceRecord(m=m, n=n, lhs=lhs, bracket=bracket,
                            sqrt_ratio=math.sqrt(m / n))
