"""Local approximation terms and their error functionals.

The exact engine supplies pmf tables; this module evaluates the Gaussian
local term, the scaled sup-error Delta_n, the classical binomial bound with
explicit remainder, the third-order expansion term, summed variation
distance, one-sided stable densities by Zolotarev's integral representation,
ratio diagnostics for heavy tails, the smoothness criterion, the quadrature
lower bound, and residue-uniformity diagnostics.  The normal local curve is
written once, in ``_normal_curve``, and the zero-padded window once, in ``_window``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import PreconditionError, ResourceLimitError, UnsupportedParameterError
from .exact import SumLawTable, residues_mod, sum_law, sup_cdf_distance
from .lattice import (MAX_WINDOW, SQRT_2PI, LatticePmf, bernoulli, char_fn, gaussian_scale,
                      moments, write_csv)


@dataclass(frozen=True)
class ApproxReport:
    """Per-n record of an approximation, its exact counterpart and the error."""

    n: int
    metric: str
    exact: float
    approx: float
    error: float
    normalization: str
    flags: tuple = ()


def write_reports_csv(path, reports: Sequence[ApproxReport], comment: str = "") -> None:
    """One row per report; the flags are not part of the table."""
    write_csv(path, ["n", "metric", "exact", "approx", "error", "normalization"],
              ((r.n, r.metric, r.exact, r.approx, r.error, r.normalization) for r in reports),
              comment)


# -- Gaussian local term and Delta_n ------------------------------------------------


def _normal_curve(x, M: float, B2: float, D: float):
    """(D / sqrt(2 pi)) exp(-(x-M)^2 / (2 B2)): the normal local curve times B = sqrt(B2)."""
    return (D / SQRT_2PI) * np.exp(-((x - M) ** 2) / (2.0 * B2))


def _window(law: SumLawTable, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice points and masses of the stored window widened by ``pad`` zeros on each side."""
    if law.beyond_mass > 0:  # the window is not the whole law its moments describe
        raise PreconditionError(f"a table capped with beyond_mass {law.beyond_mass!r} "
                                f"has no Gaussian comparison")
    if len(law.dense) + 2 * pad > MAX_WINDOW:  # before the window is allocated
        raise ResourceLimitError(f"a window padded by {pad} on each side exceeds memory budget")
    probs = np.zeros(len(law.dense) + 2 * pad)
    probs[pad:pad + len(law.dense)] = law.dense
    return law.points(law.offset - pad + np.arange(len(probs))), probs


def gaussian_local_term(N, M: float, B2: float, D: float):
    """Normal mass approximation (D / sqrt(2 pi B2)) exp(-(N-M)^2 / (2 B2)), vectorised over N."""
    B = gaussian_scale(B2)
    g = _normal_curve(N, M, B2, D) / B
    return float(g) if np.ndim(g) == 0 else g


def delta_from_table(law: SumLawTable) -> tuple[float, float]:
    """Scaled sup-error of a sum table against the Gaussian local curve.

    Returns (value, location): the supremum over lattice points of
    |B_n P{S_n=N} - (D/sqrt(2 pi)) exp(-(N-M_n)^2 / 2 B_n^2)| and the point
    where it is attained.  Lattice points just outside the stored window only
    carry the Gaussian term, which decreases monotonically away from the
    mean, so one point past each edge closes the supremum exactly.
    """
    M, B2 = law.meta.mu, law.meta.sigma2
    x, probs = _window(law, 1)
    dev = np.abs(gaussian_scale(B2) * probs - _normal_curve(x, M, B2, law.D))
    i = int(np.argmax(dev))
    return float(dev[i]), float(x[i])


def delta_n(p: LatticePmf, n: int) -> float:
    """Delta_n for i.i.d. sums of p, using the declared span of p."""
    return delta_n_report(p, n).error


def delta_n_report(p: LatticePmf, n: int) -> ApproxReport:
    gaussian_scale(moments(p).sigma2)  # before the sum law is built
    value, location = delta_from_table(sum_law(p, n))
    return ApproxReport(n=n, metric="delta_n", exact=value, approx=0.0, error=value,
                        normalization="B_n", flags=(("argmax", location),))


@lru_cache(maxsize=8)
def measure_lltber_constant(n_max: int = 4096) -> float:
    """Largest n^{3/2}-scaled sup-error of the fair-coin local approximation.

    Scans the dyadic grid 16..n_max of fair Bernoulli sums and returns max_n of
    n^{3/2} sup_k |P{S_n=k} - sqrt(2/(pi n)) e^{-(2k-n)^2/(2n)}| = 2 n Delta_n (B_n = sqrt(n)/2).
    """
    p = bernoulli(0.5)
    worst, n = 0.0, 16
    while n <= n_max:
        worst = max(worst, 2 * n * delta_n(p, n))
        n *= 2
    return worst


# -- classical binomial bound ----------------------------------------------------


def stirling_epsilon(n: int) -> float:
    """log n! minus its Stirling main term; lies in (1/(12n+1), 1/(12n))."""
    return math.lgamma(n + 1) - ((n + 0.5) * math.log(n) - n + 0.5 * math.log(2 * math.pi))


@dataclass(frozen=True)
class DeMoivreRecord:
    n: int
    p: float
    k: int
    gamma: float
    x: float
    gaussian: float
    exact: float
    E: float
    bound: float


def demoivre_bound(n: int, p: float, k: int, gamma: float) -> DeMoivreRecord:
    """Explicit remainder bound for the binomial point mass near the mean.

    Requires 0<p<1, 0<gamma<1, |k - np| <= gamma*n*p*q and n >= max(p/q, q/p).
    Returns the Gaussian term, the exact mass, the measured log-ratio E and
    the bound (3|x| + 2|x|^3)/((1-gamma) sqrt(npq)) + 1/(4 n min(p,q) (1-gamma)).
    """
    q = 1.0 - p
    if not 0.0 < p < 1.0:
        raise PreconditionError("binomial parameter p must lie in (0,1)")
    if not 0.0 < gamma < 1.0:
        raise PreconditionError("gamma must lie in (0,1)")
    if abs(k - n * p) > gamma * n * p * q + 1e-12:
        raise PreconditionError("|k - np| <= gamma*n*p*q fails")
    if n < max(p / q, q / p):
        raise PreconditionError("n >= max(p/q, q/p) fails")
    npq = n * p * q
    x = (k - n * p) / math.sqrt(npq)
    log_gauss = -0.5 * x * x - 0.5 * math.log(2 * math.pi * npq)
    log_exact = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                 + k * math.log(p) + (n - k) * math.log(q))
    E = log_exact - log_gauss
    bound = (3 * abs(x) + 2 * abs(x) ** 3) / ((1 - gamma) * math.sqrt(npq)) \
        + 1.0 / (4 * n * min(p, q) * (1 - gamma))
    return DeMoivreRecord(n=n, p=p, k=k, gamma=gamma, x=x,
                          gaussian=math.exp(log_gauss), exact=math.exp(log_exact),
                          E=E, bound=bound)


# -- third-order expansion ---------------------------------------------------------


def _edgeworth_moments(p: LatticePmf, with_correction: bool = True):
    """(moments(p), sigma); the correction needs a third moment.  Checked before any sum law."""
    mom = moments(p)
    sigma = gaussian_scale(mom.sigma2)
    if with_correction and mom.mu3 is None:
        raise PreconditionError("third central moment unavailable")
    return mom, sigma


def edgeworth3_term(p: LatticePmf, n: int, N):
    """Gaussian local term with the first skewness correction, vectorised over N.

    (D/(sigma sqrt(n))) phi(y) (1 + (y^3 - 3y) mu3 / (6 sigma^3 sqrt(n)))
    with y = (N - n mu)/(sigma sqrt(n)).
    """
    mom, sigma = _edgeworth_moments(p)
    y = (N - n * mom.mu) / (sigma * math.sqrt(n))
    # products only, so an array N and a scalar N round alike
    corr = 1.0 + y * (y * y - 3.0) * mom.mu3 / (6.0 * sigma ** 3 * math.sqrt(n))
    return gaussian_local_term(N, n * mom.mu, n * mom.sigma2, p.D) * corr


def edgeworth3_sup_error(p: LatticePmf, n: int, with_correction: bool = True) -> float:
    """sup over lattice points of |P{S_n=N} - expansion term|."""
    mom, _ = _edgeworth_moments(p, with_correction)
    x, probs = _window(sum_law(p, n), 0)
    approx = (edgeworth3_term(p, n, x) if with_correction
              else gaussian_local_term(x, n * mom.mu, n * mom.sigma2, p.D))
    return float(np.max(np.abs(probs - approx)))


# -- summed variation distance ----------------------------------------------------


def variation_distance(law: SumLawTable, A: Optional[float] = None,
                       B: Optional[float] = None) -> float:
    """Sum over lattice points of |P{S_n=m} - (D/(B sqrt(2 pi))) exp(...)|.

    Defaults center A and scale B to the table moments.  Lattice points
    beyond the stored window contribute their Gaussian term only; the sum is
    extended 40 scale units past the window on both sides, which exhausts
    the tail to double precision.
    """
    if A is None:
        A = law.meta.mu
    if B is None:
        B = gaussian_scale(law.meta.sigma2)
    elif not 0 < B < math.inf:  # NaN fails too
        raise PreconditionError(f"scale B must be finite and positive, got {B!r}")
    x, probs = _window(law, int(math.ceil(40.0 * B / law.D)) + 2)
    return float(np.abs(probs - gaussian_local_term(x, A, B * B, law.D)).sum())


# -- one-sided stable branch -------------------------------------------------------


@dataclass(frozen=True)
class StableParams:
    """Canonical stable limit of the discretised power-tail family.

    ``alpha`` in (0,1) for the one-sided branch; ``c`` enters only through the
    norming sequence B_n = (n c)^{1/alpha}.  ``one_sided`` False selects the
    symmetric variant (zero skew term in the exponent).
    """

    alpha: float
    c: float = 1.0
    one_sided: bool = True

    def __post_init__(self):
        if self.alpha == 1.0:
            raise UnsupportedParameterError("alpha = 1 branch is not implemented")
        if not 0.0 < self.alpha < 1.0:
            raise UnsupportedParameterError("Zolotarev branch requires alpha in (0,1)")
        if self.c <= 0:
            raise UnsupportedParameterError("scale c must be positive")

    def b_n(self, n: int) -> float:
        return (n * self.c) ** (1.0 / self.alpha)


#: Gauss-Legendre sizes of the stable kernel; points per block (< 4 MB at 4096 nodes)
_GL_FIRST, _GL_LAST, _GL_ROWS = 32, 4096, 128


@lru_cache(maxsize=None)
def _gauss_legendre(m: int) -> tuple:
    """Nodes and weights of the m-point Gauss-Legendre rule on [-1, 1]."""
    from scipy.special import roots_legendre

    return roots_legendre(m)


def _stable_scale(alpha: float) -> float:
    """gamma with E e^{itX} = exp(-(gamma|t|)^a (1 - i beta tan(pi a/2) sgn t))."""
    from scipy.special import gamma as gamma_fn

    return (gamma_fn(1.0 - alpha) * math.cos(math.pi * alpha / 2.0)) ** (1.0 / alpha)


def _zolotarev(params: StableParams, x: np.ndarray, tail: bool = False) -> np.ndarray:
    """g(x), or with ``tail`` 1 - F(x), at the points x > 0 by Zolotarev's integral.

    Nolan (1997), S1 form with beta = 1 (one-sided) or 0, y = x / gamma,
    t0 = arctan(beta tan(pi a/2)) / a and V(t) = cos(a t0)^{1/(a-1)}
    (cos t / sin a(t0 + t))^{a/(a-1)} cos(a t0 + (a-1) t) / cos t:
    gamma g(x) = a y^{1/(a-1)} / (pi (1-a)) int_{-t0}^{pi/2} V e^{-y^{a/(a-1)} V} dt and
    1 - F(x) = (1/pi) int (1 - e^{-y^{a/(a-1)} V}) dt.  The integrand is one exponential
    of logarithms (no inf * 0 near the ends); the Gauss-Legendre rule doubles
    until two sizes agree to 1e-13 everywhere.
    """
    a, c, gam = params.alpha, params.alpha / (params.alpha - 1.0), _stable_scale(params.alpha)
    t0 = math.atan(float(params.one_sided) * math.tan(math.pi * a / 2.0)) / a
    half = (math.pi / 2.0 + t0) / 2.0
    log_y, prev, m = np.log(x / gam)[:, None], None, _GL_FIRST
    while m <= _GL_LAST:
        u, w = _gauss_legendre(m)
        t = half * u + (math.pi / 2.0 - half)
        log_v = (math.log(math.cos(a * t0)) / (a - 1.0)
                 + c * np.log(np.cos(t) / np.sin(a * (t0 + t)))
                 + np.log(np.cos(a * t0 + (a - 1.0) * t) / np.cos(t)))
        cur = np.empty(len(x))
        for s in range(0, len(x), _GL_ROWS):
            ly = log_y[s:s + _GL_ROWS]
            with np.errstate(over="ignore"):  # z = inf gives the exact limit 0
                z = np.exp(c * ly + log_v)
            f = -np.expm1(-z) if tail else np.exp(ly / (a - 1.0) + log_v - z) * (a / (1.0 - a))
            cur[s:s + _GL_ROWS] = f @ w * (half / math.pi / (1.0 if tail else gam))
        if prev is not None and np.max(np.abs(cur - prev), initial=0.0) <= 1e-13:
            return cur
        prev, m = cur, 2 * m
    raise PreconditionError(f"stable kernel: Gauss-Legendre rules still differ by "
                            f"{np.max(np.abs(cur - prev)):.3g} at {_GL_LAST} nodes")


def stable_density(params: StableParams, x: float) -> float:
    """Density g of the stable limit at x: E e^{-sX} = exp(-G(1-a) s^a) for the
    one-sided law, E e^{itX} = exp(-G(1-a) cos(pi a/2) |t|^a) for the symmetric one."""
    if not params.one_sided and x == 0.0:  # Nolan's closed form at the mode
        from scipy.special import gamma as gamma_fn

        return float(gamma_fn(1.0 + 1.0 / params.alpha) / (math.pi * _stable_scale(params.alpha)))
    y = x if params.one_sided else abs(x)
    return float(_zolotarev(params, np.array([y]))[0]) if y > 0.0 else 0.0


def stable_density_mass(params: StableParams) -> float:
    """Adaptive quadrature of g over [0, 50] plus the tail 1 - F(50) of the same integral."""
    from scipy.integrate import quad

    if not params.one_sided:
        raise PreconditionError("mass check implemented for the one-sided branch")
    body = quad(lambda x: stable_density(params, x), 0.0, 50.0, epsabs=1e-13, limit=200)[0]
    return body + float(_zolotarev(params, np.array([50.0]), tail=True)[0])


class StableDensityTable:
    """One-sided g on the grid that ``stable_llt_error`` interpolates (steps 0.01, then 0.05)."""

    def __init__(self, alpha: float, x_max: float = 60.0):
        fine = np.arange(0.0, min(5.0, x_max) + 0.01, 0.01)
        coarse = np.arange(min(5.0, x_max), x_max + 0.05, 0.05)
        x = np.unique(np.concatenate([fine, coarse]))
        # arange accumulates rounding (its node for 60 is 59.9999999999998): end at x_max
        self.x = np.append(x[x < x_max - 1e-9], x_max)
        self.g = np.append(0.0, _zolotarev(StableParams(alpha=alpha), self.x[1:]))  # g(0) = 0


_density_table = lru_cache(maxsize=None)(StableDensityTable)


def stable_llt_error(p: LatticePmf, n: int, x_max: float = 60.0) -> ApproxReport:
    """sup_m |B_n P{S_n=m} - g(m/B_n)| for a discretised power-tail pmf.

    The sum law is computed exactly on the window m <= x_max * B_n, for every
    n >= 1 (heavy-tail supports only grow, so a cap loses nothing inside the
    window, and the summand law is cut to the window before it is convolved,
    so the cost follows the window, not the truncation index), and the
    per-variable truncation renormalisation is undone by the factor
    (1 - discarded)^n before comparing against the limit density.
    """
    if p.family is None:
        raise PreconditionError("stable_llt_error needs the power-tail family")
    if not 0.0 < x_max < math.inf:  # NaN fails the comparison too
        raise PreconditionError(f"x_max must be finite and > 0, got {x_max!r}")
    params = StableParams(alpha=p.family["alpha"], c=p.family["c"])
    bn = params.b_n(n)
    cap = int(math.ceil(x_max * bn))
    if p.family["truncation_index"] < cap:
        raise PreconditionError("family truncated below the comparison window")
    law = sum_law(p, n, max_index=cap)
    correction = (1.0 - p.discarded_mass) ** n
    table = _density_table(params.alpha, x_max)
    k = law.offset + np.arange(len(law.dense))
    vals = bn * law.dense * correction
    g = np.interp(k / bn, table.x, table.g, left=0.0, right=0.0)
    err = float(np.max(np.abs(vals - g)))
    flags = ()
    if n * p.discarded_mass > 0.5:
        flags = (("truncation_mass_excessive", n * p.discarded_mass),)
    return ApproxReport(n=n, metric="stable_local_error", exact=float(np.max(vals)),
                        approx=float(np.max(g)), error=err,
                        normalization=f"B_n=(n c)^(1/alpha)={bn!r}", flags=flags)


def doney_ratio(p: LatticePmf, n: int, m: int, mu: Optional[float] = None,
                eps: float = 0.5) -> float:
    """P{S_n = m} / (n P{X = m - round(n mu)}) for a finite-mean heavy tail.

    Requires m >= (mu + eps) n; the sum law stops 4 indices past m.  Truncation
    renormalisation is undone on both sides so the ratio refers to the untruncated law.
    """
    if mu is None:
        mu = moments(p).mu
    if mu is None:
        raise PreconditionError("doney_ratio needs a finite mean")
    if not (math.isfinite(mu) and math.isfinite(eps)):  # NaN would pass the check below
        raise PreconditionError(f"mu and eps must be finite, got mu={mu!r}, eps={eps!r}")
    if m < (mu + eps) * n:
        raise PreconditionError(f"m >= (mu + eps) n fails: {m} < {(mu + eps) * n}")
    cap = m + 4
    if p.family is not None and p.family["truncation_index"] < cap:
        raise PreconditionError("family truncated below the requested point")
    law = sum_law(p, n, max_index=cap if p.offset >= 0 else None)
    delta = p.discarded_mass
    num = law.prob(m) * (1.0 - delta) ** n
    j = m - round(n * mu)
    pj = p.prob(j)
    den = n * pj * (1.0 - delta)
    if den == 0.0:
        raise PreconditionError(f"zero denominator: P(X = {j}) = 0")
    return float(num / den)


# -- smoothness criterion, quadrature lower bound, residue diagnostics ------------


def mukhin_criterion(p: LatticePmf, n: int, v: Optional[int] = None) -> float:
    """b_n * sup over |m-k| <= v of |P{S_n=m} - P{S_n=k}|.

    Default window radius v = max(1, floor(sqrt(eps_n) b_n)) with eps_n the
    sup-CDF distance of the normalised sum to the normal and b_n = sigma
    sqrt(n).  Tends to 0 exactly when the local limit behaviour holds.
    """
    gaussian_scale(moments(p).sigma2)  # before the sum law is built
    law = sum_law(p, n)
    bn = math.sqrt(law.meta.sigma2)
    if v is None:
        eps_n = sup_cdf_distance(law)
        v = max(1, math.floor(math.sqrt(eps_n) * bn))
    probs = _window(law, v)[1]
    worst = 0.0
    for j in range(1, v + 1):
        d = float(np.max(np.abs(probs[j:] - probs[:-j])))
        worst = max(worst, d)
    return bn * worst


@dataclass(frozen=True)
class QuadratureLowerBound:
    n: int
    k: int
    lhs: float
    rhs: float
    delta_n: float
    lambda_n: float


def gamkrelidze_lower_check(p: LatticePmf, n: int, k: int) -> QuadratureLowerBound:
    """Quadrature lower bound on the tail integral of |cf(S_n)|^2.

    lhs = (1/4pi) int_{2pi/(2k+1) <= |t| <= pi} |cf_{S_n}(t)|^2 dt,
    rhs = (1/(2 sqrt(pi) B_n))(1 - e^{-k^2/(4 B_n^2)}) + 2 Lambda_n / B_n with
    Lambda_n = 2.01 (Delta_n + e^{-pi^2 B_n^2}/(2 sqrt(pi))); lhs <= rhs holds
    whenever the local approximation is any good (quadrature to 1e-9 absolute).
    """
    from scipy.integrate import quad

    p.integer_view()  # integer-valued laws only
    if k < 1:
        raise PreconditionError("k >= 1 required")
    mom = moments(p)
    gaussian_scale(mom.sigma2)  # before the sum law is built
    bn = math.sqrt(n * mom.sigma2)
    dn = delta_n(p, n)

    def integrand(t: float) -> float:
        return abs(char_fn(p, t)) ** (2 * n)

    lo = 2.0 * math.pi / (2 * k + 1)
    if lo >= math.pi:
        raise PreconditionError("window 2pi/(2k+1) <= |t| <= pi is empty")
    val, err = quad(integrand, lo, math.pi, epsabs=1e-9, limit=400)
    if err > max(1e-6, 1e-3 * max(val, 1e-12)):
        raise PreconditionError(f"quadrature did not converge: err={err}")
    lhs = 2.0 * val / (4.0 * math.pi)
    lam = 2.01 * (dn + math.exp(-math.pi ** 2 * bn ** 2) / (2.0 * math.sqrt(math.pi)))
    rhs = (1.0 - math.exp(-k * k / (4.0 * bn * bn))) / (2.0 * math.sqrt(math.pi) * bn) \
        + 2.0 * lam / bn
    return QuadratureLowerBound(n=n, k=k, lhs=lhs, rhs=rhs, delta_n=dn, lambda_n=lam)


@dataclass(frozen=True)
class ResidueDiagnostics:
    h: int
    n: int
    residues: np.ndarray            # P(S_n = m mod h), length h
    dw_partial_products: np.ndarray  # shape (h-1, n): |prod_{k<=j} E e^{2 pi i r X_k / h}|
    rozanov_partial_products: np.ndarray  # length n


def aud_diagnostics(ps: LatticePmf | Sequence[LatticePmf], n: int, h: int) -> ResidueDiagnostics:
    """Residue distribution of S_n mod h plus the two classical product criteria.

    Accepts a single pmf (i.i.d., repeated n times) or a length-n sequence.
    The first product family tracks |prod_k E exp(2 pi i r X_k / h)| for each
    r = 1..h-1; the second is the running product of the largest residue-class
    mass of each summand.
    """
    if h < 2:
        raise PreconditionError("h >= 2 required")
    seq = [ps] * n if isinstance(ps, LatticePmf) else list(ps)
    if len(seq) != n:
        raise PreconditionError("need exactly n summand laws")
    # residue law of the sum, folded mod h step by step
    res = np.zeros(h)
    res[0] = 1.0
    t = 2.0 * math.pi * np.arange(1, h) / h
    dw = np.empty((h - 1, n))  # |phi_j(t)| of each summand, then its running product
    roz = np.empty(n)  # each summand's largest residue mass, then its running product
    for j, pj in enumerate(seq):
        pj.integer_view()
        step = residues_mod(pj, h)
        new = np.zeros(h)
        for r in range(h):
            if step[r]:
                new += step[r] * np.roll(res, r)
        res = new
        dw[:, j] = np.abs(char_fn(pj, t))
        roz[j] = step.max()
    return ResidueDiagnostics(h=h, n=n, residues=res, dw_partial_products=np.cumprod(dw, axis=1),
                              rozanov_partial_products=np.cumprod(roz))
