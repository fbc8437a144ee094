"""Fair-coin extraction coupling and the effective-rate local bounds built on it.

A lattice variable X with adjacent-overlap mass theta_X > 0 decomposes as
X = V + eps*D*L where (V, eps) has an explicit joint law, L is an independent
fair coin and eps is Bernoulli(theta).  Summing n copies splits S_n into a
smooth part W_n plus D times a fair-coin binomial with a random number of
tosses, which yields fully explicit upper and lower bounds on P{S_n = kappa}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .errors import NoBernoulliComponentError, PreconditionError
from .exact import SumLawTable, sum_law, sup_cdf_distance, weighted_sum_law
from .lattice import (SQRT_2PI, LatticePmf, adjacent_overlap as theta_max, bernoulli,
                      gaussian_scale)
from .rng import stream


@dataclass(frozen=True)
class Decomposition:
    """Joint law of (V, eps) realising X = V + eps*D*L with P(eps=1) = theta.

    ``law`` is the law of V + (D/2) eps on the half-span lattice v0 + (D/2)Z:
    the atom (v_k, eps) sits at index 2k + eps.
    """

    source: LatticePmf
    theta: float
    law: LatticePmf

    def _atoms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(k, eps, mass) of the positive atoms, ascending in (k, eps)."""
        idx, masses = self.law.atoms()
        k, eps = np.divmod(idx, 2)
        return k, eps, masses

    @property
    def tau(self) -> Mapping[int, float]:
        """Read-only k -> tau_k view of the positive coin masses."""
        return MappingProxyType({k: m for (k, e), m in self.joint.items() if e == 1})

    @property
    def joint(self) -> Mapping[tuple[int, int], float]:
        """Read-only (k, eps) -> mass view of the positive atoms."""
        k, eps, masses = self._atoms()
        return MappingProxyType(dict(zip(zip(k.tolist(), eps.tolist()), masses.tolist())))

    def v_eps_pmf(self) -> LatticePmf:
        """Law of V + (D/2) eps on the half-span lattice (index 2k + eps)."""
        return self.law

    def reconstructed(self) -> LatticePmf:
        """Exact law of V + eps*D*L; equals the source pmf."""
        k, eps, masses = self._atoms()
        by_eps = np.zeros((2, k[-1] - k[0] + 2))  # row eps, column k - k_min
        by_eps[eps, k - k[0]] = masses
        half = by_eps[1] / 2.0
        full = (np.append(0.0, half[:-1]) + half) + by_eps[0]
        return LatticePmf._from_window(self.source.v0, self.source.D, int(k[0]), full)

    def to_json(self) -> str:
        joint = [[k, e, m] for (k, e), m in self.joint.items()]
        tau = [[k, m] for k, e, m in joint if e == 1]
        return json.dumps({"theta": self.theta, "tau": tau, "joint": joint})


def decompose(p: LatticePmf, theta: Optional[float] = None) -> Decomposition:
    """Extract a fair-coin component of total mass theta (default: maximal).

    tau_k = (theta / theta_X) * min(f(k), f(k+1)); the joint law places mass
    tau_k on (v_k, eps=1) and f(k) - (tau_{k-1}+tau_k)/2 on (v_k, eps=0).
    """
    tmax = theta_max(p)
    if tmax <= 0.0:
        raise NoBernoulliComponentError("no Bernoulli component: theta_X = 0")
    if theta is None:
        theta = tmax
    if not 0.0 < theta <= tmax * (1.0 + 1e-12):  # relative slack: tmax may be tiny
        raise PreconditionError(f"theta must lie in (0, {tmax}]")
    w = p.dense
    tau = np.minimum(w[:-1], w[1:]) * (theta / tmax)
    padded = np.concatenate(([0.0], tau, [0.0]))
    rest = w - 0.5 * (padded[:-1] + padded[1:])
    bad = np.flatnonzero(rest < -1e-15)
    if len(bad):
        raise PreconditionError(f"tau constraint violated at k={p.offset + int(bad[0])}")
    joint = np.zeros(2 * len(w) - 1)
    # rounding residues in (-1e-15, 0) are clipped to 0 by the window validation
    joint[0::2], joint[1::2] = rest, tau
    law = LatticePmf._from_window(p.v0, p.D / 2.0, 2 * p.offset, joint)
    return Decomposition(source=p, theta=float(theta), law=law)


def sample_decomposed_sum(decomp: Decomposition, n: int, seed: int) -> tuple[float, int, int]:
    """One draw of (W_n, count of eps hits, count of fair-coin successes)."""
    if n == 0:
        return (0.0, 0, 0)
    rng = stream(seed)
    k, eps, masses = decomp._atoms()
    idx = rng.choice(len(masses), size=n, p=masses / masses.sum())
    coins = rng.integers(0, 2, size=n)
    w_n = float(np.sum(decomp.source.v0 + decomp.source.D * k[idx]))
    b_n = int(eps[idx].sum())
    m_n = int((eps[idx] * coins).sum())
    return (w_n, b_n, m_n)


def exact_Sprime_law(decomp: Decomposition, n: int) -> SumLawTable:
    """Exact law of S'_n = W_n + (D/2) B_n on the half-span lattice."""
    return sum_law(decomp.v_eps_pmf(), n)


def h_n_exact(decomp: Decomposition, n: int) -> float:
    """Exact sup-CDF distance of the normalised smoothed sum to the normal."""
    return sup_cdf_distance(exact_Sprime_law(decomp, n))


def rho_bound(h: float, theta_n: float) -> float:
    """Bernstein-type tail bound 2 exp(-h^2 Theta_n / (2 (1 + h/3)))."""
    if not theta_n > 0:
        raise PreconditionError("Theta_n must be positive")
    return 2.0 * math.exp(-h * h * theta_n / (2.0 * (1.0 + h / 3.0)))


def _count_tail(law: SumLawTable, mu: Fraction, h: float) -> float:
    """P{|K - mu| > h mu} for a count K with law ``law``: a sum of exact table masses."""
    if not 0.0 <= h < math.inf:  # NaN fails the comparison too
        raise PreconditionError(f"the band width h must be finite and >= 0, got {h!r}")
    r = Fraction(h) * mu  # exact rationals: rounding cannot move an edge atom across the band
    k = law.offset + np.arange(len(law.dense))
    return float(law.dense[(k < math.ceil(mu - r)) | (k > math.floor(mu + r))].sum())


def rho_exact_iid(n: int, theta: float, h: float) -> float:
    """Exact P{|Binomial(n, theta) - n theta| > h n theta} (strict inequality)."""
    return _count_tail(sum_law(bernoulli(theta), n), n * Fraction(theta), h)


def rho_exact_counts(thetas, h: float) -> float:
    """Exact tail of a Poisson-binomial count of eps hits (independent case)."""
    mu = Fraction(float(np.sum(thetas)))
    return _count_tail(weighted_sum_law([1] * len(thetas), thetas), mu, h)


@dataclass(frozen=True)
class EffectiveRateInput:
    """Inputs of the explicit two-sided local bound.

    C1 and C2 are derived: C1 = max(8/sqrt(2 pi), C0), C2 = 2^{7/2} C1.
    """

    n: int
    var_sn: float
    mean_sn: float
    theta_n: float        # sum of extracted theta_j
    h_n: float            # sup-CDF distance of the normalised smoothed sum
    rho_n: float          # P{|eps-count - Theta_n| > h Theta_n}
    h: float
    D: float
    C0: float

    def __post_init__(self):
        if not 0.0 < self.h < 1.0:
            raise PreconditionError("h must lie in (0,1)")
        gaussian_scale(self.var_sn)
        if not self.theta_n > 0:  # NaN fails too
            raise PreconditionError(f"Theta_n must be positive, got {self.theta_n!r}")

    @property
    def C1(self) -> float:
        return max(8.0 / SQRT_2PI, self.C0)

    @property
    def C2(self) -> float:
        return 2.0 ** 3.5 * self.C1


@dataclass(frozen=True)
class SandwichBounds:
    upper: float
    lower: float
    gaussian: float


def effective_bounds(inp: EffectiveRateInput, kappa: float) -> SandwichBounds:
    """Two-sided explicit bounds on P{S_n = kappa}.

    upper = ((1+h)/(1-h)) gauss_+  +  (C1/sqrt((1-h)Theta)) (H + 1/((1-h)Theta)) + rho
    lower = ((1-h)/(1+h)) gauss_-  -  (C1/sqrt((1-h)Theta)) (H + 1/((1-h)Theta) + 2 rho) - rho
    where gauss_± use variance inflated/deflated by (1 ± h).
    """
    h, var, mean = inp.h, inp.var_sn, inp.mean_sn
    theta, hn, rho = inp.theta_n, inp.h_n, inp.rho_n
    z2 = (kappa - mean) ** 2
    base = inp.D / math.sqrt(2.0 * math.pi * var)
    gauss_plus = base * math.exp(-z2 / (2.0 * (1.0 + h) * var))
    gauss_minus = base * math.exp(-z2 / (2.0 * (1.0 - h) * var))
    err = inp.C1 / math.sqrt((1.0 - h) * theta)
    upper = ((1.0 + h) / (1.0 - h)) * gauss_plus + err * (hn + 1.0 / ((1.0 - h) * theta)) + rho
    lower = ((1.0 - h) / (1.0 + h)) * gauss_minus \
        - err * (hn + 1.0 / ((1.0 - h) * theta) + 2.0 * rho) - rho
    gaussian = base * math.exp(-z2 / (2.0 * var))
    return SandwichBounds(upper=upper, lower=lower, gaussian=gaussian)


def ger2_window_ok(inp: EffectiveRateInput, kappa: float) -> bool:
    """Whether the single-sided corollary's preconditions hold at kappa."""
    theta = inp.theta_n
    if theta <= 1.0 or math.log(theta) / theta > 1.0 / 14.0:
        return False
    z2 = (kappa - inp.mean_sn) ** 2 / inp.var_sn
    return z2 <= math.sqrt(theta / (14.0 * math.log(theta)))


def ger2_bound(inp: EffectiveRateInput) -> float:
    """C2 { D sqrt(log Theta/(Var Theta)) + (H + 1/Theta)/sqrt(Theta) }."""
    theta = inp.theta_n
    if theta <= 1.0:
        raise PreconditionError("Theta_n must exceed 1 for the log bound")
    return inp.C2 * (inp.D * math.sqrt(math.log(theta) / (inp.var_sn * theta))
                     + (inp.h_n + 1.0 / theta) / math.sqrt(theta))


def transfer_formula_check(a: float, b: float, y_law: SumLawTable) -> dict:
    """Slack of |E e^{-a(b-Y)^2} - e^{-b^2/(2+1/a)}/sqrt(1+2a)| <= 4 sup|F_Y - Phi|.

    Y is the lattice law given by ``y_law``, centred at its stored mean (0 when
    the mean is unknown).  Returns lhs, rhs and slack >= 0.
    """
    if a <= 0 or b < 0:
        raise PreconditionError("transfer formula needs a > 0, b >= 0")
    center = y_law.meta.mu or 0.0
    supp, w = y_law.atoms()
    y = y_law.points(supp) - center
    lhs = abs(float(np.dot(w, np.exp(-a * (b - y) ** 2)))
              - math.exp(-b * b / (2.0 + 1.0 / a)) / math.sqrt(1.0 + 2.0 * a))
    rhs = 4.0 * sup_cdf_distance(y_law, center=center, scale=1.0)
    return {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs}
