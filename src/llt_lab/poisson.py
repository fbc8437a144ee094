"""Poisson approximation: disparity metrics, couplings and explicit bounds."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PreconditionError, ResourceLimitError
from .exact import SumLawTable, _convolve, _kolmogorov, _step_cdf, weighted_sum_law
from .lattice import MAX_WINDOW, LatticeWindow, write_csv

#: Poisson tails are truncated where the remaining mass drops below this
POISSON_TAIL = 1e-14
POISSON_K_CAP = 200


def poisson_pmf(lam: float, k_max: int | None = None) -> np.ndarray:
    """Poisson masses 0..K with tail below POISSON_TAIL; K may not pass POISSON_K_CAP."""
    if not 0.0 <= lam < math.inf:  # NaN fails the comparison too
        raise PreconditionError(f"Poisson mean must be finite and nonnegative, got {lam!r}")
    out = [math.exp(-lam)]
    total = out[0]
    k = 0
    while (1.0 - total > POISSON_TAIL or (k_max is not None and k < k_max)) \
            and k < POISSON_K_CAP:
        k += 1
        out.append(out[-1] * lam / k)
        total += out[-1]
    if 1.0 - total > POISSON_TAIL:
        raise PreconditionError(f"Poisson({lam}) tail {1.0 - total:.3g} is still above "
                                f"{POISSON_TAIL} at k = {POISSON_K_CAP}")
    return np.array(out)


def _as_array(law) -> np.ndarray:
    """Coerce a law on nonnegative integers to a dense mass vector from 0."""
    if isinstance(law, LatticeWindow):
        off, dense = law.integer_view()
        if off < 0:
            raise PreconditionError("law must live on nonnegative integers")
        if off + len(dense) > MAX_WINDOW:  # before the zeros below index off are allocated
            raise ResourceLimitError(f"dense window of {off + len(dense)} entries exceeds budget")
        return np.concatenate((np.zeros(off), dense))
    arr = np.asarray(law, dtype=np.float64)
    if arr.ndim != 1 or not np.all((arr >= -1e-15) & (arr < np.inf)):  # NaN fails too
        raise PreconditionError("law must be a 1-d finite nonnegative mass vector")
    return arr


def _aligned(law_a, law_b) -> tuple[np.ndarray, np.ndarray]:
    a = _as_array(law_a)
    b = _as_array(law_b)
    n = max(len(a), len(b))
    return (np.pad(a, (0, n - len(a))), np.pad(b, (0, n - len(b))))


def tv_distance(law_a, law_b) -> float:
    """Half-sum disparity (1/2) sum_k |P{X=k} - P{Y=k}|."""
    a, b = _aligned(law_a, law_b)
    return 0.5 * float(np.abs(a - b).sum())


def d0_distance(law_a, law_b) -> float:
    """Pointwise disparity sup_k |P{X=k} - P{Y=k}|."""
    a, b = _aligned(law_a, law_b)
    return float(np.abs(a - b).max())


def cdf_sup_distance(law_a, law_b) -> float:
    """CDF-sup disparity sup_u |P{X<=u} - P{Y<=u}| on the integers."""
    a, b = _aligned(law_a, law_b)
    return _kolmogorov(a, _step_cdf(b))


def set_sup_distance(law_a, law_b, window: int) -> float:
    """sup_A |P{X in A} - P{Y in A}| over all subsets of 0..window-1.

    Mass beyond the window is treated as one extra point that may join A.
    The supremum is attained at A = {k : P{X=k} > P{Y=k}} or at its
    complement, so it is the larger of the two one-sided sums of the gaps.
    """
    if window < 0:
        raise PreconditionError("window must be nonnegative")
    a, b = _aligned(law_a, law_b)
    gap = (np.append(a[:window], max(0.0, 1.0 - a[:window].sum()))
           - np.append(b[:window], max(0.0, 1.0 - b[:window].sum())))
    return float(max(np.maximum(gap, 0.0).sum(), np.maximum(-gap, 0.0).sum()))


def poisson_binomial_law(ps: Sequence[float]) -> SumLawTable:
    """Exact law of a sum of independent Bernoulli(p_i)."""
    return weighted_sum_law([1] * len(ps), ps)


def lecam_bound(ps: Sequence[float]) -> float:
    """Full-sum bound 2 sum p_i^2 for the Poisson approximation of a Bernoulli sum."""
    ps = [float(p) for p in ps]
    if any(not 0.0 < p < 1.0 for p in ps):
        raise PreconditionError("success probabilities must lie in (0,1)")
    return 2.0 * float(np.dot(ps, ps))


def lecam_full_sum(ps: Sequence[float]) -> float:
    """Exact sum_k |P{S_n=k} - e^{-lam} lam^k/k!| with lam = sum p_i."""
    law = poisson_binomial_law(ps)
    lam = float(np.sum(ps))
    pois = poisson_pmf(lam, k_max=len(law.dense) - 1)
    return 2.0 * tv_distance(law, pois)


@dataclass(frozen=True)
class CouplingTable:
    """Per-index joint masses of the Bernoulli/Poisson maximal coupling.

    Row i carries (p_i, P{X=Y=1}, P{X=1,Y=0}, P{X=Y=0}, P{X=0,Y=y} for y>=2).
    """

    ps: tuple
    rows: tuple  # tuples (both_one, x_only, both_zero, y_tail_masses)

    def row_sum(self, i: int) -> float:
        both_one, x_only, both_zero, tail = self.rows[i]
        return both_one + x_only + both_zero + float(np.sum(tail))

    def to_csv(self, path) -> None:
        write_csv(path, ["i", "p", "both_one", "x_one_y_zero", "both_zero", "y_tail_total"],
                  ((i, self.ps[i], b1, xo, b0, float(np.sum(tail)))
                   for i, (b1, xo, b0, tail) in enumerate(self.rows)))


def coupling(ps: Sequence[float]) -> CouplingTable:
    """Maximal coupling of Bernoulli(p_i) with Poisson(p_i) margins.

    Feasibility is the exact row condition P{X=Y=0} >= 0 (it holds whenever
    p_i <= 0.8); an infeasible row raises and names its index.
    """
    rows = []
    for i, p in enumerate(ps):
        if not 0.0 < p < 1.0:
            raise PreconditionError(f"row {i}: p must lie in (0,1)")
        e = math.exp(-p)
        both_one = p * e
        x_only = p * (1.0 - e)
        both_zero = e - p * (1.0 - e)
        if both_zero < 0:
            raise PreconditionError(
                f"row {i}: infeasible p={p}: P(X=Y=0)={both_zero} < 0")
        tail = poisson_pmf(p)[2:]
        rows.append((both_one, x_only, both_zero, tail))
    return CouplingTable(ps=tuple(float(p) for p in ps), rows=tuple(rows))


def franken_bound(laws: Sequence) -> float:
    """(2/pi) sum_i (E X_i^2 + E X_i (X_i - 1)) for nonnegative integer laws."""
    total = 0.0
    for law in laws:
        arr = _as_array(law)
        k = np.arange(len(arr), dtype=np.float64)
        ex2 = float(np.dot(arr, k * k))
        exx = float(np.dot(arr, k * (k - 1.0)))
        total += ex2 + exx
    return (2.0 / math.pi) * total


def convolve_laws(laws: Sequence) -> np.ndarray:
    """Exact law of the independent sum of laws on nonnegative integers.

    A left fold of ``exact._convolve`` from [1.0], each product checked against
    ``MAX_WINDOW`` first: it drops nothing, returns a fresh array, and like
    ``sum_law`` goes to FFT past the direct-size switch.
    """
    def product(law: np.ndarray, other: np.ndarray) -> np.ndarray:
        if len(law) + len(other) - 1 > MAX_WINDOW:
            raise ResourceLimitError(f"a law of {len(law) + len(other) - 1} entries exceeds budget")
        return _convolve(law, other)

    return functools.reduce(product, map(_as_array, laws), np.array([1.0]))


def gap_table_csv(path, law, lam: float) -> None:
    """CSV of (k, exactMass, poissonMass, absGap) against Poisson(lam)."""
    arr = _as_array(law)
    pois = poisson_pmf(lam, k_max=len(arr) - 1)
    a, b = _aligned(arr, pois)
    write_csv(path, ["k", "exactMass", "poissonMass", "absGap"],
              zip(range(len(a)), a.tolist(), b.tolist(), np.abs(a - b).tolist()))
