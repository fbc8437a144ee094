"""Structural characteristics of an integer-valued random variable.

All operations take an integer-valued law: span D = 1 and an integral
origin v0, which ``integer_view`` folds into the index (use
``LatticePmf.relabel`` first for a general lattice).  The characteristics are
the unit-shift total variation delta, the adjacent-overlap mass theta, the
nearest-integer quadratic characteristic of a scaled variable, its
symmetrised variant, and the residue-class concentration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict

import numpy as np

from .errors import PreconditionError, ResourceLimitError
from .exact import residues_mod
from .lattice import (MAX_WINDOW, LatticePmf, LatticeWindow, adjacent_overlap, gaussian_scale,
                      write_csv)


def _integer_atoms(p: LatticeWindow) -> tuple[np.ndarray, np.ndarray]:
    """Integer support values and their masses."""
    off, w = p.integer_view()
    nz = np.flatnonzero(w > 0)
    return off + nz, w[nz]


@dataclass(frozen=True)
class CharacteristicsRecord:
    """Bundle of characteristics on the fixed d- and h-grids of ``characteristics_record``."""

    delta: float
    theta: float
    mukhinD: Dict[float, float]
    H: Dict[float, float]
    nu: Dict[int, float]

    def to_csv(self, path) -> None:
        write_csv(path, ["characteristic", "argument", "value"],
                  [("delta", "", self.delta), ("theta", "", self.theta)]
                  + [("D", d, v) for d, v in self.mukhinD.items()]
                  + [("H", d, v) for d, v in self.H.items()]
                  + [("nu", h, v) for h, v in self.nu.items()])


def delta_char(p: LatticePmf) -> float:
    """Unit-shift total variation sum_m |P{X=m} - P{X=m-1}|."""
    _, w = p.integer_view()
    padded = np.concatenate(([0.0], w, [0.0]))
    return float(np.abs(np.diff(padded)).sum())


def theta_char(p: LatticePmf) -> float:
    """Adjacent-overlap mass sum_m min(P{X=m}, P{X=m+1}); always < 1."""
    p.integer_view()
    return adjacent_overlap(p)


@lru_cache(maxsize=8)
def symmetrized(p: LatticePmf) -> LatticePmf:
    """Law of X - X' for an independent copy X' (exact self-correlation).

    Keeps its last 8 results, keyed on the law object, as ``exact.sum_law`` does.
    """
    _, w = p.integer_view()
    if len(w) ** 2 > MAX_WINDOW:  # np.convolve takes O(width^2) time
        raise ResourceLimitError(f"symmetrising a window of {len(w)} entries exceeds budget")
    conv = np.convolve(w, w[::-1])
    return LatticePmf._from_window(0.0, 1.0, 1 - len(w), conv / conv.sum())


def _nearest_int_sq(x: np.ndarray) -> np.ndarray:
    frac = x - np.round(x)
    return frac * frac


def mukhin_D(p: LatticePmf, d: float) -> float:
    """inf_a E<(X-a)d>^2 with <.> the distance to the nearest integer.

    With b = a*d and y = X*d the objective F(b) = E<y - b>^2 has period 1 in
    b, and the nearest integer k_j to y_j - b only jumps at the kinks
    b = y_j - 1/2 (mod 1).  Between two kinks the k_j are fixed and F is the
    quadratic E(y - k - b)^2, least at b = E(y - k).  No such minimum lies
    below inf F, since <x>^2 <= (x - k)^2 for every integer k, and the piece
    that holds the minimiser of F attains it; so the smallest of the piece
    minima is the exact minimum (O(width^2) work).
    """
    supp, masses = _integer_atoms(p)
    if not abs(d) <= 0.5 + 1e-15:  # NaN fails too
        raise PreconditionError("mukhin_D requires |d| <= 1/2")
    if d == 0.0:
        return 0.0
    if len(supp) ** 2 > MAX_WINDOW:  # the pieces x atoms matrix below
        raise ResourceLimitError(f"mukhin_D over {len(supp)} atoms exceeds budget")
    y = supp * d
    kinks = np.sort((y - 0.5) % 1.0)
    # the midpoint of each piece between consecutive kinks; the last piece wraps round
    mids = 0.5 * (kinks + np.append(kinks[1:], kinks[0] + 1.0))
    r = y - np.round(y - mids[:, None])  # y - k on each piece
    r -= ((r @ masses) / masses.sum())[:, None]
    return float(np.min((r * r) @ masses))


def mukhin_H(p: LatticePmf, d: float) -> float:
    """E<X* d>^2 over the exact symmetrisation X* of X."""
    p.integer_view()
    if not abs(d) <= 0.5 + 1e-15:  # NaN fails too
        raise PreconditionError("mukhin_H requires |d| <= 1/2")
    supp, masses = _integer_atoms(symmetrized(p))
    return float(np.dot(masses, _nearest_int_sq(supp * d)))


def nu_char(p: LatticePmf, h: int) -> float:
    """min_j P{X != j (mod h)} -- residue-class spread, 0 for a point mass."""
    p.integer_view()
    return float(1.0 - residues_mod(p, h).max())


def characteristics_record(p: LatticePmf) -> CharacteristicsRecord:
    """delta, theta, mukhin_D and mukhin_H at d = 1/2, 1/4, 1/8, and nu at h = 2..5."""
    d_grid = (0.5, 0.25, 0.125)
    return CharacteristicsRecord(
        delta=delta_char(p),
        theta=theta_char(p),
        mukhinD={d: mukhin_D(p, d) for d in d_grid},
        H={d: mukhin_H(p, d) for d in d_grid},
        nu={h: nu_char(p, h) for h in (2, 3, 4, 5)},
    )


def mukhin_hn_ratio(pmfs: list[LatticePmf], delta_n: float) -> float:
    """Measured ratio Delta_n / (L_n B_n / H_n) for a sum of centered summands.

    Diagnostic only: the inequality this ratio probes is stated without proof
    and with an unclear normalisation, so nothing is asserted about it.
    """
    b2 = 0.0
    l3 = 0.0
    d_grid = np.linspace(0.25, 0.5, 41)
    hn_grid = np.zeros(len(d_grid))  # sum over summands of H(X_j, d), in summand order
    for p in pmfs:
        supp, masses = _integer_atoms(p)
        mu = float(np.dot(masses, supp))
        b2 += float(np.dot(masses, (supp - mu) ** 2))
        l3 += float(np.dot(masses, np.abs(supp - mu) ** 3))
        hn_grid += [mukhin_H(p, d) for d in d_grid]
    bn = gaussian_scale(b2)
    ln = l3 / bn ** 3
    hn = float(hn_grid.min())
    if hn == 0:
        return math.inf
    return delta_n / (ln * bn / hn)
