"""Seeded generators of random lattice pmfs for randomized checks."""

from __future__ import annotations

import numpy as np

from .lattice import LatticePmf, adjacent_overlap, char_fn, maximal_span, moments
from .rng import stream


def random_pmf(rng: np.random.Generator, max_atoms: int = 8, span: int = 1,
               window: int = 12) -> LatticePmf:
    """Random integer-lattice pmf with a few Dirichlet-weighted atoms."""
    k = int(rng.integers(2, max_atoms + 1))
    positions = rng.choice(np.arange(0, window) * span, size=k, replace=False)
    w = rng.dirichlet(np.ones(k))
    return LatticePmf(0.0, 1.0, dict(zip(positions.tolist(), w.tolist())))


def random_adjacent_pmf(rng: np.random.Generator, max_atoms: int = 8) -> LatticePmf:
    """Random pmf guaranteed to carry mass on two adjacent integers."""
    while True:
        p = random_pmf(rng, max_atoms=max_atoms)
        if adjacent_overlap(p) > 1e-3:
            return p


def mixing_span1_pmf(rng: np.random.Generator) -> LatticePmf:
    """Span-1 pmf whose residue characteristic functions are uniformly mixing.

    Rejection-sampled so that max over h <= 5, 0<r<h of |cf(2 pi r/h)| is at
    most 0.97 and the standard deviation is at least 0.5; such laws show
    textbook local limit behaviour at desk-scale n.
    """
    while True:
        size = int(rng.integers(3, 7))
        start = int(rng.integers(0, 3))
        w = rng.dirichlet(np.ones(size)) * 0.7 + 0.3 / size
        w = w / w.sum()
        weights = {start + i: float(m) for i, m in enumerate(w)}
        p = LatticePmf(0.0, 1.0, weights)
        if maximal_span(p) != 1.0:
            continue
        mom = moments(p)
        if mom.sigma2 < 0.25:
            continue
        ts = [2.0 * np.pi * r / h for h in range(2, 6) for r in range(1, h)]
        if max(abs(char_fn(p, t)) for t in ts) > 0.97:
            continue
        return p


def seeded(seed: int) -> np.random.Generator:
    return stream(seed)
