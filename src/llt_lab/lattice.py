"""Lattice-valued probability mass functions.

A lattice pmf lives on the point set {v0 + k*D : k in Z} and is stored as
one dense window of masses over the index range offset .. offset+len-1; the
exact engine's sum tables share that form (``LatticeWindow``).  Laws are
immutable: every ``LatticePmf`` window is a read-only array, and so is the
mass array of every ``exact.SumLawTable`` (a ``sum_law`` table may be shared
by several callers).  ``write_csv`` writes every CSV table of the package.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .errors import (
    DegenerateLawError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedParameterError,
)

MASS_TOL = 1e-12

SQRT_2PI = math.sqrt(2.0 * math.pi)

#: masses below this floor are dropped by the exact engine and accumulated
#: into a lost-mass diagnostic
UNDERFLOW_FLOOR = 1e-300

#: dense windows larger than this raise ResourceLimitError
MAX_WINDOW = 1 << 26


@dataclass(frozen=True)
class MomentSummary:
    """Mean / variance / third central moment of a lattice law.

    ``sigma2`` and ``mu3`` are ``None`` when the (untruncated) analytic family
    has no such moment; see :func:`moments`.
    """

    mu: Optional[float]
    sigma2: Optional[float]
    mu3: Optional[float] = None


class LatticeWindow:
    """Masses over the index window offset .. offset+len(dense)-1 of origin + D*Z.

    The one stored form of a lattice law, shared by ``LatticePmf`` (origin
    v0) and the exact engine's ``SumLawTable`` (origin n*v0).  Subclasses set
    ``origin``, ``D``, ``offset`` and ``dense``; every view below is derived
    from those four.
    """

    __slots__ = ()

    @property
    def support(self) -> np.ndarray:
        """Sorted array of indices carrying positive mass."""
        return self.offset + np.flatnonzero(self.dense > 0)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Support indices and their masses."""
        nz = np.flatnonzero(self.dense > 0)
        return self.offset + nz, self.dense[nz]

    def points(self, indices=None) -> np.ndarray:
        """Lattice point values origin + k*D for the given (or all support) indices."""
        k = self.support if indices is None else np.asarray(indices)
        return self.origin + self.D * k

    def prob(self, index: int) -> float:
        """Mass at lattice index (0 outside the window)."""
        i = index - self.offset
        if 0 <= i < len(self.dense):
            return float(self.dense[i])
        return 0.0

    def total_mass(self) -> float:
        return float(self.dense.sum())

    def integer_view(self) -> tuple[int, np.ndarray]:
        """(offset, dense) with index k standing for the integer value k itself.

        Needs span 1 and an integral origin, which is folded into the offset.
        """
        if self.D != 1.0 or not float(self.origin).is_integer():
            raise PreconditionError("integer-valued law required (span 1, integral origin)")
        return self.offset + int(self.origin), self.dense


class LatticePmf(LatticeWindow):
    """Probability mass function on the lattice v0 + D*Z.

    ``weights`` maps the integer index k to the mass at point v0 + k*D; it is
    turned into the dense window once, here, and the window spans the first
    to the last positive atom.  For analytically defined infinite families
    (power tail), ``family`` holds the descriptor including the truncation
    index and the discarded tail mass; the stored masses are renormalised to
    total mass one and the deficit is recorded, not hidden.
    """

    __slots__ = ("v0", "D", "offset", "dense", "family")

    def __init__(self, v0: float, D: float, weights: Mapping[int, float]):
        n = len(weights)
        self._set_atoms(v0, D, np.fromiter(weights, dtype=np.int64, count=n),
                        np.fromiter(weights.values(), dtype=np.float64, count=n))

    def _set_atoms(self, v0: float, D: float, keys: np.ndarray, masses: np.ndarray) -> None:
        """Scatter masses[i] to index keys[i] (each index once) into the window."""
        if not len(keys):
            raise ValueError("weights must be non-empty")
        lo = int(keys.min())
        width = int(keys.max()) - lo + 1
        if width > MAX_WINDOW:
            raise ResourceLimitError(f"dense window of {width} entries exceeds budget")
        dense = np.zeros(width)
        dense[keys - lo] = masses
        self._set_window(v0, D, lo, dense, None)

    @classmethod
    def _from_window(cls, v0: float, D: float, offset: int, dense: np.ndarray,
                     family: Optional[dict] = None) -> "LatticePmf":
        p = cls.__new__(cls)
        p._set_window(v0, D, offset, dense, family)
        return p

    def _set_window(self, v0, D, offset, dense, family) -> None:
        """The single validation of every constructor; trims zero edges."""
        if not (math.isfinite(v0) and math.isfinite(D)):
            raise ValueError(f"origin v0 = {v0!r} and span D = {D!r} must be finite")
        if not (D > 0):
            raise ValueError("span D must be positive")
        if len(dense) > MAX_WINDOW:
            raise ResourceLimitError(f"dense window of {len(dense)} entries exceeds budget")
        if not np.all(dense >= -MASS_TOL):  # NaN fails the comparison too
            raise ValueError("weights must be nonnegative numbers")
        if np.any(dense < 0):
            dense = np.maximum(dense, 0.0)
        total = dense.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {total!r} not within {MASS_TOL} of 1")
        positive = dense > 0
        first = int(positive.argmax())
        if not positive[first]:
            raise ValueError("at least one strictly positive weight required")
        last = len(dense) - int(positive[::-1].argmax())
        self.v0, self.D, self.family = v0, D, family
        self.offset, self.dense = offset + first, dense[first:last]
        self.dense.flags.writeable = False

    # -- views ---------------------------------------------------------------

    @property
    def origin(self) -> float:
        return self.v0

    @property
    def weights(self) -> Mapping[int, float]:
        """Read-only index -> mass view of the positive atoms, built on access."""
        supp, masses = self.atoms()
        return MappingProxyType(dict(zip(supp.tolist(), masses.tolist())))

    @property
    def discarded_mass(self) -> float:
        return self.family.get("discarded_mass", 0.0) if self.family else 0.0

    def is_degenerate(self) -> bool:
        return len(self.dense) == 1

    # -- basic transforms ------------------------------------------------------

    def relabel(self) -> "LatticePmf":
        """Affine relabeling X' = (X - v0)/D onto the integer lattice (v0=0, D=1)."""
        return LatticePmf._from_window(0.0, 1.0, self.offset, self.dense, self.family)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        """Distribution spec; bit-exact round-trip for the explicit form."""
        if self.family is not None:
            fam = self.family
            spec = {"family": "power_tail", "alpha": fam["alpha"], "c": fam["c"],
                    "truncation_mass": fam["truncation_mass"]}
            J = fam["truncation_index"]
            if J < _truncation_index(fam["alpha"], fam["c"], fam["truncation_mass"]):
                spec["max_index"] = J  # max_index bound the truncation
            return json.dumps(spec)
        supp, masses = self.atoms()
        # json writes each (k, m) tuple as the array [k, m]; no pair can hold itself
        pmf = list(zip(supp.tolist(), masses.tolist()))
        return json.dumps({"v0": self.v0, "D": self.D, "pmf": pmf}, check_circular=False)

    @staticmethod
    def from_json(text: str) -> "LatticePmf":
        """Law from a distribution spec; a malformed spec raises ValueError naming the fault."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"a law spec must be a JSON object, not {type(obj).__name__}")
        family = obj.get("family")
        if family == "power_tail":
            args = (obj.get("alpha"), obj.get("c", 1.0), obj.get("truncation_mass", 1e-10))
            if not all(type(a) in (int, float) for a in args):  # a missing alpha is None
                raise ValueError("power_tail alpha, c and truncation_mass must be JSON numbers")
            max_index = obj.get("max_index")
            if max_index is not None and not (type(max_index) is int and max_index > 0):
                raise ValueError("power_tail max_index must be a positive JSON integer")
            return power_tail(*args, max_index=max_index)
        if "pmf" not in obj and family is not None:
            raise ValueError(f"unknown law family {family!r}; an explicit spec needs \"pmf\"")
        missing = [f'"{field}"' for field in ("v0", "D", "pmf") if field not in obj]
        if missing:
            raise ValueError(f"the law spec lacks {', '.join(missing)}")
        pmf, v0, D = obj["pmf"], obj["v0"], obj["D"]
        # C-level passes over the list check and read the pairs, so no copy of them is built
        if type(pmf) is not list or not (set(map(type, pmf)) <= {list}
                                          and set(map(len, pmf)) <= {2}):
            raise ValueError('"pmf" must be a list of [index, mass] number pairs')
        # a JSON true is an int to Python and "0.5" would parse, so the types are compared
        if not set(map(type, chain((v0, D), map(itemgetter(1), pmf)))) <= {int, float}:
            raise ValueError("v0, D and the masses of the [index, mass] number pairs "
                             "must be JSON numbers")
        if not set(map(type, map(itemgetter(0), pmf))) <= {int}:  # a float index would be cut
            raise ValueError("pmf indices must be JSON integers")
        n = len(pmf)
        try:
            v0, D = float(v0), float(D)
            keys = np.fromiter(map(itemgetter(0), pmf), dtype=np.int64, count=n)
            masses = np.fromiter(map(itemgetter(1), pmf), dtype=np.float64, count=n)
        except OverflowError as exc:  # an index past int64, or a number past the float range
            raise ValueError(f"a number of the spec is out of range: {exc}") from None
        ordered = np.sort(keys)
        if (ordered[1:] == ordered[:-1]).any():
            twice = next(k for k, c in Counter(k for k, _ in pmf).items() if c > 1)
            raise ValueError(f"pmf index {twice} is listed more than once")
        del ordered  # not kept through the scatter
        law = LatticePmf.__new__(LatticePmf)
        law._set_atoms(v0, D, keys, masses)
        return law


# -- constructors for common laws -----------------------------------------------


def bernoulli(p: float) -> LatticePmf:
    if not 0.0 < p < 1.0:
        raise ValueError("bernoulli parameter must lie in (0,1)")
    return LatticePmf(0.0, 1.0, {0: 1.0 - p, 1: p})


def uniform_range(a: int, b: int) -> LatticePmf:
    """Uniform law on the integers a..b inclusive."""
    if b < a:
        raise ValueError("empty range")
    n = b - a + 1
    if n > MAX_WINDOW:  # before the window is allocated
        raise ResourceLimitError(f"dense window of {n} entries exceeds budget")
    return LatticePmf._from_window(0.0, 1.0, a, np.full(n, 1.0 / n))


def point_mass(value: float) -> LatticePmf:
    """Unit mass at index 0 of the lattice value + Z."""
    return LatticePmf(float(value), 1.0, {0: 1.0})


def centered_coin() -> LatticePmf:
    """Fair coin on {-1, +1} (span 2 lattice with offset -1)."""
    return LatticePmf(-1.0, 2.0, {0: 0.5, 1: 0.5})


def lazy_walk() -> LatticePmf:
    """Step law on {-1, 0, 1} with masses 1/4, 1/2, 1/4 (maximal span 1)."""
    return LatticePmf(0.0, 1.0, {-1: 0.25, 0: 0.5, 1: 0.25})


def _truncation_index(alpha: float, c: float, tail_mass: float,
                      max_index: Optional[int] = None) -> int:
    """The last index J that ``power_tail`` keeps."""
    hard_cap = MAX_WINDOW >> 3
    J = math.ceil((c / tail_mass) ** (1.0 / alpha)) if tail_mass > 0 else hard_cap
    if max_index is not None:
        J = min(J, max_index)
    return min(max(J, 8), hard_cap)


def power_tail(alpha: float, c: float = 1.0, tail_mass: float = 1e-10,
               max_index: Optional[int] = None) -> LatticePmf:
    """Discretised one-sided power-tail law p(j) = c*(j^-a - (j+1)^-a), j >= 1.

    The infinite support is truncated at the smallest J whose discarded tail
    c*(J+1)^-alpha falls below ``tail_mass`` (or at ``max_index`` / the memory
    budget if that is reached first); weights are renormalised to total mass
    one and the discarded mass is recorded on the family descriptor.  For
    c < 1 the deficit at the lattice origin is an atom at j = 0.
    ``max_index`` is None or an integer >= 1 (not a bool); J never falls
    below 8, so a smaller ``max_index`` still keeps indices 1..8.
    """
    if max_index is not None and (isinstance(max_index, bool)
                                  or not isinstance(max_index, (int, np.integer)) or max_index < 1):
        raise UnsupportedParameterError(f"max_index must be None or an integer >= 1, "
                                        f"got {max_index!r}")
    if not alpha > 0:
        raise UnsupportedParameterError("power tail requires alpha > 0")
    if not 0.0 < c <= 1.0:
        raise UnsupportedParameterError("tail constant c must lie in (0, 1]")
    if not tail_mass >= 0:
        raise UnsupportedParameterError("truncation mass must be >= 0")
    J = _truncation_index(alpha, c, tail_mass, max_index)
    tail = np.arange(1, J + 2, dtype=np.float64) ** -alpha  # j^-a for j = 1..J+1
    w = c * (tail[:-1] - tail[1:])
    discarded = c * float(J + 1) ** -alpha
    kept = w.sum() + (1.0 - c)
    scale = 1.0 / kept
    w *= scale
    if c < 1.0:
        w = np.concatenate(([(1.0 - c) * scale], w))
    fam = {
        "alpha": float(alpha),
        "c": float(c),
        "truncation_mass": float(tail_mass),
        "truncation_index": int(J),
        "discarded_mass": float(discarded),
    }
    return LatticePmf._from_window(0.0, 1.0, 0 if c < 1.0 else 1, w, family=fam)


# -- operations -------------------------------------------------------------------


def maximal_span(p: LatticePmf) -> float:
    """Largest D' such that every support point lies on a lattice of span D'.

    Computed as D times the gcd of support-index differences.  A single-point
    support has no well-defined span.
    """
    supp = p.support
    if len(supp) < 2:
        raise DegenerateLawError("degenerate: span undefined")
    return p.D * int(np.gcd.reduce(np.diff(supp)))


def adjacent_overlap(p: LatticeWindow) -> float:
    """sum_k min(f(k), f(k+1)) over the law's own lattice indices."""
    w = p.dense
    return float(np.minimum(w[:-1], w[1:]).sum())


def moments(p: LatticePmf) -> MomentSummary:
    """Exact weighted moments over the stored support.

    For truncated power-tail families the analytic law governs which moments
    exist: mean requires alpha > 1 (returned analytically as c*zeta(alpha)),
    variance alpha > 2, third moment alpha > 3.  Missing ones are None.
    """
    alpha = math.inf  # an explicit law has every moment
    if p.family is not None:
        from scipy.special import zeta

        alpha = p.family["alpha"]
        mu = float(p.family["c"] * zeta(alpha, 1)) if alpha > 1 else None
        if alpha <= 2:
            return MomentSummary(mu=mu, sigma2=None, mu3=None)
    supp, w = p.atoms()
    x = p.points(supp)
    if p.family is None:
        mu = float(np.dot(w, x))
    sigma2 = float(np.dot(w, (x - mu) ** 2))
    mu3 = float(np.dot(w, (x - mu) ** 3)) if alpha > 3 else None
    return MomentSummary(mu=mu, sigma2=sigma2, mu3=mu3)


def gaussian_scale(sigma2: Optional[float]) -> float:
    """sqrt(sigma2), the scale of every Gaussian comparison.  A missing or infinite variance
    (a heavy tail: its limit is stable) raises PreconditionError, sigma2 <= 0 DegenerateLawError."""
    if sigma2 is None or not 0 < sigma2 < math.inf:  # NaN fails too
        error = DegenerateLawError if sigma2 is not None and sigma2 <= 0 else PreconditionError
        raise error(f"a Gaussian scale needs a finite positive variance, got {sigma2!r}")
    return math.sqrt(sigma2)


def char_fn(p: LatticePmf, t) -> complex | np.ndarray:
    """Characteristic function sum_k f(k) exp(i t (v0 + k D)).

    Vectorised over t; |result| <= 1 and char_fn(p, 0) == 1 exactly.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    supp, w = p.atoms()
    x = p.points(supp)
    vals = np.exp(1j * np.outer(t_arr, x)) @ w
    if np.isscalar(t) or t_arr.ndim == 0:
        return complex(vals.reshape(-1)[0])
    return vals


# -- CSV tables -------------------------------------------------------------------


def write_csv(path, header, rows, comment: str = "") -> None:
    """Write one CSV table: a ``# comment`` row if a comment is given, the header, the rows.

    Every table the package writes goes through here.  ``csv`` writes a
    Python float as its ``repr``, the shortest string that reads back to the
    same float.  Numpy scalars must pass through ``float()`` or ``.tolist()``
    first: under numpy 2 an ``np.float64`` would be written as ``np.float64(...)``.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if comment:
            w.writerow([f"# {comment}"])
        w.writerow(header)
        w.writerows(rows)
