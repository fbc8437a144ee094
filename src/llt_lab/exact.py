"""Exact brute-force engine for laws of partial sums.

Everything here is a plain dense-array computation: n-fold convolutions by
binary powering, dynamic programming for weighted Bernoulli sums, joint
laws via independent increments, and exact sup-distances between a lattice
CDF and a reference curve.  Probabilities are floats; the only approximation
is float rounding (tracked at the 1e-12 * n scale) and an explicit underflow
floor whose dropped mass is reported, never hidden.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateLawError, PreconditionError, ResourceLimitError
from .lattice import (
    MAX_WINDOW,
    UNDERFLOW_FLOOR,
    LatticePmf,
    LatticeWindow,
    MomentSummary,
    gaussian_scale,
    moments,
    write_csv,
)

#: supports at or below this length convolve directly; larger ones use FFT
DIRECT_CONV_LIMIT = 4096


@dataclass(frozen=True, eq=False)
class SumLawTable(LatticeWindow):
    """Exact pmf of a partial sum S_n on the lattice origin + D*Z, origin = n*v0.

    ``offset`` is the smallest stored index, ``dense`` the mass vector (also
    readable as ``probs``).  ``lost_mass`` accumulates underflow drops;
    ``beyond_mass`` is the mass pushed past an explicit support cap (only
    possible for laws on nonnegative indices, where it can never flow back
    into the window).  Like ``LatticePmf``, a table compares and hashes by
    identity, so memoised functions accept it, and its mass array is read-only.
    """

    n: int
    origin: float
    D: float
    offset: int
    dense: np.ndarray
    meta: MomentSummary
    lost_mass: float = 0.0
    beyond_mass: float = 0.0

    def __post_init__(self):
        if self.dense.base is not None:  # a view of the law or of a wider array: keep the window
            object.__setattr__(self, "dense", self.dense.copy())
        self.dense.flags.writeable = False

    @property
    def probs(self) -> np.ndarray:
        return self.dense

    def to_csv(self, path) -> None:
        """Rows (k, value_point, mass) over the stored support."""
        supp, masses = self.atoms()
        write_csv(path, ["k", "value_point", "mass"],
                  zip(supp.tolist(), self.points(supp).tolist(), masses.tolist()))


def _convolve(a: np.ndarray, b: np.ndarray, method: str = "auto") -> np.ndarray:
    short, long = sorted((len(a), len(b)))
    # a length-1 factor is a plain product, as in scipy.signal.fftconvolve
    if method == "direct" or short == 1 \
            or (method == "auto" and (short <= 8 or long <= DIRECT_CONV_LIMIT)):
        return np.convolve(a, b)
    out = _fft_product(a, b)
    # clipped in place: a second array of the product's size would raise the peak memory
    return np.maximum(out, 0.0, out=out)


def _fft_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b by real FFT, signs and FFT noise kept (``_convolve`` clips it at 0 for masses).

    The real-input path of scipy.signal.fftconvolve, without importing scipy.signal.
    """
    from scipy.fft import irfft, next_fast_len, rfft  # here, so a start-up loads no scipy

    n = len(a) + len(b) - 1
    size = next_fast_len(n, True)
    fa = rfft(a, size)
    fa *= fa if b is a else rfft(b, size)  # a squaring transforms once
    return irfft(fa, size)[:n]


def _cut(arr: np.ndarray, off: int, max_index: Optional[int]) -> np.ndarray:
    """The part of ``arr`` (first index ``off``) at or below ``max_index``."""
    if max_index is None or max_index - off + 1 >= len(arr):
        return arr
    if max_index < off:
        raise PreconditionError("support cap below the smallest reachable index")
    return arr[:max_index - off + 1]


def _product(a: np.ndarray, a_off: int, b: np.ndarray, b_off: int, lost: float,
             max_index: Optional[int] = None, method: str = "auto") -> tuple:
    """The engine's one product step: a * b, cut at ``max_index``, underflow dropped.

    Returns (masses, first index, ``lost`` plus the mass of the atoms below
    ``UNDERFLOW_FLOOR``, which are set to zero).  The memory budget is checked
    before the product is allocated.
    """
    if len(a) + len(b) - 1 > MAX_WINDOW:
        raise ResourceLimitError("convolution window exceeds memory budget")
    off = a_off + b_off
    arr = _cut(_convolve(a, b, method), off, max_index)
    small = (arr > 0) & (arr < UNDERFLOW_FLOOR)
    if small.any():
        lost += float(arr[small].sum())
        arr = arr.copy()
        arr[small] = 0.0
    return arr, off, lost


@functools.lru_cache(maxsize=8)
def sum_law(p: LatticePmf, n: int, max_index: Optional[int] = None,
            method: str = "auto") -> SumLawTable:
    """Exact law of S_n = X_1 + ... + X_n for i.i.d. X_j ~ p.

    Binary powering from the most significant bit of n: one accumulator,
    squared for every bit below the leading one and, where that bit is set,
    multiplied by the law.  ``max_index`` caps the stored index window; it is
    only allowed for laws supported on nonnegative indices, where an atom
    past the cap can only feed sums past the cap, so stored values stay
    exact.  The law is cut to the window before it is convolved and every
    product is cut again, so a capped table costs time and memory in
    proportion to the cap, not to the width of ``p``.  ``lost_mass`` counts
    underflow inside the window; ``beyond_mass`` is the rest of the deficit.
    ``method`` is "auto", "direct" or "fft".

    The last few results are reused: a call with the same law object and
    arguments returns the same table.
    """
    if n < 1:
        raise PreconditionError("sum_law requires n >= 1")
    if max_index is not None and p.offset < 0:
        raise PreconditionError("support cap requires nonnegative support indices")
    base = _cut(p.dense, p.offset, max_index)
    acc, off, lost = base, p.offset, 0.0
    for bit in bin(n)[3:]:  # the bits below the leading one, most significant first
        acc, off, lost = _product(acc, off, acc, off, lost, max_index, method)
        if bit == "1":
            acc, off, lost = _product(acc, off, base, p.offset, lost, max_index, method)
    # window masses are exact under a cap, so the pushed-out mass is the
    # conservation deficit (intermediate caps do not track descendants)
    beyond = max(0.0, 1.0 - float(acc.sum()) - lost) if max_index is not None else 0.0
    mom = moments(p)
    meta = MomentSummary(
        mu=None if mom.mu is None else n * mom.mu,
        sigma2=None if mom.sigma2 is None else n * mom.sigma2,
        mu3=None if mom.mu3 is None else n * mom.mu3,
    )
    return SumLawTable(n=n, origin=n * p.v0, D=p.D, offset=off, dense=acc,
                       meta=meta, lost_mass=lost, beyond_mass=beyond)


def convolve_tables(a: SumLawTable, b: SumLawTable) -> SumLawTable:
    """Law of the independent sum of two partial sums on lattices of the same span."""
    if a.D != b.D:
        raise PreconditionError("tables must share the lattice span")
    probs, offset, lost = _product(a.dense, a.offset, b.dense, b.offset,
                                   a.lost_mass + b.lost_mass)
    mu = None if a.meta.mu is None or b.meta.mu is None else a.meta.mu + b.meta.mu
    s2 = None if a.meta.sigma2 is None or b.meta.sigma2 is None else a.meta.sigma2 + b.meta.sigma2
    mu3 = None if a.meta.mu3 is None or b.meta.mu3 is None else a.meta.mu3 + b.meta.mu3
    return SumLawTable(n=a.n + b.n, origin=a.origin + b.origin, D=a.D,
                       offset=offset, dense=probs, meta=MomentSummary(mu, s2, mu3),
                       lost_mass=lost, beyond_mass=a.beyond_mass + b.beyond_mass)


def _scan_in(arr: np.ndarray, floor: float) -> int:
    """Index of the first entry of ``arr`` at or above ``floor`` (len(arr) if none).

    The edges of a running law move by an atom or two per step, so the first
    entries are tested one by one and the rest in chunks of doubling width.
    """
    for i in range(min(len(arr), 4)):
        if arr[i] >= floor:
            return i
    lo, width = 4, 16
    while lo < len(arr):
        hit = np.flatnonzero(arr[lo:lo + width] >= floor)
        if len(hit):
            return lo + int(hit[0])
        lo, width = lo + width, 2 * width
    return len(arr)


class _WeightedDP:
    """Law of sum a_k Z_k, Z_k ~ Bernoulli(q_k), on the values 0..top, updated in place.

    ``hi`` is the largest reachable value.  Values above ``nz`` have mass
    exactly 0.0, so a step skips them and every mass stays bit-identical to
    a step over the whole reachable range.  Mass shifted past ``top`` is
    dropped; a caller that reports it sums it before the step.
    """

    def __init__(self, top: int):
        if top + 1 > MAX_WINDOW:
            raise ResourceLimitError("value range exceeds memory budget")
        self.law, self._tmp = np.zeros(top + 1), np.empty(top + 1)
        self.law[0] = 1.0
        self.top, self.hi, self.nz = top, 0, 0

    def step(self, a: int, q: float) -> None:
        if q == 0.0 or a == 0:  # a*Z = 0 almost surely: the law is unchanged
            return
        law, nz = self.law, self.nz
        m = max(min(nz, self.top - a) + 1, 0)  # atoms whose shift stays at or below top
        tmp = np.multiply(law[:m], q, out=self._tmp[:m])
        law[: nz + 1] *= 1.0 - q
        law[a: a + m] += tmp
        edge = a + m - 1 if m else nz  # the largest index that can now hold mass
        # 5e-324 is the smallest positive double, so this finds the last nonzero mass
        self.nz = max(edge - _scan_in(law[edge::-1], 5e-324), 0)
        self.hi = min(self.hi + a, self.top)


#: _series_exp solves blocks of at most this many coefficients as one triangular system ...
_EXP_LEAF = 64
#: ... and convolves directly while the block is at most this long
_EXP_DIRECT = 128


def _series_exp(L: np.ndarray) -> np.ndarray:
    """Coefficients H_0..H_{M-1} of exp(L(z)) mod z^M, for M = len(L) and L_0 = 0.

    From z H' = (z L') H: m H_m = sum_{j=1..m} j L_j H_{m-j} with H_0 = 1.  The
    sums are split by divide and conquer: once H is known on [lo, mid), its
    share of the sums on [mid, hi) is one convolution, so the work is
    O(M log^2 M).  A leaf block solves its equations
    m H_m - sum_{lo <= i < m} G_{m-i} H_i = acc_m, G_j = j L_j, as one
    lower-triangular system, whose part below the diagonal depends only on
    m - i.  L may have either sign, so the products are raw: ``_fft_product``,
    not the clipped ``_convolve``.
    """
    M = len(L)
    G = np.arange(M) * L  # j L_j
    H, acc = np.zeros(M), np.zeros(M)  # acc[m]: the part of m H_m from blocks already solved
    acc[:1] = 1.0  # with the diagonal 1 at m = 0, the equation H_0 = 1
    d = np.subtract.outer(np.arange(min(M, _EXP_LEAF)), np.arange(min(M, _EXP_LEAF)))
    below = np.where(d > 0, -G[np.maximum(d, 0)], 0.0)

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= _EXP_LEAF:
            # reversed, the system is upper triangular: LU's pivot search finds no larger
            # entry below the diagonal, so solve does a plain back substitution
            system = below[hi - lo - 1::-1, hi - lo - 1::-1].copy()
            np.fill_diagonal(system, np.maximum(np.arange(hi - 1, lo - 1, -1), 1))
            H[lo:hi] = np.linalg.solve(system, acc[lo:hi][::-1])[::-1]
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        a, b = H[lo:mid], G[: hi - lo]
        prod = np.convolve(a, b) if hi - lo <= _EXP_DIRECT else _fft_product(a, b)
        acc[mid:hi] += prod[mid - lo: hi - lo]
        solve(mid, hi)

    solve(0, M)
    return H


def weighted_sum_law(weights: Sequence[int], probs: Sequence[float],
                     max_value: Optional[int] = None) -> SumLawTable:
    """Exact law of sum a_k Z_k with independent Z_k ~ Bernoulli(q_k).

    Dynamic programming over k.  ``max_value`` caps the tracked value range
    (increments are nonnegative, so capped values are exact and the mass that
    moved past the cap is reported as beyond_mass).
    """
    af, qf = np.asarray(weights, dtype=np.float64), np.asarray(probs, dtype=np.float64)
    if af.ndim != 1 or af.shape != qf.shape:
        raise PreconditionError("weights and probs must be sequences of equal length")
    bad = np.flatnonzero(~((af >= 0) & (af < 2.0 ** 63) & (af == np.floor(af))))  # NaN too
    if len(bad):
        k = int(bad[0])
        raise PreconditionError(f"weights a_k must be nonnegative integers below 2**63; "
                                f"got weights[{k}] = {float(af[k])!r}")
    if not np.all((qf >= 0.0) & (qf <= 1.0)):  # NaN fails too
        raise PreconditionError("probs q_k must lie in [0,1]")
    a, q = af.astype(np.int64).tolist(), qf.tolist()
    top = sum(a)
    if max_value is not None:
        if max_value < 0:
            raise PreconditionError("max_value must be nonnegative")
        top = min(top, max_value)
    dp = _WeightedDP(top)
    beyond = 0.0
    for ak, qk in zip(a, q):
        if dp.nz > top - ak:  # nonzero mass is pushed past top
            # sum the whole reachable slice, zeros included: pairwise summation
            # groups terms by the slice length
            beyond += float(dp.law[max(top - ak + 1, 0): dp.hi + 1].sum()) * qk
        dp.step(ak, qk)
    var = qf * (1 - qf)
    mu, s2, mu3 = float(af @ qf), float(af * af @ var), float(af ** 3 @ (var * (1 - 2 * qf)))
    return SumLawTable(n=len(a), origin=0.0, D=1.0, offset=0, dense=dp.law[: dp.hi + 1],
                       meta=MomentSummary(mu, s2, mu3), beyond_mass=beyond)


@dataclass(frozen=True)
class JointCell:
    """Window of the joint law P(S_m = a, S_n = b) for m < n."""

    m: int
    n: int
    a_indices: np.ndarray
    b_indices: np.ndarray
    table: np.ndarray  # shape (len(a_indices), len(b_indices))

    def prob(self, a: int, b: int) -> float:
        ia = np.searchsorted(self.a_indices, a)
        ib = np.searchsorted(self.b_indices, b)
        if ia < len(self.a_indices) and ib < len(self.b_indices) \
                and self.a_indices[ia] == a and self.b_indices[ib] == b:
            return float(self.table[ia, ib])
        return 0.0


def joint_law(p: LatticePmf, m: int, n: int) -> JointCell:
    """Exact joint law P(S_m = a, S_n = b) = P(S_m = a) P(S_{n-m} = b - a).

    The table covers every reachable index a of S_m and b of S_n; row a holds
    P(S_m = a) times the increment law, shifted by a.
    """
    if not 1 <= m < n:
        raise PreconditionError("joint_law requires 1 <= m < n")
    law_m, law_inc = sum_law(p, m), sum_law(p, n - m)
    inc = law_inc.dense
    if len(law_m.dense) * (len(law_m.dense) + len(inc) - 1) > MAX_WINDOW:
        raise ResourceLimitError("joint table exceeds memory budget")
    a_idx = law_m.offset + np.arange(len(law_m.dense))
    b_idx = law_m.offset + law_inc.offset + np.arange(len(a_idx) + len(inc) - 1)
    table = np.zeros((len(a_idx), len(b_idx)))
    for i, pa in enumerate(law_m.dense):
        table[i, i:i + len(inc)] = pa * inc
    return JointCell(m=m, n=n, a_indices=a_idx, b_indices=b_idx, table=table)


#: RunningConvolution.advance takes at most this many steps at once ...
_BLOCK_STEPS = 128
#: ... and its table of the powers p^{*j}, j = 1..B, holds at most this many floats
_BLOCK_CELLS = 2 ** 16
#: a running law's edge indices below this mass are trimmed by default
_RUN_FLOOR = 1e-30


def _block_steps(width: int) -> int:
    """The largest power of two B <= _BLOCK_STEPS with B (B (width - 1) + 1) <= _BLOCK_CELLS, or 1."""
    b = _BLOCK_STEPS
    while b > 1 and b * (b * (width - 1) + 1) > _BLOCK_CELLS:
        b //= 2
    return b


def _column(cols, polys) -> np.ndarray:
    """sum_s cols[s] * polys[s], added in state order."""
    col = np.convolve(cols[0], polys[0])
    for s in range(1, len(cols)):
        col += np.convolve(cols[s], polys[s])
    return col


class RunningConvolution:
    """Law of S_n, or the joint law of S_n and a chain's state, updated in index space.

    ``probs[i, s]`` = P(S_n = offset + i, state s).  A step moves the window by
    a matrix of step polynomials, new[:, t] = sum_s window[:, s] T1[s, t], where
    coefficient d of T1[s, t] is the probability of a step from s into t that
    moves the index by ``shift + d``; an i.i.d. sum is the one-state case
    T1 = [[p]].  The window is kept as one column per state, and its edge
    indices below ``floor`` are trimmed into ``lost_mass``.  ``step`` takes one
    summand, ``advance`` up to ``block`` of them at once.
    """

    def __init__(self, p: LatticePmf, floor: float = _RUN_FLOOR):
        self._start(p.dense[None, None], p.offset, np.ones((1, 1)), floor)

    def _start(self, T1: np.ndarray, shift: int, window: np.ndarray, floor: float) -> None:
        self._T1, self._shift = T1, shift
        self.floor, self.n, self.offset, self.lost_mass = floor, 0, 0, 0.0
        self._cols = [np.array(window[:, s], dtype=np.float64) for s in range(len(T1))]
        self._mass = sum(self._cols[1:], self._cols[0])  # the mass of each index
        self.block = _block_steps(T1.shape[2])
        self._powers = self._Tj = None  # built by the first block

    @property
    def probs(self) -> np.ndarray:
        """The window, shape (index, state)."""
        return np.stack(self._cols, axis=1)

    def step(self) -> None:
        self.offset += self._shift
        self.n += 1
        self._trim(self._moved(1))

    def advance(self, targets) -> np.ndarray:
        """Take r = len(targets) <= ``block`` steps; return P{S_{n+j} = targets[j-1]}, j = 1..r.

        Each mass is one dot product of the window, read flat with the states
        of an index side by side, with the reversed row sums of T_j.  The
        window then moves by T_r in direct convolutions (FFT noise would keep
        atoms near 1e-17 that the floor should drop) and is trimmed only then.
        """
        targets = np.asarray(targets, dtype=np.int64)
        r = len(targets)
        if not 1 <= r <= self.block:
            raise PreconditionError(f"advance takes 1..{self.block} steps, not {r}")
        powers = self._power_table()
        states, size = len(self._cols), len(self._mass)
        width = powers.shape[1] // states
        # k: index of target j in the window moved by T_j; padded[k: k + width] lines the
        # window up with the reversed polynomials
        k = targets - self.offset - self._shift * np.arange(1, r + 1)
        padded = np.zeros((size + 2 * (width - 1), states))
        padded[width - 1: width - 1 + size] = self.probs
        inside = np.flatnonzero((k >= 0) & (k <= size + width - 2))
        out = np.zeros(r)
        rows = np.lib.stride_tricks.sliding_window_view(padded.reshape(-1), states * width)
        out[inside] = np.einsum("ij,ij->i", rows[states * k[inside]], powers[inside])
        self.offset += r * self._shift
        self.n += r
        self._trim(self._moved(r))
        return out

    def _moved(self, r: int) -> list:
        """The window's columns after r more steps, untrimmed: sum_s window[:, s] T_r[s, t]."""
        T = self._T1 if r == 1 else self._Tj[r - 1, :, :, : r * (self._T1.shape[2] - 1) + 1]
        return [_column(self._cols, T[:, t]) for t in range(len(T))]

    def _power_table(self) -> np.ndarray:
        # T_j = T_{j-1} T1, chained in long double and rounded once into _Tj[j - 1] (a single
        # step reads T1 instead); row j - 1 of the gather table is sum_t T_j[s, t], reversed, the
        # states of a degree side by side.  The 1e-13 agreement with the one-step loops needs the
        # 80-bit long double of x86-64; where it is float64 (MSVC, macOS on arm64), Bernoulli(0.2)
        # at N = 8e4 is 2.4e-13 off, as float64 powers round at each of their j - 1 products.
        if self._powers is None:
            b, (S, _, w) = self.block, self._T1.shape
            T = np.zeros((b, S, S, b * (w - 1) + 1), dtype=np.longdouble)
            T[0, :, :, :w] = self._T1
            for j in range(1, b):
                size = j * (w - 1) + 1
                for s in range(S):
                    for t in range(S):
                        T[j, s, t, : size + w - 1] = _column(T[j - 1, s, :, :size], T[0, :, t, :w])
            self._Tj = T.astype(np.float64)
            gather = T.sum(axis=2)[:, :, ::-1].transpose(0, 2, 1)  # (j, reversed degree, s)
            self._powers = np.ascontiguousarray(gather, dtype=np.float64).reshape(b, -1)
        return self._powers

    def _trim(self, cols: list) -> None:
        """Keep cols as the window, its edge indices below the floor cut off into ``lost_mass``.

        An index is tested by its mass summed over the states.  Indices inside stay
        whatever their mass; a window with no index at the floor is kept whole.
        """
        mass = sum(cols[1:], cols[0])
        size = len(mass)
        lo, cut = _scan_in(mass, self.floor), _scan_in(mass[::-1], self.floor)
        if lo < size - cut and (lo > 0 or cut > 0):
            self.lost_mass += float(mass[:lo].sum() + mass[size - cut:].sum())
            cols, mass = [c[lo:size - cut] for c in cols], mass[lo:size - cut]
            self.offset += lo
        self._cols, self._mass = cols, mass

    def prob(self, index: int) -> float:
        """P(S_n = index), summed over the states."""
        i = index - self.offset
        if 0 <= i < len(self._mass):
            return float(self._mass[i])
        return 0.0


class TransferConvolution(RunningConvolution):
    """Joint law of the number of ones among xi_1..xi_nu and the state xi_nu, on a 0/1 chain.

    The two-state ``RunningConvolution``, started at nu = 0 from the window
    [start], the law of the state before xi_1: a step into state t adds t ones,
    so T1[s, t] = P[s, t] z^t.  The stationary start gives xi_1 ~ pi.
    """

    def __init__(self, P: np.ndarray, start):
        # T1[s, t, t] = P[s, t]
        self._start(P[:, :, None] * np.eye(2), 0, np.array([start]), _RUN_FLOOR)


def _step_cdf(masses: np.ndarray, x=None, grid=None) -> tuple:
    """(F just below, F at) each atom, or each grid point, of the step CDF F of ``masses``.

    A grid needs ``x``, the increasing points of the atoms.
    """
    cdf = np.concatenate(([0.0], np.cumsum(masses)))
    if grid is None:
        return cdf[:-1], cdf[1:]
    return cdf[np.searchsorted(x, grid, "left")], cdf[np.searchsorted(x, grid, "right")]


def _kolmogorov(masses: np.ndarray, G: tuple, x=None, grid=None) -> float:
    """sup_u |F(u) - G(u)| for the step CDF F of ``masses`` and a CDF G.

    ``G`` is the pair (G just below, G at) each atom of F or, given ``grid`` and the
    increasing atom points ``x``, each grid point; the grid holds x and every jump of G.
    Between these points F is flat and G monotone, so the supremum is approached at one
    of them from one side or the other.
    """
    below, at = _step_cdf(masses, x, grid)
    return float(np.max(np.maximum(np.abs(below - G[0]), np.abs(at - G[1]))))


def sup_cdf_distance(law: SumLawTable, center: Optional[float] = None,
                     scale: Optional[float] = None) -> float:
    """sup_x |P{(S_n - center)/scale < x} - Phi(x)| for the standard normal CDF Phi.

    The lattice CDF is left-continuous with jumps at the atoms, so the
    supremum is attained at a jump approached from either side; both sides
    are evaluated and the max taken.  Defaults: center/scale from the table
    moments.
    """
    if law.beyond_mass > 0:  # the stored CDF never reaches one
        raise PreconditionError(f"a table capped with beyond_mass {law.beyond_mass!r} "
                                f"has no Gaussian comparison")
    if center is None:
        center = law.meta.mu
    if scale is None:
        scale = gaussian_scale(law.meta.sigma2)
    elif not 0 < scale < np.inf:  # NaN fails too
        raise DegenerateLawError(f"scale must be finite and positive, got {scale!r}")
    from scipy.special import ndtr

    supp, masses = law.atoms()
    g = ndtr((law.points(supp) - center) / scale)
    return _kolmogorov(masses, (g, g))


def lattice_cdf_sup_distance(a: SumLawTable, b: SumLawTable) -> float:
    """sup_x |F_a(x) - F_b(x)| for two lattice laws on the same value scale."""
    (supp_a, ma), (supp_b, mb) = a.atoms(), b.atoms()
    xa, xb = a.points(supp_a), b.points(supp_b)
    grid = np.union1d(xa, xb)
    return _kolmogorov(ma, _step_cdf(mb, xb, grid), xa, grid)


def residues_mod(law: LatticeWindow, h: int) -> np.ndarray:
    """Law of the value mod h, for a law or a sum table on an integral lattice."""
    if h < 2:
        raise PreconditionError("residue modulus must be >= 2")
    if abs(law.origin - round(law.origin)) > 1e-9 or abs(law.D - round(law.D)) > 1e-9:
        raise PreconditionError("residues need an integer-valued lattice")
    out = np.zeros(h)
    supp, masses = law.atoms()
    vals = (round(law.origin) + int(round(law.D)) * supp) % h
    np.add.at(out, vals, masses)
    return out
