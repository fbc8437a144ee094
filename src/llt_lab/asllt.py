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
from .exact import (RunningConvolution, TransferConvolution, _series_exp, _visit_tables,
                    _WeightedDP, sum_law, weighted_sum_law)
from .lattice import (MASS_TOL, MAX_WINDOW, SQRT_2PI, LatticePmf, adjacent_overlap,
                      gaussian_scale, moments, write_csv)
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


def _require_horizon(N: int, least: int, most: float = math.inf) -> None:
    """least <= N <= most; the exact modes pass most = MAX_WINDOW, as they hold N-sized arrays."""
    if N < least:
        raise PreconditionError(f"need a horizon of at least {least}, got {N}")
    if N > most:
        raise ResourceLimitError(f"a horizon of {N} steps exceeds memory budget")


_BLOCK = 1 << 15  # steps per block: a path's buffers take a few MB whatever its horizon


def _blocks(N: int, *dtypes):
    """The steps 1..N in consecutive blocks of at most _BLOCK.

    Yields (the block's 0-based slice, its step numbers n as float64, one scratch array per
    dtype), all views of buffers allocated once: a path's memory does not grow with N, and few
    seeds run faster.  Numpy temporaries in their place, even for the seed-free arrays only, made
    2-seed paths at N = 2e6 slower in 4 of 4 interleaved runs on a 2-core Xeon (min of 7 calls:
    t1 0.064-0.068 -> 0.071-0.109 s, Markov 0.076-0.089 -> 0.081-0.128 s); at 20 seeds, noise.
    """
    size = min(N, _BLOCK)
    n = np.arange(1.0, size + 1.0)
    bufs = [np.empty(size, dtype) for dtype in dtypes]
    for lo in range(0, N, _BLOCK):
        if lo:
            n += _BLOCK  # exact: step numbers stay far below 2**53
        b = min(_BLOCK, N - lo)
        yield (slice(lo, lo + b), n[:b], *(a[:b] for a in bufs))


class _Running:
    """Running sums over consecutive blocks.

    The last sum enters the next block's first term and np.cumsum runs on the
    block; add.accumulate adds strictly left to right, so every block equals
    its slice of one np.cumsum over all the blocks, bit for bit.  The sums go
    to another array than the block: numpy holds the GIL through an in-place
    accumulate, and the pool's threads took turns on it.
    """

    def __init__(self):
        self.last = None

    def __call__(self, block: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The running sums through block into out, a new array if None; block[0] is overwritten."""
        if self.last is not None and len(block):
            block[0] += self.last
        out = np.cumsum(block, out=out)
        self.last = out[-1] if len(out) else self.last
        return out


class _LogAverage:
    """Checkpoints (m, sum_{n<=m} terms_n / log L_m) where L_m > 1; L_m = m or a given level.

    Each block of steps comes as its hit positions and the terms there; every
    other term is 0.0, which leaves a running sum as it is.  So summing only
    the hits, left to right, gives every checkpoint of the dense running sum,
    bit for bit.  Paths pass the steps where the walk meets its target,
    expectations the nonzero terms.
    """

    def __init__(self, N: int):
        self.marks = _checkpoints(N)[::-1]
        self.sums = _Running()
        self.lo = 1
        self.points: list = []

    def add(self, size: int, hits: np.ndarray, terms: np.ndarray,
            level: Optional[np.ndarray] = None) -> None:
        """Take the next size steps: terms (overwritten) at the increasing 0-based positions
        hits, 0.0 elsewhere, and the steps' levels L when L_m is not m."""
        before, lo = self.sums.last, self.lo
        csum = self.sums(terms)
        self.lo += size
        while self.marks and self.marks[-1] < self.lo:
            m = self.marks.pop()
            L = m if level is None else level[m - lo]
            if L > 1.0:
                i = int(hits.searchsorted(m - lo, side="right"))  # the hits up to m
                total = csum[i - 1] if i else 0.0 if before is None else before
                self.points.append((m, float(total / math.log(L))))

    def checkpoints(self) -> tuple:
        return tuple(self.points)


def _log_average(terms: np.ndarray, N: int, norm: Optional[np.ndarray] = None) -> tuple:
    """The checkpoints of _LogAverage for all N terms at once; terms are left as they were."""
    terms = np.asarray(terms, dtype=np.float64)
    hits = np.flatnonzero(terms)
    avg = _LogAverage(N)
    avg.add(N, hits, terms[hits], norm)
    return avg.checkpoints()


def _seed_pool(kind: str, target: float, N: int, seeds: Sequence[int], draws, block) -> list:
    """Paths of one log-average hit estimator, one per seed, the seeds advancing block by block.

    draws(rng) gives a seed's draw(u, out, *given): the walk's next len(u) increments into the
    int64 array out, u being float scratch.  block(steps, n, x, y, k), with float scratch x, y
    and int64 scratch k, gives the seed-free (targets, weights, level, *given) of the steps n:
    a hit adds its weight, level is L_m (None for m) and given goes to every draw.  The walk is
    summed into its own buffer (see _Running).
    """
    paths = [(draws(stream(seed)), _Running(), _LogAverage(N)) for seed in seeds]
    for steps, n, u, inc, walk, hit, x, y, k in _blocks(N, float, np.int64, np.int64, bool,
                                                         float, float, np.int64):
        targets, weights, level, *given = block(steps, n, x, y, k)
        for draw, total, avg in paths:
            total(draw(u, inc, *given), walk)
            hits = np.flatnonzero(np.equal(walk, targets, out=hit))
            avg.add(len(n), hits, weights[hits], level)
    return [PathEstimate(kind=kind, seed=seed, target=target, checkpoints=avg.checkpoints())
            for seed, (*_, avg) in zip(seeds, paths)]


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
        return cls(mu=mom.mu, sigma=gaussian_scale(mom.sigma2), v0=p.v0, D=p.D, kappa=kappa)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu, self.sigma, self.v0, self.D, self.kappa))):
            raise PreconditionError(f"kappa rule fields must be finite: {self}")

    def within(self, N: int) -> "KappaRule":
        """This rule, once |j_n| <= (n |mu - v0| + |kappa sigma| sqrt(n)) / |D| + 1/2 is below 2**62
        for every n <= N: the targets fit in int64, with room for their rounding."""
        reach = N * abs(self.mu - self.v0) + abs(self.kappa * self.sigma) * math.sqrt(N)
        if not reach + abs(self.D) < 2.0 ** 62 * abs(self.D):  # inf fails too
            raise PreconditionError(f"kappa = {self.kappa!r} and N = {N} put targets past int64")
        return self

    def index(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=np.float64)
        self.within(math.ceil(n.max(initial=0.0)))
        return self._index_into(n, np.empty(n.shape), np.empty(n.shape),
                                np.empty(n.shape, np.int64))

    def _index_into(self, n: np.ndarray, x: np.ndarray, scratch: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
        """index(n) written into the int64 array out; x and scratch are float arrays like n."""
        # in place, as temporaries made few-seed paths slower (see _blocks), and in the
        # rounding order of floor((n mu + kappa sigma sqrt(n) - n v0) / D + 1/2)
        np.multiply(n, self.mu, out=x)
        x += np.multiply(np.sqrt(n, out=scratch), self.kappa * self.sigma, out=scratch)
        x -= np.multiply(n, self.v0, out=scratch)
        x /= self.D
        x += 0.5
        np.copyto(out, np.floor(x, out=x), casting="unsafe")
        return out

    def _pool_block(self, scale: float):
        """The block of a seed pool (see _seed_pool) aiming at j_n, with weights scale n^{-1/2}."""
        def block(steps, n, x, w, idx):
            self._index_into(n, x, w, idx)
            return idx, np.divide(scale, np.sqrt(n, out=w), out=w), None
        return block


def asllt_target(p: LatticePmf, kappa: float) -> float:
    """Limit value D/(sqrt(2 pi) sigma) * exp(-kappa^2/2) of the hit average."""
    sigma = KappaRule.for_pmf(p, kappa).sigma
    return p.D / (SQRT_2PI * sigma) * math.exp(-0.5 * kappa * kappa)


#: cdfs of at most this many entries are inverted by comparisons, longer ones by binary
#: search; comparisons were faster up to 16 entries on uniform and on power-law weights
_FEW_ATOMS = 16


def _index_draws(p: LatticePmf, rng):
    """draw(u, out): i.i.d. support indices of p into out, u being float scratch of its length.

    The draws of rng.choice(supp, size=N, p=w) taken in pieces: the same cdf,
    built once, and the same inverse-cdf lookup of the same uniforms.  The
    lookup searchsorted(cdf, u, side="right") counts the entries <= u; as
    u < 1 = cdf[-1], a short cdf counts them with one comparison per entry.
    """
    supp, w = p.atoms()
    w = w / w.sum()
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    if len(cdf) > _FEW_ATOMS:
        def search(u: np.ndarray, out: np.ndarray) -> np.ndarray:
            # every index is in range, as u < 1 = cdf[-1]; "clip" spares take a buffered copy
            return np.take(supp, cdf.searchsorted(rng.random(out=u), side="right"), out=out,
                           mode="clip")
        return search
    inner = cdf[:-1].tolist()  # the last entry, 1, counts no u < 1

    def count(u: np.ndarray, out: np.ndarray) -> np.ndarray:
        rng.random(out=u)
        out.fill(0)
        for c in inner:
            out += u >= c
        return np.take(supp, out, out=out, mode="clip")
    return count


def asllt_paths(p: LatticePmf, kappa: float, N: int, seeds: Sequence[int]) -> list:
    """Simulated paths of (1/log N) sum_{n<=N} n^{-1/2} 1{S_n = kappa_n}, one per seed."""
    _require_horizon(N, 4)
    return _seed_pool("t1", asllt_target(p, kappa), N, seeds, lambda rng: _index_draws(p, rng),
                      KappaRule.for_pmf(p, kappa).within(N)._pool_block(1.0))


def asllt_path(p: LatticePmf, kappa: float, N: int, seed: int) -> PathEstimate:
    """One simulated path of (1/log N) sum_{n<=N} n^{-1/2} 1{S_n = kappa_n}."""
    return asllt_paths(p, kappa, N, [seed])[0]


def asllt_expectation(p: LatticePmf, kappa: float, N: int) -> float:
    """Exact (1/log N) sum_{n<=N} n^{-1/2} P{S_n = kappa_n}."""
    _require_horizon(N, 2, MAX_WINDOW)
    n = np.arange(1, N + 1)
    m = hit_mass_sequence(p, KappaRule.for_pmf(p, kappa).index(n), N)
    return _log_average(m / np.sqrt(n), N)[-1][1]


# -- the log-average hitting estimator with exact mass normalisation ---------------


#: up to this horizon the exact expectation modes take one step per n, bit for bit as
#: before; past it hit_mass_sequence advances in blocks and dickman_expectation (0 < x <= 1)
#: reads one series
_STEPWISE = 2048


def hit_mass_sequence(p: LatticePmf, a_index, N: int) -> np.ndarray:
    """m_k = P{S_k = a_k} for k = 1..N, for one fixed level a or one target a_k per step.

    The masses up to k = 2048 come from one step at a time; past that the walk
    advances ``RunningConvolution.block`` steps at once, which agrees with the
    single steps to about 1e-13 relative (the error grows with the number of blocks).
    """
    _require_horizon(N, 0, MAX_WINDOW)
    run = RunningConvolution(p)
    targets = np.broadcast_to(a_index, (N,))
    out = np.empty(N)
    for k, target in enumerate(targets[:_STEPWISE].tolist()):
        run.step()
        out[k] = run.prob(target)
    return _fill_in_blocks(run, targets, out)


def _fill_in_blocks(run: RunningConvolution, targets, out: np.ndarray) -> np.ndarray:
    """out[k] = P{index = targets[k] after step k + 1} for k >= run.n, ``run.block`` at a time."""
    for lo in range(run.n, len(out), run.block):
        out[lo: lo + run.block] = run.advance(targets[lo: lo + run.block])
    return out


def _hit_masses(p: LatticePmf, a_index: int, N: int,
                masses: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Hit masses m_k = P{S_k = a} for k = 1..N (or the given ones) and their running totals
    M_k = sum_{i<=k} m_i, once the walk returns to a and M_N >= 2.

    A one-point law is rejected, and so is a walk whose index increments have a
    nonzero mean: the level a is an index, so the walk drifts away from it,
    sum_k P{S_k = a} is finite and no N suffices.
    """
    if p.is_degenerate():
        raise PreconditionError("degenerate summand law")
    drift = float(np.dot(*p.atoms()))
    if abs(drift) > MASS_TOL:
        raise PreconditionError(f"index increments have mean {drift:.6g}, not 0: level "
                                f"{a_index} is visited finitely often in expectation")
    m = hit_mass_sequence(p, a_index, N) if masses is None else np.asarray(masses, np.float64)
    if len(m) != N:
        raise PreconditionError(f"masses must hold N = {N} hit masses, not {len(m)}")
    if not np.all(np.isfinite(m) & (m >= 0.0)):
        raise PreconditionError("hit masses must be finite and >= 0")
    M = np.cumsum(m)
    if N == 0 or M[-1] < 2.0:
        raise PreconditionError("insufficient mass, increase N")
    return m, M


def _per_mass(x, M: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x_k / M_k into out, and 0 while M_k = 0: no step up to k can be at the level, so x_k = 0."""
    out.fill(0.0)
    return np.divide(x, M, out=out, where=M > 0)


def chung_erdos_kernel(p: LatticePmf, a_index: int, N: int,
                       masses: Optional[np.ndarray] = None):
    """seeds -> the paths of ``chung_erdos_paths``, the masses checked and totalled once here.

    The batches of one command may call it on several threads: they share the read-only M_k.
    """
    M = _hit_masses(p, a_index, N, masses)[1]

    def block(steps, n, x, *_):
        return a_index, _per_mass(1.0, M[steps], x), M[steps]
    return lambda seeds: _seed_pool("chung_erdos", 1.0, N, seeds,
                                    lambda rng: _index_draws(p, rng), block)


def chung_erdos_paths(p: LatticePmf, a_index: int, N: int, seeds: Sequence[int],
                      masses: Optional[np.ndarray] = None) -> list:
    """Paths of (1/log M_n) sum_{k<=n} 1{S_k = a}/M_k with M_k = sum_{i<=k} P{S_i=a}, one per seed.

    The target is 1.  ``masses`` may carry a precomputed m_k array, which the seeds share.
    """
    return chung_erdos_kernel(p, a_index, N, masses)(seeds)


def chung_erdos_path(p: LatticePmf, a_index: int, N: int, seed: int,
                     masses: Optional[np.ndarray] = None) -> PathEstimate:
    """One path of ``chung_erdos_paths``: its target is 1, ``masses`` may carry the m_k."""
    return chung_erdos_paths(p, a_index, N, [seed], masses)[0]


def chung_erdos_expectation(p: LatticePmf, a_index: int, N: int,
                            masses: Optional[np.ndarray] = None) -> float:
    """(1/log M_N) sum_{k<=N} m_k/M_k; tends to 1 as the mass accumulates."""
    m, M = _hit_masses(p, a_index, N, masses)
    return _log_average(_per_mass(m, M, np.empty(N)), N, norm=M)[-1][1]


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


def _markov_rule(chain: TwoStateChain, kappa: float) -> KappaRule:
    return KappaRule(mu=chain.pi[1], sigma=math.sqrt(chain.sigma2), v0=0.0, D=1.0, kappa=kappa)


def markov_kappa_indices(chain: TwoStateChain, kappa: float, n) -> np.ndarray:
    """Integer targets k_nu with kappa_nu = -nu pi_1 + k_nu tracking kappa sigma sqrt(nu)."""
    return _markov_rule(chain, kappa).index(n)


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


class _ChainSteps:
    """Chain states from one uniform per step, for blocks of at most ``size`` steps.

    From state 0 the next state is 1 when u < p01, from state 1 when u >= p10.
    So u between p01 and p10 forces the state to F = 1{p01 > p10}, u below both
    flips it and u above both carries it.  With P_i the parity of the flips up
    to step i, s_i xor P_i holds still between forced steps and is F xor P_f
    at a forced step f: its changes sit at the forced steps, and an xor scan
    of them gives every state.  The draw order matches that sequential loop
    exactly.
    """

    def __init__(self, chain: TwoStateChain, size: int):
        self.pi1 = chain.pi[1]
        self.low, self.high = sorted((chain.p01, chain.p10))
        self.forced = chain.p01 > chain.p10
        # the xor scans write into other buffers than they read (see _Running)
        self.flip, self.parity, self.change = (np.empty(size, bool) for _ in range(3))

    def __call__(self, u: np.ndarray, prev, out: np.ndarray) -> np.ndarray:
        """States for the uniforms u into the int64 array out; prev is the state before u[0],
        or None for a start from the stationary law."""
        b = len(u)
        flip = np.less(u, self.low, out=self.flip[:b])
        change = np.less(u, self.high, out=self.change[:b])
        change ^= flip  # the forced steps
        if prev is None:  # the first state is drawn from pi: neither forced nor flipped
            prev = u[0] < self.pi1
            flip[0] = change[0] = False
        parity = np.logical_xor.accumulate(flip, out=self.parity[:b])
        prev = bool(prev)  # s xor P before the block
        at = np.flatnonzero(change)
        # s xor P from each forced step on, and its changes there: against the forced step
        # before, the first against prev (np.diff of booleans is their xor)
        step = np.diff(parity[at] ^ self.forced, prepend=prev)
        change.fill(False)
        change[at] = step
        change[0] ^= prev
        return np.not_equal(np.logical_xor.accumulate(change, out=flip), parity, out=out)

    def draws(self, rng):
        """draw(u, out): the next len(u) states of one chain from the stationary start into out."""
        prev = None  # the state before the block

        def draw(u, out):
            nonlocal prev
            prev = self(rng.random(out=u), prev, out)[-1]
            return out
        return draw


def _simulate_chain(chain: TwoStateChain, N: int, rng, prev=None) -> np.ndarray:
    """States xi_1..xi_N from the stationary start, or from the state prev before xi_1."""
    return _ChainSteps(chain, N)(rng.random(N), prev, np.empty(N, np.int64))


def markov_asllt_paths(chain: TwoStateChain, kappa: float, N: int,
                       seeds: Sequence[int]) -> list:
    """One path per seed of (1/log n) sum sigma nu^{-1/2} 1{S_nu = kappa_nu}; target phi(kappa)."""
    _require_horizon(N, 4)
    return _seed_pool("markov", math.exp(-0.5 * kappa * kappa) / SQRT_2PI, N, seeds,
                      _ChainSteps(chain, min(N, _BLOCK)).draws,
                      _markov_rule(chain, kappa).within(N)._pool_block(math.sqrt(chain.sigma2)))


def markov_asllt_path(chain: TwoStateChain, kappa: float, N: int, seed: int) -> PathEstimate:
    """Path of (1/log n) sum (sigma/sqrt(nu)) 1{S_nu = kappa_nu}; target phi(kappa)."""
    return markov_asllt_paths(chain, kappa, N, [seed])[0]


def _markov_hit_masses(chain: TwoStateChain, targets: np.ndarray) -> np.ndarray:
    """P{t_nu ones among xi_1..xi_nu} for nu = 1..N, for the targets t_1..t_N.

    Up to nu = 2048 each mass is a row sum of the untrimmed transfer table, one
    step at a time; past that ``TransferConvolution`` advances in blocks, which
    agree with the table to about 1e-13 relative.
    """
    N = len(targets)
    m = np.zeros(N)  # 0 outside the table
    P = chain.transition()
    for i, (t, table) in enumerate(zip(targets[:_STEPWISE].tolist(),
                                       _visit_tables(P, chain.pi, min(N, _STEPWISE)))):
        if 0 <= t < table.shape[0]:
            m[i] = table[t].sum()
    return _fill_in_blocks(TransferConvolution(P, table, min(N, _STEPWISE)), targets, m)


def markov_asllt_expectation(chain: TwoStateChain, kappa: float, N: int) -> float:
    """Exact (1/log N) sum (sigma/sqrt(nu)) P{S_nu = kappa_nu} via the transfer table, in
    blocks past nu = 2048 (see ``_markov_hit_masses``)."""
    _require_horizon(N, 2, MAX_WINDOW)
    nu = np.arange(1, N + 1)
    m = _markov_hit_masses(chain, markov_kappa_indices(chain, kappa, nu))
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
    k = np.arange(1, n + 1)
    return weighted_sum_law(k, 1.0 / k, max_value=max_value)


def _round_half_up(x: float, n, out: np.ndarray) -> np.ndarray:
    """floor(x n + 1/2) written into the float array out."""
    np.multiply(x, n, out=out)
    out += 0.5
    return np.floor(out, out=out)


def _dickman_index(x: float, n, least: float = 0.0):
    """The Dickman target round(x n) = floor(x n + 1/2) as int64, for a finite x >= least."""
    t = _round_half_up(x, n, np.empty(np.shape(n)))
    if not (least <= x and np.max(t) < 2.0 ** 63):  # NaN and inf fail too
        raise PreconditionError(f"round(x n) needs a finite x >= {least:g}, x n < 2**63; got {x!r}")
    return t.astype(np.int64)


def _require_tabulated(rho: DickmanRho, x: float) -> None:
    """Reject a slope past the rho table, where the table reads 0, unless rho(x) is 0.0 anyway.

    By the delay equation rho(u) <= rho(u-1)/u, so rho(u) <= 1/Gamma(u+1), which
    lies below half the least positive double (e^-745.1) once lgamma(u+1) > 746.
    """
    if x > rho.u_max and math.lgamma(x + 1.0) <= 746.0:
        raise PreconditionError(f"x = {x!r} lies past the rho table (u_max = {rho.u_max:g}); "
                                f"tabulate rho at least to x")


def dickman_llt_check(n: int, x: float, rho: DickmanRho):
    """Exact n P{T_n = round(x n)} against the limit e^{-gamma} rho(x)."""
    from .approx import ApproxReport

    _require_horizon(n, 2)
    kappa = int(_dickman_index(x, n))
    _require_tabulated(rho, x)
    law = dickman_sum_law(n, max_value=kappa)
    exact = n * law.prob(kappa)
    target = math.exp(-EULER_GAMMA) * float(rho(x))
    return ApproxReport(n=n, metric="dickman_local", exact=float(exact), approx=target,
                        error=abs(exact - target), normalization="n")


def dickman_strong_llt(n: int, rho: DickmanRho) -> float:
    """Full sum over kappa of |P{T_n=kappa} - n^{-1} e^{-gamma} rho(kappa/n)|.

    The law of T_n is stepped only up to cap = max(ceil(n u_max), 30 n), not
    over its whole range 0..n(n+1)/2.  Past the cap the limit term is 0, so the
    terms left out are the masses there, which total the capped table's
    ``beyond_mass``: at most 3e-51 for n <= 3000, far below the last bit of
    the sum (0.0031 at n = 1000).  The terms up to the cap are those of the
    full law; the table is zero-padded only up to ceil(n u_max), where rho is
    still positive.  The DP's window of cap + 1 values is the one memory budget.
    """
    _require_horizon(n, 2)
    edge = int(math.ceil(n * rho.u_max))
    law = dickman_sum_law(n, max_value=max(edge, 30 * n))
    probs = np.pad(law.dense, (0, max(edge + 1 - len(law.dense), 0)))
    limit = math.exp(-EULER_GAMMA) / n * rho(np.arange(len(probs)) / n)
    return float(np.abs(probs - limit).sum())


def asllt_dickman_paths(N: int, seeds: Sequence[int], rho: DickmanRho, x: float = 1.0) -> list:
    """Coupled paths of (1/log N) sum_{n<=N} 1{T_n = round(x n)}, one per seed; target
    e^{-gamma} rho(x)."""
    _require_horizon(N, 4)
    _dickman_index(x, N, least=1.0)  # x >= 1: round(x n) increases, so n = N is the largest
    _require_tabulated(rho, x)

    def draws(rng):  # a seed's increments n Z_n of T_n, Z_n ~ Bernoulli(1/n)
        return lambda u, out, n, f: np.multiply(n, rng.random(out=u) < f, out=out,
                                                casting="unsafe")

    def block(steps, n, f, _, k):
        np.copyto(k, _round_half_up(x, n, f), casting="unsafe")
        return k, np.broadcast_to(1.0, n.shape), None, n, np.divide(1.0, n, out=f)
    return _seed_pool("dickman", math.exp(-EULER_GAMMA) * float(rho(x)), N, seeds, draws, block)


def asllt_dickman_path(N: int, seed: int, rho: DickmanRho, x: float = 1.0) -> PathEstimate:
    """Coupled path of (1/log N) sum_{n<=N} 1{T_n = round(x n)}.

    Target e^{-gamma} rho(x).  Convergence of the log average is slow: the
    finite-N expectation carries an O(1/log N) bias whose constant is of
    order one for this model (unlike the i.i.d. estimator, where the early
    terms happen to cancel the harmonic-sum surplus).
    """
    return asllt_dickman_paths(N, [seed], rho, x)[0]


def _dickman_series(M: int) -> np.ndarray:
    """H_0..H_{M-1} of H(z) = prod_{k>=2} (1 + z^k/(k-1)), so that P{T_n = m} = H_{m-1}/n for 1 <= m <= n.

    E z^{T_n} = (z/n) prod_{k=2..n} (1 + z^k/(k-1)), and the factors k > m - 1
    leave the coefficient of z^{m-1} alone.  H = exp(L) with
    L = sum_{k>=2} sum_{j>=1} (-1)^{j+1} z^{kj} / (j (k-1)^j); the terms with
    (k-1)^-j below 1e-300 are left out, so no power overflows and no
    subnormal reaches the FFT.
    """
    L = np.zeros(M)
    j = np.arange(1, (M - 1) // 2 + 1)
    L[2 * j] = np.where(j % 2 == 1, 1.0, -1.0) / j  # k = 2, where (k-1)^j = 1
    for j in range(1, M):
        top = (M - 1) // j  # the largest k with k j < M
        base = np.arange(2.0, min(top, math.floor(10.0 ** (300.0 / j)) + 1))  # k - 1 >= 2
        if not len(base):
            break
        L[(base.astype(np.int64) + 1) * j] += (1.0 if j % 2 == 1 else -1.0) / (j * base ** j)
    return _series_exp(L)


def dickman_expectation(N: int, x: float, rho: Optional[DickmanRho] = None) -> float:
    """Exact (1/log N) sum_{n<=N} P{T_n = round(x n)}.

    For 0 < x <= 1 and N > 2048 every term comes from one series,
    P{T_n = m} = H_{m-1}/n (see ``_dickman_series``), in O(N log^2 N); its
    terms agree with the DP's to 1e-13 relative.  Otherwise the law of T_n is
    stepped by the weighted DP, O(N^2).  ``rho`` is ignored: the exact
    expectation needs no Dickman table.  It is kept so that calls passing one
    still work.
    """
    _require_horizon(N, 2, MAX_WINDOW)
    n = np.arange(1, N + 1)
    targets = _dickman_index(x, n)
    m = np.zeros(N)  # P{T_n = round(x n)}
    if 0.0 < x <= 1.0 and N > _STEPWISE:
        H = _dickman_series(int(targets[-1]))
        hit = np.flatnonzero(targets)  # T_n >= 1, so P{T_n = 0} = 0
        m[hit] = H[targets[hit] - 1] / n[hit]
        return _log_average(m, N)[-1][1]
    dp = _WeightedDP(int(targets[-1]) + 1)
    for step, kappa in enumerate(targets.tolist(), 1):  # the law is 0.0 above the reachable range
        dp.step(step, 1.0 / step)
        m[step - 1] = dp.law[kappa]
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


def covariance_check(p: LatticePmf, m: int, n: int) -> CovarianceRecord:
    """Scaled joint-vs-product gap sqrt(nm) |P{S_n=k_n, S_m=k_m} - P P| with its bound shape.

    The bound bracket is 1/(sqrt(n/m) - 1) + n^{1/2}/(n-m)^{3/2}; in the
    regime m <= n/2 the alternative shape sqrt(m/n) applies.
    """
    if not 1 <= m < n:
        raise PreconditionError("need 1 <= m < n")
    if adjacent_overlap(p) <= 0:
        raise PreconditionError("adjacent positive masses required")
    rule = KappaRule.for_pmf(p, 0.0)
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
