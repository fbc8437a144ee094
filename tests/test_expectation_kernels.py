"""The block kernels of the exact expectation modes against the loops they replace.

``hit_mass_sequence`` takes every step in blocks of
``RunningConvolution.block``; ``dickman_expectation`` reads every term for
0 < x <= 1 from one series.  Both are compared with the one-step-per-n
loops, written out here, to 1e-13 relative on the masses above 1e-20.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from llt_lab import asllt as asl
from llt_lab.errors import PreconditionError
from llt_lab.exact import RunningConvolution, _block_steps, _series_exp, _WeightedDP
from llt_lab.lattice import LatticePmf, bernoulli, centered_coin, lazy_walk, uniform_range

RTOL = 1e-13


def _stepwise_masses(p, targets):
    """P{S_k = a_k} for k = 1..N from one RunningConvolution.step per k."""
    run = RunningConvolution(p)
    out = np.empty(len(targets))
    for k, target in enumerate(targets.tolist()):
        run.step()
        out[k] = run.prob(target)
    return out


def _assert_close(got, want, what):
    big = want > 1e-20
    rel = np.abs(got[big] - want[big]) / want[big]
    assert rel.max(initial=0.0) < RTOL, (what, float(rel.max()))
    # below 1e-20 both are tiny; where the loop reads exactly 0.0 the blocks do too
    assert np.all(np.abs(got[~big]) < 1e-19), what
    assert not got[want == 0.0].any(), what


def _kappa_targets(p, kappa, N):
    return asl.KappaRule.for_pmf(p, kappa).index(np.arange(1, N + 1))


def test_block_size_rule():
    assert [_block_steps(w) for w in (1, 2, 3, 4, 5, 9, 17, 33)] == [128] * 4 + [64] * 2 + [32] * 2
    assert _block_steps(2 ** 16) == 1 and _block_steps(10 ** 6) == 1
    assert RunningConvolution(LatticePmf(0.0, 1.0, {0: 0.5, 70_000: 0.5})).block == 1
    for w in range(2, 600):
        b = _block_steps(w)
        assert b * (b * (w - 1) + 1) <= 2 ** 16 or b == 1
        assert b == 128 or 2 * b * (2 * b * (w - 1) + 1) > 2 ** 16


@pytest.mark.parametrize("name", ["lazy 0", "lazy 3", "bernoulli(0.2)", "uniform(0,4)",
                                  "centered coin"])
def test_block_hit_masses_match_the_step_loop(name):
    p = {"lazy 0": lazy_walk(), "lazy 3": lazy_walk(), "bernoulli(0.2)": bernoulli(0.2),
         "uniform(0,4)": uniform_range(0, 4), "centered coin": centered_coin()}[name]
    B = RunningConvolution(p).block
    horizons = [1, B + 1, 3 * B - 1, 80_000]
    for N in horizons:
        if name.startswith("lazy"):
            targets = np.full(N, int(name[-1]))
        elif name == "uniform(0,4)" and N == 80_000:
            # on the bulk the step loop drifts by 1.4e-13 here (an extended-precision run of
            # it puts the blocks at 7e-15), so the far level 0 checks the masking instead
            targets = np.zeros(N, dtype=np.int64)
        else:
            targets = _kappa_targets(p, {"bernoulli(0.2)": 0.4, "uniform(0,4)": -1.1,
                                         "centered coin": 0.7}[name], N)
        got = asl.hit_mass_sequence(p, targets, N)
        want = _stepwise_masses(p, targets)
        if name == "uniform(0,4)" and N == 80_000:
            # P{S_k = 0} = 5^-k falls below the 1e-30 floor at k = 43.  The step loop trims it
            # there; the first block reads it from the untrimmed start, and past the block's
            # trim the masking leaves it 0
            exact = 5.0 ** -np.arange(1, B + 1)
            assert np.max(np.abs(got[:B] - exact) / exact) < RTOL
            assert not got[B:].any() and not want[42:].any()
        else:
            _assert_close(got, want, (name, N))
        if name == "lazy 3":
            assert not got[:2].any()


def test_block_hit_masses_of_the_lazy_walk_against_the_exact_binomial():
    # S_k + k ~ Binomial(2k, 1/2): P{S_k = 0} = C(2k, k) 4^-k
    k = 80_000
    got = asl.hit_mass_sequence(lazy_walk(), 0, k)[-1]
    exact = Fraction(math.comb(2 * k, k), 4 ** k)
    assert abs(Fraction(got) - exact) / exact < RTOL


SMALL_N = [1, 2, 3, 127, 128, 129, 300]  # across the edges of the first blocks


def test_lazy_walk_hit_masses_at_small_n_against_the_exact_binomial():
    # S_k + k ~ Binomial(2k, 1/2): P{S_k = 0} = C(2k, k) 4^-k
    for N in SMALL_N:
        got = asl.hit_mass_sequence(lazy_walk(), 0, N)
        for k, mass in enumerate(got.tolist(), 1):
            exact = Fraction(math.comb(2 * k, k), 4 ** k)
            assert abs(Fraction(mass) - exact) / exact < RTOL, (N, k)


@pytest.mark.parametrize("kappa", [-0.8, 0.0, 0.37])
def test_coin_expectation_at_small_n_against_binomial_sums(kappa):
    # S_n ~ Binomial(n, 1/2): each term is C(n, j_n) 2^-n n^-1/2, its mass exact in Fraction
    p = bernoulli(0.5)
    for N in SMALL_N[1:]:  # the expectation needs N >= 2
        j = asl.KappaRule.for_pmf(p, kappa).index(np.arange(1, N + 1)).tolist()
        terms = [float(Fraction(math.comb(n, k), 2 ** n)) / math.sqrt(n) if 0 <= k <= n else 0.0
                 for n, k in enumerate(j, 1)]
        want = math.fsum(terms) / math.log(N)
        assert abs(asl.asllt_expectation(p, kappa, N) - want) < RTOL * want, (kappa, N)


def test_no_expectation_mode_steps_one_at_a_time(monkeypatch):
    def refuse(self):
        raise AssertionError("RunningConvolution.step called")

    monkeypatch.setattr(RunningConvolution, "step", refuse)
    N, chain = 3000, asl.TwoStateChain(0.3, 0.6)
    assert asl.asllt_expectation(bernoulli(0.5), 0.3, N) > 0.0
    assert asl.hit_mass_sequence(lazy_walk(), 0, N).all()
    assert asl.markov_asllt_expectation(chain, 0.3, N) > 0.0
    assert asl.chung_erdos_expectation(lazy_walk(), 0, N) > 0.0


def test_advance_from_the_start_and_its_bounds():
    p = uniform_range(-1, 2)
    run, ref = RunningConvolution(p), RunningConvolution(p)
    targets = np.array([0, 1, -5, 40, 2, 1, 0])
    got = run.advance(targets)
    want = []
    for t in targets.tolist():
        ref.step()
        want.append(ref.prob(t))
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)
    assert got[2] == 0.0 and got[3] == 0.0  # out of reach
    assert (run.n, run.offset) == (ref.n, ref.offset)
    assert np.allclose(run.probs, ref.probs, rtol=1e-15, atol=0.0)
    with pytest.raises(PreconditionError):
        run.advance([])
    with pytest.raises(PreconditionError):
        run.advance(np.zeros(run.block + 1, dtype=np.int64))


def test_advance_trims_at_the_block_end_and_books_the_mass():
    p = bernoulli(0.5)
    run = RunningConvolution(p)
    for _ in range(200):
        run.advance(np.zeros(run.block, dtype=np.int64))
    assert run.n == 200 * run.block
    assert run.probs[0] >= run.floor and run.probs[-1] >= run.floor
    assert 0.0 < run.lost_mass < 1e-25
    assert abs(run.probs.sum() + run.lost_mass - 1.0) < 1e-12


# -- the Dickman expectation from one series ---------------------------------------------


def _dp_terms(N, x):
    """P{T_n = round(x n)} for n = 1..N from one _WeightedDP step per n."""
    targets = asl._dickman_index(x, np.arange(1, N + 1)).tolist()
    dp = _WeightedDP(targets[-1] + 1)
    m = np.zeros(N)
    for n, kappa in enumerate(targets, 1):
        dp.step(n, 1.0 / n)
        m[n - 1] = dp.law[kappa]
    return m


@pytest.mark.parametrize("N", [2049, 10_000, 40_000])
def test_dickman_expectation_from_the_series_matches_the_dp(N):
    for x in (0.25, 0.5, 1.0):
        m = _dp_terms(N, x)
        want = asl._log_average(m, N)[-1][1]
        got = asl.dickman_expectation(N, x)
        assert abs(got - want) < RTOL * want, (N, x, got, want)
        targets = asl._dickman_index(x, np.arange(1, N + 1))
        H = asl._dickman_series(int(targets[-1]))
        terms = np.where(targets > 0, H[targets - 1] / np.arange(1, N + 1), 0.0)
        _assert_close(terms, m, (N, x))


def test_dickman_series_against_small_sum_laws():
    H = asl._dickman_series(60)
    for n in (1, 2, 5, 10, 20, 40, 60):
        law = asl.dickman_sum_law(n)
        for m in range(1, n + 1):
            assert H[m - 1] / n == pytest.approx(law.prob(m), rel=1e-14, abs=1e-300), (n, m)
    # P{T_n = m} = P{T_N = m} N / n for m <= n <= N
    big = asl.dickman_sum_law(60)
    for n in (5, 20, 40):
        small = asl.dickman_sum_law(n)
        for m in range(1, n + 1):
            assert big.prob(m) * 60 / n == pytest.approx(small.prob(m), rel=1e-13), (n, m)


def test_dickman_series_raises_no_warning():
    # past M ~ 3000 the bound on (k-1)^-j cuts the k = 3 terms at j = 996
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            H = asl._dickman_series(200_000)
    assert np.all(np.isfinite(H))
    assert H[-1] == pytest.approx(math.exp(-float(np.euler_gamma)), rel=1e-4)


def test_dickman_expectation_keeps_the_dp_outside_the_series_range():
    # x > 1 and x = 0 step the DP; 0 < x <= 1 reads the series at every N
    for N, x in ((3000, 1.5), (3000, 0.0)):
        m = _dp_terms(N, x)
        assert asl.dickman_expectation(N, x) == asl._log_average(m, N)[-1][1], (N, x)
    want = asl._log_average(_dp_terms(2048, 1.0), 2048)[-1][1]
    assert abs(asl.dickman_expectation(2048, 1.0) - want) < RTOL * want


def test_series_exp_of_simple_logs():
    z = np.zeros(40)
    z[1] = 1.0  # exp(z): 1/m!
    want = np.array([1.0 / math.factorial(m) for m in range(40)])
    assert np.allclose(_series_exp(z), want, rtol=1e-13, atol=0.0)
    # log(1/(1 - z)) = sum z^j / j: exp is 1/(1 - z), all ones, far past the leaf size
    L = np.concatenate(([0.0], 1.0 / np.arange(1, 5000)))
    assert np.allclose(_series_exp(L), 1.0, rtol=1e-12, atol=0.0)
    assert _series_exp(np.zeros(0)).shape == (0,)
