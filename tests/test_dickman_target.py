"""The Dickman target round(x n) = floor(x n + 1/2), shared by the path, the exact
expectation and the pointwise check, against the code each of them used before."""

import math

import numpy as np
import pytest

from llt_lab import asllt as asl
from llt_lab.errors import PreconditionError, ResourceLimitError
from llt_lab.exact import _WeightedDP
from llt_lab.rng import stream

EULER_GAMMA = float(np.euler_gamma)


@pytest.fixture(scope="module")
def rho():
    return asl.dickman_rho(u_max=4.0)


def _dense_path_checkpoints(N, seed, x):
    # the path's own draws, the success times m -> floor(m / (1 - u)) + 1, evaluated at every n
    rng, z, m = stream(seed), np.zeros(N + 1), 1
    while m <= N:
        z[m] = 1.0
        m = math.floor(m / (1.0 - rng.random())) + 1
    k = np.arange(1, N + 1)
    t = np.cumsum(k * z[1:])
    hits = (t == np.floor(x * k + 0.5).astype(np.int64)).astype(np.float64)
    return asl._log_average(hits, N)


def _old_expectation(N, x):
    dp = _WeightedDP(int(math.floor(x * N + 0.5)) + 1)
    m = np.zeros(N)
    for n in range(1, N + 1):
        dp.step(n, 1.0 / n)
        kappa = math.floor(x * n + 0.5)
        if kappa <= dp.hi:
            m[n - 1] = dp.law[kappa]
    return asl._log_average(m, N)[-1][1]


def _old_llt_check(n, x, rho):
    kappa = round(x * n)  # half to even
    law = asl.dickman_sum_law(n, max_value=kappa)
    exact = n * law.prob(kappa)
    target = math.exp(-EULER_GAMMA) * float(rho(x))
    return float(exact), target, abs(exact - target)


def _bits(checkpoints):
    return [(n, float(v).hex()) for n, v in checkpoints]


def test_dickman_path_is_bit_identical_to_the_old_path(rho):
    # x n is a half-integer for x in {1.5, 2.5} at odd n
    for x in (1.0, 1.3, 1.5, 2.5, 3.0):
        for N in (4, 17, 1000, 4000):
            for seed in range(10):
                got = asl.asllt_dickman_path(N, seed, rho, x=x).checkpoints
                assert _bits(got) == _bits(_dense_path_checkpoints(N, seed, x)), (x, N, seed)


def test_dickman_expectation_is_bit_identical_to_the_old_loop():
    for x in (0.0, 1.5, 2.5):
        for N in (2, 3, 17, 400):
            assert asl.dickman_expectation(N, x).hex() == _old_expectation(N, x).hex(), (x, N)


def test_dickman_llt_check_rounds_ties_up_like_the_path(rho):
    for n, x, k in ((5, 0.5, 3), (7, 1.5, 11), (101, 2.5, 253)):
        assert int(asl._dickman_index(x, n)) == k
        law = asl.dickman_sum_law(n)
        rep = asl.dickman_llt_check(n, x, rho)
        assert rep.exact == n * law.prob(k)
        assert rep.exact != n * law.prob(k - 1)  # the half-to-even index the check read before


def test_dickman_llt_check_at_slope_one_is_bit_identical(rho):
    for n in (2, 3, 10, 101, 500):
        rep = asl.dickman_llt_check(n, 1.0, rho)
        exact, approx, error = _old_llt_check(n, 1.0, rho)
        assert (rep.exact.hex(), rep.approx.hex(), rep.error.hex()) == (
            exact.hex(), approx.hex(), float(error).hex())


def test_every_dickman_target_rejects_a_non_finite_slope(rho):
    calls = (lambda x: asl.asllt_dickman_path(100, 0, rho, x=x),
             lambda x: asl.dickman_expectation(10, x),
             lambda x: asl.dickman_llt_check(10, x, rho))
    for call in calls:
        for x in (math.inf, math.nan, -math.inf):
            with pytest.raises(PreconditionError, match="finite"):
                call(x)


def test_dickman_target_must_fit_in_int64(rho):
    with pytest.raises(PreconditionError, match="2\\*\\*63"):
        asl.dickman_llt_check(10, 1e300, rho)
    assert asl.dickman_llt_check(10, 1e6, rho).exact == 0.0  # far above T_10 <= 55


def _sequential_chain(chain, N, rng):
    u = rng.random(N)
    state = 1 if u[0] < chain.pi[1] else 0
    states = [state]
    for v in u[1:]:
        state = int(v < chain.p01) if state == 0 else int(v >= chain.p10)
        states.append(state)
    return np.array(states, dtype=np.int64)


def test_simulated_chain_of_one_and_two_steps_matches_the_sequential_loop():
    chains = [asl.TwoStateChain(0.4, 0.5), asl.TwoStateChain(0.9, 0.8),
              asl.TwoStateChain(0.1, 0.2), asl.TwoStateChain(0.5, 0.5)]
    for chain in chains:
        for N in (1, 2):
            for seed in range(200):
                got = asl._simulate_chain(chain, N, stream(seed))
                want = _sequential_chain(chain, N, stream(seed))
                assert got.dtype == np.int64 and got.tolist() == want.tolist(), (chain, N, seed)


def test_dickman_expectation_checks_the_budget_before_building_its_law():
    with pytest.raises(ResourceLimitError, match="memory budget"):
        asl.dickman_expectation(10, 1e12)  # a law over 10^13 values
