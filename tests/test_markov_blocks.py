"""The Markov expectation mode in blocks, against the one-step transfer table and Gabriel's formula.

``markov_asllt_expectation`` runs ``TransferConvolution`` from the
stationary start, 128 steps per call on a window trimmed at 1e-30.  The
reference is the untrimmed transfer table, one step per nu.  The
independent oracle is Gabriel's closed form for the number of successes in
a two-state chain (K. R. Gabriel, Biometrika 46, 1959), summed over the
number of runs of ones with exact integer run counts.
"""

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from llt_lab import asllt as asl
from llt_lab.errors import ResourceLimitError
from llt_lab.exact import RunningConvolution, TransferConvolution

RTOL = 1e-13
CHAINS = [(0.4, 0.5), (0.15, 0.85), (0.9, 0.05)]


def _decimal(c: int, two: Decimal) -> Decimal:
    """The integer c rounded to the context's precision, from its top 256 bits."""
    s = max(c.bit_length() - 256, 0)
    return Decimal(c >> s) * two ** s


def _binomial_row(n: int, two: Decimal) -> list:
    """C(n, j) for j = 0..n, computed as exact integers and rounded to Decimals."""
    row, c = [], 1
    for j in range(n + 1):
        row.append(_decimal(c, two))
        c = c * (n - j) // (j + 1)
    return row


def _gabriel_pmf(chain, nu, ks):
    """P(k ones among xi_1..xi_nu) for each k in ks, by Gabriel's run decomposition.

    A path with k ones (0 < k < nu) that starts in a and ends in b has r runs
    of ones and r0 = r + 1 - a - b runs of zeros: C(k-1, r-1) C(nu-k-1, r0-1)
    such paths, each with r - a moves 0 -> 1, r0 - 1 + a moves 1 -> 0, k - r
    moves 1 -> 1 and nu - k - r0 moves 0 -> 0.  The chain's float parameters
    enter exactly and the sum runs in 40 digits.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        two = Decimal(2)
        (p00, p01), (p10, p11) = [[Decimal(x) for x in row] for row in chain.transition().tolist()]
        pi = [Decimal(x) for x in chain.pi]
        powers = []
        for p in (p00, p01, p10, p11):
            q = [Decimal(1)]
            for _ in range(nu):
                q.append(q[-1] * p)
            powers.append(q)
        q00, q01, q10, q11 = powers
        out = []
        for k in ks:
            if k in (0, nu):
                out.append(float(pi[0] * q00[nu - 1] if k == 0 else pi[1] * q11[nu - 1]))
                continue
            ones, zeros = _binomial_row(k - 1, two), _binomial_row(nu - k - 1, two)
            total = Decimal(0)
            for a in (0, 1):
                for b in (0, 1):
                    for r in range(1, k + 1):
                        r0 = r + 1 - a - b
                        if 1 <= r0 <= nu - k:
                            total += (ones[r - 1] * zeros[r0 - 1] * pi[a] * q00[nu - k - r0]
                                      * q01[r - a] * q10[r0 - 1 + a] * q11[k - r])
            out.append(float(total))
    return np.array(out)


def _spread(pmf, floor, count=20):
    """About count atoms spread evenly over those of mass above floor, both ends included."""
    above = np.flatnonzero(pmf > floor)
    return np.unique(np.linspace(above[0], above[-1], count).round().astype(np.int64))


def _one_step_tables(chain, N):
    """table[j, s] = P(j ones among xi_1..xi_nu, xi_nu = s) for nu = 1..N, from xi_1 ~ pi.

    The untrimmed transfer table, one step per nu: each yield is a view of rows
    0..nu of one table, which the next step overwrites in place.
    """
    P = chain.transition()
    table = np.zeros((N + 1, 2))
    table[0, 0], table[1, 1] = chain.pi
    yield table[:2]
    for rows in range(2, N + 1):
        stay, move = table[:rows] @ P[:, 0], table[:rows] @ P[:, 1]
        table[:rows, 0] = stay
        table[1: rows + 1, 1] = move
        yield table[: rows + 1]


def _table_masses(chain, targets):
    """P{t_nu ones among xi_1..xi_nu} from the untrimmed table, one step per nu."""
    m = np.zeros(len(targets))
    for i, table in enumerate(_one_step_tables(chain, len(targets))):
        if 0 <= targets[i] < table.shape[0]:
            m[i] = table[targets[i]].sum()
    return m


def _kappa_targets(chain, kappa, N):
    return asl.markov_kappa_indices(chain, kappa, np.arange(1, N + 1))


def test_gabriel_formula_against_enumeration():
    chain = asl.TwoStateChain(0.3, 0.6)
    P, nu = chain.transition(), 7
    dist = np.zeros(nu + 1)
    for bits in range(1 << nu):
        states = [(bits >> i) & 1 for i in range(nu)]
        prob = chain.pi[states[0]]
        for a, b in zip(states, states[1:]):
            prob *= P[a, b]
        dist[sum(states)] += prob
    assert np.allclose(_gabriel_pmf(chain, nu, range(nu + 1)), dist, rtol=1e-14, atol=0.0)


def test_markov_ones_pmf_matches_gabriel_at_nu_5000():
    chain, nu = asl.TwoStateChain(0.4, 0.5), 5000
    pmf = asl.markov_ones_pmf(chain, nu)
    ks = _spread(pmf, 1e-200)
    assert len(ks) >= 19 and pmf[ks[0]] < 1e-190 and pmf[ks[-1]] < 1e-190
    want = _gabriel_pmf(chain, nu, ks.tolist())
    assert np.max(np.abs(pmf[ks] - want) / want) < 1e-12


@pytest.mark.parametrize("nu, floor", [(128, 1e-200), (5000, 1e-15)])
def test_blocked_hit_masses_match_gabriel(nu, floor):
    # up to nu = 128 the first block reads the untrimmed start.  Later blocks start from a
    # window trimmed at 1e-30, so an atom a few orders above that floor misses the trimmed
    # mass's share (3e-11 relative at 1e-20 when nu = 5000); the kappa targets sit in the bulk.
    chain = asl.TwoStateChain(0.4, 0.5)
    ks = _spread(asl.markov_ones_pmf(chain, nu), floor)
    want = _gabriel_pmf(chain, nu, ks.tolist())
    got = []
    for k in ks.tolist():
        targets = np.zeros(nu, dtype=np.int64)
        targets[-1] = k
        got.append(asl._markov_hit_masses(chain, targets)[-1])
    assert np.max(np.abs(np.array(got) - want) / want) < 1e-12


@pytest.mark.parametrize("p01, p10, kappa", [c + (k,) for c, k in zip(CHAINS, (0.0, 1.3, -0.7))])
def test_blocked_masses_match_the_one_step_table(p01, p10, kappa):
    chain, B = asl.TwoStateChain(p01, p10), 128
    targets = _kappa_targets(chain, kappa, 10_000)
    want_all = _table_masses(chain, targets)
    assert want_all.min() > 1e-20  # the kappa targets sit in the bulk
    for N in (1, B + 1, 3 * B - 1, 10_000):
        got, want = asl._markov_hit_masses(chain, targets[:N]), want_all[:N]
        assert np.max(np.abs(got - want) / want) < RTOL, N


@pytest.mark.parametrize("p01, p10", CHAINS)
def test_expectation_up_to_2048_is_the_one_step_table(p01, p10):
    # the blocks are aligned at nu = 0, so the masses at N = 2048 cover every prefix
    chain = asl.TwoStateChain(p01, p10)
    targets = _kappa_targets(chain, 0.3, 2048)
    m = _table_masses(chain, targets)
    assert np.max(np.abs(asl._markov_hit_masses(chain, targets) - m) / m) < RTOL
    sigma = math.sqrt(chain.sigma2)
    for N in (2, 3, 100, 2047, 2048):
        nu = np.arange(1, N + 1)
        want = asl._log_average(m[:N] * sigma / np.sqrt(nu), N)[-1][1]
        got = asl.markov_asllt_expectation(chain, 0.3, N)
        assert abs(got - want) < RTOL * want, (p01, p10, N)


def test_trimmed_mass_at_1e5_is_below_1e_25():
    chain, N = asl.TwoStateChain(0.4, 0.5), 100_000
    run = TransferConvolution(chain.transition(), chain.pi)
    targets = _kappa_targets(chain, 0.0, N)
    for lo in range(0, N, run.block):
        run.advance(targets[lo: lo + run.block])
    assert run.n == N
    assert 0.0 < run.lost_mass <= 1e-25
    assert abs(run.probs.sum() + run.lost_mass - 1.0) < 1e-12
    assert run.probs.sum(axis=1)[[0, -1]].min() >= run.floor


def test_transfer_steps_against_the_table():
    chain = asl.TwoStateChain(0.15, 0.85)
    run = TransferConvolution(chain.transition(), chain.pi)
    for nu, want in enumerate(_one_step_tables(chain, 1000), 1):
        run.step()
        assert run.n == nu
        # rows near the trimmed edges miss the trimmed rows' share; the bulk does not
        ones = want.sum(axis=1)
        bulk = np.flatnonzero(ones > 1e-15)
        got = np.array([run.prob(k) for k in bulk.tolist()])
        assert np.max(np.abs(got - ones[bulk]) / ones[bulk]) < RTOL, nu
    assert run.prob(run.offset - 1) == 0.0 and run.prob(run.offset + len(run.probs)) == 0.0
    assert run.offset > 0 and run.lost_mass > 0.0


def test_markov_ones_pmf_of_a_huge_horizon_is_a_resource_error():
    with pytest.raises(ResourceLimitError):
        asl.markov_ones_pmf(asl.TwoStateChain(0.4, 0.5), 10 ** 9)


class _ThreeStateSum(RunningConvolution):
    """The kernel on a 3-state chain: S_nu = f(xi_1) + ... + f(xi_nu), started from xi_0 ~ pi."""

    def __init__(self, P, f, pi):
        T1 = np.zeros((3, 3, max(f) + 1))
        for t, ft in enumerate(f):
            T1[:, t, ft] = P[:, t]
        self._start(T1, 0, np.array([pi]), 0.0)


def _enumerated(P, f, pi, nu):
    """joint[k, s] = P(S_nu = k, xi_nu = s), summed over the S^(nu + 1) paths of S states."""
    paths = np.array(list(itertools.product(range(len(P)), repeat=nu + 1)))
    mass = pi[paths[:, 0]] * np.prod(P[paths[:, :-1], paths[:, 1:]], axis=1)
    joint = np.zeros((max(f) * nu + 1, len(P)))
    np.add.at(joint, (np.asarray(f)[paths[:, 1:]].sum(axis=1), paths[:, -1]), mass)
    return joint


def test_a_three_state_step_matrix_against_enumeration():
    # probabilities in sixteenths: every mass up to nu = 9 is a multiple of 2^-40 below 1, so
    # the enumeration and the kernel, in float64 and in long double, are exact
    P = np.array([[8, 5, 3], [2, 10, 4], [4, 4, 8]]) / 16
    f, pi = (0, 1, 2), np.array([3, 8, 5]) / 16
    want = [_enumerated(P, f, pi, nu) for nu in range(1, 10)]
    run = _ThreeStateSum(P, f, pi)
    for joint in want:
        run.step()
        assert run.offset == 0 and run.probs.tobytes() == joint.tobytes()
        assert [run.prob(k) for k in range(-1, len(joint) + 1)] == [0.0, *joint.sum(axis=1), 0.0]
    assert run.lost_mass == 0.0
    # advance: the masses of targets along the way, and the same window at nu = 9
    targets = [1, 0, 4, 6, 5, 9, 7, 16, 19]
    run = _ThreeStateSum(P, f, pi)
    got = run.advance(targets)
    assert got.tolist() == [w[t].sum() if t < len(w) else 0.0 for w, t in zip(want, targets)]
    assert run.n == 9 and run.probs.tobytes() == want[-1].tobytes()


@pytest.mark.parametrize("N", [1, 2, 3, 127, 128, 129, 300])
def test_hit_masses_across_the_first_block_edges(N):
    # every mass P{k ones at nu = N}: by enumeration from xi_0 ~ pi up to N = 3, by Gabriel's
    # formula over the atoms above 1e-20 past it, where the blocks' edges and trims lie
    chain = asl.TwoStateChain(0.3, 0.6)
    if N <= 3:
        ks, rtol = list(range(N + 1)), 1e-13
        want = _enumerated(chain.transition(), (0, 1), np.array(chain.pi), N).sum(axis=1)
    else:
        ks, rtol = _spread(asl.markov_ones_pmf(chain, N), 1e-20).tolist(), 1e-12
        want = _gabriel_pmf(chain, N, ks)
    targets = np.zeros(N, dtype=np.int64)
    got = []
    for k in ks:
        targets[-1] = k
        got.append(asl._markov_hit_masses(chain, targets)[-1])
    assert np.max(np.abs(np.array(got) - want) / want) < rtol, N
