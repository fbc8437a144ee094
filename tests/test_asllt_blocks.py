"""The path estimators walk the horizon in fixed blocks, against the whole-array
code they replaced, kept here as the reference."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from llt_lab import asllt as asl
from llt_lab.cli import main
from llt_lab.errors import PreconditionError
from llt_lab.gen import random_pmf
from llt_lab.lattice import (LatticePmf, bernoulli, lazy_walk, point_mass, power_tail,
                             uniform_range)
from llt_lab.rng import stream

EULER_GAMMA = float(np.euler_gamma)
B = asl._BLOCK
HORIZONS = (4, 5, B - 1, B, B + 1, 3 * B + 7, 500_000)


# -- the whole-array reference -----------------------------------------------------------


def _ref_log_average(terms, N, norm=None):
    csum = np.cumsum(terms)
    level = range(1, N + 1) if norm is None else norm
    return tuple((m, float(csum[m - 1] / math.log(level[m - 1])))
                 for m in asl._checkpoints(N) if level[m - 1] > 1.0)


def _ref_index(rule, n):
    nf = n.astype(np.float64)
    x = nf * rule.mu + rule.kappa * rule.sigma * np.sqrt(nf) - nf * rule.v0
    return np.floor(x / rule.D + 0.5).astype(np.int64)


def _ref_walk(p, N, seed):
    supp, w = p.atoms()
    return np.cumsum(stream(seed).choice(supp, size=N, p=w / w.sum()))


def _ref_t1(p, kappa, N, seed):
    n = np.arange(1, N + 1)
    hits = (_ref_walk(p, N, seed) == _ref_index(asl.KappaRule.for_pmf(p, kappa), n)) / np.sqrt(n)
    return _ref_log_average(hits, N)


def _ref_chain(chain, N, rng):
    u = rng.random(N)
    first = 1 if u[0] < chain.pi[1] else 0
    v = u[1:]
    from0 = v < chain.p01
    from1 = v >= chain.p10
    forced = from0 == from1
    flip = from0 & ~from1
    idx = np.arange(1, N)
    last_forced = np.maximum.accumulate(np.where(forced, idx, 0))
    forced_val = np.zeros(N, dtype=np.int64)
    forced_val[0] = first
    forced_val[idx[forced]] = from0[forced]
    cumflip = np.concatenate(([0], np.cumsum(flip)))
    states = np.empty(N, dtype=np.int64)
    states[0] = first
    states[1:] = forced_val[last_forced] ^ ((cumflip[idx] - cumflip[last_forced]) & 1)
    return states


def _ref_markov(chain, kappa, N, seed):
    ones = np.cumsum(_ref_chain(chain, N, stream(seed)))
    nu = np.arange(1, N + 1)
    sigma = math.sqrt(chain.sigma2)
    rule = asl.KappaRule(mu=chain.pi[1], sigma=sigma, v0=0.0, D=1.0, kappa=kappa)
    return _ref_log_average((ones == _ref_index(rule, nu)) * (sigma / np.sqrt(nu)), N)


def _ref_dickman(N, seed, x):
    k = np.arange(1, N + 1)
    t = np.cumsum(k * (stream(seed).random(N) < 1.0 / k))
    return _ref_log_average((t == np.floor(x * k + 0.5).astype(np.int64)).astype(np.float64), N)


def _ref_chung_erdos(p, a, N, seed, m):
    M = np.cumsum(m)
    terms = np.divide(_ref_walk(p, N, seed) == a, M, out=np.zeros(N), where=M > 0)
    return _ref_log_average(terms, N, norm=M)


def _bits(checkpoints):
    return [(n, float(v).hex()) for n, v in checkpoints]


def _cases(N, small, large):
    return small if N <= 3 * B + 7 else large


# -- every path kind, checkpoint for checkpoint ------------------------------------------


@pytest.mark.parametrize("N", HORIZONS)
def test_t1_path_is_bit_identical_to_the_whole_array_path(N):
    shifted = LatticePmf(-0.7, 0.5, {-2: 0.1, 0: 0.3, 3: 0.6})  # v0 != 0, D != 1
    cases = [(bernoulli(0.5), kappa, seed) for kappa in (0.0, -0.6, 1.3) for seed in (0, 7)]
    cases += [(shifted, kappa, seed) for kappa in (0.0, 0.9) for seed in (1, 2)]
    cases += [(uniform_range(0, 5), 0.4, 3)]
    for p, kappa, seed in _cases(N, cases, cases[1:2] + cases[6:7]):
        got = asl.asllt_path(p, kappa, N, seed)
        assert _bits(got.checkpoints) == _bits(_ref_t1(p, kappa, N, seed)), (p, kappa, seed)


@pytest.mark.parametrize("N", HORIZONS)
def test_markov_path_is_bit_identical_to_the_whole_array_path(N):
    # gamma = 1 - p01 - p10 > 0 carries between forced steps, < 0 flips, = 0 is i.i.d.
    chains = [(0.3, 0.4), (0.8, 0.7), (0.5, 0.5), (0.15, 0.85), (0.05, 0.9)]
    cases = [(asl.TwoStateChain(*c), kappa, seed)
             for c in chains for kappa in (0.0, 0.7) for seed in (0, 5)]
    for chain, kappa, seed in _cases(N, cases, cases[::7]):
        got = asl.markov_asllt_path(chain, kappa, N, seed)
        assert _bits(got.checkpoints) == _bits(_ref_markov(chain, kappa, N, seed)), (
            chain, kappa, seed)


@pytest.mark.parametrize("N", HORIZONS)
def test_dickman_path_is_bit_identical_to_the_whole_array_path(N):
    rho = asl.dickman_rho(u_max=4.0)
    cases = [(x, seed) for x in (1.0, 1.5, 2.5) for seed in (0, 4, 9)]
    for x, seed in _cases(N, cases, cases[::4]):
        got = asl.asllt_dickman_path(N, seed, rho, x=x)
        assert _bits(got.checkpoints) == _bits(_ref_dickman(N, seed, x)), (x, seed)


@pytest.mark.parametrize("N", HORIZONS)
def test_chung_erdos_path_is_bit_identical_to_the_whole_array_path(N):
    # level 3 of the lazy walk has M_k = 0 for k < 3; past the exact masses computed
    # here the sequence goes on as c/sqrt(k), which keeps the mass total growing
    exact = {a: asl.hit_mass_sequence(lazy_walk(), a, 40) for a in (0, 3)}
    k = np.arange(1, N + 1)
    for a in (0, 3):
        m = np.concatenate((exact[a], 0.45 / np.sqrt(k[40:])))[:N]
        for seed in _cases(N, (0, 3, 8), (2,)):
            if m.sum() < 2.0:
                with pytest.raises(PreconditionError, match="insufficient mass"):
                    asl.chung_erdos_path(lazy_walk(), a, N, seed, masses=m)
                continue
            got = asl.chung_erdos_path(lazy_walk(), a, N, seed, masses=m)
            want = _ref_chung_erdos(lazy_walk(), a, N, seed, m)
            assert _bits(got.checkpoints) == _bits(want), (a, seed)


# -- a batch of seeds in one pass, seed for seed ------------------------------------------


SEEDS = (0, 4, 11)


@pytest.mark.parametrize("N", HORIZONS)
def test_t1_paths_are_the_whole_array_paths_seed_for_seed(N):
    shifted = LatticePmf(-0.7, 0.5, {-2: 0.1, 0: 0.3, 3: 0.6})
    for p, kappa in _cases(N, [(bernoulli(0.5), -0.6), (shifted, 0.9)], [(shifted, 0.9)]):
        got = asl.asllt_paths(p, kappa, N, SEEDS)
        assert [(e.kind, e.seed) for e in got] == [("t1", seed) for seed in SEEDS]
        for est, seed in zip(got, SEEDS):
            assert _bits(est.checkpoints) == _bits(_ref_t1(p, kappa, N, seed)), (p, kappa, seed)
            assert est.target == asl.asllt_target(p, kappa)


@pytest.mark.parametrize("N", HORIZONS)
def test_markov_paths_are_the_whole_array_paths_seed_for_seed(N):
    for c, kappa in _cases(N, [((0.3, 0.4), 0.7), ((0.8, 0.7), 0.0)], [((0.8, 0.7), 0.0)]):
        chain = asl.TwoStateChain(*c)
        got = asl.markov_asllt_paths(chain, kappa, N, SEEDS)
        assert [est.seed for est in got] == list(SEEDS)
        for est, seed in zip(got, SEEDS):
            assert _bits(est.checkpoints) == _bits(_ref_markov(chain, kappa, N, seed)), (c, seed)


@pytest.mark.parametrize("N", HORIZONS)
def test_dickman_paths_are_the_whole_array_paths_seed_for_seed(N):
    rho = asl.dickman_rho(u_max=4.0)
    for x in _cases(N, (1.0, 2.5), (1.5,)):
        got = asl.asllt_dickman_paths(N, SEEDS, rho, x=x)
        assert [est.seed for est in got] == list(SEEDS)
        for est, seed in zip(got, SEEDS):
            assert _bits(est.checkpoints) == _bits(_ref_dickman(N, seed, x)), (x, seed)


@pytest.mark.parametrize("N", HORIZONS)
def test_chung_erdos_paths_are_the_whole_array_paths_seed_for_seed(N):
    # at level 3 of the lazy walk M_k = 0 before step 3
    exact = {a: asl.hit_mass_sequence(lazy_walk(), a, 40) for a in (0, 3)}
    k = np.arange(1, N + 1)
    for a in (0, 3):
        m = np.concatenate((exact[a], 0.45 / np.sqrt(k[40:])))[:N]
        if m.sum() < 2.0:
            with pytest.raises(PreconditionError, match="insufficient mass"):
                asl.chung_erdos_paths(lazy_walk(), a, N, SEEDS, masses=m)
            continue
        got = asl.chung_erdos_paths(lazy_walk(), a, N, SEEDS, masses=m)
        assert [est.seed for est in got] == list(SEEDS)
        for est, seed in zip(got, SEEDS):
            want = _ref_chung_erdos(lazy_walk(), a, N, seed, m)
            assert _bits(est.checkpoints) == _bits(want), (a, seed)


def test_a_batch_of_no_seeds_is_empty():
    assert asl.asllt_paths(bernoulli(0.5), 0.0, 100, []) == []
    assert asl.asllt_dickman_paths(100, [], asl.dickman_rho(u_max=4.0)) == []


def test_the_log_average_of_the_nonzero_terms_equals_the_dense_running_sum():
    rng = stream(77)
    N = 5000
    for density in (0.0, 0.001, 0.3, 1.0):
        terms = np.where(rng.random(N) < density, rng.random(N), 0.0)
        norm = np.cumsum(rng.random(N))
        for level in (None, norm):
            got = asl._log_average(terms, N, level)
            assert _bits(got) == _bits(_ref_log_average(terms, N, level)), (density, level)
    # blocks with no hit carry the running sum over
    avg, hits = asl._LogAverage(N), np.array([3, 900])
    for lo in range(0, N, 1000):
        inside = hits[(hits >= lo) & (hits < lo + 1000)] - lo
        avg.add(1000, inside, np.full(len(inside), 0.25))
    dense = np.zeros(N)
    dense[hits] = 0.25
    assert _bits(avg.checkpoints()) == _bits(_ref_log_average(dense, N))


def test_block_draws_equal_rng_choice():
    rng = stream(2024)
    laws = [random_pmf(rng, max_atoms=12, window=40) for _ in range(20)]
    laws += [bernoulli(0.5), bernoulli(0.03), lazy_walk(), uniform_range(-3, 9),
             power_tail(1.5, max_index=5000)]
    for p in laws:
        supp, w = p.atoms()
        for seed in range(5):
            for N in (1, 7, 1000, 70_000):
                draw = asl._index_draws(p, stream(seed))
                got = np.empty(N, np.int64)
                for lo in range(0, N, B):
                    hi = min(lo + B, N)
                    draw(np.empty(hi - lo), got[lo:hi])
                assert np.array_equal(got, stream(seed).choice(supp, size=N, p=w / w.sum()))


def test_comparison_draws_equal_rng_choice_at_equal_cdf_entries_and_the_cutoff():
    # a sub-ulp atom leaves two equal cdf entries; the cdf widths around the cutoff switch
    # between counting comparisons and the binary search
    laws = [LatticePmf(0.0, 1.0, {0: 0.5, 1: 1e-30, 2: 0.5}),
            LatticePmf(0.0, 1.0, {0: 1e-300, 1: 0.25, 5: 0.75}),
            LatticePmf(0.0, 1.0, {-4: 0.3, 0: 0.7 - 1e-17, 2: 1e-17}), point_mass(3.0)]
    laws += [uniform_range(0, w - 1) for w in (asl._FEW_ATOMS - 1, asl._FEW_ATOMS,
                                               asl._FEW_ATOMS + 1)]
    for p in laws:
        supp, w = p.atoms()
        for seed in range(4):
            draw = asl._index_draws(p, stream(seed))
            got = np.concatenate([draw(np.empty(n), np.empty(n, np.int64)) for n in (1, 999, B)])
            want = stream(seed).choice(supp, size=len(got), p=w / w.sum())
            assert np.array_equal(got, want), (p, seed)


class _Uniforms:
    """A stand-in generator whose uniforms are given, exact cdf entries among them."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, out):
        out[:] = np.resize(self.values, len(out))
        return out


def test_comparison_draws_count_a_uniform_equal_to_a_cdf_entry_as_searchsorted_does():
    for p in (bernoulli(0.5), lazy_walk(), LatticePmf(0.0, 1.0, {0: 0.25, 1: 0.25, 7: 0.5})):
        supp, w = p.atoms()
        cdf = np.cumsum(w / w.sum())
        cdf /= cdf[-1]
        u = np.concatenate((cdf[:-1], np.nextafter(cdf[:-1], 0.0), np.nextafter(cdf[:-1], 1.0),
                            [0.0, np.nextafter(1.0, 0.0)]))
        got = asl._index_draws(p, _Uniforms(u))(np.empty(len(u)), np.empty(len(u), np.int64))
        assert got.tolist() == supp[cdf.searchsorted(u, side="right")].tolist(), p


def _sequential_chain(chain, u, state):
    out = []
    for v in u:
        state = int(v < chain.p01) if state == 0 else int(v >= chain.p10)
        out.append(state)
    return out


def test_chain_continued_from_a_state_steps_from_its_transition_row():
    for p01, p10 in ((0.4, 0.5), (0.9, 0.8), (0.1, 0.2), (0.5, 0.5), (0.7, 0.3)):
        chain = asl.TwoStateChain(p01, p10)
        for prev in (0, 1):
            for N in (1, 2, 50):
                for seed in range(20):
                    got = asl._simulate_chain(chain, N, stream(seed), prev)
                    want = _sequential_chain(chain, stream(seed).random(N), prev)
                    assert got.dtype == np.int64 and got.tolist() == want, (chain, prev, N)


def test_chain_in_blocks_equals_the_chain_in_one_call():
    for p01, p10 in ((0.3, 0.4), (0.85, 0.75), (0.2, 0.9)):
        chain = asl.TwoStateChain(p01, p10)
        for seed in range(3):
            rng, prev, parts = stream(seed), None, []
            for size in (1, 5, 1000, 3, 777):
                parts.append(asl._simulate_chain(chain, size, rng, prev))
                prev = parts[-1][-1]
            whole = asl._simulate_chain(chain, 1786, stream(seed))
            assert np.array_equal(np.concatenate(parts), whole)
            assert np.array_equal(whole, _ref_chain(chain, 1786, stream(seed)))


def test_markov_path_memory_does_not_grow_with_the_horizon():
    # the whole-array path needed about 260 MB above import here
    code = ("import resource; from llt_lab import asllt as asl; "
            "rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024; "
            "base = rss(); asl.markov_asllt_path(asl.TwoStateChain(0.3, 0.4), 0.5, 4_000_000, 1); "
            "print(rss() - base)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 40.0


# -- the Dickman target needs rho tabulated at x ---------------------------------------------


def test_dickman_slope_past_the_rho_table_is_rejected():
    short = asl.dickman_rho(u_max=4.0)
    with pytest.raises(PreconditionError, match="rho table"):
        asl.asllt_dickman_path(1000, 0, short, x=5.0)
    with pytest.raises(PreconditionError, match="rho table"):
        asl.dickman_llt_check(500, 5.0, short)
    # at the end of the table the target is the table's last value
    assert asl.asllt_dickman_path(100, 0, short, x=4.0).target > 0.0
    assert asl.dickman_llt_check(500, 4.0, short).approx > 0.0
    # rho(u) <= 1/Gamma(u+1) is 0.0 in floating point from u = 178: no table is needed there
    assert asl.dickman_llt_check(10, 178.0, short).approx == 0.0


def test_cli_dickman_slope_past_the_default_table_exits_2(tmp_path, capsys):
    assert main(["asllt", "--kind", "dickman", "--x", "25", "--N", "1000",
                 "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "PreconditionError"
    assert not (tmp_path / "asllt_dickman.csv").exists()


# -- the strong Dickman distance ---------------------------------------------------------------


def _ref_strong(n, rho):
    law = asl.dickman_sum_law(n)
    hi = max(law.offset + len(law.dense) - 1, int(math.ceil(n * rho.u_max)))
    kappa = np.arange(0, hi + 1)
    probs = np.zeros(len(kappa))
    probs[law.offset: law.offset + len(law.dense)] = law.dense
    limit = math.exp(-EULER_GAMMA) / n * rho(kappa / n)
    return float(np.abs(probs - limit).sum())


def _windowed_strong(n, rho):
    """The sum over the window of the law capped at max(ceil(n u_max), 30 n), zero-padded
    to ceil(n u_max)."""
    edge = int(math.ceil(n * rho.u_max))
    law = asl.dickman_sum_law(n, max_value=max(edge, 30 * n))
    kappa = np.arange(0, max(len(law.dense) - 1, edge) + 1)
    probs = np.zeros(len(kappa))
    probs[: len(law.dense)] = law.dense
    limit = math.exp(-EULER_GAMMA) / n * rho(kappa / n)
    return float(np.abs(probs - limit).sum())


def test_dickman_strong_llt_is_bit_identical_to_the_windowed_sum():
    # the full-range sum groups its terms over 0..n(n+1)/2: the windowed one agrees to 1e-14
    for u_max in (4.0, 20.0):
        rho = asl.dickman_rho(u_max=u_max)
        for n in (2, 3, 10, 60, 200, 1000):
            got = asl.dickman_strong_llt(n, rho)
            assert got.hex() == _windowed_strong(n, rho).hex(), (u_max, n)
            assert got == pytest.approx(_ref_strong(n, rho), rel=1e-14, abs=0), (u_max, n)


def test_dickman_strong_llt_stops_at_the_cap_bit_for_bit():
    # the law is stepped to max(ceil(n u_max), 30 n) = 30 n only (u_max <= 30 here); the
    # masses it leaves out total beyond_mass, too little to move the sum
    for n in (1600, 3000):
        full, capped = asl.dickman_sum_law(n), asl.dickman_sum_law(n, max_value=30 * n)
        assert capped.beyond_mass < 1e-45, n
        assert capped.dense.tobytes() == full.dense[: len(capped.dense)].tobytes()
        for u_max in (4.0, 8.0, 20.0):
            rho = asl.dickman_rho(u_max=u_max)
            kappa = np.arange(0, max(len(full.dense) - 1, int(math.ceil(n * rho.u_max))) + 1)
            probs = np.zeros(len(kappa))
            probs[: len(full.dense)] = full.dense
            limit = math.exp(-EULER_GAMMA) / n * rho(kappa / n)
            want = float(np.abs(probs - limit).sum())
            got = asl.dickman_strong_llt(n, rho)
            assert got.hex() == _windowed_strong(n, rho).hex(), (n, u_max)
            assert got == pytest.approx(want, rel=1e-14, abs=0), (n, u_max)


def test_dickman_strong_llt_past_the_budget_raises_before_the_dp(monkeypatch):
    from llt_lab import exact
    from llt_lab.errors import ResourceLimitError

    rho = asl.dickman_rho()

    def no_step(*args, **kwargs):
        raise AssertionError("the DP took a step")

    # n = 101 needs a DP window of 30 n + 1 = 3,031 > 3,001 values
    monkeypatch.setattr(exact, "MAX_WINDOW", 30 * 100 + 1)
    monkeypatch.setattr(exact._WeightedDP, "step", no_step)
    with pytest.raises(ResourceLimitError):
        asl.dickman_strong_llt(101, rho)


def test_dickman_strong_llt_budget_boundary(monkeypatch):
    from llt_lab import exact
    from llt_lab.errors import ResourceLimitError

    rho = asl.dickman_rho()
    inside = asl.dickman_strong_llt(100, rho)
    monkeypatch.setattr(exact, "MAX_WINDOW", 30 * 100 + 1)  # the DP window of n = 100
    assert asl.dickman_strong_llt(100, rho).hex() == inside.hex()
    with pytest.raises(ResourceLimitError):
        asl.dickman_strong_llt(101, rho)


def test_dickman_strong_llt_at_n_3000_peaks_below_16_mb():
    import tracemalloc

    rho = asl.dickman_rho()
    tracemalloc.start()
    try:
        asl.dickman_strong_llt(3000, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak
