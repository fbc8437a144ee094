import math

import numpy as np
import pytest
from scipy.stats import binom

from llt_lab import asllt as asl
from llt_lab.errors import PreconditionError
from llt_lab.exact import sum_law
from llt_lab.gen import seeded
from llt_lab.lattice import LatticePmf, bernoulli, centered_coin, lazy_walk, uniform_range

EULER_GAMMA = float(np.euler_gamma)


@pytest.fixture(scope="module")
def rho():
    return asl.dickman_rho(u_max=8.0)


# -- Dickman function ------------------------------------------------------------------


def test_rho_plateau_and_log_branch(rho):
    assert float(rho(0.5)) == 1.0
    assert float(rho(1.0)) == 1.0
    assert float(rho(2.0)) == pytest.approx(1.0 - math.log(2.0), abs=1e-8)
    # analytic solution on (1,2]: 1 - ln u, checked off the grid nodes too
    for u in (1.3, 1.7321, 1.9999):
        assert float(rho(u)) == pytest.approx(1.0 - math.log(u), abs=1e-8)


def test_rho_shape_invariants(rho):
    vals = rho.values
    assert np.all(vals > 0)
    assert np.all(vals <= 1.0 + 1e-15)
    assert np.all(np.diff(vals) <= 1e-15)


def test_rho_integral_euler_gamma():
    table = asl.dickman_rho(u_max=20.0)
    assert table.integral() == pytest.approx(math.exp(EULER_GAMMA), abs=1e-4)


def test_rho_solver_grid_preconditions():
    with pytest.raises(PreconditionError):
        asl.dickman_rho(step=0.01)
    with pytest.raises(PreconditionError):
        asl.dickman_rho(step=0.0009)  # does not divide 1 exactly


# -- Dickman model local limits ----------------------------------------------------------


def test_dickman_llt_baseline_and_trend(rho):
    r3 = asl.dickman_llt_check(3, 1.0, rho)
    assert r3.exact == pytest.approx(1.0, abs=1e-12)  # 3 * P(T_3 = 3) = 3 * 1/3
    errs = [asl.dickman_llt_check(n, 1.0, rho).error for n in (250, 500, 1000, 2000)]
    assert errs[0] > errs[1] > errs[2] > errs[3]
    assert errs[-1] < 0.01


def test_dickman_llt_target_constant(rho):
    r = asl.dickman_llt_check(500, 1.0, rho)
    assert r.approx == pytest.approx(math.exp(-EULER_GAMMA), abs=1e-9)
    assert r.approx == pytest.approx(0.5614594, abs=1e-7)


def test_dickman_strong_llt_decreasing(rho):
    vals = [asl.dickman_strong_llt(n, rho) for n in (100, 400, 1600)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[-1] >= 0.0


def test_dickman_strong_llt_two_atoms(rho):
    # T_2 in {1, 3} with mass 1/2 each: closed-form two-atom sum plus the
    # curve mass at the missing integers
    n = 2
    got = asl.dickman_strong_llt(n, rho)
    coef = math.exp(-EULER_GAMMA) / n
    manual = (abs(0.5 - coef * float(rho(0.5))) + abs(0.5 - coef * float(rho(1.5)))
              + coef * float(rho(0.0)) + coef * float(rho(1.0)))
    manual += sum(coef * float(rho(k / n)) for k in range(4, int(8 * n) + 1))
    assert got == pytest.approx(manual, abs=1e-12)


# -- i.i.d. estimator ---------------------------------------------------------------------


def test_asllt_target_coin():
    coin = centered_coin()
    assert asl.asllt_target(coin, 0.0) == pytest.approx(2.0 / math.sqrt(2 * math.pi), rel=1e-12)


def test_kappa_rule_lattice_points():
    p = bernoulli(0.5)
    rule = asl.KappaRule.for_pmf(p, 0.7)
    n = np.arange(1, 50)
    idx = rule.index(n)
    target = n * 0.5 + 0.7 * 0.5 * np.sqrt(n)
    assert np.all(np.abs(idx - target) <= 0.5 + 1e-12)


def test_asllt_path_deterministic_and_positive():
    p = bernoulli(0.5)
    a = asl.asllt_path(p, 0.0, 2000, seed=5)
    b = asl.asllt_path(p, 0.0, 2000, seed=5)
    assert a.checkpoints == b.checkpoints
    assert all(v >= 0 for _, v in a.checkpoints)
    assert a.checkpoints[0][0] >= 3  # no checkpoint at the degenerate log(1)


def test_asllt_path_relabel_invariance():
    # identical indicator sequences for the same seed after affine relabeling
    p = LatticePmf(1.0, 2.0, {0: 0.25, 1: 0.5, 2: 0.25})
    q = p.relabel()
    a = asl.asllt_path(p, 0.3, 5000, seed=11)
    b = asl.asllt_path(q, 0.3, 5000, seed=11)
    # the limit value and the whole indicator sequence are relabeling-invariant
    assert a.target == pytest.approx(b.target, rel=1e-12)
    assert a.checkpoints == b.checkpoints


def test_asllt_expectation_close_to_target():
    p = bernoulli(0.5)
    e = asl.asllt_expectation(p, 0.0, 10_000)
    t = asl.asllt_target(p, 0.0)
    assert abs(e - t) / t < 0.05


def test_asllt_expectation_needs_horizon_two():
    for N in (0, 1):
        with pytest.raises(PreconditionError):
            asl.asllt_expectation(bernoulli(0.5), 0.0, N)


def test_asllt_mc_mean_matches_expectation():
    # mean over 200 short paths within 3 standard errors of the exact value
    p = bernoulli(0.5)
    N = 300
    exact = asl.asllt_expectation(p, 0.0, N)
    finals = np.array([asl.asllt_path(p, 0.0, N, seed=s).final for s in range(200)])
    se = finals.std(ddof=1) / math.sqrt(len(finals))
    assert abs(finals.mean() - exact) <= 3 * se


# -- mass-normalised hitting estimator ------------------------------------------------------


def test_hit_mass_sequence_matches_closed_form():
    # lazy walk = (fair binomial pair) - 1 per step: P(S_k = 0) = C(2k,k) 4^{-k};
    # oracle via the exact recurrence m_k = m_{k-1} (2k-1)/(2k)
    m = asl.hit_mass_sequence(lazy_walk(), 0, 200)
    ref = np.empty(200)
    ref[0] = 0.5
    for k in range(2, 201):
        ref[k - 1] = ref[k - 2] * (2 * k - 1) / (2 * k)
    assert np.max(np.abs(m - ref)) < 1e-12


def test_chung_erdos_path_and_expectation():
    p = lazy_walk()
    masses = asl.hit_mass_sequence(p, 0, 20_000)
    path = asl.chung_erdos_path(p, 0, 20_000, seed=3, masses=masses)
    assert path.target == 1.0
    assert path.final > 0.0
    exp_vals = [asl.chung_erdos_expectation(p, 0, N, masses=masses[:N])
                for N in (100, 1000, 10_000)]
    gaps = [abs(v - 1.0) for v in exp_vals]
    assert gaps[0] > gaps[1] > gaps[2]


def test_chung_erdos_insufficient_mass():
    with pytest.raises(PreconditionError, match="insufficient mass"):
        asl.chung_erdos_path(lazy_walk(), 0, 4, seed=1)


def test_chung_erdos_rejects_a_drifting_index_walk():
    # index increments {0, 1}: sum_k P{S_k = 3} = 2 for the fair coin, so no N gives M_N >= 2;
    # the centred coin has value mean 0 but the same index increments
    for p in (bernoulli(0.5), centered_coin(), bernoulli(0.9)):
        with pytest.raises(PreconditionError, match="visited finitely often in expectation"):
            asl.chung_erdos_expectation(p, 3, 5000)
        with pytest.raises(PreconditionError, match="visited finitely often in expectation"):
            asl.chung_erdos_path(p, 3, 5000, seed=1)


def test_chung_erdos_counts_no_term_before_the_level_is_reachable():
    # the lazy walk reaches level 3 first at step 3, so M_1 = M_2 = 0; level 0 at step 1
    p, N = lazy_walk(), 2000
    for level, first in ((0, 0), (3, 2)):
        m = asl.hit_mass_sequence(p, level, N)
        M = np.cumsum(m)
        assert not M[:first].any() and M[first] > 0.0
        terms = np.zeros(N)
        terms[first:] = m[first:] / M[first:]
        want = float(np.cumsum(terms)[-1] / math.log(M[-1]))
        assert asl.chung_erdos_expectation(p, level, N) == want
    finals = []
    for seed in range(1, 6):
        path = asl.chung_erdos_path(p, 3, N, seed=seed)
        assert all(math.isfinite(v) for _, v in path.checkpoints)
        finals.append(path.final)
    assert min(finals) == 0.0 and max(finals) > 0.0


def test_chung_erdos_degenerate_rejected():
    from llt_lab.lattice import point_mass

    with pytest.raises(PreconditionError):
        asl.chung_erdos_path(point_mass(0.0), 0, 100, seed=1)


# -- two-state chain -------------------------------------------------------------------------


def test_chain_symmetric_collapses_to_iid():
    chain = asl.TwoStateChain(0.5, 0.5)
    assert chain.gamma == 0.0
    assert chain.sigma2 == pytest.approx(0.25)
    assert chain.pi == (0.5, 0.5)
    pmf = asl.markov_ones_pmf(chain, 12)
    assert np.allclose(pmf, binom.pmf(np.arange(13), 12, 0.5), atol=1e-12)


def test_chain_derived_quantities():
    chain = asl.TwoStateChain(0.4, 0.5)
    pi0, pi1 = chain.pi
    assert pi0 == pytest.approx(5 / 9)
    assert pi1 == pytest.approx(4 / 9)
    assert chain.gamma == pytest.approx(0.1)
    assert chain.sigma2 == pytest.approx(pi0 * pi1 * 1.1 / 0.9)
    assert chain.f(0) == pytest.approx(-pi1)
    assert chain.f(1) == pytest.approx(pi0)
    assert chain.transition().sum(axis=1) == pytest.approx([1.0, 1.0])


def test_markov_ones_pmf_brute_force():
    # enumeration oracle over all state paths, nu = 6
    chain = asl.TwoStateChain(0.3, 0.6)
    pi = chain.pi
    P = chain.transition()
    nu = 6
    dist = np.zeros(nu + 1)
    for bits in range(1 << nu):
        states = [(bits >> i) & 1 for i in range(nu)]
        prob = pi[states[0]]
        for a, b in zip(states, states[1:]):
            prob *= P[a, b]
        dist[sum(states)] += prob
    got = asl.markov_ones_pmf(chain, nu)
    assert np.max(np.abs(got - dist)) < 1e-14


def test_markov_transfer_tables_bit_identical_to_fresh_tables():
    # reference: the transfer loop with a fresh table per step
    for p01, p10 in ((0.4, 0.5), (0.15, 0.85), (0.9, 0.05)):
        chain = asl.TwoStateChain(p01, p10)
        P = chain.transition()
        table = np.diag(chain.pi)
        for nu in range(1, 120):
            assert asl.markov_ones_pmf(chain, nu).tobytes() == table.sum(axis=1).tobytes()
            nxt = np.zeros((table.shape[0] + 1, 2))
            nxt[: table.shape[0], 0] = table @ P[:, 0]
            nxt[1:, 1] = table @ P[:, 1]
            table = nxt


def test_markov_path_target_and_mc_vs_transfer_matrix():
    chain = asl.TwoStateChain(0.4, 0.5)
    path = asl.markov_asllt_path(chain, 0.0, 1000, seed=0)
    assert path.target == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)
    # MC frequency of the hit at nu = 200 vs the transfer-matrix pmf
    nu = 200
    k_target = int(asl.markov_kappa_indices(chain, 0.0, np.array([nu]))[0])
    exact = asl.markov_ones_pmf(chain, nu)[k_target]
    draws = 4000
    from llt_lab.rng import stream

    hits = 0
    for s in range(draws):
        states = asl._simulate_chain(chain, nu, stream(9000, s))
        hits += int(states.sum() == k_target)
    freq = hits / draws
    se = math.sqrt(exact * (1 - exact) / draws)
    assert abs(freq - exact) <= 3 * se


def test_markov_expectation_needs_horizon_two():
    with pytest.raises(PreconditionError):
        asl.markov_asllt_expectation(asl.TwoStateChain(0.4, 0.5), 0.0, 1)


def test_markov_expectation_close():
    chain = asl.TwoStateChain(0.4, 0.5)
    e = asl.markov_asllt_expectation(chain, 0.0, 10_000)
    t = 1.0 / math.sqrt(2 * math.pi)
    assert abs(e - t) / t < 0.05


# -- Dickman estimator paths -------------------------------------------------------------------


def test_dickman_path_targets(rho):
    p1 = asl.asllt_dickman_path(5000, 1, rho, x=1.0)
    assert p1.target == pytest.approx(math.exp(-EULER_GAMMA), rel=1e-9)
    p2 = asl.asllt_dickman_path(5000, 1, rho, x=2.0)
    assert p2.target == pytest.approx(math.exp(-EULER_GAMMA) * (1 - math.log(2)), rel=1e-7)
    assert p2.target == pytest.approx(0.17229, abs=5e-5)
    with pytest.raises(PreconditionError):
        asl.asllt_dickman_path(5000, 1, rho, x=0.5)


def test_dickman_ratio_form_trend(rho):
    # sum of hits at [2n] over hits at [n] approaches rho(2), pooled paths
    from llt_lab.rng import stream

    N = 200_000
    k = np.arange(1, N + 1)
    hits1 = np.zeros(20)
    hits2 = np.zeros(20)
    for s in range(20):
        rngp = stream(500, s)
        z = rngp.random(N) < 1.0 / k
        t = np.cumsum(k * z)
        hits1[s] = np.sum(t == k)
        hits2[s] = np.sum(t == 2 * k)
    ratio = hits2.sum() / hits1.sum()
    assert abs(ratio - (1 - math.log(2))) < 0.12


def test_dickman_expectation_needs_horizon_two(rho):
    with pytest.raises(PreconditionError):
        asl.dickman_expectation(1, 1.0, rho)


def test_dickman_expectation_trend(rho):
    tgt = math.exp(-EULER_GAMMA)
    vals = [asl.dickman_expectation(N, 1.0, rho) for N in (100, 1000, 10_000)]
    gaps = [abs(v - tgt) for v in vals]
    assert gaps[0] > gaps[2]  # slow log-decay of the constant bias


def test_dickman_mc_mean_matches_expectation(rho):
    N = 500
    exact = asl.dickman_expectation(N, 1.0, rho)
    finals = np.array([asl.asllt_dickman_path(N, s, rho).final for s in range(200)])
    se = finals.std(ddof=1) / math.sqrt(len(finals))
    assert abs(finals.mean() - exact) <= 3 * se


# -- covariance shape ----------------------------------------------------------------------------


def test_covariance_records_and_stability():
    p = bernoulli(0.5)
    fitted = []
    fitted_scaled = []
    for m in (8, 16, 32, 64, 128, 256):
        rec = asl.covariance_check(p, m, 2 * m)
        fitted.append(rec.fitted_c)
        fitted_scaled.append(rec.fitted_c_scaled)
        assert math.isfinite(rec.lhs) and rec.lhs >= 0
    assert max(fitted) / min(fitted) < 3.0
    assert max(fitted_scaled) / min(fitted_scaled) < 3.0


def test_covariance_regime_m_le_half_n():
    p = bernoulli(0.5)
    for m, n in ((8, 64), (16, 128), (32, 512)):
        rec = asl.covariance_check(p, m, n)
        assert rec.lhs <= 3.0 * rec.sqrt_ratio  # fitted constant stays small


def test_covariance_joint_consistency():
    # joint cell equals marginal product plus the measured gap, and the
    # marginals integrate correctly (kappa-free sanity on exact tables)
    p = bernoulli(0.5)
    m, n = 4, 8
    law_m = sum_law(p, m)
    law_inc = sum_law(p, n - m)
    total = 0.0
    for a in law_m.support:
        for b_off in law_inc.support:
            total += law_m.prob(int(a)) * law_inc.prob(int(b_off))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_covariance_requires_adjacent_mass():
    span2 = LatticePmf(0.0, 1.0, {0: 0.5, 2: 0.5})
    with pytest.raises(PreconditionError):
        asl.covariance_check(span2, 4, 8)


def test_paths_csv(tmp_path, rho):
    paths = [asl.asllt_dickman_path(1000, s, rho) for s in (0, 1)]
    out = tmp_path / "paths.csv"
    asl.write_paths_csv(out, paths)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kind,seed,N,estimate,target"
    assert len(lines) == 1 + sum(len(p.checkpoints) for p in paths)


def test_markov_ones_pmf_empty_and_negative_horizon():
    chain = asl.TwoStateChain(0.4, 0.5)
    assert asl.markov_ones_pmf(chain, 0).tolist() == [1.0]
    for nu in (-1, -3):
        with pytest.raises(PreconditionError):
            asl.markov_ones_pmf(chain, nu)


def test_dickman_expectation_ignores_rho(rho):
    for N, x in ((2, 1.0), (50, 0.5), (400, 1.7)):
        assert asl.dickman_expectation(N, x).hex() == asl.dickman_expectation(N, x, rho).hex()


def test_expectations_return_python_floats():
    lazy, chain = lazy_walk(), asl.TwoStateChain(0.4, 0.5)
    values = (asl.asllt_expectation(bernoulli(0.5), 0.3, 50),
              asl.markov_asllt_expectation(chain, 0.3, 50),
              asl.dickman_expectation(50, 1.0),
              asl.chung_erdos_expectation(lazy, 0, 50))
    assert all(type(v) is float for v in values)


def test_markov_kappa_indices_match_the_direct_rounding():
    # reference: floor(nu pi_1 + kappa sigma sqrt(nu) + 1/2), written out
    n = np.arange(1, 3001)
    for p01, p10 in ((0.4, 0.5), (0.15, 0.85), (0.9, 0.05), (0.31, 0.62)):
        chain = asl.TwoStateChain(p01, p10)
        sigma = math.sqrt(chain.sigma2)
        for kappa in (-2.3, -0.81, 0.0, 0.37, 1.0, 2.9):
            nf = n.astype(np.float64)
            ref = np.floor(nf * chain.pi[1] + kappa * sigma * np.sqrt(nf) + 0.5).astype(np.int64)
            assert np.array_equal(asl.markov_kappa_indices(chain, kappa, n), ref)


def test_kappa_rule_index_matches_the_direct_expression():
    n = np.arange(1, 20_001)
    nf = n.astype(np.float64)
    for v0, D in ((0.0, 1.0), (0.37, 2.0), (-1.5, 0.5)):
        for kappa in (-2.3, 0.0, 0.41, 1.7):
            rule = asl.KappaRule(mu=0.83, sigma=1.29, v0=v0, D=D, kappa=kappa)
            x = nf * rule.mu + rule.kappa * rule.sigma * np.sqrt(nf) - nf * rule.v0
            ref = np.floor(x / rule.D + 0.5).astype(np.int64)
            assert np.array_equal(rule.index(n), ref)
            assert int(rule.index(777)) == ref[776]


def test_hit_mass_sequence_takes_one_target_per_step():
    p = bernoulli(0.5)
    targets = np.arange(1, 41) // 2
    got = asl.hit_mass_sequence(p, targets, 40)
    ref = [binom.pmf(t, k, 0.5) for k, t in enumerate(targets, start=1)]
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)
    assert asl.hit_mass_sequence(p, 3, 40).tobytes() == asl.hit_mass_sequence(
        p, np.full(40, 3), 40).tobytes()


def test_dickman_expectation_rejects_negative_slope():
    for N, x in ((200, -0.01), (100, -0.1), (10, float("nan"))):
        with pytest.raises(PreconditionError):
            asl.dickman_expectation(N, x)
    assert asl.dickman_expectation(50, 0.0) == 0.0  # T_n >= Z_1 = 1, so T_n = 0 never happens


def test_dickman_expectation_rejects_a_non_finite_slope():
    for x in (math.inf, math.nan):
        with pytest.raises(PreconditionError, match="finite"):
            asl.dickman_expectation(10, x)


def test_chung_erdos_masses_must_cover_the_horizon():
    p = lazy_walk()
    masses = asl.hit_mass_sequence(p, 0, 400)
    for N in (300, 500):
        with pytest.raises(PreconditionError, match="hit masses"):
            asl.chung_erdos_expectation(p, 0, N, masses=masses)
        with pytest.raises(PreconditionError, match="hit masses"):
            asl.chung_erdos_path(p, 0, N, seed=1, masses=masses)


def test_chung_erdos_checkpoints_start_once_the_mass_exceeds_one():
    # uniform steps on -3..3: M_4 ~ 0.49, M_8 ~ 0.80, M_16 ~ 1.25, so log M_n > 0 from n = 16
    p = uniform_range(-3, 3)
    M = np.cumsum(asl.hit_mass_sequence(p, 0, 2000))
    path = asl.chung_erdos_path(p, 0, 2000, seed=1)
    assert [n for n, _ in path.checkpoints][0] == 16
    assert all(M[n - 1] > 1.0 and v >= 0.0 for n, v in path.checkpoints)


def test_kappa_rule_rejects_non_finite_fields():
    nan, inf = math.nan, math.inf
    fields = dict(mu=0.5, sigma=0.5, v0=0.0, D=1.0, kappa=0.0)
    for name in fields:
        for bad in (nan, inf):
            with pytest.raises(PreconditionError, match="finite"):
                asl.KappaRule(**{**fields, name: bad})
    with pytest.raises(PreconditionError):
        asl.asllt_path(bernoulli(0.5), nan, 100, 0)
    with pytest.raises(PreconditionError):
        asl.markov_asllt_path(asl.TwoStateChain(0.3, 0.4), inf, 100, 0)


def test_dickman_path_rejects_a_non_finite_slope(rho):
    for x in (math.nan, math.inf):
        with pytest.raises(PreconditionError, match="finite x >= 1"):
            asl.asllt_dickman_path(100, 0, rho, x=x)


def test_rho_solver_rejects_bad_grids_before_building_one(monkeypatch):
    from llt_lab.errors import ResourceLimitError

    for step in (0.0, -0.001, math.nan, math.inf):
        with pytest.raises(PreconditionError, match="step must lie in"):
            asl.dickman_rho(step=step)
    for u_max in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(PreconditionError, match="u_max must be finite"):
            asl.dickman_rho(u_max=u_max)
    with pytest.raises(ResourceLimitError):
        asl.dickman_rho(step=5e-324)  # 1 / step overflows to inf
    monkeypatch.setattr(asl, "MAX_WINDOW", 4 * 1024 + 1)  # the nodes of u_max = 4
    with pytest.raises(ResourceLimitError):
        asl.dickman_rho(u_max=5.0)
    assert len(asl.dickman_rho(u_max=4.0).values) == 4 * 1024 + 1


def test_asllt_target_needs_a_finite_positive_variance():
    from llt_lab.lattice import point_mass, power_tail

    with pytest.raises(PreconditionError, match="positive variance"):
        asl.asllt_target(power_tail(1.5, tail_mass=1e-4), 0.0)  # no variance
    with pytest.raises(PreconditionError, match="positive variance"):
        asl.asllt_target(point_mass(0.0), 0.0)


def test_chung_erdos_expectation_rejects_a_degenerate_law():
    from llt_lab.lattice import point_mass

    with pytest.raises(PreconditionError, match="degenerate summand law"):
        asl.chung_erdos_expectation(point_mass(0.0), 0, 100)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
def test_chung_erdos_masses_must_be_finite_and_nonnegative(bad):
    p, N = lazy_walk(), 100
    masses = asl.hit_mass_sequence(p, 0, N)
    masses[57] = bad
    for masses in (masses, np.full(N, bad)):
        with pytest.raises(PreconditionError, match="finite and >= 0"):
            asl.chung_erdos_expectation(p, 0, N, masses=masses)
        with pytest.raises(PreconditionError, match="finite and >= 0"):
            asl.chung_erdos_path(p, 0, N, seed=1, masses=masses)
        with pytest.raises(PreconditionError, match="finite and >= 0"):
            asl.chung_erdos_paths(p, 0, N, [1, 2, 3], masses=masses)
