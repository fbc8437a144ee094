import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from llt_lab import bernoulli_part as bp
from llt_lab import suites
from llt_lab.errors import NoBernoulliComponentError, PreconditionError
from llt_lab.exact import sum_law, sup_cdf_distance, weighted_sum_law
from llt_lab.gen import random_adjacent_pmf, seeded
from llt_lab.lattice import LatticePmf, bernoulli, moments
from llt_lab.approx import measure_lltber_constant


def tv_between(a: LatticePmf, b: LatticePmf) -> float:
    lo = min(a.offset, b.offset)
    hi = max(a.offset + len(a.dense), b.offset + len(b.dense))
    da = np.zeros(hi - lo)
    db = np.zeros(hi - lo)
    da[a.offset - lo: a.offset - lo + len(a.dense)] = a.dense
    db[b.offset - lo: b.offset - lo + len(b.dense)] = b.dense
    return 0.5 * float(np.abs(da - db).sum())


def test_decompose_fair_coin_worked_example():
    dec = bp.decompose(bernoulli(0.5), 0.5)
    assert dec.tau == {0: pytest.approx(0.5)}
    assert dec.joint[(0, 1)] == pytest.approx(0.5)
    assert dec.joint[(0, 0)] == pytest.approx(0.25)
    assert dec.joint[(1, 0)] == pytest.approx(0.25)


def test_decompose_invariants_random():
    rng = seeded(60)
    for _ in range(50):
        p = random_adjacent_pmf(rng)
        tmax = bp.theta_max(p)
        for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
            dec = bp.decompose(p, frac * tmax)
            # tau constraints and total
            assert sum(dec.tau.values()) == pytest.approx(dec.theta, abs=1e-12)
            for k in dec.tau:
                f_k1 = p.weights.get(k + 1, 0.0)
                assert dec.tau.get(k - 1, 0.0) + dec.tau[k] <= 2 * p.weights.get(k, 0.0) + 1e-12
            # joint masses nonnegative, eps marginal = theta
            assert all(m >= 0 for m in dec.joint.values())
            eps1 = sum(m for (k, e), m in dec.joint.items() if e == 1)
            assert eps1 == pytest.approx(dec.theta, abs=1e-13)
            # exact reconstruction
            assert tv_between(dec.reconstructed(), p) < 1e-14


def _dict_decompose(p, theta):
    """The dict-keyed coupling (tau_k and (k, eps) -> mass), kept as the reference."""
    tmax = bp.theta_max(p)
    theta = tmax if theta is None else theta
    scale = theta / tmax
    off, w = p.offset, p.dense
    tau = {}
    for i in range(len(w) - 1):
        m = min(w[i], w[i + 1]) * scale
        if m > 0:
            tau[off + i] = m
    joint = {}
    for i, fk in enumerate(w):
        k = off + i
        rest = fk - 0.5 * (tau.get(k - 1, 0.0) + tau.get(k, 0.0))
        if tau.get(k, 0.0) > 0:
            joint[(k, 1)] = tau[k]
        if rest > 0:
            joint[(k, 0)] = rest
    return float(theta), tau, joint


def _dict_laws(p, joint):
    """(v_eps_pmf, reconstructed) built from the joint dict by the reference loops."""
    half, full = {}, {}
    for (k, e), mass in joint.items():
        half[2 * k + e] = half.get(2 * k + e, 0.0) + mass
        if e == 0:
            full[k] = full.get(k, 0.0) + mass
        else:
            full[k] = full.get(k, 0.0) + mass / 2.0
            full[k + 1] = full.get(k + 1, 0.0) + mass / 2.0
    return LatticePmf(p.v0, p.D / 2.0, half), LatticePmf(p.v0, p.D, full)


def _dict_sample(p, joint, n, seed):
    from llt_lab.rng import stream

    rng = stream(seed)
    keys = sorted(joint)
    masses = np.array([joint[k] for k in keys])
    idx = rng.choice(len(keys), size=n, p=masses / masses.sum())
    ks = np.array([keys[i][0] for i in idx])
    eps = np.array([keys[i][1] for i in idx])
    coins = rng.integers(0, 2, size=n)
    return (float(np.sum(p.v0 + p.D * ks)), int(eps.sum()), int((eps * coins).sum()))


def test_decompose_rejects_theta_above_tiny_theta_max():
    # theta_X = 1e-15: an absolute slack of 1e-15 accepted theta = 2 theta_X and
    # gave tau_0 = 2e-15 > min(f(0), f(1))
    p = LatticePmf(0.0, 1.0, {0: 1.0 - 1e-15, 1: 1e-15})
    with pytest.raises(PreconditionError):
        bp.decompose(p, 2e-15)
    assert bp.decompose(p, bp.theta_max(p)).tau == {0: 1e-15}


def _same_window(a, b):
    return (a.v0, a.D, a.offset, a.dense.tobytes()) == (b.v0, b.D, b.offset, b.dense.tobytes())


def test_decomposition_window_matches_dict_reference():
    rng = seeded(66)
    for case in range(306):
        base = random_adjacent_pmf(rng, max_atoms=int(rng.integers(2, 11)))
        shift = int(rng.integers(-9, 10))
        p = LatticePmf(float(rng.integers(-3, 4)), float(rng.choice([0.5, 1.0, 3.0])),
                       {k + shift: m for k, m in base.weights.items()})
        for frac in (0.3, 0.7, 0.95, None):
            theta = None if frac is None else frac * bp.theta_max(p)
            dec = bp.decompose(p, theta)
            ref_theta, tau, joint = _dict_decompose(p, theta)
            half, full = _dict_laws(p, joint)
            assert _same_window(dec.v_eps_pmf(), half)
            assert _same_window(dec.reconstructed(), full)
            assert dec.tau == tau and dec.joint == joint
            assert list(dec.joint) == sorted(joint)
            ref_json = json.dumps({
                "theta": ref_theta,
                "tau": [[k, v] for k, v in sorted(tau.items())],
                "joint": [[k, e, m] for (k, e), m in sorted(joint.items())]})
            assert dec.to_json() == ref_json
            n, seed = 1 + case % 7, 1000 + case
            assert bp.sample_decomposed_sum(dec, n, seed) == _dict_sample(p, joint, n, seed)


def test_decomposition_views_are_read_only():
    dec = bp.decompose(bernoulli(0.3))
    with pytest.raises(TypeError):
        dec.tau[0] = 0.0
    with pytest.raises(TypeError):
        dec.joint[(0, 1)] = 0.0
    assert not dec.law.dense.flags.writeable


def test_sprime_law_is_memoised():
    dec = bp.decompose(random_adjacent_pmf(seeded(67)))
    assert dec.v_eps_pmf() is dec.v_eps_pmf()
    assert bp.exact_Sprime_law(dec, 6) is bp.exact_Sprime_law(dec, 6)


def test_decompose_rejects_sublattice():
    span2 = LatticePmf(0.0, 1.0, {0: 0.5, 2: 0.5})
    with pytest.raises(NoBernoulliComponentError):
        bp.decompose(span2)


def test_sample_decomposed_sum_deterministic_and_bounded():
    dec = bp.decompose(bernoulli(0.5))
    assert bp.sample_decomposed_sum(dec, 0, 7) == (0.0, 0, 0)
    a = bp.sample_decomposed_sum(dec, 50, 123)
    b = bp.sample_decomposed_sum(dec, 50, 123)
    assert a == b
    w, eps_count, coin_count = a
    assert 0 <= coin_count <= eps_count <= 50


def test_sampled_sum_matches_oracle_tv():
    # empirical law of W_n + D M_n vs the exact sum law, n = 5
    p = bernoulli(0.5)
    dec = bp.decompose(p)
    n, draws = 5, 100_000
    law = sum_law(p, n)
    counts = {}
    from llt_lab.rng import stream

    rng = stream(2718)
    keys = sorted(dec.joint)
    masses = np.array([dec.joint[k] for k in keys])
    masses = masses / masses.sum()
    ks = np.array([k for k, _ in keys])
    es = np.array([e for _, e in keys])
    idx = rng.choice(len(keys), size=(draws, n), p=masses)
    coins = rng.integers(0, 2, size=(draws, n))
    totals = (ks[idx] + es[idx] * coins).sum(axis=1)
    vals, freq = np.unique(totals, return_counts=True)
    emp = dict(zip(vals, freq / draws))
    tv = 0.5 * sum(abs(emp.get(k, 0.0) - law.prob(int(k)))
                   for k in range(law.offset, law.offset + len(law.probs) + 1))
    assert tv < 0.01


def test_sprime_law_moments_and_small_case():
    p = bernoulli(0.5)
    dec = bp.decompose(p, 0.5)
    s1 = bp.exact_Sprime_law(dec, 1)
    # S'_1 on the half-span lattice: values 0, 1/2, 1 with masses 1/4, 1/2, 1/4
    assert s1.prob(0) == pytest.approx(0.25)
    assert s1.prob(1) == pytest.approx(0.5)
    assert s1.prob(2) == pytest.approx(0.25)
    assert s1.points([1])[0] == pytest.approx(0.5)
    for n in (1, 3, 8):
        sn = sum_law(p, n)
        sp = bp.exact_Sprime_law(dec, n)
        assert sp.meta.mu == pytest.approx(sn.meta.mu, abs=1e-12)
        assert sp.meta.sigma2 == pytest.approx(
            sn.meta.sigma2 - 0.25 * n * dec.theta, abs=1e-12)


def test_sprime_variance_identity_random():
    rng = seeded(61)
    for _ in range(25):
        p = random_adjacent_pmf(rng)
        dec = bp.decompose(p)
        n = int(rng.integers(2, 9))
        sp = bp.exact_Sprime_law(dec, n)
        sn = sum_law(p, n)
        assert sp.meta.sigma2 == pytest.approx(
            sn.meta.sigma2 - p.D**2 / 4.0 * n * dec.theta, abs=1e-11)


def test_sum_decomposition_identity_exact():
    # law of W_n + D M_n from binomial mixing equals the sum law, n <= 8
    from scipy.stats import binom

    rng = seeded(62)
    for _ in range(8):
        p = random_adjacent_pmf(rng, max_atoms=4)
        dec = bp.decompose(p)
        n = int(rng.integers(2, 9))
        v1 = {k: m / dec.theta for (k, e), m in dec.joint.items() if e == 1}
        v0 = {k: m / (1 - dec.theta) for (k, e), m in dec.joint.items() if e == 0}

        def conv(a, b):
            out = {}
            for ka, ma in a.items():
                for kb, mb in b.items():
                    out[ka + kb] = out.get(ka + kb, 0.0) + ma * mb
            return out

        total = {}
        for count in range(n + 1):
            wc = float(binom.pmf(count, n, dec.theta))
            law = {0: 1.0}
            for _ in range(count):
                law = conv(law, v1)
            for _ in range(n - count):
                law = conv(law, v0)
            coin = {j: float(binom.pmf(j, count, 0.5)) for j in range(count + 1)}
            law = conv(law, coin)
            for k, m in law.items():
                total[k] = total.get(k, 0.0) + wc * m
        mixture = LatticePmf(0.0, 1.0, {k: m for k, m in total.items() if m > 0})
        direct = sum_law(p, n)
        dsupp = {int(k): float(direct.probs[k - direct.offset]) for k in direct.support}
        assert tv_between(mixture, LatticePmf(0.0, 1.0, dsupp)) < 1e-10


def test_rho_bound_value_and_monotonicity():
    assert bp.rho_bound(0.5, 56.0) == pytest.approx(2.0 * math.exp(-6.0), rel=1e-12)
    assert bp.rho_bound(0.5, 80.0) < bp.rho_bound(0.5, 56.0)


def test_rho_exact_below_bound():
    rng = seeded(63)
    for _ in range(20):
        n = int(rng.integers(10, 200))
        theta = float(rng.uniform(0.1, 0.9))
        h = float(rng.uniform(0.1, 0.9))
        exact = bp.rho_exact_iid(n, theta, h)
        assert exact <= bp.rho_bound(h, n * theta) + 1e-12


def test_rho_exact_poisson_binomial_below_bound():
    rng = seeded(64)
    for _ in range(20):
        thetas = rng.uniform(0.05, 0.95, size=int(rng.integers(5, 40)))
        h = float(rng.uniform(0.1, 0.9))
        exact = bp.rho_exact_counts(thetas, h)
        assert exact <= bp.rho_bound(h, float(thetas.sum())) + 1e-12


def test_chernoff_tails_dominate_exact():
    # both one-sided tail bounds dominate exact Poisson-binomial tails
    rng = seeded(65)
    for _ in range(20):
        thetas = rng.uniform(0.05, 0.95, size=int(rng.integers(5, 30)))
        law = weighted_sum_law([1] * len(thetas), list(thetas))
        mu = float(thetas.sum())
        eps = float(rng.uniform(0.1, 1.0))
        k = law.offset + np.arange(len(law.probs))
        upper = float(law.probs[k >= (1 + eps) * mu].sum())
        lower = float(law.probs[k <= (1 - eps) * mu].sum())
        assert upper <= math.exp(-eps**2 * mu / (2 * (1 + eps / 3))) + 1e-12
        assert lower <= math.exp(-eps**2 * mu / 2) + 1e-12


@pytest.fixture(scope="module")
def c0_measured():
    return 1.5 * measure_lltber_constant()


def _sandwich_inputs(p, dec, n, c0):
    law = sum_law(p, n)
    theta_n = n * dec.theta
    h = min(0.9, math.sqrt(7 * math.log(theta_n) / (2 * theta_n)))
    return bp.EffectiveRateInput(
        n=n, var_sn=law.meta.sigma2, mean_sn=law.meta.mu, theta_n=theta_n,
        h_n=bp.h_n_exact(dec, n), rho_n=bp.rho_exact_iid(n, dec.theta, h),
        h=h, D=p.D, C0=c0), law


def test_effective_bounds_sandwich_fair_coin(c0_measured):
    p = bernoulli(0.5)
    dec = bp.decompose(p)
    for n in (64, 256):
        inp, law = _sandwich_inputs(p, dec, n, c0_measured)
        center = round(law.meta.mu)
        for kappa in range(center - 3, center + 4):
            b = bp.effective_bounds(inp, kappa)
            assert b.lower <= law.prob(kappa) <= b.upper


def test_effective_bounds_collapse_to_gaussian():
    inp = bp.EffectiveRateInput(n=100, var_sn=25.0, mean_sn=50.0, theta_n=1e12,
                                h_n=0.0, rho_n=0.0, h=1e-9, D=1.0, C0=0.3)
    b = bp.effective_bounds(inp, 52.0)
    assert b.upper == pytest.approx(b.gaussian, rel=1e-5)
    assert b.lower == pytest.approx(b.gaussian, rel=1e-5)


def test_constants_chain():
    inp = bp.EffectiveRateInput(n=4, var_sn=1.0, mean_sn=0.0, theta_n=2.0,
                                h_n=0.1, rho_n=0.0, h=0.5, D=1.0, C0=5.0)
    assert inp.C1 == 5.0  # C0 dominates 8/sqrt(2 pi)
    assert inp.C2 == pytest.approx(2**3.5 * 5.0)
    small = bp.EffectiveRateInput(n=4, var_sn=1.0, mean_sn=0.0, theta_n=2.0,
                                  h_n=0.1, rho_n=0.0, h=0.5, D=1.0, C0=0.1)
    assert small.C1 == pytest.approx(8.0 / math.sqrt(2 * math.pi))


def test_ger2_bound_dominates(c0_measured):
    p = bernoulli(0.5)
    dec = bp.decompose(p)
    for n in (256, 1024):
        inp, law = _sandwich_inputs(p, dec, n, c0_measured)
        assert math.log(inp.theta_n) / inp.theta_n <= 1 / 14
        bound = bp.ger2_bound(inp)
        center = round(law.meta.mu)
        win = math.sqrt(inp.theta_n / (14 * math.log(inp.theta_n)))
        steps = int(math.floor(math.sqrt(win * law.meta.sigma2)))
        for kappa in range(center - steps, center + steps + 1):
            if not bp.ger2_window_ok(inp, kappa):
                continue
            gauss = bp.effective_bounds(inp, kappa).gaussian
            assert abs(law.prob(kappa) - gauss) <= bound


def test_transfer_formula_slack():
    # fine near-normal lattice: slack small and nonnegative
    from llt_lab.lattice import LatticePmf

    step = 0.1
    ks = np.arange(-60, 61)
    w = np.exp(-0.5 * (ks * step) ** 2)
    w = w / w.sum()
    fine = LatticePmf(0.0, step, {int(k): float(m) for k, m in zip(ks, w)})
    law = sum_law(fine, 1)
    rec = bp.transfer_formula_check(0.7, 0.3, law)
    assert rec["slack"] >= 0.0
    assert rec["lhs"] < 0.05
    # centered two-atom law: exact expectation, slack nonnegative
    coin = sum_law(LatticePmf(-1.0, 2.0, {0: 0.5, 1: 0.5}), 1)
    rec2 = bp.transfer_formula_check(0.4, 0.9, coin)
    assert rec2["slack"] >= 0.0
    # b = 0, symmetric law: lhs = |E e^{-aY^2} - 1/sqrt(1+2a)| by substitution
    a = 0.6
    lhs_direct = abs(0.5 * math.exp(-a) + 0.5 * math.exp(-a)
                     - 1.0 / math.sqrt(1 + 2 * a))
    rec3 = bp.transfer_formula_check(a, 0.0, coin)
    assert rec3["lhs"] == pytest.approx(lhs_direct, abs=1e-14)


def test_decomposition_json_export():
    dec = bp.decompose(bernoulli(0.5), 0.5)
    obj = json.loads(dec.to_json())
    assert obj["theta"] == 0.5
    assert [0, 0.5] in obj["tau"]
    assert sorted(m for _, _, m in obj["joint"]) == [0.25, 0.25, 0.5]


def test_effective_input_validation():
    with pytest.raises(PreconditionError):
        bp.EffectiveRateInput(n=4, var_sn=1.0, mean_sn=0.0, theta_n=2.0,
                              h_n=0.1, rho_n=0.0, h=1.5, D=1.0, C0=0.3)


def _rational_count_tails(n, theta, h):
    """Every admissible P{|B - n theta| > h n theta}, B ~ Binomial(n, theta), in exact rationals.

    The strict tail of the float inputs, plus any subset of the atoms within
    1e-9 of the boundary: there the float n theta (1 -+ h) may round across
    the integer, which decides one whole atom.
    """
    t, hh = Fraction(theta), Fraction(h)
    mu, r = n * t, hh * n * t
    term, strict, ties = (1 - t) ** n, Fraction(0), []
    for k in range(n + 1):
        gap = abs(k - mu) - r
        if abs(gap) < Fraction(1, 10**9):
            ties.append(term)
        elif gap > 0:
            strict += term
        term = term * (n - k) / (k + 1) * t / (1 - t)
    return [strict + sum(c) for m in range(len(ties) + 1) for c in itertools.combinations(ties, m)]


def test_rho_exact_iid_matches_rational_oracle():
    grid = itertools.product((1, 17, 100, 256), (0.05, 0.3, 0.5, 0.9), (0.13, 0.5, 0.9))
    for n, theta, h in grid:
        got = Fraction(bp.rho_exact_iid(n, theta, h))
        tails = _rational_count_tails(n, theta, h)
        assert any(abs(got - tail) <= tail / 10**13 for tail in tails), (n, theta, h)


def test_rho_exact_iid_resolves_tails_far_below_one_ulp_of_one():
    # 1 - P{inside} rounds to 0 here; the table sums the outside masses
    tail = bp.rho_exact_iid(256, 0.5, 0.9)
    assert tail == pytest.approx(2.3116539602127787e-57, rel=1e-13, abs=0)


def test_rho_exact_counts_sums_the_table_masses_outside_the_band():
    rng = seeded(66)
    for _ in range(20):
        thetas = rng.uniform(0.05, 0.95, size=int(rng.integers(5, 40)))
        h = float(rng.uniform(0.1, 0.9))
        law = weighted_sum_law([1] * len(thetas), thetas)
        mu = float(np.sum(thetas))
        k = law.offset + np.arange(len(law.dense))
        expected = float(law.dense[np.abs(k - mu) > h * mu].sum())
        assert bp.rho_exact_counts(thetas, h).hex() == expected.hex()


def _strict_rational_tail(n, theta, h, mu=None):
    """P{|B - mu| > h mu}, B ~ Binomial(n, theta), in exact rationals; mu defaults to n theta."""
    t, hh = Fraction(theta), Fraction(h)
    mu = n * t if mu is None else mu
    term, tail = (1 - t) ** n, Fraction(0)
    for k in range(n + 1):
        if abs(k - mu) > hh * mu:
            tail += term
        term = term * (n - k) / (k + 1) * t / (1 - t)
    return tail


def test_rho_exact_iid_keeps_boundary_atoms_inside_the_band():
    # at (100, 0.3, 0.5) the float n theta is 30.000000000000004, which put k = 15 outside
    assert bp.rho_exact_iid(100, 0.3, 0.5) == pytest.approx(1.243087032785575e-3, rel=1e-13)
    grid = itertools.product((10, 20, 50, 100, 120), (0.1, 0.2, 0.3, 0.6, 0.7, 0.9),
                             (0.1, 0.2, 0.25, 0.5, 0.75))
    near = 0
    for n, theta, h in grid:
        mu = n * Fraction(theta)
        edges = (mu * (1 - Fraction(h)), mu * (1 + Fraction(h)))
        if min(abs(e - round(e)) for e in edges) >= Fraction(1, 10**9):
            continue
        near += 1
        tail = _strict_rational_tail(n, theta, h)
        assert abs(Fraction(bp.rho_exact_iid(n, theta, h)) - tail) <= tail / 10**13, \
            (n, theta, h)
    assert near >= 50


def test_rho_exact_counts_decides_the_band_of_its_float_mean_exactly():
    # a band decided in floats put one edge atom on the wrong side at the first three points
    for n, theta, h in ((20, 0.2, 0.75), (50, 0.9, 0.6), (60, 0.6, 0.75), (100, 0.3, 0.5)):
        thetas = [theta] * n
        tail = _strict_rational_tail(n, theta, h, mu=Fraction(float(np.sum(thetas))))
        assert abs(Fraction(bp.rho_exact_counts(thetas, h)) - tail) <= tail / 10**12, \
            (n, theta, h)


def _old_mixture_law(dec, n):
    # the per-count np.convolve loop that suites._mixture_law replaced
    theta, w = dec.theta, dec.law.dense
    v1, v0 = w[1::2] / theta, w[0::2] / (1 - theta)
    counts = sum_law(bernoulli(theta), n).dense
    coin = bernoulli(0.5)
    total = 0.0
    for count in range(n + 1):
        law = np.ones(1)
        for v in [v1] * count + [v0] * (n - count):
            law = np.convolve(law, v)
        if count:
            law = np.convolve(law, sum_law(coin, count).dense)
        total = total + counts[count] * law
    return LatticePmf._from_window(dec.source.v0 * n, dec.source.D, n * dec.source.offset, total)


def test_mixture_law_equals_the_old_per_count_loop_byte_for_byte():
    # the laws and sizes of identities_suite(cases=50, seed=2024), drawn in the same order
    rng = seeded(2024)
    for _ in range(50):
        dec = bp.decompose(random_adjacent_pmf(rng))
        n = int(rng.integers(2, 7))
        got, want = suites._mixture_law(dec, n), _old_mixture_law(dec, n)
        assert (got.v0, got.D, got.offset) == (want.v0, want.D, want.offset)
        assert got.dense.tobytes() == want.dense.tobytes()


def test_count_tails_reject_a_non_finite_or_negative_band():
    for h in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(PreconditionError, match="band width h"):
            bp.rho_exact_iid(10, 0.3, h)
        with pytest.raises(PreconditionError, match="band width h"):
            bp.rho_exact_counts([0.3, 0.2, 0.5], h)
    # h >= 1 keeps a well-defined one-sided tail: only K > (1 + h) mu is left
    assert bp.rho_exact_iid(10, 0.3, 1.5) == float(sum_law(bernoulli(0.3), 10).dense[8:].sum())
    # h = 0 leaves out only K = mu, here 5 exactly
    assert bp.rho_exact_iid(10, 0.5, 0.0) == pytest.approx(1.0 - 252 / 1024, rel=1e-15)


@pytest.mark.parametrize("field", ["var_sn", "theta_n"])
def test_effective_input_rejects_a_nan_variance_or_theta(field):
    kw = dict(n=10, var_sn=1.0, mean_sn=0.0, theta_n=1.0, h_n=0.1, rho_n=0.1, h=0.5, D=1.0,
              C0=1.0)
    bp.EffectiveRateInput(**kw)
    with pytest.raises(PreconditionError):
        bp.EffectiveRateInput(**{**kw, field: math.nan})
