import math

import numpy as np
import pytest

from llt_lab import approx as ax
from llt_lab.errors import DegenerateLawError, PreconditionError
from llt_lab.exact import convolve_tables, sum_law
from llt_lab.gen import mixing_span1_pmf, random_adjacent_pmf, random_pmf, seeded
from llt_lab.lattice import (
    SQRT_2PI,
    LatticePmf,
    bernoulli,
    centered_coin,
    lazy_walk,
    moments,
    point_mass,
    uniform_range,
)


# -- gaussian local term -------------------------------------------------------------


def test_gaussian_term_peak_and_symmetry():
    assert ax.gaussian_local_term(3.0, 3.0, 2.0, 1.0) == pytest.approx(
        1.0 / math.sqrt(4 * math.pi), abs=1e-15)
    a = ax.gaussian_local_term(5.0 + 1.3, 5.0, 2.0, 1.0)
    b = ax.gaussian_local_term(5.0 - 1.3, 5.0, 2.0, 1.0)
    assert a == pytest.approx(b, abs=1e-15)


def test_gaussian_term_bernoulli_n10():
    # 1/(0.5 sqrt(20 pi)): D=1, M=5, B2 = 10/4
    val = ax.gaussian_local_term(5.0, 5.0, 2.5, 1.0)
    assert val == pytest.approx(1.0 / (0.5 * math.sqrt(20 * math.pi)), abs=1e-12)
    assert val == pytest.approx(0.252313, abs=5e-7)


def test_gaussian_term_rejects_zero_variance():
    with pytest.raises(DegenerateLawError):
        ax.gaussian_local_term(0.0, 0.0, 0.0, 1.0)


def test_gaussian_and_edgeworth_terms_vectorise_over_the_point():
    p = bernoulli(0.3)
    mom = moments(p)
    n = 40
    xs = np.arange(-3.0, 30.5, 0.5)
    curve = ax.gaussian_local_term(xs, n * mom.mu, n * mom.sigma2, 1.0)
    expansion = ax.edgeworth3_term(p, n, xs)
    for x, g, e in zip(xs.tolist(), curve, expansion):
        g1 = ax.gaussian_local_term(x, n * mom.mu, n * mom.sigma2, 1.0)
        e1 = ax.edgeworth3_term(p, n, x)
        assert type(g1) is float and type(e1) is float
        assert g1 == g and e1 == e


# -- the written-out curves the shared local curve replaced ---------------------------


def _reference_delta(law):
    B = math.sqrt(law.meta.sigma2)
    k = np.arange(law.offset - 1, law.offset + len(law.dense) + 1)
    x = law.points(k)
    probs = np.zeros(len(k))
    probs[1:-1] = law.dense
    gauss = (law.D / SQRT_2PI) * np.exp(-((x - law.meta.mu) ** 2) / (2.0 * law.meta.sigma2))
    dev = np.abs(B * probs - gauss)
    i = int(np.argmax(dev))
    return float(dev[i]), float(x[i])


def _reference_edgeworth_sup(p, n, with_correction):
    law = sum_law(p, n)
    mom = moments(p)
    sigma = math.sqrt(mom.sigma2)
    x = law.points(law.offset + np.arange(len(law.dense)))
    y = (x - n * mom.mu) / (sigma * math.sqrt(n))
    phi = np.exp(-0.5 * y * y) / SQRT_2PI
    corr = 1.0 + (y ** 3 - 3.0 * y) * mom.mu3 / (6.0 * sigma ** 3 * math.sqrt(n)) \
        if with_correction else 1.0
    return float(np.max(np.abs(law.dense - (p.D / (sigma * math.sqrt(n))) * phi * corr)))


def _reference_variation(law):
    A, B = law.meta.mu, math.sqrt(law.meta.sigma2)
    pad = int(math.ceil(40.0 * B / law.D)) + 2
    k = np.arange(law.offset - pad, law.offset + len(law.dense) + pad)
    x = law.points(k)
    probs = np.zeros(len(k))
    probs[pad:pad + len(law.dense)] = law.dense
    gauss = (law.D / (B * SQRT_2PI)) * np.exp(-((x - A) ** 2) / (2.0 * B * B))
    return float(np.abs(probs - gauss).sum())


def _reference_fair_coin_constant():
    worst, n = 0.0, 16
    while n <= 4096:
        law = sum_law(bernoulli(0.5), n)
        k = law.offset + np.arange(len(law.dense))
        gauss = math.sqrt(2.0 / (math.pi * n)) * np.exp(-((2 * k - n) ** 2) / (2.0 * n))
        worst = max(worst, float(np.max(np.abs(law.dense - gauss))) * n ** 1.5)
        n *= 2
    return worst


def test_local_functionals_match_the_written_out_curves():
    rng = seeded(808)
    laws = [random_adjacent_pmf(rng) for _ in range(30)] + [mixing_span1_pmf(rng) for _ in range(30)]
    laws += [centered_coin(), lazy_walk(), uniform_range(-2, 3)]
    for p in laws:
        for n in (4, 32, 256, 1024):
            law = sum_law(p, n)
            assert ax.delta_from_table(law) == _reference_delta(law)
            assert abs(ax.variation_distance(law) - _reference_variation(law)) <= 1e-15
            for corr in (True, False):
                assert abs(ax.edgeworth3_sup_error(p, n, with_correction=corr)
                           - _reference_edgeworth_sup(p, n, corr)) <= 1e-15
    assert ax.measure_lltber_constant() == _reference_fair_coin_constant()


# -- scaled sup error ----------------------------------------------------------------


def test_delta_n_bernoulli_scaling_bounded():
    p = bernoulli(0.5)
    worst = 0.0
    n = 16
    while n <= 2048:
        scaled = n**1.5 * (ax.delta_n(p, n) / (0.5 * math.sqrt(n)))
        worst = max(worst, scaled)
        n *= 2
    assert worst < 0.5  # measured ~0.2; recorded headroom


def test_delta_n_halving_decreases():
    p = bernoulli(0.5)
    n = 8
    while n <= 512:
        assert ax.delta_n(p, 2 * n) < ax.delta_n(p, n)
        n *= 2


def test_delta_report_location_near_mode():
    p = uniform_range(0, 4)  # symmetric
    rep = ax.delta_n_report(p, 32)
    loc = dict(rep.flags)["argmax"]
    mean = 32 * 2.0
    assert abs(loc - mean) <= 3.0


def test_delta_n_degenerate():
    with pytest.raises(DegenerateLawError):
        ax.delta_n(point_mass(2.0), 4)


def test_lltber_constant_measured_range():
    c = ax.measure_lltber_constant(n_max=4096)
    assert 0.1 < c < 0.5


# -- classical binomial bound --------------------------------------------------------


def test_stirling_sandwich():
    for n in range(2, 51):
        eps = ax.stirling_epsilon(n)
        assert 1.0 / (12 * n + 1) < eps < 1.0 / (12 * n)


def test_demoivre_worked_example():
    r = ax.demoivre_bound(100, 0.5, 50, 0.5)
    assert r.bound == pytest.approx(0.01, abs=1e-15)
    assert abs(r.E) == pytest.approx(0.0025, abs=1e-4)
    assert r.exact == pytest.approx(0.0795892, abs=1e-7)
    assert r.gaussian == pytest.approx(0.0797885, abs=1e-7)
    assert abs(r.E) <= r.bound


def test_demoivre_central_bound_is_pure_stirling_term():
    r = ax.demoivre_bound(64, 0.25, 16, 0.5)
    assert r.x == 0.0
    assert r.bound == pytest.approx(1.0 / (4 * 64 * 0.25 * 0.5), abs=1e-15)


def test_demoivre_grid_no_violations():
    rng = seeded(314)
    checked = 0
    while checked < 100:
        n = int(rng.integers(20, 400))
        p = float(rng.uniform(0.15, 0.85))
        gamma = float(rng.uniform(0.2, 0.8))
        q = 1 - p
        if n < max(p / q, q / p):
            continue
        width = gamma * n * p * q
        k = int(rng.integers(max(0, math.ceil(n * p - width)),
                             min(n, math.floor(n * p + width)) + 1))
        r = ax.demoivre_bound(n, p, k, gamma)
        assert abs(r.E) <= r.bound
        checked += 1


def test_demoivre_precondition_violations_named():
    with pytest.raises(PreconditionError, match="gamma"):
        ax.demoivre_bound(100, 0.5, 50, 1.5)
    with pytest.raises(PreconditionError, match="k - np"):
        ax.demoivre_bound(100, 0.5, 95, 0.5)


# -- third-order expansion -----------------------------------------------------------


def test_edgeworth_symmetric_reduces_to_gaussian():
    p = uniform_range(0, 2)
    mom = moments(p)
    n, N = 16, 18
    gauss = ax.gaussian_local_term(N, n * mom.mu, n * mom.sigma2, 1.0)
    assert ax.edgeworth3_term(p, n, N) == pytest.approx(gauss, abs=1e-15)


def test_edgeworth_correction_vanishes_at_root():
    p = bernoulli(0.3)
    mom = moments(p)
    n = 25
    for sign in (+1, -1):
        y = sign * math.sqrt(3.0)
        N = n * mom.mu + y * math.sqrt(mom.sigma2 * n)
        gauss = ax.gaussian_local_term(N, n * mom.mu, n * mom.sigma2, 1.0)
        assert ax.edgeworth3_term(p, n, N) == pytest.approx(gauss, abs=1e-15)


def test_edgeworth_at_center_equals_phi_scale():
    p = bernoulli(0.3)
    mom = moments(p)
    n = 49
    N = n * mom.mu  # y = 0: odd polynomial vanishes
    expected = 1.0 / math.sqrt(2 * math.pi * mom.sigma2 * n)
    assert ax.edgeworth3_term(p, n, N) == pytest.approx(expected, abs=1e-15)


def test_edgeworth_improves_rate():
    # scaled (B_n-normalised) sup errors: O(1/n) with the correction,
    # order exactly 1/sqrt(n) without it
    p = bernoulli(0.3)
    sigma = math.sqrt(moments(p).sigma2)
    with_corr = []
    without = []
    n = 64
    while n <= 1024:
        bn = sigma * math.sqrt(n)
        with_corr.append(n * bn * ax.edgeworth3_sup_error(p, n, with_correction=True))
        without.append(math.sqrt(n) * bn * ax.edgeworth3_sup_error(p, n, with_correction=False))
        n *= 2
    assert max(with_corr) < 1.0          # n-scaled error stays bounded
    assert min(without) > 0.05           # sqrt(n)-scaled error stays away from 0


def test_edgeworth_needs_third_moment():
    from llt_lab.lattice import power_tail

    with pytest.raises(PreconditionError):
        ax.edgeworth3_term(power_tail(2.5, max_index=100000), 4, 10.0)


# -- summed variation distance -------------------------------------------------------


def test_variation_distance_decreases():
    p = bernoulli(0.5)
    vals = [ax.variation_distance(sum_law(p, n)) for n in (16, 64, 256, 1024)]
    assert vals[0] > vals[1] > vals[2] > vals[3]


def test_variation_distance_self_zero():
    law = sum_law(bernoulli(0.5), 12)
    supp = law.support
    probs = law.probs[supp - law.offset]

    # reference curve equal to the law itself: rebuild the summed deviation
    # against its own masses via a custom sweep
    gap = sum(abs(law.prob(int(k)) - law.prob(int(k))) for k in supp)
    assert gap == 0.0


def test_variation_distance_two_atoms_uncentered():
    # two-atom sum with reference centered at 0: oracle by direct evaluation
    law = sum_law(bernoulli(0.5), 1)
    B = 0.5
    norm = 1.0 / (B * math.sqrt(2 * math.pi))
    oracle = 0.0
    for m in range(-40, 42):
        mass = 0.5 if m in (0, 1) else 0.0
        oracle += abs(mass - norm * math.exp(-(m**2) / (2 * B * B)))
    got = ax.variation_distance(law, A=0.0, B=0.5)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got > 0.3


# -- smoothness criterion ------------------------------------------------------------


def test_mukhin_criterion_tends_to_zero():
    p = bernoulli(0.5)
    vals = [ax.mukhin_criterion(p, n) for n in (64, 256, 1024)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[-1] < 0.05


def test_mukhin_criterion_sublattice_stays_large():
    span2 = LatticePmf(0.0, 1.0, {0: 0.5, 2: 0.5})
    vals = [ax.mukhin_criterion(span2, n) for n in (64, 256, 1024)]
    assert min(vals) > 0.3  # alternating zeros force a deviation of local scale


def test_mukhin_criterion_unit_window_is_adjacent_difference():
    p = bernoulli(0.3)
    n = 32
    law = sum_law(p, n)
    probs = np.concatenate([[0.0], law.probs, [0.0]])
    oracle = math.sqrt(law.meta.sigma2) * np.max(np.abs(np.diff(probs)))
    assert ax.mukhin_criterion(p, n, v=1) == pytest.approx(oracle, abs=1e-14)


# -- quadrature lower bound ----------------------------------------------------------


def test_quadrature_lower_bound_holds_on_grid():
    p = bernoulli(0.5)
    for n in (4, 16, 64):
        for k in (1, 4, 8):
            rec = ax.gamkrelidze_lower_check(p, n, k)
            assert rec.lhs <= rec.rhs


def test_quadrature_bound_large_k_limit():
    p = bernoulli(0.5)
    n = 64
    bn = math.sqrt(n * 0.25)
    rec = ax.gamkrelidze_lower_check(p, n, 4000)
    lam = rec.lambda_n
    limit = 1.0 / (2 * math.sqrt(math.pi) * bn) + 2 * lam / bn
    assert rec.rhs == pytest.approx(limit, rel=1e-6)


# -- residue diagnostics -------------------------------------------------------------


def test_aud_bernoulli_residues():
    diag = ax.aud_diagnostics(bernoulli(0.5), 20, 2)
    assert diag.residues[0] == pytest.approx(0.5, abs=1e-6)
    assert diag.residues[1] == pytest.approx(0.5, abs=1e-6)
    # first product factor |E e^{i pi X}| = |cos(pi/2)| = 0
    assert diag.dw_partial_products[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert np.all(diag.dw_partial_products[0] < 1e-14)


def test_aud_span2_parity():
    span2 = LatticePmf(0.0, 1.0, {0: 0.5, 2: 0.5})
    diag = ax.aud_diagnostics(span2, 16, 2)
    assert diag.residues[0] == pytest.approx(1.0, abs=1e-12)
    # the product criterion correctly refuses to vanish
    assert diag.dw_partial_products[0, -1] == pytest.approx(1.0, abs=1e-12)


def test_aud_rozanov_products_iid():
    p = bernoulli(0.25)
    diag = ax.aud_diagnostics(p, 10, 3)
    assert diag.rozanov_partial_products[-1] == pytest.approx(0.75**10, rel=1e-12)


def test_aud_sequence_input():
    seq = [bernoulli(0.5), uniform_range(0, 2), bernoulli(0.25)]
    diag = ax.aud_diagnostics(seq, 3, 2)
    assert diag.residues.sum() == pytest.approx(1.0, abs=1e-12)


# -- third-moment rate property (dyadic boundedness) ----------------------------------


def test_density_normalized_error_rate_under_third_moment():
    p = bernoulli(0.3)  # asymmetric, all moments finite
    mom = moments(p)
    sigma = math.sqrt(mom.sigma2)
    worst = 0.0
    n = 32
    while n <= 2048:
        err = ax.delta_n(p, n) / sigma  # density-normalized sup error
        worst = max(worst, n**0.25 * err)
        n *= 2
    assert worst < 1.0  # measured ~0.1; boundedness of the n^{1/4}-scaled error


# -- azlarov-type uniform family -----------------------------------------------------


def test_uniform_family_scaled_error_bounded():
    rng = seeded(55)
    worst = 0.0
    for _ in range(10):
        sizes = rng.integers(1, 7, size=12)
        tables = [sum_law(uniform_range(-int(N), int(N)), 1) for N in sizes]
        law = tables[0]
        for t in tables[1:]:
            law = convolve_tables(law, t)
        bn = math.sqrt(law.meta.sigma2)
        lam = bn / max(sizes)
        if lam < 2:
            continue
        d, _ = ax.delta_from_table(law)
        worst = max(worst, d * lam)
    assert worst < 3.0  # measured ~1.1; recorded headroom


def test_shift_stability_ratio():
    p = bernoulli(0.5)
    ratios = []
    for n in (64, 256, 1024, 4096):
        law = sum_law(p, n)
        shift = int(round(n**0.25))
        ratios.append(law.prob(n // 2 + shift) / law.prob(n // 2))
    assert abs(ratios[-1] - 1.0) < 0.05
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)


def test_aud_residues_fold_the_origin():
    # unit mass at the value 1: the residue mod 2 is 1, not index 0
    diag = ax.aud_diagnostics(LatticePmf(1.0, 1.0, {0: 1.0}), 1, 2)
    assert list(diag.residues) == [0.0, 1.0]


def _reference_residue_fold(seq, h):
    """Residue law of the sum and Rozanov products, each summand folded over its whole window."""
    res = np.zeros(h)
    res[0] = 1.0
    roz, roz_acc = [], 1.0
    for pj in seq:
        off, w = pj.integer_view()
        step = np.zeros(h)
        np.add.at(step, np.arange(off, off + len(w)) % h, w)
        new = np.zeros(h)
        for r in range(h):
            if step[r]:
                new += step[r] * np.roll(res, r)
        res = new
        roz_acc *= float(step.max())
        roz.append(roz_acc)
    return res, np.array(roz)


def test_aud_residues_equal_the_written_out_fold_bit_for_bit():
    rng = seeded(56)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        seq = [random_pmf(rng, span=int(rng.integers(1, 4))) for _ in range(n)]
        seq = [LatticePmf(float(rng.integers(-5, 6)), 1.0, p.weights) for p in seq]
        for h in (2, 3, 5, 8):
            diag = ax.aud_diagnostics(seq, n, h)
            res, roz = _reference_residue_fold(seq, h)
            assert diag.residues.tobytes() == res.tobytes()
            assert diag.rozanov_partial_products.tobytes() == roz.tobytes()


def test_edgeworth_sup_error_checks_the_third_moment_before_the_sum_law(monkeypatch):
    from llt_lab.lattice import power_tail

    def no_sum_law(*args, **kwargs):
        raise AssertionError("sum law built before the third moment was checked")

    monkeypatch.setattr(ax, "sum_law", no_sum_law)
    with pytest.raises(PreconditionError, match="third central moment"):
        ax.edgeworth3_sup_error(power_tail(2.5, max_index=2000), 64)


@pytest.mark.parametrize("B", [math.inf, math.nan, 0.0, -1.0])
def test_variation_distance_rejects_a_scale_that_is_not_finite_and_positive(B):
    with pytest.raises(PreconditionError, match="scale B must be finite and positive"):
        ax.variation_distance(sum_law(bernoulli(0.5), 16), B=B)
