import itertools
import math

import numpy as np
import pytest

from llt_lab import poisson as ps
from llt_lab.errors import PreconditionError
from llt_lab.gen import seeded


def binom2_pmf(p):
    q = 1 - p
    return np.array([q * q, 2 * p * q, p * p])


def poisson_ref(lam, K):
    # independent oracle: direct series terms
    return np.array([math.exp(-lam) * lam**k / math.factorial(k) for k in range(K + 1)])


def test_tv_identical_and_disjoint():
    a = np.array([0.2, 0.8])
    assert ps.tv_distance(a, a) == 0.0
    assert ps.tv_distance(np.array([1.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_tv_worked_binomial_example():
    # enumeration oracle with explicit series terms
    a = binom2_pmf(0.1)
    b = poisson_ref(0.2, 12)
    n = max(len(a), len(b))
    gap = np.abs(np.pad(a, (0, n - len(a))) - np.pad(b, (0, n - len(b))))
    oracle = 0.5 * gap.sum()
    got = ps.tv_distance(binom2_pmf(0.1), ps.poisson_pmf(0.2))
    assert got == pytest.approx(oracle, abs=1e-10)
    assert got == pytest.approx(0.016254, abs=5e-7)


def test_d0_worked_binomial_example():
    a = binom2_pmf(0.1)
    b = poisson_ref(0.2, 12)
    # pointwise gaps: the max sits at k = 1
    assert abs(a[1] - b[1]) == pytest.approx(0.0162538, abs=5e-8)
    got = ps.d0_distance(binom2_pmf(0.1), ps.poisson_pmf(0.2))
    assert got == pytest.approx(abs(a[1] - b[1]), abs=1e-12)


def test_d0_below_tv_and_below_twice():
    rng = seeded(70)
    for _ in range(30):
        ka, kb = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        a = rng.dirichlet(np.ones(ka))
        b = rng.dirichlet(np.ones(kb))
        assert ps.d0_distance(a, b) <= ps.tv_distance(a, b) + 1e-12


def test_tv_triangle_inequality():
    rng = seeded(71)
    for _ in range(30):
        laws = [rng.dirichlet(np.ones(int(rng.integers(2, 8)))) for _ in range(3)]
        ab = ps.tv_distance(laws[0], laws[1])
        bc = ps.tv_distance(laws[1], laws[2])
        ac = ps.tv_distance(laws[0], laws[2])
        assert ac <= ab + bc + 1e-12


def test_set_sup_equals_half_sum():
    rng = seeded(72)
    for _ in range(10):
        a = rng.dirichlet(np.ones(5))
        b = rng.dirichlet(np.ones(7))
        assert ps.set_sup_distance(a, b, window=8) == pytest.approx(
            ps.tv_distance(a, b), abs=1e-12)


def _set_sup_by_enumeration(law_a, law_b, window):
    # reference: enumerate every subset of the window plus the rest point
    a, b = ps._aligned(law_a, law_b)
    if len(a) < window:
        a = np.pad(a, (0, window - len(a)))
        b = np.pad(b, (0, window - len(b)))
    head_a = list(a[:window]) + [max(0.0, 1.0 - a[:window].sum())]
    head_b = list(b[:window]) + [max(0.0, 1.0 - b[:window].sum())]
    worst = 0.0
    for mask in range(1 << (window + 1)):
        pa = sum(head_a[i] for i in range(window + 1) if mask >> i & 1)
        pb = sum(head_b[i] for i in range(window + 1) if mask >> i & 1)
        worst = max(worst, abs(pa - pb))
    return worst


def test_set_sup_closed_form_matches_enumeration():
    rng = seeded(74)
    for _ in range(200):
        window = int(rng.integers(0, 11))
        a = rng.dirichlet(np.ones(int(rng.integers(1, 14))))
        b = rng.dirichlet(np.ones(int(rng.integers(1, 14))))
        assert ps.set_sup_distance(a, b, window) == pytest.approx(
            _set_sup_by_enumeration(a, b, window), abs=1e-15)


def test_set_sup_wide_window():
    # 2^41 subsets would be out of reach for enumeration
    rng = seeded(75)
    a, b = rng.dirichlet(np.ones(30)), rng.dirichlet(np.ones(35))
    assert ps.set_sup_distance(a, b, window=40) == pytest.approx(ps.tv_distance(a, b), abs=1e-15)
    a, b = rng.dirichlet(np.ones(60)), rng.dirichlet(np.ones(50))
    got = ps.set_sup_distance(a, b, window=40)
    b = np.pad(b, (0, 10))
    assert np.abs(a[:40] - b[:40]).max() <= got <= ps.tv_distance(a, b) + 1e-15
    with pytest.raises(PreconditionError):
        ps.set_sup_distance(a, b, window=-1)


def test_lecam_bound_forms():
    assert ps.lecam_bound([0.1, 0.1]) == pytest.approx(0.04)
    lam, n = 2.0, 50
    assert ps.lecam_bound([lam / n] * n) == pytest.approx(2 * lam**2 / n)


def test_lecam_bound_dominates_exact_full_sum():
    assert ps.lecam_full_sum([0.1, 0.1]) == pytest.approx(2 * 0.016254, abs=1e-5)
    assert ps.lecam_full_sum([0.1, 0.1]) <= 0.04
    assert ps.lecam_full_sum([0.5]) <= ps.lecam_bound([0.5])
    rng = seeded(73)
    for _ in range(50):
        probs = rng.uniform(0.01, 0.6, size=int(rng.integers(1, 15)))
        assert ps.lecam_full_sum(probs) <= ps.lecam_bound(probs) + 1e-12


def test_poisson_pmf_raises_when_tail_is_open_at_cap():
    for lam in (300.0, 800.0):  # tail 1 - 5.1e-10 and all-zero masses before the check
        with pytest.raises(PreconditionError, match="tail"):
            ps.poisson_pmf(lam)
    with pytest.raises(PreconditionError, match="tail"):
        ps.lecam_full_sum([0.4] * 800)  # returned 1.0000000000004 before the check
    assert 1.0 - ps.poisson_pmf(100.0).sum() <= ps.POISSON_TAIL


def test_cdf_sup_form_also_bounded():
    rng = seeded(74)
    for _ in range(20):
        probs = rng.uniform(0.01, 0.6, size=int(rng.integers(1, 12)))
        law = ps.poisson_binomial_law(probs)
        D = ps.cdf_sup_distance(law, ps.poisson_pmf(float(np.sum(probs))))
        assert D <= ps.lecam_bound(probs) + 1e-12


def test_coupling_rows_p01():
    cp = ps.coupling([0.1])
    both_one, x_only, both_zero, tail = cp.rows[0]
    assert both_one == pytest.approx(0.1 * math.exp(-0.1), abs=1e-12)
    assert x_only == pytest.approx(0.1 * (1 - math.exp(-0.1)), abs=1e-12)
    assert both_zero == pytest.approx(math.exp(-0.1) - 0.1 * (1 - math.exp(-0.1)), abs=1e-12)
    assert float(np.sum(tail)) == pytest.approx(1 - math.exp(-0.1) * 1.1, abs=1e-10)
    assert cp.row_sum(0) == pytest.approx(1.0, abs=1e-12)


def test_coupling_marginals_exact():
    cp = ps.coupling([0.05, 0.3, 0.6, 0.79])
    for i, p in enumerate(cp.ps):
        both_one, x_only, both_zero, tail = cp.rows[i]
        assert both_one + x_only == pytest.approx(p, abs=1e-12)        # X margin
        assert x_only + both_zero == pytest.approx(math.exp(-p), abs=1e-12)  # Y = 0
        assert both_one == pytest.approx(p * math.exp(-p), abs=1e-12)        # Y = 1
        pois = ps.poisson_pmf(p)
        assert np.allclose(tail[: len(pois) - 2], pois[2:], atol=1e-12)


def test_coupling_small_p_agreement_probability():
    for p in (0.01, 0.001):
        cp = ps.coupling([p])
        both_one, _, both_zero, _ = cp.rows[0]
        assert both_one + both_zero > 1 - 3 * p


def test_coupling_infeasible_row_named():
    with pytest.raises(PreconditionError, match="row 1"):
        ps.coupling([0.1, 0.9])
    # oracle: P(X=Y=0) at 0.9 is negative
    assert math.exp(-0.9) - 0.9 * (1 - math.exp(-0.9)) < 0


def test_franken_bound_bernoulli_form():
    laws = [np.array([1 - q, q]) for q in (0.1, 0.25, 0.4)]
    assert ps.franken_bound(laws) == pytest.approx(2 / math.pi * (0.1 + 0.25 + 0.4), abs=1e-13)


def test_franken_single_bernoulli_dominates():
    law = np.array([0.8, 0.2])
    bound = ps.franken_bound([law])
    assert bound == pytest.approx(0.2 * 2 / math.pi, abs=1e-13)
    assert bound == pytest.approx(0.1273, abs=5e-5)
    d0 = ps.d0_distance(law, ps.poisson_pmf(0.2))
    assert d0 <= bound


def test_franken_point_masses_zero():
    laws = [np.array([1.0]), np.array([1.0])]
    assert ps.franken_bound(laws) == 0.0
    total = ps.convolve_laws(laws)
    assert ps.d0_distance(total, ps.poisson_pmf(0.0)) == pytest.approx(0.0, abs=1e-12)


def test_franken_random_integer_laws():
    rng = seeded(75)
    for _ in range(50):
        laws = [rng.dirichlet(np.ones(int(rng.integers(2, 5)))) for _ in
                range(int(rng.integers(1, 6)))]
        total = ps.convolve_laws(laws)
        lam = sum(float(np.dot(l, np.arange(len(l)))) for l in laws)
        d0 = ps.d0_distance(total, ps.poisson_pmf(lam, k_max=len(total) - 1))
        assert d0 <= ps.franken_bound(laws) + 1e-12


def test_gap_table_csv(tmp_path):
    out = tmp_path / "gap.csv"
    ps.gap_table_csv(out, binom2_pmf(0.1), 0.2)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,exactMass,poissonMass,absGap"
    assert len(lines) > 3


def test_tv_lattice_law_with_integral_origin():
    from llt_lab.lattice import LatticePmf

    assert ps.tv_distance(LatticePmf(1.0, 1.0, {0: 1.0}), np.array([0.0, 1.0])) == 0.0


def test_poisson_pmf_rejects_a_non_finite_or_negative_mean():
    for lam in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(PreconditionError, match="finite and nonnegative"):
            ps.poisson_pmf(lam)
    assert ps.poisson_pmf(0.0).tolist() == [1.0]


def _old_convolve_laws(laws):
    # the sequential np.convolve loop that convolve_laws replaced
    out = np.array([1.0])
    for law in laws:
        out = np.convolve(out, ps._as_array(law))
    return out


def test_convolve_laws_equals_the_old_loop_byte_for_byte():
    rng = seeded(121)
    cases = [[]] + [[rng.dirichlet(np.ones(int(rng.integers(2, 9))))
                     for _ in range(int(rng.integers(1, 41)))] for _ in range(200)]
    for laws in cases:
        got = ps.convolve_laws(laws)
        assert got.tobytes() == _old_convolve_laws(laws).tobytes(), len(laws)
    assert ps.convolve_laws([]).tolist() == [1.0]


def test_convolve_laws_of_one_law_is_a_fresh_equal_array():
    law = np.array([0.25, 0.5, 0.25])
    got = ps.convolve_laws([law])
    assert got is not law and not np.shares_memory(got, law)
    assert got.tobytes() == _old_convolve_laws([law]).tobytes() == law.tobytes()


def test_a_law_far_from_zero_fails_the_budget_before_it_is_padded(monkeypatch):
    from llt_lab.errors import ResourceLimitError
    from llt_lab.lattice import point_mass

    monkeypatch.setattr(ps, "MAX_WINDOW", 1000)
    assert ps.tv_distance(point_mass(999), [1.0]) == 1.0  # 1,000 entries: inside the budget
    for value in (1000, 2e6):
        with pytest.raises(ResourceLimitError):
            ps.tv_distance(point_mass(value), [1.0])


def test_non_finite_masses_are_rejected():
    for bad in ([math.nan, 1.0], [math.inf, 0.0], [0.5, -math.inf]):
        with pytest.raises(PreconditionError, match="finite nonnegative"):
            ps.tv_distance(bad, [1.0])
        with pytest.raises(PreconditionError, match="finite nonnegative"):
            ps.d0_distance([1.0], bad)
        with pytest.raises(PreconditionError, match="finite nonnegative"):
            ps.franken_bound([[0.5, 0.5], bad])
    # a rounding-size negative mass is still let through
    assert ps.tv_distance([1.0, -1e-16], [1.0]) == pytest.approx(0.5e-16)


def test_convolve_laws_checks_each_product_against_the_budget(monkeypatch):
    from llt_lab.errors import ResourceLimitError

    laws = [np.full(40, 1 / 40), np.full(31, 1 / 31), np.full(30, 1 / 30)]  # 40, 70, 99 entries
    whole = ps.convolve_laws(laws)
    monkeypatch.setattr(ps, "MAX_WINDOW", 99)
    assert ps.convolve_laws(laws).tobytes() == whole.tobytes()
    for more in ([np.full(2, 0.5)], [np.full(100, 0.01)]):
        with pytest.raises(ResourceLimitError):
            ps.convolve_laws(laws + more)
    with pytest.raises(ResourceLimitError):  # a raw array past the budget on its own
        ps.convolve_laws([np.full(100, 0.01)])
