import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from llt_lab import characteristics as ch
from llt_lab.errors import PreconditionError
from llt_lab.exact import sum_law
from llt_lab.gen import mixing_span1_pmf, random_adjacent_pmf, random_pmf, seeded
from llt_lab.lattice import (
    LatticePmf,
    bernoulli,
    char_fn,
    moments,
    point_mass,
    uniform_range,
)


def test_delta_values():
    assert ch.delta_char(point_mass(3.0)) == 2.0
    assert ch.delta_char(bernoulli(0.5)) == pytest.approx(1.0, abs=1e-15)
    for N in (3, 9):
        assert ch.delta_char(uniform_range(0, N)) == pytest.approx(2 / (N + 1), abs=1e-14)


def test_theta_values():
    assert ch.theta_char(point_mass(2.0)) == 0.0
    assert ch.theta_char(bernoulli(0.5)) == pytest.approx(0.5, abs=1e-15)
    for N in (4, 7):
        assert ch.theta_char(uniform_range(0, N)) == pytest.approx(N / (N + 1), abs=1e-14)


def test_theta_strictly_below_one():
    rng = seeded(900)
    for _ in range(50):
        assert ch.theta_char(random_pmf(rng)) < 1.0


def test_delta_theta_identity():
    rng = seeded(41)
    for _ in range(100):
        p = random_pmf(rng)
        assert ch.delta_char(p) == pytest.approx(2.0 * (1.0 - ch.theta_char(p)), abs=1e-12)


def test_theta_positive_iff_delta_below_two():
    rng = seeded(42)
    for _ in range(60):
        p = random_pmf(rng, span=int(rng.integers(1, 3)))
        assert (ch.theta_char(p) > 0) == (ch.delta_char(p) < 2.0 - 1e-14)


def test_mukhin_D_lattice_and_point_mass():
    # X on a span-2 sub-lattice vanishes at d = 1/2 (span equals 1/d)
    p2 = LatticePmf(0.0, 1.0, {0: 0.5, 2: 0.5})
    assert ch.mukhin_D(p2, 0.5) == pytest.approx(0.0, abs=1e-10)
    assert ch.mukhin_D(point_mass(4.0), 0.37) == pytest.approx(0.0, abs=1e-12)
    assert ch.mukhin_D(bernoulli(0.5), 0.0) == 0.0


def test_mukhin_D_bernoulli_quarter_point():
    # piecewise-quadratic oracle: minimize ((a d)^2 + ((1-a) d)^2)/2 at a=1/2
    assert ch.mukhin_D(bernoulli(0.5), 0.5) == pytest.approx(1.0 / 16.0, abs=1e-8)


def test_mukhin_D_requires_small_d():
    with pytest.raises(PreconditionError):
        ch.mukhin_D(bernoulli(0.5), 0.7)


def test_mukhin_H_values():
    assert ch.mukhin_H(bernoulli(0.5), 0.5) == pytest.approx(1.0 / 8.0, abs=1e-14)
    assert ch.mukhin_H(point_mass(9.0), 0.4) == 0.0


def test_mukhin_H_reflection_invariance():
    rng = seeded(43)
    for _ in range(20):
        p = random_pmf(rng)
        reflected = LatticePmf(0.0, 1.0, {-k: v for k, v in p.weights.items()})
        for d in (0.5, 0.2):
            assert ch.mukhin_H(p, d) == pytest.approx(ch.mukhin_H(reflected, d), abs=1e-13)


def test_nu_values():
    assert ch.nu_char(bernoulli(0.5), 2) == pytest.approx(0.5, abs=1e-15)
    assert ch.nu_char(point_mass(1.0), 5) == 0.0
    assert ch.nu_char(uniform_range(0, 5), 3) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_variance_dominates_theta():
    rng = seeded(44)
    for _ in range(100):
        p = random_pmf(rng)
        assert moments(p).sigma2 >= 0.25 * ch.theta_char(p) - 1e-12


def test_D_dominates_theta():
    rng = seeded(45)
    for _ in range(40):
        p = random_pmf(rng)
        th = ch.theta_char(p)
        for d in (0.5, 0.25, 0.125):
            assert ch.mukhin_D(p, d) >= d * d / 4.0 * th - 1e-9


def test_nu_sandwich_for_D():
    rng = seeded(46)
    for _ in range(40):
        p = random_pmf(rng)
        for h in (2, 3, 4, 5):
            nu = ch.nu_char(p, h)
            Dd = ch.mukhin_D(p, 1.0 / h)
            assert nu / (2 * h**3) - 1e-9 <= Dd <= nu / 4.0 + 1e-9


def test_cf_modulus_sandwich_via_H():
    rng = seeded(47)
    tgrid = np.linspace(0.2, math.pi, 9)
    for _ in range(40):
        p = random_pmf(rng)
        for t in tgrid:
            mod = abs(char_fn(p, t))
            H = ch.mukhin_H(p, t / (2 * math.pi))
            assert mod <= 1.0 - 4.0 * H + 1e-12
            assert mod >= 1.0 - 2.0 * math.pi**2 * H - 1e-12


def test_cf_modulus_bound_via_delta():
    rng = seeded(48)
    for _ in range(40):
        p = random_pmf(rng)
        delta = ch.delta_char(p)
        for t in (0.5, 1.5, 2.5, math.pi):
            assert abs(char_fn(p, t)) <= delta / (2 * abs(math.sin(t / 2))) + 1e-12


def test_delta_shrinks_under_convolution():
    rng = seeded(49)
    for _ in range(30):
        p, q = random_pmf(rng), random_pmf(rng)
        conv = np.convolve(p.dense, q.dense)
        weights = {p.offset + q.offset + i: float(v) for i, v in enumerate(conv) if v > 0}
        s = LatticePmf(0.0, 1.0, weights)
        assert ch.delta_char(s) <= min(ch.delta_char(p), ch.delta_char(q)) + 1e-12


def _pmf_of(table):
    supp = table.support
    weights = {int(k): float(table.probs[k - table.offset]) for k in supp}
    return LatticePmf(0.0, 1.0, weights)


def test_delta_of_sums_vanishes_and_scales():
    p = bernoulli(0.5)
    target = 2.0 / math.sqrt(2.0 * math.pi * moments(p).sigma2)
    vals = []
    for n in (64, 256, 1024):
        d = ch.delta_char(_pmf_of(sum_law(p, n)))
        vals.append(d * math.sqrt(n))
    assert abs(vals[-1] - target) < 0.01
    assert abs(vals[-1] - target) < abs(vals[0] - target)
    # plain convergence to zero on a span-1 asymmetric example
    q = LatticePmf(0.0, 1.0, {0: 0.5, 1: 0.3, 3: 0.2})
    deltas = [ch.delta_char(_pmf_of(sum_law(q, n))) for n in (16, 64, 256)]
    assert deltas[0] > deltas[1] > deltas[2]


def test_characteristics_record_and_csv(tmp_path):
    rec = ch.characteristics_record(bernoulli(0.5))
    assert rec.delta == pytest.approx(1.0)
    assert 0.0 <= rec.theta < 1.0
    out = tmp_path / "chars.csv"
    rec.to_csv(out)
    assert out.read_text().startswith("characteristic,argument,value")


def test_mukhin_hn_ratio_is_finite_diagnostic():
    from llt_lab.approx import delta_n
    from llt_lab.lattice import lazy_walk

    p = lazy_walk()
    r = ch.mukhin_hn_ratio([p] * 16, delta_n(p, 16))
    assert math.isfinite(r) and r >= 0.0


def test_symmetrized_is_memoised():
    p = random_adjacent_pmf(seeded(90))
    assert ch.symmetrized(p) is ch.symmetrized(p)
    fresh = ch.symmetrized.__wrapped__(p)
    assert ch.symmetrized(p).dense.tobytes() == fresh.dense.tobytes()
    # a sum table is an integer-valued law too, and hashes by identity
    table = sum_law(p, 3)
    assert ch.mukhin_H(table, 0.5) == ch.mukhin_H(LatticePmf._from_window(
        table.origin, table.D, table.offset, table.dense), 0.5)


def test_mukhin_hn_ratio_bit_identical_to_per_d_sums():
    # more distinct summands than memo slots; the reference sums fresh H values
    # over the summands in order, one d at a time
    rng = seeded(91)
    pmfs = [random_adjacent_pmf(rng) for _ in range(12)]

    def h_fresh(p, d):
        supp, masses = ch._integer_atoms(ch.symmetrized.__wrapped__(p))
        return float(np.dot(masses, ch._nearest_int_sq(supp * d)))

    b2 = l3 = 0.0
    for p in pmfs:
        supp, masses = ch._integer_atoms(p)
        mu = float(np.dot(masses, supp))
        b2 += float(np.dot(masses, (supp - mu) ** 2))
        l3 += float(np.dot(masses, np.abs(supp - mu) ** 3))
    hn = min(sum(h_fresh(p, d) for p in pmfs) for d in np.linspace(0.25, 0.5, 41))
    bn = math.sqrt(b2)
    assert ch.mukhin_hn_ratio(pmfs, 0.5) == 0.5 / (l3 / bn ** 3 * bn / hn)


def test_integer_form_required():
    shifted = LatticePmf(0.5, 1.0, {0: 0.5, 1: 0.5})
    with pytest.raises(PreconditionError):
        ch.delta_char(shifted)
    assert ch.delta_char(shifted.relabel()) == pytest.approx(1.0)


def test_integral_origin_folds_into_index():
    assert ch.delta_char(LatticePmf(2.0, 1.0, {0: 0.5, 1: 0.5})) == 1.0


def _grid_mukhin_D(p, d, grid_step=1e-4, refine_tol=1e-8):
    """Reference: scan one period of a on a grid, refine by golden-section search."""
    off, w = p.integer_view()
    nz = np.flatnonzero(w > 0)
    xd, masses = (off + nz) * d, w[nz]

    def sq(x):
        frac = x - np.round(x)
        return frac * frac

    grid = np.arange(0.0, 1.0 / abs(d), grid_step)
    vals = sq(xd[None, :] - np.outer(grid, [d])) @ masses
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)] - (grid_step if i == 0 else 0.0)
    hi = grid[min(i + 1, len(grid) - 1)] + (grid_step if i == len(grid) - 1 else 0.0)
    res = minimize_scalar(lambda a: float(np.dot(masses, sq(xd - a * d))), bounds=(lo, hi),
                          method="bounded", options={"xatol": refine_tol})
    return float(min(res.fun, vals[i]))


def test_mukhin_D_matches_grid_search_oracle():
    rng = seeded(2024)
    draws = (random_pmf, random_adjacent_pmf, mixing_span1_pmf)
    for i in range(210):
        p = draws[i % 3](rng).relabel()
        for d in (0.5, 0.25, 0.125, 1.0 / 3.0, 0.37, -0.2):
            new, old = ch.mukhin_D(p, d), _grid_mukhin_D(p, d)
            assert abs(new - old) <= 1e-14 * max(1.0, old), (i, d, new, old)
            assert new <= old + 1e-15, (i, d, new, old)  # the exact minimum is never above


def test_mukhin_D_bernoulli_half_is_exact():
    assert ch.mukhin_D(bernoulli(0.5), 0.5) == 0.0625


def test_wide_laws_fail_the_budget_before_allocating():
    import time

    from llt_lab.errors import ResourceLimitError
    from llt_lab.lattice import uniform_range

    p = uniform_range(0, 9000)  # 9001^2 entries exceed MAX_WINDOW = 2^26
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        ch.mukhin_D(p, 0.5)
    with pytest.raises(ResourceLimitError):
        ch.symmetrized(p)
    with pytest.raises(ResourceLimitError):
        ch.mukhin_H(p, 0.5)
    assert time.perf_counter() - start < 0.5
    # just under the budget both still run
    q = uniform_range(0, 99)
    assert ch.mukhin_D(q, 0.5) == pytest.approx(1 / 16, abs=1e-12)  # <k/2 - 1/4>^2
    assert ch.symmetrized(q).support.tolist() == list(range(-99, 100))


def _reference_nu(p, h):
    """nu from a residue fold written out over the positive integer atoms."""
    off, w = p.integer_view()
    nz = np.flatnonzero(w > 0)
    res = np.zeros(h)
    np.add.at(res, (off + nz) % h, w[nz])
    return float(1.0 - res.max())


def test_nu_equals_the_written_out_residue_fold_bit_for_bit():
    rng = seeded(48)
    laws = [random_pmf(rng, span=s) for s in (1, 2, 3) for _ in range(10)]
    laws += [LatticePmf(float(v0), 1.0, p.weights) for v0, p in zip((-7, 3, 12), laws)]
    laws += [LatticePmf(0.0, 1.0, {-k: m for k, m in p.weights.items()}) for p in laws[:5]]
    for p in laws:
        for h in (2, 3, 4, 5, 7, 13):
            assert ch.nu_char(p, h).hex() == _reference_nu(p, h).hex(), (p.to_json(), h)


@pytest.mark.parametrize("fn", [ch.mukhin_D, ch.mukhin_H])
def test_mukhin_characteristics_reject_a_nan_d(fn):
    with pytest.raises(PreconditionError, match=r"\|d\| <= 1/2"):
        fn(uniform_range(0, 3), math.nan)
