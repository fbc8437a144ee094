import math

import numpy as np
import pytest

from llt_lab import approx, exact
from llt_lab.approx import (
    StableDensityTable,
    StableParams,
    doney_ratio,
    stable_density,
    stable_density_mass,
    stable_llt_error,
)
from llt_lab.errors import PreconditionError, UnsupportedParameterError
from llt_lab.lattice import moments, power_tail


def levy_density(x: float) -> float:
    """Closed form for the alpha = 1/2 one-sided limit: scale pi/2."""
    if x <= 0:
        return 0.0
    return 0.5 * x**-1.5 * math.exp(-math.pi / (4.0 * x))


@pytest.fixture(scope="module")
def half_params():
    return StableParams(alpha=0.5)


def test_inversion_matches_closed_form(half_params):
    for x in (0.2, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0):
        assert stable_density(half_params, x) == pytest.approx(levy_density(x), rel=1e-7)


def test_density_vanishes_on_negatives(half_params):
    for x in (-5.0, -1.0, -0.25):
        assert stable_density(half_params, x) == pytest.approx(0.0, abs=1e-4)


def test_density_nonnegative_on_grid(half_params):
    grid = np.linspace(-2.0, 30.0, 400)
    vals = [stable_density(half_params, float(x)) for x in grid]
    assert min(vals) >= 0.0


def test_density_mass_near_one(half_params):
    assert stable_density_mass(half_params) == pytest.approx(1.0, abs=1e-4)
    assert stable_density_mass(StableParams(alpha=0.7)) == pytest.approx(1.0, abs=1e-4)


def test_alpha_one_rejected():
    with pytest.raises(UnsupportedParameterError):
        StableParams(alpha=1.0)


def test_symmetric_variant_is_even(half_params):
    sym = StableParams(alpha=0.5, one_sided=False)
    for x in (0.5, 1.5, 3.0):
        assert stable_density(sym, x) == pytest.approx(stable_density(sym, -x), rel=1e-9)


def feller_series(alpha: float, x: float, one_sided: bool = True) -> float:
    """Feller II, XVII.6: the density of Y with E e^{-sY} = exp(-s^a) (one-sided) or
    E e^{itY} = exp(-|t|^a) (symmetric) is (1/pi) sum_k (-1)^{k+1} G(ka+1)/k!
    sin(k pi a) y^{-ka-1}, with sin(k pi a/2) in the symmetric case; the limit
    law of the package is s Y with the scale s below."""
    if one_sided:
        s = math.gamma(1.0 - alpha) ** (1.0 / alpha)
    else:
        s = (math.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0)) ** (1.0 / alpha)
    y, total = abs(x) / s, 0.0
    for k in range(1, 5000):
        size = math.exp(math.lgamma(k * alpha + 1.0) - math.lgamma(k + 1.0)
                        - (k * alpha + 1.0) * math.log(y))
        total += (-1) ** (k + 1) * size * math.sin(k * math.pi * alpha * (1 if one_sided else 0.5))
        if k > 10 and size < 1e-20:
            break
    return total / (math.pi * s)


FELLER_CASES = ([(a, y) for a in (0.1, 0.2, 0.3) for y in (1.0, 2.92, 5.0, 20.0)]
                + [(0.7, y) for y in (2.92, 5.0, 20.0)]
                + [(a, y) for a in (0.9, 0.95) for y in (30.0, 60.0, 200.0)])


@pytest.mark.parametrize("alpha,y", FELLER_CASES)
def test_density_matches_feller_series(alpha, y):
    assert abs(stable_density(StableParams(alpha=alpha), y) - feller_series(alpha, y)) < 1e-12


def test_density_matches_closed_form_to_rounding(half_params):
    for x in (0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0, 60.0, 100.0, 1e4):
        assert abs(stable_density(half_params, x) - levy_density(x)) < 1e-12


def test_symmetric_variant_matches_feller_series():
    sym = StableParams(alpha=0.5, one_sided=False)
    for x in (0.5, 1.5, 3.0, -3.0, 20.0):
        assert abs(stable_density(sym, x) - feller_series(0.5, x, one_sided=False)) < 1e-12
    # at 0 the series diverges; the closed form is G(1 + 1/a) / (pi gamma), gamma = pi/2
    assert stable_density(sym, 0.0) == pytest.approx(4.0 / math.pi**2, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_density_mass_is_one(alpha):
    assert abs(stable_density_mass(StableParams(alpha=alpha)) - 1.0) < 1e-9


def test_density_raises_when_rules_do_not_agree(monkeypatch):
    # alpha = 0.95 at x = 200 needs 4096 nodes; cap the rule at 256
    monkeypatch.setattr(approx, "_GL_LAST", 256)
    with pytest.raises(PreconditionError, match="Gauss-Legendre"):
        stable_density(StableParams(alpha=0.95), 200.0)


def test_density_table_ends_at_x_max():
    table = StableDensityTable(0.5, x_max=60.0)
    assert table.x[-1] == 60.0
    at_edge = np.interp(60.0, table.x, table.g, left=0.0, right=0.0)
    assert abs(at_edge - levy_density(60.0)) < 1e-12


@pytest.fixture(scope="module")
def half_tail_pmf():
    return power_tail(0.5, max_index=250_000)


def test_stable_llt_error_decreasing(half_tail_pmf):
    errs = [stable_llt_error(half_tail_pmf, n, x_max=60.0).error for n in (8, 16, 32, 64)]
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_stable_llt_baseline_and_uniform_bound(half_tail_pmf):
    rep1 = stable_llt_error(half_tail_pmf, 1, x_max=60.0)
    assert math.isfinite(rep1.error) and rep1.error > 0
    sups = [stable_llt_error(half_tail_pmf, n, x_max=60.0).exact for n in (1, 8, 32)]
    assert max(sups) < 10.0  # uniform boundedness of B_n P(S_n = m)


def test_stable_llt_error_at_n1_compares_the_law_on_the_window(half_tail_pmf):
    p, x_max = half_tail_pmf, 60.0
    bn = StableParams(alpha=0.5).b_n(1)
    cap = math.ceil(x_max * bn)
    law = exact.sum_law(p, 1, max_index=cap)
    assert law.offset + len(law.dense) - 1 == cap
    k = np.arange(p.offset, cap + 1)
    vals = bn * p.dense[:len(k)] * (1.0 - p.discarded_mass)
    table = approx._density_table(0.5, x_max)
    g = np.interp(k / bn, table.x, table.g, left=0.0, right=0.0)
    rep = stable_llt_error(p, 1, x_max=x_max)
    assert rep.error == float(np.max(np.abs(vals - g)))
    assert rep.exact == float(np.max(vals))


def test_stable_llt_requires_family():
    from llt_lab.lattice import bernoulli

    with pytest.raises(PreconditionError):
        stable_llt_error(bernoulli(0.5), 8)


# -- heavy-tail point ratio ------------------------------------------------------------


@pytest.fixture(scope="module")
def tail15():
    return power_tail(1.5, max_index=200_000)


def test_doney_ratio_trend_to_one(tail15):
    n = 32
    ratios = []
    for mult in (8, 32, 128, 512):
        m = int(mult * n)
        ratios.append(doney_ratio(tail15, n, m))
    gaps = [abs(r - 1.0) for r in ratios]
    assert gaps[-1] < 0.05
    assert gaps[-1] < gaps[0]
    assert all(r > 0 and math.isfinite(r) for r in ratios)


def test_doney_ratio_n1_identity():
    # S_1 = X: ratio is exactly 1 at every support point of a centered law
    from llt_lab.lattice import LatticePmf

    p = LatticePmf(0.0, 1.0, {-2: 0.2, -1: 0.1, 0: 0.3, 1: 0.15, 2: 0.25})
    mu = moments(p).mu
    for m in (1, 2):
        if m >= (mu + 0.5):
            assert doney_ratio(p, 1, m, eps=0.5) == pytest.approx(1.0, abs=1e-12)


def test_doney_ratio_preconditions(tail15):
    with pytest.raises(PreconditionError):
        doney_ratio(tail15, 32, 10)   # m below (mu+eps) n
    from llt_lab.lattice import LatticePmf

    q = LatticePmf(0.0, 1.0, {0: 0.5, 2: 0.5})
    with pytest.raises(PreconditionError, match="zero denominator"):
        doney_ratio(q, 2, 5, mu=0.0, eps=0.1)


def test_stable_llt_error_rejects_a_non_finite_window(half_tail_pmf):
    for x_max in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(PreconditionError, match="x_max must be finite"):
            stable_llt_error(half_tail_pmf, 8, x_max=x_max)


def test_stable_llt_error_flags_an_excessive_truncation_mass():
    p = power_tail(0.5, tail_mass=0.03)
    flags = dict(stable_llt_error(p, 32, x_max=0.5).flags)
    assert flags["truncation_mass_excessive"] == pytest.approx(32 * p.discarded_mass)
    assert flags["truncation_mass_excessive"] > 0.5
    assert stable_llt_error(p, 8, x_max=0.5).flags == ()  # 8 x 0.03 stays below 1/2
