import json
import math

import numpy as np
import pytest

from llt_lab.errors import DegenerateLawError, UnsupportedParameterError
from llt_lab.gen import random_pmf, seeded
from llt_lab.lattice import (
    LatticePmf,
    bernoulli,
    char_fn,
    maximal_span,
    moments,
    point_mass,
    power_tail,
    uniform_range,
)


def test_span_adjacent_points():
    assert maximal_span(LatticePmf(0.0, 1.0, {0: 0.5, 1: 0.5})) == 1.0


def test_span_gcd_of_offsets():
    assert maximal_span(LatticePmf(0.0, 1.0, {0: 0.25, 2: 0.5, 4: 0.25})) == 2.0


def test_span_two_points():
    p = LatticePmf(3.0, 1.0, {0: 0.5, 4: 0.5})  # support {3, 7}
    assert maximal_span(p) == 4.0


def test_span_degenerate_rejected():
    with pytest.raises(DegenerateLawError):
        maximal_span(point_mass(5.0))


def test_moments_bernoulli():
    m = moments(bernoulli(0.5))
    assert m.mu == 0.5 and m.sigma2 == 0.25


def test_moments_point_mass():
    m = moments(point_mass(5.0))
    assert m.mu == 5.0 and m.sigma2 == 0.0


def test_moments_uniform_die():
    # direct summation oracle: mu = (1+...+6)/6, var = E X^2 - mu^2
    vals = np.arange(1, 7)
    mu_oracle = vals.mean()
    var_oracle = (vals**2).mean() - mu_oracle**2
    m = moments(uniform_range(1, 6))
    assert m.mu == pytest.approx(mu_oracle, abs=1e-14)
    assert m.sigma2 == pytest.approx(var_oracle, abs=1e-14)
    assert m.sigma2 == pytest.approx(35.0 / 12.0, abs=1e-14)


def test_char_fn_bernoulli_closed_form():
    p = bernoulli(0.5)
    for t in (0.3, 1.0, math.pi, 2.5):
        assert abs(char_fn(p, t)) == pytest.approx(abs(math.cos(t / 2)), abs=1e-14)


def test_char_fn_at_zero_and_point_mass():
    assert char_fn(bernoulli(0.3), 0.0) == 1.0 + 0.0j
    assert abs(char_fn(point_mass(7.0), 1.234)) == pytest.approx(1.0, abs=1e-14)


def test_char_fn_modulus_dips_inside_period():
    # strict decay away from multiples of 2 pi / D for maximal span
    rng = seeded(101)
    for _ in range(20):
        p = random_pmf(rng)
        try:
            d = maximal_span(p)
        except DegenerateLawError:
            continue
        tgrid = np.linspace(0.05 * 2 * math.pi / d, 0.95 * 2 * math.pi / d, 41)
        mods = np.abs(char_fn(p, tgrid))
        assert mods.max() < 1.0
        assert abs(char_fn(p, 2 * math.pi / d)) == pytest.approx(1.0, abs=1e-12)


def test_span_invariant_under_relabel():
    rng = seeded(7)
    for _ in range(10):
        p = random_pmf(rng, span=3)
        try:
            d = maximal_span(p)
        except DegenerateLawError:
            continue
        assert maximal_span(p.relabel()) == d / p.D


def test_json_round_trip_bit_exact():
    p = LatticePmf(0.25, 0.5, {-1: 1 / 3, 0: 1 / 3, 2: 1 / 3})
    q = LatticePmf.from_json(p.to_json())
    assert q.v0 == p.v0 and q.D == p.D
    assert dict(q.weights) == dict(p.weights)
    assert q.to_json() == p.to_json()


def test_json_text_is_the_list_of_pairs_encoding():
    laws = [LatticePmf(0.25, 0.5, {-1: 1 / 3, 0: 1 / 3, 2: 1 / 3}),
            LatticePmf(-1.75, 3.0, {4: 0.2, 7: 0.3, 9: 0.5}),
            LatticePmf(0.0, 1.0, dict(power_tail(1.5, max_index=2000).weights)),
            random_pmf(seeded(5))]
    for p in laws:
        supp, masses = p.atoms()
        pmf = [[k, m] for k, m in zip(supp.tolist(), masses.tolist())]
        assert p.to_json() == json.dumps({"v0": p.v0, "D": p.D, "pmf": pmf})


def test_power_tail_masses_and_descriptor():
    p = power_tail(1.5)
    # p(j) proportional to j^-a - (j+1)^-a, renormalised over the truncation
    w = p.weights
    ratio = w[1] / w[2]
    assert ratio == pytest.approx((1 - 2**-1.5) / (2**-1.5 - 3**-1.5), rel=1e-12)
    assert p.family["alpha"] == 1.5
    assert p.family["discarded_mass"] < 1e-10
    assert float(p.dense.sum()) == pytest.approx(1.0, abs=1e-12)


def test_power_tail_moment_flags():
    from scipy.special import zeta

    assert moments(power_tail(0.5, max_index=10000)).mu is None
    m = power_tail(1.5, max_index=100000)
    assert moments(m).sigma2 is None
    assert moments(m).mu == pytest.approx(zeta(1.5), rel=1e-12)
    heavy = moments(power_tail(2.5, max_index=200000))
    assert heavy.sigma2 is not None and heavy.mu3 is None


def test_power_tail_serialization():
    p = power_tail(0.7, tail_mass=1e-8)
    q = LatticePmf.from_json(p.to_json())
    assert q.family["alpha"] == 0.7
    assert json.loads(p.to_json())["family"] == "power_tail"


def test_power_tail_rejects_bad_params():
    with pytest.raises(UnsupportedParameterError):
        power_tail(-1.0)
    with pytest.raises(UnsupportedParameterError):
        power_tail(0.5, c=1.5)


def test_weights_validation():
    with pytest.raises(ValueError):
        LatticePmf(0.0, 1.0, {0: 0.5, 1: 0.4})  # mass deficit
    with pytest.raises(ValueError):
        LatticePmf(0.0, -1.0, {0: 1.0})
    with pytest.raises(ValueError):
        LatticePmf(0.0, 1.0, {0: 1.2, 1: -0.2})


def test_weights_view_rebuilds_the_same_window():
    rng = seeded(17)
    for p in [random_pmf(rng, span=s) for s in (1, 2, 3) for _ in range(10)] + [
        power_tail(1.5, max_index=1000)
    ]:
        q = LatticePmf(p.v0, p.D, p.weights)
        assert q.offset == p.offset
        assert q.dense.tobytes() == p.dense.tobytes()


def test_non_finite_specs_are_rejected():
    nan, inf = math.nan, math.inf
    with pytest.raises(ValueError, match="nonnegative numbers"):
        LatticePmf(0.0, 1.0, {0: 0.5, 1: nan, 2: 0.5})
    for v0, D in ((nan, 1.0), (inf, 1.0), (0.0, inf), (0.0, nan)):
        with pytest.raises(ValueError):
            LatticePmf(v0, D, {0: 1.0})
    with pytest.raises(ValueError, match="nonnegative numbers"):
        LatticePmf.from_json('{"v0": 0, "D": 1, "pmf": [[0, 0.5], [1, NaN], [2, 0.5]]}')
    with pytest.raises(ValueError, match="finite"):
        LatticePmf.from_json('{"v0": NaN, "D": 1, "pmf": [[0, 1.0]]}')
    with pytest.raises(UnsupportedParameterError):
        power_tail(nan)
    for tail_mass in (nan, -1e-10):
        with pytest.raises(UnsupportedParameterError):
            power_tail(0.5, tail_mass=tail_mass)


def test_malformed_explicit_specs_raise_value_error():
    assert LatticePmf.from_json('{"v0": 0, "D": 1, "pmf": [[0, 0.5], [2, 0.5]]}').weights \
        == {0: 0.5, 2: 0.5}
    specs = {
        '{"v0": 0, "D": 1, "pmf": [[0.5, 0.5], [2, 0.5]]}': "JSON integers",
        '{"v0": 0, "D": 1, "pmf": [[0, 0.5], [2.0, 0.5]]}': "JSON integers",
        '{"v0": 0, "D": 1, "pmf": [[true, 0.5], [2, 0.5]]}': "JSON integers",
        '{"v0": 0, "D": 1, "pmf": 5}': "pairs",
        '{"v0": 0, "D": 1, "pmf": [5]}': "pairs",
        '{"v0": 0, "D": 1, "pmf": [[0, null]]}': "pairs",
        '{"v0": null, "D": 1, "pmf": [[0, 1.0]]}': "pairs",
        '[[0, 0.5], [1, 0.5]]': "JSON object",
        '"coin"': "JSON object",
    }
    for text, fault in specs.items():
        with pytest.raises(ValueError, match=fault):
            LatticePmf.from_json(text)


def test_power_tail_spec_fields_must_be_json_numbers():
    assert LatticePmf.from_json('{"family": "power_tail", "alpha": 2, "c": 1, '
                                '"truncation_mass": 0.001}').family["alpha"] == 2.0
    specs = [
        '{"family": "power_tail"}',
        '{"family": "power_tail", "alpha": "x"}',
        '{"family": "power_tail", "alpha": null}',
        '{"family": "power_tail", "alpha": true}',
        '{"family": "power_tail", "alpha": [1.5]}',
        '{"family": "power_tail", "alpha": 1.5, "c": "1"}',
        '{"family": "power_tail", "alpha": 1.5, "c": null}',
        '{"family": "power_tail", "alpha": 1.5, "truncation_mass": false}',
        '{"family": "power_tail", "alpha": 1.5, "truncation_mass": {}}',
    ]
    for text in specs:
        with pytest.raises(ValueError, match="JSON numbers"):
            LatticePmf.from_json(text)


def test_uniform_range_past_the_budget_fails_before_building_anything():
    from llt_lab.errors import ResourceLimitError

    with pytest.raises(ResourceLimitError, match="exceeds budget"):
        uniform_range(0, 10**15)


def test_uniform_range_equals_the_law_built_from_its_weights():
    for a, b in ((0, 0), (0, 5), (-3, 4), (7, 106)):
        n = b - a + 1
        want = LatticePmf(0.0, 1.0, {k: 1.0 / n for k in range(a, b + 1)})
        got = uniform_range(a, b)
        assert (got.offset, got.v0, got.D) == (want.offset, want.v0, want.D)
        assert got.dense.tobytes() == want.dense.tobytes()
