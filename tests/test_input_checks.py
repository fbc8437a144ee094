"""Inputs the functionals refuse: capped tables, non-finite Doney parameters, bad max_index."""

import math

import pytest

from llt_lab import approx as ax
from llt_lab.errors import PreconditionError, UnsupportedParameterError
from llt_lab.exact import sum_law, sup_cdf_distance
from llt_lab.lattice import power_tail


@pytest.mark.parametrize("functional", [ax.variation_distance, ax.delta_from_table,
                                        sup_cdf_distance])
def test_gaussian_functionals_refuse_a_capped_table(functional):
    law = sum_law(power_tail(2.5, max_index=50), 4, max_index=20)
    assert law.beyond_mass > 0.003
    with pytest.raises(PreconditionError, match="capped"):
        functional(law)


def test_gaussian_functionals_still_accept_a_cap_that_cuts_nothing():
    law = sum_law(power_tail(2.5, max_index=50), 4, max_index=400)
    assert law.beyond_mass == 0.0
    assert 0.0 < sup_cdf_distance(law) < 1.0
    assert ax.variation_distance(law) > 0.0


@pytest.mark.parametrize("kwargs", [{"eps": math.nan}, {"mu": math.nan}, {"mu": math.inf},
                                    {"eps": -math.inf}, {"eps": math.inf}])
def test_doney_ratio_refuses_non_finite_mu_and_eps_before_the_sum_law(kwargs, monkeypatch):
    def no_sum_law(*args, **kw):
        raise AssertionError("sum law built before mu and eps were checked")

    monkeypatch.setattr(ax, "sum_law", no_sum_law)
    with pytest.raises(PreconditionError, match="finite"):
        ax.doney_ratio(power_tail(1.5, max_index=200_000), 32, 1000, **kwargs)


@pytest.mark.parametrize("max_index", [0, -5, 2.5, True, False, "8", math.nan])
def test_power_tail_refuses_a_max_index_that_is_not_a_positive_integer(max_index):
    with pytest.raises(UnsupportedParameterError, match="max_index"):
        power_tail(1.5, max_index=max_index)


def test_power_tail_keeps_at_least_eight_indices():
    assert len(power_tail(1.5, max_index=1).dense) == 8
    assert len(power_tail(1.5, max_index=20).dense) == 20
