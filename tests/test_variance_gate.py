"""One variance gate: every Gaussian scale is checked by lattice.gaussian_scale.

A law without a finite variance belongs to the stable branch and fails with
PreconditionError; a one-point law fails with DegenerateLawError, which is a
PreconditionError too.  Functions that take a law check it before they build
any sum law.
"""

import json
import math

import pytest

from llt_lab import approx as ax
from llt_lab import asllt as asl
from llt_lab.characteristics import mukhin_hn_ratio
from llt_lab.cli import main
from llt_lab.errors import DegenerateLawError, PreconditionError
from llt_lab.exact import sum_law, sup_cdf_distance
from llt_lab.lattice import gaussian_scale, moments, point_mass, power_tail

GATE = "finite positive variance"

GATED = {
    "KappaRule.for_pmf": lambda p: asl.KappaRule.for_pmf(p, 0.0),
    "asllt_target": lambda p: asl.asllt_target(p, 0.5),
    "gaussian_local_term": lambda p: ax.gaussian_local_term(0.0, 0.0, moments(p).sigma2, 1.0),
    "delta_from_table": lambda p: ax.delta_from_table(sum_law(p, 4)),
    "delta_n": lambda p: ax.delta_n(p, 4),
    "delta_n_report": lambda p: ax.delta_n_report(p, 4),
    "edgeworth3_term": lambda p: ax.edgeworth3_term(p, 4, 2.0),
    "edgeworth3_sup_error": lambda p: ax.edgeworth3_sup_error(p, 4),
    "edgeworth3_sup_error_plain": lambda p: ax.edgeworth3_sup_error(p, 4, with_correction=False),
    "variation_distance": lambda p: ax.variation_distance(sum_law(p, 4)),
    "mukhin_criterion": lambda p: ax.mukhin_criterion(p, 4),
    "sup_cdf_distance": lambda p: sup_cdf_distance(sum_law(p, 4)),
    "gamkrelidze_lower_check": lambda p: ax.gamkrelidze_lower_check(p, 4, 2),
}


def test_the_gate_returns_the_square_root_and_types_its_failures():
    assert DegenerateLawError.__mro__[1] is PreconditionError
    assert gaussian_scale(2.25) == 1.5 and gaussian_scale(2.0) == math.sqrt(2.0)
    for missing in (None, math.inf, math.nan):
        with pytest.raises(PreconditionError, match=GATE) as info:
            gaussian_scale(missing)
        assert not isinstance(info.value, DegenerateLawError)
    for zero in (0.0, -0.0, -1.0):
        with pytest.raises(DegenerateLawError, match=GATE):
            gaussian_scale(zero)


@pytest.mark.parametrize("name", sorted(GATED))
def test_a_law_without_a_variance_fails_the_gate(name):
    with pytest.raises(PreconditionError, match=GATE) as info:
        GATED[name](power_tail(1.5, max_index=2000))  # alpha <= 2: no variance
    assert not isinstance(info.value, DegenerateLawError)


@pytest.mark.parametrize("name", sorted(GATED))
def test_a_one_point_law_fails_the_gate_as_degenerate(name):
    with pytest.raises(DegenerateLawError, match=GATE):
        GATED[name](point_mass(0.0))


@pytest.mark.parametrize("pmfs", [[point_mass(0.0)], [point_mass(0.0)] * 3, []])
def test_mukhin_hn_ratio_of_no_variance_is_degenerate(pmfs):
    with pytest.raises(DegenerateLawError, match=GATE):
        mukhin_hn_ratio(pmfs, 0.1)


def _no_sum_law(*args, **kwargs):
    raise AssertionError("a sum law was built before the variance was checked")


@pytest.mark.parametrize("name", ["delta_n", "delta_n_report", "edgeworth3_sup_error",
                                  "edgeworth3_sup_error_plain", "mukhin_criterion",
                                  "gamkrelidze_lower_check"])
def test_law_functions_check_the_variance_before_any_sum_law(monkeypatch, name):
    monkeypatch.setattr(ax, "sum_law", _no_sum_law)
    with pytest.raises(PreconditionError, match=GATE):
        GATED[name](power_tail(1.5, max_index=2000))


def test_delta_n_command_on_a_heavy_tail_exits_2_before_any_sum_law(tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.setattr(ax, "sum_law", _no_sum_law)
    assert main(["delta-n", "--dist", "power_tail:1.5", "--n", "8..64",
                 "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PreconditionError" and GATE in err["detail"]
    assert list(tmp_path.iterdir()) == []


def test_asllt_ce_rejects_a_degenerate_walk_before_computing_masses(tmp_path, capsys,
                                                                   monkeypatch):
    def no_masses(*args, **kwargs):
        raise AssertionError("hit masses computed for a degenerate walk")

    monkeypatch.setattr(asl, "hit_mass_sequence", no_masses)
    assert main(["asllt", "--kind", "ce", "--dist", "uniform:0..0", "--N", "100000000",
                 "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PreconditionError" and err["detail"] == "degenerate summand law"
    assert list(tmp_path.iterdir()) == []
