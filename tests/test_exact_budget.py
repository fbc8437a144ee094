"""Exact horizons and padded comparison windows past ``MAX_WINDOW`` raise
``ResourceLimitError`` before any array of that size is built."""

import json

import pytest

from llt_lab import approx as ax
from llt_lab import asllt as asl
from llt_lab.cli import main
from llt_lab.errors import ResourceLimitError
from llt_lab.exact import sum_law
from llt_lab.lattice import bernoulli, lazy_walk

BUDGET = 1000
CHAIN = asl.TwoStateChain(0.3, 0.4)

EXACT_MODES = {
    "hit_mass_sequence": lambda N: asl.hit_mass_sequence(lazy_walk(), 0, N),
    "asllt_expectation": lambda N: asl.asllt_expectation(bernoulli(0.5), 0.3, N),
    "markov_asllt_expectation": lambda N: asl.markov_asllt_expectation(CHAIN, 0.3, N),
    "dickman_expectation": lambda N: asl.dickman_expectation(N, 1.0),
    "chung_erdos_expectation": lambda N: asl.chung_erdos_expectation(lazy_walk(), 0, N),
    "chung_erdos_kernel": lambda N: asl.chung_erdos_kernel(lazy_walk(), 0, N)([0]),
}


@pytest.mark.parametrize("mode", list(EXACT_MODES))
def test_exact_horizons_past_the_budget_raise(mode, monkeypatch):
    monkeypatch.setattr(asl, "MAX_WINDOW", BUDGET)
    with pytest.raises(ResourceLimitError, match="exceeds memory budget"):
        EXACT_MODES[mode](BUDGET + 1)
    assert EXACT_MODES[mode](BUDGET) is not None


def test_the_ce_command_past_the_budget_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(asl, "MAX_WINDOW", BUDGET)
    args = ["asllt", "--kind", "ce", "--dist", "lazy", "--seeds", "0:2", "--out", str(tmp_path)]
    assert main(args + ["--N", str(BUDGET + 1)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ResourceLimitError"
    assert list(tmp_path.iterdir()) == []
    assert main(args + ["--N", str(BUDGET)]) == 0
    assert (tmp_path / "asllt_ce.csv").exists()


def test_padded_windows_past_the_budget_raise(monkeypatch):
    monkeypatch.setattr(ax, "MAX_WINDOW", 100, raising=False)
    law = sum_law(bernoulli(0.5), 4)
    assert len(law.dense) + 2 * (40 + 2) == 89
    assert ax.variation_distance(law, B=1.0) > 0.0
    with pytest.raises(ResourceLimitError, match="exceeds memory budget"):
        ax.variation_distance(law, B=2.0)  # 169 entries
    fits = (100 - len(law.dense)) // 2
    assert ax.mukhin_criterion(bernoulli(0.5), 4, v=fits) > 0.0
    with pytest.raises(ResourceLimitError, match="exceeds memory budget"):
        ax.mukhin_criterion(bernoulli(0.5), 4, v=fits + 1)
