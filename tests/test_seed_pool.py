"""The four path kinds run through one seed-pool loop whose scans write into other buffers
than they read, and kappa targets that would leave int64 are rejected before any draw."""

import numpy as np
import pytest

from llt_lab import asllt as asl
from llt_lab.cli import main
from llt_lab.errors import PreconditionError
from llt_lab.lattice import bernoulli, lazy_walk

N = 2 * asl._BLOCK + 1
SEEDS = (0, 1)


def _watch_scans(monkeypatch):
    """Record, for every np.cumsum and np.logical_xor.accumulate, whether out aliases the input."""
    calls = []
    cumsum, xor = np.cumsum, np.logical_xor

    def watched_cumsum(a, *args, out=None, **kwargs):
        calls.append(("cumsum", out is not None and np.shares_memory(a, out)))
        return cumsum(a, *args, out=out, **kwargs)

    class WatchedXor:
        def __call__(self, *args, **kwargs):
            return xor(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(xor, name)

        def accumulate(self, a, *args, out=None, **kwargs):
            calls.append(("logical_xor.accumulate", out is not None and np.shares_memory(a, out)))
            return xor.accumulate(a, *args, out=out, **kwargs)

    monkeypatch.setattr(np, "cumsum", watched_cumsum)
    monkeypatch.setattr(np, "logical_xor", WatchedXor())
    return calls


POOLS = {
    "t1": lambda masses: asl.asllt_paths(bernoulli(0.5), 0.3, N, SEEDS),
    "markov": lambda masses: asl.markov_asllt_paths(asl.TwoStateChain(0.3, 0.4), 0.3, N, SEEDS),
    "dickman": lambda masses: asl.asllt_dickman_paths(N, SEEDS, asl.dickman_rho(u_max=4.0)),
    "ce": lambda masses: asl.chung_erdos_paths(lazy_walk(), 0, N, SEEDS, masses=masses),
}


@pytest.mark.parametrize("kind", list(POOLS))
def test_no_scan_in_the_pool_writes_into_its_input(kind, monkeypatch):
    # numpy holds the GIL through an accumulate whose output is its input
    masses = asl.hit_mass_sequence(lazy_walk(), 0, N) if kind == "ce" else None
    calls = _watch_scans(monkeypatch)
    estimates = POOLS[kind](masses)
    assert [est.seed for est in estimates] == list(SEEDS)
    assert ("cumsum", False) in calls
    if kind == "markov":
        assert ("logical_xor.accumulate", False) in calls
    assert [name for name, aliased in calls if aliased] == []


FAR = 1e300  # kappa sigma sqrt(n) is far past 2**63 for every n


def _no_draw(*args, **kwargs):
    raise AssertionError("a draw or a mass was computed")


@pytest.mark.parametrize("run", [
    lambda kappa: asl.asllt_paths(bernoulli(0.5), kappa, 100, SEEDS),
    lambda kappa: asl.markov_asllt_paths(asl.TwoStateChain(0.3, 0.4), kappa, 100, SEEDS),
    lambda kappa: asl.asllt_expectation(bernoulli(0.5), kappa, 100),
    lambda kappa: asl.markov_asllt_expectation(asl.TwoStateChain(0.3, 0.4), kappa, 100),
], ids=["t1_path", "markov_path", "t1_expectation", "markov_expectation"])
def test_kappa_targets_past_int64_are_rejected_before_any_draw(run, monkeypatch):
    for name in ("stream", "hit_mass_sequence", "_markov_hit_masses"):
        monkeypatch.setattr(asl, name, _no_draw)
    for kappa in (FAR, -FAR):
        with pytest.raises(PreconditionError, match=r"kappa = .*e\+300 and N = 100"):
            run(kappa)


def test_the_int64_check_passes_large_targets_that_fit():
    rule = asl.KappaRule(mu=0.5, sigma=0.5, v0=0.0, D=1.0, kappa=1e15)
    assert rule.within(100) is rule
    n = np.arange(1, 101)
    assert np.array_equal(rule.index(n), np.floor(0.5 * n + 0.5e15 * np.sqrt(n) + 0.5))
    with pytest.raises(PreconditionError):
        asl.KappaRule(mu=0.5, sigma=0.5, v0=0.0, D=1e-300, kappa=0.0).within(100)


@pytest.mark.parametrize("kind", ["t1", "markov"])
def test_cli_kappa_targets_past_int64_exit_2(kind, tmp_path, capsys):
    assert main(["asllt", "--kind", kind, "--kappa", "1e300", "--N", "100",
                 "--out", str(tmp_path)]) == 2
    assert "PreconditionError" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
