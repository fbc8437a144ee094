"""Dickman paths drawn from their success times: the law of the estimate against the exact
expectation and against the whole-array simulation of every Bernoulli(1/n), the hits up to
x N = 2**53 against a scan of each stretch, and the bound on x N past that."""

import json
import math

import numpy as np
import pytest

from llt_lab import asllt as asl
from llt_lab.cli import main
from llt_lab.errors import ResourceLimitError
from llt_lab.rng import stream

PATHS = 20_000


@pytest.fixture(scope="module")
def rho():
    return asl.dickman_rho(u_max=4.0)


@pytest.fixture(scope="module")
def finals(rho):
    """The final estimates of PATHS paths, per (N, x)."""
    cache = {}

    def get(N, x):
        if (N, x) not in cache:
            cache[N, x] = np.array([est.final for est in asl.asllt_dickman_paths(
                N, range(PATHS), rho, x=x)])
        return cache[N, x]
    return get


def _whole_array_final(N, rng, x):
    """The estimate at N from all N draws Z_n = 1{u_n < 1/n}, as the paths were once simulated."""
    k = np.arange(1, N + 1)
    t = np.cumsum(k * (rng.random(N) < 1.0 / k))
    return np.count_nonzero(t == np.floor(x * k + 0.5)) / math.log(N)


def _variance_and_its_se(v):
    c = v - v.mean()
    var = float(np.mean(c ** 2))
    return float(np.var(v, ddof=1)), math.sqrt((np.mean(c ** 4) - var ** 2) / len(v))


@pytest.mark.parametrize("N, x", [(10_000, 1.0), (10_000, 1.5), (10_000, 2.5), (100_000, 1.0)])
def test_path_mean_is_the_exact_expectation(finals, N, x):
    v = finals(N, x)
    se = v.std(ddof=1) / math.sqrt(len(v))
    assert abs(v.mean() - asl.dickman_expectation(N, x)) <= 4.0 * se


def test_path_variance_is_that_of_the_whole_array_simulation(finals):
    N = 10_000
    new, new_se = _variance_and_its_se(finals(N, 1.0))
    old, old_se = _variance_and_its_se(np.array([_whole_array_final(N, stream(seed, 1), 1.0)
                                                 for seed in range(2000)]))
    assert abs(new - old) <= 4.0 * math.hypot(new_se, old_se)


def _local_hits(N, seed, x):
    """The hit steps of a path from its own success times, each stretch [m, K) with T_n = t
    scanned at every n within 20 of t/x: outside that, round(x n) is far from t."""
    rng, m, t, hits = stream(seed), 1, 1, []
    while m <= N:
        k = math.floor(m / (1.0 - rng.random())) + 1
        c = int(t / x)
        hits += [n for n in range(max(m, c - 20), min(k, N + 1, c + 21))
                 if math.floor(x * n + 0.5) == t]
        m, t = k, t + k
    return hits


@pytest.mark.parametrize("x", [1.0, 1.0 + 2.0 ** -52, 1.5, 2.5, 3.0])
def test_paths_up_to_2_53_count_every_hit_of_the_float_target(rho, x):
    # past 2**52, x n + 1/2 itself rounds, and the float target can repeat a value
    N = math.floor(2.0 ** 53 / x) - 1  # at most 2 below the largest N with x N < 2**53
    for est in asl.asllt_dickman_paths(N, range(100), rho, x=x):
        hits = np.array(_local_hits(N, est.seed, x))
        got = [(m, round(value * math.log(m))) for m, value in est.checkpoints]
        assert got == [(m, int(np.count_nonzero(hits <= m))) for m, _ in est.checkpoints]


def _no_draw(*args, **kwargs):
    raise AssertionError("a draw was made")


def test_targets_at_2_53_are_refused_before_any_draw(rho, monkeypatch):
    assert asl.asllt_dickman_paths(2 ** 53 - 1, [0], rho)[0].checkpoints[-1][0] == 2 ** 53 - 1
    monkeypatch.setattr(asl, "stream", _no_draw)
    for N, x in ((2 ** 53, 1.0), (2 ** 52, 2.0), (10 ** 16, 1.0)):
        with pytest.raises(ResourceLimitError, match="2\\*\\*53"):
            asl.asllt_dickman_paths(N, [0], rho, x=x)


def test_the_cli_exits_2_on_targets_at_2_53(tmp_path, capsys):
    assert main(["asllt", "--kind", "dickman", "--N", str(10 ** 16),
                 "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ResourceLimitError"
    assert list(tmp_path.iterdir()) == []
