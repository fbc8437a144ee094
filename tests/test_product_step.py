"""The product step of the exact engine: sum_law's binary powering and its budget."""

import decimal
import itertools
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from llt_lab import exact
from llt_lab.errors import ResourceLimitError
from llt_lab.exact import _convolve, convolve_tables, sum_law
from llt_lab.gen import random_pmf, seeded
from llt_lab.lattice import (UNDERFLOW_FLOOR, LatticePmf, bernoulli, lazy_walk, power_tail,
                             uniform_range)


def _low_bit_first(p, n, max_index=None):
    """The earlier sum_law loop: a chain of squared bases and a running product."""
    def cap(arr, off):
        if max_index is None or max_index - off + 1 >= len(arr):
            return arr
        return arr[:max_index - off + 1]

    def floor_small(arr):
        small = (arr > 0) & (arr < UNDERFLOW_FLOOR)
        if not small.any():
            return arr, 0.0
        lost = float(arr[small].sum())
        arr = arr.copy()
        arr[small] = 0.0
        return arr, lost

    base, base_off = cap(p.dense, p.offset), p.offset
    acc, acc_off, lost, m = None, 0, 0.0, n
    while m > 0:
        if m & 1:
            if acc is None:
                acc, acc_off = base.copy(), base_off
            else:
                acc_off += base_off
                acc, lost_i = floor_small(cap(_convolve(acc, base), acc_off))
                lost += lost_i
        m >>= 1
        if m > 0:
            base_off *= 2
            base, lost_b = floor_small(cap(_convolve(base, base), base_off))
            lost += lost_b
    beyond = max(0.0, 1.0 - float(acc.sum()) - lost) if max_index is not None else 0.0
    return acc, acc_off, lost, beyond


def _power_of_two_cases():
    rng = seeded(16)
    laws = [(bernoulli(0.3), None), (lazy_walk(), None), (uniform_range(0, 6), None),
            (LatticePmf(0.25, 0.5, {-3: 0.2, -1: 0.5, 2: 0.3}), None)]  # span 1/2, shifted
    laws += [(random_pmf(rng), None) for _ in range(4)]
    laws += [(random_pmf(rng), 300) for _ in range(2)]
    laws += [(bernoulli(0.001), 50),  # the cap cuts atoms and the floor drops some
             (power_tail(0.5, c=0.8, max_index=4000), 2500),  # offset 0: every n fits the cap
             (power_tail(0.7, max_index=3000), 6000)]  # offset 1: n * 1 must fit the cap
    return laws


@pytest.mark.parametrize("case", range(len(_power_of_two_cases())))
def test_power_of_two_tables_equal_the_low_bit_first_loop(case):
    p, cap = _power_of_two_cases()[case]
    caps = ([None] if len(p.dense) < 100 else []) + ([cap] if cap is not None else [])
    for n, max_index in itertools.product([1 << k for k in range(13)], caps):
        if max_index is None and n * len(p.dense) > 4_000_000:
            continue
        if max_index is not None and n * p.offset > max_index:
            continue
        dense, offset, lost, beyond = _low_bit_first(p, n, max_index)
        law = sum_law(p, n, max_index=max_index)
        assert law.dense.tobytes() == dense.tobytes(), (case, n, max_index)
        assert (law.offset, law.lost_mass, law.beyond_mass) == (offset, lost, beyond)


def _binomial_oracle(theta: float, n: int) -> np.ndarray:
    """P{Bin(n, theta) = k} for the float theta in 60-digit decimals, each rounded once.

    The binomial coefficients are exact integers, and each of the few thousand
    products behind a mass rounds by at most 1e-60 relative, so the masses
    are exact far below a double's rounding.
    """
    with decimal.localcontext(prec=60):
        q = Decimal(theta)
        a, b = [Decimal(1)], [Decimal(1)]
        for _ in range(n):
            a.append(a[-1] * q)
            b.append(b[-1] * (1 - q))
        out, comb = np.empty(n + 1), 1
        for k in range(n + 1):
            out[k] = float(comb * a[k] * b[n - k])
            comb = comb * (n - k) // (k + 1)  # math.comb(n, k + 1), exactly
        return out


def _fraction_power_oracle(p: LatticePmf, n: int) -> np.ndarray:
    """The n-fold convolution of p's float masses in exact rationals."""
    law = [Fraction(float(x)) for x in p.dense]
    acc = [Fraction(1)]
    for _ in range(n):
        out = [Fraction(0)] * (len(acc) + len(law) - 1)
        for i, x in enumerate(acc):
            if x:
                for j, y in enumerate(law):
                    out[i + j] += x * y
        acc = out
    return np.array([float(x) for x in acc])


def _assert_close(law, want, offset):
    assert law.offset == offset and len(law.dense) == len(want)
    big = want > 1e-12
    rel = np.abs(law.dense[big] - want[big]) / want[big]
    assert rel.max() <= 1e-12, rel.max()


def test_other_n_match_exact_binomial_masses():
    for theta in (0.5, 0.2, 0.9):
        for n in (3, 5, 6, 7, 100, 255, 257, 1000, 1023, 1025, 2999, 3000):
            law = sum_law(bernoulli(theta), n)
            _assert_close(law, _binomial_oracle(theta, n), 0)
    for n in (3, 11, 1000, 2999):  # the lazy walk is Bin(2n, 1/2) shifted by -n
        _assert_close(sum_law(lazy_walk(), n), _binomial_oracle(0.5, 2 * n), -n)


def test_other_n_match_exact_rational_convolution_powers():
    rng = seeded(61)
    laws = [uniform_range(-2, 3), LatticePmf(0.25, 0.5, {-3: 0.2, -1: 0.5, 2: 0.3})]
    laws += [random_pmf(rng, max_atoms=4, window=6) for _ in range(3)]
    for p in laws:
        for n in (3, 5, 6, 7, 23, 37):
            _assert_close(sum_law(p, n), _fraction_power_oracle(p, n), n * p.offset)


def test_a_multiplication_drops_underflow_into_the_ledger():
    b = 1e-105  # b^2 = 1e-210 stays above the floor; b^3 = 1e-315 falls below it
    p = LatticePmf(0.0, 1.0, {0: 1.0 - b, 1: b})
    for law in (sum_law(p, 3), convolve_tables(sum_law(p, 2), sum_law(p, 1))):
        assert law.dense[3] == 0.0 and law.dense[2] > UNDERFLOW_FLOOR
        assert 0.0 < law.lost_mass < UNDERFLOW_FLOOR
    assert sum_law(p, 2).lost_mass == 0.0  # so the square dropped nothing


def _refuse_to_convolve(a, b, method="auto"):
    raise AssertionError(f"a {len(a)} x {len(b)} product was computed past the budget")


def test_convolve_tables_checks_the_budget_before_the_product(monkeypatch):
    a, b = sum_law(uniform_range(0, 9), 1), sum_law(uniform_range(0, 7), 1)
    monkeypatch.setattr(exact, "MAX_WINDOW", 17)
    assert len(convolve_tables(a, b).dense) == 17
    monkeypatch.setattr(exact, "MAX_WINDOW", 16)
    monkeypatch.setattr(exact, "_convolve", _refuse_to_convolve)
    with pytest.raises(ResourceLimitError, match="memory budget"):
        convolve_tables(a, b)


def test_sum_law_checks_the_budget_before_a_multiplication(monkeypatch):
    p = uniform_range(0, 9)  # 10 atoms: S_2 has 19, S_3 has 28
    products = []

    def counted(a, b, method="auto"):
        products.append((len(a), len(b)))
        return _convolve(a, b, method)

    monkeypatch.setattr(exact, "MAX_WINDOW", 20)  # the squaring fits, the multiplication does not
    monkeypatch.setattr(exact, "_convolve", counted)
    assert len(sum_law(p, 2).dense) == 19
    products.clear()
    with pytest.raises(ResourceLimitError, match="memory budget"):
        sum_law(p, 3)
    assert products == [(10, 10)]  # the square was computed, the 19 x 10 product was not
