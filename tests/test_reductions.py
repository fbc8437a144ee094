"""Totals are numpy reductions: no output depends on how the builtin ``sum`` adds floats.

From Python 3.12 the builtin ``sum`` compensates float rounding (Neumaier's
rule), so a total taken with it differs by ulps between 3.11 and 3.12.  The
guard test patches that rule into the modules that take such totals and
checks that their outputs keep every bit.
"""

import builtins
import math

import numpy as np
import pytest

from llt_lab import approx as ax
from llt_lab import exact, gen, poisson
from llt_lab.exact import residues_mod
from llt_lab.gen import random_pmf, seeded
from llt_lab.lattice import LatticePmf, char_fn, maximal_span


def _neumaier_sum(iterable, start=0):
    """The builtin ``sum`` of Python 3.12: ints exactly, Python floats compensated."""
    items = list(iterable)
    if type(start) is not int or not all(type(x) in (int, float) for x in items):
        return builtins.sum(items, start)
    total, comp = start, 0.0
    for x in items:
        if type(total) is int and type(x) is int:
            total += x
            continue
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if type(total) is float else total


def test_the_patched_sum_compensates_floats_and_keeps_ints_exact():
    assert _neumaier_sum([0.1] * 10) == 1.0  # 0.9999999999999999 added left to right
    assert _neumaier_sum([2**60, 1, -2**60]) == 1
    assert _neumaier_sum([1e100, 1.0, -1e100]) == 1.0


def _outputs():
    rng = seeded(0)
    laws = [random_pmf(rng) for _ in range(200)]
    ns = (10, 37, 100, 333, 1000)
    metas = [exact.weighted_sum_law([1] * n, [0.1] * n).meta for n in ns]
    return ([(p.offset, p.dense.tobytes()) for p in laws],
            [(m.mu.hex(), m.sigma2.hex(), m.mu3.hex()) for m in metas],
            [poisson.lecam_bound([0.1] * n).hex() for n in ns])


def test_no_output_depends_on_how_the_builtin_sum_adds_floats(monkeypatch):
    before = _outputs()
    for module in (gen, exact, poisson):
        monkeypatch.setattr(module, "sum", _neumaier_sum, raising=False)
    assert _outputs() == before


@pytest.mark.parametrize("span", range(1, 7))
def test_maximal_span_equals_the_gcd_fold_on_wide_supports(span):
    rng = seeded(100 + span)
    idx = span * np.sort(rng.choice(200_000, size=100_000, replace=False)) - 7 * span
    p = LatticePmf(0.5, 0.25, dict.fromkeys(idx.tolist(), 1.0 / len(idx)))
    g = 0
    for d in np.diff(p.support).tolist():
        g = math.gcd(g, d)
    assert g == span
    assert maximal_span(p) == 0.25 * g


def test_aud_product_criteria_are_left_to_right_running_products_bit_for_bit():
    rng = seeded(57)
    for _ in range(10):
        n = int(rng.integers(1, 12))
        seq = [random_pmf(rng, span=int(rng.integers(1, 4))) for _ in range(n)]
        for h in (2, 3, 5, 8):
            diag = ax.aud_diagnostics(seq, n, h)
            t = 2.0 * math.pi * np.arange(1, h) / h
            dw, roz = np.ones(h - 1), 1.0
            for j, pj in enumerate(seq):
                dw = dw * np.abs(char_fn(pj, t))
                roz *= float(residues_mod(pj, h).max())
                assert diag.dw_partial_products[:, j].tobytes() == dw.tobytes()
                assert diag.rozanov_partial_products[j] == roz
