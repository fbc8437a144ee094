import itertools
import math

import numpy as np
import pytest
from scipy.special import ndtr

from llt_lab.asllt import (
    KappaRule,
    TwoStateChain,
    asllt_expectation,
    dickman_expectation,
    dickman_rho,
)
from llt_lab.errors import PreconditionError
from llt_lab.exact import (
    RunningConvolution,
    TransferConvolution,
    _convolve,
    _visit_tables,
    convolve_tables,
    joint_law,
    lattice_cdf_sup_distance,
    residues_mod,
    sum_law,
    sup_cdf_distance,
    weighted_sum_law,
)
from llt_lab.gen import random_pmf, seeded
from llt_lab.lattice import (
    LatticePmf,
    bernoulli,
    lazy_walk,
    point_mass,
    power_tail,
    uniform_range,
)


def test_sum_law_binomial_point():
    law = sum_law(bernoulli(0.5), 10)
    assert law.prob(5) == pytest.approx(252 / 1024, abs=1e-15)
    assert law.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_sum_law_point_mass():
    law = sum_law(point_mass(1.0), 5)
    assert law.prob(0) == 1.0  # index 0 on the shifted lattice, value 5
    assert law.points([0])[0] == 5.0


def test_sum_law_two_dice_enumeration():
    # oracle: enumerate all 36 ordered pairs
    counts = sum(1 for a, b in itertools.product(range(1, 7), repeat=2) if a + b == 7)
    law = sum_law(uniform_range(1, 6), 2)
    assert law.prob(7) == pytest.approx(counts / 36, abs=1e-15)


def test_sum_law_methods_agree():
    p = uniform_range(0, 9)
    direct = sum_law(p, 64, method="direct")
    fft = sum_law(p, 64, method="fft")
    assert direct.offset == fft.offset
    assert np.max(np.abs(direct.probs - fft.probs)) < 1e-9


def test_convolution_associativity():
    rng = seeded(33)
    for _ in range(5):
        p = random_pmf(rng)
        a, b = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        whole = sum_law(p, a + b)
        split = convolve_tables(sum_law(p, a), sum_law(p, b))
        assert whole.offset == split.offset or True
        lo = min(whole.offset, split.offset)
        hi = max(whole.offset + len(whole.probs), split.offset + len(split.probs))
        w = np.zeros(hi - lo)
        s = np.zeros(hi - lo)
        w[whole.offset - lo: whole.offset - lo + len(whole.probs)] = whole.probs
        s[split.offset - lo: split.offset - lo + len(split.probs)] = split.probs
        assert np.max(np.abs(w - s)) < 1e-10


def test_sum_law_mass_cap_is_exact_within_window():
    p = uniform_range(0, 5)
    full = sum_law(p, 8)
    capped = sum_law(p, 8, max_index=12)
    for k in range(0, 13):
        assert capped.prob(k) == pytest.approx(full.prob(k), abs=1e-15)
    assert capped.beyond_mass == pytest.approx(
        sum(full.prob(k) for k in range(13, 41)), abs=1e-12)


def test_sum_law_of_one_summand_honours_the_cap():
    capped = sum_law(uniform_range(0, 9), 1, max_index=3)
    assert (capped.offset, len(capped.dense)) == (0, 4)
    assert capped.dense.tolist() == [0.1] * 4
    assert capped.beyond_mass == pytest.approx(0.6, abs=1e-15)
    with pytest.raises(PreconditionError, match="support cap below"):
        sum_law(uniform_range(5, 9), 1, max_index=3)


def _direct_capped_power(p, n, top):
    """P{S_n = k} for k <= top by direct convolutions, each product cut at top."""
    f = np.zeros(top + 1)
    f[p.offset:] = p.dense[:top + 1 - p.offset]
    out, sq = np.array([1.0]), f
    while n:
        if n & 1:
            out = np.convolve(out, sq)[:top + 1]
        n >>= 1
        if n:
            sq = np.convolve(sq, sq)[:top + 1]
    return out


def test_capped_sum_law_matches_direct_convolution_at_doney_points():
    # the heavy-tail Doney points: n = 32, m = 32 * (8, ..., 512), each table capped at m + 4
    p = power_tail(1.5, max_index=200_000)
    points = [32 * mult for mult in (8, 16, 32, 64, 128, 256, 512)]
    oracle = _direct_capped_power(p, 32, points[-1])
    for m in points:
        law = sum_law(p, 32, max_index=m + 4)
        assert law.offset + len(law.dense) - 1 == m + 4
        assert law.prob(m) == pytest.approx(oracle[m], rel=1e-9, abs=0.0)
        ledger = law.total_mass() + law.lost_mass + law.beyond_mass
        assert ledger == pytest.approx(1.0, abs=1e-12)


def test_weighted_sum_dickman_small_cases():
    # T_3 = Z_1 + 2 Z_2 + 3 Z_3, q = (1, 1/2, 1/3); enumeration oracle
    def enum_prob(target):
        total = 0.0
        for z1, z2, z3 in itertools.product((0, 1), repeat=3):
            prob = (1.0 if z1 else 0.0) * (0.5) * (2 / 3 if z3 == 0 else 1 / 3)
            if z1 * 1 + z2 * 2 + z3 * 3 == target:
                total += prob
        return total

    law3 = weighted_sum_law([1, 2, 3], [1.0, 0.5, 1 / 3])
    assert law3.prob(3) == pytest.approx(enum_prob(3), abs=1e-14)
    assert law3.prob(3) == pytest.approx(1 / 3, abs=1e-14)
    law2 = weighted_sum_law([1, 2], [1.0, 0.5])
    assert law2.prob(1) == pytest.approx(0.5, abs=1e-15)


def test_weighted_sum_all_zero_probs():
    law = weighted_sum_law([3, 5, 7], [0.0, 0.0, 0.0])
    assert law.prob(0) == 1.0
    assert len(law.support) == 1


def test_weighted_sum_matches_binomial_for_unit_weights():
    law = weighted_sum_law([1] * 12, [0.3] * 12)
    binom = sum_law(bernoulli(0.3), 12)
    assert np.max(np.abs(law.probs - binom.probs)) < 1e-13


def test_weighted_sum_cap_tracks_overflow():
    law = weighted_sum_law([1, 2, 3], [1.0, 0.5, 1 / 3], max_value=3)
    full = weighted_sum_law([1, 2, 3], [1.0, 0.5, 1 / 3])
    for k in range(4):
        assert law.prob(k) == pytest.approx(full.prob(k), abs=1e-15)
    assert law.beyond_mass == pytest.approx(
        sum(full.prob(k) for k in range(4, 7)), abs=1e-14)


def test_weighted_sum_law_rejects_negative_cap():
    for cap in (-1, -3):
        with pytest.raises(PreconditionError, match="max_value"):
            weighted_sum_law([1, 2], [0.5, 0.5], max_value=cap)
    law = weighted_sum_law([1, 2], [0.5, 0.5], max_value=0)
    assert law.dense.tolist() == [0.25] and law.beyond_mass == 0.75


def test_joint_law_bernoulli_cells():
    p = bernoulli(0.5)
    j = joint_law(p, 1, 2)
    assert j.prob(1, 2) == pytest.approx(0.25, abs=1e-15)
    assert j.prob(0, 2) == 0.0
    j2 = joint_law(p, 2, 4)
    # independence of increments: P(S_2=1) P(S_2 = 2-1) = (1/2)(1/2); oracle
    # by enumeration over the 16 coin paths below
    count = sum(1 for bits in itertools.product((0, 1), repeat=4)
                if sum(bits[:2]) == 1 and sum(bits) == 2)
    assert j2.prob(1, 2) == pytest.approx(count / 16, abs=1e-15)
    assert j2.prob(1, 2) == pytest.approx(0.25, abs=1e-15)


def test_joint_law_marginals_match_sum_laws():
    rng = seeded(4)
    for _ in range(5):
        p = random_pmf(rng, max_atoms=4, window=5)
        m, n = 2, 5
        j = joint_law(p, m, n)
        law_m = sum_law(p, m)
        law_n = sum_law(p, n)
        marg_a = j.table.sum(axis=1)
        for i, a in enumerate(j.a_indices):
            assert marg_a[i] == pytest.approx(law_m.prob(int(a)), abs=1e-10)
        marg_b = j.table.sum(axis=0)
        for i, b in enumerate(j.b_indices):
            assert marg_b[i] == pytest.approx(law_n.prob(int(b)), abs=1e-10)


def test_joint_law_every_cell_is_a_product_of_two_sum_laws():
    laws = (bernoulli(0.3), LatticePmf(0.0, 1.0, {-1: 0.25, 0: 0.5, 1: 0.25}),
            LatticePmf(0.5, 1.0, {0: 0.2, 2: 0.5, 3: 0.3}))
    for p in laws:
        for m, n in ((1, 2), (3, 7), (10, 40), (39, 40)):
            j = joint_law(p, m, n)
            law_m, law_inc, law_n = sum_law(p, m), sum_law(p, n - m), sum_law(p, n)
            assert j.a_indices.tolist() == list(range(law_m.offset,
                                                      law_m.offset + len(law_m.dense)))
            assert j.b_indices.tolist() == list(range(law_n.offset,
                                                      law_n.offset + len(law_n.dense)))
            for ia, a in enumerate(j.a_indices.tolist()):
                for ib, b in enumerate(j.b_indices.tolist()):
                    assert j.table[ia, ib] == law_m.prob(a) * law_inc.prob(b - a)


def _grid_side_limit_sup(law, center, scale):
    """Dense-grid oracle for the sup CDF distance with side limits."""
    supp = law.support
    xs = (law.points(supp) - center) / scale
    masses = law.probs[supp - law.offset]
    cdf_at = np.cumsum(masses)
    grid = np.concatenate([xs - 1e-9, xs + 1e-9, np.linspace(xs[0] - 5, xs[-1] + 5, 2000)])
    worst = 0.0
    for x in grid:
        f = cdf_at[np.searchsorted(xs, x, side="left") - 1] if x > xs[0] else 0.0
        if x > xs[-1]:
            f = 1.0
        worst = max(worst, abs(f - ndtr(x)))
    return worst


def test_sup_cdf_distance_one_coin_uncentered():
    # with caller-supplied centering 0 and scale sigma*sqrt(n), the jump at
    # x = 0 gives |0 - Phi(0)| = 1/2
    law = sum_law(bernoulli(0.5), 1)
    assert sup_cdf_distance(law, center=0.0, scale=0.5) == pytest.approx(0.5, abs=1e-15)


def test_sup_cdf_distance_matches_grid_oracle():
    rng = seeded(12)
    for _ in range(6):
        p = random_pmf(rng, max_atoms=5, window=6)
        law = sum_law(p, int(rng.integers(1, 9)))
        if law.meta.sigma2 <= 0:
            continue
        center, scale = law.meta.mu, math.sqrt(law.meta.sigma2)
        got = sup_cdf_distance(law)
        oracle = _grid_side_limit_sup(law, center, scale)
        assert got == pytest.approx(oracle, abs=2e-6)
        assert got >= oracle - 1e-12  # jump evaluation dominates any grid point


def test_sup_cdf_distance_berry_esseen_window():
    val = sup_cdf_distance(sum_law(bernoulli(0.5), 100))
    assert 0.0 < val < 0.08


def test_sup_cdf_distance_self_reference_zero():
    law = sum_law(bernoulli(0.3), 7)
    assert lattice_cdf_sup_distance(law, law) == 0.0


def test_residues_mod():
    law = sum_law(bernoulli(0.5), 20)
    res = residues_mod(law, 2)
    assert res[0] == pytest.approx(0.5, abs=1e-6)
    span2 = LatticePmf(0.0, 1.0, {0: 0.5, 2: 0.5})
    res2 = residues_mod(sum_law(span2, 9), 2)
    assert res2[0] == 1.0 and res2[1] == 0.0


def test_running_convolution_matches_sum_law():
    p = uniform_range(0, 3)
    run = RunningConvolution(p)
    for n in range(1, 9):
        run.step()
        law = sum_law(p, n)
        for k in law.support:
            assert run.prob(int(k)) == pytest.approx(law.prob(int(k)), abs=1e-12)


def test_sum_law_precondition():
    with pytest.raises(PreconditionError):
        sum_law(bernoulli(0.5), 0)


def _naive_weighted_law(a, q, top):
    """Reference DP: one fresh array per step over the whole reachable range."""
    law = np.zeros(top + 1)
    law[0] = 1.0
    hi, beyond = 0, 0.0
    for ak, qk in zip(a, q):
        if qk == 0.0 or ak == 0:
            continue
        new_hi = min(hi + ak, top)
        if ak <= top:
            src_hi = min(hi, top - ak)
            shifted = np.zeros(new_hi + 1)
            shifted[ak:ak + src_hi + 1] = law[:src_hi + 1] * qk
            if hi > src_hi:
                beyond += float(law[src_hi + 1:hi + 1].sum()) * qk
            out = law[:new_hi + 1] * (1.0 - qk)
            out += shifted
            law = np.zeros(top + 1)
            law[:new_hi + 1] = out
        else:
            beyond += float(law[:hi + 1].sum()) * qk
            law = law * (1.0 - qk)
        hi = new_hi
    return law[:hi + 1], beyond


def test_weighted_sum_law_bit_identical_to_naive_dp():
    rng = seeded(21)
    for case in range(120):
        k = int(rng.integers(1, 25))
        a = [int(v) for v in rng.integers(0, 20, size=k)]
        # q = 1e-200 underflows every product with a small mass to exactly 0.0
        q = [float(v) for v in rng.choice([0.0, 1.0, 0.01, 1e-200, rng.random()], size=k)]
        if case % 3 == 0:
            q = [float(v) for v in rng.random(k)]
        total = sum(a)
        for cap in (None, max(total - 7, 0), total, total + 5, max(max(a) - 1, 0)):
            law = weighted_sum_law(a, q, max_value=cap)
            dense, beyond = _naive_weighted_law(a, q, total if cap is None else min(total, cap))
            assert law.dense.tobytes() == dense.tobytes(), (a, q, cap)
            assert law.beyond_mass == beyond, (a, q, cap)


def _reference_dickman_expectation(N, x):
    """The Dickman expectation as a hand-written DP, one fresh array per step."""
    cap = int(math.floor(x * N + 0.5)) + 1
    law = np.zeros(cap + 1)
    law[0] = 1.0
    hi, acc = 0, 0.0
    for n in range(1, N + 1):
        q = 1.0 / n
        new_hi = min(hi + n, cap)
        if n <= cap:
            src_hi = min(hi, cap - n)
            out = law[:new_hi + 1] * (1.0 - q)
            out[n:n + src_hi + 1] += law[:src_hi + 1] * q
            law[:new_hi + 1] = out
        else:
            law[:hi + 1] *= 1.0 - q
        hi = new_hi
        kappa = math.floor(x * n + 0.5)
        if kappa <= hi:
            acc += law[kappa]
    return acc / math.log(N)


def test_dickman_expectation_bit_identical_to_reference_loop():
    rho = dickman_rho(u_max=4.0)
    for N in (2, 3, 17, 100, 300):
        for x in (0.5, 1.0, 1.7, 3.0):
            assert dickman_expectation(N, x, rho) == _reference_dickman_expectation(N, x), (N, x)


class _FlatnonzeroRun:
    """Reference running convolution: trim at flatnonzero(probs >= floor)."""

    def __init__(self, p, floor):
        self.base, self.base_off, self.floor = p.dense, p.offset, floor
        self.offset, self.probs, self.lost_mass = 0, np.array([1.0]), 0.0

    def step(self):
        self.probs = np.convolve(self.probs, self.base)
        self.offset += self.base_off
        keep = np.flatnonzero(self.probs >= self.floor)
        if len(keep) and (keep[0] > 0 or keep[-1] < len(self.probs) - 1):
            lo, hi = keep[0], keep[-1]
            self.lost_mass += float(self.probs[:lo].sum() + self.probs[hi + 1:].sum())
            self.probs = self.probs[lo:hi + 1].copy()
            self.offset += int(lo)


def test_running_convolution_trim_matches_flatnonzero_reference():
    gappy = LatticePmf(0.0, 1.0, {0: 0.5, 3: 1e-40, 9: 0.5 - 1e-40})
    laws = [bernoulli(0.5), bernoulli(0.03), uniform_range(-2, 3), gappy]
    # floor 1.0 puts every atom below the floor: such a window is never trimmed
    for p, floor in [(p, 1e-30) for p in laws] + [(gappy, 1e-3), (bernoulli(0.5), 1.0)]:
        run, ref = RunningConvolution(p, floor=floor), _FlatnonzeroRun(p, floor)
        for _ in range(300):
            run.step()
            ref.step()
            assert run.offset == ref.offset
            assert run.probs.tobytes() == ref.probs.tobytes()
            assert run.lost_mass == ref.lost_mass
    # interior atoms below the floor stay in the window
    run = RunningConvolution(gappy, floor=1e-3)
    run.step()
    run.step()
    assert (run.offset, len(run.probs)) == (0, 19)
    assert 0.0 < run.prob(6) < run.prob(3) < 1e-3


def test_running_convolution_trims_edges_like_the_reference():
    # ten atoms below the floor at each edge: the first steps trim 8 or more atoms per edge,
    # past the atoms that step reads in Python; later steps trim a few
    tails = {k: 1e-35 for k in range(-12, -2)} | {k: 1e-35 for k in range(3, 13)}
    wide = LatticePmf(0.0, 1.0, tails | {-1: 0.25, 0: 0.5 - 2e-34, 1: 0.25})
    # three trimmed atoms whose sum depends on the order: (a + b) + b = a < (b + b) + a
    a, b = 1e-31, 8e-48
    ordered = LatticePmf(0.0, 1.0, {0: 0.5, 1: 0.5 - a - 2 * b, 2: a, 3: b, 4: b})
    assert (a + b) + b != (b + b) + a
    for p, floor, wide_cut in ((wide, 1e-30, True), (uniform_range(-9, 9), 0.05, True),
                               (bernoulli(0.5), 1e-30, False), (ordered, 1e-30, False)):
        run, ref = RunningConvolution(p, floor=floor), _FlatnonzeroRun(p, floor)
        most = 0
        for _ in range(200):
            full = len(run.probs) + len(p.dense) - 1
            run.step()
            ref.step()
            assert run.offset == ref.offset
            assert run.probs.tobytes() == ref.probs.tobytes()
            assert run.lost_mass == ref.lost_mass
            most = max(most, full - len(run.probs))
        assert (most >= 16) == wide_cut, p
    first = RunningConvolution(wide)
    first.step()
    assert (first.offset, len(first.probs)) == (-1, 3)


class _PowerRun:
    """Reference block move: T_j = T_{j-1} T1 by np.convolve in long double, rounded once;
    the window moves by T_r and is trimmed at flatnonzero(mass >= floor)."""

    def __init__(self, T1, shift, window, floor, block):
        S = len(T1)
        self.T, self.shift, self.floor = [T1.astype(np.longdouble)], shift, floor
        self.offset, self.probs, self.lost_mass = 0, np.array(window, dtype=np.float64), 0.0
        for _ in range(1, block):
            prev, one = self.T[-1], self.T[0]
            self.T.append(np.array([[sum(np.convolve(prev[s, u], one[u, t]) for u in range(S))
                                     for t in range(S)] for s in range(S)]))

    def advance(self, r):
        T = self.T[r - 1].astype(np.float64)
        S = len(T)
        self.probs = np.stack([sum(np.convolve(self.probs[:, s], T[s, t]) for s in range(S))
                               for t in range(S)], axis=1)
        self.offset += r * self.shift
        mass = self.probs.sum(axis=1)
        keep = np.flatnonzero(mass >= self.floor)
        if len(keep) and (keep[0] > 0 or keep[-1] < len(mass) - 1):
            lo, hi = keep[0], keep[-1]
            self.lost_mass += float(mass[:lo].sum() + mass[hi + 1:].sum())
            self.probs = self.probs[lo:hi + 1].copy()
            self.offset += int(lo)


def _block_models():
    for name, p in (("bernoulli(0.2)", bernoulli(0.2)), ("lazy", lazy_walk()),
                    ("uniform(0, 4)", uniform_range(0, 4))):
        yield name, lambda p=p: RunningConvolution(p), (p.dense[None, None], p.offset, [[1.0]])
    P = TwoStateChain(0.3, 0.6).transition()
    *_, table = _visit_tables(P, TwoStateChain(0.3, 0.6).pi, 40)
    T1 = np.zeros((2, 2, 2))
    for s, t in itertools.product(range(2), repeat=2):
        T1[s, t, t] = P[s, t]  # a step into state 1 adds a one
    yield "chain(0.3, 0.6)", lambda: TransferConvolution(P, table, 40), (T1, 0, table.copy())


@pytest.mark.parametrize("name,make,start", [pytest.param(*m, id=m[0]) for m in _block_models()])
def test_advance_matches_a_long_double_power_reference_bit_for_bit(name, make, start):
    run = make()
    ref = _PowerRun(*start, run.floor, run.block)
    B = run.block
    # full blocks, partial blocks and single steps, far enough for both edges to be trimmed
    for r in [B] * 8 + [B // 2 - 3, 1, 7, B, 3, B - 1] + [B] * 6:
        if r == 1:
            run.step()
        else:
            run.advance(np.zeros(r, dtype=np.int64))
        ref.advance(r)
        assert run.offset == ref.offset, (name, r)
        assert run.probs.tobytes() == ref.probs.tobytes(), (name, r)
        assert run.lost_mass == ref.lost_mass, (name, r)
    assert run.lost_mass > 0.0 and ref.offset > start[1] * run.n  # the low edge was trimmed


def test_asllt_expectation_matches_per_step_targets():
    for p, kappa in ((bernoulli(0.5), 0.37), (uniform_range(0, 4), -1.1), (bernoulli(0.2), 0.0)):
        rule = KappaRule.for_pmf(p, kappa)
        run = RunningConvolution(p)
        acc = 0.0
        for n in range(1, 2001):
            run.step()
            acc += run.prob(int(rule.index(n))) / math.sqrt(n)
        assert asllt_expectation(p, kappa, 2000) == acc / math.log(2000)


def test_fft_convolution_bit_identical_to_scipy_signal():
    from scipy.signal import fftconvolve

    rng = seeded(5)
    for la, lb in ((1, 5000), (3, 4097), (700, 10_000), (5000, 5000), (8193, 6000)):
        a, b = rng.random(la), rng.random(lb)
        want = np.maximum(fftconvolve(a, b), 0.0)
        assert _convolve(a, b, "fft").tobytes() == want.tobytes(), (la, lb)


def test_fft_self_product_transforms_once_bit_identical_to_scipy_signal():
    from scipy.signal import fftconvolve

    rng = seeded(6)
    for n in (4097, 5000, 8193, 1 << 14):
        a = rng.random(n)
        want = np.maximum(fftconvolve(a, a), 0.0).tobytes()
        assert _convolve(a, a, "fft").tobytes() == want, n
        assert _convolve(a, a.copy(), "fft").tobytes() == want, n


def test_law_arrays_are_read_only():
    p = uniform_range(0, 4)
    with pytest.raises(ValueError):
        p.dense[0] = 0.5
    law = sum_law(p, 6)
    with pytest.raises(ValueError):
        law.dense[0] = 0.5
    with pytest.raises(ValueError):
        law.dense *= 2.0
    capped = sum_law(p, 6, max_index=10)
    with pytest.raises(ValueError):
        capped.dense[-1] = 0.0
    assert capped.dense.base is None  # the capped window does not hold the whole product


def test_repeated_sum_law_is_bytes_equal():
    rng = seeded(41)
    for p in [bernoulli(0.3), uniform_range(-2, 3)] + [random_pmf(rng) for _ in range(4)]:
        capped = ((64, 64 * p.offset + 40),) if p.offset >= 0 else ()
        for n, cap in ((1, None), (9, None), (64, None), (300, None)) + capped:
            first = sum_law(p, n, max_index=cap)
            assert sum_law(p, n, max_index=cap) is first  # a repeated call reuses the table
            sum_law.cache_clear()
            again = sum_law(p, n, max_index=cap)
            assert first.dense.tobytes() == again.dense.tobytes()
            assert (first.offset, first.lost_mass, first.beyond_mass) == \
                (again.offset, again.lost_mass, again.beyond_mass)


def test_equal_laws_give_bytes_equal_tables():
    masses = {-1: 0.2, 0: 0.45, 2: 0.35}
    p, q = LatticePmf(0.5, 1.0, masses), LatticePmf(0.5, 1.0, masses)
    assert p is not q
    for n in (1, 7, 128, 2000):
        a, b = sum_law(p, n), sum_law(q, n)
        assert a.dense.tobytes() == b.dense.tobytes()
        assert (a.offset, a.origin, a.lost_mass, a.beyond_mass, a.meta) == \
            (b.offset, b.origin, b.lost_mass, b.beyond_mass, b.meta)


def test_joint_law_checks_the_budget_before_building_the_table(monkeypatch):
    from llt_lab import exact
    from llt_lab.errors import ResourceLimitError
    from llt_lab.lattice import lazy_walk

    monkeypatch.setattr(exact, "MAX_WINDOW", 1000)
    with pytest.raises(ResourceLimitError, match="joint table"):
        joint_law(lazy_walk(), 100, 400)  # 201 x 801 cells
    monkeypatch.setattr(exact, "MAX_WINDOW", 5 * 9)
    assert joint_law(lazy_walk(), 2, 4).table.shape == (5, 9)
    with pytest.raises(ResourceLimitError, match="joint table"):
        joint_law(lazy_walk(), 2, 5)


def test_sup_cdf_distance_rejects_a_scale_that_is_not_finite_and_positive():
    from llt_lab.errors import DegenerateLawError

    law = sum_law(bernoulli(0.5), 16)
    for scale in (math.inf, math.nan, 0.0):
        with pytest.raises(DegenerateLawError, match="scale must be finite and positive"):
            sup_cdf_distance(law, scale=scale)
