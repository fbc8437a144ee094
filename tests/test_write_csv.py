"""Every table goes through ``lattice.write_csv``.

Each reference writer below spells one table out by hand, with ``csv`` and
``repr`` of every float; the tests assert that the package writes the same
bytes.
"""

import csv

import numpy as np
import pytest

from llt_lab import asllt as asl
from llt_lab import characteristics as ch
from llt_lab import poisson as ps
from llt_lab.approx import ApproxReport, delta_n_report, write_reports_csv
from llt_lab.cli import main
from llt_lab.exact import sum_law
from llt_lab.lattice import (
    LatticePmf,
    bernoulli,
    centered_coin,
    lazy_walk,
    uniform_range,
    write_csv,
)


def reference_reports_csv(path, reports, comment=""):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if comment:
            w.writerow([f"# {comment}"])
        w.writerow(["n", "metric", "exact", "approx", "error", "normalization"])
        for r in reports:
            w.writerow([r.n, r.metric, repr(r.exact), repr(r.approx),
                        repr(r.error), r.normalization])


def reference_paths_csv(path, estimates):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "seed", "N", "estimate", "target"])
        for est in estimates:
            for n, value in est.checkpoints:
                w.writerow([est.kind, est.seed, n, repr(value), repr(est.target)])


def reference_sum_law_csv(law, path):
    supp, masses = law.atoms()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "value_point", "mass"])
        writer.writerows(zip(supp.tolist(), map(repr, law.points(supp).tolist()),
                             map(repr, masses.tolist())))


def reference_characteristics_csv(rec, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["characteristic", "argument", "value"])
        w.writerow(["delta", "", repr(rec.delta)])
        w.writerow(["theta", "", repr(rec.theta)])
        for d, v in rec.mukhinD.items():
            w.writerow(["D", repr(d), repr(v)])
        for d, v in rec.H.items():
            w.writerow(["H", repr(d), repr(v)])
        for h, v in rec.nu.items():
            w.writerow(["nu", h, repr(v)])


def reference_coupling_csv(table, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "p", "both_one", "x_one_y_zero", "both_zero", "y_tail_total"])
        for i, (b1, xo, b0, tail) in enumerate(table.rows):
            w.writerow([i, repr(table.ps[i]), repr(b1), repr(xo), repr(b0),
                        repr(float(np.sum(tail)))])


def reference_gap_table_csv(path, law, lam):
    arr = ps._as_array(law)
    a, b = ps._aligned(arr, ps.poisson_pmf(lam, k_max=len(arr) - 1))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "exactMass", "poissonMass", "absGap"])
        for k in range(len(a)):
            w.writerow([k, repr(float(a[k])), repr(float(b[k])), repr(abs(float(a[k] - b[k])))])


def reference_dickman_rho_csv(path, rho, comment):
    rows = [[repr(i * rho.step), repr(float(v))] for i, v in enumerate(rho.values)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"# {comment}"])
        w.writerow(["u", "rho"])
        w.writerows(rows)


# shifted origins and spans D != 1 among them
SHIFTED = LatticePmf(0.25, 0.5, {-3: 0.2, 0: 0.5, 2: 0.3})
LAWS = [bernoulli(0.3), centered_coin(), lazy_walk(), uniform_range(-2, 4), SHIFTED,
        LatticePmf(-7.0, 3.0, {1: 0.125, 2: 0.375, 5: 0.5})]


def same_bytes(tmp_path, write_new, write_ref):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_new(new)
    write_ref(ref)
    return new.read_bytes() == ref.read_bytes()


def test_writer_comment_row_only_when_given(tmp_path):
    out = tmp_path / "t.csv"
    write_csv(out, ["a", "b"], [(1, 0.1), (2, 1e-300)])
    assert out.read_bytes() == b"a,b\r\n1,0.1\r\n2,1e-300\r\n"
    write_csv(out, ["a"], iter([(3,)]), comment="x, y")
    assert out.read_bytes() == b'"# x, y"\r\na\r\n3\r\n'


@pytest.mark.parametrize("comment", ["", "sup_m |B_n P(S_n=m) - g(m/B_n)|"])
def test_reports_csv_bytes(tmp_path, comment):
    reports = [delta_n_report(p, n) for p in LAWS[:4] for n in (4, 9)]
    reports.append(ApproxReport(3, "m", 1 / 3, 2e-300, -0.0, "none",
                                flags=(("truncation_mass_excessive", 0.5),)))
    assert same_bytes(tmp_path, lambda f: write_reports_csv(f, reports, comment=comment),
                      lambda f: reference_reports_csv(f, reports, comment))


def test_paths_csv_bytes(tmp_path):
    rho = asl.dickman_rho(u_max=4.0)
    paths = [asl.asllt_dickman_path(500, s, rho) for s in (0, 3)]
    paths += [asl.asllt_path(SHIFTED, 0.4, 300, 5),
              asl.markov_asllt_path(asl.TwoStateChain(0.3, 0.6), -0.2, 300, 1)]
    assert same_bytes(tmp_path, lambda f: asl.write_paths_csv(f, paths),
                      lambda f: reference_paths_csv(f, paths))


@pytest.mark.parametrize("n", [1, 5, 17])
def test_sum_law_csv_bytes(tmp_path, n):
    for p in LAWS:
        law = sum_law(p, n)
        assert same_bytes(tmp_path, law.to_csv, lambda f: reference_sum_law_csv(law, f))


def test_characteristics_csv_bytes(tmp_path):
    for p in LAWS:
        rec = ch.characteristics_record(p.relabel())
        assert same_bytes(tmp_path, rec.to_csv, lambda f: reference_characteristics_csv(rec, f))


def test_coupling_csv_bytes(tmp_path):
    for ps_row in ([0.1], [0.1, 0.3, 0.05, 0.7], [1e-9, 0.8]):
        table = ps.coupling(ps_row)
        assert same_bytes(tmp_path, table.to_csv, lambda f: reference_coupling_csv(table, f))


@pytest.mark.parametrize("law,lam", [
    (ps.poisson_binomial_law([0.1, 0.2, 0.3]), 0.6),
    (np.array([0.5, 0.3, 0.2]), 0.7),
    ([0.0, 0.25, 0.75], 1.75),
    (bernoulli(0.05), 0.05),
])
def test_gap_table_csv_bytes(tmp_path, law, lam):
    assert same_bytes(tmp_path, lambda f: ps.gap_table_csv(f, law, lam),
                      lambda f: reference_gap_table_csv(f, law, lam))


@pytest.mark.parametrize("u_max,step", [(3.0, 1.0 / 1024.0), (2.5, 1.0 / 2048.0)])
def test_dickman_rho_csv_bytes(tmp_path, u_max, step):
    assert main(["dickman-rho", "--u-max", str(u_max), "--step", str(step),
                 "--out", str(tmp_path)]) == 0
    ref = tmp_path / "ref.csv"
    reference_dickman_rho_csv(ref, asl.dickman_rho(u_max=u_max, step=step),
                              "solution of u r'(u) + r(u-1) = 0, r=1 on [0,1]")
    assert (tmp_path / "dickman_rho.csv").read_bytes() == ref.read_bytes()
