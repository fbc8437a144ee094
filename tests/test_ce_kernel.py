"""The Chung–Erdős estimator checks and totals its hit masses once per kernel: every seed batch
of one ``asllt --kind ce`` command shares them, with the rows of one pool over all the seeds."""

import pytest

from llt_lab import asllt as asl
from llt_lab.cli import main
from llt_lab.lattice import lazy_walk


def test_the_ce_command_checks_and_totals_its_masses_once(tmp_path, monkeypatch):
    calls = []
    hit_masses = asl._hit_masses

    def counting(*args, **kwargs):
        calls.append(args[:3])
        return hit_masses(*args, **kwargs)

    monkeypatch.setattr(asl, "_hit_masses", counting)
    monkeypatch.setenv("LLT_LAB_THREADS", "3")
    assert main(["asllt", "--kind", "ce", "--dist", "lazy", "--N", "3000", "--seeds", "0:6",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert len((tmp_path / "asllt_ce.csv").read_text().splitlines()) > 6


def _rows(estimates):
    return [(e.kind, e.seed, e.target, [(n, v.hex()) for n, v in e.checkpoints])
            for e in estimates]


@pytest.mark.parametrize("a", [0, 3])
def test_kernel_batches_give_the_rows_of_one_pool(a):
    N = 2 * asl._BLOCK + 1  # crosses two block boundaries
    kernel = asl.chung_erdos_kernel(lazy_walk(), a, N)
    got = _rows(kernel([0, 1]) + kernel([2]))
    assert got == _rows(asl.chung_erdos_paths(lazy_walk(), a, N, [0, 1, 2]))
