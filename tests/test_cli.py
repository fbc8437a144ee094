import json
import subprocess
import sys
import time

import pytest

from llt_lab.cli import main, parse_dist, parse_grid


def run_cli(args, tmp_path):
    return main(args + ["--out", str(tmp_path)])


def test_parse_dist_families():
    assert parse_dist("bernoulli:0.5").weights[1] == 0.5
    assert len(parse_dist("uniform:1..6").support) == 6
    assert parse_dist("coin").D == 2.0
    assert parse_dist("lazy").weights[0] == 0.5
    assert parse_dist("power_tail:0.5").family["alpha"] == 0.5


def test_parse_grid():
    assert parse_grid("16..128") == [16, 32, 64, 128]
    assert parse_grid("3,7,11") == [3, 7, 11]


def test_parse_grid_rejects_ranges_outside_one_to_b(tmp_path, capsys):
    from llt_lab.errors import LltLabError

    assert parse_grid("1..1") == [1]
    for text in ("0..8", "-4..8", "16..8"):
        with pytest.raises(LltLabError, match="1 <= a <= b"):
            parse_grid(text)
    capsys.readouterr()
    assert run_cli(["delta-n", "--dist", "bernoulli:0.5", "--n", "16..8"], tmp_path) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "LltLabError"
    assert not (tmp_path / "delta_n.csv").exists()


def test_delta_n_command(tmp_path):
    assert run_cli(["delta-n", "--dist", "bernoulli:0.5", "--n", "16..64"], tmp_path) == 0
    body = (tmp_path / "delta_n.csv").read_text()
    assert "delta_n" in body
    assert body.count("\n") == 5  # comment + header + 3 rows


def test_delta_n_reproducible_bytes(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    run_cli(["delta-n", "--dist", "uniform:0..3", "--n", "8..32"], a_dir)
    run_cli(["delta-n", "--dist", "uniform:0..3", "--n", "8..32"], b_dir)
    assert (a_dir / "delta_n.csv").read_bytes() == (b_dir / "delta_n.csv").read_bytes()


def test_asllt_ce_on_a_drifting_walk_exits_2(tmp_path, capsys):
    code = run_cli(["asllt", "--kind", "ce", "--dist", "bernoulli:0.5", "--a", "3",
                    "--N", "5000"], tmp_path)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PreconditionError"
    assert "visited finitely often in expectation" in err["detail"]
    assert not (tmp_path / "asllt_ce.csv").exists()


def test_asllt_ce_rejects_a_drifting_walk_before_computing_masses(tmp_path, capsys):
    start = time.perf_counter()
    code = run_cli(["asllt", "--kind", "ce", "--dist", "bernoulli:0.5", "--a", "3",
                    "--N", "1000000"], tmp_path)
    elapsed = time.perf_counter() - start
    assert code == 2
    assert "visited finitely often in expectation" in json.loads(capsys.readouterr().err)["detail"]
    assert elapsed < 2.0  # the hit masses over 10^6 steps would take several seconds


def test_asllt_command_dickman(tmp_path):
    assert run_cli(["asllt", "--kind", "dickman", "--x", "1.0", "--N", "2000",
                    "--seed", "7"], tmp_path) == 0
    lines = (tmp_path / "asllt_dickman.csv").read_text().strip().splitlines()
    assert lines[0] == "kind,seed,N,estimate,target"
    assert all(line.startswith("dickman,7,") for line in lines[1:])


def test_asllt_command_seeds_parallel(tmp_path):
    assert run_cli(["asllt", "--kind", "t1", "--dist", "bernoulli:0.5", "--N", "512",
                    "--seeds", "0:4"], tmp_path) == 0
    lines = (tmp_path / "asllt_t1.csv").read_text().strip().splitlines()
    seeds = {line.split(",")[1] for line in lines[1:]}
    assert seeds == {"0", "1", "2", "3"}


def test_asllt_reproducible(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    args = ["asllt", "--kind", "markov", "--p01", "0.4", "--p10", "0.5",
            "--N", "1000", "--seeds", "0:3"]
    run_cli(args, a_dir)
    run_cli(args, b_dir)
    assert (a_dir / "asllt_markov.csv").read_bytes() == (b_dir / "asllt_markov.csv").read_bytes()


def test_dickman_rho_command(tmp_path):
    assert run_cli(["dickman-rho", "--u-max", "3"], tmp_path) == 0
    lines = (tmp_path / "dickman_rho.csv").read_text().strip().splitlines()
    assert lines[1] == "u,rho"
    assert len(lines) == 2 + 3 * 1024 + 1


def test_stable_error_command(tmp_path):
    assert run_cli(["stable-error", "--alpha", "0.5", "--n", "4,8",
                    "--x-max", "40"], tmp_path) == 0
    assert (tmp_path / "stable_error.csv").exists()


def test_characteristics_command(tmp_path):
    assert run_cli(["characteristics", "--dist", "uniform:0..5"], tmp_path) == 0
    assert (tmp_path / "characteristics.csv").exists()


def test_sum_law_command(tmp_path):
    assert run_cli(["sum-law", "--dist", "bernoulli:0.5", "--N", "4"], tmp_path) == 0
    lines = (tmp_path / "sum_law_4.csv").read_text().strip().splitlines()
    assert lines[0] == "k,value_point,mass"
    assert len(lines) == 6


def test_svg_output(tmp_path):
    run_cli(["delta-n", "--dist", "bernoulli:0.5", "--n", "8..32",
             "--format", "svg"], tmp_path)
    svg = (tmp_path / "delta_n.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_malformed_spec_json_error(tmp_path, capsys):
    code = main(["delta-n", "--dist", "nonsense:1.0", "--n", "8..16",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    obj = json.loads(err.strip().splitlines()[-1])
    assert "error" in obj and "detail" in obj


def test_verify_trends_suite_passes(capsys):
    assert main(["verify", "--suite", "trends"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "llt_lab.cli", "delta-n",
                           "--dist", "bernoulli:0.5", "--n", "8..16",
                           "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "delta_n.csv").exists()


def test_cli_import_leaves_out_scipy_signal_and_stats():
    # all four are slow to import and the CLI does not need them at start
    code = ("import sys, llt_lab.cli; "
            "print([m for m in ('scipy.signal', 'scipy.stats', 'scipy.integrate', "
            "'scipy.optimize') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_asllt_rejects_empty_seed_range(tmp_path, capsys):
    for fmt in ("csv", "svg"):
        code = run_cli(["asllt", "--kind", "t1", "--N", "100", "--seeds", "5:3",
                        "--format", fmt], tmp_path)
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "LltLabError"
    assert list(tmp_path.iterdir()) == []


def test_format_flag_only_where_an_svg_is_written(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["stable-error", "--alpha", "0.5", "--n", "4", "--format", "svg"], tmp_path)
    assert exc.value.code == 2


NAN_SPECS = {
    "nan_mass": '{"v0": 0, "D": 1, "pmf": [[0, 0.5], [1, NaN], [2, 0.5]]}',
    "nan_origin": '{"v0": NaN, "D": 1, "pmf": [[0, 0.5], [1, 0.5]]}',
    "infinite_span": '{"v0": 0, "D": Infinity, "pmf": [[0, 0.5], [1, 0.5]]}',
}


@pytest.mark.parametrize("spec", sorted(NAN_SPECS))
@pytest.mark.parametrize("command", [["sum-law", "--N", "3"], ["delta-n", "--n", "4,8"]])
def test_non_finite_spec_exits_2(tmp_path, capsys, spec, command):
    path = tmp_path / "spec.json"
    path.write_text(NAN_SPECS[spec])
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(command[:1] + ["--dist", str(path)] + command[1:], out) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert list(out.iterdir()) == []


def test_power_tail_nan_exits_2_with_a_typed_error(tmp_path, capsys):
    assert run_cli(["sum-law", "--dist", "power_tail:nan", "--N", "3"], tmp_path) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "UnsupportedParameterError"


def test_characteristics_of_a_wide_law_exits_2(tmp_path, capsys):
    assert run_cli(["characteristics", "--dist", "uniform:0..9000"], tmp_path) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ResourceLimitError"
    assert not (tmp_path / "characteristics.csv").exists()


@pytest.mark.parametrize("kind", ["t1", "ce"])
def test_asllt_parses_the_dist_once(tmp_path, monkeypatch, kind):
    import llt_lab.cli as cli

    calls = []

    def counting(spec):
        calls.append(spec)
        return parse_dist(spec)

    monkeypatch.setattr(cli, "parse_dist", counting)
    assert run_cli(["asllt", "--kind", kind, "--dist", "lazy", "--N", "200",
                    "--seeds", "0:6"], tmp_path) == 0
    assert calls == ["lazy"]


@pytest.mark.parametrize("args,name", [
    (["dickman-rho", "--u-max", "3"], "dickman_rho.csv"),
    (["stable-error", "--alpha", "0.5", "--n", "4", "--x-max", "40"], "stable_error.csv"),
    (["characteristics", "--dist", "uniform:-2..3"], "characteristics.csv"),
    (["sum-law", "--dist", "coin", "--N", "9"], "sum_law_9.csv"),
])
def test_table_commands_rerun_byte_identical(tmp_path, args, name):
    bodies = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        assert run_cli(args, out) == 0
        bodies.append((out / name).read_bytes())
    assert bodies[0] == bodies[1]


MALFORMED_SPECS = {
    "fractional_index": '{"v0": 0, "D": 1, "pmf": [[0.5, 0.5], [2, 0.5]]}',
    "pmf_not_a_list": '{"v0": 0, "D": 1, "pmf": 5}',
    "top_level_list": '[[0, 0.5], [1, 0.5]]',
}


@pytest.mark.parametrize("spec", sorted(MALFORMED_SPECS))
def test_malformed_explicit_spec_exits_2(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(MALFORMED_SPECS[spec])
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(["sum-law", "--dist", str(path), "--N", "2"], out) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("spec", ['{"family": "power_tail", "alpha": "x"}',
                                  '{"family": "power_tail"}',
                                  '{"family": "power_tail", "alpha": 1.5, "c": null}'])
def test_malformed_power_tail_spec_exits_2(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(["sum-law", "--dist", str(path), "--N", "2"], out) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("args", [["--kind", "t1", "--kappa", "nan"],
                                  ["--kind", "markov", "--kappa", "inf"],
                                  ["--kind", "dickman", "--x", "nan"]])
def test_asllt_non_finite_target_exits_2(tmp_path, capsys, args):
    assert run_cli(["asllt", "--N", "100"] + args, tmp_path) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "PreconditionError"
    assert list(tmp_path.iterdir()) == []


VERIFY_CHECKS = (
    "delta = 2(1 - theta)", "coin-extraction reconstruction", "smoothed-sum variance identity",
    "sum decomposition identity", "variance >= (1/4) theta", "D(X,d) >= d^2 theta/4",
    "nu/(2h^3) <= D(X,1/h) <= nu/4", "cf bounds via H", "cf bound via delta",
    "delta shrinks under convolution", "poisson full-sum bound", "pointwise poisson bound",
    "worked binomial example", "coupling rows sum to one", "scaled local error decreasing",
    "variation distance decreasing", "dickman value at 2", "span-1 pmf local error small",
)


def test_verify_all_suites_pass(capsys):
    assert main(["verify", "--suite", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  (")[0] for line in lines[:-1]] == [f"[PASS] {c}" for c in VERIFY_CHECKS]
    assert lines[-1] == "18/18 checks passed"


def test_verify_and_count_tails_leave_out_scipy_stats():
    code = ("import sys; from llt_lab.cli import main; "
            "from llt_lab.bernoulli_part import rho_exact_iid; "
            "rc = main(['verify', '--suite', 'all']); rho_exact_iid(256, 0.3, 0.5); "
            "print(rc, 'scipy.stats' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("args,error", [
    (["dickman-rho", "--step", "0"], "PreconditionError"),
    (["dickman-rho", "--step", "-0.001"], "PreconditionError"),
    (["dickman-rho", "--u-max", "inf"], "PreconditionError"),
    (["stable-error", "--alpha", "0.5", "--n", "8", "--x-max", "inf"], "PreconditionError"),
])
def test_bad_numeric_flags_exit_2_with_a_typed_error(tmp_path, capsys, args, error):
    assert run_cli(args, tmp_path) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert list(tmp_path.iterdir()) == []


def test_dickman_rho_grid_over_budget_exits_2(tmp_path, capsys, monkeypatch):
    from llt_lab import asllt

    monkeypatch.setattr(asllt, "MAX_WINDOW", 1 << 12)  # --u-max 1e6 would ask for ~1e9 nodes
    assert run_cli(["dickman-rho", "--u-max", "5"], tmp_path) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ResourceLimitError"


ASLLT_POOLS = {
    "t1": ["--dist", "uniform:0..3", "--kappa", "0.4", "--N", "40000"],
    "markov": ["--p01", "0.3", "--p10", "0.55", "--kappa", "-0.2", "--N", "40000"],
    "dickman": ["--x", "1.5", "--N", "40000"],
    "ce": ["--dist", "lazy", "--a", "0", "--N", "3000"],
}


@pytest.mark.parametrize("kind", sorted(ASLLT_POOLS))
def test_asllt_csv_bytes_do_not_depend_on_the_number_of_seed_batches(tmp_path, monkeypatch,
                                                                     kind):
    bodies = set()
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("LLT_LAB_THREADS", threads)
        out = tmp_path / threads
        out.mkdir()
        assert main(["asllt", "--kind", kind, "--seeds", "0:7", "--out", str(out)]
                    + ASLLT_POOLS[kind]) == 0
        body = (out / f"asllt_{kind}.csv").read_bytes()
        seeds = [line.split(b",")[1] for line in body.splitlines()[1:]]
        assert seeds == sorted(seeds, key=int) and len(set(seeds)) == 7
        bodies.add(body)
    assert len(bodies) == 1


def test_seed_batches_are_consecutive_runs_of_near_equal_length():
    from llt_lab.cli import _seed_batches

    for n in range(1, 12):
        seeds = list(range(100, 100 + n))
        for k in range(1, n + 1):
            batches = _seed_batches(seeds, k)
            assert len(batches) == k and sum(batches, []) == seeds
            assert max(map(len, batches)) - min(map(len, batches)) <= 1


def test_asllt_svg_output(tmp_path, capsys):
    assert run_cli(["asllt", "--kind", "t1", "--N", "1000", "--seeds", "0:3",
                    "--format", "svg"], tmp_path) == 0
    svg = (tmp_path / "asllt_t1.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert capsys.readouterr().out.splitlines() == [f"wrote {tmp_path / 'asllt_t1.csv'}",
                                                    f"wrote {tmp_path / 'asllt_t1.svg'}"]


@pytest.mark.parametrize("args", [
    ["delta-n", "--dist", "bernoulli:0.5", "--n", "8..16"],
    ["asllt", "--kind", "t1", "--N", "100"],
    ["dickman-rho", "--u-max", "3"],
    ["stable-error", "--alpha", "0.5", "--n", "4", "--x-max", "40"],
    ["characteristics", "--dist", "uniform:0..5"],
    ["sum-law", "--dist", "coin", "--N", "4"],
])
def test_out_must_be_an_existing_directory(tmp_path, capsys, args):
    afile = tmp_path / "file"
    afile.write_text("")
    for out in (tmp_path / "missing", afile):
        assert main(args + ["--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "LltLabError" and "not an existing directory" in err["detail"]
    assert sorted(tmp_path.iterdir()) == [afile]


def test_out_is_checked_before_any_work(tmp_path, capsys, monkeypatch):
    from llt_lab import asllt

    def no_masses(*args, **kwargs):
        raise AssertionError("hit masses computed before --out was checked")

    monkeypatch.setattr(asllt, "hit_mass_sequence", no_masses)
    assert main(["asllt", "--kind", "ce", "--dist", "lazy", "--N", "100000", "--seeds", "0:4",
                 "--out", str(tmp_path / "missing")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "LltLabError"
