import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from alphaz.matrixio import dump_matrix, load_matrix
from alphaz.states import random_density, random_support_pair

from conftest import max_abs, near_orthogonal_pair


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "alphaz", *args],
        capture_output=True, text=True, env=env,
    )


class TestCompute:
    def test_example1_point(self):
        out = run_cli("compute", "--example1", "p=0.25", "--alpha", "2", "--z", "1")
        assert out.returncode == 0
        assert out.stdout.strip() == "0.980829253012"

    def test_self_pair_prints_zero(self, tmp_path):
        path = tmp_path / "rho.json"
        dump_matrix(random_density(3, 4), path)
        out = run_cli("compute", "--rho", str(path), "--sigma", str(path),
                      "--alpha", "2", "--z", "1")
        assert out.returncode == 0
        assert out.stdout.strip() == "0"

    def test_orthogonal_inf_reason(self, tmp_path):
        rho, sigma = random_support_pair(3, 42, rank=1, branch="orthogonal")
        rho_p, sigma_p = tmp_path / "rho.json", tmp_path / "sigma.json"
        dump_matrix(rho, rho_p)
        dump_matrix(sigma, sigma_p)
        out = run_cli("compute", "--rho", str(rho_p), "--sigma", str(sigma_p),
                      "--alpha", "2", "--z", "1")
        assert out.returncode == 0
        assert out.stdout.strip() == "inf support_violation"
        out = run_cli("compute", "--rho", str(rho_p), "--sigma", str(sigma_p),
                      "--alpha", "0.5", "--z", "1")
        assert out.stdout.strip() == "inf orthogonal_states"

    @pytest.mark.parametrize("family", ["alphaz", "petz", "mo"])
    def test_near_orthogonal_supports_are_orthogonal(self, tmp_path, capsys, family):
        from alphaz import cli

        # each cosine between the supports squares to 8e-13, below eps, and
        # so does rho's weight on supp sigma, above rho's zero threshold;
        # this pair once exited 4 with "trace functional collapsed to 0.0"
        rho, sigma = near_orthogonal_pair(0.8e-12)
        rho_p, sigma_p = tmp_path / "rho.json", tmp_path / "sigma.json"
        dump_matrix(rho, rho_p)
        dump_matrix(sigma, sigma_p)
        z = ["--z", "1"] if family == "alphaz" else []
        for alpha, expected in (("0.5", "inf orthogonal_states"), ("2", "inf support_violation")):
            code = cli.main(["compute", "--rho", str(rho_p), "--sigma", str(sigma_p),
                             "--family", family, "--alpha", alpha, *z])
            out = capsys.readouterr()
            assert (code, out.out.strip(), out.err) == (0, expected, "")

    @pytest.mark.parametrize("family", ["petz", "mo"])
    def test_near_orthogonal_supports_cut_to_inner_rank(self, tmp_path, capsys, family):
        from alphaz import cli

        # cosines squared 1.25e-12 and 0.25e-12, on both sides of eps: this
        # pair once exited 4 with "Petz dual-path mismatch"
        rho_p, sigma_p = tmp_path / "rho.json", tmp_path / "sigma.json"
        for operator, path in zip(near_orthogonal_pair(1.25e-12, 0.25e-12), (rho_p, sigma_p)):
            dump_matrix(operator, path)
        code = cli.main(["compute", "--rho", str(rho_p), "--sigma", str(sigma_p),
                         "--family", family, "--alpha", "0.5"])
        out = capsys.readouterr()
        assert (code, out.err) == (0, "")
        assert abs(float(out.out) + 2.0 * math.log(0.625e-12)) <= 1e-10

    def test_bits_is_nats_over_ln2(self):
        nats = float(run_cli("compute", "--example1", "0.25", "--alpha", "2",
                             "--z", "1").stdout)
        bits = float(run_cli("compute", "--example1", "0.25", "--alpha", "2",
                             "--z", "1", "--bits").stdout)
        assert abs(bits - nats / math.log(2)) <= 1e-12

    def test_families(self):
        sand = run_cli("compute", "--example1", "0.25", "--alpha", "2",
                       "--family", "sandwiched")
        assert sand.returncode == 0
        assert sand.stdout.strip() == "0.911492788817"
        mo = run_cli("compute", "--example1", "0.25", "--alpha", "2", "--family", "mo")
        assert mo.stdout.strip() == sand.stdout.strip()

    def test_inline_generator_spec(self):
        out = run_cli("compute",
                      "--rho", '{"generator": "density", "seed": 3, "dim": 4}',
                      "--sigma", '{"generator": "reference", "seed": 4, "dim": 4}',
                      "--alpha", "0.5", "--z", "2")
        assert out.returncode == 0
        float(out.stdout)  # parses as a number


class TestExitCodes:
    def test_z_zero_is_domain_error(self):
        out = run_cli("compute", "--example1", "0.25", "--alpha", "2", "--z", "0")
        assert out.returncode == 3
        assert "z = 0" in out.stderr

    def test_p_out_of_range_is_domain_error(self):
        out = run_cli("compute", "--example1", "1.5", "--alpha", "2", "--z", "1")
        assert out.returncode == 3

    def test_missing_file_is_usage_error(self):
        out = run_cli("compute", "--rho", "nope.json", "--sigma", "nope.json",
                      "--alpha", "2", "--z", "1")
        assert out.returncode == 2

    def test_missing_z_for_alphaz(self):
        out = run_cli("compute", "--example1", "0.25", "--alpha", "2")
        assert out.returncode == 2
        assert "--z" in out.stderr

    @pytest.mark.parametrize("family", ["petz", "sandwiched", "mo"])
    def test_z_outside_alphaz_is_usage_error(self, capsys, family):
        from alphaz import cli

        code = cli.main(["compute", "--example1", "0.25", "--alpha", "2",
                         "--family", family, "--z", "5"])
        out = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert "--z applies only to --family alphaz" in out.err
        assert out.out == ""

    def test_mistyped_spec_field_is_usage_error(self, capsys):
        from alphaz import cli

        sigma = '{"generator": "reference", "seed": 7, "dim": 2, "full_rank": "false"}'
        code = cli.main(["compute", "--rho", '{"generator": "density", "seed": 3, "dim": 2}',
                         "--sigma", sigma, "--alpha", "2", "--z", "1"])
        out = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert "'full_rank' must be a boolean" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("command", [
        ["compute", "--rho", '{"generator": "density", "seed": 3, "dim": 3}',
         "--alpha", "2", "--z", "1", "--sigma"],
        ["sweep", "--rho", '{"generator": "density", "seed": 3, "dim": 3}',
         "--alpha-grid", "0.5:2:2", "--z-grid", "1:1:1", "--out", "-", "--sigma"],
        ["dump", "--role", "sigma", "--out", "-", "--state"],
    ], ids=["compute", "sweep", "dump"])
    def test_unknown_spec_field_is_usage_error(self, capsys, command):
        # a misspelled field was once ignored: a full-rank reference, exit 0
        from alphaz import cli

        code = cli.main(command + ['{"generator": "reference", "seed": 1, "dim": 3, '
                                   '"full_rnak": false}'])
        out = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert "unknown state spec field 'full_rnak'" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("command", [
        ["compute", "--sigma", '{"generator": "density", "seed": 3, "dim": 2}',
         "--alpha", "2", "--z", "1", "--rho"],
        ["sweep", "--sigma", '{"generator": "density", "seed": 3, "dim": 2}',
         "--alpha-grid", "0.5:2:2", "--z-grid", "1:1:1", "--out", "-", "--rho"],
        ["dump", "--role", "rho", "--out", "-", "--state"],
    ], ids=["compute", "sweep", "dump"])
    @pytest.mark.parametrize("spec, message", [
        ('{"example1": {"p": 0.25, "q": 1}}', "unknown example1 spec field 'q'"),
        ('{"generator": "density", "seed": -5, "dim": 2}',
         "state spec field 'seed' must lie in [0, 2**64), got -5"),
        (f'{{"generator": "density", "seed": {2**126}, "dim": 2}}',
         f"state spec field 'seed' must lie in [0, 2**64), got {2**126}"),
    ], ids=["example1-extra-field", "negative-seed", "seed-2**126"])
    def test_bad_spec_field_is_usage_error(self, capsys, command, spec, message):
        # the extra field was once ignored (the p = 0.25 rho, exit 0), a
        # negative seed gave numpy's message, and a seed of 2**126 was used
        from alphaz import cli

        code = cli.main(command + [spec])
        out = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert message in out.err
        assert out.out == ""

    @pytest.mark.parametrize("command", [
        ["compute", "--sigma", '{"generator": "density", "seed": 3, "dim": 2}',
         "--alpha", "2", "--z", "1", "--rho"],
        ["sweep", "--sigma", '{"generator": "density", "seed": 3, "dim": 2}',
         "--alpha-grid", "0.5:2:2", "--z-grid", "1:1:1", "--out", "-", "--rho"],
        ["dump", "--out", "-", "--state"],
    ], ids=["compute", "sweep", "dump"])
    @pytest.mark.parametrize("path", ["5", "null"])
    def test_mistyped_file_field_is_usage_error(self, capsys, command, path):
        from alphaz import cli

        # a non-string path once escaped as a TypeError traceback, exit 1
        code = cli.main(command + [f'{{"file": {path}}}'])
        out = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert "'file' must be a string" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("p", ["true", '"0.25"'])
    def test_mistyped_example1_p_is_usage_error(self, capsys, p):
        from alphaz import cli

        code = cli.main(["compute", "--rho", f'{{"example1": {{"p": {p}}}}}',
                         "--sigma", '{"example1": {"p": 0.25}}', "--alpha", "2", "--z", "1"])
        out = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert "'p' must be a JSON number" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("entry", [["1", "0"], [True, False]], ids=["string", "bool"])
    def test_mistyped_matrix_entry_is_usage_error(self, tmp_path, capsys, entry):
        from alphaz import cli

        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 1, "entries": [[entry]]}))
        code = cli.main(["compute", "--rho", str(path), "--sigma", str(path),
                         "--alpha", "2", "--z", "1"])
        out = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert "malformed matrix document" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("dim", ["true", "1.9", '"1"'], ids=["bool", "fraction", "string"])
    def test_mistyped_matrix_dim_is_usage_error(self, tmp_path, capsys, dim):
        from alphaz import cli

        # used as both rho and sigma, this file once printed 0 with exit 0
        path = tmp_path / "m.json"
        path.write_text(f'{{"dim": {dim}, "entries": [[[1, 0]]]}}')
        code = cli.main(["compute", "--rho", str(path), "--sigma", str(path),
                         "--alpha", "2", "--z", "1"])
        out = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert "'dim' must be an integer" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("error", [ArithmeticError("dual-path mismatch"),
                                       np.linalg.LinAlgError("no convergence")])
    def test_internal_error_has_own_code(self, monkeypatch, capsys, error):
        from alphaz import cli
        from alphaz import divergences as dv

        def fail(*args):
            raise error

        monkeypatch.setattr(dv, "alpha_z_divergence", fail)
        code = cli.main(["compute", "--example1", "0.25", "--alpha", "2", "--z", "1"])
        assert code == cli.EXIT_INTERNAL == 4
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["compute", "--alpha", "0.5", "--z", "0.5"],
                                         ["sweep", "--alpha-grid", "0.5:2:2",
                                          "--z-grid", "0.5:0.5:1", "--out", "-"]])
    def test_nan_trace_is_internal_error(self, monkeypatch, capsys, command):
        from alphaz import cli
        from alphaz import divergences as dv

        # a NaN T without a fault code once printed nan (sweep) or exited 2
        # with "divergence cannot be NaN" (compute)
        original = dv.PreparedPair._trace_sums

        def nan_sums(pair, singular, zs):
            t, _ = original(pair, singular, zs)
            return t * math.nan, 0

        monkeypatch.setattr(dv.PreparedPair, "_trace_sums", nan_sums)
        pair = ["--rho", '{"generator": "density", "seed": 1, "dim": 3}',
                "--sigma", '{"generator": "reference", "seed": 2, "dim": 3}']
        code = cli.main(command[:1] + pair + command[1:])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INTERNAL
        assert "trace functional collapsed to nan" in err

    @pytest.mark.parametrize("point", [("--alpha", "2", "--z", "inf"),
                                       ("--alpha", "nan", "--z", "1"),
                                       ("--alpha", "inf", "--z", "1"),
                                       ("--alpha", "nan", "--family", "mo")])
    def test_non_finite_point_is_domain_error(self, point):
        out = run_cli("compute", "--example1", "0.25", *point)
        assert out.returncode == 3
        assert "finite" in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("point", [("--alpha", "1e308", "--z", "1"),
                                       ("--alpha", "2", "--z", "1e-308"),
                                       ("--alpha", "1e300", "--family", "mo")])
    def test_point_beyond_double_range_is_domain_error(self, point):
        out = run_cli("compute", "--example1", "0.25", *point)
        assert out.returncode == 3
        assert "beyond double range" in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("alpha, z, what", [
        # integer z: the SVD route decides the range where the product route
        # would take the point, with the same message as before it existed
        ("1e308", "1", "the spectral powers overflow at (alpha, z) = (1e+308, 1.0)"),
        ("1e300", "2", "the spectral powers overflow at (alpha, z) = (1e+300, 2.0)"),
        ("600", "1", "the trace sum overflows at (alpha, z) = (600.0, 1.0)"),
        ("3000", "16", "the trace sum overflows at (alpha, z) = (3000.0, 16.0)"),
    ])
    def test_integer_z_beyond_double_range_names_the_point(self, alpha, z, what):
        out = run_cli("compute", "--example1", "0.25", "--alpha", alpha, "--z", z)
        assert out.returncode == 3
        assert f"domain error: alpha or z beyond double range: {what}\n" in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("z", ["1e-308", "1e-300"])
    def test_underflowing_point_is_domain_error(self, z):
        out = run_cli("compute", "--example1", "0.25", "--alpha", "0.5", "--z", z)
        assert out.returncode == 3
        assert f"the trace sum underflows at (alpha, z) = (0.5, {float(z)!r})" in out.stderr
        assert out.stdout == ""

    def test_underflowing_grid_is_domain_error(self):
        out = run_cli("sweep", "--example1", "0.25", "--alpha-grid", "0.5:0.6:2",
                      "--z-grid", "1e-300:1e-300:1", "--out", "-")
        assert out.returncode == 3
        assert "the trace sum underflows at (alpha, z) = (0.5, 1e-300)" in out.stderr

    def test_entries_beyond_double_range_are_usage_error(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": 2, "entries": [[[0.5, 0.0], [1e308, 1e308]],
                                                          [[1e308, -1e308], [0.5, 0.0]]]}))
        sigma = json.dumps({"generator": "reference", "seed": 3, "dim": 2})
        for alpha in ("0.5", "2"):
            out = run_cli("compute", "--rho", str(path), "--sigma", sigma,
                          "--alpha", alpha, "--z", "1")
            assert out.returncode == 2
            assert "matrix has entries beyond double range" in out.stderr
            assert out.stdout == ""

    def test_eigenvalues_beyond_double_range_are_usage_error(self, tmp_path):
        # entries within range, but sigma's largest eigenvalue is not: the
        # error is that of entries beyond range, not a zero sigma
        path = tmp_path / "sigma.json"
        dump_matrix(np.full((3, 3), 8e307), path)
        rho = json.dumps({"generator": "density", "seed": 3, "dim": 3})
        out = run_cli("compute", "--rho", rho, "--sigma", str(path), "--alpha", "2", "--z", "1")
        assert out.returncode == 2
        assert out.stderr == "error: matrix has eigenvalues beyond double range\n"
        assert out.stdout == ""

    def test_grid_beyond_double_range_is_domain_error(self):
        out = run_cli("sweep", "--example1", "0.25", "--alpha-grid", "2:1e308:2",
                      "--z-grid", "1:2:2", "--out", "-")
        assert out.returncode == 3
        assert "beyond double range" in out.stderr
        assert "(1e+308, 1.0)" in out.stderr

    def test_non_finite_grid_is_domain_error(self):
        out = run_cli("sweep", "--example1", "0.25", "--alpha-grid", "nan:1:3",
                      "--z-grid", "1:2:2", "--out", "-")
        assert out.returncode == 3
        assert "finite" in out.stderr

    def test_bad_grid_is_usage_error(self, tmp_path):
        out = run_cli("sweep", "--example1", "0.25", "--alpha-grid", "nope",
                      "--z-grid", "1:2:2", "--out", str(tmp_path / "x.csv"))
        assert out.returncode == 2

    def test_renyi_eps_env_validated(self):
        out = run_cli("compute", "--example1", "0.25", "--alpha", "2", "--z", "1",
                      env_extra={"RENYI_EPS": "2.0"})
        assert out.returncode == 3


class TestFormat:
    def test_special_values(self):
        from alphaz.cli import _fmt

        assert [_fmt(x) for x in (math.nan, math.inf, -math.inf, -0.0, 0.1 + 0.2)] == \
            ["nan", "inf", "-inf", "-0", "0.3"]


class TestSweep:
    def test_grid_shape_and_header(self, tmp_path):
        path = tmp_path / "grid.csv"
        out = run_cli("sweep", "--example1", "0.25", "--alpha-grid", "0.5:2:3",
                      "--z-grid", "0.5:2:3", "--out", str(path))
        assert out.returncode == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,z,divergence_nats,trace_functional,finite"
        assert len(lines) == 10

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--rho", '{"generator": "density", "seed": 5, "dim": 3}',
                "--sigma", '{"generator": "reference", "seed": 6, "dim": 3}',
                "--alpha-grid", "0.3:3:7", "--z-grid", "0.5:4:5")
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_curve_sets_z_to_alpha(self, tmp_path):
        path = tmp_path / "curve.csv"
        run_cli("sweep", "--example1", "0.25", "--alpha-grid", "0.5:2:4",
                "--z-grid", "curve:sandwiched", "--out", str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        for row in rows:
            assert row[0] == row[1]

    def test_commuting_sweep_z_independent(self, tmp_path):
        path = tmp_path / "comm.csv"
        run_cli("sweep", "--rho", '{"generator": "commuting", "seed": 11, "dim": 4}',
                "--sigma", '{"generator": "commuting", "seed": 11, "dim": 4}',
                "--alpha-grid", "0.5:3:4", "--z-grid", "0.5:8:5",
                "--out", str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        by_alpha = {}
        for row in rows:
            by_alpha.setdefault(row[0], []).append(float(row[2]))
        for values in by_alpha.values():
            assert max(values) - min(values) <= 1e-10

    def test_alpha_one_row_matches_relative_entropy(self, tmp_path):
        path = tmp_path / "one.csv"
        run_cli("sweep", "--example1", "0.25", "--alpha-grid", "1:1:1",
                "--z-grid", "2:2:1", "--out", str(path))
        row = path.read_text().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(0.8369882167858358, abs=1e-11)
        assert row[4] == "true"

    def test_stdout_output(self):
        out = run_cli("sweep", "--example1", "0.25", "--alpha-grid", "2:2:1",
                      "--z-grid", "1:1:1", "--out", "-")
        assert out.returncode == 0
        assert out.stdout.splitlines()[1].startswith("2,1,0.980829253012,")

    @pytest.mark.parametrize("alphas, zs, points", [
        ("0.5:2:100000000000", "1:1:1", 10**11),
        ("0.5:2:1001", "1:2:100", 100_100),
        ("0.5:2:100000000000", "curve:sandwiched", 10**11),
    ], ids=["alphas", "product", "curve"])
    def test_oversize_sweep_is_usage_error(self, capsys, monkeypatch, alphas, zs, points):
        from alphaz import cli

        def no_grid(*args, **kwargs):
            raise AssertionError("an oversize sweep built a grid")

        monkeypatch.setattr(np, "linspace", no_grid)
        code, out, err = run_in_process(["sweep", "--example1", "0.25", "--alpha-grid",
                                         alphas, "--z-grid", zs, "--out", "-"], capsys)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == (f"error: sweep of {points} points exceeds the limit of "
                       f"{cli._SWEEP_MAX_POINTS} points\n")

    def test_sweep_at_the_point_limit_runs(self, capsys, monkeypatch):
        from alphaz import cli

        monkeypatch.setattr(cli, "_SWEEP_MAX_POINTS", 4)
        argv = ["sweep", "--example1", "0.25", "--alpha-grid", "0.5:2:2", "--out", "-"]
        code, out, _ = run_in_process(argv + ["--z-grid", "1:2:2"], capsys)
        assert (code, len(out.splitlines())) == (0, 5)
        code, _, err = run_in_process(argv + ["--z-grid", "1:2:3"], capsys)
        assert code == cli.EXIT_USAGE
        assert "sweep of 6 points exceeds the limit of 4 points" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning beside the error
    @pytest.mark.parametrize("sigma, alphas, zs, row", [
        # alpha = 1 under dominance, where the trace sum underflows
        ('{"generator": "density", "seed": 6, "dim": 3}', "1:1:1", "1e-300:1e-300:1",
         "1,1e-300,0.836732630934,nan,true"),
        # alpha > 1 without dominance, where rho's powers overflow
        ('{"generator": "support_pair", "seed": 3, "dim": 3, "rank": 2, '
         '"branch": "violating"}', "1e300:1e300:1", "-1:-1:1", "1e+300,-1,inf,nan,false"),
    ], ids=["underflow", "overflow"])
    def test_closed_point_out_of_range_has_nan_trace(self, capsys, sigma, alphas, zs, row):
        # the divergence needs no trace there, as compute shows
        rho = '{"generator": "density", "seed": 5, "dim": 3}'
        code, out, _ = run_in_process(["sweep", "--rho", rho, "--sigma", sigma,
                                       "--alpha-grid", alphas, "--z-grid", zs,
                                       "--out", "-"], capsys)
        assert code == 0
        assert out.splitlines() == ["alpha,z,divergence_nats,trace_functional,finite", row]
        alpha, z = row.split(",")[:2]
        code, value, _ = run_in_process(["compute", "--rho", rho, "--sigma", sigma,
                                         "--alpha", alpha, "--z", z], capsys)
        assert code == 0
        assert value.strip() == {"true": row.split(",")[2],
                                 "false": "inf support_violation"}[row.split(",")[4]]


class TestDump:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        out = run_cli("dump", "--state",
                      '{"generator": "density", "seed": 3, "dim": 3}',
                      "--role", "rho", "--out", str(path))
        assert out.returncode == 0
        assert max_abs(load_matrix(path) - random_density(3, 3)) <= 1e-15

    def test_stdout_output(self, capsys, monkeypatch, tmp_path):
        # "-" is stdout, as for sweep, not a file named "-"
        monkeypatch.chdir(tmp_path)
        code, out, err = run_in_process(["dump", "--state",
                                         '{"generator": "density", "seed": 3, "dim": 3}',
                                         "--out", "-"], capsys)
        assert (code, err) == (0, "")
        assert list(tmp_path.iterdir()) == []
        dump_matrix(random_density(3, 3), tmp_path / "m.json")
        assert out == (tmp_path / "m.json").read_text()

    @pytest.mark.parametrize("branch", ["dominating", "violating", "orthogonal"])
    def test_one_dimensional_support_pair_is_usage_error(self, capsys, branch):
        # once "rank must be in 1..0, got 1", which no rank can satisfy
        spec = f'{{"generator": "support_pair", "seed": 1, "dim": 1, "rank": 1, "branch": "{branch}"}}'
        code, out, err = run_in_process(["dump", "--state", spec, "--out", "-"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: a support pair needs dim >= 2, got 1\n"


@pytest.mark.parametrize("command", [
    ["sweep", "--example1", "0.25", "--alpha-grid", "0.5:2:4", "--z-grid", "1:2:2"],
    ["dump", "--state", '{"generator": "density", "seed": 3, "dim": 3}'],
], ids=["sweep", "dump"])
def test_unwritable_out_is_malformed_input(capsys, tmp_path, command):
    path = tmp_path / "missing" / "out"
    code, out, err = run_in_process([*command, "--out", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize("script, args, message", [
    ("limit_convergence_table.py", ["--dim", "20"], "dim must be in 1..16"),
    ("limit_convergence_table.py", ["--example1-p", "0.5"], "p must lie in (0,1)"),
    ("limit_convergence_table.py", ["--seed", "-5"], "non-negative"),
    ("alpha_monotonicity_scan.py", ["--dims", "20"], "dim must be in 1..16"),
    ("alpha_monotonicity_scan.py", ["--pairs", "-3"], "--pairs must be >= 1, got -3"),
    ("alpha_monotonicity_scan.py", ["--pairs", "0"], "--pairs must be >= 1, got 0"),
    ("alpha_monotonicity_scan.py", ["--alpha-points", "1"], "--alpha-points must be >= 2, got 1"),
])
def test_script_bad_input_is_malformed_input(script, args, message):
    # once a traceback with exit 1, which the table script gives for a
    # failed limit check
    path = Path(__file__).parents[1] / "scripts" / script
    out = subprocess.run([sys.executable, str(path), *args], capture_output=True, text=True)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and message in out.stderr
    assert "Traceback" not in out.stderr


def test_unwritable_table_out_is_malformed_input(tmp_path):
    script = Path(__file__).parents[1] / "scripts" / "limit_convergence_table.py"
    path = tmp_path / "missing" / "x.csv"
    out = subprocess.run([sys.executable, str(script), "--dim", "2", "--out", str(path)],
                         capture_output=True, text=True)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith(f"error: cannot write {path}: ")


class TestVerify:
    def test_unwritable_json_is_malformed_input(self, capsys, tmp_path):
        path = tmp_path / "missing" / "v.json"
        code, out, err = run_in_process(["verify", "--suite", "example1", "--seeds", "1",
                                         "--json", str(path)], capsys)
        assert code == 2 and "4/4 checks passed" in out
        assert err.startswith(f"error: cannot write {path}: ")

    def test_json_stdout_rejected_before_any_suite(self, capsys, monkeypatch, tmp_path):
        # stdout carries the report, so "-" is no path for the JSON document
        from alphaz import cli

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_suites", lambda *args, **kwargs: pytest.fail("ran"))
        code, out, err = run_in_process(["verify", "--suite", "example1", "--json", "-"],
                                        capsys)
        assert (code, out) == (2, "")
        assert err == "error: --json needs a file path, not -: stdout carries the report\n"
        assert list(tmp_path.iterdir()) == []

    def test_example1_suite_passes(self):
        out = run_cli("verify", "--suite", "example1")
        assert out.returncode == 0
        assert "4/4 checks passed" in out.stdout
        assert "FAIL" not in out.stdout

    def test_json_summary(self, tmp_path):
        path = tmp_path / "summary.json"
        out = run_cli("verify", "--suite", "monotonicity", "--seeds", "3",
                      "--json", str(path))
        assert out.returncode == 0
        doc = json.loads(path.read_text())
        assert doc["passed"] is True
        assert doc["suite"] == "monotonicity"
        assert len(doc["checks"]) == 5

    def test_perturbation_self_test_fails(self):
        out = run_cli("verify", "--suite", "limits", "--seeds", "2",
                      "--self-test-perturb")
        assert out.returncode == 1
        assert "first failure" in out.stderr
        assert "FAIL" in out.stdout

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_no_seeds_rejected(self, seeds):
        out = run_cli("verify", "--suite", "dpi", "--seeds", seeds)
        assert out.returncode == 2
        assert f"got {seeds}" in out.stderr
        assert "checks passed" not in out.stdout

    def test_oversize_seeds_is_usage_error(self, capsys, monkeypatch):
        from alphaz import cli

        monkeypatch.setattr(cli, "run_suites", lambda *args, **kwargs: pytest.fail("ran"))
        code, out, err = run_in_process(["verify", "--seeds", "1000000000"], capsys)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == (f"error: 1000000000 seeds exceed the limit of "
                       f"{cli._VERIFY_MAX_SEEDS} seeds\n")

    def test_seeds_at_the_limit_run(self, capsys, monkeypatch):
        from alphaz import cli

        monkeypatch.setattr(cli, "_VERIFY_MAX_SEEDS", 2)
        code, out, _ = run_in_process(["verify", "--suite", "dpi", "--seeds", "2"], capsys)
        assert code == 0 and "seeds=2" in out
        code, out, err = run_in_process(["verify", "--suite", "dpi", "--seeds", "3"], capsys)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == "error: 3 seeds exceed the limit of 2 seeds\n"

    @pytest.mark.parametrize("names", [["dpi"], ["limits"], ["all"]])
    def test_run_suites_rejects_no_seeds(self, names):
        from alphaz.suites import run_suites

        with pytest.raises(ValueError, match="got 0"):
            run_suites(names, 0)

    @pytest.mark.parametrize("n_seeds, names, bias, nan_pair", [
        pytest.param(1, ("limits", "monotonicity", "derivatives"), 0.0, None, id="1"),
        pytest.param(3, ("limits", "monotonicity", "derivatives"), 0.0, None, id="3"),
        pytest.param(6, ("limits", "monotonicity", "derivatives"), 0.0, None, id="6"),
        # a NaN in the values and traces of the last pair: each of its
        # members fails and is the worst, though the pairs before it come
        # first
        pytest.param(3, ("limits", "monotonicity", "derivatives"), 0.0, 2, id="3-nan"),
        # the bias of --self-test-perturb
        pytest.param(3, ("limits",), 0.01, None, id="3-bias"),
        pytest.param(100, ("limits",), 0.0, None, id="100-limits"),
    ])
    def test_batched_suites_regroup_per_item(self, monkeypatch, n_seeds, names, bias,
                                             nan_pair):
        # each aggregate lists, pair by pair, that item's one-element report
        from alphaz import analysis, divergences as dv, suites

        seeded = suites.seeded_pairs(n_seeds)
        if nan_pair is not None:
            target = dv.prepare(*seeded[nan_pair][:2]).rho.values
            original, original_traces = dv._Request.evaluate, dv._Request.traces

            def plant(request, values):
                for p, pair in enumerate(request.pairs):
                    if np.array_equal(pair.rho.values, target):
                        values[p, ..., 0] = math.nan
                return values

            def planted(request):
                values, traces = original(request)
                return plant(request, values), traces

            monkeypatch.setattr(dv._Request, "evaluate", planted)
            monkeypatch.setattr(dv._Request, "traces",
                                lambda request: plant(request, original_traces(request).copy()))
        pairs = [(analysis.TraceFunctional(rho, sigma), label) for rho, sigma, label in seeded]
        singles = {
            "limits": [lambda tf, c=c: analysis.verify_curve_limits([tf], [c], bias)[0]
                       for c in suites.LIMIT_CURVES],
            "monotonicity": [
                lambda tf, a=a: analysis.verify_z_monotonicity([tf], [a],
                                                               suites.MONOTONICITY_ZS)[0]
                for a in suites.MONOTONICITY_ALPHAS],
            "derivatives": [lambda tf: analysis.verify_derivative_at_one([tf])] + [
                lambda tf, z0=z0: analysis.verify_dz_trace_vanishes([tf], [z0])[0]
                for z0 in suites.DZ_TRACE_Z0S],
        }
        for name in names:
            checks = singles[name]
            aggregates = suites.run_suites([name], n_seeds, bias)
            assert len(aggregates) == len(checks)
            for aggregate, check in zip(aggregates, checks):
                expected = []
                for tf, label in pairs:
                    [rep] = check(tf)
                    assert rep.name == aggregate.name
                    expected.append({"member": f"{rep.name} [{label}]", "passed": rep.passed,
                                     "max_residual": rep.max_residual})
                # json: a NaN residual equals a NaN
                assert json.dumps(aggregate.rows) == json.dumps(expected)
                assert aggregate.passed == all(row["passed"] for row in expected)
                if nan_pair is not None:
                    worst = expected[nan_pair]
                    assert not worst["passed"] and math.isnan(worst["max_residual"])
                    assert math.isnan(aggregate.max_residual)
                    assert aggregate.notes.endswith(f"worst: {worst['member']}")
                if bias:
                    assert not aggregate.passed

    def test_run_suites_builds_no_member_report(self, monkeypatch):
        # an aggregated check judges its members on the request's arrays:
        # the run builds its aggregates and no per-pair report or row
        from alphaz import analysis, suites

        built, original = [], analysis.CheckReport.__init__

        def counted(report, *args, **kwargs):
            original(report, *args, **kwargs)
            built.append(report.name)

        monkeypatch.setattr(analysis.CheckReport, "__init__", counted)
        aggregates = suites.run_suites(["limits", "monotonicity", "derivatives"], 10)
        assert built == [aggregate.name for aggregate in aggregates]
        assert len(built) == len(suites.LIMIT_CURVES) + len(suites.MONOTONICITY_ALPHAS) + 1 + len(
            suites.DZ_TRACE_Z0S)

    def test_unknown_suite_rejected(self):
        out = run_cli("verify", "--suite", "everything")
        assert out.returncode == 2


D4 = ("--rho", '{"generator": "density", "seed": 3, "dim": 4}',
      "--sigma", '{"generator": "reference", "seed": 4, "dim": 4}')


def run_in_process(argv, capsys):
    """(exit code, stdout, stderr) of one in-process `cli.main` call; argparse
    rejects a command line with SystemExit."""
    from alphaz import cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNegativeValues:
    """A negative value may follow its option as usual, also where argparse
    would read it as an option (-1e-3, -1.5:3:10), and gives what the
    --opt=value form gives."""

    @pytest.mark.parametrize("argv, code", [
        (["compute", *D4, "--alpha", "-1e-3", "--z", "1"], 0),
        (["compute", *D4, "--alpha", "2", "--z", "-1e-1"], 0),
        (["compute", *D4, "--alpha", "-.5", "--z", "-2.5e0", "--bits"], 0),
        (["compute", "--example1", "-1e-3", "--alpha", "2", "--z", "1"], 3),
        (["sweep", *D4, "--alpha-grid", "-1.5:3:10", "--z-grid", "-2:3:12", "--out", "-"], 0),
        (["sweep", "--example1", "0.25", "--alpha-grid", "0.2:3:4",
          "--z-grid", "-2:-1:3", "--out", "-"], 3),
        # after an abbreviated option, and spelled with letters
        (["sweep", "--example1", "0.25", "--alpha-g", "-1.5:3:3",
          "--z-grid", "1:2:2", "--out", "-"], 3),
        (["compute", "--example1", "0.25", "--alpha", "-inf", "--z", "1"], 3),
    ])
    def test_usual_form_equals_joined_form(self, capsys, argv, code):
        joined, rest = [], list(argv)
        while rest:
            token = rest.pop(0)
            value = rest[0] if rest else ""
            if token.startswith("--") and value.startswith("-") and not value.startswith("--"):
                token = f"{token}={rest.pop(0)}"
            joined.append(token)
        usual = run_in_process(argv, capsys)
        assert usual[0] == code
        assert usual == run_in_process(joined, capsys)
        if code == 0:
            assert usual[1] and not usual[2]

    def test_option_is_not_taken_as_a_value(self, capsys):
        code, out, err = run_in_process(["compute", "--example1", "0.25", "--alpha", "2",
                                         "--z", "--bits"], capsys)
        assert code == 2
        assert "argument --z: expected one argument" in err
        assert out == ""


def test_sweep_goes_through_analysis_sweep(capsys, monkeypatch):
    # the CLI and the scan share one sweep path
    from alphaz import analysis, cli

    assert cli.sweep is analysis.sweep
    calls = []

    def counted(*args):
        calls.append(args[2])
        return analysis.sweep(*args)

    monkeypatch.setattr(cli, "sweep", counted)
    code, out, _ = run_in_process(["sweep", "--example1", "0.25", "--alpha-grid", "0.5:2:4",
                                   "--z-grid", "1:2:2", "--out", "-"], capsys)
    assert code == 0 and len(out.splitlines()) == 1 + 4 * 2
    assert calls == [analysis.SweepSpec(alphas=(0.5, 1.0, 1.5, 2.0), zs=(1.0, 2.0))]


class TestExample1ExcludesPair:
    """--example1 with --rho or --sigma is malformed input, not a silent
    choice of example1."""

    @pytest.mark.parametrize("pair", [D4, D4[:2], D4[2:]], ids=["both", "rho", "sigma"])
    def test_compute(self, capsys, pair):
        code, out, err = run_in_process(["compute", "--example1", "0.25", *pair,
                                         "--alpha", "2", "--z", "1"], capsys)
        assert code == 2
        assert "--example1 cannot be combined with --rho or --sigma" in err
        assert out == ""

    def test_sweep(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        code, out, err = run_in_process(["sweep", *D4, "--example1", "0.25",
                                         "--alpha-grid", "0.5:2:3", "--z-grid", "1:2:2",
                                         "--out", str(path)], capsys)
        assert code == 2
        assert "--example1 cannot be combined with --rho or --sigma" in err
        assert out == "" and not path.exists()


class TestParserReuse:
    """`main` builds its parser once per process; one call leaves nothing
    behind that changes the next."""

    COMMANDS = [
        ["compute", "--example1", "0.25", "--alpha", "2", "--z", "1", "--bits"],
        ["compute", "--example1", "0.25", "--alpha", "2", "--z", "1"],
        ["compute", "--example1", "0.25", "--alpha", "2", "--bits", "--family", "nope"],
        ["sweep", "--example1", "0.25", "--alpha-grid", "0.5:2:4", "--z-grid", "1:2:2",
         "--out", "{out}/s.csv"],
        ["verify", "--suite", "example1", "--seeds", "1", "--json", "{out}/v.json"],
    ]

    @staticmethod
    def _argv(command, out_dir):
        return [token.replace("{out}", str(out_dir)) for token in command]

    @staticmethod
    def _files(out_dir):
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    def test_each_call_equals_the_command_alone(self, capsys, tmp_path):
        codes = []
        for i, command in enumerate(self.COMMANDS):
            shared, alone = tmp_path / f"shared{i}", tmp_path / f"alone{i}"
            shared.mkdir()
            alone.mkdir()
            code, out, err = run_in_process(self._argv(command, shared), capsys)
            ref = run_cli(*self._argv(command, alone))
            assert (code, out, err) == (ref.returncode, ref.stdout, ref.stderr), command
            assert self._files(shared) == self._files(alone), command
            codes.append(code)
        assert codes == [0, 0, 2, 0, 0]

    def test_parser_built_once(self, monkeypatch, capsys, tmp_path):
        from alphaz import cli

        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            for command in self.COMMANDS:
                run_in_process(self._argv(command, tmp_path), capsys)
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_not_built_at_import(self):
        out = subprocess.run([sys.executable, "-c",
                              "import alphaz.cli as c; print(c._parser.cache_info().currsize)"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.strip() == "0"
