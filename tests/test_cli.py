import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import nlsobolev as nl
from nlsobolev.cli import run_cli
from conftest import src_env


def run_to_json(args, tmp_path, name):
    out = os.path.join(tmp_path, name)
    code = run_cli(args + ["--out", out])
    with open(out) as fh:
        text = fh.read()
    return code, text, json.loads(text)


def test_constants_subcommand(tmp_path):
    code, _, env = run_to_json(["constants", "--dim", "4", "--alpha", "2"],
                               tmp_path, "c.json")
    assert code == 0
    assert set(env) == {"tool_version", "params", "grid", "payload"}
    assert env["params"] == {"N": 4, "alpha": 2.0}
    assert env["grid"] is None
    assert env["payload"]["c_hls"] == pytest.approx(math.pi / 2 * math.sqrt(6), rel=1e-10)
    assert env["payload"]["two_star_alpha"] == 3.0


def test_constants_deterministic(tmp_path):
    _, t1, _ = run_to_json(["constants", "--dim", "3", "--alpha", "1.5"], tmp_path, "a.json")
    _, t2, _ = run_to_json(["constants", "--dim", "3", "--alpha", "1.5"], tmp_path, "b.json")
    assert t1 == t2


def test_constants_large_dimension(tmp_path):
    """N = 100 overflows r^N and 2^N on the way but none of the constants:
    all of them match 30-digit closed forms (Aubin-Talenti for S, Lieb for
    the HLS constant), and nothing warns."""
    mp = pytest.importorskip("mpmath")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, env = run_to_json(["constants", "--dim", "100", "--alpha", "1"],
                                   tmp_path, "c.json")
    assert code == 0
    with mp.workdps(30):
        N, a = mp.mpf(100), mp.mpf(1)
        c = (mp.pi ** (a / 2) * mp.gamma((N - a) / 2) / mp.gamma(N - a / 2)
             * (mp.gamma(N) / mp.gamma(N / 2)) ** ((N - a) / N))
        s = mp.pi * N * (N - 2) * (mp.gamma(N / 2) / mp.gamma(N)) ** (2 / N)
        ref = {"c_hls": c, "s_sob": s, "s_hls": s / c ** ((N - 2) / (2 * N - a)),
               "bubble_amp": (s ** ((N - a) * (2 - N) / (4 * (N - a + 2)))
                              * c ** ((2 - N) / (2 * (N - a + 2)))
                              * (N * (N - 2)) ** ((N - 2) / 4))}
    for key, value in ref.items():
        assert env["payload"][key] == pytest.approx(float(value), rel=1e-11), key


def test_constants_outside_double_range_is_numerical_failure(capsys):
    # at (100, 99.5) the bubble amplitude is e^1885.7: one typed line, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["constants", "--dim", "100", "--alpha", "99.5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:"), captured.err
    assert "bubble amplitude" in lines[0]


def test_verify_bubble(tmp_path):
    code, _, env = run_to_json(
        ["verify-bubble", "--dim", "3", "--alpha", "2", "--grid-n", "1024"],
        tmp_path, "v.json")
    assert code == 0
    assert env["payload"]["el_residual"] < 1e-4
    assert abs(env["payload"]["deficit_rel"]) < 1e-6
    assert env["payload"]["norm_identity_rel"] < 1e-5


def test_spectrum_subcommand(tmp_path):
    code, _, env = run_to_json(
        ["spectrum", "--dim", "6", "--alpha", "4", "--ell", "0", "--grid-n", "512"],
        tmp_path, "s.json")
    assert code == 0
    mu = np.array(env["payload"]["eigenvalues"])
    assert np.min(np.abs(mu - 1.0)) < 1e-2
    assert np.min(np.abs(mu - 2.0)) < 1e-2


def test_deficit_subcommand(tmp_path, p42):
    grid = nl.make_log_grid(1e-3, 1e3, 1024)
    U = nl.bubble(p42, nl.BubbleParams(c=2.0, lam=3.0), grid)
    path = os.path.join(tmp_path, "field.csv")
    nl.write_field_csv(U, path)
    code, _, env = run_to_json(
        ["deficit", "--dim", "4", "--alpha", "2", "--input", path],
        tmp_path, "d.json")
    assert code == 0
    pl = env["payload"]
    assert set(pl) == {"grad_energy", "hls_energy", "deficit", "dist", "ratio"}
    assert abs(pl["deficit"]) < 1e-5 * pl["grad_energy"]
    assert pl["dist"] < 1e-4
    assert env["grid"]["n"] == 1024


def test_deficit_numerical_failure_exit_code(tmp_path):
    # a field whose declared tail decay is too slow for the energy space -> exit 2
    grid = nl.make_log_grid(1e-3, 1e3, 1024)
    f = nl.RadialField(grid=grid, values=(1 + grid.nodes) ** -0.4,
                       tail_exponent=0.4, head_value=1.0)
    path = os.path.join(tmp_path, "slow.csv")
    nl.write_field_csv(f, path)
    code = run_cli(["deficit", "--dim", "3", "--alpha", "1", "--input", path])
    assert code == 2


def test_deficit_wide_grid_prints_one_stderr_line(tmp_path):
    # on [1e-3, 1e150] r^N and the kernel's cosh overflow; the run ends with
    # exactly one `numerical failure:` line on stderr and no warnings
    grid = nl.make_log_grid(1e-3, 1e150, 2048)
    f = nl.RadialField(grid=grid, values=(1 + grid.nodes) ** -0.1,
                       tail_exponent=2.5, head_value=1.0)
    path = os.path.join(tmp_path, "wide.csv")
    nl.write_field_csv(f, path)
    proc = subprocess.run([sys.executable, "-m", "nlsobolev.cli", "deficit", "--dim", "3",
                           "--alpha", "1", "--input", path],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")


def test_sweep_deterministic_bytes(tmp_path):
    args = ["sweep", "--dim", "6", "--alpha", "4", "--grid-n", "512",
            "--epsilons", "1e-2", "--directions", "random-1", "--seed", "7"]
    _, t1, env = run_to_json(args, tmp_path, "sw1.json")
    _, t2, _ = run_to_json(args, tmp_path, "sw2.json")
    assert t1 == t2
    assert env["payload"]["rows"][0]["ratio"] is not None


def test_bounded_subcommand(tmp_path):
    code, _, env = run_to_json(
        ["bounded", "--dim", "3", "--alpha", "1", "--radius", "1.0",
         "--lambdas", "1e2,1e3"], tmp_path, "b.json")
    assert code == 0
    pl = env["payload"]
    assert len(pl["lambdas"]) == 2
    assert all(s >= w for s, w in zip(pl["strong_norm"], pl["weak_norm"]))


def test_bounded_grid_n(tmp_path):
    code, _, env = run_to_json(
        ["bounded", "--dim", "3", "--alpha", "1", "--lambdas", "1e2", "--grid-n", "1024"],
        tmp_path, "bn.json")
    assert code == 0
    assert env["grid"] == {"r_min": 1e-7, "r_max": 1.0, "n": 1024}


@pytest.mark.parametrize("argv", [
    ["constants", "--seed", "0"],
    ["verify-bubble", "--seed", "0"],
    ["spectrum", "--seed", "0"],
    ["deficit", "--input", "field.csv", "--seed", "0"],
    ["deficit", "--input", "field.csv", "--grid-n", "512"],
    ["deficit", "--input", "field.csv", "--grid-min", "1e-2"],
    ["deficit", "--input", "field.csv", "--grid-max", "1e2"],
    ["bounded", "--seed", "0"],
    ["bounded", "--grid-min", "1e-3"],
    ["bounded", "--grid-max", "10"],
    ["constants", "--grid-n", "17"],
    ["constants", "--grid-min", "5"],
    ["constants", "--grid-max", "6"],
])
def test_flag_not_read_by_subcommand_exit_code(argv, capsys):
    assert run_cli(argv + ["--dim", "4", "--alpha", "2"]) == 1
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("k, codes", [("0", {1}), ("-2", {1}), ("5000", {0, 2})])
def test_spectrum_k_exit_code(k, codes, capsys):
    # k < 1 is a validation error; k beyond the n - 1 unknowns is clamped
    code = run_cli(["spectrum", "--dim", "6", "--alpha", "4", "--grid-n", "256", "--k", k])
    assert code in codes
    if code == 1:
        assert "error: need k >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["1e-2,0", "1e-2,nan", "inf,1e-2"])
def test_sweep_bad_epsilon_exit_code(eps, capsys):
    code = run_cli(["sweep", "--dim", "6", "--alpha", "4", "--grid-n", "512",
                    "--epsilons", eps, "--directions", "random-1"])
    assert code == 1
    assert "error: epsilons must be finite, positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--epsilons", "abc"], "error: --epsilons must be a comma-separated list"),
    (["sweep", "--epsilons", "1e-2,"], "error: --epsilons must be a comma-separated list"),
    (["sweep", "--seed", "-5"], "error: seed must be non-negative"),
    (["bounded", "--lambdas", "1e2,x"], "error: --lambdas must be a comma-separated list"),
    (["bounded", "--lambdas", "1e2,nan"], "error: lambdas must be finite"),
    (["bounded", "--lambdas", "inf"], "error: lambdas must be finite"),
], ids=["epsilons-abc", "epsilons-trailing-comma", "seed-negative", "lambdas-x",
        "lambdas-nan", "lambdas-inf"])
def test_bad_list_or_seed_exit_code(argv, message, capsys):
    code = run_cli(argv + ["--dim", "6", "--alpha", "4", "--grid-n", "512"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["random-abc", "random--3", "random-", "random-1.5"])
def test_sweep_bad_random_spec_is_row_note(spec, tmp_path):
    code, _, env = run_to_json(
        ["sweep", "--dim", "6", "--alpha", "4", "--grid-n", "512", "--seed", "1",
         "--epsilons", "1e-2,1e-3", "--directions", spec], tmp_path, "bad.json")
    assert code == 0
    rows = env["payload"]["rows"]
    assert len(rows) == 2
    assert all(r["ratio"] is None and "non-negative integer k" in r["note"] for r in rows)


def test_run_as_module_without_runtime_warning(tmp_path):
    # the package must not import nlsobolev.cli before runpy executes it
    out = os.path.join(tmp_path, "c.json")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "nlsobolev.cli",
         "constants", "--dim", "4", "--alpha", "2", "--out", out],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        assert json.load(fh)["payload"]["two_star_alpha"] == 3.0


@pytest.mark.parametrize("argv", [
    ["spectrum", "--dim", "6", "--alpha", "5"],
    ["spectrum", "--dim", "6", "--alpha", "4", "--ell", "2"],
    ["verify-bubble", "--dim", "6", "--alpha", "4"],
    ["sweep", "--dim", "6", "--alpha", "4"],
], ids=["spectrum-alpha5", "spectrum-ell2", "verify-bubble", "sweep"])
def test_overflowing_grid_is_numerical_failure(argv):
    # at r_max = 1e80 the N = 6 weights r^{N-2} and the Riesz factors
    # r^{N-alpha/2} overflow: one typed error line, no traceback, no numpy
    # warning, and the sweep fails instead of writing null rows
    proc = subprocess.run(
        [sys.executable, "-m", "nlsobolev.cli", *argv, "--grid-max", "1e80",
         "--grid-n", "4096"],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:"), proc.stderr


def test_run_cli_reexported():
    from nlsobolev import run_cli as from_package
    assert from_package is run_cli and nl.run_cli is run_cli
    assert "run_cli" in nl.__all__


@pytest.mark.parametrize("case", ["missing-input", "unwritable-out", "malformed-csv"])
def test_file_error_exit_code(case, tmp_path, p42, capsys):
    path = os.path.join(tmp_path, "field.csv")
    out = os.path.join(tmp_path, "d.json")
    if case != "missing-input":
        U = nl.bubble(p42, nl.BubbleParams(c=1.0, lam=1.0), nl.make_log_grid(1e-3, 1e3, 512))
        nl.write_field_csv(U, path)
    if case == "unwritable-out":
        out = os.path.join(tmp_path, "no-such-dir", "d.json")
    if case == "malformed-csv":
        with open(path) as fh:
            lines = fh.read().splitlines(keepends=True)
        lines[4] = lines[4].replace(",", ",1.0x", 1)
        with open(path, "w") as fh:
            fh.writelines(lines)
    code = run_cli(["deficit", "--dim", "4", "--alpha", "2", "--input", path, "--out", out])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    if case == "malformed-csv":
        assert "line 5" in err
    assert not os.path.exists(out)


def test_validation_exit_code(capsys):
    assert run_cli(["constants", "--dim", "2", "--alpha", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exit_code(capsys):
    assert run_cli(["constants", "--dim", "4", "--alpha", "2", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err or "error" in err


def test_stdout_output(capsys):
    code = run_cli(["constants", "--dim", "5", "--alpha", "2.5"])
    assert code == 0
    out = capsys.readouterr().out
    env = json.loads(out)
    assert env["payload"]["s_hls"] > 0
