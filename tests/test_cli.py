"""End-to-end command line tests: headers, determinism, file output, seeding
through the environment, and the exit-code contract (0 ok, 2 usage, 3
numeric/data)."""

import io
import math

import numpy as np
import pytest

from ldpmean import cli, estimator, privunit, privunitg, tuner
from ldpmean.sphere import RngStream


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_tune_output_shape(capsys):
    rc, out, err = run_cli(capsys, "tune", "--eps", "4", "--d", "64")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "eps0,eps1,p,q,gamma,m,err,c_const"
    assert len(lines) == 2
    vals = [float(t) for t in lines[1].split(",")]
    assert len(vals) == 8
    assert vals[0] + vals[1] == pytest.approx(4.0, abs=1e-9)
    assert vals[7] == pytest.approx(4.0 * vals[6] / 64.0, rel=1e-9)


def test_tune_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "tune", "--eps", "8", "--d", "128", "--alg", "privunit")
    _, out2, _ = run_cli(capsys, "tune", "--eps", "8", "--d", "128", "--alg", "privunit")
    assert out1 == out2


def test_ratio_command(capsys):
    rc, out, _ = run_cli(capsys, "ratio", "--eps", "4", "--d", "64,128")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "d,err_pu,err_pug,ratio"
    assert len(lines) == 3
    for line, d in zip(lines[1:], (64.0, 128.0)):
        vals = [float(t) for t in line.split(",")]
        assert vals[0] == d
        assert vals[3] == pytest.approx(vals[2] / vals[1], rel=1e-9)


def test_c_curve_command(capsys):
    rc, out, _ = run_cli(capsys, "c_curve", "--eps", "4,8,16", "--d", "2048")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "eps,c_const"
    cs = [float(line.split(",")[1]) for line in lines[1:]]
    assert cs == sorted(cs, reverse=True)  # scaled constant shrinks with eps


def test_simulate_command_and_env_seed(capsys, monkeypatch):
    args = ["simulate", "--eps", "4", "--d", "8", "--n", "2", "--trials", "4"]
    rc, out_seeded, _ = run_cli(capsys, *args, "--seed", "7")
    assert rc == 0
    assert out_seeded.splitlines()[0] == "n,trials,empirical_mse,analytic_err_per_user,standard_error,seed"
    monkeypatch.setenv("LDPMEAN_SEED", "7")
    rc, out_env, _ = run_cli(capsys, *args)
    assert rc == 0 and out_env == out_seeded
    monkeypatch.delenv("LDPMEAN_SEED")
    rc, out_default, _ = run_cli(capsys, *args)
    assert rc == 0 and out_default != out_seeded  # default seed is 0


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "tuned.csv"
    rc, out, _ = run_cli(capsys, "tune", "--eps", "4", "--d", "64", "--out", str(target))
    assert rc == 0 and out == ""
    rc, out, _ = run_cli(capsys, "tune", "--eps", "4", "--d", "64")
    assert target.read_text() == out


def test_randomize_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0 0 0\n0 1 0 0\n"))
    rc, out, _ = run_cli(
        capsys, "randomize", "--eps", "4", "--d", "4", "--alg", "privunit", "--seed", "3"
    )
    assert rc == 0
    rows = [np.array([float(t) for t in line.split()]) for line in out.splitlines()]
    assert len(rows) == 2 and all(r.size == 4 for r in rows)
    m = tuner.tune(4.0, 4, "privunit").params.m
    for r in rows:
        assert float(np.linalg.norm(r)) == pytest.approx(1.0 / m, rel=1e-9)


def test_randomize_accepts_file_and_renormalizes(capsys, tmp_path):
    src = tmp_path / "vectors.txt"
    # off unit norm by 5e-7: inside the acceptance window, renormalized
    src.write_text("0.6000003 0.8000004\n")
    rc, out, _ = run_cli(
        capsys, "randomize", "--eps", "4", "--d", "2", "--in", str(src), "--seed", "1"
    )
    assert rc == 0
    vals = [float(t) for t in out.split()]
    assert len(vals) == 2 and all(math.isfinite(x) for x in vals)


def test_randomize_deterministic(capsys, monkeypatch):
    for _ in range(2):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 0\n"))
        rc, out, _ = run_cli(capsys, "randomize", "--eps", "2", "--d", "2", "--seed", "5")
        assert rc == 0
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0\n"))
    _, out_again, _ = run_cli(capsys, "randomize", "--eps", "2", "--d", "2", "--seed", "5")
    assert out == out_again


@pytest.mark.parametrize(
    "alg,randomize", [("privunit", privunit.randomize), ("privunitg", privunitg.randomize_g)]
)
def test_randomize_draws_blocks_of_users(capsys, tmp_path, alg, randomize):
    # input line j belongs to block b = j // BLOCK_USERS, drawn in one call on
    # substream(b) of the root stream; each coordinate prints as "%.12g"
    B, d, seed = estimator.BLOCK_USERS, 3, 12
    g = np.random.default_rng(4).standard_normal((B + 5, d))
    g /= np.linalg.norm(g, axis=1)[:, None]
    src = tmp_path / "vectors.txt"
    src.write_text("".join(" ".join(repr(x) for x in row) + "\n" for row in g.tolist()))
    rc, out, _ = run_cli(capsys, "randomize", "--eps", "4", "--d", str(d), "--alg", alg,
                         "--in", str(src), "--seed", str(seed))
    assert rc == 0
    # the CLI renormalizes each parsed row by its norm
    V = np.array([[float(t) for t in line.split()] for line in src.read_text().splitlines()])
    V /= np.linalg.norm(V, axis=1)[:, None]
    params = tuner.tune(4.0, d, alg).params
    expect = []
    for b in range(2):
        for row in randomize(V[b * B:(b + 1) * B], params, RngStream(seed).substream(b)):
            expect.append(" ".join("%.12g" % x for x in row))
    assert out.splitlines() == expect


def test_lp_verify_command(capsys):
    rc, out, _ = run_cli(capsys, "lp_verify", "--eps", "4", "--k", "360")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "status,alpha,err_implied,threshold_count,base_p"
    fields = lines[1].split(",")
    assert fields[0] == "pass"
    alpha = float(fields[1])
    assert float(fields[2]) == pytest.approx(1.0 / alpha**2 - 1.0, rel=1e-9)


# --- exit codes ---------------------------------------------------------------

def test_usage_error_exit_code(capsys):
    rc, out, err = run_cli(capsys, "tune", "--eps", "-3", "--d", "64")
    assert rc == 2 and out == ""
    assert "usage error" in err


def test_argparse_missing_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tune", "--d", "64"])
    assert exc.value.code == 2


def test_data_error_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n"))  # norm sqrt(2)
    rc, out, err = run_cli(capsys, "randomize", "--eps", "4", "--d", "2")
    assert rc == 3 and out == ""
    assert "error" in err

    monkeypatch.setattr("sys.stdin", io.StringIO("not a number\n"))
    rc, _, _ = run_cli(capsys, "randomize", "--eps", "4", "--d", "2")
    assert rc == 3

    # non-finite coordinates fail the norm check
    for line in ("nan nan\n", "nan 0\n", "inf 0\n"):
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        rc, out, err = run_cli(capsys, "randomize", "--eps", "4", "--d", "2")
        assert rc == 3 and out == "" and "line 1" in err

    # rows are validated together, but the error names the first bad row's line
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0\n0 1\n0.6 0.6\n-1 0\n2 0\n"))
    rc, out, err = run_cli(capsys, "randomize", "--eps", "4", "--d", "2")
    assert rc == 3 and out == "" and "line 3:" in err

    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    rc, _, _ = run_cli(capsys, "randomize", "--eps", "4", "--d", "2")
    assert rc == 3

    # an overflow inside the solver is a numeric failure, not a traceback
    rc, out, _ = run_cli(capsys, "lp_verify", "--eps", "1500")
    assert rc == 3 and out == ""


@pytest.mark.parametrize("eps,d,code", [("1", "100000", 0), ("64", "2", 3), ("512", "2", 3)])
def test_tune_envelope_exit_codes(capsys, eps, d, code):
    # d = 10^5 tunes; at d = 2, eps = 64 and 512 the error 1/m^2 - 1 cancels
    # to a non-positive value and tune reports a numeric failure
    rc, out, _ = run_cli(capsys, "tune", "--eps", eps, "--d", d, "--alg", "privunit")
    assert rc == code
    assert (out == "") == (code != 0)


def test_lp_verify_usage_error(capsys):
    rc, _, err = run_cli(capsys, "lp_verify", "--eps", "4", "--k", "7")
    assert rc == 2
    assert "usage error" in err
