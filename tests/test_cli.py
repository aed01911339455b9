"""End-to-end command line tests: headers, determinism, file output, the
default seed, and the exit-code contract (0 ok, 2 usage, 3 numeric/data)."""

import io
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ldpmean import cli, privunit, sphere, tuner
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
    # PrivUnitG's tuned cap at d = 2, eps 64 is below the smallest a float
    # gamma expresses: PrivUnit has no finite error there, and the other
    # dimensions' rows are those they print alone
    rc, out, _ = run_cli(capsys, "ratio", "--eps", "64", "--d", "2,16,100000")
    assert rc == 0
    rc_alone, out_alone, _ = run_cli(capsys, "ratio", "--eps", "64", "--d", "16,100000")
    assert rc_alone == 0
    lines = out.splitlines()
    assert lines[1] == "2,inf,0.00968454304593,0"
    assert [lines[0]] + lines[2:] == out_alone.splitlines()


def test_c_curve_command(capsys):
    rc, out, _ = run_cli(capsys, "c_curve", "--eps", "4,8,16,")  # a trailing comma adds no item
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "eps,c_const" and len(lines) == 4
    cs = [float(line.split(",")[1]) for line in lines[1:]]
    assert cs == sorted(cs, reverse=True)  # scaled constant shrinks with eps


def test_c_curve_rows_are_c_eps(capsys):
    rc, out, _ = run_cli(capsys, "c_curve", "--eps", "1,38.5,700")
    assert rc == 0
    assert out.splitlines()[1:] == [f"{cli._fmt(e)},{cli._fmt(tuner.c_eps(e))}" for e in (1.0, 38.5, 700.0)]


def test_readme_command_lines_parse():
    # every example of README's command-line block parses, so a removed or
    # renamed option cannot stay in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("ldpmean ")]
    assert len(lines) == 6
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        args = cli.build_parser().parse_args(argv)
        assert args.func.__name__ == f"cmd_{argv[0]}", line


def test_simulate_command_and_seed(capsys):
    args = ["simulate", "--eps", "4", "--d", "8", "--n", "2", "--trials", "4"]
    rc, out_seeded, _ = run_cli(capsys, *args, "--seed", "7")
    assert rc == 0
    assert out_seeded.splitlines()[0] == "n,trials,empirical_mse,analytic_err_per_user,standard_error,seed"
    rc, out_default, _ = run_cli(capsys, *args)
    assert rc == 0 and out_default != out_seeded  # default seed is 0
    # n, trials and the seed print as integers, so a run reproduces from its
    # own output at any 64-bit seed, not only at those below 10^12
    for seed in ("7", "18446744073709551615"):
        fields = run_cli(capsys, *args, "--seed", seed)[1].splitlines()[1].split(",")
        assert (fields[0], fields[1], fields[-1]) == ("2", "4", seed)


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "tuned.csv"
    rc, out, _ = run_cli(capsys, "tune", "--eps", "4", "--d", "64", "--out", str(target))
    assert rc == 0 and out == ""
    rc, out, _ = run_cli(capsys, "tune", "--eps", "4", "--d", "64")
    assert target.read_text() == out


def test_randomize_from_stdin(capsys, monkeypatch):
    # blank and whitespace-only lines are skipped
    monkeypatch.setattr("sys.stdin", io.StringIO("\n1 0 0 0\n  \n0 1 0 0\n"))
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


@pytest.mark.parametrize("alg", ["privunit", "privunitg"])
def test_randomize_prints_randomize_reports(capsys, tmp_path, alg):
    # the output is privunit.randomize(V, params, RngStream(seed)), one line
    # per input and "%.12g" per coordinate; at d = 1024 the 150 rows make
    # two row blocks, drawn on threads
    d, seed = 1024, 12
    g = np.random.default_rng(4).standard_normal((150, d))
    g /= np.linalg.norm(g, axis=1)[:, None]
    src = tmp_path / "vectors.txt"
    src.write_text("".join(" ".join(repr(x) for x in row) + "\n" for row in g.tolist()))
    rc, out, _ = run_cli(capsys, "randomize", "--eps", "4", "--d", str(d), "--alg", alg,
                         "--in", str(src), "--seed", str(seed))
    assert rc == 0
    # the CLI renormalizes each parsed row by its norm
    V = np.array([[float(t) for t in line.split()] for line in src.read_text().splitlines()])
    V /= sphere._row_norms(V)[:, None]
    reports = privunit.randomize(V, tuner.tune(4.0, d, alg).params, RngStream(seed))
    assert out.splitlines() == [" ".join("%.12g" % x for x in row) for row in reports]


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

def test_usage_error_exit_code(capsys, tmp_path, monkeypatch):
    # arguments outside the domain, eps in (0, 700] and d in [2, 10^8], are
    # refused before any numerics run
    for argv in (["tune", "--eps", "-3", "--d", "64"], ["c_curve", "--eps", "0"],
                 ["tune", "--eps", "64", "--d", "100000001", "--alg", "privunit"],
                 ["lp_verify", "--eps", "1500"], ["lp_verify", "--eps", "800", "--k", "36"]):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert "usage error" in err
    # an input file that does not exist, an output file in a missing directory
    for argv, name in (
        (["randomize", "--eps", "4", "--d", "2", "--in", str(tmp_path / "absent.txt")], "absent.txt"),
        (["tune", "--eps", "4", "--d", "64", "--out", str(tmp_path / "no_such_dir" / "x.csv")], "x.csv"),
    ):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == ""
        assert "usage error" in err and name in err
    # sizes past any address space (0.7 and 4.4 EiB) but under numpy's size
    # limit fail to allocate at once, touching no memory, and so does a
    # size past numpy's limit, which lp_verify names with its K
    for argv, named in (
        (["simulate", "--eps", "4", "--d", "64", "--n", "2", "--trials", "100000000000000000"], ""),
        (["simulate", "--eps", "4", "--d", "64", "--n", "10000000000000000", "--trials", "1"], ""),
        (["lp_verify", "--eps", "4", "--k", "100000000000000000000"], "K=100000000000000000000 is too large"),
    ):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert err.startswith("usage error") and err.count("\n") == 1 and named in err, (argv, err)
    # randomize checks its arguments before it reads the input, whatever the input is
    for argv in (["--eps", "0", "--d", "2"], ["--eps", "4", "--d", "1"]):
        for text in ("1.0\n", "", "0.6 0.8\n"):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            rc, out, err = run_cli(capsys, "randomize", *argv)
            assert rc == 2 and out == "" and "usage error" in err, (argv, text)


def test_undecodable_stdin_names_its_position_under_the_c_locale():
    # under LC_ALL=C Python opens stdin with errors="surrogateescape", so
    # its text would carry the bad bytes as lone surrogates; the bytes are
    # decoded strictly instead, and the data error names their position as
    # it does for --in
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONIOENCODING", None)
    done = subprocess.run([sys.executable, "-m", "ldpmean.cli", "randomize", "--eps", "4", "--d", "2"],
                          input=b"0.6 0.8\n\xff\xfe 0.1\n", capture_output=True, env=env, timeout=120)
    err = done.stderr.decode("ascii", "replace")
    assert done.returncode == 3 and done.stdout == b"", err
    assert err.startswith("error:") and "position 8" in err and err.count("\n") == 1, err


def test_argparse_missing_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tune", "--d", "64"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["ratio", "--eps", "8", "--d", ","], ["ratio", "--eps", "8", "--d", ""], ["c_curve", "--eps", ""], ["c_curve", "--eps", ",,"],
     ["ratio", "--eps", "8", "--d", "x"], ["ratio", "--eps", "8", "--d", "2,3.5"], ["c_curve", "--eps", "4,y"],
     ["c_curve", "--eps", "4", "--d", "2048"]],
)
def test_empty_list_argument_exits_2(capsys, argv):
    # a required list option with no items is a usage error, not a header-only
    # CSV; a bad item is named in argparse's own words for type=int or float,
    # and so is an option c_curve does not have (its constant is d-free)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    bad = {"x": "invalid int value: 'x'", "2,3.5": "invalid int value: '3.5'", "4,y": "invalid float value: 'y'",
           "2048": "unrecognized arguments: --d 2048"}
    assert captured.out == "" and bad.get(argv[-1], "needs at least one value") in captured.err
    assert "_list" not in captured.err


def test_tune_below_the_envelope_exits_0_or_3(capsys):
    # tiny budgets tune or fail as numeric errors, never as a traceback or
    # a usage error: eps every decade from 1e-3 to the least double,
    # with 2e-13 at d = 50000, where PrivUnit's budget stays above eps
    codes = set()
    for alg in ("privunit", "privunitg"):
        for eps in [10.0**-k for k in range(3, 324)] + [2e-13, 5e-324]:
            for d in (2, 3, 16, 1024, 50_000, 100_000, 1_000_000):
                rc, out, err = run_cli(capsys, "tune", "--eps", repr(eps), "--d", str(d), "--alg", alg)
                assert rc in (0, 3) and (rc == 0) == (err == ""), (alg, eps, d, rc, err)
                codes.add(rc)
    assert codes == {0, 3}


def test_data_error_exit_code(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n"))  # norm sqrt(2)
    rc, out, err = run_cli(capsys, "randomize", "--eps", "4", "--d", "2")
    assert rc == 3 and out == ""
    assert "error" in err

    # input that does not decode, from a file or from stdin, is a data
    # error that names the byte's position
    raw = b"0.6 0.8\n\xff\xfe 0.1\n"
    path = tmp_path / "bytes.txt"
    path.write_bytes(raw)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    for argv in (["--in", str(path)], []):
        rc, out, err = run_cli(capsys, "randomize", "--eps", "4", "--d", "2", *argv)
        assert rc == 3 and out == "" and err.startswith("error:") and "position 8" in err, (argv, err)

    monkeypatch.setattr("sys.stdin", io.StringIO("not a number\n"))
    rc, _, _ = run_cli(capsys, "randomize", "--eps", "4", "--d", "2")
    assert rc == 3

    # a line with the wrong coordinate count is named by its line number
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0\n\n0.6 0 0.8\n"))
    rc, out, err = run_cli(capsys, "randomize", "--eps", "4", "--d", "2")
    assert rc == 3 and out == "" and "line 3:" in err and "expected 2 coordinates, got 3" in err

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


def test_simulate_exits_3_when_a_block_thread_fails(capsys, monkeypatch):
    # at d = 1024 the 300 users are drawn in 3 row blocks on threads; one
    # rejection round fails there, and the CLI reports a numeric failure
    monkeypatch.setattr(sphere, "_MAX_ROUNDS", 1)
    rc, out, err = run_cli(capsys, "simulate", "--eps", "4", "--d", "1024", "--n", "300", "--trials", "1")
    assert rc == 3 and out == "" and "unaccepted" in err


@pytest.mark.parametrize("eps,d,code", [("1", "100000", 0), ("64", "2", 0), ("512", "2", 0)])
def test_tune_envelope_exit_codes(capsys, eps, d, code):
    # d = 10^5 tunes, and so does d = 2 at eps = 64 and 512, where the error
    # is below 1e-15 (test_data_error_exit_code covers exit code 3)
    rc, out, _ = run_cli(capsys, "tune", "--eps", eps, "--d", d, "--alg", "privunit")
    assert rc == code
    assert (out == "") == (code != 0)


def test_lp_verify_usage_error(capsys):
    rc, _, err = run_cli(capsys, "lp_verify", "--eps", "4", "--k", "7")
    assert rc == 2
    assert "usage error" in err


# --- input parsing ------------------------------------------------------------

def randomize_stdin(capsys, monkeypatch, text, d, *extra):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run_cli(capsys, "randomize", "--eps", "4", "--d", str(d), "--seed", "3", *extra)


def test_randomize_uniform_wrong_column_count_names_first_vector(capsys, monkeypatch):
    # every row has d + 1 columns, so the whole input parses in one pass with
    # the wrong shape; the error names the first vector's line, after blanks
    text = "\n  \n1 0 0\n\n0 1 0\n0 0 1\n"
    rc, out, err = randomize_stdin(capsys, monkeypatch, text, 2)
    assert (rc, out) == (3, "") and err == "error: line 3: expected 2 coordinates, got 3\n"


@pytest.mark.parametrize("text,message", [
    # ragged rows, after blank and whitespace-only lines
    ("\n \t\n1 0\n\n   \n0 1\n0.6 0 0.8\n1 0\n", "line 7: expected 2 coordinates, got 3"),
    # every row parses, the fourth vector is off unit
    ("\n \t\n1 0\n\n   \n0 1\n1 0\n0.6 0.6\n", "line 8: vector norm"),
    # a token no reader takes
    ("\n\n1 0\n \n0 x\n", "line 5: not a vector of reals"),
])
def test_randomize_errors_count_blank_lines(capsys, monkeypatch, text, message):
    rc, out, err = randomize_stdin(capsys, monkeypatch, text, 2)
    assert (rc, out) == (3, "") and err.startswith(f"error: {message}")


def test_randomize_reads_tokens_only_python_float_takes(capsys, monkeypatch):
    # numpy's text reader refuses digit separators and full-width digits;
    # the per-line reading takes them with float()'s values
    plain = "0.6 0.8\n1 0\n"
    exotic = "0.6 0.8\n1_0e-1 \uff10\n"
    assert float("1_0e-1") == 1.0 and float("\uff10") == 0.0
    _, out_plain, _ = randomize_stdin(capsys, monkeypatch, plain, 2)
    rc, out, err = randomize_stdin(capsys, monkeypatch, exotic, 2)
    assert rc == 0 and err == "" and out == out_plain
    monkeypatch.setattr("sys.stdin", io.StringIO(exotic))
    V, line_nos = cli._read_vectors(None, 2)
    assert V.tolist() == [[0.6, 0.8], [1.0, 0.0]] and line_nos == [1, 2]


def test_randomize_crlf_and_single_vector(capsys, monkeypatch):
    _, out_lf, _ = randomize_stdin(capsys, monkeypatch, "0.6 0.8\n\n0 1\n", 2)
    rc, out, err = randomize_stdin(capsys, monkeypatch, "0.6 0.8\r\n\r\n0 1\r\n", 2)
    assert rc == 0 and err == "" and out == out_lf
    # one vector without a final newline is one (1, d) row
    rc, out, err = randomize_stdin(capsys, monkeypatch, "0 1", 2)
    assert rc == 0 and err == "" and len(out.splitlines()) == 1
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1"))
    assert cli._read_vectors("-", 2)[0].shape == (1, 2)
    # and one column is n rows of one coordinate
    monkeypatch.setattr("sys.stdin", io.StringIO("\n-1\n \n1\n"))
    V, line_nos = cli._read_vectors("-", 1)
    assert V.tolist() == [[-1.0], [1.0]] and line_nos == [2, 4]


@pytest.mark.parametrize("text", ["", "\n", "  \n\t\n\r\n"])
def test_randomize_no_vectors(capsys, monkeypatch, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns on no lines
        rc, out, err = randomize_stdin(capsys, monkeypatch, text, 2)
    assert (rc, out, err) == (3, "", "error: no input vectors given\n")


def test_read_vectors_equals_float_of_each_token(tmp_path):
    g = np.random.default_rng(18).standard_normal((200, 64))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    lines = [" ".join("%.17g" % x for x in row) for row in g.tolist()]
    src = tmp_path / "vectors.txt"
    src.write_text("\n".join(lines) + "\n")
    V, line_nos = cli._read_vectors(str(src), 64)
    assert line_nos == list(range(1, 201))
    expected = np.array([[float(t) for t in line.split()] for line in lines])
    assert V.shape == (200, 64) and V.tobytes() == expected.tobytes()
    assert V.tobytes() == g.tobytes()  # %.17g round-trips every double


# --- one parser per process ---------------------------------------------------

def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_seed_defaults_to_zero_whatever_the_environment(capsys, monkeypatch, tmp_path):
    # LDPMEAN_SEED names no seed: without --seed both seeded commands draw
    # on seed 0, also where the variable holds a number or no number
    src = tmp_path / "v.txt"
    src.write_text("1 0\n0.6 0.8\n")
    sim = ["simulate", "--eps", "4", "--d", "8", "--n", "2", "--trials", "4"]
    rnd = ["randomize", "--eps", "4", "--d", "2", "--in", str(src)]
    for argv in (sim, rnd):
        seeded = run_cli(capsys, *argv, "--seed", "0")
        assert seeded[0] == 0 and seeded[1]
        for env in ("7", "abc"):
            monkeypatch.setenv("LDPMEAN_SEED", env)
            assert run_cli(capsys, *argv) == seeded


def test_no_option_carries_over_between_calls(capsys, tmp_path):
    args = ["simulate", "--eps", "4", "--d", "8", "--n", "2", "--trials", "4"]
    target = tmp_path / "sim.csv"
    rc, out, _ = run_cli(capsys, *args, "--seed", "7", "--out", str(target))
    assert rc == 0 and out == ""
    seeded = target.read_text()
    rc, out, _ = run_cli(capsys, *args)  # neither --out nor --seed 7 again
    assert rc == 0 and out != "" and out != seeded
    assert out == run_cli(capsys, *args, "--seed", "0")[1]
    assert target.read_text() == seeded


def test_module_entry_point_exits_with_main_code():
    # `python -m ldpmean.cli`, as README shows, exits with main()'s code
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "ldpmean.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    ok = run("tune", "--eps", "4", "--d", "64")
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.splitlines()[0] == "eps0,eps1,p,q,gamma,m,err,c_const"
    usage = run("tune", "--eps", "-1", "--d", "64")
    assert usage.returncode == 2 and "usage error" in usage.stderr
    numeric = run("tune", "--eps", "1e-300", "--d", "64")
    assert numeric.returncode == 3 and numeric.stderr.startswith("error:")


@pytest.mark.parametrize("eps,d", [("64", 10**30), ("1", 10**160)], ids=["d=10^30", "d=10^160"])
def test_tune_at_a_huge_dimension_is_a_usage_error(eps, d):
    # d past 10^8 is refused before any numerics run: at d = 10^30 the log of a
    # cancelled mu - gamma once read as one, and at d = 10^160 the continued
    # fraction hung. In a subprocess, so that a hang fails here
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "ldpmean.cli", "tune", "--eps", eps, "--d", str(d),
                           "--alg", "privunit"], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == "", done.stderr
    assert done.stderr.startswith("usage error:") and "at most 10^8" in done.stderr
