"""Command line driver: deterministic CSV experiment runners plus a
single-shot randomizer for scripting.

Exit codes: 0 success, 2 usage error (bad arguments, an input or output
path that cannot be opened), 3 numeric or data-validation error.
All numeric output uses 12 significant digits with a C-locale decimal
point, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import capstruct_lp, estimator, privunit, sphere, tuner
from .errors import DegenerateParameterError, SupportError
from .sphere import RngStream

__all__ = ["main"]


def _fmt(x) -> str:
    return f"{x:.12g}"


def _row(*values) -> str:
    return ",".join(v if isinstance(v, str) else _fmt(v) for v in values)


def _list(text: str, kind) -> list:
    items = []
    for t in filter(None, text.split(",")):
        try:
            items.append(kind(t))
        except ValueError:  # argparse's own text for a bad type=int or type=float value
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {t!r}") from None
    if not items:
        raise argparse.ArgumentTypeError(f"needs at least one value, got {text!r}")
    return items


def _int_list(text: str) -> list[int]:
    return _list(text, int)


def _float_list(text: str) -> list[float]:
    return _list(text, float)


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_tune(args) -> list[str]:
    res = tuner.tune(args.eps, args.d, args.alg)
    s = res.split
    return [
        "eps0,eps1,p,q,gamma,m,err,c_const",
        _row(s.eps0, s.eps1, s.p, s.q, res.params.gamma, res.params.m, res.err_star, res.c_const),
    ]


def cmd_ratio(args) -> list[str]:
    lines = ["d,err_pu,err_pug,ratio"]
    for d in args.d:
        tuned = tuner.tune(args.eps, d, "privunitg")
        err_pug = tuned.err_star
        try:
            err_pu, _ = tuner._err_at(tuned.split, d, "privunit")
        except DegenerateParameterError:  # the split's cap is below the smallest a float gamma expresses
            err_pu = float("inf")
        lines.append(_row(float(d), err_pu, err_pug, err_pug / err_pu))
    return lines


def cmd_c_curve(args) -> list[str]:
    lines = ["eps,c_const"]
    for eps in args.eps:
        lines.append(_row(eps, tuner.c_eps(eps)))
    return lines


def cmd_simulate(args) -> list[str]:
    rep = estimator.run_trials(args.n, args.d, args.eps, args.alg, args.trials, args.seed)
    return [
        "n,trials,empirical_mse,analytic_err_per_user,standard_error,seed",
        _row(
            float(rep.n),
            float(rep.trials),
            rep.empirical_mse,
            rep.analytic_err_per_user,
            rep.standard_error,
            float(rep.seed),
        ),
    ]


def _read_vectors(infile: str | None, d: int) -> tuple[np.ndarray, list[int]]:
    """The input's vectors, one per non-blank line, each coordinate equal bit
    for bit to Python's float of its token, and their line numbers.
    numpy's text reader parses the usual input in one pass; where it raises
    or finds other than d columns, the per-line loop reads the tokens it
    refuses (1_0, full-width digits) or names the first bad line. The input
    text dies on return, before the output's text is built. Bytes that do
    not decode are a data error that names their position."""
    try:
        if infile and infile != "-":
            with open(infile) as fh:
                raw = fh.read()
        else:  # the bytes where they exist: a real stdin may decode with surrogateescape
            buf = getattr(sys.stdin, "buffer", None)
            raw = sys.stdin.read() if buf is None else buf.read().decode(sys.stdin.encoding)
    except UnicodeDecodeError as exc:  # a ValueError, which main reads as a usage error
        raise SupportError(f"input does not decode: {exc}") from None
    lines, line_nos = [], []
    for ln, line in enumerate(raw.splitlines(), start=1):
        if line.strip():
            lines.append(line)
            line_nos.append(ln)
    if not lines:  # checked first: np.loadtxt warns on no lines
        raise SupportError("no input vectors given")
    try:
        vectors = np.loadtxt(lines, dtype=float, comments=None, ndmin=2)
        if vectors.shape[1] == d:
            return vectors, line_nos
    except ValueError:
        pass
    rows = []
    for ln, line in zip(line_nos, lines):
        try:
            row = np.array(line.split(), dtype=float)
        except ValueError as exc:
            raise SupportError(f"line {ln}: not a vector of reals: {exc}") from None
        if row.size != d:
            raise SupportError(f"line {ln}: expected {d} coordinates, got {row.size}")
        rows.append(row)
    return np.array(rows), line_nos


def cmd_randomize(args) -> list[str]:
    tuned = tuner.tune(args.eps, args.d, args.alg)  # checks the arguments before the input is read
    vectors, line_nos = _read_vectors(args.infile, args.d)
    nrm = sphere._row_norms(vectors)
    off = np.flatnonzero(~(np.abs(nrm - 1.0) <= 1e-6))  # NaN norms are off too
    if off.size:
        j = off[0]
        raise SupportError(f"line {line_nos[j]}: vector norm {float(nrm[j])!r} is off unit by more than 1e-6")
    vectors /= nrm[:, None]
    line_fmt = " ".join(["%.12g"] * args.d)  # _fmt's text for every coordinate at once
    reports = privunit._row_reports(vectors, tuned.params, RngStream(args.seed, 0))  # rows checked above
    return [line_fmt % tuple(row.tolist()) for row in reports]  # one row of Python floats at a time


def cmd_lp_verify(args) -> list[str]:
    sol = capstruct_lp.solve_greedy(capstruct_lp.lp_instance(args.k, args.eps))
    ok = capstruct_lp.verify_cap_structure(sol)
    return [
        "status,alpha,err_implied,threshold_count,base_p",
        _row("pass" if ok else "fail", sol.alpha, sol.err_implied, float(sol.threshold_count), sol.base_p),
    ]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpmean",
        description="Locally private mean estimation: tuning, simulation, and structure checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, alg=True, seed=False):
        if alg:
            p.add_argument("--alg", choices=tuner._ALGS, default="privunitg")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = sub.add_parser("tune", help="optimal split for one (eps, d)")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("ratio", help="error of the Gaussian vs cap randomizer at shared params")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--d", type=_int_list, required=True, help="comma-separated dimensions")
    add_common(p, alg=False)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("c_curve", help="d -> infinity scaled constant across budgets; tune: at one d")
    p.add_argument("--eps", type=_float_list, required=True, help="comma-separated budgets")
    add_common(p, alg=False)
    p.set_defaults(func=cmd_c_curve)

    p = sub.add_parser("simulate", help="Monte Carlo protocol runs vs analytic error")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--trials", type=int, default=100)
    add_common(p, seed=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("randomize", help="privatize unit vectors read from a file or stdin")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--in", dest="infile", default=None,
                   help="input path ('-' or omitted reads stdin); one vector per line")
    add_common(p, seed=True)
    p.set_defaults(func=cmd_randomize)

    p = sub.add_parser("lp_verify", help="solve the circle density problem and certify cap structure")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--k", type=int, default=360, help="even arc count")
    add_common(p, alg=False)
    p.set_defaults(func=cmd_lp_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.func(args), args.out)
    except (DegenerateParameterError, ArithmeticError, SupportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:  # a path that cannot be opened, a size past memory
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
