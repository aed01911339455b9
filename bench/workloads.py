"""The benchmark's four workloads: seeded inputs, ops and output checks.

An op is a list of steps. Each step is one call into the package (or one
in-process ``ldpmean`` CLI invocation); the op's latency is the sum of its
steps' call times, and the op fails if any step raises, exits nonzero or
fails its output check. Checks run outside the timed calls. Statistical
checks are pooled over the whole run (``Pool``) so a correct program
essentially never trips them by chance.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

Z_BAND = 4.0  # pooled checks: |z| <= 4 standard errors


class CheckFailed(Exception):
    """An output of the program failed a benchmark check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Step:
    label: str
    call: Callable[[], object]
    check: Callable[[object, bool], None]  # (output, pool_stats)
    reports: int = 0  # randomized reports the call returns


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """``ldpmean`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def to_floats(tokens: list[str]) -> list[float]:
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise CheckFailed(f"unparsable number: {exc}") from None


def parse_csv(out, header: str) -> list[str]:
    """Fields of the one data row of a CLI call's CSV output (the runner
    has already counted a nonzero exit as a failure)."""
    lines = out[1].splitlines()
    require(len(lines) == 2, f"expected 2 output lines, got {len(lines)}")
    require(lines[0] == header, f"unexpected header {lines[0]!r}")
    fields = lines[1].split(",")
    require(len(fields) == len(header.split(",")), f"expected {len(header.split(','))} fields")
    return fields


def check_reports(X: np.ndarray, shape: tuple, radius: float | None) -> None:
    """Shape, finiteness and, for PrivUnit, norms on the radius-1/m sphere.

    Works from the rows' squared norms, so it allocates no n x d temporary:
    such temporaries fragment the heap between the program's calls and add
    to ``peak_rss_mb`` an amount that varies from run to run. A NaN or
    infinite coordinate makes its row's squared norm non-finite.
    """
    require(X.shape == shape, f"shape {X.shape}, expected {shape}")
    sq = np.einsum("ij,ij->i", X, X)
    require(bool(np.isfinite(sq).all()), "non-finite report (or a coordinate whose square overflows)")
    if radius is not None:
        dev = np.abs(np.sqrt(sq) - radius).max()
        require(dev <= 1e-9 * radius, f"report norm off 1/m by {dev / radius:.3g} relative")


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


class Pool:
    """Run-wide z-statistics, one per named check: sums of observed values,
    their means and their variances over every pooled call.

    A linear statistic (a sum of many independent terms) is compared as
    normal. A quadratic one (a squared norm of a near-Gaussian vector) is a
    scaled chi-square with 2 mean^2 / var degrees of freedom, which can be
    few when one call is pooled; its z uses the Wilson-Hilferty cube root.
    """

    def __init__(self):
        self.sums: dict[str, list] = {}

    def add(self, name: str, observed: float, mean: float, var: float, quadratic: bool = False) -> None:
        acc = self.sums.setdefault(name, [0.0, 0.0, 0.0, quadratic])
        acc[0] += observed
        acc[1] += mean
        acc[2] += var

    def z(self) -> dict[str, float]:
        out = {}
        for name, (obs, mean, var, quadratic) in sorted(self.sums.items()):
            if quadratic:
                w = 2.0 / (9.0 * (2.0 * mean * mean / var))
                out[name] = ((obs / mean) ** (1.0 / 3.0) - (1.0 - w)) / math.sqrt(w)
            else:
                out[name] = (obs - mean) / math.sqrt(var)
        return out

    def problems(self) -> list[str]:
        return [f"{k}: |z|={abs(z):.2f} > {Z_BAND}" for k, z in self.z().items() if not abs(z) <= Z_BAND]


@dataclass(frozen=True)
class Moments:
    """Per-report moments of an unbiased randomizer's output X for input v:
    <X, v> has mean 1 and variance var_par; the part of X orthogonal to v
    is isotropic in the (d-1)-dim complement with E|X_perp|^2 = e_perp."""

    d: int
    var_par: float
    e_perp: float

    @property
    def max_eig(self) -> float:
        """Largest eigenvalue of one report's covariance."""
        return max(self.var_par, self.e_perp / (self.d - 1))

    @classmethod
    def of(cls, ldp, params) -> "Moments":
        d, m = params.d, params.m
        if isinstance(params, ldp.privunit.CapParams):
            alpha_sq = ldp.privunit.analytic_err(params).alpha_sq
            return cls(d, alpha_sq / (m * m) - 1.0, (1.0 - alpha_sq) / (m * m))
        return cls(d, params.alpha_sq / (m * m) - 1.0, (d - 1.0) / (d * m * m))


def pool_reports(pool: Pool, key: str, mom: Moments, X: np.ndarray, V: np.ndarray) -> None:
    """Add one call's reports X (N x d) for unit inputs V (N x d, or one
    row broadcast to all reports) to the unbiasedness checks: the parallel
    component sum(<X_j, v_j> - 1), and |S|^2 for S = sum of the orthogonal
    parts, against their exact means and (Gaussian-limit) variances."""
    N = X.shape[0]
    if V.shape[0] == 1:
        v = V[0]
        par = X @ v
        S = X.sum(axis=0) - par.sum() * v
        gram_fro2 = float(N) ** 2  # |N v v^T|_F^2
    else:
        par = np.einsum("ij,ij->i", X, V)
        S = X.sum(axis=0) - par @ V
        gram_fro2 = float(np.sum((V.T @ V) ** 2))
    pool.add(f"{key}.parallel", float(par.sum()), N, N * mom.var_par)
    # Cov(S) = c (N I - V^T V) with c = e_perp / (d - 1)
    c = mom.e_perp / (mom.d - 1)
    tr_cov2 = c * c * (N * N * mom.d - 2.0 * N * N + gram_fro2)
    pool.add(f"{key}.orthogonal", float(S @ S), N * mom.e_perp, 2.0 * tr_cov2, quadratic=True)


class Workload:
    name = ""
    trace_ops = 1  # ops in the fixed traced set

    def __init__(self):
        self.pool = Pool()
        self.counters: dict[str, int] = {}

    def setup(self, ldp, seed: int, scratch: str, tiny: bool) -> None:
        raise NotImplementedError

    def op(self, i: int) -> list[Step]:
        raise NotImplementedError

    def op_key(self, i: int) -> int:
        """The class of the i-th op; ``op_p50_ms`` is the median over the
        classes of each one's median latency. By default every op is its
        own class."""
        return i

    def fixed_ops(self, seconds: float) -> int | None:
        """Ops in a run of ``seconds``, fixed in advance; None to run ops
        until ``seconds`` pass."""
        return None

    def bump(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def sizes(self) -> dict:
        return {}


# --------------------------------------------------------------------------
# envelope: the (eps, d) x alg tuning sweep plus three CLI calls

ENV_EPS = (1e-3, 0.1, 1.0, 8.0, 32.0, 64.0, 256.0)
ENV_D = (2, 3, 16, 1024, 50_000, 100_000, 1_000_000)
ENV_ALGS = ("privunit", "privunitg")
ENV_SWEEP_S = 0.6  # nominal time of one sweep, which sets the sweeps per run


class Envelope(Workload):
    name = "envelope"
    points = [(alg, eps, d) for alg in ENV_ALGS for eps in ENV_EPS for d in ENV_D]
    cli_ops = [("tune", alg) for alg in ENV_ALGS] + [("lp_verify", None)]
    sweep_len = trace_ops = len(points) + len(cli_ops)

    def setup(self, ldp, seed, scratch, tiny):
        self.ldp = ldp
        self.seed = seed
        self.ref_err = {alg: ldp.tuner.tune(8.0, 1024, alg).err_star for alg in ENV_ALGS}
        self._order = (-1, None)  # (sweep, its op order)

    def sizes(self):
        return {"points": len(self.points), "cli_ops": len(self.cli_ops), "ops_per_sweep": self.sweep_len}

    def fixed_ops(self, seconds):
        """Whole sweeps, as many as fit in ``seconds`` at the nominal sweep
        time: a run's op and failure counts then depend on ``seconds``
        alone, not on how fast the host happens to be."""
        return self.sweep_len * max(1, round(seconds / ENV_SWEEP_S))

    def op_key(self, i):
        sweep, k = divmod(i, self.sweep_len)
        if self._order[0] != sweep:
            self._order = (sweep, np.random.default_rng([self.seed, sweep]).permutation(self.sweep_len))
        return int(self._order[1][k])

    def op(self, i):
        j = self.op_key(i)
        if j < len(self.points):
            alg, eps, d = self.points[j]
            return [Step(f"tune:{alg}", lambda: self.ldp.tuner.tune(eps, d, alg),
                         lambda res, pool: self._check_tune(res, eps, d))]
        cmd, alg = self.cli_ops[j - len(self.points)]
        if cmd == "tune":
            argv = ["tune", "--eps", "8", "--d", "1024", "--alg", alg]
            return [Step(f"cli.tune:{alg}", lambda: run_cli(self.ldp.cli, argv),
                         lambda out, pool: self._check_cli_tune(out, alg))]
        argv = ["lp_verify", "--eps", "4", "--k", "360"]
        return [Step("cli.lp_verify", lambda: run_cli(self.ldp.cli, argv), self._check_lp)]

    def _check_tune(self, res, eps, d):
        budget = res.params.budget
        if budget > eps:  # sub-ulp privacy overshoot: counted, not a failure
            self.bump("tuner.budget_over_eps")
        require(budget <= eps * (1.0 + 1e-12), f"budget {budget!r} > eps {eps!r}")
        require(math.isfinite(res.err_star) and res.err_star > 0.0, f"err_star {res.err_star!r}")
        require(res.params.d == d, f"params.d {res.params.d} != {d}")

    def _check_cli_tune(self, out, alg):
        f = to_floats(parse_csv(out, "eps0,eps1,p,q,gamma,m,err,c_const"))
        require(all(math.isfinite(x) for x in f), "non-finite field")
        require(close(f[0] + f[1], 8.0, 1e-10), "eps0 + eps1 != eps")
        require(close(f[6], self.ref_err[alg], 1e-10), f"err {f[6]} != tune() {self.ref_err[alg]}")

    def _check_lp(self, out, pool):
        f = parse_csv(out, "status,alpha,err_implied,threshold_count,base_p")
        require(f[0] == "pass", f"status {f[0]}")
        require(all(math.isfinite(x) and x > 0.0 for x in to_floats(f[1:])), "bad lp fields")


# --------------------------------------------------------------------------
# batch_wide / batch_narrow: one call to each batch sampler per op


class Batch(Workload):
    n = d = 0
    eps = 8.0
    pool_size = 64  # distinct seeded input vectors, cycled

    def setup(self, ldp, seed, scratch, tiny):
        self.ldp = ldp
        self.seed = seed
        if tiny:
            self.n = max(type(self).n // 100, 200)
        self.params = {alg: ldp.tuner.tune(self.eps, self.d, alg).params for alg in ENV_ALGS}
        self.mom = {alg: Moments.of(ldp, p) for alg, p in self.params.items()}
        g = np.random.default_rng([seed, self.d]).standard_normal((self.pool_size, self.d))
        self.inputs = g / np.linalg.norm(g, axis=1, keepdims=True)

    def sizes(self):
        return {"n": self.n, "d": self.d, "eps": self.eps,
                "computed_bytes_per_array": self.n * self.d * 8}

    def op_key(self, i):
        """The sign of v[0]: privunit rotates its reports with
        ``sphere.rotate_from_e1``, which for v[0] < 0 keeps one more n x d
        temporary alive. Keying on it weighs both cases equally whatever
        share of a run's few ops each seed gives them."""
        return int(self.inputs[i % self.pool_size][0] < 0.0)

    def op(self, i):
        ldp = self.ldp
        v = self.inputs[i % self.pool_size]
        pu, pg = self.params["privunit"], self.params["privunitg"]
        stream = lambda k: ldp.sphere.RngStream(self.seed, 2 * i + k)  # noqa: E731
        return [
            Step("privunit.randomize_batch", lambda: ldp.privunit.randomize_batch(v, pu, self.n, stream(0)),
                 lambda X, pool: self._check(X, v, "privunit", pool), self.n),
            Step("privunitg.randomize_g_batch", lambda: ldp.privunitg.randomize_g_batch(v, pg, self.n, stream(1)),
                 lambda X, pool: self._check(X, v, "privunitg", pool), self.n),
        ]

    def _check(self, X, v, alg, pool):
        check_reports(X, (self.n, self.d), 1.0 / self.params[alg].m if alg == "privunit" else None)
        if pool:
            pool_reports(self.pool, alg, self.mom[alg], X, v[None, :])


class BatchWide(Batch):
    name = "batch_wide"
    n, d = 20_000, 1024


class BatchNarrow(Batch):
    name = "batch_narrow"
    n, d = 200_000, 16


# --------------------------------------------------------------------------
# protocol: the per-user scalar path through the CLI


class Protocol(Workload):
    name = "protocol"
    d, eps = 64, 4.0
    users, trials, vectors = 100, 5, 500

    def setup(self, ldp, seed, scratch, tiny):
        self.ldp = ldp
        self.seed = seed
        if tiny:
            self.users, self.vectors = 20, 50
        tuned = {alg: ldp.tuner.tune(self.eps, self.d, alg) for alg in ENV_ALGS}
        self.err = {alg: t.err_star for alg, t in tuned.items()}
        self.m = {alg: t.params.m for alg, t in tuned.items()}
        self.mom = {alg: Moments.of(ldp, t.params) for alg, t in tuned.items()}
        g = np.random.default_rng([seed, self.d]).standard_normal((self.vectors, self.d))
        self.V = g / np.linalg.norm(g, axis=1, keepdims=True)
        self.path = os.path.join(scratch, "vectors.txt")
        with open(self.path, "w") as fh:
            fh.writelines(" ".join(f"{x:.17g}" for x in row) + "\n" for row in self.V)

    def sizes(self):
        return {"d": self.d, "eps": self.eps, "simulate_users": self.users, "simulate_trials": self.trials,
                "randomize_vectors": self.vectors}

    def op(self, i):
        cli = self.ldp.cli
        steps = []
        for k, alg in enumerate(ENV_ALGS):
            seed = str((self.seed * 1_000_003 + 4 * i + 2 * k) % (1 << 63))
            sim = ["simulate", "--n", str(self.users), "--d", str(self.d), "--trials", str(self.trials),
                   "--eps", "4", "--alg", alg, "--seed", seed]
            rnd = ["randomize", "--eps", "4", "--d", str(self.d), "--alg", alg, "--in", self.path,
                   "--seed", seed]
            steps.append(Step(f"cli.simulate:{alg}", lambda a=sim: run_cli(cli, a),
                              lambda out, pool, a=alg, s=seed: self._check_sim(out, a, s, pool),
                              self.users * self.trials))
            steps.append(Step(f"cli.randomize:{alg}", lambda a=rnd: run_cli(cli, a),
                              lambda out, pool, a=alg: self._check_rnd(out, a, pool), self.vectors))
        return steps

    def _check_sim(self, out, alg, seed, pool):
        header = "n,trials,empirical_mse,analytic_err_per_user,standard_error,seed"
        n, trials, mse, err, se, seed_out = to_floats(parse_csv(out, header))
        require((n, trials) == (self.users, self.trials), f"n, trials = {n}, {trials}")
        require(close(seed_out, float(seed), 1e-11), f"seed echo {seed_out}")
        require(close(err, self.err[alg], 1e-10), f"analytic err {err} != tune() {self.err[alg]}")
        require(math.isfinite(mse) and mse > 0.0 and math.isfinite(se) and se > 0.0, "bad mse or se")
        if pool:
            # one trial's squared error |Z|^2, Z the mean of n independent
            # report errors: E = err/n and Var = 2 tr(Cov Z^2) <= 2 max_eig/n * err/n
            mom, n = self.mom[alg], self.users
            bound = 2.0 * (mom.max_eig / n) * (self.err[alg] / n) / self.trials
            self.pool.add(f"{alg}.simulate_mse", mse, self.err[alg] / n, bound, quadratic=True)

    def _check_rnd(self, out, alg, pool):
        rows = [to_floats(ln.split()) for ln in out[1].splitlines()]
        require(len(rows) == self.vectors, f"{len(rows)} output lines, expected {self.vectors}")
        require(all(len(r) == self.d for r in rows), f"a line without {self.d} coordinates")
        X = np.array(rows)
        check_reports(X, (self.vectors, self.d), 1.0 / self.m[alg] if alg == "privunit" else None)
        if pool:
            pool_reports(self.pool, f"{alg}.randomize", self.mom[alg], X, self.V)


WORKLOADS = {w.name: w for w in (Envelope, BatchWide, BatchNarrow, Protocol)}
