"""A walkthrough of the two randomizers: what a single privatized vector
looks like, why the output is unbiased after the 1/m scaling, and how the
two-level density yields the privacy certificate.

Run:  python3 demos/randomizer_walkthrough.py
"""

import math

import numpy as np

from ldpmean import privunit, tuner
from ldpmean.sphere import RngStream, sample_uniform_sphere


def main():
    d, eps = 16, 4.0
    v = sample_uniform_sphere(d, RngStream(1, 1))
    print(f"input: a unit vector in R^{d}, privacy budget eps = {eps}")
    print()

    print("=== spherical-cap randomizer ===")
    tuned = tuner.tune(eps, d, "privunit")
    pp = tuned.params
    print(f"  tuned p={pp.p:.4f} gamma={pp.gamma:.4f}: report a uniform point of")
    print(f"  the cap <u,v> >= gamma with prob p, else of the complement,")
    print(f"  then scale by 1/m = {1.0 / pp.m:.3f} so the expectation is v.")
    out = privunit.randomize(v, pp, RngStream(2, 1))
    print(f"  one draw: |out| = {np.linalg.norm(out):.3f}, <out, v> = {float(out @ v):.3f}")

    draws = 40_000
    batch = privunit.randomize_batch(v, pp, draws, RngStream(2, 2))
    dev = float(np.linalg.norm(batch.mean(axis=0) - v))
    print(f"  mean of {draws} draws is {dev:.4f} from v"
          f" (predicted scale {math.sqrt(tuned.err_star / draws):.4f})")
    print()

    print("=== Gaussian randomizer ===")
    tuned_g = tuner.tune(eps, d, "privunitg")
    pg = tuned_g.params
    print(f"  tuned p={pg.p:.4f} q={pg.q:.4f}: the coordinate along v is a")
    print(f"  truncated N(0, 1/d) draw, the rest stays Gaussian, scaled by 1/m.")
    batch_g = privunit.randomize_batch(v, pg, draws, RngStream(3, 1))  # the same call serves both laws
    dev_g = float(np.linalg.norm(batch_g.mean(axis=0) - v))
    print(f"  mean of {draws} draws is {dev_g:.4f} from v"
          f" (predicted scale {math.sqrt(tuned_g.err_star / draws):.4f})")
    emp_err = float(np.mean(np.sum((batch_g - v) ** 2, axis=1)))
    print(f"  per-draw squared error: empirical {emp_err:.3f},"
          f" analytic {tuned_g.err_star:.3f}")
    print()

    print("=== privacy from the density levels ===")
    print("  the output density takes exactly two values; their log ratio is")
    print("  the certified budget:")
    u = v / pp.m
    hi = privunit.log_density(u, v, pp)
    lo = privunit.log_density(u, -v, pp)
    print(f"  cap:   log ratio = {hi - lo:.12f}  (target eps = {eps})")
    u_g = (pg.gamma + pg.sigma) / pg.m * v
    hi_g = privunit.log_density(u_g, v, pg)
    lo_g = privunit.log_density(u_g, -v, pg)
    print(f"  gauss: log ratio = {hi_g - lo_g:.12f}  (target eps = {eps})")
    cert = privunit.privacy_eps(pp.p, pp.q, pp.p_comp, pp.q_comp)
    print(f"  certificate ln(p/(1-p)) + ln(q/(1-q)) = {cert:.12f}")


if __name__ == "__main__":
    main()
