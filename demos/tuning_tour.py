"""A tour of budget tuning: how a total privacy budget eps splits between
the mixture weight and the threshold mass, what the resulting error looks
like across dimensions, and the scaled constant eps*err/d that the tuned
error settles into.

Run:  python3 demos/tuning_tour.py
"""

import math

from ldpmean import privunit, tuner


def main():
    print("=== one budget, two knobs ===")
    print("A split eps = eps0 + eps1 fixes p = sigmoid(eps0), q = sigmoid(eps1).")
    eps = 8.0
    for eps1 in (0.0, 2.0, 4.0, 6.0):
        s = tuner.budget_split(eps, eps1)
        err = privunit.analytic_err(tuner._params_at(s, 1024, "privunitg")).err
        print(f"  eps1={eps1:4.1f}  p={s.p:.6f}  q={s.q:.6f}  err={err:10.4f}")
    best = tuner.tune(eps, 1024, "privunitg")
    print(f"  tuned: eps1={best.split.eps1:.6f}  err={best.err_star:.4f}")
    print()

    print("=== tuned error across dimensions (eps = 8) ===")
    print(f"  {'d':>6}  {'err (gauss)':>12}  {'err (cap)':>12}  {'ratio':>7}")
    for d in (64, 256, 1024, 4096):
        res_g = tuner.tune(eps, d, "privunitg")
        err_pu = privunit.analytic_err(tuner._params_at(res_g.split, d, "privunit")).err
        print(f"  {d:6d}  {res_g.err_star:12.3f}  {err_pu:12.3f}  {res_g.err_star / err_pu:7.4f}")
    print("  The Gaussian variant costs a few percent at small d and almost")
    print("  nothing at large d, while its formulas stay closed-form.")
    print()

    print("=== the scaled constant eps * err / d as d -> infinity ===")
    print("  err behaves like c * d / eps at large d; c keeps falling as eps grows")
    print(f"  {'eps':>5}  {'c_const':>8}")
    for e in (2.0, 4.0, 8.0, 16.0, 32.0):
        print(f"  {e:5.1f}  {tuner.c_eps(e):8.4f}")
    print()

    print("=== repetition never pays ===")
    print("  k runs at eps/k each, averaged, versus one run at eps (d = 512):")
    direct = tuner.tune(eps, 512).err_star
    for k in (1, 2, 4):
        rep = tuner.repetition_err(eps, k, 512)
        print(f"  k={k}  err={rep:10.4f}  overhead={rep / direct:7.4f}x")
    print(f"  direct tuning is optimal; the scaled constant is monotone:")
    print(f"  c_eps({eps:.0f}) = {tuner.c_eps(eps):.4f} >= c_eps({2 * eps:.0f}) = {tuner.c_eps(2 * eps):.4f}")


if __name__ == "__main__":
    main()
