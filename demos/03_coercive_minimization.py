# Minimizing convex integral functionals over compact convex sets of
# nonnegative random variables, with coercivity diagnostics.

import numpy as np

from cckit import (
    ProbSpace, RandVar, Polytope, Box, Intersection, Sublevel,
    LinearFunctional, QuadraticFunctional, PointwiseFunctional,
    minimize, coercivity_report, check_growth, certificate_net,
    lower_contour, expectation,
)

U2 = ProbSpace.uniform(2)

# E[f^2] over the set of nonnegative f with mean exactly 1 and values in
# [0, 2]. That set is the segment between (2,0) and (0,2); the answer is the
# constant 1 (this is just the equality case of the mean-square inequality).
band = Polytope([RandVar(U2, [2.0, 0.0]), RandVar(U2, [0.0, 2.0])])
fstar, value, report = minimize(PointwiseFunctional(U2, "x^2"), band, tol=1e-10)
print("min E[f^2] s.t. E[f]=1, 0<=f<=2:")
print("  f* =", fstar.values, " value =", value)
bound = "fw_gap" if report["certificate"] == "fw-gap" else "net_margin"
print("  iterations:", report["iterations"], " certificate:",
      report["certificate"], f" {bound}:", report[bound])

# levels are maintained as a decreasing ladder, each a certified upper bound
lv = report["levels"]
print("  first/last levels:", lv[0], "->", lv[-1])

# a linear objective over a box intersected with a quadratic lower contour:
# the optimizer walks the boundary of the contour set
U2b = ProbSpace.uniform(2)
boxset = Box(RandVar(U2b, [0.0, 0.0]), RandVar(U2b, [2.0, 2.0]))
Q = QuadraticFunctional(U2b, np.eye(2))
ball = lower_contour(Q, 0.25)   # {f : E[f^2]/2 <= 1/4}, a weighted disc
feas = Intersection([boxset, ball])
obj = LinearFunctional(U2b, [-1.0, -2.0])
fstar, value, _ = minimize(obj, feas, tol=1e-9)
print("\nlinear over box & contour: f* =", np.round(fstar.values, 6),
      " value =", round(value, 9))
# compare against the hand answer: maximize (f1 + 2 f2)/2 on the circle
# f1^2 + f2^2 = 1 -> f* = (1, 2)/sqrt(5), value -sqrt(5)/2
print("  closed form -sqrt(1.25) =", -np.sqrt(1.25))

# coercivity diagnostics: does the integrand grow fast enough that large
# functions cost, making sublevel sets bounded?
for spec_str in ("x^2", "x"):
    fun = PointwiseFunctional(U2, spec_str)
    rep = coercivity_report(fun, probe=RandVar(U2, [1.0, 1.0]))
    print(f"\ncoercivity of E[{spec_str}]:")
    for k in ("growth_probe", "weak_coercive", "l1_bound", "convexity_sampled"):
        print(f"  {k}: {rep[k]}")

# the saturating map 1 - exp(-x) passes the raw growth probe (its grid
# ratios stay above the 1e-9 cutoff) but admits no positive-slope affine
# minorant, so it is not weakly coercive -- the report separates the two.
sat = PointwiseFunctional(U2, "1 - exp(0 - x)", declared_convex=False)
rep = coercivity_report(sat, probe=RandVar(U2, [1.0, 1.0]))
print("\nsaturating integrand: growth probe", rep["growth_probe"],
      "but weak_coercive", rep["weak_coercive"])
print("raw grid rule on its own:", check_growth("1 - exp(0 - x)"))

# every compact feasible set carries a finite certificate net -- the points
# the optimizer falls back on, where the Frank-Wolfe gap does not apply, to
# prove restarts are unnecessary
net = certificate_net(band)
print("\ncertificate net of the mean-one band:",
      [list(map(float, p.values)) for p in net])
