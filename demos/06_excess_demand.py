# Exchange economies: excess demand fields, the budget identity, and
# locating market-clearing prices with the covering walk.

import numpy as np

from cckit import (
    CobbDouglasEconomy, ExcessDemandInstance,
    excess_demand, walras_check, check_hypotheses,
    solve_excess_demand, InputError,
)

# two agents, two goods. agent 0 owns good 0, agent 1 owns good 1, and both
# split spending evenly -- by symmetry prices must come out equal
econ = CobbDouglasEconomy([[1.0, 0.0], [0.0, 1.0]],
                          [[0.5, 0.5], [0.5, 0.5]])

p = np.array([0.25, 0.75])
z = excess_demand(econ, p)
print("excess demand at p =", p, "->", z)
print("budget identity p.z =", float(p @ z))   # zero at EVERY price

inst = ExcessDemandInstance.from_economy(econ)
x, report = solve_excess_demand(inst, tol=1e-8)
print("\nclearing prices:", np.round(x.values, 8))
print("max corner violation:", report["max_violation"],
      "  rounds:", report["rounds"], " polish:", report["polish_iterations"])
print("hypothesis checks:", report["hypothesis_checks"])

# Cobb-Douglas clearing is linear in p: good j clears when
# sum_i a_ij (p.e_i) = S_j p_j, S the total endowment. So the exact prices
# solve [diag(S) - a^T e; 1^T] p = [0; 1], and the walk lands on them
S = econ.endowments.sum(axis=0)
K = np.vstack([np.diag(S) - econ.exponents.T @ econ.endowments,
               np.ones(econ.goods)])
p_exact = np.linalg.lstsq(K, np.append(np.zeros(econ.goods), 1.0), rcond=None)[0]
print("exact linear solve:", np.round(p_exact, 8),
      " max diff", np.abs(x.values - p_exact).max(),
      " its excess demand", np.abs(excess_demand(econ, p_exact)).max())

# a lopsided single-agent economy: spending shares (1/3, 2/3) with unit
# endowments pin relative prices at 1:2
solo = CobbDouglasEconomy([[1.0, 1.0]], [[1 / 3, 2 / 3]])
x, _ = solve_excess_demand(ExcessDemandInstance.from_economy(solo), tol=1e-8)
print("\nsingle agent, shares (1/3, 2/3): prices", np.round(x.values, 8))

# walras_check tests the identity at a point; for economies it holds
# everywhere, which check_hypotheses spot-verifies along with convexity of
# the slices
print("hypotheses:", check_hypotheses(ExcessDemandInstance.from_economy(solo)))

# instances can also be table-backed: a d x d matrix of corner values,
# interpolated bilinearly. Only conservative tables (antisymmetric) satisfy
# the interpolated budget identity -- others are refused up front.
spin = ExcessDemandInstance.from_table([[0.0, 1.0], [-1.0, 0.0]])
x, report = solve_excess_demand(spin, tol=1e-8)
print("\nantisymmetric table clears at corner:", np.round(x.values, 6))

try:
    solve_excess_demand(ExcessDemandInstance.from_table([[0.5, 1.0], [1.0, 0.2]]),
                        tol=1e-8)
except InputError as exc:
    print("non-conservative table refused:", exc)
