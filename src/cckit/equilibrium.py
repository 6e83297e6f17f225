"""Market-clearing prices via the simplicial covering route.

A Cobb-Douglas exchange economy induces an excess-demand map Delta(p)
(demand minus endowment, per good) on strictly positive prices, and the
aggregator

    F(x, y) = E[Delta(x) * y]        (uniform weight 1/d per good)

is affine in y and satisfies Walras's law F(y, y) = 0 exactly, because
each agent spends exactly its budget. On the eta-truncated price
simplex C (corners v_j = eta*1 + (1 - d*eta)*e_j) this yields a
covering family

    F_j = { x in C : F(x, v_j) <= 0 },

covering because any x = sum_j a_j v_j gives
sum_j a_j F(x, v_j) = F(x, x) = 0, so some carrier term is <= 0 — on
every face, which is precisely the covering property the simplicial
walk consumes. A located cell pins the equilibrium region, and its
barycenter seeds Newton's method on F(x, v_j) = 0 for j < d-1 with
sum(x) = 1, using the closed-form Jacobian (Cobb-Douglas demand
derivatives for economies, T^T/(1 - d*eta) for tables); by Walras's law
the last slice then vanishes as well. The Newton point is kept only when
it lies in the truncated simplex and its violation, re-measured from
scratch, is at most tol. Otherwise, as for tables whose equilibria sit on
the boundary, a projected descent on m(x) = max_j F(x, v_j) (which is >= 0
everywhere and 0 exactly at equilibria, again by Walras) takes over,
stepping along the worst slice's row of the same Jacobian; and if that
also misses tol the walk refines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import ConvexSetRep, Polytope, project
from .errors import InputError, NonConvergent
from .kkm import KKMInstance, locate_complete_cell, STEP_CAP
from .measure import ProbSpace, RandVar

__all__ = [
    "CobbDouglasEconomy",
    "excess_demand",
    "ExcessDemandInstance",
    "walras_check",
    "check_hypotheses",
    "solve_excess_demand",
    "economy_from_json",
]

_SPOT_SEED = 20240905

#: default simplex truncation
DEFAULT_ETA = 1e-6

#: finest subdivision tried by the refinement loop
MAX_Q = 2 ** 22

#: Newton steps tried from each located cell before the descent takes over
NEWTON_CAP = 50

#: descent steps tried from a cell where Newton failed
DESCENT_CAP = 3000


@dataclass(frozen=True)
class CobbDouglasEconomy:
    """Agents i with endowments e_i >= 0 and expenditure shares a_i on the
    simplex; demand of agent i for good j at prices p is a_ij (p.e_i)/p_j."""

    endowments: np.ndarray  # (agents, goods)
    exponents: np.ndarray   # (agents, goods)

    def __post_init__(self):
        e = np.asarray(self.endowments, dtype=float)
        a = np.asarray(self.exponents, dtype=float)
        if e.ndim != 2 or a.shape != e.shape or e.shape[0] < 1 or e.shape[1] < 1:
            raise InputError("endowments and exponents must be equal-shape 2d arrays")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(a))):
            raise InputError("economy data must be finite")
        if np.any(e < 0.0) or np.any(a < 0.0):
            raise InputError("endowments and exponents must be nonnegative")
        if np.any(np.abs(a.sum(axis=1) - 1.0) > 1e-12):
            raise InputError("each agent's exponents must sum to 1 within 1e-12")
        if np.any(e.sum(axis=0) <= 0.0):
            raise InputError("every good needs positive aggregate endowment")
        object.__setattr__(self, "endowments", e)
        object.__setattr__(self, "exponents", a)

    @property
    def goods(self) -> int:
        return self.endowments.shape[1]

    @property
    def agents(self) -> int:
        return self.endowments.shape[0]

    def to_json(self) -> dict:
        return {
            "goods": self.goods,
            "agents": [
                {
                    "endowment": [float(x) for x in e_row],
                    "exponents": [float(x) for x in a_row],
                }
                for e_row, a_row in zip(self.endowments, self.exponents)
            ],
        }


def excess_demand(econ: CobbDouglasEconomy, p) -> np.ndarray:
    """Delta_j(p) = sum_i a_ij (p.e_i)/p_j - sum_i e_ij, for p > 0."""
    p_vals = p.values if isinstance(p, RandVar) else np.asarray(p, dtype=float)
    if p_vals.shape != (econ.goods,):
        raise InputError("price vector length must equal the number of goods")
    if np.any(p_vals <= 0.0) or not np.all(np.isfinite(p_vals)):
        raise InputError("prices must be strictly positive and finite")
    e = econ.endowments
    demand = (econ.exponents * (e @ p_vals)[:, None]).sum(axis=0) / p_vals
    return demand - e.sum(axis=0)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

class ExcessDemandInstance:
    """The aggregator F on the eta-truncated price simplex.

    Economy-backed instances evaluate Delta through the demand formula;
    table-backed instances interpolate a corner-value matrix
    T[i][j] = F(v_i, v_j) bilinearly in barycentric coordinates (the
    abstract shape used by adversarial and synthetic tests).
    """

    def __init__(self, d: int, eta: float, economy=None, table=None):
        if d < 1:
            raise InputError("need at least one good")
        if not (0.0 < eta < 1.0 / d):
            raise InputError("truncation must satisfy 0 < eta < 1/d")
        self.d = d
        self.eta = float(eta)
        self.economy = economy
        self.table = None if table is None else np.asarray(table, dtype=float)
        if (self.economy is None) == (self.table is None):
            raise InputError("exactly one of economy/table must be given")
        if self.table is not None and self.table.shape != (d, d):
            raise InputError("corner table must be d-by-d")
        self.space = ProbSpace.uniform(d)
        corners = np.full((d, d), eta) + (1.0 - d * eta) * np.eye(d)
        self.vertices = [RandVar(self.space, corners[j]) for j in range(d)]
        self.C = Polytope(self.vertices)

    @classmethod
    def from_economy(cls, econ: CobbDouglasEconomy,
                     eta: float = DEFAULT_ETA) -> "ExcessDemandInstance":
        return cls(econ.goods, eta, economy=econ)

    @classmethod
    def from_table(cls, table, eta: float = DEFAULT_ETA) -> "ExcessDemandInstance":
        table = np.asarray(table, dtype=float)
        return cls(table.shape[0], eta, table=table)

    def barycentric(self, x: RandVar) -> np.ndarray:
        """Exact affine inverse of the corner map: a = (x - eta)/(1 - d*eta)."""
        return (x.values - self.eta) / (1.0 - self.d * self.eta)

    def F(self, x: RandVar, y: RandVar) -> float:
        """E[Delta(x) * y]; affine in y by construction."""
        if self.economy is not None:
            delta = excess_demand(self.economy, x)
            return float(np.dot(self.space.probs, delta * y.values))
        a = self.barycentric(x)
        b = self.barycentric(y)
        return float(a @ self.table @ b)

    def violations(self, x: RandVar) -> np.ndarray:
        return np.array([self.F(x, v) for v in self.vertices])

    def to_json(self) -> dict:
        out = {"eta": self.eta}
        if self.economy is not None:
            out["economy"] = self.economy.to_json()
        else:
            out["table"] = [[float(v) for v in row] for row in self.table]
        return out


def walras_check(inst: ExcessDemandInstance, y: RandVar,
                 tol: float = 1e-9) -> bool:
    """Does y spend no more than its worth: F(y, y) <= tol?"""
    return inst.F(y, y) <= tol


class _AggregatorSublevelOracle(ConvexSetRep):
    """Membership oracle for F_j = {x : F(x, v_j) <= 0}; the covering walk
    needs membership only, so no projection is offered (for d >= 3 these
    sets need not even be convex — the walk still lands correctly because
    the covering property holds on every face, which is all it consumes)."""

    kind = "aggregator-sublevel"

    def __init__(self, inst: ExcessDemandInstance, j: int):
        self.inst = inst
        self.j = j
        self.space = inst.space

    def _contains(self, f: RandVar, tol: float) -> bool:
        return self.inst.F(f, self.inst.vertices[self.j]) <= tol


def check_hypotheses(inst: ExcessDemandInstance, samples: int = 50,
                     seed: int | None = None) -> dict:
    """Sampled evidence for the covering hypotheses: Walras's inequality
    F(y, y) <= 0 at random points, and midpoint convexity of the slices
    {x : F(x, v_j) <= 0}. Returns verdicts with witnesses, raising nothing."""
    rng = np.random.default_rng(_SPOT_SEED if seed is None else seed)
    report = {"walras": "pass", "convex_slices": "pass", "witness": None,
              "samples": samples}

    def sample_point():
        a = rng.dirichlet(np.ones(inst.d))
        vals = sum(ai * v.values for ai, v in zip(a, inst.vertices))
        return RandVar(inst.space, vals)

    for _ in range(samples):
        y = sample_point()
        val = inst.F(y, y)
        if val > 1e-9:
            report["walras"] = "fail"
            report["witness"] = {
                "check": "walras",
                "point": [float(v) for v in y.values],
                "value": val,
            }
            return report

    for _ in range(samples):
        j = int(rng.integers(inst.d))
        x1, x2 = sample_point(), sample_point()
        v = inst.vertices[j]
        f1, f2 = inst.F(x1, v), inst.F(x2, v)
        if f1 <= 0.0 and f2 <= 0.0:
            mid = RandVar(inst.space, 0.5 * (x1.values + x2.values))
            fm = inst.F(mid, v)
            if fm > 1e-9 * (1.0 + abs(f1) + abs(f2)):
                report["convex_slices"] = "fail"
                report["witness"] = {
                    "check": "convex_slices", "j": j,
                    "x1": [float(t) for t in x1.values],
                    "x2": [float(t) for t in x2.values],
                    "midpoint_value": fm,
                }
                return report
    return report


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def solve_excess_demand(inst: ExcessDemandInstance, tol: float = 1e-6,
                        check: bool = True):
    """A price point x0 with max_j F(x0, v_j) <= tol, plus a report.

    Route: simplicial covering walk at doubling resolution locates a
    completely-labeled cell; its barycenter seeds Newton's method on the
    slices, and, when the Newton point is not certified, a local descent
    on the net violation m(x) = max_j F(x, v_j), which Walras's law keeps
    nonnegative with zeros exactly at equilibria. The reported violation
    is re-measured from scratch at the returned point, and
    ``polish_iterations`` counts Newton and descent steps together.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InputError("tol must be positive and finite")
    if check:
        verdicts = check_hypotheses(inst)
        if verdicts["walras"] == "fail":
            raise InputError(
                f"Walras hypothesis failed at a sampled point: "
                f"{verdicts['witness']}"
            )
    else:
        verdicts = {"walras": "skipped", "convex_slices": "skipped"}

    if inst.d == 1:
        x0 = inst.vertices[0]
        worst = float(inst.violations(x0).max())
        report = _report(inst, 1, 0, 0, 0, worst, verdicts)
        if worst > tol:
            raise NonConvergent(
                f"single-good market cannot clear: violation {worst:g}"
            )
        return x0, report

    sets = [_AggregatorSublevelOracle(inst, j) for j in range(inst.d)]
    kkm_inst = KKMInstance(inst.vertices, sets)
    steps = [0]
    q = 32
    rounds = 0
    polish_total = 0
    best = None
    while q <= MAX_Q and steps[0] <= STEP_CAP:
        rounds += 1
        cell, _labeler = locate_complete_cell(kkm_inst, q, steps)
        zbar = np.mean(np.asarray(cell, dtype=float), axis=0) / q
        x, worst, polish_iters = _polish_cell(inst, kkm_inst.point_at(zbar), tol)
        polish_total += polish_iters
        if best is None or worst < best[1]:
            best = (x, worst)
        if worst <= tol:
            return x, _report(inst, q, rounds, steps[0], polish_total,
                              worst, verdicts)
        q *= 2
    raise NonConvergent(
        f"violation stalled at {best[1]:.3e} > tol {tol:g} "
        f"(resolution {q // 2}, {steps[0]} steps)"
    )


def _report(inst, q, rounds, steps, polish_iters, worst, verdicts) -> dict:
    return {
        "q": q,
        "rounds": rounds,
        "steps": steps,
        "polish_iterations": polish_iters,
        "max_violation": worst,
        "eta": inst.eta,
        "hypothesis_checks": verdicts,
    }


def _polish_cell(inst: ExcessDemandInstance, x: RandVar, tol: float):
    """From a cell's barycenter x: the Newton point when it lies in the
    truncated simplex and re-measures within tol, else the descent's point.
    Returns (point, its re-measured violation, Newton + descent steps)."""
    x_newton, iters = _newton(inst, x)
    if x_newton is not None and np.all(x_newton.values >= inst.eta):
        worst = float(inst.violations(x_newton).max())
        if worst <= tol:
            return x_newton, worst, iters
    x, descent_iters = _polish(inst, x, tol)
    return x, float(inst.violations(x).max()), iters + descent_iters


def _jacobian(inst: ExcessDemandInstance, x: np.ndarray) -> np.ndarray:
    """Closed-form J[j, k] = d F(x, v_j) / d x_k.

    Tables: F(x, v_j) = (T^T a(x))_j with a(x) = (x - eta)/(1 - d*eta), so
    J = T^T / (1 - d*eta). Economies: F(x, v_j) = sum_k P_k v_jk Delta_k(x)
    with the Cobb-Douglas derivative
    dDelta_j/dp_k = sum_i a_ij e_ik / p_j - [j == k] sum_i a_ij (e_i.p) / p_j^2.
    """
    if inst.table is not None:
        return inst.table.T / (1.0 - inst.d * inst.eta)
    e, a = inst.economy.endowments, inst.economy.exponents
    d_delta = (a.T @ e) / x[:, None]
    d_delta[np.diag_indices(inst.d)] -= (a * (e @ x)[:, None]).sum(axis=0) / x ** 2
    corners = np.stack([v.values for v in inst.vertices])
    return (corners * inst.space.probs) @ d_delta


def _newton(inst: ExcessDemandInstance, x: RandVar):
    """Newton on F(x, v_j) = 0 for j < d-1 with sum(x) = 1; by Walras's law
    the last slice then vanishes too wherever its weight is positive.
    Returns (point or None, iterations); None when an iterate leaves the
    positive orthant or the system turns singular. The caller re-measures
    the point before trusting it."""
    d = inst.d
    p = x.values
    for it in range(1, NEWTON_CAP + 1):
        viol = inst.violations(RandVar(inst.space, p))
        K = np.vstack([_jacobian(inst, p)[:-1], np.ones(d)])
        r = np.append(viol[:-1], p.sum() - 1.0)
        try:
            step = np.linalg.solve(K, r)
        except np.linalg.LinAlgError:
            return None, it
        p = p - step
        if not (np.all(np.isfinite(p)) and np.all(p > 0.0)):
            return None, it
        # a table's slices are affine in x, so its first step is exact
        if inst.table is not None or float(np.abs(step).max()) <= 1e-14:
            break
    return RandVar(inst.space, p), it


def _polish(inst: ExcessDemandInstance, x: RandVar, tol: float):
    """Projected subgradient descent with backtracking on the net violation
    m(x) = max_j F(x, v_j), confined to the truncated simplex; the
    subgradient is the worst slice's row of the closed-form Jacobian."""
    space = inst.space
    viol = inst.violations(x)
    t = 0.1
    it = 0
    while it < DESCENT_CAP and float(viol.max()) > 0.25 * tol:
        it += 1
        grad = _jacobian(inst, x.values)[int(np.argmax(viol))]
        if float(np.linalg.norm(grad)) <= 0.0:
            break
        for _ in range(40):
            cand = project(inst.C, RandVar(space, x.values - t * grad), 1e-12)
            cand_viol = inst.violations(cand)
            if float(cand_viol.max()) < float(viol.max()) - 1e-18:
                x, viol = cand, cand_viol
                t *= 1.6
                break
            t *= 0.5
        else:
            break
    return x, it


def economy_from_json(obj: dict) -> CobbDouglasEconomy:
    if not isinstance(obj, dict) or "agents" not in obj:
        raise InputError("economy JSON needs an 'agents' list")
    agents = obj["agents"]
    if not agents:
        raise InputError("economy needs at least one agent")
    try:
        e = np.array([a["endowment"] for a in agents], dtype=float)
        al = np.array([a["exponents"] for a in agents], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed agent entry: {exc}") from exc
    if "goods" in obj and int(obj["goods"]) != e.shape[1]:
        raise InputError("declared goods count disagrees with agent rows")
    return CobbDouglasEconomy(endowments=e, exponents=al)
