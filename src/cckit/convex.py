"""Closed convex subsets of the nonnegative orthant over a finite space.

Four representations share one geometry, the E[fg]-weighted Euclidean
norm (probability-weighted coordinates):

* ``Polytope``    -- convex hull of finitely many nonnegative generators;
* ``Box``         -- coordinate intervals [lower, upper] with lower >= 0;
* ``Sublevel``    -- {f >= 0 : G(f) <= level} for a declared-convex G;
* ``Intersection``-- finite intersections of the above.

Membership semantics per representation: Polytope by an exact match
against a generator, else by a feasibility program over the weight
simplex (active-set least squares, deterministic lowest-index
tie-breaks), Sublevel by evaluating the functional, Box and Intersection
componentwise. Projections: exact clamp for boxes, the
simplex program for polytopes, the functional's own ``prox`` at the
least feasible multiplier for sublevel sets, and Dykstra's alternating
scheme for intersections. Iterative routines fail loudly on budget exhaustion.
Support function ``support(v, at)`` >= max_s E[v (s - at)]: exact with a maximizer
for boxes and polytopes, the parts' least bound for intersections, +inf for sublevels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, CurvatureError, InputError, SolverError
from .functionals import functional_from_json, midpoint_scan, monotone_root
from .measure import (
    ProbSpace,
    RandVar,
    json_field,
    json_floats,
    norm,
    randvar_from_json,
    randvar_to_json,
)

#: iteration cap for the active-set weight program
SIMPLEX_QP_CAP = 10_000

#: dual feasibility slack for the weight program, relative to data scale
SIMPLEX_QP_DUAL_TOL = 1e-12

#: sweeps allowed to Dykstra's alternating projections
DYKSTRA_CAP = 5_000

#: fixed seed for sampled validation (solver paths never depend on --seed)
_SPOT_SEED = 20240901


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Nonnegative weights summing to one (a point of the weight simplex)."""

    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise InputError("weights must be a nonempty vector")
        if not np.all(np.isfinite(w)):
            raise InputError("weights must be finite")
        if np.any(w < 0.0):
            raise InputError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise InputError("weights must sum to 1 within 1e-12")


def convex_combine(points: list[RandVar], w: WeightVector) -> RandVar:
    """The convex combination sum_k w_k points_k (shared space required)."""
    if len(points) == 0:
        raise InputError("need at least one point")
    if len(points) != w.weights.size:
        raise InputError("weights must align with points")
    space = points[0].space
    vals = np.zeros(space.n)
    for wk, pt in zip(w.weights, points):
        if not pt.space.same(space):
            raise InputError("all points must share one space")
        vals += wk * pt.values
    return RandVar(space, vals)


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

class ConvexSetRep:
    """Base class; concrete sets implement the private geometry hooks."""

    kind = "abstract"
    space: ProbSpace

    def _contains(self, f: RandVar, tol: float) -> bool:
        raise NotImplementedError

    def _project(self, f: RandVar, tol: float) -> RandVar:
        raise NotImplementedError

    def distance(self, f: RandVar, tol: float = 1e-9) -> float:
        """Weighted-norm distance from f to the set (via projection)."""
        return norm(f - self._project(f, tol))

    def support(self, v: np.ndarray, at: RandVar):
        """(bound, s): bound >= max_s E[v (s - at)] for a density v, summed in one
        fixed-order reduction; s attains the bound when exact, else None."""
        return math.inf, None


class Polytope(ConvexSetRep):
    kind = "polytope"

    def __init__(self, generators: list[RandVar]):
        if len(generators) == 0:
            raise InputError("a polytope needs at least one generator")
        space = generators[0].space
        for g in generators:
            if not g.space.same(space):
                raise InputError("generators must share one space")
            if np.any(g.values < 0.0):
                raise InputError("generators must be nonnegative atomwise")
        self.space = space
        self.generators = list(generators)
        # columns scaled by sqrt(p): weighted geometry becomes Euclidean
        self._root_p = np.sqrt(space.probs)
        self._cols = np.stack([g.values for g in generators], axis=1)
        self._A = self._cols * self._root_p[:, None]
        limit = math.sqrt(np.finfo(float).max / (4.0 * space.n))  # the program squares
        if float(self._cols.max()) > limit:
            raise InputError("generator values overflow the weight program: 4 n v^2 "
                             f"is not finite unless every value is at most {limit:.4g}")
        # generator columns by their bytes (+ 0.0 turns -0.0 into 0.0), so
        # a generator is found without comparing it to every column
        self._generator_keys = {(col + 0.0).tobytes() for col in self._cols.T}

    def weights_for(self, f: RandVar, tol: float = 1e-9,
                    start: WeightVector | None = None):
        """Best weight vector reproducing f, and the residual distance.
        ``start``, weights for a nearby point, warm-starts the program."""
        b = f.values * self._root_p
        if start is None:
            w, dist, _ = _simplex_lsq(self._A, b)
        else:
            if start.weights.size != len(self.generators):
                raise InputError("start weights must align with the generators")
            w, dist, _ = _simplex_lsq(self._A, b, start.weights)
        return WeightVector(w), dist

    def _contains(self, f, tol):
        # a generator sits at distance 0 <= tol: no program to solve
        if (f.values + 0.0).tobytes() in self._generator_keys:
            return True
        _, dist = self.weights_for(f, tol)
        return dist <= tol

    def _project(self, f, tol):
        w, _ = self.weights_for(f, tol)
        return RandVar(self.space, self._cols @ w.weights)

    def support(self, v, at):
        # E[v (c_j - at)] per generator, summed down axis 0 over the atoms
        # where p v != 0 (the rest add zeros): a unit vector costs one row
        pv = self.space.probs * v
        rows = np.flatnonzero(pv)
        d = self._cols[rows]  # a copy: one r-by-k temporary, then in place
        d -= at.values[rows, None]
        d *= pv[rows, None]
        sums = d.sum(axis=0)
        j = int(np.argmax(sums))  # the first best generator
        return float(sums[j]), self.generators[j]

    def reference_point(self) -> RandVar:
        return RandVar(self.space, self._cols.mean(axis=1))


class Box(ConvexSetRep):
    kind = "box"

    def __init__(self, lower: RandVar, upper: RandVar):
        if not lower.space.same(upper.space):
            raise InputError("box bounds must share one space")
        if np.any(lower.values < 0.0):
            raise InputError("box lower bounds must be nonnegative")
        if np.any(lower.values > upper.values):
            raise InputError("box needs lower <= upper atomwise")
        self.space = lower.space
        self.lower = lower
        self.upper = upper

    def _contains(self, f, tol):
        # componentwise with slack tol
        return bool(
            np.all(f.values >= self.lower.values - tol)
            and np.all(f.values <= self.upper.values + tol)
        )

    def _project(self, f, tol):
        return RandVar(self.space, np.clip(f.values, self.lower.values, self.upper.values))

    def support(self, v, at):
        pv = self.space.probs * v
        s = np.where(pv < 0.0, self.lower.values, self.upper.values)
        return float((pv * (s - at.values)).sum()), RandVar(self.space, s)

    def reference_point(self) -> RandVar:
        return RandVar(self.space, 0.5 * (self.lower.values + self.upper.values))


class Sublevel(ConvexSetRep):
    """{f >= 0 : G(f) <= level} for a functional G declared convex by the caller.

    Construction spot-checks the midpoint inequality on pairs drawn
    uniformly from the box [0, 10]^n and refuses the representation when a
    violation shows up. Projection: G.prox(f, mu) at the least mu >= 0 with
    G <= level, met exactly; a G without ``prox`` raises ``InputError``.
    """

    kind = "sublevel"

    def __init__(self, space: ProbSpace, functional, level: float):
        if not math.isfinite(level):
            raise InputError("sublevel needs a finite level")
        if not getattr(functional, "declared_convex", False):
            raise InputError("sublevel functionals must be declared convex")
        self.space = space
        self.functional = functional
        self.level = float(level)
        hit = midpoint_scan(
            lambda v: functional.value(RandVar(space, v)),
            lambda rng: rng.uniform(0.0, 10.0, size=(2, space.n)),
            _SPOT_SEED,
        )
        if hit is not None:
            k, _, _, ga, gb, gm = hit
            raise CurvatureError(
                f"midpoint convexity violated on sampled pair #{k}: "
                f"G(mid)={gm!r} > avg={0.5 * (ga + gb)!r}"
            )

    def _contains(self, f, tol):
        if np.any(f.values < -tol):
            return False
        return self.functional.value(f) <= self.level + tol

    def _project(self, f, tol):
        G = self.functional
        if not hasattr(G, "prox"):
            raise InputError(f"a sublevel of a {G.kind!r} functional has no prox")
        x0 = RandVar(self.space, np.maximum(f.values, 0.0))  # prox(f, 0)
        g0 = G.value(x0) - self.level
        if g0 <= 0.0:
            return x0
        xs = {}

        def h(mu):
            # (level - G)/|grad G|_P at x(mu): to first order the signed
            # distance from x(mu) to the level surface
            xs[mu] = x = G.prox(f, mu)
            slack, gn = self.level - G.value(x), norm(RandVar(self.space, G.grad(x)))
            return slack / gn if gn > 0.0 else math.copysign(math.inf, slack)

        gn0 = norm(RandVar(self.space, G.grad(x0)))
        if gn0 == 0.0:  # x0 minimizes G
            raise SolverError("sublevel set is empty")
        # the least mu that meets the level, to about 0.01 tol in the point
        # (where Dykstra stops), from the linearization at x0
        h_tol = 0.01 * tol
        return xs[monotone_root(h, -g0 / gn0, (g0 / gn0 + 0.5 * h_tol) / gn0, h_tol)]


class Intersection(ConvexSetRep):
    kind = "intersection"

    def __init__(self, parts: list[ConvexSetRep]):
        if len(parts) == 0:
            raise InputError("an intersection needs at least one part")
        space = parts[0].space
        for s in parts:
            if not s.space.same(space):
                raise InputError("intersection parts must share one space")
        self.space = space
        self.parts = list(parts)

    def _contains(self, f, tol):
        return all(part._contains(f, tol) for part in self.parts)

    def _project(self, f, tol):
        return _dykstra(self.parts, f, tol)

    def support(self, v, at):
        return min(part.support(v, at)[0] for part in self.parts), None

    def reference_point(self) -> RandVar:
        for part in self.parts:
            ref = getattr(part, "reference_point", None)
            if ref is not None:
                return self._project(ref(), 1e-10)
        raise SolverError("no part exposes a reference point")


def is_bounded(rep: ConvexSetRep) -> bool:
    """Finite support at v = 1 from 0: E[s], so each coordinate (s >= 0), is bounded."""
    n = rep.space.n
    return math.isfinite(rep.support(np.ones(n), RandVar(rep.space, np.zeros(n)))[0])


def contains(set_rep: ConvexSetRep, f: RandVar, tol: float) -> bool:
    """Membership at slack tol, per-representation semantics (module docstring)."""
    if tol < 0.0:
        raise InputError("tol must be nonnegative")
    if not f.space.same(set_rep.space):
        raise InputError("point and set live on different spaces")
    return set_rep._contains(f, tol)


def project(set_rep: ConvexSetRep, f: RandVar, tol: float = 1e-9) -> RandVar:
    """Nearest point of the set in the weighted norm (tol steers the iterative paths)."""
    if not f.space.same(set_rep.space):
        raise InputError("point and set live on different spaces")
    return set_rep._project(f, tol)


# ---------------------------------------------------------------------------
# the weight-simplex least-squares program (active set, Lawson-Hanson style)
# ---------------------------------------------------------------------------

def _simplex_lsq(A: np.ndarray, b: np.ndarray, start: np.ndarray | None = None):
    """min ||A w - b|| over w >= 0, sum w = 1.

    Active-set iteration with lowest-index tie-breaks; finite termination
    in exact arithmetic, hard cap ``SIMPLEX_QP_CAP`` otherwise. Without
    ``start`` it begins at the best single column; a feasible ``start``
    begins there instead, its support the first passive set (Lawson &
    Hanson 1974, ch. 23), so a nearby solution restarts in a step or two.
    Returns (w, residual_norm, iterations).
    """
    n, k = A.shape
    scale = 1.0 + float(np.abs(A).max(initial=0.0)) + float(np.abs(b).max(initial=0.0))
    col_err = np.linalg.norm(A - b[:, None], axis=0)
    first = int(np.argmin(col_err))  # argmin returns the lowest index on ties
    if start is None:
        passive = [first]
        w = np.zeros(k)
        w[first] = 1.0
    else:
        w = np.array(start, dtype=float)  # a copy: w is updated in place
        passive = np.flatnonzero(w > 0.0).tolist()

    def kkt_solve(idx):
        Ap = A[:, idx]
        m = len(idx)
        K = np.zeros((m + 1, m + 1))
        K[:m, :m] = Ap.T @ Ap
        K[:m, m] = 1.0
        K[m, :m] = 1.0
        rhs = np.concatenate([Ap.T @ b, [1.0]])
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
        return sol[:m], sol[m]

    for it in range(1, SIMPLEX_QP_CAP + 1):
        z, lam = kkt_solve(passive)
        inner_guard = 0
        while np.min(z) < -1e-12:
            inner_guard += 1
            if inner_guard > k + 2:
                break
            wp = w[passive]
            neg = z < -1e-12
            alphas = wp[neg] / (wp[neg] - z[neg])
            alpha = float(np.min(alphas))
            wp = wp + alpha * (z - wp)
            wp[wp < 1e-15] = 0.0
            for j, idx in enumerate(passive):
                w[idx] = wp[j]
            passive = [idx for idx in passive if w[idx] > 0.0]
            if not passive:
                passive = [first]
                w[:] = 0.0
                w[first] = 1.0
            z, lam = kkt_solve(passive)
        in_passive = np.zeros(k, dtype=bool)
        in_passive[passive] = True
        w[passive] = np.where(z < 0.0, 0.0, z)  # max(z_j, 0.0): keeps a -0.0
        w[~in_passive] = 0.0
        s = w.sum()
        if s > 0:
            w = w / s
        grad = A.T @ (A @ w - b)
        lam_now = float(np.dot(w, grad))
        slack = lam_now - grad  # positive where adding idx would improve
        slack[in_passive] = -np.inf
        best = int(np.argmax(slack))
        if slack[best] <= SIMPLEX_QP_DUAL_TOL * scale * scale:
            res = float(np.linalg.norm(A @ w - b))
            return w, res, it
        passive.append(best)
        passive.sort()
    raise BudgetExceededError(
        f"weight-simplex program hit the {SIMPLEX_QP_CAP}-iteration cap"
    )


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto {w >= 0, sum w = 1} (sort-based, exact)."""
    n = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, n + 1)
    cond = u - css / idx > 0
    rho = int(idx[cond][-1])
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


# ---------------------------------------------------------------------------
# iterative projections
# ---------------------------------------------------------------------------

def _dykstra(parts, f: RandVar, tol: float, accept=None):
    """Dykstra's alternating projections onto an intersection (Boyle &
    Dykstra, 1986).

    The sweep keeps the iterate and the increments as value arrays and
    builds a ``RandVar`` only where an array enters a part's ``_project``,
    so every projected point still passes its shape and finiteness check.
    Without ``accept`` it returns the first iterate whose sweep moved it at
    most ``1e-15 + 0.01 tol`` and that lies in every part, membership being
    tested only then. With ``accept``, ``accept(x)`` also runs after sweeps
    1, 2, 4, 8, ... and after every sweep that stops moving; its first
    non-None result is returned, and None when the iterate settles in every
    part without one. ``DYKSTRA_CAP`` bounds the sweeps either way.
    """
    space = f.space
    x = f
    incs = [np.zeros(space.n)] * len(parts)
    for sweep in range(1, DYKSTRA_CAP + 1):
        x_prev = x.values
        for i, part in enumerate(parts):
            y = x.values + incs[i]
            x = part._project(RandVar(space, y), tol)
            incs[i] = y - x.values
        # norm(x - x_prev), on the arrays
        moved = math.sqrt(max(0.0, float(np.dot(x.space.probs, (x.values - x_prev) ** 2))))
        settled = moved <= 1e-15 + 0.01 * tol
        if accept is not None and (settled or sweep & (sweep - 1) == 0):
            found = accept(x)
            if found is not None:
                return found
        # membership (a weight program for a polytope part) is re-tested
        # only once the sweep has stopped moving
        if settled and all(part._contains(x, max(tol, 1e-12)) for part in parts):
            return x if accept is None else None
    raise BudgetExceededError(
        f"Dykstra did not converge in {DYKSTRA_CAP} sweeps "
        "(empty or badly conditioned intersection?)"
    )


# ---------------------------------------------------------------------------
# JSON codecs (one wrapper key per variant)
# ---------------------------------------------------------------------------

def set_to_json(rep: ConvexSetRep) -> dict:
    if isinstance(rep, Polytope):
        return {
            "polytope": {
                "generators": [randvar_to_json(g) for g in rep.generators]
            }
        }
    if isinstance(rep, Box):
        return {
            "box": {
                "lower": randvar_to_json(rep.lower),
                "upper": randvar_to_json(rep.upper),
            }
        }
    if isinstance(rep, Sublevel):
        return {
            "sublevel": {
                "functional": rep.functional.to_json(),
                "level": rep.level,
            }
        }
    if isinstance(rep, Intersection):
        return {"intersection": {"parts": [set_to_json(s) for s in rep.parts]}}
    raise InputError(f"cannot serialize set kind {rep.kind!r}")


def set_from_json(space: ProbSpace, obj: dict) -> ConvexSetRep:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InputError("set JSON must be a single-key object naming the variant")
    (key, body), = obj.items()
    if key == "polytope":
        gens = json_field(body, "generators", "polytope", list)
        return Polytope([randvar_from_json(g, space) for g in gens])
    if key == "box":
        return Box(
            randvar_from_json(json_field(body, "lower", "box"), space),
            randvar_from_json(json_field(body, "upper", "box"), space),
        )
    if key == "sublevel":
        fn = functional_from_json(space, json_field(body, "functional", "sublevel"))
        level = json_floats(json_field(body, "level", "sublevel"),
                            "sublevel field 'level'", 0)
        return Sublevel(space, fn, float(level))
    if key == "intersection":
        parts = json_field(body, "parts", "intersection", list)
        return Intersection([set_from_json(space, s) for s in parts])
    raise InputError(f"unknown set variant {key!r}")

