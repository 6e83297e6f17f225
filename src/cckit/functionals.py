"""Convex objective functionals on random variables.

Three concrete shapes, all convex by construction or validation:

* ``LinearFunctional``     G(f) = E[c f]
* ``QuadraticFunctional``  G(f) = (1/2) E[f (A f)] + E[b f]
* ``PointwiseFunctional``  G(f) = E[Phi(f)] for a scalar convex Phi

Gradients are taken in the probability-weighted geometry (the inner
product E[u v]), so grad of a linear functional is c itself and grad of
the quadratic is A f + b. For that to hold the quadratic matrix must be
self-adjoint for the weighted inner product (p_i A_ij = p_j A_ji) and
positive semidefinite; construction validates both and refuses
indefinite input. Pointwise maps come from the small expression
language (one free variable), with exact forward-mode gradients.

Each has an exact ``prox(y, mu)`` = argmin over x >= 0 of E[(x - y)^2]/2
+ mu G(x); ``monotone_root`` finds the pointwise scalar prox and the
multiplier of a sublevel projection.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import CurvatureError, DomainError, InputError, SolverError
from .expr import Expression
from .measure import (
    ProbSpace,
    RandVar,
    json_field,
    json_floats,
    randvar_from_json,
    randvar_to_json,
)

#: a midpoint scan checks SCAN_PAIRS pairs in at most SCAN_DRAWS draws and
#: wants SCAN_MIN_CHECKED of them where the map is defined
SCAN_PAIRS, SCAN_DRAWS, SCAN_MIN_CHECKED = 100, 200, 20


def midpoint_scan(g, draw, seed: int, skip=()):
    """Sampled midpoint convexity check of g on the pairs ``a, b = draw(rng)``
    (floats or arrays), rng seeded with ``seed``: the first (k, a, b, g(a),
    g(b), g(mid)) with g(mid) > (g(a) + g(b))/2 + 1e-9 (1 + |g(a)| + |g(b)|),
    k the draw index, or None. Check concavity by passing -g. Pairs where g
    raises a ``skip`` exception are domain holes, passed over; with fewer
    than SCAN_MIN_CHECKED checked pairs the last hole is raised.
    """
    rng = np.random.default_rng(seed)
    checked = 0
    hole = None
    for k in range(SCAN_DRAWS):
        a, b = draw(rng)
        try:
            ga, gb = g(a), g(b)
            gm = g(0.5 * (a + b))
        except skip as exc:
            hole = exc
            continue
        checked += 1
        if gm > 0.5 * (ga + gb) + 1e-9 * (1.0 + abs(ga) + abs(gb)):
            return k, a, b, ga, gb, gm
        if checked >= SCAN_PAIRS:
            break
    if checked < SCAN_MIN_CHECKED:
        raise hole
    return None


def monotone_root(h, h0: float, hi: float, h_tol: float) -> float:
    """A t > 0 with 0 <= h(t) <= h_tol, for h < 0 on [0, t*) and h >= 0 from
    t* on, h(0) = h0 (a nondecreasing h with h0 < 0 is one): doubles ``hi``
    until h(hi) >= 0, then runs false position aimed at h_tol/2 with the
    Illinois halving (Dowell & Jarratt 1971), bisecting when its point is not
    strictly inside the bracket. A bracket narrower than 1e-15 (1 + hi) ends
    at its upper end, where h >= 0. ``SolverError`` if h(hi) < 0 at 200 tries.
    """
    aim = 0.5 * h_tol
    lo, g_lo, side = 0.0, h0 - aim, 0
    for _ in range(200):
        h_hi = h(hi)
        if h_hi >= 0.0:
            break
        lo, g_lo, hi = hi, h_hi - aim, 2.0 * hi
    else:
        raise SolverError("monotone root search found no sign change")
    g_hi = h_hi - aim
    while h_hi > h_tol and hi - lo > 1e-15 * (1.0 + hi):
        t = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        h_t = h(t)
        if h_t < 0.0:
            if side < 0:  # Illinois: an end kept twice has its value halved
                g_hi *= 0.5
            lo, g_lo, side = t, h_t - aim, -1
        else:
            if side > 0:
                g_lo *= 0.5
            hi, h_hi, g_hi, side = t, h_t, h_t - aim, 1
    return hi


class LinearFunctional:
    kind = "linear"
    declared_convex = True

    def __init__(self, space: ProbSpace, c):
        c_vals = c.values if isinstance(c, RandVar) else np.asarray(c, dtype=float)
        if c_vals.shape != (space.n,):
            raise InputError("linear coefficient must match the space")
        if not np.all(np.isfinite(c_vals)):
            raise InputError("linear coefficient must be finite")
        self.space = space
        self.c_values = c_vals

    def value(self, f: RandVar) -> float:
        return float(np.dot(self.space.probs * self.c_values, f.values))

    def grad(self, f: RandVar) -> np.ndarray:
        return self.c_values.copy()

    def prox(self, y: RandVar, mu: float) -> RandVar:
        return RandVar(self.space, np.maximum(y.values - mu * self.c_values, 0.0))

    def to_json(self) -> dict:
        return {
            "kind": "linear",
            "c": randvar_to_json(RandVar(self.space, self.c_values)),
        }


class QuadraticFunctional:
    kind = "quadratic"
    declared_convex = True

    def __init__(self, space: ProbSpace, A, b=None):
        A = np.asarray(A, dtype=float)
        n = space.n
        if A.shape != (n, n):
            raise InputError("quadratic matrix must be n-by-n for the space")
        if not np.all(np.isfinite(A)):
            raise InputError("quadratic matrix must be finite")
        if b is None:
            b_vals = np.zeros(n)
        else:
            b_vals = b.values if isinstance(b, RandVar) else np.asarray(b, dtype=float)
        if b_vals.shape != (n,):
            raise InputError("quadratic linear term must match the space")
        p = space.probs
        scale = 1.0 + float(np.abs(A).max())
        # self-adjointness for the weighted inner product: p_i A_ij = p_j A_ji
        W = p[:, None] * A
        if float(np.abs(W - W.T).max()) > 1e-10 * scale:
            raise CurvatureError(
                "quadratic matrix is not self-adjoint for the weighted inner product"
            )
        # PSD check on the similarity transform  diag(sqrt p) A diag(1/sqrt p)
        rp = np.sqrt(p)
        B = (rp[:, None] * A) / rp[None, :]
        B = 0.5 * (B + B.T)
        eigs = np.linalg.eigvalsh(B)
        if eigs.min() < -1e-10 * max(1.0, abs(eigs.max())):
            raise CurvatureError(
                f"quadratic matrix is not positive semidefinite "
                f"(min eigenvalue {eigs.min():.3e})"
            )
        self.space = space
        self.A_values = A
        self.b_values = b_vals

    def value(self, f: RandVar) -> float:
        v = f.values
        quad = 0.5 * float(np.dot(self.space.probs * v, self.A_values @ v))
        lin = float(np.dot(self.space.probs * self.b_values, v))
        return quad + lin

    def grad(self, f: RandVar) -> np.ndarray:
        return self.A_values @ f.values + self.b_values

    def prox(self, y: RandVar, mu: float) -> RandVar:
        """argmin over x >= 0 of x.Hx/2 - r.x, H = diag(p)(I + mu A) positive
        definite as p A is symmetric PSD, r = p (y - mu b): the active set
        with step-back of Lawson & Hanson (1974, ch. 23)."""
        n, p = self.space.n, self.space.probs
        H = p[:, None] * (np.eye(n) + mu * self.A_values)
        r = p * (y.values - mu * self.b_values)
        x, free = np.zeros(n), np.zeros(n, dtype=bool)
        for _ in range(3 * n + 1):
            w = np.where(free, -np.inf, r - H @ x)
            j = int(np.argmax(w))
            if w[j] <= 1e-13 * float(np.abs(r).max() + np.abs(H).max() * np.abs(x).sum()):
                return RandVar(self.space, x)
            free[j] = True
            while True:
                z = np.zeros(n)
                z[free] = np.linalg.solve(H[np.ix_(free, free)], r[free])
                if np.all(z >= 0.0):
                    x = z
                    break
                # step back to where the first free coordinate reaches zero
                ratio = np.divide(x, x - z, out=np.full(n, np.inf), where=z < 0.0)
                k = int(np.argmin(ratio))
                x = x + ratio[k] * (z - x)
                x[k] = 0.0
                free &= x > 0.0
                x[~free] = 0.0
        raise SolverError("nonnegative quadratic program did not terminate")

    def to_json(self) -> dict:
        return {
            "kind": "quadratic",
            "A": [[float(x) for x in row] for row in self.A_values],
            "b": randvar_to_json(RandVar(self.space, self.b_values)),
        }


class PointwiseFunctional:
    """G(f) = E[Phi(f)] for a scalar map Phi given as an expression in x.

    ``declared_convex`` is settled at construction: ``True`` runs a sampled
    midpoint check and refuses on violation, ``False`` skips the check and
    marks the functional unusable as a convex objective, and the default
    ``None`` runs the check and records the verdict instead of raising
    (diagnostics like the coercivity report accept such functionals;
    ``minimize`` and Sublevel representations do not when the verdict is
    negative).
    """

    kind = "pointwise"

    def __init__(self, space: ProbSpace, expr, declared_convex=None):
        if isinstance(expr, str):
            expr = Expression(expr)
        extra = [v for v in expr.variables if v != "x"]
        if extra:
            raise InputError(
                f"pointwise map must use only the variable x, found {extra}"
            )
        self.space = space
        self.expr = expr
        self.convexity_witness = None
        if declared_convex is False:
            self.declared_convex = False
        else:
            witness = self._midpoint_scan()
            if witness is None:
                self.declared_convex = True
            elif declared_convex is True:
                raise CurvatureError(
                    f"scalar map failed the midpoint convexity spot-check "
                    f"at x pair {witness!r}"
                )
            else:
                self.declared_convex = False
                self.convexity_witness = witness

    def _midpoint_scan(self):
        """Sampled midpoint convexity check on (0, 16]; returns a violating
        pair or None. Pairs where the map is undefined are skipped (domain
        holes are the caller's concern, not curvature evidence)."""
        try:
            hit = midpoint_scan(
                self.scalar,
                lambda rng: map(float, rng.uniform(1e-3, 16.0, size=2)),
                20240902, skip=DomainError,
            )
        except DomainError:
            raise InputError(
                "scalar map is undefined on most of the sample domain (0, 16]"
            ) from None
        return None if hit is None else hit[1:3]

    def scalar(self, x: float) -> float:
        return self.expr.eval({"x": x})

    def value(self, f: RandVar) -> float:
        total = 0.0
        for p_i, v_i in zip(self.space.probs, f.values):
            total += p_i * self.scalar(float(v_i))
        if not math.isfinite(total):
            raise InputError("pointwise functional evaluated to a non-finite value")
        return total

    def grad(self, f: RandVar) -> np.ndarray:
        out = np.empty(self.space.n)
        for i, v_i in enumerate(f.values):
            out[i] = self.expr.derivative({"x": float(v_i)}, "x")
        return out

    def prox(self, y: RandVar, mu: float) -> RandVar:
        return RandVar(self.space, np.array(
            [self._scalar_prox(float(v), mu) for v in y.values]))

    def _scalar_prox(self, y: float, mu: float) -> float:
        """argmin over x >= 0 of (x - y)^2/2 + mu Phi(x), by its derivative."""
        def deriv(x):
            return (x - y) + mu * self.expr.derivative({"x": x}, "x")

        d0 = deriv(0.0)
        return 0.0 if d0 >= 0.0 else monotone_root(deriv, d0, max(y, 1.0), 0.0)

    def to_json(self) -> dict:
        return {
            "kind": "pointwise",
            "expr": self.expr.src,
            "declared_convex": self.declared_convex,
        }


def functional_from_json(space: ProbSpace, obj: dict):
    """Build a functional from its JSON form (see each class's to_json)."""
    kind = json_field(obj, "kind", "functional")
    if kind == "linear":
        c = randvar_from_json(json_field(obj, "c", "linear functional"), space)
        return LinearFunctional(space, c)
    if kind == "quadratic":
        A = json_floats(json_field(obj, "A", "quadratic functional"),
                        "quadratic functional field 'A'", 2)
        b = randvar_from_json(obj["b"], space) if "b" in obj and obj["b"] is not None else None
        return QuadraticFunctional(space, A, b)
    if kind == "pointwise":
        return PointwiseFunctional(
            space, json_field(obj, "expr", "pointwise functional"),
            declared_convex=obj.get("declared_convex"),
        )
    raise InputError(f"unknown functional kind {kind!r}")
