"""Saddle points of concave-convex payoffs on bounded convex sets.

The payoff shape is Phi(f, g) = E[f * (K g)] + E[a(f)] + E[b(g)] with a
concave and b convex (both optional, given as scalar expressions), so
Phi is concave in f and convex in g. ``solve_saddle`` runs Korpelevich's
extragradient scheme in rounds of 16, 32, 64, ... iterations and, after
each round, returns the first candidate pair whose duality gap is within
tol. Since Phi is concave-convex, its linearization at (f0, g0) bounds
the gap by one support call per set (the saddle form of the Frank-Wolfe
gap, Gidel, Jebara & Lacoste-Julien 2017); on polytopes with a bilinear
payoff this bound is the exact generator gap, and where a set's support
is only a bound, certified inner minimization measures each side instead.
Only the stepping and the candidates depend on the game:

- Both sets polytopes and the payoff purely bilinear: the scheme steps
  generator weights on two simplices, and offers a support-equalization
  polish (which usually lands on the saddle itself), the average, the
  last iterate, then a polish on the near-best responses.
- Otherwise: the scheme steps points and projects them onto the sets, and
  offers the last iterate, then the average.

``build_G_family`` encodes, for chosen pairs (f, g), the sets

    G_{f+g} = { f'+g' :  Phi(f, g') - Phi(f', g) <= 0 }

as sublevel representations on the direct-sum space. Their intersection
over all generator pairs is exactly the saddle set (for bilinear
payoffs), and any convex combination h = sum_k c_k (f_k + g_k) satisfies
sum_k c_k [Phi(f_k, g-bar) - Phi(f-bar, g_k)] = 0, so some term is <= 0:
the covering property the simplicial walk needs holds for every pair
family, which is what makes the KKM route to saddle points run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import (
    ConvexSetRep,
    Polytope,
    Sublevel,
    contains,
    project,
    project_simplex,
)
from .coercive import _reference, minimize
from .errors import CurvatureError, InputError, NonConvergent
from .functionals import LinearFunctional, PointwiseFunctional, midpoint_scan
from .measure import (
    DirectSumSpace,
    ProbSpace,
    RandVar,
    direct_sum,
    json_floats,
    randvar_to_json,
    split_oplus,
)

__all__ = [
    "BilinearPayoff",
    "SaddleInstance",
    "SaddleCertificate",
    "VerifyResult",
    "solve_saddle",
    "verify_saddle",
    "build_G_family",
    "payoff_from_json",
]

_SPOT_SEED = 20240904

#: payoff terms are checked for curvature on [0, CURVATURE_SCALE]
CURVATURE_SCALE = 16.0

#: extragradient iterations in the first round; each round doubles the
#: count and ends with a gap check of each candidate, so an easy game
#: stops after a few dozen
START_ITERS = 16

#: rounds before giving up, 16 * (2**14 - 1) ~ 262k iterations in all;
#: each gap check is one support call per set, or two certified
#: minimizations where a set's support is only a bound
MAX_ROUNDS = 14


class BilinearPayoff:
    """Phi(f, g) = E[f * (K g)] + E[a(f)] + E[b(g)], concave-convex."""

    def __init__(self, space: ProbSpace, K, f_term=None, g_term=None):
        K = np.asarray(K, dtype=float)
        if K.shape != (space.n, space.n):
            raise InputError("kernel must be n-by-n for the space")
        if not np.all(np.isfinite(K)):
            raise InputError("kernel must be finite")
        self.space = space
        self.K = K
        # E[a(f)] and E[b(g)]; the payoff checks their curvature itself
        self.f_term, self.g_term = (t if t is None else PointwiseFunctional(
            space, t, declared_convex=False) for t in (f_term, g_term))
        for term, sign, shape in ((self.f_term, -1.0, "concave"),
                                  (self.g_term, 1.0, "convex")):
            if term is None:
                continue
            # a concave term is a convex one negated; negation is exact, so
            # the comparison is the same as testing concavity directly
            hit = midpoint_scan(
                lambda x: sign * term.scalar(float(x)),
                lambda rng: rng.uniform(0.0, CURVATURE_SCALE, size=2),
                _SPOT_SEED,
            )
            if hit is not None:
                raise CurvatureError(
                    f"payoff term {term.expr.src!r} failed the {shape} midpoint "
                    f"spot-check at x pair ({float(hit[1])!r}, {float(hit[2])!r})"
                )

    @property
    def is_bilinear(self) -> bool:
        return self.f_term is None and self.g_term is None

    def value(self, f: RandVar, g: RandVar) -> float:
        out = float(np.dot(self.space.probs * f.values, self.K @ g.values))
        if self.f_term is not None:
            out += self.f_term.value(f)
        if self.g_term is not None:
            out += self.g_term.value(g)
        return out

    def grad_f(self, f: RandVar, g: RandVar) -> np.ndarray:
        out = self.K @ g.values
        return out if self.f_term is None else out + self.f_term.grad(f)

    def grad_g(self, f: RandVar, g: RandVar) -> np.ndarray:
        p = self.space.probs
        out = (self.K.T @ (p * f.values)) / p
        return out if self.g_term is None else out + self.g_term.grad(g)

    def to_json(self) -> dict:
        out = {"kernel": [[float(x) for x in row] for row in self.K]}
        if self.f_term is not None:
            out["f_term"] = self.f_term.expr.src
        if self.g_term is not None:
            out["g_term"] = self.g_term.expr.src
        return out


def payoff_from_json(space: ProbSpace, obj: dict) -> BilinearPayoff:
    if not isinstance(obj, dict) or "kernel" not in obj:
        raise InputError("payoff JSON needs a 'kernel' matrix")
    terms = {name: obj.get(name) for name in ("f_term", "g_term")}
    for name, term in terms.items():
        if term is not None and not isinstance(term, str):
            raise InputError(f"payoff '{name}' must be an expression string")
    return BilinearPayoff(
        space, json_floats(obj["kernel"], "payoff 'kernel'", 2), **terms)


class SaddleInstance:
    def __init__(self, C: ConvexSetRep, D: ConvexSetRep, payoff: BilinearPayoff):
        if not C.space.same(payoff.space) or not D.space.same(payoff.space):
            raise InputError("sets and payoff must share one space")
        self.C = C
        self.D = D
        self.payoff = payoff
        self.space = payoff.space


@dataclass
class SaddleCertificate:
    f0: RandVar
    g0: RandVar
    value: float
    supinf: float
    infsup: float
    gap: float
    iterations: int
    method: str

    def to_json(self) -> dict:
        return {
            "f0": randvar_to_json(self.f0),
            "g0": randvar_to_json(self.g0),
            "value": self.value,
            "supinf": self.supinf,
            "infsup": self.infsup,
            "gap": self.gap,
            "iterations": self.iterations,
            "method": self.method,
        }


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def solve_saddle(inst: SaddleInstance, tol: float = 1e-6) -> SaddleCertificate:
    """A pair (f0, g0) whose duality gap infsup - supinf is at most tol.

    The gap is measured against the sets, never by trusting the iteration:
    one support call per set, or certified inner optimization where a
    set's support is only a bound. On budget exhaustion the best pair
    found rides along in the NonConvergent certificate.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InputError("tol must be positive and finite")
    if (isinstance(inst.C, Polytope) and isinstance(inst.D, Polytope)
            and inst.payoff.is_bilinear):
        x, y, ops, step, candidates = _weight_path(inst)
        method = "extragradient+polish"
        best_effort = "extragradient+polish (best effort)"
    else:
        x, y, ops, step, candidates = _point_path(inst, tol)
        method = "extragradient (projected)"
        best_effort = "extragradient (projected, best effort)"
    if not math.isfinite(step):
        raise InputError(f"extragradient step {step!r} is not finite: "
                         "the payoff's scale overflows")

    total = 0
    iters = START_ITERS
    best = None
    for _round in range(MAX_ROUNDS):
        x, y, x_avg, y_avg = _extragradient(x, y, *ops, step, iters)
        total += iters
        for f0, g0 in candidates(x, y, x_avg, y_avg):
            supinf, infsup = _pair_bounds(inst, f0, g0, tol)
            found = (infsup - supinf, supinf, infsup, f0, g0)
            if best is None or found[0] < best[0]:
                best = found
            if found[0] <= tol:
                return _certificate(inst, found, total, method)
        iters *= 2
    cert = _certificate(inst, best, total, best_effort)
    raise NonConvergent(
        f"duality gap stalled at {cert.gap:.3e} > tol {tol:g} after {total} iterations",
        certificate=cert,
    )


def _extragradient(x, y, grad_x, grad_y, proj_x, proj_y, step, iters):
    """Korpelevich's extragradient for max over x, min over y: iters steps
    from (x, y), which are weight arrays or RandVars. Returns the last
    iterate and the values of the average of the second half's iterates."""
    half = iters // 2
    x_sum = y_sum = 0.0
    for k in range(iters):
        xh = proj_x(x + step * grad_x(x, y))
        yh = proj_y(y - step * grad_y(x, y))
        x = proj_x(x + step * grad_x(xh, yh))
        y = proj_y(y - step * grad_y(xh, yh))
        if k >= half:
            x_sum = x_sum + getattr(x, "values", x)
            y_sum = y_sum + getattr(y, "values", y)
    kept = iters - half
    return x, y, x_sum / kept, y_sum / kept


def _weight_path(inst: SaddleInstance):
    """Generator weights u, w on the simplices, stepped on the weighted
    game M = U^T diag(p) K W; the candidates are points U u, W w."""
    space = inst.space
    U = np.column_stack([v.values for v in inst.C.generators])
    W = np.column_stack([v.values for v in inst.D.generators])
    M = U.T @ (space.probs[:, None] * inst.payoff.K) @ W
    a, b = M.shape
    step = 0.9 / max(_spectral_norm(M), 1e-12)
    ops = (lambda u, w: M @ w, lambda u, w: M.T @ u,
           project_simplex, project_simplex)

    def candidates(u, w, u_avg, w_avg):
        for uc, wc in filter(None, _weight_candidates(M, u, w, u_avg, w_avg)):
            yield RandVar(space, U @ uc), RandVar(space, W @ wc)

    return np.full(a, 1.0 / a), np.full(b, 1.0 / b), ops, step, candidates


def _weight_candidates(M, u, w, u_avg, w_avg):
    """Weight pairs to certify, in order; a failed polish is None."""
    yield _support_polish(M, _apparent_support(u_avg), _apparent_support(w_avg))
    yield u_avg, w_avg
    yield u, w
    # last, supports that keep a strategy whose equilibrium weight is too
    # small for the apparent support
    yield _support_polish(M, *_near_best_responses(M, u_avg, w_avg))


def _apparent_support(x):
    """Strategies whose weight is not negligible next to the largest."""
    return np.flatnonzero(x > 1e-6 * max(1.0, x.max()))


def _near_best_responses(M, u, w):
    """Pure strategies within the pair's duality gap of a best response."""
    hi = float((M @ w).max())        # best pure response of the maximizer
    lo = float((M.T @ u).min())      # best pure response of the minimizer
    gap = hi - lo
    return np.flatnonzero(M @ w >= hi - gap), np.flatnonzero(M.T @ u <= lo + gap)


def _support_polish(M, su, sw):
    """Equalize payoffs on the supports su (maximizer) and sw (minimizer);
    exact when the support guess is right, harmless otherwise (candidate
    is gap-checked)."""
    if su.size == 0 or sw.size == 0:
        return None
    a, b = su.size, sw.size
    # unknowns: u[su], w[sw], v; rows: (M^T u)_j = v for j in sw,
    # (M w)_i = v for i in su, then sum u = 1 and sum w = 1
    sub = M[np.ix_(su, sw)]
    A = np.zeros((a + b + 2, a + b + 1))
    A[:b, :a] = sub.T
    A[b:a + b, a:a + b] = sub
    A[:a + b, a + b] = -1.0
    A[a + b, :a] = 1.0
    A[a + b + 1, a:a + b] = 1.0
    rhs = np.zeros(a + b + 2)
    rhs[a + b:] = 1.0
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    u_new = np.zeros(M.shape[0])
    w_new = np.zeros(M.shape[1])
    u_new[su] = np.clip(sol[:a], 0.0, None)
    w_new[sw] = np.clip(sol[a:a + b], 0.0, None)
    if u_new.sum() <= 0.0 or w_new.sum() <= 0.0:
        return None
    return u_new / u_new.sum(), w_new / w_new.sum()


def _certificate(inst, found, iterations, method) -> SaddleCertificate:
    gap, supinf, infsup, f0, g0 = found
    return SaddleCertificate(
        f0=f0, g0=g0, value=inst.payoff.value(f0, g0),
        supinf=supinf, infsup=infsup, gap=gap,
        iterations=iterations, method=method,
    )


def _spectral_norm(M: np.ndarray) -> float:
    if M.size == 0:
        return 0.0
    v = np.full(M.shape[1], 1.0 / math.sqrt(M.shape[1]))
    # a huge finite M overflows to nan here, which the caller refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(60):
            x = M.T @ (M @ v)
            nx = float(np.linalg.norm(x))
            if nx <= 0.0:
                return 0.0
            v = x / nx
        return float(np.linalg.norm(M @ v))


# ---------------------------------------------------------------------------
# the support bound, and the projected path
# ---------------------------------------------------------------------------

class _FrozenArgFunctional:
    """Phi with one argument frozen, as a convex objective: sign +1 gives
    g -> Phi(f_fix, g); sign -1 gives f -> -Phi(f, g_fix)."""

    declared_convex = True
    kind = "frozen-payoff"

    def __init__(self, payoff: BilinearPayoff, fixed: RandVar, side: str):
        self.payoff = payoff
        self.fixed = fixed
        self.side = side
        self.space = payoff.space

    def value(self, x: RandVar) -> float:
        if self.side == "g":
            return self.payoff.value(self.fixed, x)
        return -self.payoff.value(x, self.fixed)

    def grad(self, x: RandVar) -> np.ndarray:
        if self.side == "g":
            return self.payoff.grad_g(self.fixed, x)
        return -self.payoff.grad_f(x, self.fixed)


def _inner_opt(payoff, fixed: RandVar, side: str, over: ConvexSetRep,
               tol: float):
    """inf_g Phi(fixed, g) (side 'g') or sup_f Phi(f, fixed) (side 'f'),
    by certified convex minimization over the set."""
    func = _FrozenArgFunctional(payoff, fixed, side)
    x, val, _report = minimize(func, over, max(tol * 0.25, 1e-10))
    return (val if side == "g" else -val), x


def _pair_bounds(inst: SaddleInstance, f0: RandVar, g0: RandVar,
                 tol: float) -> tuple[float, float]:
    """(supinf, infsup): a lower bound on inf_g Phi(f0, g) and an upper bound
    on sup_f Phi(f, g0). Phi is concave in f and convex in g, so its
    linearization at (f0, g0) bounds both sides by one support each (the
    saddle Frank-Wolfe gap); a set whose support is only a bound falls back
    to certified inner optimization of both sides."""
    payoff = inst.payoff
    viol_f, s = inst.C.support(payoff.grad_f(f0, g0), f0)
    viol_g, t = inst.D.support(-payoff.grad_g(f0, g0), g0)
    if s is None or t is None:
        supinf, _ = _inner_opt(payoff, f0, "g", inst.D, tol)
        infsup, _ = _inner_opt(payoff, g0, "f", inst.C, tol)
        return supinf, infsup
    value = payoff.value(f0, g0)
    return value - viol_g, value + viol_f


def _point_path(inst: SaddleInstance, tol: float):
    """Points of C and D, stepped along the payoff's gradients and projected
    back; the candidates are the last iterate, then the average."""
    payoff = inst.payoff
    space = inst.space
    rp = np.sqrt(space.probs)
    B = (rp[:, None] * payoff.K) / rp[None, :]
    step = 0.9 / max(_spectral_norm(B) + _term_curvature_bound(payoff), 1e-12)
    proj_tol = min(tol, 1e-9)
    ops = (payoff.grad_f, payoff.grad_g,
           lambda f: project(inst.C, f, proj_tol),
           lambda g: project(inst.D, g, proj_tol))

    def candidates(f, g, f_avg, g_avg):
        yield f, g
        yield RandVar(space, f_avg), RandVar(space, g_avg)

    # InputError for a set without a reference point, as in minimize
    return _reference(inst.C), _reference(inst.D), ops, step, candidates


def _term_curvature_bound(payoff: BilinearPayoff) -> float:
    """Sampled estimate (not a bound) of the separable terms' gradient
    Lipschitz constants: the steepest derivative chord on 33 points of [0, 16]."""
    bound = 0.0
    xs = np.linspace(0.0, 16.0, 33)
    for term in (payoff.f_term, payoff.g_term):
        if term is None:
            continue
        ds = [term.expr.derivative({"x": float(x)}, "x") for x in xs]
        for d1, d2, x1, x2 in zip(ds, ds[1:], xs, xs[1:]):
            bound = max(bound, abs(d2 - d1) / (x2 - x1))
    return bound


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class VerifyResult:
    ok: bool
    value: float
    max_violation: float
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_saddle(inst: SaddleInstance, f0: RandVar, g0: RandVar,
                  tol: float = 1e-6) -> VerifyResult:
    """Check the saddle inequalities
        Phi(f, g0) <= Phi(f0, g0) <= Phi(f0, g)
    against the sets. For a bilinear payoff both violations are supports:
    sigma_C(K g0) from f0 and sigma_D(-grad_g) from g0; with payoff terms or
    a support that is only a bound, certified inner optimization. The
    witness names the side (f on ties) and the point of the worst violation.
    """
    if not contains(inst.C, f0, 2.0 * tol):
        raise InputError("f0 is not a member of C at 2*tol")
    if not contains(inst.D, g0, 2.0 * tol):
        raise InputError("g0 is not a member of D at 2*tol")
    payoff = inst.payoff
    value = payoff.value(f0, g0)

    f_best = g_best = None
    if payoff.is_bilinear:
        viol_f, f_best = inst.C.support(payoff.grad_f(f0, g0), f0)
        viol_g, g_best = inst.D.support(-payoff.grad_g(f0, g0), g0)
    if f_best is None or g_best is None:
        infsup, f_best = _inner_opt(payoff, g0, "f", inst.C, tol)
        supinf, g_best = _inner_opt(payoff, f0, "g", inst.D, tol)
        viol_f, viol_g = infsup - value, value - supinf
    if viol_g > viol_f:
        worst, witness = viol_g, {"side": "g", "point": g_best}
    else:
        worst, witness = viol_f, {"side": "f", "point": f_best}
    ok = bool(worst <= tol)  # worst may be a numpy scalar
    return VerifyResult(
        ok=ok, value=value, max_violation=max(worst, 0.0),
        witness=None if ok else witness,
    )


# ---------------------------------------------------------------------------
# direct-sum gap family
# ---------------------------------------------------------------------------

class _GapFunctional:
    """h = f'+g'  ->  Phi(f, g') - Phi(f', g), convex on the direct sum.

    On the direct-sum space (probabilities halved) the weighted gradient
    picks up a factor 2 on each half; the bilinear case reduces to a
    plain linear functional with c_left = -2 K g and
    c_right = 2 K^T(p f)/p.
    """

    declared_convex = True
    kind = "saddle-gap"

    def __init__(self, payoff: BilinearPayoff, sum_space: DirectSumSpace,
                 f: RandVar, g: RandVar):
        self.payoff = payoff
        self.space = sum_space
        self.f = f
        self.g = g

    def value(self, h: RandVar) -> float:
        f_part, g_part = split_oplus(h)
        return (self.payoff.value(self.f, g_part)
                - self.payoff.value(f_part, self.g))

    def grad(self, h: RandVar) -> np.ndarray:
        f_part, g_part = split_oplus(h)
        left = -2.0 * self.payoff.grad_f(f_part, self.g)
        right = 2.0 * self.payoff.grad_g(self.f, g_part)
        return np.concatenate([left, right])

    def to_json(self) -> dict:
        return {
            "kind": "saddle-gap",
            "payoff": self.payoff.to_json(),
            "f": randvar_to_json(self.f),
            "g": randvar_to_json(self.g),
        }


def build_G_family(inst: SaddleInstance, pairs: list) -> list:
    """Sublevel representations of G_{f+g} on the direct-sum space, one per
    (f, g) pair; pairs must be members of C x D. For bilinear payoffs each
    set is a plain linear sublevel (halfspace)."""
    sum_space = direct_sum(inst.space)
    out = []
    p = inst.space.probs
    for f, g in pairs:
        if not contains(inst.C, f, 1e-6):
            raise InputError("a pair's f is not a member of C")
        if not contains(inst.D, g, 1e-6):
            raise InputError("a pair's g is not a member of D")
        if inst.payoff.is_bilinear:
            c_left = -2.0 * (inst.payoff.K @ g.values)
            c_right = 2.0 * (inst.payoff.K.T @ (p * f.values)) / p
            func = LinearFunctional(
                sum_space, np.concatenate([c_left, c_right])
            )
        else:
            func = _GapFunctional(inst.payoff, sum_space, f, g)
        out.append(Sublevel(sum_space, func, 0.0))
    return out
