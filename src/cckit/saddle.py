"""Saddle points of concave-convex payoffs on bounded convex sets.

The payoff shape is Phi(f, g) = E[f * (K g)] + E[a(f)] + E[b(g)] with a
concave and b convex (both optional, given as scalar expressions), so
Phi is concave in f and convex in g. ``solve_saddle`` runs an
extragradient scheme in doubling rounds and returns the first candidate
whose duality gap is within tol.

- Both sets polytopes and the payoff purely bilinear: the scheme works in
  generator-weight space, where the gap of a candidate pair is computable
  exactly from the generators, and a support-equalization polish usually
  lands on the saddle itself. The gap is checked after rounds of 256, 512,
  1024, ... iterations, so an easy game stops after a few hundred.
- Otherwise (projected path): the iterates are projected onto the sets,
  and the last iterate, then the average, is checked after rounds of 16,
  32, 64, ... iterations. Since Phi is concave-convex, its linearization
  at (f0, g0) bounds the gap by one support call per set (the saddle form
  of the Frank-Wolfe gap, Gidel, Jebara & Lacoste-Julien 2017); where a
  set's support is only a bound, certified inner minimization measures
  each side instead. A strongly monotone game stops after a few dozen
  iterations.

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

#: matrix games: extragradient iterations in the first round; each round
#: doubles the count and ends with the support polish and the exact
#: generator gap check, so an easy game stops after a few hundred
EG_START_ITERS = 256

#: matrix games: rounds before giving up, 256 * (2**13 - 1) ~ 2.1M
#: iterations in all
EG_MAX_ROUNDS = 13

#: projected path: extragradient iterations in the first round; each round
#: doubles the count and ends with a gap check of the last iterate, then of
#: the average, so a strongly monotone game stops after a few dozen
DIRECT_START_ITERS = 16

#: projected path: rounds before giving up, 16 * (2**14 - 1) ~ 262k
#: iterations in all; each gap check is one support call per set, or two
#: certified minimizations where a set's support is only a bound
DIRECT_MAX_ROUNDS = 14


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
    exact generator sweeps for bilinear polytope instances, one support
    call per set otherwise, and certified inner optimization where a
    set's support is only a bound. On budget exhaustion the best pair
    found rides along in the NonConvergent certificate.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InputError("tol must be positive and finite")
    if (isinstance(inst.C, Polytope) and isinstance(inst.D, Polytope)
            and inst.payoff.is_bilinear):
        return _solve_matrix_game(inst, tol)
    return _solve_direct(inst, tol)


def _solve_matrix_game(inst: SaddleInstance, tol: float) -> SaddleCertificate:
    """Generator-weight extragradient with support polish; all gap
    measurements are exact generator sweeps."""
    p = inst.space.probs
    U = np.column_stack([v.values for v in inst.C.generators])
    W = np.column_stack([v.values for v in inst.D.generators])
    M = U.T @ (p[:, None] * inst.payoff.K) @ W
    a, b = M.shape

    norm_M = _spectral_norm(M)
    step = 0.9 / max(norm_M, 1e-12)
    u = np.full(a, 1.0 / a)
    w = np.full(b, 1.0 / b)
    total_iters = 0
    iters = EG_START_ITERS
    best = None

    for _round in range(EG_MAX_ROUNDS):
        u, w, u_avg, w_avg = _eg_rounds(M, u, w, step, iters)
        total_iters += iters
        candidates = (
            _support_polish(M, _apparent_support(u_avg), _apparent_support(w_avg)),
            (u_avg, w_avg),
            (u, w),
            # last, supports that keep a strategy whose equilibrium weight
            # is too small for the apparent support
            _support_polish(M, *_near_best_responses(M, u_avg, w_avg)),
        )
        for uc, wc in filter(None, candidates):  # a failed polish is None
            gap, lo, hi = _game_gap(M, uc, wc)
            if best is None or gap < best[0]:
                best = (gap, lo, hi, uc, wc)
            if gap <= tol:
                return _package_game(inst, U, W, M, uc, wc, total_iters,
                                     "extragradient+polish")
        iters *= 2
    gap, lo, hi, uc, wc = best
    cert = _package_game(inst, U, W, M, uc, wc, total_iters,
                         "extragradient+polish (best effort)")
    raise NonConvergent(
        f"duality gap stalled at {gap:.3e} > tol {tol:g} "
        f"after {total_iters} iterations",
        certificate=cert,
    )


def _eg_rounds(M, u, w, step, iters):
    half = iters // 2
    u_acc = np.zeros_like(u)
    w_acc = np.zeros_like(w)
    kept = 0
    for k in range(iters):
        uh = project_simplex(u + step * (M @ w))
        wh = project_simplex(w - step * (M.T @ u))
        u = project_simplex(u + step * (M @ wh))
        w = project_simplex(w - step * (M.T @ uh))
        if k >= half:
            u_acc += u
            w_acc += w
            kept += 1
    if kept == 0:
        return u, w, u, w
    return u, w, u_acc / kept, w_acc / kept


def _game_gap(M, u, w):
    """Exact duality gap of a weight pair over the generators."""
    hi = float((M @ w).max())        # best pure response of the maximizer
    lo = float((M.T @ u).min())      # best pure response of the minimizer
    return hi - lo, lo, hi


def _apparent_support(x):
    """Strategies whose weight is not negligible next to the largest."""
    return np.flatnonzero(x > 1e-6 * max(1.0, x.max()))


def _near_best_responses(M, u, w):
    """Pure strategies within the pair's duality gap of a best response."""
    gap, lo, hi = _game_gap(M, u, w)
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


def _package_game(inst, U, W, M, u, w, iters, method) -> SaddleCertificate:
    gap, lo, hi = _game_gap(M, u, w)
    f0 = RandVar(inst.space, U @ u)
    g0 = RandVar(inst.space, W @ w)
    value = inst.payoff.value(f0, g0)
    return SaddleCertificate(
        f0=f0, g0=g0, value=value,
        supinf=lo, infsup=hi, gap=gap,
        iterations=iters, method=method,
    )


def _spectral_norm(M: np.ndarray) -> float:
    if M.size == 0:
        return 0.0
    v = np.full(M.shape[1], 1.0 / math.sqrt(M.shape[1]))
    for _ in range(60):
        x = M.T @ (M @ v)
        nx = float(np.linalg.norm(x))
        if nx <= 0.0:
            return 0.0
        v = x / nx
    return float(np.linalg.norm(M @ v))


# ---------------------------------------------------------------------------
# general (projected) path
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


def _solve_direct(inst: SaddleInstance, tol: float) -> SaddleCertificate:
    payoff = inst.payoff
    space = inst.space
    p = space.probs
    rp = np.sqrt(p)
    B = (rp[:, None] * payoff.K) / rp[None, :]
    L = _spectral_norm(B) + _term_curvature_bound(payoff)
    step = 0.9 / max(L, 1e-12)

    f = _reference(inst.C)  # InputError for a set without one, as in minimize
    g = _reference(inst.D)
    proj_tol = min(tol, 1e-9)
    total = 0
    iters = DIRECT_START_ITERS
    best = None
    for _round in range(DIRECT_MAX_ROUNDS):
        f_acc = np.zeros(space.n)
        g_acc = np.zeros(space.n)
        kept = 0
        half = iters // 2
        for k in range(iters):
            fh = project(inst.C, RandVar(space, f.values + step * payoff.grad_f(f, g)), proj_tol)
            gh = project(inst.D, RandVar(space, g.values - step * payoff.grad_g(f, g)), proj_tol)
            f = project(inst.C, RandVar(space, f.values + step * payoff.grad_f(fh, gh)), proj_tol)
            g = project(inst.D, RandVar(space, g.values - step * payoff.grad_g(fh, gh)), proj_tol)
            if k >= half:
                f_acc += f.values
                g_acc += g.values
                kept += 1
        total += iters
        f_avg = RandVar(space, f_acc / kept)
        g_avg = RandVar(space, g_acc / kept)
        for fc, gc in ((f, g), (f_avg, g_avg)):
            supinf, infsup = _pair_bounds(inst, fc, gc, tol)
            gap = infsup - supinf
            if best is None or gap < best[0]:
                best = (gap, supinf, infsup, fc, gc)
            if gap <= tol:
                return SaddleCertificate(
                    f0=fc, g0=gc, value=payoff.value(fc, gc),
                    supinf=supinf, infsup=infsup, gap=gap,
                    iterations=total, method="extragradient (projected)",
                )
        iters *= 2
    gap, supinf, infsup, fc, gc = best
    cert = SaddleCertificate(
        f0=fc, g0=gc, value=payoff.value(fc, gc),
        supinf=supinf, infsup=infsup, gap=gap,
        iterations=total, method="extragradient (projected, best effort)",
    )
    raise NonConvergent(
        f"duality gap stalled at {gap:.3e} > tol {tol:g} after {total} iterations",
        certificate=cert,
    )


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
