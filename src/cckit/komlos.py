"""Forward convex-combination extraction with escape certificates.

Given a sequence of nonnegative random variables inside a closed convex
set, the extractor repeatedly maximizes E[phi(g)] (phi(x) = 1 - e^-x)
over the convex hull of a tail {f_n : n >= D}, doubling D until the
iterates become Cauchy in the convergence-in-probability metric. The
running tail supremum estimate u_D is exactly nonincreasing, each
iterate carries an explicit weight certificate over its tail, and the
achieved value gamma_D sits within 1/D of u_D.

If instead probability mass runs off to infinity along the sequence,
the escaping-mass detector fires: when at least half of the late
indices n carry mass P[f_n >= n] above a level eps, every tail hull
member g built from such terms obeys P[g >= n*eps/2] >= eps/2 (the
mass estimate for convex combinations; see combo_mass_bound), so the
maximizer's mass cannot come down. The extractor then raises
``Unbounded`` carrying a recomputable ``EscapeCertificate``.

The inner maximizer is a fully corrective conditional-gradient loop:
vertex picking by gradient score over the whole remaining tail (lowest
index wins ties), followed by a Newton re-optimization over the active
vertices. Duality gaps at or below the floating-point noise floor are
snapped to exact zero so downstream monotonicity assertions can be
exact.

The tail hulls are nested, conv{f_n : n >= 2D} inside conv{f_n : n >= D},
so each stage after the first starts warm: the previous maximizer's
weight on indices >= D, renormalized, is already a point of the new
hull, and the loop starts there instead of from the best single vertex
(which it still uses when no index survives). The gap is measured over
the whole new pool as before, so the bound u and the certificates keep
their meaning; a stage's weights sit on indices >= D by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .convex import ConvexSetRep, WeightVector, contains, convex_combine
from .errors import InputError, NonConvergent, SolverError, Unbounded
from .measure import ProbSpace, RandVar, metric_d, prob_at_least

#: relative noise floor below which a duality gap is treated as exactly zero
GAP_FLOAT_FLOOR = 1e-13

#: conditional-gradient vertex additions allowed per tail stage
CG_VERTEX_CAP = 500

#: Newton rounds allowed per restricted re-optimization
NEWTON_ROUND_CAP = 120


class SequenceSpec:
    """A finite-horizon sequence of nonnegative random variables.

    ``term(n)`` is 1-indexed with 1 <= n <= horizon. Terms may be given
    as a list, a {index: RandVar} map, or a callable; they are cached
    and validated (shared space, nonnegative atomwise) on first access.
    """

    def __init__(self, space: ProbSpace, terms, horizon: int):
        if not isinstance(horizon, int) or horizon < 1:
            raise InputError("horizon must be a positive integer")
        self.space = space
        self.horizon = horizon
        self._cache: dict[int, RandVar] = {}
        if callable(terms):
            self._fn = terms
        elif isinstance(terms, dict):
            self._fn = lambda n: terms[n]
        else:
            terms = list(terms)
            if len(terms) < horizon:
                raise InputError("term list shorter than horizon")
            self._fn = lambda n: terms[n - 1]

    def term(self, n: int) -> RandVar:
        if not (1 <= n <= self.horizon):
            raise InputError(f"index {n} outside 1..{self.horizon}")
        f = self._cache.get(n)
        if f is None:
            f = self._fn(n)
            if not isinstance(f, RandVar):
                f = RandVar(self.space, np.asarray(f, dtype=float))
            if not f.space.same(self.space):
                raise InputError(f"term {n} lives on a different space")
            if np.any(f.values < 0.0):
                raise InputError(f"term {n} has negative atoms")
            self._cache[n] = f
        return f

    def values_matrix(self, start: int = 1) -> np.ndarray:
        """Columns are term values for n = start..horizon."""
        return np.stack(
            [self.term(n).values for n in range(start, self.horizon + 1)], axis=1
        )


@dataclass(eq=False)
class ExtractState:
    """One accepted tail stage: near-maximizer of E[phi] over conv{f_n : n >= D}."""

    D: int
    u: float           # running upper estimate of the tail-hull supremum
    gamma: float       # achieved value E[phi(g)]
    g: RandVar
    indices: tuple     # tail indices carrying weight (all >= D)
    w: WeightVector    # aligned with `indices`
    metric_step: float | None  # metric_d to the previous accepted iterate
    seq: SequenceSpec = field(repr=False)

    def weights_dict(self) -> dict:
        return {int(n): float(wk) for n, wk in zip(self.indices, self.w.weights)}

    def recombined(self) -> RandVar:
        pts = [self.seq.term(n) for n in self.indices]
        return convex_combine(pts, self.w)

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "u": self.u,
            "gamma": self.gamma,
            "weights": {str(n): w for n, w in sorted(self.weights_dict().items())},
            "metric_d": self.metric_step,
        }


@dataclass(eq=False)
class EscapeCertificate:
    """Recomputable witness that mass escapes along the sequence."""

    eps: float
    indices: list       # n with P[f_n >= n] > eps
    combo_bound: list   # verified mass-bound instances (dicts)
    delta: float
    thresholds: list    # the heights at which the detector fired

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "indices": [int(n) for n in self.indices],
            "combo_bound": self.combo_bound,
            "delta": self.delta,
            "thresholds": [float(t) for t in self.thresholds],
        }


# ---------------------------------------------------------------------------
# escape diagnostics
# ---------------------------------------------------------------------------

def escape_eps(seq: SequenceSpec):
    """Escape level from the data: the largest eps such that at least half
    of the late indices n (n >= max(2, horizon/4)) carry P[f_n >= n] >= eps,
    shaved by a relative hair so the comparisons in the certificate are
    strict. Returns (eps, window_start, {n: q_n}); eps = 0 disables the
    detector (no majority mass at the diagonal heights, nothing to chase)."""
    start = max(2, seq.horizon // 4)
    if start > seq.horizon:
        start = seq.horizon
    q = {n: prob_at_least(seq.term(n), float(n)) for n in range(start, seq.horizon + 1)}
    qs = sorted(q.values(), reverse=True)
    m = len(qs)
    q_star = qs[(m + 1) // 2 - 1]  # largest level with >= half the window at or above
    eps = (1.0 - 1e-9) * q_star
    return eps, start, q


def combo_mass_bound(points, w: WeightVector, n: float, eps: float) -> bool:
    """Mass estimate for convex combinations: if every point f has
    P[f >= n] > eps, then g = sum w_k f_k has P[g >= n*eps/2] >= eps/2.

    (min(x, n) is concave, so E[min(g, n)] >= sum w_k E[min(f_k, n)] > n*eps,
    while E[min(g, n)] <= n*P[g >= n*eps/2] + n*eps/2.)
    Returns the verified conclusion; preconditions raise on violation.
    """
    if not (0.0 < eps < 1.0):
        raise InputError("eps must lie in (0, 1)")
    if not (math.isfinite(n) and n > 0):
        raise InputError("n must be positive and finite")
    if len(points) != w.weights.size:
        raise InputError("weights must align with points")
    for k, f in enumerate(points):
        if prob_at_least(f, n) <= eps:
            raise InputError(
                f"precondition failed at point {k}: P[f >= {n}] = "
                f"{prob_at_least(f, n)!r} <= eps = {eps!r}"
            )
    g = convex_combine(list(points), w)
    return prob_at_least(g, n * eps / 2.0) >= eps / 2.0


# ---------------------------------------------------------------------------
# inner maximizer: fully corrective conditional gradient for E[phi(g)]
# ---------------------------------------------------------------------------

def _phi_mean(p: np.ndarray, g: np.ndarray) -> float:
    return float(np.dot(p, -np.expm1(-g)))


def _best_vertex(pool: np.ndarray, p: np.ndarray) -> int:
    """Column with the largest E[phi], lowest index on ties: one
    fixed-order reduction over the atoms for all columns at once. It
    ranks -E[phi] (negation is exact) so one buffer serves in place."""
    t = np.negative(pool)
    np.expm1(t, out=t)
    t *= p[:, None]
    return int(np.argmin(t.sum(axis=0)))


def _maximize_tail_phi(pool: np.ndarray, p: np.ndarray, slack: float,
                       warm=None):
    """Near-maximize E[phi(g)] over the convex hull of the pool columns.

    Returns (w_full over pool columns, g values, value, gap) with the
    final duality gap a certified bound on (hull supremum - value); stops
    once gap <= slack. Ties in vertex picking break to the lowest index.
    ``warm`` = (columns, weights) is a start point in the hull (distinct
    columns, weights on the simplex); without it the loop starts from the
    best single vertex.
    """
    n_atoms, m = pool.shape
    scale = 1.0 + float(np.abs(pool).max(initial=0.0))

    def scores(gv):
        return pool.T @ (p * np.exp(-gv))

    if warm is not None:
        S = [int(j) for j in warm[0]]
        wS = np.asarray(warm[1], dtype=float)
    else:
        S = [_best_vertex(pool, p)]
        wS = np.array([1.0])

    for _ in range(CG_VERTEX_CAP):
        wS = _restricted_newton(pool[:, S], p, wS)
        gv = pool[:, S] @ wS
        sc = scores(gv)
        inner = float(np.dot(sc[S], wS))
        gap = float(sc.max() - inner)
        if gap <= GAP_FLOAT_FLOOR * scale:
            gap = 0.0
        if gap <= slack:
            w_full = np.zeros(m)
            for j, idx in enumerate(S):
                w_full[idx] = wS[j]
            return w_full, gv, _phi_mean(p, gv), gap
        best = int(np.argmax(sc))
        if best in S:
            # restricted solve not yet tight enough; keep polishing
            continue
        S.append(best)
        wS = np.append(wS, 0.0)
    raise SolverError(
        f"tail maximizer exhausted {CG_VERTEX_CAP} vertex additions "
        f"(slack target {slack:g})"
    )


def _restricted_newton(A: np.ndarray, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Maximize E[phi(A w)] over the weight simplex on the active columns.

    Equality-constrained Newton on the positive support with ratio-test
    line search; support re-entry via the simplex KKT condition. A column
    at weight zero whose step component comes out negative is left out of
    that step and the step re-solved, so the ratio test never stops at 0.
    """
    m = A.shape[1]
    if m == 1:
        return np.array([1.0])
    w = w.copy()
    scale = 1.0 + float(np.abs(A).max(initial=0.0))
    for _ in range(NEWTON_ROUND_CAP):
        gv = A @ w
        weights_atom = p * np.exp(-gv)
        grad = A.T @ weights_atom
        val = _phi_mean(p, gv)
        # KKT check over all active columns (support + zeros)
        nu = float(np.dot(grad, w))
        viol = grad - nu
        pos = w > 0.0
        stat = float(np.abs(viol[pos]).max(initial=0.0))
        entry = float(viol[~pos].max(initial=-np.inf))
        if stat <= 1e-15 * scale and entry <= GAP_FLOAT_FLOOR * scale:
            break
        P = np.where(pos | (viol > GAP_FLOAT_FLOOR * scale))[0]
        while True:
            Ap = A[:, P]
            Q = Ap.T @ (weights_atom[:, None] * Ap)  # = -Hessian restricted
            k = P.size
            K = np.zeros((k + 1, k + 1))
            K[:k, :k] = Q + 1e-14 * scale * scale * np.eye(k)
            K[:k, k] = 1.0
            K[k, :k] = 1.0
            rhs = np.concatenate([viol[P], [0.0]])
            sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
            blocked = (sol[:k] < 0.0) & ~pos[P]
            if not blocked.any():
                break
            P = P[~blocked]
        d = np.zeros(m)
        d[P] = sol[:k]
        if float(np.abs(d).max()) <= 1e-18:
            break
        # ratio test: stay inside the simplex
        neg = d < 0.0
        t_max = 1.0
        if np.any(neg):
            t_max = min(1.0, float(np.min(w[neg] / -d[neg])))
        t = t_max
        improved = False
        for _bt in range(60):
            w_try = w + t * d
            w_try[w_try < 1e-16] = 0.0
            s = w_try.sum()
            if s <= 0.0:
                t *= 0.5
                continue
            w_try = w_try / s
            if _phi_mean(p, A @ w_try) >= val:
                w = w_try
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return w


# ---------------------------------------------------------------------------
# the extractor
# ---------------------------------------------------------------------------

def extract(seq: SequenceSpec, set_rep: ConvexSetRep, tol: float):
    """Extract a limit of tail convex combinations, or certify escape.

    Returns (limit, trace). Raises ``Unbounded`` with an EscapeCertificate
    when the escaping-mass detector fires at two consecutive stages with a
    meaningful height (threshold D*eps/2 >= 1), and ``NonConvergent`` when
    the Cauchy criterion is not met by the last tail stage (horizon too
    short for the requested tolerance). ``set_rep`` may be any convex set:
    it is read only through ``contains``, on every term and on the limit.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InputError("tol must be positive and finite")
    if not seq.space.same(set_rep.space):
        raise InputError("sequence and set live on different spaces")
    for n in range(1, seq.horizon + 1):
        if not contains(set_rep, seq.term(n), tol):
            raise InputError(f"term {n} is not contained in the ambient set at tol")

    p = seq.space.probs
    V = seq.values_matrix(1)  # columns are terms 1..horizon
    eps, _win_start, q_map = escape_eps(seq)
    # escape slower than 4/horizon never pushes a threshold D*eps/2 past 1
    # within the available stages: unobservable here, so the detector is off
    if eps < 4.0 / seq.horizon:
        eps = 0.0
    delta = (eps / 2.0) * (1.0 - 1e-9) if eps > 0.0 else 0.0

    trace: list[ExtractState] = []
    u_prev = 1.0  # E[phi] < 1 always; a valid a-priori bound
    fired_prev = False
    fired_states: list[ExtractState] = []
    stages = [1]
    while stages[-1] * 2 <= seq.horizon:
        stages.append(stages[-1] * 2)

    for D in stages:
        pool = V[:, D - 1:]
        pool_index = list(range(D, seq.horizon + 1))
        slack = min(1.0 / D, tol / 4.0)
        warm = None
        if trace:
            # tail hulls are nested: the previous maximizer's weight on
            # indices >= D, renormalized, is a point of this stage's hull
            keep = [k for k, n in enumerate(trace[-1].indices) if n >= D]
            if keep:
                w_keep = trace[-1].w.weights[keep]
                warm = ([trace[-1].indices[k] - D for k in keep],
                        w_keep / w_keep.sum())
        w_full, gv, gamma_raw, gap = _maximize_tail_phi(pool, p, slack, warm)
        g = RandVar(seq.space, gv)

        u = min(u_prev, gamma_raw + gap)
        gamma = min(gamma_raw, u)
        support = np.nonzero(w_full)[0]
        indices = tuple(int(pool_index[j]) for j in support)
        w = WeightVector(w_full[support])
        step = metric_d(trace[-1].g, g) if trace else None
        state = ExtractState(
            D=D, u=u, gamma=gamma, g=g, indices=indices, w=w,
            metric_step=step, seq=seq,
        )
        trace.append(state)
        u_prev = u

        # The detector becomes meaningful once its height D*eps/2 reaches 1;
        # until then a positive eps blocks convergence claims (the diagonal
        # has not been explored high enough to rule out escape).
        fired = False
        allow_stop = eps == 0.0
        if eps > 0.0:
            threshold = D * eps / 2.0
            if threshold >= 1.0:
                fired = prob_at_least(g, threshold) >= delta
                allow_stop = not fired
                if fired:
                    fired_states.append(state)
                    if fired_prev:
                        cert = _build_certificate(
                            seq, fired_states[-2:], eps, delta, q_map
                        )
                        raise Unbounded(
                            f"escaping mass detected at heights up to {threshold:g}",
                            certificate=cert,
                        )
        if allow_stop and step is not None and step <= tol:
            limit = g
            if not contains(set_rep, limit, 2.0 * tol):
                raise SolverError("extracted limit failed ambient membership")
            return limit, trace
        fired_prev = fired

    raise NonConvergent(
        f"Cauchy criterion not met by tail stage D={stages[-1]} "
        f"(horizon {seq.horizon} too short for tol {tol:g})"
    )


def _build_certificate(seq, states, eps, delta, q_map) -> EscapeCertificate:
    indices = sorted(n for n, qn in q_map.items() if qn > eps)
    instances = []
    for st in states:
        n_th = float(st.D)
        mass = prob_at_least(st.g, n_th * eps / 2.0)
        precond_ok = all(
            prob_at_least(seq.term(i), n_th) > eps for i in st.indices
        )
        instances.append(
            {
                "D": st.D,
                "n": n_th,
                "eps": eps,
                "indices": [int(i) for i in st.indices],
                "weights": {str(i): w for i, w in sorted(st.weights_dict().items())},
                "threshold": n_th * eps / 2.0,
                "mass": mass,
                "bound": eps / 2.0,
                "precondition_verified": precond_ok,
                "holds": mass >= eps / 2.0,
            }
        )
    thresholds = [inst["threshold"] for inst in instances]
    return EscapeCertificate(
        eps=eps, indices=indices, combo_bound=instances,
        delta=delta, thresholds=thresholds,
    )

