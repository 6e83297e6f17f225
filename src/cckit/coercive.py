"""Minimization of convex functionals over bounded convex sets.

The attainment story at finite scale: a convex functional G with closed
convex lower-contour sets attains its infimum on a nonempty bounded
closed convex C. ``minimize`` realizes this with a projected-gradient
descent whose accepted iterates produce the decreasing sequence of
contour levels a_k (the nested family witnessing attainment). Where the
support of C is exact (boxes, polytopes) the answer is certified by the
Frank-Wolfe gap max_{s in C} E[grad G(x) (x - s)], which bounds
G(x) - min_C G for convex G (Jaggi 2013, *Revisiting Frank-Wolfe*); the
descent stops once it is at most tol/4. Other sets, and a descent that
ends any other way, are certified against a vertex/grid net of C
instead, restarting from any better net point.

``check_growth`` probes the at-least-linear-growth condition
liminf Phi(x)/x > 0 on the grid x = 2^4 .. 2^24 up to any overflow
(probe-grid evidence, never a proof), and ``coercivity_report`` turns a
probe value lambda_0 into an explicit L1 bound on the lower-contour set
via an affine minorant Phi(x) >= D + delta*x with delta > 0: members f of
{G <= lambda_0} then satisfy E[f] <= (lambda_0 - D)/delta, which is the
finite-scale reading of "bounded in L1, hence in probability".

The step rule is a backtracking (Armijo) line search rather than a
fixed diminishing schedule: the acceptance targets (1e-8 on smooth
fixtures) are unreachable in 1e5 iterations with O(1/sqrt(k)) steps,
and backtracking preserves the projected-(sub)gradient structure while
converging linearly on smooth strongly convex instances.
"""
from __future__ import annotations

import math

import numpy as np

from .convex import (
    Box,
    ConvexSetRep,
    Intersection,
    Polytope,
    Sublevel,
    contains,
    is_bounded,
    project,
)
from .errors import (
    CCKitError,
    CurvatureError,
    DomainError,
    InputError,
    NonConvergent,
    SolverError,
)
from .expr import Expression
from .functionals import (
    LinearFunctional,
    PointwiseFunctional,
    QuadraticFunctional,
    functional_from_json,
    midpoint_scan,
)
from .measure import RandVar

__all__ = [
    "LinearFunctional",
    "QuadraticFunctional",
    "PointwiseFunctional",
    "functional_from_json",
    "check_growth",
    "lower_contour",
    "minimize",
    "coercivity_report",
    "certificate_net",
]

#: projected-gradient iteration budget
MINIMIZE_BUDGET = 100_000

#: growth-probe grid exponents: x = 2^k
GROWTH_GRID_EXPONENTS = range(4, 25)

#: ratio floor for the finite growth probe
GROWTH_RATIO_FLOOR = 1e-9

_SPOT_SEED = 20240902


def check_growth(phi_expr) -> bool:
    """Probe-grid surrogate of liminf Phi(x)/x > 0.

    True iff min over x in {2^4 .. 2^24} before the first overflow of Phi
    of Phi(x)/x exceeds 1e-9 (False if Phi overflows at 2^4). An overflow is
    a ``DomainError`` caused by an ``OverflowError`` (``Expression.eval`` so
    marks any non-finite value); any other ``DomainError``, a domain hole,
    is raised. Finite probes cannot certify a liminf: the verdict is
    probe-grid evidence only.
    """
    if isinstance(phi_expr, str):
        phi_expr = Expression(phi_expr)
    ratios = []
    for k in GROWTH_GRID_EXPONENTS:
        x = float(2 ** k)
        try:
            ratios.append(phi_expr.eval({"x": x}) / x)
        except DomainError as exc:
            if not isinstance(exc.__cause__, OverflowError):
                raise
            break
    return bool(ratios) and min(ratios) > GROWTH_RATIO_FLOOR


def lower_contour(functional, level: float) -> Sublevel:
    """The lower-contour set {f >= 0 : G(f) <= level} as a Sublevel rep."""
    return Sublevel(functional.space, functional, float(level))


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------

def _domain_scale(rep: ConvexSetRep) -> float:
    """max(1, largest coordinate over the set), read as sigma(e_i)/p_i."""
    space = rep.space
    zero = RandVar(space, np.zeros(space.n))
    return max(1.0, max(rep.support(e, zero)[0] / p
                        for e, p in zip(np.eye(space.n), space.probs)))


def certificate_net(rep: ConvexSetRep, cap: int = 4096) -> list:
    """A deterministic finite net of candidate points for optimality checks:
    polytope generators, box corners (or a coordinate grid when corners
    would exceed ``cap``), and for intersections the parts' nets projected
    into the intersection."""
    space = rep.space
    if isinstance(rep, Polytope):
        return list(rep.generators)
    if isinstance(rep, Box):
        n = space.n
        lo, up = rep.lower.values, rep.upper.values
        if 2 ** n <= cap:
            pts = []
            for mask in range(2 ** n):
                v = np.where(
                    [(mask >> i) & 1 for i in range(n)], up, lo
                ).astype(float)
                pts.append(RandVar(space, v))
            return pts
        rng = np.random.default_rng(_SPOT_SEED + 1)
        return [
            RandVar(space, rng.uniform(lo, up))
            for _ in range(cap)
        ] + [rep.lower, rep.upper]
    if isinstance(rep, Intersection):
        pts = []
        for part in rep.parts:
            if is_bounded(part):
                for cand in certificate_net(part, cap):
                    try:
                        pts.append(rep._project(cand, 1e-10))
                    except CCKitError:
                        continue
        return pts
    raise InputError("no certificate net for unbounded representations")


def minimize(functional, C: ConvexSetRep, tol: float):
    """Minimize a declared-convex functional over a bounded closed convex C.

    Returns (f_star, value, report) where report carries the decreasing
    contour levels a_k, the iteration and restart counts, and the
    certificate: ``"fw-gap"`` with the Frank-Wolfe gap ``fw_gap`` <= tol/4
    (exact supports: boxes, polytopes), or ``"net"`` with the certificate-net
    margin ``net_margin`` (value within tol/4 of the best net candidate,
    restarting from any better net point). f_star is feasible at 2*tol.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InputError("tol must be positive and finite")
    if not getattr(functional, "declared_convex", False):
        raise InputError("minimize requires a declared-convex functional")
    if not is_bounded(C):
        raise InputError("C must be bounded (polytope or box-intersected)")
    if not functional.space.same(C.space):
        raise InputError("functional and set live on different spaces")
    hi = _domain_scale(C)
    space = functional.space
    hit = midpoint_scan(
        lambda v: functional.value(RandVar(space, v)),
        lambda rng: rng.uniform(0.0, hi, size=(2, space.n)),
        _SPOT_SEED,
    )
    if hit is not None:
        k, _, _, ga, gb, gm = hit
        raise CurvatureError(
            f"objective failed the midpoint convexity spot-check "
            f"(pair #{k}: G(mid)={gm!r} > avg={0.5 * (ga + gb)!r})"
        )

    x = _reference(C)
    value = functional.value(x)
    levels = [value]
    iterations = 0
    restarts = 0
    while True:
        x, value, iters, gap = _projected_descent(
            functional, C, x, value, tol, levels,
            budget=MINIMIZE_BUDGET - iterations,
        )
        iterations += iters
        report = {"levels": levels, "iterations": iterations,
                  "restarts": restarts}
        if gap is not None:
            report.update(certificate="fw-gap", fw_gap=gap)
            return _feasible(C, x, tol), value, report
        # optimality vs the certificate net; restart from any better point
        better = None
        margin = math.inf
        for cand in certificate_net(C):
            cv = functional.value(cand)
            margin = min(margin, cv - value)
            if cv < value - 0.25 * tol:
                better = cand
                value_cand = cv
                break
        if better is None:
            report.update(certificate="net", net_margin=margin)
            return _feasible(C, x, tol), value, report
        restarts += 1
        if restarts > 3 or iterations >= MINIMIZE_BUDGET:
            raise NonConvergent(
                f"certificate net found a better point after {restarts} restarts "
                f"(gap {value - value_cand:g}); iteration budget {iterations}"
            )
        x, value = better, value_cand
        levels.append(value)


def _feasible(C: ConvexSetRep, x: RandVar, tol: float) -> RandVar:
    if not contains(C, x, 2.0 * tol):
        raise SolverError("minimizer failed feasibility at 2*tol")
    return x


def _reference(C: ConvexSetRep) -> RandVar:
    ref = getattr(C, "reference_point", None)
    if ref is not None:
        return ref()
    raise InputError("set exposes no reference point")


def _fw_gap(C: ConvexSetRep, x: RandVar, grad: np.ndarray):
    """The Frank-Wolfe gap max_{s in C} E[grad (x - s)], the support of C at -grad
    from x (None when that is only a bound). It bounds G(x) - min_C G for convex
    G; for x in C it is >= 0, so a negative sum is rounding and reads 0."""
    gap, s = C.support(-grad, x)
    return None if s is None else max(0.0, gap)


def _projected_descent(functional, C, x, value, tol, levels, budget):
    """Armijo-backtracking projected gradient; appends decreasing levels.

    Returns (x, value, iterations, gap): gap is the Frank-Wolfe gap when
    the descent stopped on it (gap <= tol/4, exact supports), None
    when it stalled (no step lowers the value), met the gradient-mapping
    rule or ran its budget."""
    t = 1.0
    it = 0
    stall = 0
    while it < budget:
        it += 1
        grad = np.asarray(functional.grad(x), dtype=float)
        gap = _fw_gap(C, x, grad)
        if gap is not None and gap <= 0.25 * tol:
            return x, value, it, gap
        moved = False
        for _bt in range(60):
            cand = project(C, RandVar(x.space, x.values - t * grad), min(tol, 1e-9))
            step = cand - x
            step_sq = float(np.dot(x.space.probs * step.values, step.values))
            if step_sq <= 0.0:
                break
            cv = functional.value(cand)
            # sufficient decrease for the projected step; a step that leaves
            # the value where it was is rounding, not progress (accepting it
            # lets two points trade places until the budget runs out)
            if cv <= value - 0.25 * step_sq / t and cv < value:
                x, value = cand, cv
                if levels[-1] - value > 0.0:
                    levels.append(value)
                t *= 1.8
                moved = True
                break
            t *= 0.5
        if not moved:
            stall += 1
            if stall >= 2:
                break
            t = max(t, 1e-12)
        else:
            stall = 0
        # gradient-mapping stopping rule
        gm = math.sqrt(step_sq) / t if moved else 0.0
        if moved and gm <= 1e-3 * tol:
            break
    return x, value, it, None


# ---------------------------------------------------------------------------
# coercivity report
# ---------------------------------------------------------------------------

def _affine_minorant_pointwise(functional: PointwiseFunctional):
    """An affine minorant Phi(x) >= D + delta*x (x >= 0) with delta > 0: the
    tangent at the first anchor a with Phi'(a) > 0, below Phi if convex.
    Each candidate is re-validated on the growth probe grid (plus the low
    end), so a map that merely looked convex cannot ship an unsound bound.
    Returns (D, delta, anchor) or None."""
    for a in (0.5, 1.0, 2.0, 4.0, 16.0, 64.0, 256.0, 1024.0):
        try:
            phi_a = functional.scalar(a)
            delta = functional.expr.derivative({"x": a}, "x")
        except DomainError:
            continue
        if delta <= 1e-12:
            continue
        D = phi_a - delta * a
        if _minorant_holds_on_grid(functional, D, delta):
            return D, delta, a
    return None


def _minorant_holds_on_grid(functional, D: float, delta: float) -> bool:
    grid = [0.0, 1e-3, 1e-2, 0.1, 0.25, 1.0] + [
        float(2 ** k) for k in GROWTH_GRID_EXPONENTS
    ]
    for x in grid:
        try:
            phi = functional.scalar(x)
        except DomainError:
            continue
        if D + delta * x > phi + 1e-12 * (1.0 + abs(phi)):
            return False
    return True


def coercivity_report(functional, probe: RandVar) -> dict:
    """Weak-coercivity diagnostics at the level lambda_0 = G(probe).

    For a pointwise G(f) = E[Phi(f)] with growth evidence and an affine
    minorant D + delta*x <= Phi(x), every member of the contour set
    {G <= lambda_0} satisfies E[f] <= (lambda_0 - D)/delta. Linear and
    quadratic objectives get the analogous bound through their smallest
    linear coefficient. All sampled verdicts are probe-grid evidence.
    """
    if not probe.space.same(functional.space):
        raise InputError("probe lives on a different space")
    lam0 = functional.value(probe)
    if not math.isfinite(lam0):
        raise InputError("probe lies outside the domain (non-finite value)")

    report = {
        "lambda0": lam0,
        "kind": functional.kind,
        "growth_probe": None,
        "weak_coercive": False,
        "minorant": None,
        "l1_bound": None,
        "convexity_sampled": "pass" if functional.declared_convex else "fail",
        "closedness": "by-representation",
        "basis": "probe-grid evidence",
    }

    if isinstance(functional, PointwiseFunctional):
        report["growth_probe"] = check_growth(functional.expr)
        if report["growth_probe"]:
            minorant = _affine_minorant_pointwise(functional)
            if minorant is not None:
                D, delta, anchor = minorant
                report["weak_coercive"] = True
                report["minorant"] = {"D": D, "delta": delta, "anchor": anchor}
                report["l1_bound"] = (lam0 - D) / delta
    elif isinstance(functional, LinearFunctional):
        cmin = float(functional.c_values.min())
        report["growth_probe"] = cmin > GROWTH_RATIO_FLOOR
        if cmin > 0.0:
            report["weak_coercive"] = True
            report["minorant"] = {"D": 0.0, "delta": cmin, "anchor": None}
            report["l1_bound"] = lam0 / cmin
    elif isinstance(functional, QuadraticFunctional):
        bmin = float(functional.b_values.min())
        report["growth_probe"] = bmin > GROWTH_RATIO_FLOOR
        if bmin > 0.0:
            # quadratic part is PSD, so G(f) >= E[b f] >= bmin * E[f]
            report["weak_coercive"] = True
            report["minorant"] = {"D": 0.0, "delta": bmin, "anchor": None}
            report["l1_bound"] = lam0 / bmin
    else:
        raise InputError(f"unsupported functional kind {functional.kind!r}")
    return report
