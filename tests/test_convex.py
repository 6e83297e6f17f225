"""Convex-set representations: containment, projection, codecs."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import cckit.convex
from cckit import (
    Box,
    CurvatureError,
    Expression,
    InputError,
    Intersection,
    LinearFunctional,
    PointwiseFunctional,
    Polytope,
    ProbSpace,
    QuadraticFunctional,
    RandVar,
    SolverError,
    Sublevel,
    WeightVector,
    contains,
    convex_combine,
    norm,
    project,
    project_simplex,
    set_from_json,
    set_to_json,
)


def uspace(n):
    return ProbSpace.uniform(n)


def rv(space, *vals):
    return RandVar(space, np.array(vals, dtype=float))


class _ConcaveFunctional:
    """Declared convex but concave: G(f) = -E[f^2], or -E[max(f - kink, 0)^2]."""

    declared_convex = True
    kind = "concave"

    def __init__(self, space, kink=None):
        self.space = space
        self.kink = kink

    def value(self, f):
        v = f.values if self.kink is None else np.maximum(f.values - self.kink, 0.0)
        return -float(np.dot(self.space.probs, v ** 2))


class TestWeightVector:
    def test_validation(self):
        WeightVector(np.array([0.5, 0.5]))
        with pytest.raises(InputError):
            WeightVector(np.array([0.6, 0.5]))
        with pytest.raises(InputError):
            WeightVector(np.array([-0.1, 1.1]))

    def test_combine(self):
        sp = uspace(2)
        pts = [rv(sp, 1.0, 0.0), rv(sp, 0.0, 1.0)]
        w = WeightVector(np.array([0.25, 0.75]))
        assert np.allclose(convex_combine(pts, w).values, [0.25, 0.75])


class TestPolytope:
    def test_segment_projection_example(self):
        # segment {(1,0),(0,1)} on uniform two atoms: nearest point to (1,1)
        # is the midpoint
        sp = uspace(2)
        seg = Polytope([rv(sp, 1.0, 0.0), rv(sp, 0.0, 1.0)])
        pr = project(seg, rv(sp, 1.0, 1.0), 1e-10)
        assert np.allclose(pr.values, [0.5, 0.5], atol=1e-10)

    def test_contains_by_residual(self):
        sp = uspace(2)
        seg = Polytope([rv(sp, 1.0, 0.0), rv(sp, 0.0, 1.0)])
        assert contains(seg, rv(sp, 0.3, 0.7), 1e-9)
        assert not contains(seg, rv(sp, 0.8, 0.8), 1e-3)

    def test_rejects_negative_generators(self):
        sp = uspace(2)
        with pytest.raises(InputError):
            Polytope([rv(sp, -0.5, 1.0)])

    def test_weights_recovered(self):
        sp = uspace(3)
        gens = [rv(sp, 1.0, 0.0, 0.0), rv(sp, 0.0, 1.0, 0.0), rv(sp, 0.0, 0.0, 1.0)]
        poly = Polytope(gens)
        target = rv(sp, 0.2, 0.3, 0.5)
        w, resid = poly.weights_for(target, 1e-12)
        assert resid <= 1e-12
        assert np.allclose(w.weights, [0.2, 0.3, 0.5], atol=1e-10)

    def test_projection_idempotent_and_member(self):
        rng = np.random.default_rng(11)
        sp = uspace(4)
        for _ in range(200):
            gens = [RandVar(sp, rng.uniform(0, 3, 4)) for _ in range(5)]
            poly = Polytope(gens)
            f = RandVar(sp, rng.uniform(-1, 4, 4))
            p1 = project(poly, f, 1e-10)
            p2 = project(poly, p1, 1e-10)
            assert norm(p1 - p2) <= 1e-9
            assert contains(poly, p1, 1e-7)

    def test_projection_is_nearest_sampled(self):
        # no hull point sampled at random beats the projection
        rng = np.random.default_rng(13)
        sp = uspace(3)
        gens = [RandVar(sp, rng.uniform(0, 2, 3)) for _ in range(4)]
        poly = Polytope(gens)
        f = RandVar(sp, rng.uniform(0, 3, 3))
        pr = project(poly, f, 1e-12)
        best = norm(f - pr)
        for _ in range(500):
            w = rng.dirichlet(np.ones(4))
            cand = RandVar(sp, sum(wk * g.values for wk, g in zip(w, gens)))
            assert norm(f - cand) >= best - 1e-9


class TestPolytopeMembershipDifferential:
    """The generator-match fast path in ``contains`` against the weight
    program it skips: ``poly.weights_for(f)[1] <= tol`` is the reference."""

    @staticmethod
    def random_polytope(rng, n):
        k = int(rng.integers(1, 9))
        vals = rng.uniform(0.0, 3.0, size=(k, n))
        vals[rng.random((k, n)) < 0.25] = 0.0
        # signed zeros compare equal to 0.0 and must stay members
        vals[rng.random((k, n)) < 0.25] = -0.0
        gens = [RandVar(ProbSpace.uniform(n), row) for row in vals]
        # duplicated generators
        gens += [gens[int(j)] for j in rng.integers(0, k, size=int(rng.integers(0, 3)))]
        return Polytope(gens)

    def test_every_generator_contained_at_zero_tol(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            poly = self.random_polytope(rng, int(rng.integers(1, 6)))
            for g in poly.generators:
                assert contains(poly, g, 0.0)
                # a copy with every zero flipped in sign is the same point
                flipped = RandVar(poly.space, np.where(g.values == 0.0, -g.values, g.values))
                assert contains(poly, flipped, 0.0)
                assert poly.weights_for(g)[1] <= 0.0

    def test_a_generator_needs_no_weight_program(self, monkeypatch):
        calls = []
        real = cckit.convex._simplex_lsq

        def counting(A, b):
            calls.append(b.copy())
            return real(A, b)

        monkeypatch.setattr(cckit.convex, "_simplex_lsq", counting)
        space = ProbSpace.uniform(2)
        poly = Polytope([RandVar(space, [1.0, -0.0]), RandVar(space, [0.0, 1.0])])
        for vals in ([1.0, 0.0], [1.0, -0.0], [-0.0, 1.0]):
            assert contains(poly, RandVar(space, vals), 0.0)
        assert calls == []
        assert contains(poly, RandVar(space, [0.5, 0.5]), 1e-9)
        assert len(calls) == 1

    def test_agrees_with_the_weight_program(self):
        rng = np.random.default_rng(31)
        checked_in = checked_out = 0
        for _ in range(300):
            n = int(rng.integers(1, 6))
            poly = self.random_polytope(rng, n)
            k = len(poly.generators)
            inside = convex_combine(poly.generators, WeightVector(rng.dirichlet(np.ones(k))))
            outside = RandVar(poly.space, inside.values + rng.uniform(0.1, 2.0, size=n))
            for f in (inside, outside):
                for tol in (0.0, 1e-12, 1e-9, 1e-3, 0.5):
                    expected = poly.weights_for(f)[1] <= tol
                    assert contains(poly, f, tol) == expected
                    checked_in += expected
                    checked_out += not expected
        # both verdicts are exercised
        assert checked_in > 100 and checked_out > 100


@st.composite
def weight_programs(draw):
    """A small weight program (A, b) and a shift db of its target."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(6, n + 1)))
    entries = st.floats(-2.0, 2.0, allow_subnormal=False)
    A = draw(hnp.arrays(float, (n, k), elements=entries))
    b = draw(hnp.arrays(float, n, elements=entries))
    db = draw(hnp.arrays(float, n, elements=st.floats(-0.1, 0.1, allow_subnormal=False)))
    return A, b, db


class TestWeightProgramWarmStart:
    """``_simplex_lsq`` warm-started from the solution for a nearby target
    against the cold solve of its own target."""

    @staticmethod
    def strictly_complementary(A, b, w, scale):
        # every zero weight's column would raise the objective at rate
        # >= 1e-9 scale^2, so the final passive set is the support
        grad = A.T @ (A @ w - b)
        slack = float(np.dot(w, grad)) - grad
        return bool(np.all(slack[w == 0.0] <= -1e-9 * scale * scale))

    @given(weight_programs())
    @settings(max_examples=300, deadline=None)
    def test_warm_start_agrees_with_the_cold_solve(self, program):
        A, b, db = program
        lsq = cckit.convex._simplex_lsq
        near, _, _ = lsq(A, b + db)
        cold, cold_res, _ = lsq(A, b)
        warm, warm_res, _ = lsq(A, b, near)
        assert np.all(warm >= 0.0) and abs(float(warm.sum()) - 1.0) <= 1e-12
        # the rest needs a well-posed program: lstsq's rank cutoff leaves a
        # singular passive system off its KKT point, warm or cold
        if np.linalg.cond(np.vstack([A, np.ones(A.shape[1])])) > 1e6:
            return
        # both stop at a dual slack of 1e-12 scale^2, which bounds the
        # objective 0.5 |A w - b|^2 above its minimum by as much
        scale = 1.0 + float(np.abs(A).max()) + float(np.abs(b).max())
        assert abs(warm_res ** 2 - cold_res ** 2) <= 2e-12 * scale ** 2
        if (self.strictly_complementary(A, b, cold, scale)
                and self.strictly_complementary(A, b, warm, scale)
                and np.array_equal(warm > 0.0, cold > 0.0)):
            # one final passive set: one final KKT solve, the same bits
            assert np.array_equal(warm, cold)

    def test_a_start_that_does_not_fit_is_refused(self):
        sp = uspace(2)
        poly = Polytope([rv(sp, 1.0, 0.0), rv(sp, 0.0, 1.0)])
        with pytest.raises(InputError, match="align with the generators"):
            poly.weights_for(rv(sp, 0.5, 0.5), start=WeightVector(np.ones(3) / 3))


class TestBox:
    def test_contains_and_project(self):
        sp = uspace(2)
        box = Box(rv(sp, 0.0, 0.0), rv(sp, 1.0, 2.0))
        assert contains(box, rv(sp, 0.5, 1.5), 0.0)
        assert contains(box, rv(sp, 1.0 + 1e-10, 0.0), 1e-9)
        assert not contains(box, rv(sp, 1.5, 0.0), 0.1)
        pr = project(box, rv(sp, 2.0, -1.0), 1e-12)
        assert np.array_equal(pr.values, [1.0, 0.0])

    def test_order_validated(self):
        sp = uspace(2)
        with pytest.raises(InputError):
            Box(rv(sp, 1.0, 0.0), rv(sp, 0.0, 1.0))


class TestSublevel:
    def test_linear_halfspace(self):
        sp = uspace(2)
        lvl = Sublevel(sp, LinearFunctional(sp, np.array([1.0, 1.0])), 1.0)
        assert contains(lvl, rv(sp, 1.0, 1.0), 1e-12)     # E[f] = 1
        assert not contains(lvl, rv(sp, 2.0, 1.0), 1e-6)
        pr = project(lvl, rv(sp, 3.0, 3.0), 1e-10)
        assert lvl.functional.value(pr) <= 1.0 + 1e-8

    def test_quadratic_projection(self):
        sp = uspace(2)
        q = QuadraticFunctional(sp, 2.0 * np.eye(2))      # E[f^2]
        lvl = Sublevel(sp, q, 1.0)
        pr = project(lvl, rv(sp, 3.0, 3.0), 1e-10)
        assert q.value(pr) <= 1.0 + 1e-8
        # symmetric input stays symmetric
        assert pr.values[0] == pytest.approx(pr.values[1], abs=1e-10)

    @pytest.mark.parametrize("G", [
        LinearFunctional(uspace(2), np.array([1.0, 1.0])),
        QuadraticFunctional(uspace(2), np.array([[1.0, 1.0], [1.0, 1.0]]), b=[-1.0, -1.0]),
        PointwiseFunctional(uspace(2), "x^2"),
    ], ids=lambda G: G.kind)
    def test_empty_sublevel_projection_gives_up(self, G):
        # the level lies below min G over the orthant: no multiplier meets it
        with pytest.raises(SolverError, match="no sign change"):
            project(Sublevel(uspace(2), G, -10.0), rv(uspace(2), 3.0, 1.0), 1e-9)

    def test_empty_sublevel_seen_at_a_minimizer_of_g(self):
        # grad G vanishes at max(f, 0) = 0, where G is least and above the level
        sp = uspace(2)
        with pytest.raises(SolverError, match="sublevel set is empty"):
            project(Sublevel(sp, PointwiseFunctional(sp, "x^2"), -10.0), rv(sp, 0.0, -1.0), 1e-9)

    def test_rejects_undeclared_convexity(self):
        sp = uspace(2)

        class Plain:
            declared_convex = False
            space = sp
            kind = "mystery"

        with pytest.raises(InputError):
            Sublevel(sp, Plain(), 0.0)

    def test_curvature_gate_catches_concave(self):
        # G(f) = -E[f^2], declared convex: the first sampled pair refutes it
        sp = uspace(2)
        with pytest.raises(CurvatureError) as info:
            Sublevel(sp, _ConcaveFunctional(sp), 1.0)
        assert str(info.value) == (
            "midpoint convexity violated on sampled pair #0: "
            "G(mid)=-35.55037376655738 > avg=-36.998600923703194"
        )

    def test_curvature_gate_reports_the_first_violating_pair(self):
        # concave only above 9.8, so the pairs before #18 pass the check
        sp = uspace(2)
        with pytest.raises(CurvatureError) as info:
            Sublevel(sp, _ConcaveFunctional(sp, kink=9.8), 1.0)
        assert str(info.value) == (
            "midpoint convexity violated on sampled pair #18: "
            "G(mid)=-0.0 > avg=-0.00564421674052211"
        )

    @given(
        y=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=3),
        level=st.floats(0.05, 4.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_pointwise_projection_scales_onto_the_contour(self, y, level):
        # the nearest point of {x >= 0 : E[x^2] <= L} to y >= 0 is
        # y sqrt(L / E[y^2]) when E[y^2] > L; the pointwise sublevel
        # reaches it through the scalar prox
        sp = uspace(len(y))
        f = RandVar(sp, np.array(y))
        prox_calls = [0]
        prox = PointwiseFunctional._scalar_prox

        def counted(*args):
            prox_calls[0] += 1
            return prox(*args)
        lvl = Sublevel(sp, PointwiseFunctional(sp, "x^2"), level)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PointwiseFunctional, "_scalar_prox", counted)
            pr = project(lvl, f, 1e-10)
        mean_sq = float(np.dot(sp.probs, f.values ** 2))
        if mean_sq > level:
            want = f.values * np.sqrt(level / mean_sq)
            assert prox_calls[0] > 0
        else:
            want = f.values
        assert np.abs(pr.values - want).max() <= 1e-6

    @pytest.mark.parametrize("phi,level,y", [
        ("exp(x) - x", 1.5, (20.0, 20.0)),
        ("x^2", 1e-4, (100.0, 100.0)),
        ("x^2", 1e-4, (100.0, 1.0)),
    ], ids=["exp-from-20", "square-from-100", "square-lopsided"])
    def test_far_point_projection_is_exact(self, phi, level, y):
        # |grad G| falls from about e^20 (or 200) at f to about 1.4 (or 0.02)
        # at the nearest point, so the multiplier search must judge its slack
        # by the gradient where it stops, not where it starts
        sp = uspace(2)
        f = rv(sp, *y)
        pr = project(Sublevel(sp, PointwiseFunctional(sp, phi), level), f, 1e-9)
        if phi == "x^2":
            want = f.values * np.sqrt(level / float(np.dot(sp.probs, f.values ** 2)))
        else:
            # by symmetry both atoms sit at the root of e^x - x = 1.5
            lo, hi = 0.0, 5.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if np.exp(mid) - mid < level else (lo, mid)
            want = np.full(2, hi)
        assert np.abs(pr.values - want).max() <= 1e-9

    def test_scalar_prox_stops_at_float_resolution(self, monkeypatch):
        # argmin over x >= 0 of (x - 3)^2/2 + 0.5 x^2 is 1.5; the root
        # search on the derivative stops once hi - lo <= 1e-15 (1 + hi) at
        # the latest (bisection alone takes about 50 steps of one exact
        # derivative each)
        calls = [0]
        for name in ("eval", "derivative"):
            def counted(self, *args, _original=getattr(Expression, name)):
                calls[0] += 1
                return _original(self, *args)
            monkeypatch.setattr(Expression, name, counted)
        G = PointwiseFunctional(uspace(1), "x^2", declared_convex=False)
        assert G._scalar_prox(3.0, 0.5) == pytest.approx(1.5, rel=1e-14)
        assert calls[0] <= 64


def _slsqp_project(rep, f):
    """Reference projection onto a Sublevel by scipy's SLSQP (tests only):
    min E[(x - f)^2]/2 over x >= 0 with level - G(x) >= 0."""
    optimize = pytest.importorskip("scipy.optimize")
    p, G = rep.space.probs, rep.functional

    def at(x):
        return RandVar(rep.space, np.asarray(x, dtype=float))
    res = optimize.minimize(
        lambda x: 0.5 * float(np.dot(p, (x - f.values) ** 2)),
        np.full(rep.space.n, 0.5), jac=lambda x: p * (x - f.values),
        method="SLSQP", bounds=[(0.0, None)] * rep.space.n,
        constraints=[{"type": "ineq",
                      "fun": lambda x: rep.level - G.value(at(x)),
                      "jac": lambda x: -p * G.grad(at(x))}],
        options={"ftol": 1e-12, "maxiter": 1000},
    )
    # status 8 ("positive directional derivative") is SLSQP's stop at the
    # limit of its line search's precision
    assert res.status in (0, 8), res.message
    return at(res.x)


def _random_sublevel(kind, seed):
    """A seeded Sublevel on 2-5 atoms with random probabilities and a point
    f; the level lies above G(0), so the set is not empty, and below
    G(max(f, 0)) whenever that exceeds G(0)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    p = rng.uniform(0.5, 1.5, n)
    sp = ProbSpace(tuple(range(n)), p / p.sum())
    f = RandVar(sp, rng.uniform(-1.0, 3.0, n))
    if kind == "linear":
        G = LinearFunctional(sp, rng.uniform(-0.5, 2.0, n))
    elif kind == "quadratic":
        # p_i A_ij = S_ij: self-adjoint for the weighted product, and
        # positive definite; S is far from diagonal
        B = rng.normal(size=(n, n))
        A = (B @ B.T + 0.1 * np.eye(n)) / sp.probs[:, None]
        G = QuadraticFunctional(sp, A, rng.uniform(-1.0, 1.0, n))
    else:
        G = PointwiseFunctional(
            sp, ("x^2", "exp(x) - x", "x^4 + x", "(x - 1)^2")[seed % 4],
            declared_convex=True,
        )
    zero = G.value(RandVar(sp, np.zeros(n)))
    top = G.value(RandVar(sp, np.maximum(f.values, 0.0)))
    level = zero + rng.uniform(0.1, 0.9) * max(top - zero, 1e-3)
    return Sublevel(sp, G, level), f


class TestSublevelAgainstSLSQP:
    """Differential: every Sublevel projection is feasible exactly and no
    farther from f than SLSQP's answer (beyond 1e-6)."""

    @pytest.mark.parametrize("kind,count", [
        ("linear", 60), ("quadratic", 100), ("pointwise", 40),
    ])
    def test_projection_is_the_nearest_point(self, kind, count):
        for seed in range(count):
            rep, f = _random_sublevel(kind, seed)
            ref = _slsqp_project(rep, f)
            pr = project(rep, f, 1e-10)
            assert np.all(pr.values >= 0.0)
            assert rep.functional.value(pr) <= rep.level, seed
            assert norm(pr - f) <= norm(ref - f) + 1e-6, seed


class TestIntersection:
    def test_membership_componentwise(self):
        sp = uspace(2)
        box = Box(rv(sp, 0.0, 0.0), rv(sp, 2.0, 2.0))
        half = Sublevel(sp, LinearFunctional(sp, np.array([1.0, 1.0])), 1.0)
        inter = Intersection([box, half])
        assert contains(inter, rv(sp, 1.0, 1.0), 1e-9)
        assert not contains(inter, rv(sp, 2.0, 2.0), 1e-6)

    def test_projection_lands_in_both(self):
        sp = uspace(2)
        box = Box(rv(sp, 0.0, 0.0), rv(sp, 2.0, 2.0))
        half = Sublevel(sp, LinearFunctional(sp, np.array([1.0, 1.0])), 1.0)
        inter = Intersection([box, half])
        pr = project(inter, rv(sp, 3.0, 0.2), 1e-8)
        assert contains(box, pr, 1e-6)
        assert contains(half, pr, 1e-6)


def _random_support_case(kind, seed):
    """A seeded set on 2-6 atoms with random probabilities, a signed
    density v, a base point `at` (in or out of the set), and the LP
    max E[v (s - at)] over the set, as linprog arguments in the variables
    (s, w): s the point, w the generator weights (polytope kinds only);
    last, the scale that tolerances are taken relative to."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    p = rng.uniform(0.5, 1.5, n)
    sp = ProbSpace(tuple(range(n)), p / p.sum())
    v = rng.normal(size=n) * (rng.random(n) < 0.8)
    at = RandVar(sp, rng.uniform(-1.0, 3.0, n))
    k = int(rng.integers(1, 9)) if "polytope" in kind else 0
    gens = rng.uniform(0.0, 3.0, size=(k, n))
    # the box holds a point m of any polytope part, so the set is not empty
    m = rng.dirichlet(np.ones(k)) @ gens if k else rng.uniform(0.0, 2.0, n)
    lo = np.maximum(m - rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.8), 0.0)
    up = m + rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.8)
    rep = box = Box(RandVar(sp, lo), RandVar(sp, up))
    bounds = list(zip(lo, up))
    A_ub = b_ub = A_eq = b_eq = None
    if kind == "polytope":
        rep = Polytope([RandVar(sp, g) for g in gens])
        bounds = [(None, None)] * n
    elif kind == "box-polytope":
        rep = Intersection([box, Polytope([RandVar(sp, g) for g in gens])])
    elif kind == "box-halfspace":
        c = rng.uniform(-1.0, 2.0, n)
        level = float(np.dot(sp.probs * c, m)) + rng.uniform(0.0, 0.5)
        rep = Intersection([box, Sublevel(sp, LinearFunctional(sp, c), level)])
        A_ub, b_ub = [sp.probs * c], [level]
    if k:
        # s - gens^T w = 0 and sum w = 1, w >= 0
        A_eq = np.block([[np.eye(n), -gens.T], [np.zeros((1, n)), np.ones((1, k))]])
        b_eq = np.r_[np.zeros(n), 1.0]
        bounds += [(0.0, None)] * k
    pv = sp.probs * v
    lp = dict(c=-np.r_[pv, np.zeros(k)], A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
              b_eq=b_eq, bounds=bounds)
    scale = 1.0 + float(np.abs(pv).sum()) * (
        max(float(up.max()), gens.max(initial=0.0)) + float(np.abs(at.values).max()))
    return rep, v, at, lp, scale


def _lp_support(lp, v, at):
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = linprog(method="highs", **lp)
    assert res.status == 0, res.message
    return -res.fun - float(np.dot(at.space.probs * v, at.values))


class TestSupportAgainstLinprog:
    """Differential: ``support(v, at)`` against scipy's LP optimum of
    max E[v (s - at)] over the set."""

    @pytest.mark.parametrize("kind", ["box", "polytope"])
    def test_exact_kinds_attain_the_optimum(self, kind):
        for seed in range(60):
            rep, v, at, lp, scale = _random_support_case(kind, seed)
            bound, s = rep.support(v, at)
            assert bound == pytest.approx(_lp_support(lp, v, at), abs=1e-9 * scale), seed
            # s is a member of C, and attains the bound
            assert contains(rep, s, 0.0), seed
            attained = float(np.dot(rep.space.probs * v, s.values - at.values))
            assert attained == pytest.approx(bound, abs=1e-12 * scale), seed

    @pytest.mark.parametrize("kind", ["box-polytope", "box-halfspace"])
    def test_intersections_give_an_upper_bound(self, kind):
        for seed in range(60):
            rep, v, at, lp, scale = _random_support_case(kind, seed)
            bound, s = rep.support(v, at)
            assert s is None
            assert bound >= _lp_support(lp, v, at) - 1e-9 * scale, seed
            assert bound == min(part.support(v, at)[0] for part in rep.parts)

    def test_sublevel_support_is_unknown(self):
        for kind in ("linear", "quadratic", "pointwise"):
            rep, f = _random_sublevel(kind, 3)
            assert rep.support(np.ones(rep.space.n), f) == (np.inf, None)


class TestIsBounded:
    """Bounded exactly when the support at v = 1 is finite."""

    def test_each_kind(self):
        sp = uspace(2)
        box = Box(rv(sp, 0.0, 0.0), rv(sp, 2.0, 2.0))
        poly = Polytope([rv(sp, 1.0, 0.0), rv(sp, 0.0, 1.0)])
        ball = Sublevel(sp, QuadraticFunctional(sp, np.eye(2)), 1.0)
        half = Sublevel(sp, LinearFunctional(sp, np.array([1.0, -1.0])), 1.0)
        is_bounded = cckit.convex.is_bounded
        assert is_bounded(poly) and is_bounded(box)
        assert is_bounded(Intersection([ball, box]))
        assert is_bounded(Intersection([half, ball, poly]))
        assert not is_bounded(ball)
        assert not is_bounded(Intersection([ball, half]))


class TestProjectSimplex:
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_output_on_simplex(self, vals):
        w = project_simplex(np.array(vals))
        assert np.all(w >= -1e-15)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_already_on_simplex_fixed(self):
        w = project_simplex(np.array([0.2, 0.3, 0.5]))
        assert np.allclose(w, [0.2, 0.3, 0.5], atol=1e-15)


class TestCodec:
    def test_round_trips(self):
        sp = uspace(2)
        reps = [
            Polytope([rv(sp, 1.0, 0.0), rv(sp, 0.0, 1.0)]),
            Box(rv(sp, 0.0, 0.0), rv(sp, 1.0, 2.0)),
            Sublevel(sp, LinearFunctional(sp, np.array([1.0, 2.0])), 1.5),
            Intersection([
                Box(rv(sp, 0.0, 0.0), rv(sp, 2.0, 2.0)),
                Sublevel(sp, LinearFunctional(sp, np.array([1.0, 1.0])), 1.0),
            ]),
        ]
        rng = np.random.default_rng(17)
        for rep in reps:
            blob = json.dumps(set_to_json(rep), sort_keys=True)
            again = set_from_json(sp, json.loads(blob))
            assert type(again) is type(rep)
            for _ in range(50):
                f = RandVar(sp, rng.uniform(-0.5, 2.5, 2))
                assert contains(rep, f, 1e-9) == contains(again, f, 1e-9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            set_from_json(uspace(2), {"blob": {}})
