"""Constrained minimization, growth probes, and weak-coercivity reports."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cckit import (
    Box,
    ConvexSetRep,
    CurvatureError,
    DomainError,
    Expression,
    InputError,
    Intersection,
    LinearFunctional,
    NonConvergent,
    PointwiseFunctional,
    Polytope,
    ProbSpace,
    QuadraticFunctional,
    RandVar,
    Sublevel,
    certificate_net,
    check_growth,
    coercivity_report,
    contains,
    functional_from_json,
    lower_contour,
    minimize,
    set_from_json,
    space_from_json,
)
from cckit import coercive

U2 = ProbSpace.uniform(2)


def rv(vals, space=U2):
    return RandVar(space, np.asarray(vals, dtype=float))


SEGMENT = Polytope([rv([1.0, 0.0]), rv([0.0, 1.0])])


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


class TestCheckGrowth:
    def test_linear_growth_passes(self):
        assert check_growth("x") is True

    def test_superlinear_growth_passes(self):
        assert check_growth("x^2") is True

    def test_saturating_map_still_passes_the_literal_probe(self):
        # 1 - exp(-x) tends to 1, but 1/2^24 is still above the 1e-9
        # ratio floor: the probe is finite-grid evidence, nothing more.
        assert check_growth("1 - exp(0 - x)") is True

    def test_zero_map_fails(self):
        assert check_growth("0") is False

    def test_sub_floor_slope_fails(self):
        assert check_growth("0.000000000001 * x") is False

    def test_decreasing_map_fails(self):
        assert check_growth("0 - x") is False

    def test_overflow_ends_the_probe(self):
        # exp overflows from x = 2^10 on: the verdict comes from the finite
        # points before it, and is False when there are none
        assert check_growth("-exp(x)") is False
        assert check_growth("exp(exp(x))") is False
        # x^100 * x^100 overflows to inf without an error from x = 2^6 on, and
        # inf - inf is NaN: an overflow all the same, after two finite points
        assert check_growth("x^100 * x^100 - x^100 * x^100 + x") is True
        rep = coercivity_report(PointwiseFunctional(U2, "exp(x) - x"), rv([1.0, 2.0]))
        assert rep["growth_probe"] is True
        assert rep["weak_coercive"] is True

    def test_domain_hole_still_raises(self):
        with pytest.raises(DomainError):
            check_growth("log(100 - x)")  # undefined at x = 128


class TestMinimize:
    def test_linear_over_segment(self):
        G = LinearFunctional(U2, [1.0, 2.0])
        x, val, report = minimize(G, SEGMENT, 1e-8)
        assert val == pytest.approx(0.5, abs=1e-8)
        assert np.allclose(x.values, [1.0, 0.0], atol=1e-6)
        assert report["certificate"] == "fw-gap"
        assert 0.0 <= report["fw_gap"] <= 0.25e-8
        assert "net_margin" not in report

    def test_quadratic_interior_minimum(self):
        Q = QuadraticFunctional(U2, np.eye(2))
        x, val, report = minimize(Q, SEGMENT, 1e-8)
        # on the segment (t, 1-t): 0.25*(2t^2 - 2t + 1), minimized at t=1/2
        assert val == pytest.approx(0.125, abs=1e-8)
        assert np.allclose(x.values, [0.5, 0.5], atol=1e-4)

    def test_mean_square_over_shifted_box(self):
        P = PointwiseFunctional(U2, "x^2")
        box = Box(rv([1.0, 1.0]), rv([3.0, 3.0]))
        x, val, _ = minimize(P, box, 1e-8)
        assert val == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(x.values, [1.0, 1.0], atol=1e-4)

    def test_linear_over_box_and_quadratic_ball(self):
        # minimize -0.5 f0 - f1 over {f >= 0, f0^2 + f1^2 <= 1}:
        # optimum -sqrt(5)/2 at (1, 2)/sqrt(5)
        Q = QuadraticFunctional(U2, np.eye(2))
        C = Intersection([Box(rv([0.0, 0.0]), rv([2.0, 2.0])), lower_contour(Q, 0.25)])
        L = LinearFunctional(U2, [-1.0, -2.0])
        x, val, report = minimize(L, C, 1e-7)
        assert val == pytest.approx(-math.sqrt(1.25), abs=1e-6)
        assert np.allclose(x.values, [1 / math.sqrt(5), 2 / math.sqrt(5)], atol=1e-4)
        # an intersection has no Frank-Wolfe gap: the net certifies it
        assert report["certificate"] == "net"
        assert report["net_margin"] >= -0.25e-7

    def test_levels_are_nonincreasing(self):
        Q = QuadraticFunctional(U2, np.eye(2))
        _, _, report = minimize(Q, SEGMENT, 1e-8)
        levels = report["levels"]
        assert all(b <= a + 1e-12 for a, b in zip(levels, levels[1:]))

    def test_result_is_feasible(self):
        Q = QuadraticFunctional(U2, np.eye(2))
        x, _, _ = minimize(Q, SEGMENT, 1e-8)
        assert contains(SEGMENT, x, 2e-8)

    def test_rejects_nonconvex_declaration(self):
        G = PointwiseFunctional(U2, "1 - exp(0 - x)")  # verdict: not convex
        with pytest.raises(InputError):
            minimize(G, SEGMENT, 1e-6)

    def test_curvature_gate_catches_concave(self):
        box = Box(rv([0.0, 0.0]), rv([10.0, 10.0]))
        with pytest.raises(CurvatureError) as info:
            minimize(_ConcaveFunctional(U2), box, 1e-6)
        assert str(info.value) == (
            "objective failed the midpoint convexity spot-check "
            "(pair #0: G(mid)=-28.849994018460983 > avg=-35.242142926414516)"
        )

    def test_curvature_gate_reports_the_first_violating_pair(self):
        # concave only above 9.8, so the pairs before #11 pass the check
        box = Box(rv([0.0, 0.0]), rv([10.0, 10.0]))
        with pytest.raises(CurvatureError) as info:
            minimize(_ConcaveFunctional(U2, kink=9.8), box, 1e-6)
        assert str(info.value) == (
            "objective failed the midpoint convexity spot-check "
            "(pair #11: G(mid)=-0.0 > avg=-0.009424575455712304)"
        )

    def test_rejects_unbounded_set(self):
        Q = QuadraticFunctional(U2, np.eye(2))
        with pytest.raises(InputError, match="C must be bounded"):
            minimize(Q, lower_contour(Q, 1.0), 1e-6)

    def test_rejects_bad_tol_and_mismatched_space(self):
        Q = QuadraticFunctional(U2, np.eye(2))
        with pytest.raises(InputError):
            minimize(Q, SEGMENT, 0.0)
        other = ProbSpace.uniform(3)
        tri = Polytope([RandVar(other, np.eye(3)[i]) for i in range(3)])
        with pytest.raises(InputError):
            minimize(Q, tri, 1e-6)

    @given(
        c0=st.floats(-5, 5),
        c1=st.floats(-5, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_linear_min_is_best_vertex(self, c0, c1):
        G = LinearFunctional(U2, [c0, c1])
        _, val, _ = minimize(G, SEGMENT, 1e-8)
        best = min(G.value(g) for g in SEGMENT.generators)
        assert val == pytest.approx(best, abs=1e-7)


GEN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def _benchmark_instance(seed, name):
    """One instance of the benchmark's ``optimize`` workload, built by its
    seeded generator (loaded read-only, as tests/test_tracing.py loads the
    tracer): (functional, set, tol)."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PY)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    (inst,) = [i for i in gen.build("optimize", seed) if i["name"] == name]
    body = inst["body"]
    space = space_from_json(body["space"])
    tol = float(inst["flags"][inst["flags"].index("--tol") + 1])
    return (functional_from_json(space, body["functional"]),
            set_from_json(space, body["set"]), tol)


def _independent_fw_gap(functional, C, x):
    """max over the corners of a box (or the generators of a polytope) v of
    E[grad G(x) (x - v)], one corner at a time."""
    g = functional.grad(x)
    p = x.space.probs
    return max(
        sum(p[i] * g[i] * (x.values[i] - v.values[i]) for i in range(x.space.n))
        for v in certificate_net(C)
    )


def _random_instance(data, shape):
    n = data.draw(st.integers(1, 6), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    kind = data.draw(st.sampled_from(("linear", "quadratic", "x^2", "exp(x) - x")),
                     label="kind")
    k = data.draw(st.integers(1, 5), label="generators") if shape == "polytope" else 0
    return _seeded_instance(n, seed, kind, k)


def _seeded_instance(n, seed, kind, generators):
    """A box (``generators`` 0) or a polytope on n atoms, and an objective."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, size=n)
    space = ProbSpace([f"w{i}" for i in range(n)], list(w / w.sum()))
    p = np.asarray(space.probs)
    if generators == 0:
        lower = rng.uniform(0.0, 2.0, size=n)
        C = Box(RandVar(space, lower),
                RandVar(space, lower + rng.uniform(0.1, 2.0, size=n)))
    else:
        C = Polytope([RandVar(space, g)
                      for g in rng.uniform(0.0, 2.0, size=(generators, n))])
    if kind == "linear":
        G = LinearFunctional(space, rng.uniform(-2.0, 2.0, size=n))
    elif kind == "quadratic":
        M = rng.standard_normal((n, n))
        rp = np.sqrt(p)
        # self-adjoint for E[uv]: p_i A_ij = rp_i rp_j (M^T M)_ij / n
        A = ((M.T @ M / n) / rp[:, None]) * rp[None, :]
        G = QuadraticFunctional(space, A, rng.uniform(-1.0, 1.0, size=n))
    else:
        G = PointwiseFunctional(space, kind)
    return G, C


class TestFrankWolfeCertificate:
    """On boxes and polytopes the descent stops on the Frank-Wolfe gap
    max_{s in C} E[grad G(x) (x - s)] <= tol/4, which bounds G(x) - min_C G."""

    @pytest.mark.parametrize("seed, name", [
        (201, "min_pointwise_04"),   # (x-1.5)^2 + 0.1*x on a 64-atom box
        (509, "min_quadratic_02"),   # quadratic on a 2n-generator polytope
    ])
    def test_benchmark_runaways_certify_fast(self, monkeypatch, seed, name):
        # neither can meet the gradient-mapping rule, which alone runs the
        # whole 100000-iteration budget; a small budget makes such a
        # descent fail fast instead of running for minutes
        monkeypatch.setattr(coercive, "MINIMIZE_BUDGET", 500)
        G, C, tol = _benchmark_instance(seed, name)
        x, val, report = minimize(G, C, tol)
        assert report["iterations"] <= 200
        assert report["certificate"] == "fw-gap"
        assert 0.0 <= report["fw_gap"] <= 0.25 * tol
        if isinstance(C, Box):
            # (x - 1.5)^2 + 0.1 x is least at 1.45: clamp that into the box
            best = np.clip(1.45, C.lower.values, C.upper.values)
            closed = float(np.dot(C.space.probs,
                                  (best - 1.5) ** 2 + 0.1 * best))
            assert abs(val - closed) <= tol

    def test_descent_below_rounding_stalls_instead_of_cycling(self, monkeypatch):
        # exp(x) - x on a 3-generator polytope at tol 1e-8: the gap cannot
        # reach tol/4 through value comparisons, and accepting steps that
        # leave the value unchanged lets two points trade places for the
        # whole budget; a stall hands over to the net at once
        monkeypatch.setattr(coercive, "MINIMIZE_BUDGET", 500)
        rng = np.random.default_rng(0)
        w = rng.uniform(0.5, 2.0, size=6)
        space = ProbSpace([f"w{i}" for i in range(6)], list(w / w.sum()))
        C = Polytope([RandVar(space, g) for g in rng.uniform(0.0, 2.0, size=(3, 6))])
        G = PointwiseFunctional(space, "exp(x) - x")
        x, val, report = minimize(G, C, 1e-8)
        assert report["iterations"] <= 50
        assert val <= min(G.value(v) for v in C.generators) + 0.25e-8
        assert contains(C, x, 2e-8)

    def test_box_solve_needs_no_net(self, monkeypatch):
        # exp(x) - x on a 64-atom box: the midpoint scan (100 pairs of
        # 3 x 64 evaluations) is most of it; scoring the 4098-point net
        # would add 262,272 more
        G, C, tol = _benchmark_instance(601, "min_pointwise_00")
        assert G.expr.src == "exp(x) - x" and C.space.n == 64
        calls = [0]
        original = Expression.eval

        def counted(self, env):
            calls[0] += 1
            return original(self, env)
        monkeypatch.setattr(Expression, "eval", counted)
        _, _, report = minimize(G, C, tol)
        assert report["certificate"] == "fw-gap"
        assert calls[0] <= 25_000

    def test_gradient_is_exact_under_a_large_offset(self):
        # a central difference of x^2 + 1e12 cancels to 0, which would
        # certify the start point (1.25, 1.25) with fw_gap 0, 1.3125 above
        # the minimum at the lower corner
        G = PointwiseFunctional(U2, "x^2 + 1e12")
        x, val, report = minimize(G, Box(rv([0.5, 0.5]), rv([2.0, 2.0])), 1e-6)
        assert report["certificate"] == "fw-gap"
        assert np.abs(x.values - 0.5).max() <= 1e-6

    def test_rounded_negative_gap_reads_zero(self):
        # found by the differential below: x^2 on a 2-generator polytope over
        # 5 atoms ends on an edge, where the gap sums to -1.1e-16; for a point
        # of C the gap is >= 0, so that is rounding
        G, C = _seeded_instance(5, 4294967295, "x^2", 2)
        tol = 1e-7
        _, _, report = minimize(G, C, tol)
        assert report["certificate"] == "fw-gap"
        assert 0.0 <= report["fw_gap"] <= 0.25 * tol

    @given(data=st.data(), shape=st.sampled_from(("box", "polytope")))
    @settings(max_examples=60, deadline=None)
    def test_gap_certificate_agrees_with_the_net(self, data, shape):
        G, C = _random_instance(data, shape)
        tol = 1e-7
        x, val, report = minimize(G, C, tol)
        assert val == G.value(x)
        net_best = min(G.value(v) for v in certificate_net(C))
        assert val <= net_best + 0.25 * tol
        if report["certificate"] == "net":
            # the Armijo test compares values, so a descent can stall while
            # the gap is still above tol/4 (an optimum inside a polytope
            # face, seldom at this tol); the net then certifies the value
            assert report["net_margin"] == net_best - val
            return
        assert report["certificate"] == "fw-gap"
        gap = report["fw_gap"]
        assert 0.0 <= gap <= 0.25 * tol
        assert gap == pytest.approx(_independent_fw_gap(G, C, x),
                                    rel=1e-9, abs=1e-15)

    def test_intersection_with_a_pointwise_contour(self):
        # min E[-f] over {0 <= f <= 2, E[f^2] <= 1/2}: by Cauchy-Schwarz
        # E[f] <= sqrt(E[f^2]), so the constant sqrt(1/2) is optimal. The
        # contour is projected through the pointwise scalar prox; the
        # objective is symmetric only for its closed form, and the
        # asymmetric one is the counted test below.
        box = Box(rv([0.0, 0.0]), rv([2.0, 2.0]))
        C = Intersection([box, lower_contour(PointwiseFunctional(U2, "x^2"), 0.5)])
        x, val, report = minimize(LinearFunctional(U2, [-1.0, -1.0]), C, 1e-7)
        assert val == pytest.approx(-math.sqrt(0.5), abs=1e-7)
        assert np.allclose(x.values, math.sqrt(0.5), atol=1e-6)
        assert report["certificate"] == "net"


    def test_asymmetric_objective_over_a_pointwise_contour(self, monkeypatch):
        # min E[-f0 - 2 f1] over {0 <= f <= 2, E[f^2] <= 1/2}, that is
        # f0^2 + f1^2 <= 1: the minimizer is (1, 2)/sqrt(5). The sublevel
        # projections need few exact derivatives (384,996 when each
        # multiplier and each scalar prox was bisected)
        calls = [0]
        original = Expression.derivative

        def counted(self, *args):
            calls[0] += 1
            return original(self, *args)
        monkeypatch.setattr(Expression, "derivative", counted)
        box = Box(rv([0.0, 0.0]), rv([2.0, 2.0]))
        C = Intersection([box, lower_contour(PointwiseFunctional(U2, "x^2"), 0.5)])
        x, _, _ = minimize(LinearFunctional(U2, [-1.0, -2.0]), C, 1e-5)
        assert np.abs(x.values - np.array([1.0, 2.0]) / math.sqrt(5)).max() <= 1e-5
        assert calls[0] <= 40_000


class _Segment(ConvexSetRep):
    """The segment [a, b] between two distinct nonnegative points: a set
    type that ``coercive`` knows nothing about, only its hooks."""

    kind = "segment"

    def __init__(self, a: RandVar, b: RandVar):
        self.space, self.a, self.b = a.space, a, b

    def _project(self, f, tol):
        # the nearest point a + t (b - a), t clamped to [0, 1]
        p, d = self.space.probs, self.b.values - self.a.values
        t = np.dot(p * d, f.values - self.a.values) / np.dot(p * d, d)
        return RandVar(self.space, self.a.values + min(max(t, 0.0), 1.0) * d)

    def _contains(self, f, tol):
        d = f.values - self._project(f, tol).values
        return math.sqrt(np.dot(self.space.probs * d, d)) <= tol

    def reference_point(self):
        return RandVar(self.space, 0.5 * (self.a.values + self.b.values))

    def support(self, v, at):
        # a linear function peaks at an end of the segment
        ends = (self.a, self.b)
        vals = [float(np.dot(self.space.probs * v, e.values - at.values)) for e in ends]
        j = int(np.argmax(vals))
        return vals[j], ends[j]


class TestNewSetType:
    def test_segment_certifies_by_its_support(self):
        C = _Segment(rv([3.0, 0.0]), rv([0.0, 1.0]))
        # E[(f - 1)^2] on (3 (1 - t), t): 0.5 ((2 - 3t)^2 + (t - 1)^2),
        # least at t = 0.7, the point (0.9, 0.7), value 0.05
        G = PointwiseFunctional(U2, "(x - 1)^2")
        x, val, report = minimize(G, C, 1e-8)
        assert report["certificate"] == "fw-gap"
        assert 0.0 <= report["fw_gap"] <= 0.25e-8
        assert val == pytest.approx(0.05, abs=1e-8)
        assert np.allclose(x.values, [0.9, 0.7], atol=1e-6)


class TestCertificateNet:
    def test_polytope_net_is_generators(self):
        net = certificate_net(SEGMENT)
        assert len(net) == 2
        assert {tuple(p.values) for p in net} == {(1.0, 0.0), (0.0, 1.0)}

    def test_box_net_is_corners(self):
        net = certificate_net(Box(rv([0.0, 1.0]), rv([2.0, 3.0])))
        assert {tuple(p.values) for p in net} == {
            (0.0, 1.0), (2.0, 1.0), (0.0, 3.0), (2.0, 3.0),
        }

    def test_intersection_net_is_feasible(self):
        C = Intersection([
            Box(rv([0.0, 0.0]), rv([2.0, 2.0])),
            Box(rv([1.0, 1.0]), rv([3.0, 3.0])),
        ])
        net = certificate_net(C)
        assert net
        for p in net:
            assert contains(C, p, 1e-8)

    def test_unbounded_rep_rejected(self):
        Q = QuadraticFunctional(U2, np.eye(2))
        with pytest.raises(InputError):
            certificate_net(lower_contour(Q, 1.0))

    def test_restart_budget_fails_loudly(self, monkeypatch):
        # one descent step cannot reach the best vertex (0, 0) of the
        # triangle; the net finds it, and the spent budget forbids a restart
        monkeypatch.setattr(coercive, "MINIMIZE_BUDGET", 1)
        C = Polytope([rv([0.0, 0.0]), rv([1.0, 0.0]), rv([0.0, 1.0])])
        with pytest.raises(NonConvergent, match="certificate net found a "
                           "better point after 1 restarts"):
            minimize(LinearFunctional(U2, [1e-3, 2e-3]), C, 1e-6)


class TestLowerContour:
    def test_membership_matches_level(self):
        G = LinearFunctional(U2, [1.0, 2.0])
        S = lower_contour(G, 0.75)
        assert isinstance(S, Sublevel)
        assert contains(S, rv([1.0, 0.0]), 1e-9)   # value 0.5
        assert not contains(S, rv([0.0, 1.0]), 1e-9)  # value 1.0

    def test_contours_nest(self):
        Q = QuadraticFunctional(U2, np.eye(2))
        inner, outer = lower_contour(Q, 0.1), lower_contour(Q, 0.5)
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = rv(rng.uniform(0.0, 2.0, size=2))
            if contains(inner, f, 1e-9):
                assert contains(outer, f, 1e-9)


class TestCoercivityReport:
    def test_identity_map(self):
        G = PointwiseFunctional(U2, "x")
        rep = coercivity_report(G, rv([2.0, 2.0]))
        assert rep["weak_coercive"] is True
        assert rep["growth_probe"] is True
        assert rep["minorant"]["D"] == pytest.approx(0.0, abs=1e-9)
        assert rep["minorant"]["delta"] == pytest.approx(1.0, abs=1e-6)
        assert rep["l1_bound"] == pytest.approx(2.0, abs=1e-6)
        assert rep["convexity_sampled"] == "pass"
        assert rep["basis"] == "probe-grid evidence"

    def test_square_map(self):
        G = PointwiseFunctional(U2, "x^2")
        rep = coercivity_report(G, rv([1.0, 1.0]))  # lambda0 = 1
        assert rep["weak_coercive"] is True
        m = rep["minorant"]
        # tangent at 1/2: x^2 >= x - 1/4
        assert m["D"] == pytest.approx(-0.25, abs=1e-5)
        assert m["delta"] == pytest.approx(1.0, abs=1e-5)
        assert rep["l1_bound"] == pytest.approx(1.25, abs=1e-4)

    def test_saturating_map_is_not_weakly_coercive(self):
        # growth probe passes on the literal grid rule, but no affine
        # minorant with positive slope survives re-validation, so the
        # verdict stays negative (and the curvature sample fails too).
        G = PointwiseFunctional(U2, "1 - exp(0 - x)")
        rep = coercivity_report(G, rv([1.0, 1.0]))
        assert rep["growth_probe"] is True
        assert rep["weak_coercive"] is False
        assert rep["minorant"] is None
        assert rep["l1_bound"] is None
        assert rep["convexity_sampled"] == "fail"

    def test_linear_positive_and_degenerate(self):
        pos = coercivity_report(LinearFunctional(U2, [1.0, 2.0]), rv([2.0, 2.0]))
        assert pos["weak_coercive"] is True
        # lambda0 = E[cf] = 0.5*2 + 1*2 = 3, delta = cmin = 1
        assert pos["l1_bound"] == pytest.approx(3.0, abs=1e-12)
        deg = coercivity_report(LinearFunctional(U2, [0.0, 1.0]), rv([2.0, 2.0]))
        assert deg["weak_coercive"] is False

    def test_quadratic_uses_linear_term_floor(self):
        no_b = coercivity_report(QuadraticFunctional(U2, np.eye(2)), rv([1.0, 1.0]))
        assert no_b["weak_coercive"] is False
        with_b = coercivity_report(
            QuadraticFunctional(U2, np.eye(2), b=[1.0, 1.0]), rv([1.0, 1.0])
        )
        assert with_b["weak_coercive"] is True
        # lambda0 = 0.5*E[f^2] + E[f] = 0.5 + 1 = 1.5
        assert with_b["l1_bound"] == pytest.approx(1.5, abs=1e-12)

    def test_probe_space_mismatch(self):
        G = PointwiseFunctional(U2, "x")
        other = ProbSpace.uniform(3)
        with pytest.raises(InputError):
            coercivity_report(G, RandVar(other, np.ones(3)))

    @given(
        f0=st.floats(0.0, 3.0),
        f1=st.floats(0.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_l1_bound_really_bounds_the_contour_set(self, f0, f1):
        # for any nonnegative f with E[f^2] <= lambda0, the report's
        # bound must dominate E[f]
        G = PointwiseFunctional(U2, "x^2")
        probe = rv([1.0, 1.0])
        rep = coercivity_report(G, probe)
        f = rv([f0, f1])
        if G.value(f) <= rep["lambda0"]:
            mean = float(np.dot(U2.probs, f.values))
            assert mean <= rep["l1_bound"] + 1e-9
