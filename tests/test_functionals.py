"""Functional layer: linear / quadratic / pointwise values, gradients,
curvature gates, and the JSON codec."""

import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cckit import (
    CurvatureError,
    InputError,
    LinearFunctional,
    PointwiseFunctional,
    ProbSpace,
    QuadraticFunctional,
    RandVar,
    functional_from_json,
)

U2 = ProbSpace.uniform(2)
SKEW = ProbSpace(("a", "b"), (0.3, 0.7))


def rv(space, vals):
    return RandVar(space, np.asarray(vals, dtype=float))


class TestLinear:
    def test_value_is_weighted_dot(self):
        G = LinearFunctional(U2, [1.0, 2.0])
        # 0.5*1*3 + 0.5*2*4 = 5.5
        assert G.value(rv(U2, [3.0, 4.0])) == pytest.approx(5.5, abs=1e-15)

    def test_grad_is_coefficient(self):
        G = LinearFunctional(U2, [1.0, -2.0])
        g = G.grad(rv(U2, [9.0, 9.0]))
        assert np.allclose(g, [1.0, -2.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            LinearFunctional(U2, [1.0, 2.0, 3.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            LinearFunctional(U2, [1.0, float("nan")])

    @given(
        a=st.floats(-20, 20),
        b=st.floats(-20, 20),
        s=st.floats(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_value_linear_in_argument(self, a, b, s):
        G = LinearFunctional(U2, [1.5, -0.5])
        f, g = rv(U2, [a, b]), rv(U2, [b, a])
        lhs = G.value(RandVar(U2, f.values + s * g.values))
        rhs = G.value(f) + s * G.value(g)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestQuadratic:
    def test_identity_matrix_value(self):
        G = QuadraticFunctional(U2, np.eye(2))
        # 0.5 * (0.5*4 + 0.5*16) = 5
        assert G.value(rv(U2, [2.0, 4.0])) == pytest.approx(5.0, abs=1e-15)

    def test_linear_term_added(self):
        G = QuadraticFunctional(U2, np.eye(2), b=[1.0, 2.0])
        # quad 5 + E[bf] = 0.5*1*2 + 0.5*2*4 = 5  -> 10
        assert G.value(rv(U2, [2.0, 4.0])) == pytest.approx(10.0, abs=1e-14)
        assert np.allclose(G.grad(rv(U2, [2.0, 4.0])), [3.0, 6.0])

    def test_weighted_self_adjoint_asymmetric_matrix_accepted(self):
        # p0*A01 = 0.3*7 = 2.1 = 0.7*3 = p1*A10, and the symmetrized
        # similarity transform has eigenvalues 5 +- sqrt(21) >= 0.
        A = np.array([[5.0, 7.0], [3.0, 5.0]])
        G = QuadraticFunctional(SKEW, A)
        # f = (1,1): Af = (12, 8), value = 0.5*(0.3*12 + 0.7*8) = 4.6
        assert G.value(rv(SKEW, [1.0, 1.0])) == pytest.approx(4.6, abs=1e-14)

    def test_self_adjointness_gate(self):
        # plain-symmetric matrix is NOT self-adjoint under skewed weights
        with pytest.raises(CurvatureError):
            QuadraticFunctional(SKEW, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_psd_gate(self):
        with pytest.raises(CurvatureError):
            QuadraticFunctional(U2, -np.eye(2))

    def test_shape_gate(self):
        with pytest.raises(InputError):
            QuadraticFunctional(U2, np.eye(3))

    def test_prox_step_back_meets_kkt(self):
        # the active set frees a coordinate that the next solve drives
        # negative, so the prox steps back and drops it again
        space = ProbSpace.uniform(3)
        rng = np.random.default_rng(146)
        M = rng.normal(size=(3, 3))
        A = M @ M.T
        b = rng.normal(size=3)
        y = rng.normal(size=3)
        mu = rng.uniform(0.1, 5)
        G = QuadraticFunctional(space, A, b)
        src, first = inspect.getsourcelines(QuadraticFunctional.prox)
        step_back = first + next(i for i, line in enumerate(src)
                                 if line.strip().startswith("ratio ="))
        ran = set()

        def tracer(frame, event, arg):
            if frame.f_code is not QuadraticFunctional.prox.__code__:
                return None

            def lines(frame, event, arg):
                ran.add(frame.f_lineno)
                return lines
            return lines

        sys.settrace(tracer)
        try:
            x = G.prox(rv(space, y), mu).values
        finally:
            sys.settrace(None)
        assert step_back in ran
        # KKT of min x.Hx/2 - r.x over x >= 0
        p = space.probs
        H = p[:, None] * (np.eye(3) + mu * A)
        r = p * (y - mu * b)
        slope = H @ x - r
        assert np.all(x >= 0.0)
        assert np.abs(slope[x > 0.0]).max(initial=0.0) <= 1e-12
        assert np.all(slope[x == 0.0] >= 0.0)
        nnls = pytest.importorskip("scipy.optimize").nnls
        L = np.linalg.cholesky(H)  # x.Hx/2 - r.x = |L^T x - L^-1 r|^2/2 + c
        ref, _ = nnls(L.T, np.linalg.solve(L, r))
        assert np.abs(x - ref).max() <= 1e-12

    @given(
        a=st.floats(-10, 10),
        b=st.floats(-10, 10),
        c=st.floats(-10, 10),
        d=st.floats(-10, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_midpoint_convexity(self, a, b, c, d):
        G = QuadraticFunctional(U2, np.array([[2.0, 1.0], [1.0, 2.0]]))
        f, g = rv(U2, [a, b]), rv(U2, [c, d])
        mid = RandVar(U2, 0.5 * (f.values + g.values))
        assert G.value(mid) <= 0.5 * (G.value(f) + G.value(g)) + 1e-9


class TestPointwise:
    def test_value_is_expected_image(self):
        G = PointwiseFunctional(U2, "x^2")
        # 0.5*1 + 0.5*9 = 5
        assert G.value(rv(U2, [1.0, 3.0])) == pytest.approx(5.0, abs=1e-12)

    def test_grad_matches_analytic_derivative(self):
        G = PointwiseFunctional(U2, "x^2")
        g = G.grad(rv(U2, [1.0, 3.0]))
        assert g.tolist() == [2.0, 6.0]  # exact, not a difference quotient

    def test_default_scan_accepts_convex_map(self):
        G = PointwiseFunctional(U2, "x^2")
        assert G.declared_convex is True
        assert G.convexity_witness is None

    def test_default_scan_flags_concave_map(self):
        G = PointwiseFunctional(U2, "1 - exp(0 - x)")
        assert G.declared_convex is False
        a, b = G.convexity_witness
        # the recorded pair really does violate midpoint convexity
        fm = G.scalar(0.5 * (a + b))
        assert fm > 0.5 * (G.scalar(a) + G.scalar(b))

    def test_concave_witness_is_the_first_violating_pair(self):
        G = PointwiseFunctional(U2, "1 - exp(0 - x)")
        assert G.convexity_witness == (1.0870274665769497, 6.795239619415498)

    def test_declared_true_on_concave_map_refused(self):
        with pytest.raises(CurvatureError):
            PointwiseFunctional(U2, "1 - exp(0 - x)", declared_convex=True)

    def test_declared_false_skips_scan(self):
        G = PointwiseFunctional(U2, "x^2", declared_convex=False)
        assert G.declared_convex is False

    def test_only_x_allowed(self):
        with pytest.raises(InputError):
            PointwiseFunctional(U2, "x + y")

    def test_mostly_undefined_map_rejected(self):
        # log(-x) is undefined on the whole sample window (0, 16]
        with pytest.raises(InputError):
            PointwiseFunctional(U2, "log(0 - x)")

    def test_scan_lets_non_domain_errors_through(self, monkeypatch):
        # only DomainError marks a pair as a domain hole; anything else is
        # a fault and must not be skipped as one
        G = PointwiseFunctional(U2, "x^2", declared_convex=False)

        def broken(x):
            raise RuntimeError("not a domain hole")

        monkeypatch.setattr(G, "scalar", broken)
        with pytest.raises(RuntimeError):
            G._midpoint_scan()


class TestCodec:
    def _check_round_trip(self, G, points):
        back = functional_from_json(G.space, G.to_json())
        for f in points:
            assert back.value(f) == pytest.approx(G.value(f), abs=1e-12)
            assert np.allclose(back.grad(f), G.grad(f), atol=1e-9)

    def test_linear_round_trip(self):
        G = LinearFunctional(SKEW, [1.0, -2.5])
        self._check_round_trip(G, [rv(SKEW, [3.0, 4.0]), rv(SKEW, [-1.0, 0.5])])

    def test_quadratic_round_trip(self):
        G = QuadraticFunctional(U2, np.array([[2.0, 1.0], [1.0, 2.0]]), b=[0.5, -0.5])
        self._check_round_trip(G, [rv(U2, [3.0, 4.0]), rv(U2, [-2.0, 1.0])])

    def test_pointwise_round_trip_keeps_verdict(self):
        G = PointwiseFunctional(U2, "1 - exp(0 - x)")
        obj = G.to_json()
        assert obj["declared_convex"] is False
        back = functional_from_json(U2, obj)
        assert back.declared_convex is False
        f = rv(U2, [1.0, 2.0])
        assert back.value(f) == pytest.approx(G.value(f), abs=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            functional_from_json(U2, {"kind": "mystery"})
        with pytest.raises(InputError):
            functional_from_json(U2, {"no": "kind"})
