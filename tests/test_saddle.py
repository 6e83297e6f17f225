"""Concave-convex saddle points: the matrix-game fast path, the projected
extragradient path, verification, and the induced direct-sum set family."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cckit.saddle as saddle_mod
from cckit import (
    BilinearPayoff,
    Box,
    CurvatureError,
    InputError,
    Intersection,
    KKMInstance,
    LinearFunctional,
    NonConvergent,
    Polytope,
    ProbSpace,
    RandVar,
    SaddleInstance,
    Sublevel,
    build_G_family,
    contains,
    direct_sum,
    oplus,
    payoff_from_json,
    project_simplex,
    solve_saddle,
    sperner_solve,
    split_oplus,
    verify_saddle,
)

U2 = ProbSpace.uniform(2)


def rv(vals, space=U2):
    return RandVar(space, np.asarray(vals, dtype=float))


SIMPLEX = Polytope([rv([1.0, 0.0]), rv([0.0, 1.0])])


def game(K):
    return SaddleInstance(SIMPLEX, SIMPLEX, BilinearPayoff(U2, K))


def basis_game(k, seed):
    """k-by-k game on the uniform space, both players' sets spanned by the
    unit basis, kernel drawn from uniform(-1, 1)."""
    space = ProbSpace.uniform(k)
    basis = Polytope([RandVar(space, e) for e in np.eye(k)])
    K = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(k, k))
    return SaddleInstance(basis, basis, BilinearPayoff(space, K))


class TestBilinearPayoff:
    def test_value_is_weighted_bilinear_form(self):
        pay = BilinearPayoff(U2, [[1.0, 2.0], [3.0, 4.0]])
        f, g = rv([1.0, 0.0]), rv([0.0, 1.0])
        # E[f * (Kg)] = 0.5 * 1 * K[0,1] = 1
        assert pay.value(f, g) == pytest.approx(1.0, abs=1e-15)

    def test_terms_enter_additively(self):
        pay = BilinearPayoff(
            U2, np.zeros((2, 2)), f_term="0 - x^2", g_term="x^2"
        )
        f, g = rv([1.0, 2.0]), rv([2.0, 0.0])
        # -E[f^2] + E[g^2] = -(0.5 + 2) + 2 = -0.5
        assert pay.value(f, g) == pytest.approx(-0.5, abs=1e-12)
        assert not pay.is_bilinear

    def test_gradients_match_finite_differences(self):
        pay = BilinearPayoff(U2, [[1.0, -2.0], [0.5, 1.0]], g_term="x^2")
        f, g = rv([0.3, 0.7]), rv([0.6, 0.4])
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            dfi = (pay.value(rv(f.values + e), g) - pay.value(rv(f.values - e), g)) / (2 * h)
            # the stored gradient is per-atom (density w.r.t. the weights)
            assert dfi == pytest.approx(U2.probs[i] * pay.grad_f(f, g)[i], abs=1e-5)
            dgi = (pay.value(f, rv(g.values + e)) - pay.value(f, rv(g.values - e))) / (2 * h)
            assert dgi == pytest.approx(U2.probs[i] * pay.grad_g(f, g)[i], abs=1e-5)

    def test_curvature_gates(self):
        with pytest.raises(CurvatureError):
            BilinearPayoff(U2, np.zeros((2, 2)), f_term="x^2")  # convex cap
        with pytest.raises(CurvatureError):
            BilinearPayoff(U2, np.zeros((2, 2)), g_term="0 - x^2")  # concave cup

    def test_curvature_gate_messages(self):
        # the witness pair is the first draw, printed as plain floats so the
        # text does not depend on the numpy version
        pair = "(8.732752605280455, 2.038768743979416)"
        with pytest.raises(CurvatureError) as info:
            BilinearPayoff(U2, np.zeros((2, 2)), f_term="x^2")
        assert str(info.value) == (
            f"payoff term 'x^2' failed the concave midpoint spot-check at x pair {pair}"
        )
        with pytest.raises(CurvatureError) as info:
            BilinearPayoff(U2, np.zeros((2, 2)), g_term="0 - x^2")
        assert str(info.value) == (
            f"payoff term '0 - x^2' failed the convex midpoint spot-check at x pair {pair}"
        )

    def test_input_validation(self):
        with pytest.raises(InputError):
            BilinearPayoff(U2, np.zeros((3, 3)))
        with pytest.raises(InputError):
            BilinearPayoff(U2, [[np.inf, 0.0], [0.0, 0.0]])
        with pytest.raises(InputError):
            BilinearPayoff(U2, np.zeros((2, 2)), f_term="x + y")

    def test_json_round_trip(self):
        pay = BilinearPayoff(U2, [[1.0, -1.0], [2.0, 0.5]], g_term="x^2")
        back = payoff_from_json(U2, pay.to_json())
        f, g = rv([0.2, 0.8]), rv([0.9, 0.1])
        assert back.value(f, g) == pytest.approx(pay.value(f, g), abs=1e-14)


class TestSolveSaddle:
    def test_matching_pennies(self):
        cert = solve_saddle(game([[1.0, -1.0], [-1.0, 1.0]]), tol=1e-9)
        assert cert.value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(cert.f0.values, [0.5, 0.5], atol=1e-6)
        assert np.allclose(cert.g0.values, [0.5, 0.5], atol=1e-6)
        assert cert.gap <= 1e-9
        assert cert.supinf <= cert.value + 1e-9
        assert cert.infsup >= cert.value - 1e-9

    def test_asymmetric_game_closed_form(self):
        # [[3,-1],[-2,1]]: row mix (3/7, 4/7), column mix (2/7, 5/7),
        # matrix value 1/7, halved by the uniform weighting
        cert = solve_saddle(game([[3.0, -1.0], [-2.0, 1.0]]), tol=1e-9)
        assert np.allclose(cert.f0.values, [3 / 7, 4 / 7], atol=1e-7)
        assert np.allclose(cert.g0.values, [2 / 7, 5 / 7], atol=1e-7)
        assert cert.value == pytest.approx(1 / 14, abs=1e-9)

    def test_dominant_strategy_game(self):
        # row 0 dominates; column prefers col 0: pure saddle at (e0, e0)
        cert = solve_saddle(game([[1.0, 2.0], [0.0, 1.0]]), tol=1e-8)
        assert np.allclose(cert.f0.values, [1.0, 0.0], atol=1e-5)
        assert np.allclose(cert.g0.values, [1.0, 0.0], atol=1e-5)
        assert cert.value == pytest.approx(0.5, abs=1e-8)

    def test_zero_game(self):
        cert = solve_saddle(game(np.zeros((2, 2))), tol=1e-9)
        assert cert.value == pytest.approx(0.0, abs=1e-12)
        assert cert.gap <= 1e-9

    def test_direct_path_with_strict_terms(self):
        box = Box(rv([0.0, 0.0]), rv([2.0, 2.0]))
        pay = BilinearPayoff(U2, np.zeros((2, 2)), f_term="0 - x^2", g_term="x^2")
        cert = solve_saddle(SaddleInstance(box, box, pay), tol=1e-6)
        # Phi = -E[f^2] + E[g^2] has its saddle at the origin
        assert np.allclose(cert.f0.values, [0.0, 0.0], atol=1e-4)
        assert np.allclose(cert.g0.values, [0.0, 0.0], atol=1e-4)
        assert cert.gap <= 1e-6
        assert "projected" in cert.method

    def test_certificate_serializes(self):
        cert = solve_saddle(game([[1.0, -1.0], [-1.0, 1.0]]), tol=1e-8)
        obj = cert.to_json()
        assert set(obj) >= {"f0", "g0", "value", "supinf", "infsup", "gap",
                            "iterations", "method"}

    @given(
        a=st.floats(-3, 3), b=st.floats(-3, 3),
        c=st.floats(-3, 3), d=st.floats(-3, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_games_close_their_gap(self, a, b, c, d):
        cert = solve_saddle(game([[a, b], [c, d]]), tol=1e-7)
        assert cert.gap <= 1e-7
        assert cert.supinf - 1e-7 <= cert.value <= cert.infsup + 1e-7


class TestMatrixGameSchedule:
    """The matrix-game path checks the exact gap after every doubling round,
    starting small; the counts below are deterministic."""

    #: the most iterations seeds 0-5 take: 2, 5 and 6 rounds of 16, 32, ...
    ITERATIONS = {3: 48, 10: 496, 30: 1008}

    @pytest.mark.parametrize("k", [3, 10, 30])
    def test_random_games_stop_within_four_rounds(self, k):
        for seed in range(6):
            cert = solve_saddle(basis_game(k, seed), tol=1e-6)
            assert cert.gap <= 1e-6
            assert cert.iterations <= self.ITERATIONS[k]
            assert cert.method == "extragradient+polish"

    def test_tiny_equilibrium_weight_is_polished(self):
        # the row player's equilibrium weight on its second strategy is
        # about 3.8e-7, below the apparent-support threshold; the supports
        # read off near-best responses still find the exact equilibrium
        cert = solve_saddle(game([[1e-14, -2.6262848864983077],
                                  [-8.787556800898046e-243, 1e-06]]), tol=1e-7)
        assert cert.gap <= 1e-7
        assert cert.iterations <= 4096

    def test_budget_exhaustion_reports_the_whole_schedule(self, monkeypatch):
        monkeypatch.setattr(saddle_mod, "_support_polish", lambda *a, **kw: None)
        monkeypatch.setattr(saddle_mod, "MAX_ROUNDS", 2)
        with pytest.raises(NonConvergent) as info:
            solve_saddle(basis_game(10, 0), tol=1e-9)
        cert = info.value.certificate
        schedule = [saddle_mod.START_ITERS * 2 ** r for r in range(2)]
        assert cert.iterations == sum(schedule)
        assert cert.gap > 1e-9
        assert cert.method == "extragradient+polish (best effort)"


class TestMatrixGameAgainstLinprog:
    """Differential check: the certified value is the value of the weighted
    game diag(p) K, as an LP solver finds it."""

    @staticmethod
    def _lp_value(A):
        # max v  s.t.  (A^T u)_j >= v for every column j, u in the simplex
        linprog = pytest.importorskip("scipy.optimize").linprog
        a, b = A.shape
        res = linprog(
            c=np.r_[np.zeros(a), -1.0],
            A_ub=np.c_[-A.T, np.ones(b)], b_ub=np.zeros(b),
            A_eq=np.r_[np.ones(a), 0.0][None, :], b_eq=[1.0],
            bounds=[(0.0, None)] * a + [(None, None)],
            method="highs",
        )
        assert res.status == 0
        return -res.fun

    @pytest.mark.parametrize("k", [3, 10, 30])
    def test_value_matches_linprog(self, k):
        for seed in range(100, 104):
            inst = basis_game(k, seed)
            cert = solve_saddle(inst, tol=1e-9)
            A = inst.space.probs[:, None] * inst.payoff.K
            assert cert.value == pytest.approx(self._lp_value(A), abs=1e-7)


class TestSupportBoundOnPolytopes:
    """Differential check: on two polytopes with a bilinear payoff, the
    support bound of a candidate (U u, W w) is the exact generator gap
    (min M^T u, max M w) of the weighted game M = U^T diag(p) K W."""

    @staticmethod
    def _game(k, generators, seed):
        rng = np.random.default_rng([k, seed])
        space = ProbSpace(tuple(f"w{i}" for i in range(k)),
                          rng.dirichlet(np.ones(k)))
        sets = []
        for _ in range(2):
            if generators == "basis":
                cols = np.eye(k)
            else:
                cols = rng.uniform(0.0, 2.0, size=(int(rng.integers(2, k + 2)), k))
            sets.append(Polytope([RandVar(space, c) for c in cols]))
        K = rng.uniform(-1.0, 1.0, size=(k, k))
        return SaddleInstance(*sets, BilinearPayoff(space, K))

    @pytest.mark.parametrize("generators", ["basis", "random"])
    @pytest.mark.parametrize("k", [2, 3, 10, 30])
    def test_bound_is_the_generator_gap(self, k, generators):
        for seed in range(4):
            inst = self._game(k, generators, seed)
            space = inst.space
            U = np.column_stack([v.values for v in inst.C.generators])
            W = np.column_stack([v.values for v in inst.D.generators])
            M = U.T @ (space.probs[:, None] * inst.payoff.K) @ W
            a, b = M.shape
            u, w, u_avg, w_avg = saddle_mod._extragradient(
                np.full(a, 1.0 / a), np.full(b, 1.0 / b),
                lambda u, w: M @ w, lambda u, w: M.T @ u,
                project_simplex, project_simplex,
                0.9 / np.linalg.norm(M, 2), 64)
            # the polished candidate (None when the polish fails), then
            # the average
            polished, averaged = list(saddle_mod._weight_candidates(
                M, u, w, u_avg, w_avg))[:2]
            assert averaged is not None
            slack = 1e-15 * (1.0 + np.abs(M).max())
            for uc, wc in filter(None, (polished, averaged)):
                supinf, infsup = saddle_mod._pair_bounds(
                    inst, RandVar(space, U @ uc), RandVar(space, W @ wc), 1e-6)
                assert abs(supinf - (M.T @ uc).min()) <= slack
                assert abs(infsup - (M @ wc).max()) <= slack


class TestVerifySaddle:
    def test_accepts_solved_pair(self):
        inst = game([[3.0, -1.0], [-2.0, 1.0]])
        cert = solve_saddle(inst, tol=1e-9)
        vr = verify_saddle(inst, cert.f0, cert.g0, tol=1e-6)
        assert vr.ok is True
        assert vr.max_violation <= 1e-6
        assert vr.value == pytest.approx(cert.value, abs=1e-8)

    def test_rejects_non_saddle_pair(self):
        inst = game([[1.0, -1.0], [-1.0, 1.0]])
        vr = verify_saddle(inst, rv([1.0, 0.0]), rv([0.0, 1.0]), tol=1e-6)
        assert vr.ok is False
        # sup_f Phi(f, e1) = 0.5, Phi(e0, e1) = -0.5: violation 1
        assert vr.max_violation == pytest.approx(1.0, abs=1e-6)
        assert vr.witness is not None and vr.witness["side"] in ("f", "g")

    def test_witness_is_the_first_worst_generator(self):
        e0, e1 = rv([1.0, 0.0]), rv([0.0, 1.0])
        # pennies at (e0, e1): only side f violates, by 1, at e1, which C
        # lists twice; the first copy is the witness
        C = Polytope([e0, e1, rv([0.0, 1.0])])
        inst = SaddleInstance(C, SIMPLEX, BilinearPayoff(U2, [[1.0, -1.0], [-1.0, 1.0]]))
        vr = verify_saddle(inst, e0, e1, tol=1e-6)
        assert vr.witness["side"] == "f"
        assert vr.witness["point"] is C.generators[1]
        # at (e0, e0) both sides violate by 1: a tie goes to side f
        inst = SaddleInstance(SIMPLEX, SIMPLEX, BilinearPayoff(U2, [[0.0, -2.0], [2.0, 0.0]]))
        vr = verify_saddle(inst, e0, e0, tol=1e-6)
        assert vr.max_violation == pytest.approx(1.0, abs=1e-15)
        assert vr.witness["side"] == "f"
        assert vr.witness["point"] is SIMPLEX.generators[1]

    def test_infeasible_pair_rejected(self):
        inst = game([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(InputError):
            verify_saddle(inst, rv([2.0, 2.0]), rv([0.5, 0.5]), tol=1e-6)

    def test_inner_optimization_on_boxes(self):
        # strict terms on boxes: no generator sweep, so each side is
        # checked by a certified inner minimization
        box = Box(rv([0.0, 0.0]), rv([2.0, 2.0]))
        inst = SaddleInstance(box, box, BilinearPayoff(
            U2, [[1.0, -0.5], [0.3, 0.8]], f_term="-x^2", g_term="x^2"))
        cert = solve_saddle(inst, tol=1e-9)
        vr = verify_saddle(inst, cert.f0, cert.g0, tol=1e-6)
        assert vr.ok is True and bool(vr)
        vr = verify_saddle(inst, rv([1.5, 0.2]), cert.g0, tol=1e-6)
        assert vr.ok is False
        assert vr.witness["side"] == "f"
        assert vr.max_violation == pytest.approx(1.145, abs=1e-6)


    def test_bilinear_box_game_is_exact(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no inner optimization on a bilinear box game")
        monkeypatch.setattr(saddle_mod, "_inner_opt", refuse)
        pennies = BilinearPayoff(U2, [[1.0, -1.0], [-1.0, 1.0]])
        box = Box(rv([0.0, 0.0]), rv([2.0, 2.0]))
        # at ((2, 0), (0, 2)): Phi = -2, sup_f Phi(f, g0) = 2 at the corner
        # (0, 2), inf_g Phi(f0, g) = -2 at g0 itself
        vr = verify_saddle(SaddleInstance(box, box, pennies), rv([2.0, 0.0]),
                           rv([0.0, 2.0]), tol=1e-6)
        assert vr.max_violation == 4.0
        assert vr.witness["side"] == "f"
        assert np.array_equal(vr.witness["point"].values, [0.0, 2.0])

    def test_bilinear_box_polytope_game_is_exact(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no inner optimization on a box x polytope game")
        monkeypatch.setattr(saddle_mod, "_inner_opt", refuse)
        pennies = BilinearPayoff(U2, [[1.0, -1.0], [-1.0, 1.0]])
        box = Box(rv([0.0, 0.0]), rv([2.0, 2.0]))
        # at ((2, 0), e0): Phi = 1 = sup_f Phi(f, e0), inf_g Phi(f0, g) = -1
        # at the generator e1 of D
        vr = verify_saddle(SaddleInstance(box, SIMPLEX, pennies), rv([2.0, 0.0]),
                           rv([1.0, 0.0]), tol=1e-6)
        assert vr.max_violation == 2.0
        assert vr.witness["side"] == "g"
        assert vr.witness["point"] is SIMPLEX.generators[1]
        # and with the sets swapped the polytope is the maximizer's
        vr = verify_saddle(SaddleInstance(SIMPLEX, box, pennies), rv([1.0, 0.0]),
                           rv([0.0, 2.0]), tol=1e-6)
        assert vr.max_violation == 2.0
        assert vr.witness["side"] == "f"
        assert vr.witness["point"] is SIMPLEX.generators[1]

    def test_payoff_terms_still_use_inner_optimization(self, monkeypatch):
        calls = []
        real = saddle_mod._inner_opt

        def counting(payoff, fixed, side, over, tol):
            calls.append(side)
            return real(payoff, fixed, side, over, tol)
        monkeypatch.setattr(saddle_mod, "_inner_opt", counting)
        box = Box(rv([0.0, 0.0]), rv([2.0, 2.0]))
        inst = SaddleInstance(box, box, BilinearPayoff(
            U2, [[1.0, -0.5], [0.3, 0.8]], f_term="-x^2", g_term="x^2"))
        verify_saddle(inst, rv([1.5, 0.2]), rv([0.5, 0.5]), tol=1e-6)
        assert calls == ["f", "g"]


class TestSolveDirectBudget:
    def test_best_effort_exit(self, monkeypatch):
        # one round of 2 iterations cannot close the gap of the strict box
        # game: the best pair rides along in the NonConvergent certificate
        monkeypatch.setattr(saddle_mod, "MAX_ROUNDS", 1)
        monkeypatch.setattr(saddle_mod, "START_ITERS", 2)
        box = Box(rv([0.0, 0.0]), rv([2.0, 2.0]))
        inst = SaddleInstance(box, box, BilinearPayoff(
            U2, [[1.0, -0.5], [0.3, 0.8]], f_term="-x^2", g_term="x^2"))
        with pytest.raises(NonConvergent) as info:
            solve_saddle(inst, tol=1e-9)
        cert = info.value.certificate
        assert cert.method == "extragradient (projected, best effort)"
        assert cert.iterations == 2
        assert cert.gap == cert.infsup - cert.supinf
        assert cert.gap > 1e-9


def game_expr_shape(n, seed):
    """Both players on [0, 1]^n over the uniform space, kernel drawn from
    uniform(-1, 1), payoff terms -x^2 and x^2: the benchmark's game_expr."""
    space = ProbSpace.uniform(n)
    box = Box(RandVar(space, np.zeros(n)), RandVar(space, np.ones(n)))
    K = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, n))
    pay = BilinearPayoff(space, K, f_term="-x^2", g_term="x^2")
    return SaddleInstance(box, box, pay)


class TestProjectedCertificate:
    """The projected path checks each candidate by the saddle Frank-Wolfe
    bound, one support call per set, after rounds of 16, 32, 64, ...
    iterations; a set whose support is only a bound keeps the certified
    inner optimization."""

    @pytest.mark.parametrize("n", [3, 64])
    def test_game_expr_shape_certifies_from_supports(self, monkeypatch,
                                                     closed_form_gap, n):
        def refuse(*args, **kwargs):
            raise AssertionError("no inner optimization where both supports are exact")
        monkeypatch.setattr(saddle_mod, "_inner_opt", refuse)
        for seed in (601, 1, 7):
            inst = game_expr_shape(n, seed)
            cert = solve_saddle(inst, tol=1e-6)
            assert cert.iterations <= 128
            assert cert.gap <= 1e-6
            assert cert.method == "extragradient (projected)"
            assert cert.supinf <= cert.value <= cert.infsup
            assert closed_form_gap(inst.payoff.K, inst.space.probs, np.zeros(n),
                                   np.ones(n), cert.f0.values, cert.g0.values) <= 1e-6

    def test_sublevel_set_falls_back_to_inner_optimization(self, monkeypatch):
        sides = []
        real = saddle_mod._inner_opt

        def counting(payoff, fixed, side, over, tol):
            sides.append(side)
            return real(payoff, fixed, side, over, tol)
        monkeypatch.setattr(saddle_mod, "_inner_opt", counting)
        box = Box(rv([0.0, 0.0]), rv([2.0, 2.0]))
        # E[f] <= 1 inside the box: the intersection's support is a bound
        C = Intersection([box, Sublevel(U2, LinearFunctional(U2, np.ones(2)), 1.0)])
        inst = SaddleInstance(C, box, BilinearPayoff(
            U2, [[1.0, -0.5], [0.3, 0.8]], f_term="-x^2", g_term="x^2"))
        cert = solve_saddle(inst, tol=1e-6)
        assert cert.gap <= 1e-6
        assert cert.method == "extragradient (projected)"
        assert sides and sides == ["g", "f"] * (len(sides) // 2)
        assert verify_saddle(inst, cert.f0, cert.g0, tol=1e-6).ok

    @staticmethod
    def _draw_set(rng, kind, space):
        """A box or a polytope on the space, and a random member of it."""
        n = space.n
        if kind == "box":
            lo = rng.uniform(0.0, 1.0, size=n)
            up = lo + rng.uniform(0.1, 2.0, size=n)
            point = lo + rng.uniform(0.0, 1.0, size=n) * (up - lo)
            return Box(RandVar(space, lo), RandVar(space, up)), RandVar(space, point)
        gens = rng.uniform(0.0, 2.0, size=(int(rng.integers(1, 5)), n))
        point = rng.dirichlet(np.ones(len(gens))) @ gens
        return Polytope([RandVar(space, g) for g in gens]), RandVar(space, point)

    @staticmethod
    def _draw_payoff(rng, space, terms):
        K = rng.uniform(-2.0, 2.0, size=(space.n, space.n))
        return BilinearPayoff(space, K, *(("-x^2", "x^2") if terms else ()))

    @staticmethod
    def _draw_space(rng, n):
        probs = 0.5 / n + 0.5 * rng.dirichlet(np.ones(n))
        return ProbSpace(tuple(f"w{i}" for i in range(n)), probs)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4),
           terms=st.booleans())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bound_dominates_the_closed_form_gap(self, closed_form_gap,
                                                 seed, n, terms):
        rng = np.random.default_rng(seed)
        space = self._draw_space(rng, n)
        box, f0 = self._draw_set(rng, "box", space)
        lo, up = box.lower.values, box.upper.values
        g0 = RandVar(space, lo + rng.uniform(0.0, 1.0, size=n) * (up - lo))
        inst = SaddleInstance(box, box, self._draw_payoff(rng, space, terms))
        supinf, infsup = saddle_mod._pair_bounds(inst, f0, g0, 1e-6)
        curv = 1.0 if terms else 0.0
        exact = closed_form_gap(inst.payoff.K, space.probs, lo, up,
                                f0.values, g0.values, curv, curv)
        assert infsup - supinf >= exact - 1e-12

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3),
           terms=st.booleans(),
           kinds=st.sampled_from([("box", "box"), ("box", "polytope"),
                                  ("polytope", "box"),
                                  ("polytope", "polytope")]))
    @settings(max_examples=30, deadline=None)
    def test_bound_dominates_the_inner_optimization_gap(self, seed, n, terms,
                                                        kinds):
        tol = 1e-6
        rng = np.random.default_rng(seed)
        space = self._draw_space(rng, n)
        C, f0 = self._draw_set(rng, kinds[0], space)
        D, g0 = self._draw_set(rng, kinds[1], space)
        inst = SaddleInstance(C, D, self._draw_payoff(rng, space, terms))
        supinf, infsup = saddle_mod._pair_bounds(inst, f0, g0, tol)
        inner_lo, _ = saddle_mod._inner_opt(inst.payoff, f0, "g", D, tol)
        inner_hi, _ = saddle_mod._inner_opt(inst.payoff, g0, "f", C, tol)
        assert infsup - supinf >= (inner_hi - inner_lo) - tol


class TestGFamily:
    def _pennies(self):
        return SaddleInstance(
            SIMPLEX, SIMPLEX, BilinearPayoff(U2, [[1.0, -1.0], [-1.0, 1.0]])
        )

    def _corner_pairs(self):
        es = [rv([1.0, 0.0]), rv([0.0, 1.0])]
        return [(es[i], es[j]) for i in range(2) for j in range(2)]

    def test_family_lives_on_direct_sum(self):
        inst = self._pennies()
        G = build_G_family(inst, self._corner_pairs())
        sum_space = direct_sum(U2)
        assert len(G) == 4
        for S in G:
            assert S.space.same(sum_space)

    def test_each_pair_point_sits_in_its_own_set(self):
        inst = self._pennies()
        pairs = self._corner_pairs()
        G = build_G_family(inst, pairs)
        sum_space = direct_sum(U2)
        for (f, g), S in zip(pairs, G):
            assert contains(S, oplus(f, g, sum_space), 1e-9)

    def test_covering_identity_on_pair_hull(self):
        # any convex combination of the pair points has a nonpositive
        # functional value in at least one family member
        inst = self._pennies()
        pairs = self._corner_pairs()
        G = build_G_family(inst, pairs)
        sum_space = direct_sum(U2)
        verts = [oplus(f, g, sum_space) for f, g in pairs]
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.dirichlet(np.ones(len(verts)))
            h = RandVar(sum_space, sum(ai * v.values for ai, v in zip(a, verts)))
            assert min(S.functional.value(h) for S in G) <= 1e-12

    def test_functional_value_matches_hand_computation(self):
        inst = self._pennies()
        pairs = self._corner_pairs()
        G = build_G_family(inst, pairs)
        sum_space = direct_sum(U2)
        pay = inst.payoff
        rng = np.random.default_rng(9)
        for _ in range(20):
            fv = rng.dirichlet(np.ones(2))
            gv = rng.dirichlet(np.ones(2))
            h = oplus(rv(fv), rv(gv), sum_space)
            for (fp, gp), S in zip(pairs, G):
                want = pay.value(fp, rv(gv)) - pay.value(rv(fv), gp)
                assert S.functional.value(h) == pytest.approx(want, abs=1e-12)

    def test_pairs_outside_the_sets_rejected(self):
        inst = self._pennies()
        with pytest.raises(InputError):
            build_G_family(inst, [(rv([2.0, 0.0]), rv([1.0, 0.0]))])

    def test_gap_family_without_prox_is_refused(self):
        # a non-bilinear payoff gives sublevels of the gap functional,
        # which has no prox: projecting onto one is a typed refusal
        inst = SaddleInstance(SIMPLEX, SIMPLEX, BilinearPayoff(
            U2, [[1.0, -1.0], [-1.0, 1.0]], f_term="-x^2", g_term="x^2"))
        pairs = self._corner_pairs()
        sum_space = direct_sum(U2)
        verts = [oplus(f, g, sum_space) for f, g in pairs]
        with pytest.raises(InputError, match="'saddle-gap'"):
            sperner_solve(KKMInstance(verts, build_G_family(inst, pairs)), tol=1e-3)

    def test_cross_route_projections_are_cheap(self, monkeypatch):
        # the halfspace families of ten transversal 2x2 games, picked by
        # the acceptance cross route's rule: each projection evaluates the
        # functional a few times (about 2.4 on average), since its root
        # search starts from the linearization, which is exact for an
        # unclamped halfspace. The walk's membership labels make about
        # 13,000 more evaluations, however few projections the polish needs.
        calls = {"project": 0, "value": 0, "inside": 0}
        project, value = Sublevel._project, LinearFunctional.value

        def counted_project(self, f, tol):
            calls["project"] += 1
            before = calls["value"]
            try:
                return project(self, f, tol)
            finally:
                calls["inside"] += calls["value"] - before

        def counted_value(self, f):
            calls["value"] += 1
            return value(self, f)
        monkeypatch.setattr(Sublevel, "_project", counted_project)
        monkeypatch.setattr(LinearFunctional, "value", counted_value)
        rng = np.random.default_rng(606)
        es = [rv([1.0, 0.0]), rv([0.0, 1.0])]
        pairs = [(f, g) for f in es for g in es]
        sum_space = direct_sum(U2)
        verts = [oplus(f, g, sum_space) for f, g in pairs]
        made = 0
        while made < 10:
            K = rng.uniform(-2.0, 2.0, size=(2, 2))
            (a, b), (c, d) = K
            det = a - b - c + d
            if abs(det) < 1.0 or not (0.1 <= (d - c) / det <= 0.9
                                      and 0.1 <= (d - b) / det <= 0.9):
                continue
            made += 1
            inst = SaddleInstance(SIMPLEX, SIMPLEX, BilinearPayoff(U2, K))
            sperner_solve(KKMInstance(verts, build_G_family(inst, pairs)), tol=5e-5)
        assert calls["inside"] <= 3 * calls["project"]
        assert calls["value"] < 30_000

    def test_cross_route_agrees_with_extragradient(self):
        # solve pennies a second way: walk the simplex over the G family
        # induced by the corner pairs, then split the located point
        inst = self._pennies()
        pairs = self._corner_pairs()
        G = build_G_family(inst, pairs)
        sum_space = direct_sum(U2)
        verts = [oplus(f, g, sum_space) for f, g in pairs]
        point, _ = sperner_solve(KKMInstance(verts, G), tol=1e-3)
        f_walk, g_walk = split_oplus(point)
        cert = solve_saddle(inst, tol=1e-9)
        assert np.abs(f_walk.values - cert.f0.values).max() <= 5e-3
        assert np.abs(g_walk.values - cert.g0.values).max() <= 5e-3
