"""Market clearing for weighted-budget-share economies: the excess-demand
field, its aggregate-value identity, and the covering-based solver."""

import numpy as np
import pytest

from cckit import equilibrium
from cckit import (
    CobbDouglasEconomy,
    ExcessDemandInstance,
    InputError,
    NonConvergent,
    RandVar,
    check_hypotheses,
    economy_from_json,
    excess_demand,
    solve_excess_demand,
    walras_check,
)

SYMMETRIC = CobbDouglasEconomy([[1.0, 0.0], [0.0, 1.0]],
                               [[0.5, 0.5], [0.5, 0.5]])
# one agent, equal endowment, skewed preferences: clears at p = (1/3, 2/3)
ASYMMETRIC = CobbDouglasEconomy([[1.0, 1.0]], [[1 / 3, 2 / 3]])


def at_weights(inst, w):
    """The domain point with barycentric weights w over the corners."""
    from cckit import RandVar
    vals = sum(float(wj) * v.values for wj, v in zip(w, inst.vertices))
    return RandVar(inst.space, vals)


class TestEconomy:
    def test_validation(self):
        with pytest.raises(InputError):
            CobbDouglasEconomy([[1.0, 0.0]], [[0.6, 0.6]])  # row sum != 1
        with pytest.raises(InputError):
            CobbDouglasEconomy([[1.0, 0.0]], [[1.2, -0.2]])  # negative share
        with pytest.raises(InputError):
            CobbDouglasEconomy([[1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]])  # shape
        with pytest.raises(InputError):
            CobbDouglasEconomy([[1.0, 0.0], [1.0, 0.0]],
                               [[0.5, 0.5], [0.5, 0.5]])  # good 2 absent

    def test_shape_properties(self):
        assert SYMMETRIC.agents == 2
        assert SYMMETRIC.goods == 2

    def test_json_round_trip(self):
        back = economy_from_json(SYMMETRIC.to_json())
        p = np.array([0.3, 0.7])
        assert np.allclose(excess_demand(back, p), excess_demand(SYMMETRIC, p))


class TestExcessDemand:
    def test_hand_computed_point(self):
        # budgets (0.25, 0.75); demand for good 1: (0.5*0.25 + 0.5*0.75)/0.25
        # = 2, supply 1 -> +1; good 2: 0.5/0.75 - 1 = -1/3
        z = excess_demand(SYMMETRIC, np.array([0.25, 0.75]))
        assert z[0] == pytest.approx(1.0, abs=1e-12)
        assert z[1] == pytest.approx(-1 / 3, abs=1e-12)

    def test_vanishes_at_equilibrium(self):
        z = excess_demand(SYMMETRIC, np.array([0.5, 0.5]))
        assert np.allclose(z, 0.0, atol=1e-14)

    def test_aggregate_value_identity_is_exact(self):
        # p . z(p) = 0 at EVERY price, equilibrium or not
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = rng.dirichlet(np.ones(2))
            if p.min() < 1e-9:
                continue
            z = excess_demand(SYMMETRIC, p)
            assert abs(float(p @ z)) <= 1e-12

    def test_single_agent_field_does_not_vanish_pointwise(self):
        # only the price-weighted aggregate is an identity; the field
        # itself is nonzero away from the clearing price even for one agent
        econ = CobbDouglasEconomy([[1.0, 1.0]], [[0.9, 0.1]])
        p = np.array([0.5, 0.5])
        z = excess_demand(econ, p)
        assert z[0] == pytest.approx(0.8, abs=1e-12)
        assert abs(float(p @ z)) <= 1e-15

    def test_positive_prices_required(self):
        with pytest.raises(InputError):
            excess_demand(SYMMETRIC, np.array([1.0, 0.0]))
        with pytest.raises(InputError):
            excess_demand(SYMMETRIC, np.array([1.0, -0.5]))


class TestInstance:
    def test_corners_and_barycentric_are_inverse(self):
        inst = ExcessDemandInstance.from_economy(SYMMETRIC)
        for j, v in enumerate(inst.vertices):
            a = inst.barycentric(v)
            e = np.zeros(inst.d)
            e[j] = 1.0
            assert np.allclose(a, e, atol=1e-12)

    def test_self_pairing_vanishes_everywhere(self):
        inst = ExcessDemandInstance.from_economy(SYMMETRIC)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = at_weights(inst, rng.dirichlet(np.ones(2)))
            assert abs(inst.F(x, x)) <= 1e-12

    def test_economy_xor_table(self):
        with pytest.raises(InputError):
            ExcessDemandInstance(2, 1e-6, economy=SYMMETRIC,
                                 table=[[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(InputError):
            ExcessDemandInstance(2, 1e-6)


class TestChecks:
    def test_walras_check_passes_economy(self):
        inst = ExcessDemandInstance.from_economy(SYMMETRIC)
        x = at_weights(inst, np.array([0.3, 0.7]))
        assert walras_check(inst, x) is True

    def test_hypotheses_pass_on_economy(self):
        inst = ExcessDemandInstance.from_economy(SYMMETRIC)
        rep = check_hypotheses(inst)
        assert rep["walras"] == "pass"
        assert rep["convex_slices"] == "pass"
        assert rep["witness"] is None

    def test_walras_violating_table_is_caught(self):
        bad = ExcessDemandInstance.from_table([[0.5, 1.0], [1.0, 0.2]])
        rep = check_hypotheses(bad)
        assert rep["walras"] == "fail"
        assert rep["witness"] is not None
        x = at_weights(bad, np.asarray(rep["witness"]["point"]))
        assert not walras_check(bad, x)


class TestSolve:
    def test_symmetric_two_good_economy(self):
        inst = ExcessDemandInstance.from_economy(SYMMETRIC)
        x, report = solve_excess_demand(inst, tol=1e-6)
        assert np.allclose(x.values, [0.5, 0.5], atol=1e-4)
        assert report["max_violation"] <= 1e-6
        assert report["hypothesis_checks"]["walras"] == "pass"

    def test_asymmetric_single_agent(self):
        inst = ExcessDemandInstance.from_economy(ASYMMETRIC)
        x, report = solve_excess_demand(inst, tol=1e-6)
        assert np.allclose(x.values, [1 / 3, 2 / 3], atol=1e-4)
        assert report["max_violation"] <= 1e-6

    def test_three_goods_symmetric(self):
        econ = CobbDouglasEconomy(np.eye(3), np.full((3, 3), 1 / 3))
        inst = ExcessDemandInstance.from_economy(econ)
        x, report = solve_excess_demand(inst, tol=1e-6)
        assert np.allclose(x.values, [1 / 3, 1 / 3, 1 / 3], atol=1e-4)
        assert report["max_violation"] <= 1e-6

    def test_antisymmetric_table_corner_equilibrium(self):
        inst = ExcessDemandInstance.from_table([[0.0, 1.0], [-1.0, 0.0]])
        x, report = solve_excess_demand(inst, tol=1e-6)
        # the interpolated field clears only at the second corner
        assert np.allclose(x.values, inst.vertices[1].values, atol=1e-4)
        assert report["max_violation"] <= 1e-6

    def test_adversarial_table_refused_up_front(self):
        bad = ExcessDemandInstance.from_table([[0.5, 1.0], [1.0, 0.2]])
        with pytest.raises(InputError):
            solve_excess_demand(bad, tol=1e-6)

    def test_report_shape(self):
        inst = ExcessDemandInstance.from_economy(SYMMETRIC)
        _, report = solve_excess_demand(inst, tol=1e-6)
        assert set(report) >= {
            "q", "rounds", "steps", "polish_iterations",
            "max_violation", "eta", "hypothesis_checks",
        }

    def test_violations_vector_at_solution(self):
        inst = ExcessDemandInstance.from_economy(SYMMETRIC)
        x, _ = solve_excess_demand(inst, tol=1e-6)
        v = inst.violations(x)
        assert len(v) == 2
        assert max(v) <= 1e-6


def three_good_economies(seed, count):
    """Random economies of 2-3 agents on 3 goods, the benchmark's shape."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        agents = int(rng.integers(2, 4))
        shares = rng.uniform(0.2, 1.0, size=(agents, 3))
        shares /= shares.sum(axis=1, keepdims=True)
        out.append(CobbDouglasEconomy(rng.uniform(0.2, 1.0, size=(agents, 3)),
                                      shares))
    return out


class TestNewtonPolish:
    """The located cell seeds Newton on the closed-form Jacobian; its point
    is kept only when it lies in the truncated simplex and re-measures
    within tol."""

    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(11)
        insts = [ExcessDemandInstance.from_economy(econ)
                 for econ in three_good_economies(12, 3)]
        a = rng.uniform(-1.0, 1.0, size=(3, 3))
        insts.append(ExcessDemandInstance.from_table(a - a.T))
        for inst in insts:
            x = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
            J = equilibrium._jacobian(inst, x)
            h = 1e-6
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                up = inst.violations(RandVar(inst.space, x + e))
                dn = inst.violations(RandVar(inst.space, x - e))
                assert np.allclose(J[:, k], (up - dn) / (2 * h),
                                   rtol=1e-6, atol=1e-7)

    def test_three_good_economies_clear_in_one_round(self):
        for econ in three_good_economies(8, 8):
            inst = ExcessDemandInstance.from_economy(econ)
            x, report = solve_excess_demand(inst, tol=1e-6)
            assert (report["q"], report["rounds"]) == (32, 1)
            assert report["max_violation"] <= 1e-6
            assert np.all(x.values >= inst.eta)
            assert abs(float(x.values.sum()) - 1.0) <= 1e-12
            assert float(inst.violations(x).max()) == report["max_violation"]

    def test_fixture_economies_clear_exactly(self):
        for econ, target in ((SYMMETRIC, [0.5, 0.5]),
                             (ASYMMETRIC, [1 / 3, 2 / 3])):
            x, report = solve_excess_demand(
                ExcessDemandInstance.from_economy(econ), tol=1e-6)
            assert np.abs(x.values - target).max() <= 1e-14
            assert report["rounds"] == 1
            assert report["max_violation"] <= 1e-15

    def test_boundary_equilibrium_falls_back_to_descent(self):
        # the table clears only at a corner, where Newton's solution of the
        # first slice leaves the truncated simplex; the descent finds it
        inst = ExcessDemandInstance.from_table([[0.0, 1.0], [-1.0, 0.0]])
        x, report = solve_excess_demand(inst, tol=1e-6)
        assert np.array_equal(x.values, inst.vertices[1].values)
        assert report["rounds"] == 1


class TestTatonnement:
    """The covering solver against the exact linear-solve oracle."""

    def test_agrees_with_covering_solver(self, exact_prices):
        inst = ExcessDemandInstance.from_economy(SYMMETRIC)
        x, _ = solve_excess_demand(inst, tol=1e-6)
        assert np.abs(exact_prices(SYMMETRIC) - x.values).max() <= 1e-9

    def test_asymmetric_agreement(self, exact_prices):
        inst = ExcessDemandInstance.from_economy(ASYMMETRIC)
        x, _ = solve_excess_demand(inst, tol=1e-6)
        assert np.abs(exact_prices(ASYMMETRIC) - x.values).max() <= 1e-9

    def test_excess_demand_small_at_fixed_point(self, exact_prices):
        for econ in (SYMMETRIC, ASYMMETRIC):
            z = excess_demand(econ, exact_prices(econ))
            assert np.abs(z).max() <= 1e-12
