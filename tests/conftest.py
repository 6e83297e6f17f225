"""Oracles shared by several test modules."""

import numpy as np
import pytest


def cobb_douglas_prices(econ):
    """Market-clearing prices of a Cobb-Douglas exchange economy by one
    exact linear solve, certified by its own excess demand.

    Good j clears when sum_i a_ij (p.e_i) = S_j p_j, with S the column sums
    of the endowments E and a the exponents. So the prices solve
    [diag(S) - a^T E; 1^T] p = [0; 1] (Eaves 1985, Finite solution of pure
    trade markets with Cobb-Douglas utilities). The solve is accepted only
    if the excess demand it leaves, recomputed in raw numpy, is at most
    1e-12 in every good.
    """
    e, a = econ.endowments, econ.exponents
    goods = e.shape[1]
    supply = e.sum(axis=0)
    K = np.vstack([np.diag(supply) - a.T @ e, np.ones(goods)])
    rhs = np.append(np.zeros(goods), 1.0)
    p = np.linalg.lstsq(K, rhs, rcond=None)[0]
    assert np.all(p > 0.0)
    excess = (a * (e @ p)[:, None]).sum(axis=0) / p - supply
    assert np.abs(excess).max() <= 1e-12, "exact oracle failed to clear"
    return p


@pytest.fixture
def exact_prices():
    """The exact Cobb-Douglas clearing prices, as a function of an economy."""
    return cobb_douglas_prices


def box_game_gap(K, p, lower, upper, f0, g0, curv_f=1.0, curv_g=1.0):
    """sup_f Phi(f, g0) - inf_g Phi(f0, g) in closed form, for
    Phi(f, g) = E[f K g] - curv_f E[f^2] + curv_g E[g^2] with both players
    on the box [lower, upper].

    With one side fixed the payoff separates over the atoms, so each atom's
    best reply is an end of its interval or the clipped stationary point of
    its quadratic. This is the formula the benchmark's re-verification
    uses for its box games.
    """
    def best(lin, quad, pick):
        xs = [lower, upper]
        if quad != 0.0:
            xs.append(np.clip(-lin / (2.0 * quad * p), lower, upper))
        return float(pick([lin * x + quad * p * x * x for x in xs], axis=0).sum())

    sup = best(p * (K @ g0), -curv_f, np.max) + curv_g * float(np.dot(p, g0 ** 2))
    inf = best(K.T @ (p * f0), curv_g, np.min) - curv_f * float(np.dot(p, f0 ** 2))
    return sup - inf


@pytest.fixture
def closed_form_gap():
    """The closed-form duality gap of a box game, as a function."""
    return box_game_gap
