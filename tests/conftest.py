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
