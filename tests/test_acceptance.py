"""Whole-library acceptance run: eight end-to-end checks, one test each.

Every check finishes by printing a single verdict line (visible under
``pytest -s``; under plain ``-v`` the per-test PASSED/FAILED line carries
the same information).  Oracles here are independent re-computations --
raw numpy arithmetic, closed forms, and brute-force grids -- never the
code path under test.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from cckit import (
    BilinearPayoff,
    Box,
    CobbDouglasEconomy,
    ExcessDemandInstance,
    KKMInstance,
    LinearFunctional,
    PointwiseFunctional,
    Polytope,
    ProbSpace,
    QuadraticFunctional,
    RandVar,
    SaddleInstance,
    SequenceSpec,
    Unbounded,
    WeightVector,
    build_G_family,
    combo_mass_bound,
    contains,
    direct_sum,
    economy_from_json,
    epsilon_of_M,
    excess_demand,
    extract,
    minimize,
    oplus,
    payoff_from_json,
    phi_midpoint_gap,
    set_from_json,
    solve_excess_demand,
    solve_saddle,
    space_from_json,
    sperner_solve,
    split_oplus,
    verify_saddle,
)
from cckit.cli import main as cli_main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _verdict(num: int, name: str, detail: str = "") -> None:
    print(f"acceptance {num:02d} [{name}]: PASS  {detail}")


def _phi_np(x):
    return 1.0 - np.exp(-x)


# ---------------------------------------------------------------------------
# 1. concavity-gap floor for the metric's clamp
# ---------------------------------------------------------------------------

def test_01_midpoint_gap_floor():
    rng = np.random.default_rng(101)
    worst_slack = np.inf
    for M in (1.0, 2.0, 5.0, 10.0):
        N = 100_000
        floor = epsilon_of_M(M)
        # admissible pair: the smaller coordinate at most M, separation at
        # least 1/M; a tenth of the draws sit exactly on the separation bound
        lo = rng.uniform(0.0, M, N)
        sep = 1.0 / M + rng.exponential(2.0 / M, N)
        sep[: N // 10] = 1.0 / M
        x1, x2 = lo, lo + sep
        gaps = _phi_np(0.5 * (x1 + x2)) - 0.5 * (_phi_np(x1) + _phi_np(x2))
        slack = float(gaps.min()) - floor
        assert slack >= -1e-12, f"M={M}: sampled gap {slack:.3e} under floor"
        worst_slack = min(worst_slack, slack)

    # the scalar helper agrees with the raw arithmetic used above
    for a, b in zip(rng.uniform(0, 4, 200), rng.uniform(0, 4, 200)):
        raw = _phi_np(0.5 * (a + b)) - 0.5 * (_phi_np(a) + _phi_np(b))
        assert abs(phi_midpoint_gap(a, b) - raw) <= 1e-15

    # brute-force grid infimum around the binding corner (M, M + 1/M), M = 1:
    # pitch 1e-4 in both the smaller coordinate and the separation
    xs = np.linspace(0.0, 1.0, 10_001)
    grid_inf = np.inf
    for seps in np.array_split(np.linspace(1.0, 1.2, 2_001), 20):
        mid = xs[:, None] + 0.5 * seps[None, :]
        far = xs[:, None] + seps[None, :]
        g = _phi_np(mid) - 0.5 * (_phi_np(xs)[:, None] + _phi_np(far))
        grid_inf = min(grid_inf, float(g.min()))
    err = abs(grid_inf - epsilon_of_M(1.0))
    assert err <= 1e-6, f"grid infimum off by {err:.2e}"
    _verdict(1, "midpoint-gap floor",
             f"4 floors, 4x10^5 pairs, min slack {worst_slack:.2e}, "
             f"grid error {err:.2e}")


# ---------------------------------------------------------------------------
# 2. tail-hull extraction on bounded sequences
# ---------------------------------------------------------------------------

def test_02_bounded_tail_extraction():
    rng = np.random.default_rng(202)
    HORIZON = 512
    t0 = time.time()
    stages_total = 0
    for i in range(100):
        n = int(rng.integers(2, 9))
        space = ProbSpace.uniform(n)
        if i % 2 == 0:
            # cycles through a fixed finite palette of points
            k = int(rng.integers(2, 5))
            palette = rng.uniform(0.0, 20.0, size=(k, n))
            rows = [palette[m % k] for m in range(HORIZON)]
        else:
            # geometric settling onto a fixed profile
            base = rng.uniform(0.0, 10.0, size=n)
            rows = [
                np.maximum(base + rng.uniform(-1.0, 1.0, n) * 0.9 ** m, 0.0)
                for m in range(HORIZON)
            ]
        terms = [RandVar(space, r) for r in rows]
        seq = SequenceSpec(space, terms, HORIZON)
        hull = Polytope(terms)

        limit, trace = extract(seq, hull, tol=1e-6)
        stages_total += len(trace)

        # (a) every accepted iterate is the convex combination it declares
        for st in trace:
            gv = np.zeros(n)
            for idx, wk in zip(st.indices, st.w.weights):
                gv += float(wk) * np.asarray(seq.term(int(idx)).values)
            assert np.abs(gv - np.asarray(st.g.values)).max() <= 1e-10
            assert abs(float(np.sum(st.w.weights)) - 1.0) <= 1e-12
            assert min(int(j) for j in st.indices) >= st.D
        # (b) successive metric steps decay below 1e-6
        steps = [st.metric_step for st in trace[1:]]
        assert steps and steps[-1] <= 1e-6
        # (c) the limit stays in the ambient hull
        assert contains(hull, limit, 2e-6)
        # (d) the running tail bound never increases, exactly
        us = [st.u for st in trace]
        assert all(us[j + 1] <= us[j] for j in range(len(us) - 1))
    dt = time.time() - t0
    assert dt <= 60.0, f"extraction sweep took {dt:.1f}s"
    _verdict(2, "bounded extraction",
             f"100 sequences, horizon {HORIZON}, {stages_total} stages "
             f"audited, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 3. escape certificates and the convex-combination mass estimate
# ---------------------------------------------------------------------------

def test_03_escape_certificates_and_mass_bound():
    rng = np.random.default_rng(303)
    HORIZON = 64
    instances_checked = 0
    for _case in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers((n + 1) // 2, n + 1))  # escaping mass >= 1/2
        esc = rng.choice(n, size=m, replace=False)
        space = ProbSpace.uniform(n)
        rows = []
        for t in range(1, HORIZON + 1):
            v = rng.uniform(0.0, 0.999, size=n)  # noise strictly below 1
            v[esc] = t + rng.uniform(0.0, 1.0, size=m)
            rows.append(v)
        terms = [RandVar(space, r) for r in rows]
        seq = SequenceSpec(space, terms, HORIZON)

        with pytest.raises(Unbounded) as ei:
            extract(seq, Polytope(terms), tol=1e-6)
        cert = ei.value.certificate
        assert cert is not None
        assert cert.eps >= 0.45  # escaping mass was at least one half
        assert len(cert.combo_bound) >= 2
        p = np.asarray(space.probs)
        for ib in cert.combo_bound:
            assert ib["holds"] is True
            assert ib["precondition_verified"] is True
            pts = [seq.term(int(i)) for i in ib["indices"]]
            w = WeightVector([ib["weights"][str(i)] for i in ib["indices"]])
            # library re-run from the recorded data
            assert combo_mass_bound(pts, w, n=ib["n"], eps=ib["eps"]) is True
            # raw re-computation of the recorded mass at the recorded height
            g = np.zeros(n)
            for f, wk in zip(pts, w.weights):
                g += float(wk) * np.asarray(f.values)
            mass = float(p[g >= ib["threshold"]].sum())
            assert mass >= ib["eps"] / 2.0
            assert abs(mass - ib["mass"]) <= 1e-12
            instances_checked += 1

    # the estimate never fails once its precondition holds
    failures = 0
    for _case in range(10_000):
        nat = int(rng.integers(2, 5))
        space = ProbSpace.uniform(nat)
        eps = float(rng.uniform(0.05, 0.55))
        n_th = float(rng.uniform(0.5, 10.0))
        kpts = int(rng.integers(1, 6))
        m_min = int(math.floor(eps * nat)) + 1  # smallest count with mass > eps
        pts = []
        for _ in range(kpts):
            ssz = int(rng.integers(m_min, nat + 1))
            idx = rng.choice(nat, size=ssz, replace=False)
            v = rng.uniform(0.0, n_th * 0.95, size=nat)
            v[idx] = n_th + rng.uniform(0.0, 3.0, size=ssz)
            pts.append(RandVar(space, v))
        w = WeightVector(rng.dirichlet(np.ones(kpts)))
        if combo_mass_bound(pts, w, n=n_th, eps=eps) is not True:
            failures += 1
    assert failures == 0, f"{failures} mass-bound failures out of 10000"
    _verdict(3, "escape certificates",
             f"50 escapers, {instances_checked} recorded bounds re-verified, "
             f"10^4 random estimates, 0 failures")


# ---------------------------------------------------------------------------
# 4. constrained minimization against a refined brute-force grid
# ---------------------------------------------------------------------------

_EXPR_EVAL = {
    "x^2": lambda F: F * F,
    "x^2 + x": lambda F: F * F + F,
    "exp(x)": np.exp,
}


def _weight_grid(k, lo, hi, m):
    """Grid over the (k-1)-simplex with free coordinates boxed to [lo, hi]."""
    if k == 2:
        t = np.linspace(lo[0], hi[0], m)
        W = np.stack([t, 1.0 - t], axis=1)
    else:  # k == 3
        u = np.linspace(lo[0], hi[0], m)
        v = np.linspace(lo[1], hi[1], m)
        U, V = np.meshgrid(u, v, indexing="ij")
        W = np.stack([U.ravel(), V.ravel(), 1.0 - U.ravel() - V.ravel()], axis=1)
    W = W[np.all(W >= -1e-12, axis=1)]
    return np.clip(W, 0.0, 1.0)


def _grid_min(vals_of, G, k, rounds=3, m=61):
    """Brute-force minimum over the hull of G's rows, refined locally."""
    lo = np.zeros(k - 1)
    hi = np.ones(k - 1)
    best = np.inf
    for _ in range(rounds):
        W = _weight_grid(k, lo, hi, m)
        vals = vals_of(W @ G)
        i = int(np.argmin(vals))
        best = min(best, float(vals[i]))
        span = (hi - lo) / (m - 1) * 3.0
        center = W[i][: k - 1]
        lo = np.maximum(center - span, 0.0)
        hi = np.minimum(center + span, 1.0)
    return best


def test_04_minimization_vs_grid():
    rng = np.random.default_rng(404)
    worst = 0.0
    for i in range(50):
        nat = int(rng.integers(2, 5))
        if i % 2 == 0:
            space = ProbSpace.uniform(nat)
        else:
            pr = rng.dirichlet(np.full(nat, 5.0))
            pr = np.maximum(pr, 0.03)
            pr /= pr.sum()
            pr[-1] = 1.0 - pr[:-1].sum()
            space = ProbSpace([f"w{j}" for j in range(nat)], pr)
        p = np.asarray(space.probs)
        k = int(rng.integers(2, 4))
        G = rng.uniform(0.0, 2.0, size=(k, nat))
        S = Polytope([RandVar(space, g) for g in G])

        kind = i % 3
        if kind == 0:
            c = rng.uniform(-2.0, 2.0, size=nat)
            fun = LinearFunctional(space, c)
            vals_of = lambda F, c=c, p=p: F @ (p * c)
        elif kind == 1:
            M = rng.standard_normal((nat, nat))
            Ssym = M.T @ M / nat
            rp = np.sqrt(p)
            A = (Ssym / rp[:, None]) * rp[None, :]
            b = rng.uniform(-1.0, 1.0, size=nat)
            fun = QuadraticFunctional(space, A, b)
            vals_of = lambda F, A=A, b=b, p=p: (
                0.5 * np.einsum("i,mi,mi->m", p, F, F @ A.T) + F @ (p * b)
            )
        else:
            ex = ("x^2", "x^2 + x", "exp(x)")[(i // 3) % 3]
            fun = PointwiseFunctional(space, ex)
            vals_of = lambda F, f=_EXPR_EVAL[ex], p=p: f(F) @ p

        _, val, _ = minimize(fun, S, tol=1e-8)
        gv = _grid_min(vals_of, G, k)
        worst = max(worst, abs(val - gv))
        assert abs(val - gv) <= 1e-5, f"instance {i}: {val} vs grid {gv}"

    # mean-one band inside [0, 2]: the minimum of E[f^2] is the constant 1
    U2 = ProbSpace.uniform(2)
    band = Polytope([RandVar(U2, [2.0, 0.0]), RandVar(U2, [0.0, 2.0])])
    fstar, val, _ = minimize(PointwiseFunctional(U2, "x^2"), band, tol=1e-10)
    assert abs(val - 1.0) <= 1e-8
    assert np.abs(np.asarray(fstar.values) - 1.0).max() <= 1e-4
    _verdict(4, "minimization vs grid",
             f"50 instances, worst value gap {worst:.2e}; "
             f"mean-one band exact to {abs(val - 1.0):.1e}")


# ---------------------------------------------------------------------------
# 5. simplex walk against a barycentric brute-force grid
# ---------------------------------------------------------------------------

_PITCH = {2: 2.5e-4, 3: 5e-4, 4: 1e-3}


def _family_maxdist(W, thr, p):
    """Exact distance from simplex points W to the farthest set of the
    threshold family {w : w_i >= thr_i} (boxes, so the distance is the
    weighted norm of the single clamped coordinate)."""
    gaps = np.maximum(thr[None, :] - W, 0.0)
    return np.max(np.sqrt(p[None, :]) * gaps, axis=1)


def _bary_coarse(d, q):
    rows = []
    if d == 3:
        for i in range(q + 1):
            for j in range(q + 1 - i):
                rows.append((i, j, q - i - j))
    else:  # d == 4
        for i in range(q + 1):
            for j in range(q + 1 - i):
                for k in range(q + 1 - i - j):
                    rows.append((i, j, k, q - i - j - k))
    return np.asarray(rows, dtype=float) / q


def _local_window(center, pitch, half, d):
    offs = np.arange(-round(half / pitch), round(half / pitch) + 1) * pitch
    grids = np.meshgrid(*([offs] * (d - 1)), indexing="ij")
    W = np.empty((grids[0].size, d))
    for j in range(d - 1):
        W[:, j] = center[j] + grids[j].ravel()
    W[:, d - 1] = 1.0 - W[:, : d - 1].sum(axis=1)
    return W[np.all(W >= 0.0, axis=1)]


def test_05_simplex_walk_vs_grid():
    rng = np.random.default_rng(505)
    dims = [2] * 14 + [3] * 13 + [4] * 3
    labels_audited = 0
    for case, d in enumerate(dims):
        thr = rng.uniform(0.05, 0.8 / d, size=d)
        thr[rng.random(d) < 0.25] = 0.0  # some sets cover everything
        space = ProbSpace.uniform(d)
        eye = np.eye(d)
        ones = RandVar(space, np.ones(d))
        inst = KKMInstance(
            [RandVar(space, eye[i]) for i in range(d)],
            [Box(RandVar(space, thr[i] * eye[i]), ones) for i in range(d)],
        )
        point, report = sperner_solve(inst, tol=1e-3)
        p = np.asarray(space.probs)
        w = np.asarray(point.values)
        solver_md = float(_family_maxdist(w[None, :], thr, p)[0])
        assert solver_md <= 1e-3 + 1e-12, f"case {case}: {solver_md:.2e}"

        pitch = _PITCH[d]
        if d == 2:
            steps = int(round(1.0 / pitch))
            t = np.arange(steps + 1) * pitch
            W = np.stack([t, 1.0 - t], axis=1)
            grid_best = float(_family_maxdist(W, thr, p).min())
        else:
            coarse = _bary_coarse(d, 50)
            md_c = _family_maxdist(coarse, thr, p)
            grid_best = float(md_c.min())
            for ctr in (coarse[int(np.argmin(md_c))], w):
                Wl = _local_window(ctr, pitch, 0.04, d)
                if len(Wl):
                    grid_best = min(
                        grid_best, float(_family_maxdist(Wl, thr, p).min())
                    )
        assert grid_best <= 1e-3
        assert solver_md <= grid_best + 1e-3

        memo = report["label_memo"]
        assert memo
        for z, lab in memo.items():
            assert z[lab] > 0  # carrier condition, integer-exact
        labels_audited += len(memo)
    _verdict(5, "simplex walk vs grid",
             f"{len(dims)} families (d 2-4), {labels_audited} labeled "
             f"points face-admissible")


# ---------------------------------------------------------------------------
# 6. saddle values, verification, and the walk-based cross route
# ---------------------------------------------------------------------------

def test_06_minimax_and_cross_route():
    # matching pennies from the shipped fixture file
    obj = json.loads((FIXTURES / "saddle_pennies.json").read_text())
    space = space_from_json(obj["space"])
    inst = SaddleInstance(
        set_from_json(space, obj["C"]),
        set_from_json(space, obj["D"]),
        payoff_from_json(space, obj["payoff"]),
    )
    cert = solve_saddle(inst, tol=1e-9)
    assert abs(cert.value) <= 1e-6
    assert np.abs(np.asarray(cert.f0.values) - 0.5).max() <= 1e-4
    assert np.abs(np.asarray(cert.g0.values) - 0.5).max() <= 1e-4

    rng = np.random.default_rng(606)
    worst_gap = 0.0
    for i in range(30):
        nat = 2 + (i % 2)
        sp = ProbSpace.uniform(nat)
        corners = [RandVar(sp, r) for r in np.eye(nat)]
        K = rng.uniform(-3.0, 3.0, size=(nat, nat))
        gi = SaddleInstance(
            Polytope(corners), Polytope(corners), BilinearPayoff(sp, K)
        )
        ci = solve_saddle(gi, tol=1e-7)
        gap = abs(ci.infsup - ci.supinf)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6
        assert verify_saddle(gi, ci.f0, ci.g0, tol=1e-6).ok

    # cross route: locate the saddle by walking the covering family built
    # from the corner pairs; restrict to games whose corner functionals
    # intersect transversally (unique, well-separated mixed solution)
    U2 = ProbSpace.uniform(2)
    e = [RandVar(U2, [1.0, 0.0]), RandVar(U2, [0.0, 1.0])]
    sum_space = direct_sum(U2)
    made = 0
    worst_diff = 0.0
    while made < 10:
        K = rng.uniform(-2.0, 2.0, size=(2, 2))
        (a, b), (c, d) = K
        det = a - b - c + d
        if abs(det) < 1.0:
            continue
        pstar, qstar = (d - c) / det, (d - b) / det
        if not (0.1 <= pstar <= 0.9 and 0.1 <= qstar <= 0.9):
            continue
        made += 1
        gi = SaddleInstance(
            Polytope(e), Polytope(e), BilinearPayoff(U2, K)
        )
        ci = solve_saddle(gi, tol=1e-9)
        pairs = [(e[i], e[j]) for i in range(2) for j in range(2)]
        fam = build_G_family(gi, pairs)
        verts = [oplus(f, g, sum_space) for f, g in pairs]
        # the walk tolerance bounds set distances, not strategy error; the
        # conversion factor is the game's conditioning, so leave headroom
        point, _ = sperner_solve(KKMInstance(verts, fam), tol=5e-5)
        f_walk, g_walk = split_oplus(point)
        diff = max(
            np.abs(np.asarray(f_walk.values) - np.asarray(ci.f0.values)).max(),
            np.abs(np.asarray(g_walk.values) - np.asarray(ci.g0.values)).max(),
        )
        worst_diff = max(worst_diff, diff)
        assert diff <= 1e-3
    _verdict(6, "minimax two routes",
             f"30 games worst duality gap {worst_gap:.1e}; walk route "
             f"worst strategy diff {worst_diff:.1e} over 10 games")


# ---------------------------------------------------------------------------
# 7. market clearing: fixtures, budget identity, exact linear oracle
# ---------------------------------------------------------------------------

def test_07_market_clearing(exact_prices):
    for name, target in (
        ("econ_symmetric.json", [0.5, 0.5]),
        ("econ_asymmetric.json", [1 / 3, 2 / 3]),
    ):
        econ = economy_from_json(json.loads((FIXTURES / name).read_text()))
        x, report = solve_excess_demand(
            ExcessDemandInstance.from_economy(econ), tol=1e-6
        )
        assert np.abs(np.asarray(x.values) - np.asarray(target)).max() <= 1e-4
        assert report["max_violation"] <= 1e-6
        assert report["rounds"] <= 2

    # budget identity at random prices on random economies
    rng = np.random.default_rng(707)
    worst_walras = 0.0
    for _ in range(10_000):
        agents = int(rng.integers(1, 4))
        goods = int(rng.integers(2, 5))
        e = rng.uniform(0.1, 2.0, (agents, goods))
        al = rng.dirichlet(np.ones(goods), size=agents)
        al[:, -1] = 1.0 - al[:, :-1].sum(axis=1)
        econ = CobbDouglasEconomy(e, al)
        p = rng.dirichlet(np.ones(goods)) + 0.05
        p /= p.sum()
        worst_walras = max(worst_walras, abs(float(p @ excess_demand(econ, p))))
    assert worst_walras <= 1e-12

    # demand-driven validation: the located prices match the exact solve of
    # the Cobb-Douglas clearing equations
    worst_agree = 0.0
    for _ in range(20):
        agents = int(rng.integers(1, 4))
        goods = int(rng.integers(2, 4))
        e = rng.uniform(0.1, 2.0, (agents, goods))
        al = rng.dirichlet(np.ones(goods), size=agents)
        al[:, -1] = 1.0 - al[:, :-1].sum(axis=1)
        econ = CobbDouglasEconomy(e, al)
        x, report = solve_excess_demand(
            ExcessDemandInstance.from_economy(econ), tol=1e-6
        )
        # the exact linear solve certifies itself (excess demand <= 1e-12)
        agree = np.abs(np.asarray(x.values) - exact_prices(econ)).max()
        worst_agree = max(worst_agree, float(agree))
        assert agree <= 1e-9
        assert report["max_violation"] <= 1e-6
        # the first located cell seeds a certified Newton polish
        assert report["rounds"] <= 2
    _verdict(7, "market clearing",
             f"fixtures exact; worst |p.z| {worst_walras:.1e} over 10^4; "
             f"worst route disagreement {worst_agree:.1e} over 20")


# ---------------------------------------------------------------------------
# 8. byte-identical reruns of every shipped fixture
# ---------------------------------------------------------------------------

def test_08_fixture_determinism(tmp_path):
    cases = [
        ("extract", "seq_alternating.json"),
        ("extract", "seq_escaping.json"),
        ("minimize", "minimize_jensen.json"),
        ("saddle", "saddle_pennies.json"),
        ("kkm", "kkm_intervals.json"),
        ("equilibrium", "econ_symmetric.json"),
        ("equilibrium", "econ_asymmetric.json"),
        ("equilibrium", "table_antisym.json"),
    ]
    for cmd, name in cases:
        outs = []
        codes = []
        for r in (0, 1):
            out = tmp_path / f"{name}.{r}"
            codes.append(cli_main([cmd, str(FIXTURES / name), "--out", str(out)]))
            outs.append(out.read_bytes())
        assert codes[0] == codes[1] and codes[0] in (0, 2)
        assert len(outs[0]) > 0
        assert outs[0] == outs[1], f"{name}: rerun differs"
    _verdict(8, "fixture determinism",
             f"{len(cases)} fixtures, reruns byte-identical")
