"""Independent re-verification of cckit CLI outputs.

Every check recomputes the answer with numpy from the instance JSON and
the output JSON alone; none reads a verdict, gap or violation the solver
reports about itself. ``check(cls, body, rc, out, tol)`` returns None when
the output is right and a one-line reason otherwise.
"""
from __future__ import annotations

import numpy as np

#: slack for re-computing a quantity the solver bounded by tol in its own
#: floating-point order of operations
REL = 1e-9


def _values(rv: dict, n: int) -> np.ndarray:
    return np.array([float(rv["values"][f"w{i}"]) for i in range(n)])


def _probs(space: dict) -> np.ndarray:
    p = np.array([float(s) for s in space["probs"]])
    return p / p.sum()


def _certificate(out: dict, rc: int, command: str, tol: float):
    if rc != 0:
        return f"exit {rc}: {out.get('error', {}).get('kind')}"
    if out.get("command") != command or out.get("tol") != tol:
        return "certificate names another command or tol"
    if out.get("wall_time_ms") is not None:
        return "certificate carries a clock reading"
    return None


# -- market -------------------------------------------------------------------

def _corner_violations(body: dict, x: np.ndarray) -> np.ndarray:
    """max_j F(x, v_j) ingredients: F(x, v_j) for each truncated corner v_j."""
    d = x.size
    eta = float(body.get("eta", 1e-6))
    if "table" in body:
        a = (x - eta) / (1.0 - d * eta)
        return a @ np.array(body["table"], dtype=float)
    e = np.array([ag["endowment"] for ag in body["agents"]], dtype=float)
    s = np.array([ag["exponents"] for ag in body["agents"]], dtype=float)
    demand = (s * (e @ x)[:, None]).sum(axis=0) / x
    delta = demand - e.sum(axis=0)
    corners = np.full((d, d), eta) + (1.0 - d * eta) * np.eye(d)
    return corners @ delta / d


def equilibrium(body, rc, out, tol):
    bad = _certificate(out, rc, "equilibrium", tol)
    if bad:
        return bad
    d = len(body["table"]) if "table" in body else int(body["goods"])
    x = _values(out["result"]["prices"], d)
    if np.any(x <= 0.0) or abs(x.sum() - 1.0) > 1e-9:
        return "prices leave the price simplex"
    worst = float(_corner_violations(body, x).max())
    if worst > tol * (1.0 + REL):
        return f"max_j F(x0, v_j) = {worst:.3e} > tol"
    return None


def kkm(body, rc, out, tol):
    bad = _certificate(out, rc, "kkm", tol)
    if bad:
        return bad
    d = len(body["vertices"])
    p = _probs(body["space"])
    x = _values(out["result"]["point"], d)
    for s in body["sets"]:
        lo, up = _values(s["box"]["lower"], d), _values(s["box"]["upper"], d)
        dist = float(np.sqrt(np.dot(p, (x - np.clip(x, lo, up)) ** 2)))
        if dist > tol * (1.0 + REL):
            return f"point is {dist:.3e} from a box"
    return None


# -- optimize -----------------------------------------------------------------

#: closed-form per-atom map and unconstrained minimizer of each expression
POINTWISE = {
    "exp(x) - x": (lambda x: np.exp(x) - x, 0.0),
    "(x-1.5)^2 + 0.1*x": (lambda x: (x - 1.5) ** 2 + 0.1 * x, 1.45),
    "x^2": (lambda x: x ** 2, 0.0),
}


def minimize(body, rc, out, tol):
    bad = _certificate(out, rc, "minimize", tol)
    if bad:
        return bad
    p = _probs(body["space"])
    n = p.size
    x = _values(out["result"]["minimizer"], n)
    value = float(out["result"]["value"])
    fn = body["functional"]
    if fn["kind"] == "pointwise":
        phi, argmin = POINTWISE[fn["expr"]]
        lo = _values(body["set"]["box"]["lower"], n)
        up = _values(body["set"]["box"]["upper"], n)
        if np.any(x < lo - 2 * tol) or np.any(x > up + 2 * tol):
            return "minimizer leaves the box"
        best = float(np.dot(p, phi(np.clip(argmin, lo, up))))
        if abs(float(np.dot(p, phi(x))) - value) > REL * (1.0 + abs(value)):
            return "reported value is not the objective at the minimizer"
        if abs(value - best) > tol:
            return f"value {value!r} is {value - best:.3e} off the closed form"
        return None
    a = np.array(fn["A"], dtype=float)
    b = _values(fn["b"], n)
    g = a @ x + b
    if abs(0.5 * np.dot(p * x, a @ x) + np.dot(p * b, x) - value) > REL * (1.0 + abs(value)):
        return "reported value is not the objective at the minimizer"
    gens = np.array([_values(v, n) for v in body["set"]["polytope"]["generators"]])
    # the solver promises feasibility at 2 tol; without it the gap below
    # says nothing (the unconstrained minimizer has a gap <= 0)
    dist = _hull_distance(gens, x, p)
    if dist > 2.0 * tol * (1.0 + REL):
        return f"minimizer is {dist:.3e} from the polytope"
    # Frank-Wolfe gap: bounds G(x) - min_C G for convex G and x in C
    gap = float(np.dot(p * g, x) - (gens @ (p * g)).min())
    if gap > tol:
        return f"Frank-Wolfe gap {gap:.3e} > tol"
    return None


def _hull_distance(gens: np.ndarray, x: np.ndarray, p: np.ndarray) -> float:
    """Weighted L2 distance sqrt(E[(x - y)^2]) from x to the convex hull of
    the rows of ``gens``: non-negative least squares with the row sum = 1
    appended as one more equation. The weights found are renormalised onto
    the simplex before the distance is taken, so y is a point of the hull
    and the figure is an upper bound on the true distance, never an
    understatement; for a point of the hull it is 0 up to rounding."""
    root_p = np.sqrt(p)
    a = np.vstack([(gens * root_p).T, np.full(len(gens), root_p.max())])
    b = np.append(x * root_p, root_p.max())
    w = _nnls(a, b)
    if w.sum() <= 0.0:
        return float("inf")
    y = (w / w.sum()) @ gens
    return float(np.sqrt(np.dot(p, (x - y) ** 2)))


def _nnls(a: np.ndarray, b: np.ndarray, max_iter: int = 1000) -> np.ndarray:
    """min ||a w - b|| over w >= 0 (Lawson and Hanson's active-set method)."""
    n = a.shape[1]
    w = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    grad_tol = 1e-12 * np.linalg.norm(a, axis=0).max() * np.linalg.norm(b)
    for _ in range(max_iter):
        grad = a.T @ (b - a @ w)
        grad[passive] = -np.inf
        j = int(np.argmax(grad))
        if grad[j] <= grad_tol:
            break
        passive[j] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if z[passive].min() > 0.0:
                w = z
                break
            # step back to the boundary, dropping the column that reaches 0
            neg = np.flatnonzero(passive & (z <= 0.0))
            ratios = w[neg] / (w[neg] - z[neg])
            k = int(np.argmin(ratios))
            w = w + ratios[k] * (z - w)
            w[neg[k]] = 0.0
            passive &= w > 0.0
            w[~passive] = 0.0
        if not passive[j]:
            break  # the column just freed cannot enter: rounding, no progress
    return w


def saddle(body, rc, out, tol):
    bad = _certificate(out, rc, "saddle", tol)
    if bad:
        return bad
    p = _probs(body["space"])
    n = p.size
    r = out["result"]
    f0, g0 = _values(r["f0"], n), _values(r["g0"], n)
    k = np.array(body["payoff"]["kernel"], dtype=float)
    if "polytope" in body["C"]:
        # generators are the unit basis, so the points are the weights
        for w in (f0, g0):
            if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
                return "saddle point leaves the simplex"
        m = k * p[:, None]
        gap = float((m @ g0).max() - (m.T @ f0).min())
    else:
        # payoff E[f Kg] - E[f^2] + E[g^2] on [0,1]^n: coordinatewise best replies
        if np.any(f0 < -2 * tol) or np.any(f0 > 1 + 2 * tol) \
                or np.any(g0 < -2 * tol) or np.any(g0 > 1 + 2 * tol):
            return "saddle point leaves the box"
        c = k @ g0
        f_best = np.clip(c / 2.0, 0.0, 1.0)
        sup = float(np.dot(p, f_best * c - f_best ** 2) + np.dot(p, g0 ** 2))
        dvec = k.T @ (p * f0)
        g_best = np.clip(-dvec / (2.0 * p), 0.0, 1.0)
        inf = float(np.dot(dvec, g_best) + np.dot(p, g_best ** 2) - np.dot(p, f0 ** 2))
        gap = sup - inf
    if gap > tol * (1.0 + REL) + 1e-12:
        return f"duality gap {gap:.3e} > tol"
    return None


# -- extract ------------------------------------------------------------------

def extract(body, rc, out, tol):
    terms = np.array(body["terms"], dtype=float)
    p = _probs(body["space"])
    if rc == 2:
        err = out.get("error", {})
        cert = err.get("certificate")
        if err.get("kind") != "unbounded" or not cert or not cert["combo_bound"]:
            return "exit 2 without an escape certificate"
        for inst in cert["combo_bound"]:
            idx = np.array([int(i) for i in inst["weights"]])
            w = np.array([float(v) for v in inst["weights"].values()])
            g = w @ terms[idx - 1]
            mass = float(p[g >= inst["threshold"]].sum())
            if abs(mass - inst["mass"]) > 1e-12 or mass < inst["eps"] / 2.0:
                return f"certificate mass {mass!r} does not recompute"
            if not all(float(p[terms[i - 1] >= inst["n"]].sum()) > inst["eps"]
                       for i in idx):
                return "certificate precondition fails"
        return None
    bad = _certificate(out, rc, "extract", tol)
    if bad:
        return bad
    r = out["result"]
    if len(r["stages"]) < 2:
        return "a limit needs two stages to measure the final step"
    combos = []
    for stage in r["stages"][-2:]:
        idx = np.array([int(i) for i in stage["weights"]])
        w = np.array([float(v) for v in stage["weights"].values()])
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
            return "stage weights are not a convex combination"
        combos.append(w @ terms[idx - 1])
    prev, last = combos
    limit = _values(r["limit"], p.size)
    if np.abs(last - limit).max() > 1e-9 * (1.0 + np.abs(limit).max()):
        return "final weights do not recombine to the limit"
    # the final metric step E[min(1, |g_last - g_prev|)], recomputed
    step = float(np.dot(p, np.minimum(1.0, np.abs(last - prev))))
    if step > tol * (1.0 + REL) + 1e-15:
        return f"final metric step {step:.3e} > tol"
    return None


BY_COMMAND = {"equilibrium": equilibrium, "kkm": kkm, "minimize": minimize,
              "saddle": saddle, "extract": extract}


def check(command: str, body: dict, rc: int, out: dict, tol: float):
    return BY_COMMAND[command](body, rc, out, tol)


# -- shipped fixtures ---------------------------------------------------------

def fixture(name: str, rc: int, out: dict):
    """Known answers for the fixtures in ``fixtures/`` (run at the CLI's
    default tol, 1e-6)."""
    if name == "seq_escaping":
        cert = out.get("error", {}).get("certificate")
        return None if rc == 2 and cert else "expected exit 2 with a certificate"
    if rc != 0:
        return f"exit {rc}"
    r = out["result"]
    if name == "saddle_pennies":
        f0, g0 = _values(r["f0"], 2), _values(r["g0"], 2)
        if abs(r["value"]) > 1e-6 or np.abs(f0 - 0.5).max() > 1e-6 \
                or np.abs(g0 - 0.5).max() > 1e-6:
            return "expected value 0 at (1/2, 1/2)"
    want = {"econ_symmetric": [0.5, 0.5], "econ_asymmetric": [1 / 3, 2 / 3]}
    if name in want and np.abs(_values(r["prices"], 2) - want[name]).max() > 1e-4:
        return f"expected prices {want[name]}"
    return None
