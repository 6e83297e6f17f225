"""Seeded instance generator for the cckit benchmark.

Uses only numpy and json, never cckit's own codecs, so the instances (and
the set-up time spent writing them) do not change when ``src/`` changes.
Each workload is a fixed list of instance classes with fixed counts; the
seed only draws the numbers inside each instance, so every seed yields a
mix of the same shape. ``write`` puts one ``<name>.json`` per instance
plus ``manifest.json`` in a directory.
"""
from __future__ import annotations

import json
import os

import numpy as np

MARKET_TOL = "1e-4"
DEFAULT_TOL = "1e-6"

#: (class, count) per workload. A pass solves the classes interleaved (see
#: ``build``), so each class's solves spread over the whole pass and its
#: times see the machine's average speed, not that of one stretch. The
#: counts put the median and the tail percentile of a pass's solve times
#: inside blocks of similar instances (market: kkm_box3 and kkm_box4;
#: optimize: game_matrix; extract: the bounded items and the escapers),
#: not on the edge between two classes, where a seed's draw moves them most.
MIX = {
    "market": [("econ", 8), ("table", 8), ("kkm_box3", 16), ("kkm_box4", 16)],
    "optimize": [("min_pointwise", 6), ("min_quadratic", 4),
                 ("game_matrix", 24), ("game_expr", 4)],
    "extract": [("seq_palette", 6), ("seq_geometric", 16),
                ("seq_escaping", 14)],
}

POINTWISE_EXPRS = ("exp(x) - x", "(x-1.5)^2 + 0.1*x", "x^2")
GAME_SIZES = (3, 10, 30)
EXTRACT_ATOMS = 64
EXTRACT_HORIZON = 1024


def _space(n: int) -> dict:
    # decimal strings whose float sum is 1 within 1e-12, as the CLI requires
    return {"atoms": [f"w{i}" for i in range(n)], "probs": [repr(1.0 / n)] * n}


def _randvar(n: int, values) -> dict:
    out = _space(n)
    out["values"] = {f"w{i}": float(v) for i, v in enumerate(values)}
    return out


def _floats(a) -> list:
    return np.asarray(a, dtype=float).ravel().tolist()


def _matrix(a) -> list:
    return np.asarray(a, dtype=float).tolist()


# ---------------------------------------------------------------------------
# market: equilibrium on economies and corner tables, kkm on box families
# ---------------------------------------------------------------------------

def econ(rng, i):
    agents = int(rng.integers(2, 4))
    endow = rng.uniform(0.2, 1.0, size=(agents, 3))
    shares = rng.uniform(0.2, 1.0, size=(agents, 3))
    shares /= shares.sum(axis=1, keepdims=True)
    body = {"goods": 3, "agents": [
        {"endowment": _floats(e), "exponents": _floats(a)}
        for e, a in zip(endow, shares)]}
    return "equilibrium", ["--tol", MARKET_TOL], body


def table(rng, i):
    a = rng.uniform(-1.0, 1.0, size=(3, 3))
    return "equilibrium", ["--tol", MARKET_TOL], {"table": _matrix(a - a.T)}


def kkm_box3(rng, i):
    return _kkm_box(rng, 3)


def kkm_box4(rng, i):
    return _kkm_box(rng, 4)


def _kkm_box(rng, d):
    # t_i on the 1/32 lattice inside [0.5/d, 1/d]. From q = 32 on the corner
    # {x_i = t_i} is a grid point, and at q = 16 it sits on a grid point or
    # half-way between two, so a cell's barycenter never lands inside every
    # box by luck at a coarse q: each family refines to q = 4096 and its
    # cost is set by d and by the walk, not by where t falls on the grid.
    t = rng.integers(int(np.ceil(16 / d)), 32 // d + 1, size=d) / 32.0
    sets = []
    for j in range(d):
        lower = np.zeros(d)
        lower[j] = t[j]
        sets.append({"box": {"lower": _randvar(d, lower),
                             "upper": _randvar(d, np.ones(d))}})
    body = {"space": _space(d), "vertices": _matrix(np.eye(d)), "sets": sets}
    return "kkm", ["--tol", MARKET_TOL], body


# ---------------------------------------------------------------------------
# optimize: minimize (pointwise on boxes, quadratic on polytopes) and saddle
# ---------------------------------------------------------------------------

def min_pointwise(rng, i):
    n = 64
    lower = rng.uniform(0.0, 2.0, size=n)
    upper = lower + rng.uniform(0.5, 2.0, size=n)
    body = {
        "space": _space(n),
        "functional": {"kind": "pointwise", "declared_convex": True,
                       "expr": POINTWISE_EXPRS[i % len(POINTWISE_EXPRS)]},
        "set": {"box": {"lower": _randvar(n, lower),
                        "upper": _randvar(n, upper)}},
    }
    return "minimize", ["--tol", DEFAULT_TOL], body


def min_quadratic(rng, i):
    # stratified over [96, 192]: one draw per sixth, so every seed spans the
    # range and the largest instance (which sets peak memory) is alike
    n = 96 + 16 * (i % 6) + int(rng.integers(0, 17))
    b_mat = rng.normal(size=(n, n // 4))
    # rounding keeps A symmetric and moves its eigenvalues by at most
    # n * 5e-7, far below the 0.1 ridge, so A stays positive definite
    a = np.round(b_mat @ b_mat.T / n + 0.1 * np.eye(n), 6)
    a = 0.5 * (a + a.T)
    gens = np.round(rng.uniform(0.0, 1.0, size=(2 * n, n)), 6)
    body = {
        "space": _space(n),
        "functional": {"kind": "quadratic", "A": _matrix(a),
                       "b": _randvar(n, np.round(rng.normal(size=n), 6))},
        "set": {"polytope": {"generators": [_randvar(n, g) for g in gens]}},
    }
    return "minimize", ["--tol", DEFAULT_TOL], body


def game_matrix(rng, i):
    k = GAME_SIZES[i % len(GAME_SIZES)]
    basis = {"polytope": {"generators": [_randvar(k, e) for e in np.eye(k)]}}
    body = {"space": _space(k), "C": basis, "D": basis,
            "payoff": {"kernel": _matrix(rng.uniform(-1.0, 1.0, size=(k, k)))}}
    return "saddle", ["--tol", DEFAULT_TOL], body


def game_expr(rng, i):
    n = 3
    box = {"box": {"lower": _randvar(n, np.zeros(n)),
                   "upper": _randvar(n, np.ones(n))}}
    body = {"space": _space(n), "C": box, "D": box,
            "payoff": {"kernel": _matrix(rng.uniform(-1.0, 1.0, size=(n, n))),
                       "f_term": "-x^2", "g_term": "x^2"}}
    return "saddle", ["--tol", DEFAULT_TOL], body


# ---------------------------------------------------------------------------
# extract: bounded sequences (exit 0) and a diagonal escaper (exit 2)
# ---------------------------------------------------------------------------

def _sequence(terms) -> dict:
    # six decimals keep the files (and set-up) small; a geometric sequence
    # then settles exactly, which extract handles like any other limit
    return {"space": _space(EXTRACT_ATOMS), "horizon": EXTRACT_HORIZON,
            "terms": _matrix(np.round(terms, 6))}


def seq_palette(rng, i):
    palette = rng.uniform(0.0, 2.0, size=(int(rng.integers(2, 6)),
                                           EXTRACT_ATOMS))
    idx = np.arange(EXTRACT_HORIZON) % len(palette)
    return "extract", ["--tol", DEFAULT_TOL], _sequence(palette[idx])


def seq_geometric(rng, i):
    limit = rng.uniform(0.0, 2.0, size=EXTRACT_ATOMS)
    start = rng.uniform(0.0, 2.0, size=EXTRACT_ATOMS)
    ratio = rng.uniform(0.5, 0.9)
    n = np.arange(1, EXTRACT_HORIZON + 1)[:, None]
    terms = limit + ratio ** n * (start - limit)
    return "extract", ["--tol", DEFAULT_TOL], _sequence(terms)


def seq_escaping(rng, i):
    # mass escapes along the diagonal: f_n = n on one atom of a random
    # eighth of the atoms, taken in turn, and 0 elsewhere, so P[f_n >= n]
    # = 1/64 for every n. (Bounded noise on the other atoms makes the tail
    # maximizer exhaust its vertex budget on some draws; see BASELINE.md.)
    atoms = rng.permutation(EXTRACT_ATOMS)[:EXTRACT_ATOMS // 8]
    n = np.arange(EXTRACT_HORIZON)
    terms = np.zeros((EXTRACT_HORIZON, EXTRACT_ATOMS))
    terms[n, atoms[n % len(atoms)]] = n + 1.0
    return "extract", ["--tol", DEFAULT_TOL], _sequence(terms)


CLASSES = {f.__name__: f for f in (
    econ, table, kkm_box3, kkm_box4, min_pointwise, min_quadratic, game_matrix,
    game_expr, seq_palette, seq_geometric, seq_escaping)}


def build(workload: str, seed: int) -> list[dict]:
    """The workload's instances for ``seed``, in solve order: the classes
    interleaved in proportion to their counts."""
    if workload not in MIX:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(MIX)}")
    out = []
    for cls, count in MIX[workload]:
        # one stream per class, so changing one class's count leaves the others
        rng = np.random.default_rng([seed, sorted(CLASSES).index(cls)])
        for i in range(count):
            command, flags, body = CLASSES[cls](rng, i)
            out.append({"name": f"{cls}_{i:02d}", "cls": cls,
                        "slot": (i + 0.5) / count, "command": command,
                        "flags": flags, "body": body})
    out.sort(key=lambda inst: inst["slot"])  # stable: ties keep class order
    return out


def write(workload: str, seed: int, out_dir: str) -> list[dict]:
    """Write the instance files and the manifest; return the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = []
    for inst in build(workload, seed):
        path = os.path.join(out_dir, inst["name"] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            # dumps runs the C encoder; dump would stream through Python
            fh.write(json.dumps(inst["body"], sort_keys=True))
        manifest.append({k: inst[k] for k in ("name", "cls", "command", "flags")}
                        | {"file": path})
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest

