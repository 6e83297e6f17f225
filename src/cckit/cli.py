"""Command-line front end.

    cckit <command> <instance.json> [--tol R] [--out PATH] [--seed N]

Commands: extract, minimize, saddle, kkm, equilibrium, check. Every run
emits one JSON document (stdout, or --out): on success a run certificate

    {"schema": 1, "command": ..., "digest": "sha256:...", "tol": ...,
     "seed": ..., "result": ..., "wall_time_ms": null}

and on failure an error envelope {"schema": 1, "error": {"kind", "message",
...}} with exit code 1 for input-side problems and 2 for solver-side ones.
Output is deterministic byte-for-byte for a fixed instance and flags:
keys are sorted and the wall clock is reported as null unless --timing
asks for it. Only ``check`` takes the seed of its samples from --seed
(default fixed); the solvers' spot checks use fixed per-module seeds.

Set CCKIT_LOG=info or CCKIT_LOG=trace for progress logging on stderr
(off by default).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .convex import Polytope, contains, project, set_from_json
from .coercive import minimize
from .equilibrium import (
    ExcessDemandInstance,
    economy_from_json,
    solve_excess_demand,
)
from .errors import CCKitError, InputError
from .functionals import functional_from_json
from .kkm import KKMInstance, sperner_solve
from .komlos import SequenceSpec, extract
from .measure import (
    ProbSpace,
    RandVar,
    epsilon_of_M,
    json_field,
    json_floats,
    metric_d,
    phi_midpoint_gap,
    randvar_from_json,
    randvar_to_json,
    space_from_json,
)
from .saddle import SaddleInstance, payoff_from_json, solve_saddle

log = logging.getLogger("cckit.cli")

_CHECK_SEED = 20240906


def _setup_logging():
    level_name = os.environ.get("CCKIT_LOG", "off").strip().lower()
    level = {"off": logging.WARNING, "info": logging.INFO,
             "trace": logging.DEBUG}.get(level_name)
    if level is None:
        raise InputError(
            f"CCKIT_LOG must be one of off, info, trace (got {level_name!r})"
        )
    logging.basicConfig(
        stream=sys.stderr, level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load_instance(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read instance file: {exc}") from exc
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"instance is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("instance JSON must be an object")
    return obj, digest


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _certificate(command: str, digest: str | None, tol: float,
                 seed: int | None, result: dict) -> dict:
    return {
        "schema": 1,
        "version": __version__,
        "command": command,
        "digest": digest,
        "tol": tol,
        "seed": seed,
        "result": result,
        "wall_time_ms": None,  # deterministic output: never a clock reading
    }


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------

def _cmd_extract(obj: dict, tol: float, horizon_flag: int | None) -> dict:
    space = space_from_json(json_field(obj, "space", "instance"))
    terms_json = json_field(obj, "terms", "instance")
    if not isinstance(terms_json, list) or not terms_json:
        raise InputError("'terms' must be a non-empty list")
    terms = [_term_to_randvar(t, space) for t in terms_json]
    horizon = json_floats(obj.get("horizon", len(terms)), "'horizon'", 0)
    if not (horizon >= 1 and float(horizon).is_integer()):
        raise InputError("'horizon' must be an integer >= 1")
    horizon = int(horizon)
    if horizon_flag is not None:
        horizon = horizon_flag
    if horizon > len(terms):
        raise InputError("horizon exceeds the number of terms given")
    seq = SequenceSpec(space, terms, horizon)
    if "set" in obj:
        set_rep = set_from_json(space, obj["set"])
    else:
        set_rep = Polytope(terms[:horizon])
    log.info("extract: horizon=%d atoms=%d", horizon, space.n)
    limit, trace = extract(seq, set_rep, tol)
    return {
        "limit": randvar_to_json(limit),
        "stages": [s.to_json() for s in trace],
        "final_metric_step": trace[-1].metric_step if trace else None,
    }


def _term_to_randvar(t, space: ProbSpace) -> RandVar:
    if isinstance(t, dict):
        return randvar_from_json(t, space)
    return RandVar(space, json_floats(t, "a term or vertex", 1))


def _cmd_minimize(obj: dict, tol: float) -> dict:
    space = space_from_json(json_field(obj, "space", "instance"))
    func = functional_from_json(space, json_field(obj, "functional", "instance"))
    C = set_from_json(space, json_field(obj, "set", "instance"))
    x, value, report = minimize(func, C, tol)
    bound = "fw_gap" if report["certificate"] == "fw-gap" else "net_margin"
    return {
        "minimizer": randvar_to_json(x),
        "value": value,
        "levels": report["levels"],
        "iterations": report["iterations"],
        "certificate": report["certificate"],
        bound: report[bound],
        "restarts": report["restarts"],
    }


def _cmd_saddle(obj: dict, tol: float) -> dict:
    space = space_from_json(json_field(obj, "space", "instance"))
    payoff = payoff_from_json(space, json_field(obj, "payoff", "instance"))
    C = set_from_json(space, json_field(obj, "C", "instance"))
    D = set_from_json(space, json_field(obj, "D", "instance"))
    inst = SaddleInstance(C, D, payoff)
    cert = solve_saddle(inst, tol)
    return cert.to_json()


def _cmd_kkm(obj: dict, tol: float) -> dict:
    space = space_from_json(json_field(obj, "space", "instance"))
    verts_json = json_field(obj, "vertices", "instance", list)
    sets_json = json_field(obj, "sets", "instance", list)
    vertices = [_term_to_randvar(v, space) for v in verts_json]
    sets = [set_from_json(space, s) for s in sets_json]
    inst = KKMInstance(vertices, sets)
    point, report = sperner_solve(inst, tol)
    return {
        "point": randvar_to_json(point),
        "q": report["q"],
        "rounds": report["rounds"],
        "steps": report["steps"],
        "max_distance": report["max_distance"],
        "distances": report["distances"],
    }


def _cmd_equilibrium(obj: dict, tol: float) -> dict:
    eta = float(json_floats(obj.get("eta", 1e-6), "'eta'", 0))
    if "table" in obj:
        inst = ExcessDemandInstance.from_table(
            json_floats(obj["table"], "'table'", 2), eta=eta)
    else:
        econ = economy_from_json(obj)
        inst = ExcessDemandInstance.from_economy(econ, eta=eta)
    x0, report = solve_excess_demand(inst, tol)
    return {"prices": randvar_to_json(x0), "report": report}


# ---------------------------------------------------------------------------
# self-check suites
# ---------------------------------------------------------------------------

def _suite_metric(seed: int) -> list:
    rng = np.random.default_rng(seed)
    checks = []
    space = ProbSpace.uniform(3)

    worst_tri = 0.0
    worst_sym = 0.0
    worst_id = 0.0
    for _ in range(200):
        f, g, h = (RandVar(space, rng.uniform(0, 5, size=3)) for _ in range(3))
        worst_tri = max(
            worst_tri, metric_d(f, h) - (metric_d(f, g) + metric_d(g, h))
        )
        worst_sym = max(worst_sym, abs(metric_d(f, g) - metric_d(g, f)))
        worst_id = max(worst_id, metric_d(f, f))
    checks.append(_check("triangle-inequality", worst_tri <= 1e-12,
                         f"max excess {worst_tri:.3e}"))
    checks.append(_check("symmetry", worst_sym == 0.0,
                         f"max asymmetry {worst_sym:.3e}"))
    checks.append(_check("identity", worst_id == 0.0,
                         f"max d(f,f) {worst_id:.3e}"))

    ok_floor = True
    detail = ""
    for M in (1.0, 2.0, 5.0):
        floor = epsilon_of_M(M)
        for _ in range(300):
            x1 = float(rng.uniform(0.0, M))
            x2 = float(rng.uniform(0.0, M))
            if abs(x1 - x2) < 1.0 / M:
                continue
            gap = phi_midpoint_gap(x1, x2)
            if gap < floor - 1e-12:
                ok_floor = False
                detail = f"gap {gap!r} < floor {floor!r} at ({x1}, {x2}, M={M})"
                break
    checks.append(_check("concavity-gap-floor", ok_floor, detail or "held"))
    return checks


def _suite_convex(seed: int) -> list:
    rng = np.random.default_rng(seed)
    checks = []
    space = ProbSpace.uniform(4)
    worst_idem = 0.0
    all_member = True
    for _ in range(100):
        gens = [RandVar(space, rng.uniform(0, 3, size=4)) for _ in range(5)]
        poly = Polytope(gens)
        f = RandVar(space, rng.uniform(-1, 4, size=4))
        p1 = project(poly, f, 1e-10)
        p2 = project(poly, p1, 1e-10)
        worst_idem = max(worst_idem, metric_d(p1, p2))
        if not contains(poly, p1, 1e-6):
            all_member = False
    checks.append(_check("projection-idempotence", worst_idem <= 1e-9,
                         f"max drift {worst_idem:.3e}"))
    checks.append(_check("projection-membership", all_member,
                         "projected points pass containment at 1e-6"))
    return checks


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


def _cmd_check(suite: str, seed: int | None) -> dict:
    seed = _CHECK_SEED if seed is None else seed
    suites = {"metric": _suite_metric, "convex": _suite_convex}
    if suite == "all":
        selected = list(suites.items())
    elif suite in suites:
        selected = [(suite, suites[suite])]
    else:
        raise InputError(
            f"unknown suite {suite!r}; choose from metric, convex, all"
        )
    checks = []
    for name, fn in selected:
        for c in fn(seed):
            c["suite"] = name
            checks.append(c)
    return {"suite": suite, "checks": checks,
            "all_pass": all(c["pass"] for c in checks)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cckit",
        description="Convex-compactness toolkit: extraction, minimization, "
                    "saddle points, covering intersections, market clearing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_instance=True):
        if with_instance:
            p.add_argument("instance", help="path to the instance JSON file")
        p.add_argument("--tol", type=float, default=1e-6,
                       help="tolerance (default 1e-6)")
        p.add_argument("--out", default=None,
                       help="write the output JSON here instead of stdout")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for the check suites' samples")
        p.add_argument("--timing", action="store_true",
                       help="fill wall_time_ms (breaks byte-determinism)")

    p = sub.add_parser("extract", help="tail-hull limit of a bounded sequence")
    common(p)
    p.add_argument("--horizon", type=int, default=None,
                   help="override the instance horizon")
    common(sub.add_parser("minimize", help="minimize a convex functional"))
    common(sub.add_parser("saddle", help="solve a concave-convex saddle game"))
    common(sub.add_parser("kkm", help="point near every set of a covering family"))
    common(sub.add_parser("equilibrium", help="market-clearing prices"))
    p = sub.add_parser("check", help="run built-in invariant suites")
    common(p, with_instance=False)
    p.add_argument("--suite", default="all",
                   help="metric, convex, or all (default all)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_path = args.out
    t_start = time.perf_counter()

    def _stamp(payload: dict) -> dict:
        if args.timing:
            payload["wall_time_ms"] = round(
                (time.perf_counter() - t_start) * 1000.0, 3)
        return payload

    try:
        _setup_logging()
        tol = float(args.tol)
        if not (tol > 0.0):
            raise InputError("--tol must be positive")
        if args.command == "check":
            result = _cmd_check(args.suite, args.seed)
            payload = _certificate("check", None, tol, args.seed, result)
            _emit(_stamp(payload), out_path)
            return 0 if result["all_pass"] else 2
        obj, digest = _load_instance(args.instance)
        if args.command == "extract":
            result = _cmd_extract(obj, tol, args.horizon)
        elif args.command == "minimize":
            result = _cmd_minimize(obj, tol)
        elif args.command == "saddle":
            result = _cmd_saddle(obj, tol)
        elif args.command == "kkm":
            result = _cmd_kkm(obj, tol)
        elif args.command == "equilibrium":
            result = _cmd_equilibrium(obj, tol)
        else:  # pragma: no cover - argparse enforces the choices
            raise InputError(f"unknown command {args.command!r}")
        payload = _certificate(args.command, digest, tol, args.seed, result)
        _emit(_stamp(payload), out_path)
        return 0
    except CCKitError as exc:
        envelope = {"schema": 1, "error": {
            "kind": exc.kind, "message": str(exc),
        }}
        cert = getattr(exc, "certificate", None)
        if cert is not None:
            envelope["error"]["certificate"] = (
                cert.to_json() if hasattr(cert, "to_json") else cert
            )
        witness = getattr(exc, "witness", None)
        if witness is not None:
            envelope["error"]["witness"] = _jsonable(witness)
        log.info("error: %s (%s)", exc, exc.kind)
        _emit(envelope, out_path)
        return exc.exit_code


def _jsonable(x):
    if isinstance(x, RandVar):
        return randvar_to_json(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    return x


if __name__ == "__main__":
    sys.exit(main())
