"""Finite intersection points for covering families on a simplex.

Given vertices x_1..x_d (points of a probability-weighted space) and
closed convex sets F_1..F_d with the covering property

    conv{x_i : i in S}  is contained in  union_{i in S} F_i   for all S,

``sperner_solve`` produces a point within ``tol`` of every F_i. The
engine subdivides the abstract simplex on integer coordinates z >= 0
with sum(z) = q (vertex weights z/q), labels each grid point with the
smallest carrier index whose set admits the mapped point, and locates a
completely-labeled cell by a door-to-door pivot walk:

* cells at level m are chains (z0, pi) under unit shifts T_j moving one
  grid unit from coordinate j to j+1, pi a permutation of T_0..T_{m-1};
* a door is a facet whose labels cover {0..m-1}; complete cells at level
  m-1 supply the doors for level m (dimension induction), with a lazy
  exhaustive face scan as the parity-guaranteed fallback;
* inside a room the duplicated label decides the exit facet, so the walk
  never revisits a room and must end in a completely-labeled cell or
  exit through a bottom door (which is then marked used).

Every label is face-admissible by construction: only carrier indices
(z_i > 0, exact integer test) are ever considered. If no carrier index
admits a grid point the covering property itself is violated and the
offending point is raised as a witness.

The walk is the localizer. When every set projects and the vertices are
nonnegative, the first located cell whose barycenter misses ``tol`` is
polished once: Dykstra's alternating projections (Boyle & Dykstra, 1986)
run from that barycenter onto the sets and then conv(vertices), so every
sweep ends at a hull point ``point_at(w)``. The hull step warm-starts each
weight program from the previous sweep's weights, and the sweep itself
runs on value arrays. After sweeps 1, 2, 4, 8, ... the distances are
re-measured, and the first iterate within ``tol/4`` of every set is taken.
Membership-only families skip the polish. Either way a point is accepted
only when its distance to every set, re-measured by independent
projection, is at most ``tol``; otherwise refinement doubles q and walks
again, never trusting the walk or the polish.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .convex import (
    ConvexSetRep,
    Intersection,
    Polytope,
    contains,
    is_bounded,
    project,
    _dykstra,
)
from .errors import (
    BudgetExceededError,
    EmptyIntersection,
    InputError,
    KKMViolation,
    NonConvergent,
    SolverError,
)
from .measure import ProbSpace, RandVar, norm

__all__ = [
    "KKMInstance",
    "sperner_solve",
    "locate_complete_cell",
    "check_kkm_property",
    "intersect_with_compact",
    "STEP_CAP",
    "MAX_RESOLUTION",
]

#: global pivot-step budget for one sperner_solve call (all rounds)
STEP_CAP = 10 ** 7

#: finest grid resolution tried before giving up
MAX_RESOLUTION = 2 ** 25

#: membership slack used while labeling (kept far below any honest tol)
LABEL_TOL = 1e-9

#: a polished point is accepted once every distance is at most this * tol
POLISH_MARGIN = 0.25

_SPOT_SEED = 20240903


# ---------------------------------------------------------------------------
# instance
# ---------------------------------------------------------------------------

class KKMInstance:
    """Vertices x_i and their sets F_i on a shared space.

    ``sets[i]`` is any convex-set representation (or a duck-typed object
    with ``_contains``); the solver uses membership only, so families
    whose members are merely closed still walk correctly as long as the
    covering property holds.
    """

    def __init__(self, vertices: list, sets: list):
        if not vertices:
            raise InputError("need at least one vertex")
        if len(vertices) != len(sets):
            raise InputError("one set per vertex required")
        space = vertices[0].space
        for v in vertices[1:]:
            if not v.space.same(space):
                raise InputError("vertices live on different spaces")
        for s in sets:
            s_space = getattr(s, "space", None)
            if s_space is not None and not s_space.same(space):
                raise InputError("sets live on a different space")
        self.space = space
        self.vertices = list(vertices)
        self.sets = list(sets)
        self.d = len(vertices)
        self._V = np.column_stack([v.values for v in vertices])

    @classmethod
    def on_unit_simplex(cls, sets: list) -> "KKMInstance":
        """Vertices = unit basis points on a uniform space, so the mapped
        point's values ARE its barycentric weights."""
        d = len(sets)
        space = ProbSpace.uniform(d)
        verts = [
            RandVar(space, np.eye(d)[i]) for i in range(d)
        ]
        return cls(verts, sets)

    def point_at(self, weights: np.ndarray) -> RandVar:
        """Map barycentric weights to the ambient point sum_i w_i x_i."""
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.d,):
            raise InputError("weights length must match vertex count")
        return RandVar(self.space, self._V @ w)


# ---------------------------------------------------------------------------
# integer cell machinery (validated walk; exact arithmetic throughout)
# ---------------------------------------------------------------------------

def _shift(z, j):
    z2 = list(z)
    z2[j] -= 1
    z2[j + 1] += 1
    return tuple(z2)


def _unshift(z, j):
    z2 = list(z)
    z2[j] += 1
    z2[j + 1] -= 1
    return tuple(z2)


def _cell_vertices(z0, pi):
    verts = [z0]
    z = z0
    for j in pi:
        z = _shift(z, j)
        verts.append(z)
    return verts


def _valid_vertex(z):
    return all(v >= 0 for v in z)


def _pivot(z0, pi, k):
    """Drop vertex k of cell (z0, pi); return (z0', pi', k_new), or None at
    a boundary facet."""
    m = len(pi)
    if k == 0:
        z0n = _shift(z0, pi[0])
        pin = pi[1:] + (pi[0],)
        kn = m
    elif k == m:
        z0n = _unshift(z0, pi[-1])
        pin = (pi[-1],) + pi[:-1]
        kn = 0
    else:
        pin = list(pi)
        pin[k - 1], pin[k] = pin[k], pin[k - 1]
        pin = tuple(pin)
        z0n = z0
        kn = k
    verts = _cell_vertices(z0n, pin)
    if not _valid_vertex(verts[kn]):
        return None
    return z0n, pin, kn


def _door_key(verts, skip):
    return frozenset(v for i, v in enumerate(verts) if i != skip)


class _Labeler:
    """Smallest-admissible-carrier-index labeling with memoization.

    The carrier test z_i > 0 is exact integer arithmetic; membership uses
    the set's own containment at LABEL_TOL. A grid point no carrier set
    admits witnesses a covering failure and raises immediately.
    """

    def __init__(self, inst: KKMInstance, q: int):
        self.inst = inst
        self.q = q
        self.memo: dict = {}
        self.count = 0

    def point_of(self, z) -> RandVar:
        w = np.asarray(z, dtype=float) / self.q
        return self.inst.point_at(w)

    def __call__(self, z):
        r = self.memo.get(z)
        if r is not None:
            return r
        self.count += 1
        point = self.point_of(z)
        lab = None
        for i in range(self.inst.d):
            if z[i] > 0 and contains(self.inst.sets[i], point, LABEL_TOL):
                lab = i
                break
        if lab is None:
            carrier = [i for i in range(self.inst.d) if z[i] > 0]
            raise KKMViolation(
                f"covering failure: grid point with carrier {carrier} "
                f"belongs to none of its carrier sets",
                witness={
                    "weights": [zi / self.q for zi in z],
                    "carrier": carrier,
                    "point": [float(v) for v in point.values],
                },
            )
        self.memo[z] = lab
        return lab


def _complete_cells(level, q, d, labeler, used_doors, steps):
    """Generator of completely-labeled cells at ``level`` (face on
    coordinates 0..level); labels of a yielded cell cover {0..level}."""
    if level == 0:
        z = tuple([q] + [0] * (d - 1))
        labeler(z)  # label 0 forced: carrier = {0}; raises on covering failure
        yield [z]
        return

    starts = _complete_cells(level - 1, q, d, labeler, used_doors, steps)
    pool = itertools.chain(
        starts, _exhaustive_doors(level - 1, q, d, labeler, used_doors)
    )
    for door in pool:
        dk = frozenset(door)
        if dk in used_doors:
            continue
        used_doors.add(dk)
        res = _walk(door, level, q, d, labeler, used_doors, steps)
        if res is not None:
            yield res


def _exhaustive_doors(level, q, d, labeler, used_doors):
    """Lazy exhaustive scan of completely-labeled cells at ``level``
    (parity-guaranteed fallback; consumed only if the inductive doors run
    out before a complete cell appears)."""
    if level == 0:
        return
    m = level

    def gen_z(prefix, left, slots):
        if slots == 1:
            yield prefix + (left,) + (0,) * (d - m - 1)
            return
        for v in range(left, -1, -1):
            yield from gen_z(prefix + (v,), left - v, slots - 1)

    for z0 in gen_z((), q, m + 1):
        for pi in itertools.permutations(range(m)):
            verts = _cell_vertices(z0, pi)
            if not all(_valid_vertex(v) for v in verts):
                continue
            labs = set()
            ok = True
            for v in verts:
                lab = labeler(v)
                labs.add(lab)
                if lab > m:
                    ok = False
                    break
            if ok and labs == set(range(m + 1)):
                key = frozenset(verts)
                if key not in used_doors:
                    yield verts


def _walk(door, level, q, d, labeler, used_doors, steps):
    """Pivot from a bottom-face door through level-``level`` rooms until a
    completely-labeled cell appears or the path exits the bottom face."""
    m = level
    room = _start_room(door, m)
    if room is None:
        raise SolverError("could not reconstruct a start room from a door")
    z0, pi, k_in = room
    while True:
        steps[0] += 1
        if steps[0] > STEP_CAP:
            raise BudgetExceededError(
                f"pivot walk exceeded the step budget ({STEP_CAP})"
            )
        verts = _cell_vertices(z0, pi)
        labs = [labeler(v) for v in verts]
        if set(labs) == set(range(m + 1)):
            return verts
        dup = {}
        k_out = None
        for i, lab in enumerate(labs):
            if lab in dup:
                a, b = dup[lab], i
                k_out = a if b == k_in else b
                break
            dup[lab] = i
        if k_out is None or k_out == k_in:
            raise SolverError(f"pivot bookkeeping broke at labels {labs}")
        res = _pivot(z0, pi, k_out)
        if res is None:
            exit_door = _door_key(verts, k_out)
            used_doors.add(exit_door)
            return None
        z0, pi, k_in = res


def _start_room(door, m):
    """Rebuild the level-m room entered through a bottom-face door (all door
    vertices have z[m] == 0). Door vertices form a chain under unit shifts;
    each shift raises sum_i i*z_i by exactly one, so sorting by that key
    recovers the chain order unambiguously."""
    verts = sorted(door, key=lambda z: sum(i * v for i, v in enumerate(z)))
    base = verts[0]
    pi = []
    cur = base
    for nxt in verts[1:]:
        diff = [b - a for a, b in zip(cur, nxt)]
        j = None
        for idx, dv in enumerate(diff):
            if dv == -1 and idx + 1 < len(diff) and diff[idx + 1] == 1:
                rest = all(
                    dv2 == 0
                    for i2, dv2 in enumerate(diff)
                    if i2 not in (idx, idx + 1)
                )
                if rest:
                    j = idx
                    break
        if j is None:
            return None
        pi.append(j)
        cur = nxt
    pi.append(m - 1)  # the last chain vertex has z[m-1] >= 1, so this is valid
    return base, tuple(pi), m


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def sperner_solve(inst: KKMInstance, tol: float = 1e-6):
    """A point within ``tol`` of every F_i, with a refinement report.

    Runs the pivot walk at doubling resolutions; at each resolution the
    candidate is the located cell's barycenter, or, once per solve, its
    Dykstra polish (module docstring), accepted only when its
    independently-projected distance to every set is at most ``tol``. The
    report's ``weights`` are the candidate's barycentric weights.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InputError("tol must be positive and finite")
    d = inst.d
    if d == 1:
        point = inst.vertices[0]
        dist = _distance_to(inst.sets[0], point, tol)
        if dist > tol:
            raise KKMViolation(
                "single-vertex family: the vertex itself must lie in F_1",
                witness={"weights": [1.0], "point": list(map(float, point.values))},
            )
        return point, {
            "q": 1, "rounds": 1, "steps": 0, "labels_evaluated": 1,
            "max_distance": dist, "distances": [dist], "label_memo": {},
        }

    steps = [0]
    q = 16
    rounds = 0
    best = None
    may_polish = _can_polish(inst)
    while q <= MAX_RESOLUTION:
        rounds += 1
        cell, labeler = locate_complete_cell(inst, q, steps)
        weights = np.mean(np.asarray(cell, dtype=float), axis=0) / q
        point = inst.point_at(weights)
        dists = [_distance_to(s, point, tol) for s in inst.sets]
        if max(dists) > tol and may_polish:
            may_polish = False  # once per solve: from the first cell only
            found = _polish(inst, point, tol)
            if found is not None:
                weights, point, dists = found
        worst = max(dists)
        report = {
            "q": q,
            "rounds": rounds,
            "steps": steps[0],
            "labels_evaluated": labeler.count,
            "max_distance": worst,
            "distances": dists,
            "weights": weights,
            "cell_weights": [[zi / q for zi in z] for z in cell],
            "label_memo": labeler.memo,
        }
        if worst <= tol:
            return point, report
        if best is None or worst < best[1]:
            best = (point, worst, report)
        q *= 2
    raise NonConvergent(
        f"refinement hit resolution cap with max set distance "
        f"{best[1]:.3e} > tol {tol:g}"
    )


def locate_complete_cell(inst: KKMInstance, q: int, steps: list):
    """One walk at fixed resolution q: returns (cell, labeler) where cell is
    a list of integer grid vertices whose labels cover {0..d-1}. ``steps``
    is a single-element list accumulating pivot steps across calls (the
    STEP_CAP budget is global per solve)."""
    labeler = _Labeler(inst, q)
    used: set = set()
    for found in _complete_cells(inst.d - 1, q, inst.d, labeler, used, steps):
        return found, labeler
    # parity guarantees a complete cell exists whenever every label is
    # admissible, so exhaustion means the induction and the fallback were
    # both emptied without one: report honestly.
    raise SolverError(
        f"no completely-labeled cell at resolution {q} (steps so far {steps[0]})"
    )


def _projectable(rep) -> bool:
    """Does ``rep`` project? Its type must override the base ``_project`` (a
    duck-typed membership oracle has none at all), and an intersection
    projects only when every part does."""
    own = getattr(type(rep), "_project", ConvexSetRep._project)
    if own is ConvexSetRep._project:
        return False
    if isinstance(rep, Intersection):
        return all(_projectable(part) for part in rep.parts)
    return True


def _distance_to(set_rep, point: RandVar, tol: float) -> float:
    """Distance by projection when the representation projects; a pure
    membership oracle and a projection that gives up get 0/inf at
    LABEL_TOL."""
    if _projectable(set_rep):
        try:
            return norm(point - set_rep._project(point, min(tol, 1e-9)))
        except SolverError:
            pass
    return 0.0 if contains(set_rep, point, LABEL_TOL) else math.inf


def _can_polish(inst: KKMInstance) -> bool:
    """Polish needs a projection onto every set and onto conv(vertices),
    which is a polytope only for nonnegative vertices."""
    return bool(np.all(inst._V >= 0.0)) and all(map(_projectable, inst.sets))


class _HullStep:
    """conv(vertices) as the last part of the polish's Dykstra sweep. Its
    projection is ``inst.point_at(w)`` for the hull weights w of the nearest
    hull point, each weight program warm-started from the previous sweep's
    weights, which ``w`` keeps for this one polish."""

    def __init__(self, inst: KKMInstance):
        self.inst = inst
        self.hull = Polytope(inst.vertices)
        self.w = None

    def _project(self, f: RandVar, tol: float) -> RandVar:
        self.w, _ = self.hull.weights_for(f, tol, start=self.w)
        return self.inst.point_at(self.w.weights)

    def _contains(self, f: RandVar, tol: float) -> bool:
        return self.hull._contains(f, tol)


def _polish(inst: KKMInstance, start: RandVar, tol: float):
    """Dykstra from ``start`` onto F_1 ∩ ... ∩ F_d ∩ conv(vertices), the hull
    projected last, so every sweep ends at a hull point ``inst.point_at(w)``.
    After sweeps 1, 2, 4, 8, ... (and once a sweep stops moving) each
    distance is re-measured by ``_distance_to``, and the first iterate with
    every distance at most tol/4 is returned as (weights, point, distances);
    the quarter leaves room for the re-measurement's own error, as the
    Frank-Wolfe gap rule in ``minimize`` does. Returns None when no sweep
    qualifies or a projection gives up. Where the sets only touch, as
    tangent balls do, Dykstra converges sublinearly and gives up only after
    ``DYKSTRA_CAP`` sweeps."""
    hull = _HullStep(inst)

    def accept(x):
        dists = [_distance_to(s, x, tol) for s in inst.sets]
        if max(dists) <= POLISH_MARGIN * tol:
            return hull.w.weights, x, dists
        return None

    try:
        return _dykstra([*inst.sets, hull], start, min(tol, 1e-9), accept)
    except SolverError:  # BudgetExceededError included
        return None


# ---------------------------------------------------------------------------
# covering-property spot check
# ---------------------------------------------------------------------------

@dataclass
class KKMCheck:
    ok: bool
    samples: int
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_kkm_property(inst: KKMInstance, samples: int = 200,
                       seed: int | None = None, tol: float = LABEL_TOL) -> KKMCheck:
    """Sampled covering check: random sub-simplices, random weights, the
    combined point must land in some carrier set. Evidence, not proof."""
    rng = np.random.default_rng(_SPOT_SEED if seed is None else seed)
    d = inst.d
    for k in range(samples):
        size = int(rng.integers(1, d + 1))
        subset = sorted(rng.choice(d, size=size, replace=False).tolist())
        w_sub = rng.dirichlet(np.ones(size))
        w = np.zeros(d)
        for idx, i in enumerate(subset):
            w[i] = w_sub[idx]
        point = inst.point_at(w)
        if not any(contains(inst.sets[i], point, tol) for i in subset):
            return KKMCheck(
                ok=False,
                samples=k + 1,
                witness={
                    "subset": subset,
                    "weights": [float(x) for x in w],
                    "point": [float(v) for v in point.values],
                },
            )
    return KKMCheck(ok=True, samples=samples)


# ---------------------------------------------------------------------------
# intersecting a family with a bounded anchor
# ---------------------------------------------------------------------------

def intersect_with_compact(family: list, anchor: ConvexSetRep, tol: float = 1e-6):
    """A point of anchor ∩ F_1 ∩ ... ∩ F_k, or an EmptyIntersection whose
    witness names a finite subfamily that provably fails to meet.

    The anchor must be bounded; cyclic projections then cannot escape.
    Index 0 of the witness refers to the anchor, i >= 1 to family[i-1].
    """
    if not is_bounded(anchor):
        raise InputError("anchor must be a bounded representation")
    reps = [anchor] + list(family)
    start = anchor.reference_point()
    try:
        point = _dykstra(reps, start, tol)
        return point
    except BudgetExceededError:
        pass
    # defensible emptiness: probe pairs, then the whole family
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            gap = _pocs_gap([reps[i], reps[j]], start, tol)
            if gap is not None and gap > max(tol, 10 * LABEL_TOL):
                raise EmptyIntersection(
                    f"members {i} and {j} stay {gap:.3e} apart "
                    f"under alternating projection",
                    witness=[i, j],
                )
    gap = _pocs_gap(reps, start, tol)
    if gap is not None and gap > max(tol, 10 * LABEL_TOL):
        raise EmptyIntersection(
            f"the full family stabilizes at gap {gap:.3e} "
            f"under cyclic projection",
            witness=list(range(len(reps))),
        )
    raise BudgetExceededError(
        "intersection did not converge and no empty subfamily was demonstrated"
    )


def _pocs_gap(reps, start: RandVar, tol: float):
    """Cyclic-projection limit gap: max distance between consecutive
    projections once the sweep stabilizes; None if still moving."""
    x = start
    prev_gap = math.inf
    for sweep in range(2000):
        pts = []
        for rep in reps:
            x = project(rep, x, min(tol, 1e-9))
            pts.append(x)
        gap = 0.0
        for a, b in zip(pts, pts[1:] + pts[:1]):
            gap = max(gap, norm(a - b))
        if sweep >= 100 and abs(prev_gap - gap) < 1e-14 * (1.0 + gap):
            return gap
        prev_gap = gap
    return prev_gap if math.isfinite(prev_gap) else None
