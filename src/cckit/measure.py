"""Finite probability spaces and nonnegative random variables.

A space is a finite list of atoms with strictly positive probabilities
summing to one. Random variables are real vectors indexed by the atoms.
The module provides the expectation functional, tail mass, the
convergence-in-probability metric

    d(f, g) = E[ min(1, |f - g|) ],

the bounded concave transform ``phi(x) = 1 - exp(-x)`` together with the
closed-form floor ``epsilon_of_M`` on its midpoint concavity gap, and the
tagged two-copy direct sum used by the saddle-point machinery.

Everything here is deterministic and allocation-light; heavier solvers
build on top of these primitives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

import numpy as np

from .errors import DomainError, InputError, SpaceMismatchError

#: absolute slack allowed on sum(probs) == 1 at validation time
PROB_SUM_TOL = 1e-12

#: strictly positive floor for atom probabilities
PROB_FLOOR = 0.0


@dataclass(frozen=True, eq=False)
class ProbSpace:
    """Finite probability space: ordered atom ids with positive weights."""

    atoms: tuple
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        atoms = tuple(str(a) for a in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if len(atoms) == 0:
            raise InputError("a probability space needs at least one atom")
        if len(set(atoms)) != len(atoms):
            raise InputError("atom ids must be distinct")
        if p.shape != (len(atoms),):
            raise InputError("probs must align with atoms")
        if not np.all(np.isfinite(p)):
            raise InputError("probabilities must be finite")
        if np.any(p <= PROB_FLOOR):
            raise InputError("probabilities must be strictly positive")
        if abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
            raise InputError(
                f"probabilities sum to {p.sum()!r}, outside 1 +/- {PROB_SUM_TOL}"
            )

    @property
    def n(self) -> int:
        return len(self.atoms)

    def same(self, other: "ProbSpace") -> bool:
        return (
            self is other
            or (self.atoms == other.atoms and np.array_equal(self.probs, other.probs))
        )

    @classmethod
    def uniform(cls, n: int, prefix: str = "w") -> "ProbSpace":
        if n <= 0:
            raise InputError("need n >= 1 atoms")
        p = np.full(n, 1.0 / n)
        p[-1] = 1.0 - p[:-1].sum()  # pin the float mass to exactly 1
        return cls(tuple(f"{prefix}{i}" for i in range(n)), p)


class DirectSumSpace(ProbSpace):
    """Two tagged copies of a base space, each with half the mass."""

    def __init__(self, base: ProbSpace):
        atoms = tuple(f"1:{a}" for a in base.atoms) + tuple(f"2:{a}" for a in base.atoms)
        probs = np.concatenate([base.probs, base.probs]) / 2.0
        ProbSpace.__init__(self, atoms, probs)
        object.__setattr__(self, "base", base)


@dataclass(frozen=True, eq=False)
class RandVar:
    """Real-valued random variable on a finite space."""

    space: ProbSpace
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.space.n,):
            raise InputError("values must align with the space's atoms")
        if not np.all(np.isfinite(v)):
            raise InputError("values must be finite reals")

    # light arithmetic used by the solvers; always stays on the same space
    def _wrap(self, vals) -> "RandVar":
        return RandVar(self.space, vals)

    def __add__(self, other):
        if isinstance(other, RandVar):
            _require_same_space(self, other)
            return self._wrap(self.values + other.values)
        return self._wrap(self.values + other)

    def __sub__(self, other):
        if isinstance(other, RandVar):
            _require_same_space(self, other)
            return self._wrap(self.values - other.values)
        return self._wrap(self.values - other)

    def __rmul__(self, scalar):
        return self._wrap(float(scalar) * self.values)

    __mul__ = __rmul__


def _require_same_space(f: RandVar, g: RandVar):
    if not f.space.same(g.space):
        raise SpaceMismatchError("random variables live on different spaces")


def expectation(f: RandVar) -> float:
    """E[f] = sum_i p_i f_i."""
    return float(np.dot(f.space.probs, f.values))


def prob_at_least(f: RandVar, M: float) -> float:
    """P[|f| >= M]: probability mass where |f| meets the threshold."""
    if not math.isfinite(M):
        raise InputError("threshold must be finite")
    return float(f.space.probs[np.abs(f.values) >= M].sum())


def metric_d(f: RandVar, g: RandVar) -> float:
    """Convergence-in-probability metric E[min(1, |f-g|)].

    Symmetric, satisfies the triangle inequality, bounded by 1, and zero
    exactly on equal variables (the space has no null atoms).
    """
    _require_same_space(f, g)
    gap = np.minimum(1.0, np.abs(f.values - g.values))
    return float(np.dot(f.space.probs, gap))


def inner(f: RandVar, g: RandVar) -> float:
    """Probability-weighted inner product E[f g]."""
    _require_same_space(f, g)
    return float(np.dot(f.space.probs * f.values, g.values))


def norm(f: RandVar) -> float:
    """Norm induced by the E[f g] inner product."""
    return math.sqrt(max(0.0, float(np.dot(f.space.probs, f.values ** 2))))


def phi(x):
    """Bounded concave transform ``1 - exp(-x)`` on [0, inf).

    Strictly increasing, strictly concave, with range [0, 1); the gap
    floor below quantifies how strictly.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("phi is defined on nonnegative inputs")
    out = -np.expm1(-arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def epsilon_of_M(M: float) -> float:
    """Floor of the midpoint concavity gap of ``phi`` at separation scale M.

    Over pairs x1, x2 >= 0 with |x1 - x2| >= 1/M and min(x1, x2) <= M,

        phi((x1+x2)/2) - (phi(x1) + phi(x2))/2  >=  epsilon_of_M(M),

    with equality approached at (M, M + 1/M). Writing a = min, delta =
    |x1 - x2|, the gap equals exp(-a) * (1 - exp(-delta/2))^2 / 2, which
    decreases in a and increases in delta, so the infimum sits at the
    corner a = M, delta = 1/M:

        epsilon_of_M(M) = exp(-M) * (1 - exp(-1/(2M)))^2 / 2.
    """
    if not (M > 0.0) or not math.isfinite(M):
        raise InputError("M must be a positive real")
    half_step = -math.expm1(-1.0 / (2.0 * M))  # 1 - e^{-1/(2M)}
    return math.exp(-M) * half_step * half_step / 2.0


def phi_midpoint_gap(x1: float, x2: float) -> float:
    """phi((x1+x2)/2) - (phi(x1)+phi(x2))/2, the quantity epsilon_of_M floors."""
    return phi((x1 + x2) / 2.0) - 0.5 * (phi(x1) + phi(x2))


def direct_sum(space: ProbSpace) -> DirectSumSpace:
    """Two tagged half-weight copies of ``space`` glued into one space."""
    return DirectSumSpace(space)


def oplus(f: RandVar, g: RandVar, sum_space: DirectSumSpace) -> RandVar:
    """Pair (f, g) as a single variable on the direct sum: f on copy 1, g on copy 2.

    The metric splits exactly: d(f1 (+) g1, f2 (+) g2) = (d(f1,f2) + d(g1,g2)) / 2.
    """
    if not isinstance(sum_space, DirectSumSpace):
        raise InputError("sum_space must come from direct_sum()")
    if not (f.space.same(sum_space.base) and g.space.same(sum_space.base)):
        raise SpaceMismatchError("oplus arguments must live on the sum's base space")
    return RandVar(sum_space, np.concatenate([f.values, g.values]))


def split_oplus(h: RandVar) -> tuple[RandVar, RandVar]:
    """Inverse of oplus: the two halves of a direct-sum variable."""
    if not isinstance(h.space, DirectSumSpace):
        raise InputError("split_oplus needs a variable on a direct-sum space")
    base = h.space.base
    n = base.n
    return RandVar(base, h.values[:n].copy()), RandVar(base, h.values[n:].copy())


# ---------------------------------------------------------------------------
# JSON encoding: atoms, decimal-string probabilities, values keyed by atom id.
# ---------------------------------------------------------------------------

def space_to_json(space: ProbSpace) -> dict:
    return {
        "atoms": list(space.atoms),
        "probs": [repr(float(p)) for p in space.probs],
    }


def space_from_json(obj: dict) -> ProbSpace:
    atoms = [str(a) for a in json_field(obj, "atoms", "space", list)]
    raw = json_field(obj, "probs", "space", list)
    if len(raw) != len(atoms):
        raise InputError("probs must align with atoms")
    try:
        decs = [Decimal(str(s)) for s in raw]
    except InvalidOperation as e:
        raise InputError(f"probabilities must be decimal strings: {e}")
    if any(d <= 0 for d in decs):
        raise InputError("probabilities must be strictly positive")
    total = sum(decs)
    if abs(total - 1) > Decimal("1e-12"):
        raise InputError(f"probabilities sum to {total}, outside 1 +/- 1e-12")
    p = np.array([float(d) for d in decs], dtype=float)
    p = p / p.sum()
    if len(p) > 1:
        # pin the float sum to exactly 1.0; the adjustment is pure roundoff
        adjust = 1.0 - p[:-1].sum()
        if abs(adjust - p[-1]) > 1e-12:
            raise InputError("probability normalization drifted beyond 1e-12")
        p[-1] = adjust
    else:
        p[0] = 1.0
    return ProbSpace(tuple(atoms), p)


def randvar_to_json(f: RandVar) -> dict:
    out = space_to_json(f.space)
    out["values"] = {a: float(v) for a, v in zip(f.space.atoms, f.values)}
    return out


def json_field(obj, key: str, where: str, kind: type | None = None):
    """``obj[key]`` from decoded JSON. Raises ``InputError`` naming ``where``
    and ``key`` when ``obj`` is not an object, lacks the field, or holds a
    value that is not a ``kind`` (dict, list or str)."""
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise InputError(f"{where} is missing the {key!r} field")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        expected = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise InputError(
            f"{where} field {key!r} must be {expected}, got {type(value).__name__}"
        )
    return value


def json_floats(value, where: str, ndim: int) -> np.ndarray:
    """``value`` from decoded JSON as a float array with ``ndim`` axes (0 for
    one number), or ``InputError`` naming ``where``. One number must be a
    JSON number: ``true`` and ``"8"`` are refused, not read as 1 and 8."""
    if ndim == 0 and (isinstance(value, bool) or not isinstance(value, (int, float))):
        arr = None
    else:
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            arr = None
    if arr is None or arr.ndim != ndim:
        shape = ("a number", "numbers", "a matrix of numbers")[ndim]
        raise InputError(f"{where} must be {shape}")
    return arr


def randvar_from_json(obj: dict, space: ProbSpace | None = None) -> RandVar:
    if space is None:
        space = space_from_json(obj)
    vals = json_field(obj, "values", "random variable", dict)
    missing = [a for a in space.atoms if a not in vals]
    if missing:
        raise InputError(f"values missing for atoms {missing}")
    if len(vals) != space.n:
        raise InputError("values must cover exactly the space's atoms")
    return RandVar(space, json_floats([vals[a] for a in space.atoms],
                                      "random variable 'values'", 1))
