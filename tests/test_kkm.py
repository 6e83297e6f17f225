"""Simplex covering families: the pivot-walk solver, covering checks,
and intersection with a bounded anchor."""

import numpy as np
import pytest

from cckit import (
    Box,
    ConvexSetRep,
    EmptyIntersection,
    InputError,
    KKMInstance,
    KKMViolation,
    Polytope,
    ProbSpace,
    QuadraticFunctional,
    RandVar,
    check_kkm_property,
    contains,
    intersect_with_compact,
    lower_contour,
    project,
    sperner_solve,
)


def rv(space, vals):
    return RandVar(space, np.asarray(vals, dtype=float))


def coord_at_least(space, i, thresh):
    """{w : w_i >= thresh} within [0,1]^n, as a Box."""
    lo = np.zeros(space.n)
    lo[i] = thresh
    return Box(rv(space, lo), rv(space, np.ones(space.n)))


def threshold_family(d, thresh):
    space = ProbSpace.uniform(d)
    return KKMInstance.on_unit_simplex(
        [coord_at_least(space, i, thresh) for i in range(d)]
    )


class TestInstance:
    def test_unit_simplex_points_are_weights(self):
        inst = threshold_family(3, 0.25)
        w = np.array([0.2, 0.3, 0.5])
        assert np.allclose(inst.point_at(w).values, w)

    def test_general_vertices_map_affinely(self):
        space = ProbSpace.uniform(2)
        verts = [rv(space, [1.0, 3.0]), rv(space, [5.0, 7.0])]
        inst = KKMInstance(verts, [
            Box(rv(space, [0, 0]), rv(space, [9, 9])) for _ in verts
        ])
        assert np.allclose(
            inst.point_at(np.array([0.25, 0.75])).values, [4.0, 6.0]
        )

    def test_validation(self):
        space = ProbSpace.uniform(2)
        v = rv(space, [1.0, 0.0])
        with pytest.raises(InputError):
            KKMInstance([], [])
        with pytest.raises(InputError):
            KKMInstance([v], [])
        other = ProbSpace.uniform(3)
        with pytest.raises(InputError):
            KKMInstance([v, RandVar(other, np.zeros(3))], [None, None])


class TestSpernerSolve:
    def test_segment_intervals(self):
        inst = threshold_family(2, 0.4)
        point, report = sperner_solve(inst, tol=1e-6)
        # intersection of {w0 >= 0.4} and {w1 >= 0.4} on the segment
        assert 0.4 - 1e-6 <= point.values[0] <= 0.6 + 1e-6
        assert report["max_distance"] <= 1e-6
        assert report["q"] >= 16
        assert len(report["distances"]) == 2

    def test_triangle_quarter_thresholds(self):
        inst = threshold_family(3, 0.25)
        point, report = sperner_solve(inst, tol=1e-3)
        # tol bounds the weighted-norm distance; a single coordinate can
        # lag by up to tol * sqrt(d)
        assert np.all(point.values >= 0.25 - 1e-3 * np.sqrt(3))
        assert report["max_distance"] <= 1e-3

    def test_four_dimensional_family(self):
        inst = threshold_family(4, 0.2)
        point, report = sperner_solve(inst, tol=1e-3)
        assert np.all(point.values >= 0.2 - 1e-3 * 2.0)
        assert report["max_distance"] <= 1e-3

    def test_whole_simplex_sets_accept_immediately(self):
        space = ProbSpace.uniform(3)
        whole = [
            Box(rv(space, np.zeros(3)), rv(space, np.ones(3))) for _ in range(3)
        ]
        inst = KKMInstance.on_unit_simplex(whole)
        point, report = sperner_solve(inst, tol=1e-6)
        assert report["q"] == 16
        assert report["max_distance"] == 0.0

    def test_single_vertex_family(self):
        space = ProbSpace.uniform(1)
        inst = KKMInstance(
            [rv(space, [1.0])],
            [Box(rv(space, [0.0]), rv(space, [2.0]))],
        )
        point, report = sperner_solve(inst, tol=1e-9)
        assert point.values[0] == 1.0
        assert report["q"] == 1

    def test_solution_really_meets_every_set(self):
        # re-measure distances independently of the report
        inst = threshold_family(3, 0.25)
        point, _ = sperner_solve(inst, tol=1e-3)
        for s in inst.sets:
            proj = project(s, point, 1e-9)
            gap = float(
                np.sqrt(np.dot(inst.space.probs, (proj.values - point.values) ** 2))
            )
            assert gap <= 1e-3

    def test_labels_in_memo_are_admissible(self):
        # every memoized label obeys the rule: positive weight, membership,
        # and no smaller admissible index was available
        inst = threshold_family(2, 0.4)
        _, report = sperner_solve(inst, tol=1e-6)
        q, memo = report["q"], report["label_memo"]
        assert memo
        for z, lab in memo.items():
            assert z[lab] > 0
            point = inst.point_at(np.asarray(z, dtype=float) / q)
            assert contains(inst.sets[lab], point, 1e-9)
            for j in range(lab):
                if z[j] > 0:
                    assert not contains(inst.sets[j], point, 1e-9)

    def test_refinement_tightens_with_tol(self):
        inst = threshold_family(3, 0.25)
        _, loose = sperner_solve(inst, tol=1e-2)
        _, tight = sperner_solve(inst, tol=1e-3)
        assert tight["max_distance"] <= 1e-3
        assert loose["max_distance"] <= 1e-2
        assert tight["q"] >= loose["q"]

    def test_covering_gap_raises_violation(self):
        # sets leave the open interval (0.3, 0.7) of the segment uncovered
        space = ProbSpace.uniform(2)
        sets = [
            Box(rv(space, [0.0, 0.0]), rv(space, [1.0, 0.3])),  # w1 <= 0.3
            coord_at_least(space, 1, 0.7),                       # w1 >= 0.7
        ]
        inst = KKMInstance.on_unit_simplex(sets)
        with pytest.raises(KKMViolation) as ei:
            sperner_solve(inst, tol=1e-6)
        w = ei.value.witness
        assert set(w) == {"weights", "carrier", "point"}
        # the witness point is genuinely uncovered within its carrier
        point = inst.point_at(np.asarray(w["weights"]))
        for i in w["carrier"]:
            assert not contains(inst.sets[i], point, 1e-9)

    def test_membership_only_rep_is_a_membership_oracle(self):
        # a ConvexSetRep with only _contains solves like its duck-typed twin
        space = ProbSpace.uniform(2)

        class AtLeast(ConvexSetRep):
            kind = "at-least"

            def __init__(self, i):
                self.space, self.i = space, i

            def _contains(self, f, tol):
                return f.values[self.i] >= 0.4 - tol

        class DuckAtLeast:
            def __init__(self, i):
                self.space, self.i = space, i

            def _contains(self, f, tol):
                return f.values[self.i] >= 0.4 - tol

        for cls in (AtLeast, DuckAtLeast):
            inst = KKMInstance.on_unit_simplex([cls(0), cls(1)])
            point, report = sperner_solve(inst, tol=1e-6)
            assert 0.4 - 1e-6 <= point.values[0] <= 0.6 + 1e-6
            assert report["distances"] == [0.0, 0.0]

    def test_attribute_error_inside_a_projection_propagates(self):
        space = ProbSpace.uniform(2)

        class Broken(Box):
            def _project(self, f, tol):
                raise AttributeError("a bug inside the projection")

        sets = [Broken(rv(space, [0.0, 0.0]), rv(space, [1.0, 1.0]))
                for _ in range(2)]
        with pytest.raises(AttributeError, match="bug inside"):
            sperner_solve(KKMInstance.on_unit_simplex(sets), tol=1e-6)

    def test_tol_validation(self):
        inst = threshold_family(2, 0.4)
        with pytest.raises(InputError):
            sperner_solve(inst, tol=0.0)


class TestCheckKKMProperty:
    def test_good_family_passes(self):
        chk = check_kkm_property(threshold_family(3, 0.25), samples=150)
        assert chk.ok is True
        assert bool(chk)
        assert chk.witness is None

    def test_broken_family_yields_witness(self):
        space = ProbSpace.uniform(2)
        sets = [
            Box(rv(space, [0.0, 0.0]), rv(space, [1.0, 0.3])),
            coord_at_least(space, 1, 0.7),
        ]
        inst = KKMInstance.on_unit_simplex(sets)
        chk = check_kkm_property(inst)
        assert chk.ok is False
        assert not bool(chk)
        subset = chk.witness["subset"]
        point = inst.point_at(np.asarray(chk.witness["weights"]))
        for i in subset:
            assert not contains(inst.sets[i], point, 1e-9)

    def test_seeded_runs_are_reproducible(self):
        inst = threshold_family(3, 0.25)
        a = check_kkm_property(inst, samples=50, seed=11)
        b = check_kkm_property(inst, samples=50, seed=11)
        assert a.ok == b.ok and a.samples == b.samples


class TestIntersectWithCompact:
    def setup_method(self):
        self.space = ProbSpace.uniform(2)
        self.anchor = Box(
            rv(self.space, [0.0, 0.0]), rv(self.space, [5.0, 5.0])
        )

    def test_overlapping_family_returns_common_point(self):
        fam = [
            Box(rv(self.space, [0.0, 0.0]), rv(self.space, [2.0, 1.0])),
            Box(rv(self.space, [0.5, 0.2]), rv(self.space, [3.0, 3.0])),
        ]
        pt = intersect_with_compact(fam, self.anchor, tol=1e-8)
        for s in fam + [self.anchor]:
            assert contains(s, pt, 1e-6)

    def test_disjoint_pair_is_named(self):
        fam = [
            Box(rv(self.space, [0.0, 0.0]), rv(self.space, [1.0, 1.0])),
            Box(rv(self.space, [2.0, 2.0]), rv(self.space, [3.0, 3.0])),
        ]
        with pytest.raises(EmptyIntersection) as ei:
            intersect_with_compact(fam, self.anchor, tol=1e-8)
        # witness indices: 0 is the anchor, 1 and 2 the family members
        assert ei.value.witness == [1, 2]

    def test_polytope_members_work(self):
        seg = Polytope([rv(self.space, [1.0, 0.0]), rv(self.space, [0.0, 1.0])])
        band = Box(rv(self.space, [0.0, 0.4]), rv(self.space, [1.0, 0.6]))
        pt = intersect_with_compact([seg, band], self.anchor, tol=1e-8)
        assert contains(seg, pt, 1e-6) and contains(band, pt, 1e-6)

    def test_unbounded_anchor_rejected(self):
        ball = lower_contour(QuadraticFunctional(self.space, np.eye(2)), 1.0)
        with pytest.raises(InputError):
            intersect_with_compact([self.anchor], ball)
