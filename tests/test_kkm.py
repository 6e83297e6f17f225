"""Simplex covering families: the pivot-walk solver, covering checks,
and intersection with a bounded anchor."""

import itertools
import json

import numpy as np
import pytest

import cckit.convex
import cckit.kkm
from cckit import (
    Box,
    BudgetExceededError,
    ConvexSetRep,
    EmptyIntersection,
    InputError,
    Intersection,
    KKMInstance,
    KKMViolation,
    LinearFunctional,
    Polytope,
    ProbSpace,
    QuadraticFunctional,
    RandVar,
    SolverError,
    Sublevel,
    check_kkm_property,
    contains,
    intersect_with_compact,
    lower_contour,
    norm,
    project,
    set_to_json,
    space_to_json,
    sperner_solve,
)
from cckit.cli import main


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


def halfspace_family(t):
    """x_i >= t_i on the unit simplex, written as the linear sublevel sets
    {x >= 0 : sum_{j != i} x_j <= 1 - t_i} (uniform atoms)."""
    d = len(t)
    space = ProbSpace.uniform(d)
    return KKMInstance.on_unit_simplex([
        Sublevel(space, LinearFunctional(space, d * (1.0 - np.eye(d)[i])),
                 1.0 - t[i])
        for i in range(d)
    ])


def ball_family(d, r):
    """Balls of radius r around the simplex's corners, as quadratic
    sublevel sets 0.5 E[x^2] - E[v_i x] <= r^2/2 - 0.5 E[v_i^2]."""
    space = ProbSpace.uniform(d)
    return KKMInstance.on_unit_simplex([
        Sublevel(space, QuadraticFunctional(space, np.eye(d), -np.eye(d)[i]),
                 0.5 * r * r - 0.5 / d)
        for i in range(d)
    ])


def star_family(d, push):
    """F_i = conv of corner i, the centroids of the faces through it, and
    the simplex's centroid pushed by ``push`` away from corner i: the
    barycentric-subdivision cells, widened so they overlap near the
    centroid."""
    space = ProbSpace.uniform(d)
    eye = np.eye(d)
    center = np.full(d, 1.0 / d)
    sets = []
    for i in range(d):
        others = [j for j in range(d) if j != i]
        gens = [eye[[i, *face]].mean(axis=0)
                for k in range(d - 1) for face in itertools.combinations(others, k)]
        gens.append(center + push * (center - eye[i]))
        sets.append(Polytope([rv(space, g) for g in gens]))
    return KKMInstance.on_unit_simplex(sets)


def capped_threshold_family(t):
    """{x_i >= t_i} intersected with the halfspace {sum x <= 1}."""
    d = len(t)
    space = ProbSpace.uniform(d)
    cap = Sublevel(space, LinearFunctional(space, d * np.ones(d)), 1.0)
    return KKMInstance.on_unit_simplex([
        Intersection([coord_at_least(space, i, t[i]), cap]) for i in range(d)
    ])


def general_vertex_family():
    """Lower bounds on the hull of three general vertices. Atoms 0 and 1 of
    a hull point sum to 2 and atom 2 is 1 + 2 w_2, so the bounds cover,
    and they meet only on the segment {atom 0 = 1.2, w_2 >= 0.6}."""
    space = ProbSpace.uniform(3)
    verts = [rv(space, [2.0, 0.0, 1.0]), rv(space, [0.0, 2.0, 1.0]),
             rv(space, [1.0, 1.0, 3.0])]
    top = rv(space, [9.0, 9.0, 9.0])
    return KKMInstance(verts, [
        Box(rv(space, [1.2, 0.0, 0.0]), top),
        Box(rv(space, [0.0, 0.8, 0.0]), top),
        Box(rv(space, [0.0, 0.0, 2.2]), top),
    ])


def eager_dykstra(parts, f, tol):
    """Dykstra's projections as the package ran them before membership was
    re-tested lazily: every part's membership after every sweep."""
    x = f
    incs = [RandVar(f.space, np.zeros(f.space.n))] * len(parts)
    for _ in range(cckit.convex.DYKSTRA_CAP):
        x_prev = x
        for i, part in enumerate(parts):
            y = x + incs[i]
            xp = part._project(y, tol)
            incs[i] = y - xp
            x = xp
        drift = norm(x - x_prev)
        feasible = all(part._contains(x, max(tol, 1e-12)) for part in parts)
        if drift <= 1e-15 + 0.01 * tol and feasible:
            return x
    raise BudgetExceededError("reference Dykstra did not converge")


def polished(report):
    """Is the reported point the polish rather than the cell's barycenter?
    At a power-of-two q both sides round the same sum once, so an
    unpolished point's weights equal the barycenter exactly."""
    return not np.array_equal(
        report["weights"], np.mean(np.asarray(report["cell_weights"]), axis=0)
    )


class AtLeast(ConvexSetRep):
    """{w : w_i >= thresh} as a membership oracle: no projection offered."""

    kind = "at-least"

    def __init__(self, space, i, thresh):
        self.space, self.i, self.thresh = space, i, thresh

    def _contains(self, f, tol):
        return f.values[self.i] >= self.thresh - tol


class UnprojectableBox(Box):
    """A box whose projection always gives up."""

    def _project(self, f, tol):
        raise SolverError("projection gave up")


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

        class DuckAtLeast:
            def __init__(self, space, i, thresh):
                self.space, self.i, self.thresh = space, i, thresh

            def _contains(self, f, tol):
                return f.values[self.i] >= self.thresh - tol

        for cls in (AtLeast, DuckAtLeast):
            inst = KKMInstance.on_unit_simplex(
                [cls(space, 0, 0.4), cls(space, 1, 0.4)]
            )
            point, report = sperner_solve(inst, tol=1e-6)
            assert 0.4 - 1e-6 <= point.values[0] <= 0.6 + 1e-6
            assert report["distances"] == [0.0, 0.0]

    def test_intersection_with_a_membership_only_part(self):
        # the intersection cannot project, so it is a membership oracle as a
        # whole: its distance is 0/inf and the polish is skipped
        space = ProbSpace.uniform(2)
        whole = Box(rv(space, [0.0, 0.0]), rv(space, [1.0, 1.0]))
        inst = KKMInstance.on_unit_simplex(
            [Intersection([whole, AtLeast(space, i, 0.4)]) for i in range(2)]
        )
        point, report = sperner_solve(inst, tol=1e-6)
        assert 0.4 - 1e-6 <= point.values[0] <= 0.6 + 1e-6
        assert report["distances"] == [0.0, 0.0]
        assert not polished(report)

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


class TestPolish:
    """A projectable family is polished once, from the first located cell,
    by Dykstra onto conv(vertices) and the sets; a membership-only family
    walks and refines exactly as before."""

    @pytest.mark.parametrize("d", [3, 4])
    def test_box_families_close_at_the_first_cell(self, d):
        # thresholds on the 1/32 lattice inside [0.5/d, 1/d]: the
        # barycenter alone needs refinement to q = 4096 on these
        rng = np.random.default_rng(600 + d)
        space = ProbSpace.uniform(d)
        for _ in range(6):
            t = rng.integers(int(np.ceil(16 / d)), 32 // d + 1, size=d) / 32.0
            inst = KKMInstance.on_unit_simplex(
                [coord_at_least(space, i, t[i]) for i in range(d)]
            )
            point, report = sperner_solve(inst, tol=1e-4)
            assert (report["q"], report["rounds"]) == (16, 1), t
            assert report["steps"] <= 100
            assert report["max_distance"] <= 1e-4
            assert np.all(point.values >= t - 1e-4 * np.sqrt(d))

    @pytest.mark.parametrize("d, thresh, tol", [
        (2, 0.4, 1e-6), (3, 0.25, 1e-3), (4, 0.2, 1e-3), (3, 0.25, 1e-2),
        (3, 0.25, 1e-6),
    ])
    def test_threshold_families_close_in_one_round(self, d, thresh, tol):
        _, report = sperner_solve(threshold_family(d, thresh), tol=tol)
        assert (report["q"], report["rounds"]) == (16, 1)
        assert report["max_distance"] <= tol

    def test_polished_point_is_a_hull_point_near_every_set(self):
        inst = threshold_family(3, 0.25)
        point, report = sperner_solve(inst, tol=1e-6)
        assert polished(report)
        w = report["weights"]
        assert np.all(w >= 0.0)
        assert abs(float(w.sum()) - 1.0) <= 1e-12
        assert np.array_equal(point.values, inst.point_at(w).values)
        p = inst.space.probs
        for s in inst.sets:
            gap = point.values - project(s, point, 1e-12).values
            assert float(np.sqrt(np.dot(p, gap ** 2))) <= 1e-6

    # Without the polish these families refine far: the (q, rounds) the
    # barycenter alone needs is noted with each, with its time on a 2-vCPU
    # VM.
    @pytest.mark.parametrize("build", [
        general_vertex_family,  # 2^19, 16: 77 s
        lambda: halfspace_family([0.3125, 0.28125, 0.25]),  # 2^19, 16: 53 s
        lambda: halfspace_family([0.1875, 0.25, 0.21875, 0.15625]),  # 2^18, 15: 65 s
        lambda: ball_family(3, 0.62),  # 2048, 8: 0.4 s
        lambda: star_family(3, 0.2),  # 2^17, 14: 166 s
        lambda: star_family(4, 0.1),  # not done in 300 s
        lambda: capped_threshold_family([0.3125, 0.28125, 0.25]),  # 2^19, 16: 83 s
    ], ids=["general_vertices", "halfspace3", "halfspace4", "ball3",
            "polytope3", "polytope4", "intersection3"])
    def test_families_close_at_the_first_cell(self, build):
        inst = build()
        point, report = sperner_solve(inst, tol=1e-6)
        assert (report["q"], report["rounds"]) == (16, 1)
        assert polished(report)
        assert report["max_distance"] <= 1e-6
        w = report["weights"]
        assert np.all(w >= 0.0) and abs(float(w.sum()) - 1.0) <= 1e-12
        assert np.array_equal(point.values, inst.point_at(w).values)

    def test_membership_only_family_walks_as_before(self):
        # pinned: the walk, its refinement and its barycenter are unchanged
        space = ProbSpace.uniform(3)
        inst = KKMInstance.on_unit_simplex(
            [AtLeast(space, i, 0.3) for i in range(3)]
        )
        point, report = sperner_solve(inst, tol=1e-6)
        assert (report["q"], report["rounds"], report["steps"]) == (64, 3, 173)
        assert not polished(report)
        assert list(point.values) == [29 / 96, 29 / 96, 38 / 96]

    def test_a_polish_that_gives_up_is_tried_once(self, monkeypatch):
        calls = []

        def give_up(parts, f, tol, accept):
            calls.append(len(parts))
            raise BudgetExceededError("Dykstra gave up")

        monkeypatch.setattr(cckit.kkm, "_dykstra", give_up)
        point, report = sperner_solve(threshold_family(3, 0.3), tol=1e-6)
        assert calls == [4]  # the hull and the three sets, once
        assert (report["q"], report["rounds"], report["steps"]) == (64, 3, 173)
        assert not polished(report)

    def test_dykstra_tests_membership_only_once_settled(self, monkeypatch):
        # box families in the benchmark's kkm_box4 shape, polished from
        # points outside the boxes: the same point as a Dykstra that tests
        # membership after every sweep, with fewer weight programs
        calls = []
        real = Polytope.weights_for

        def counting(poly, f, tol=1e-9):
            calls.append(1)
            return real(poly, f, tol)

        monkeypatch.setattr(Polytope, "weights_for", counting)
        rng = np.random.default_rng(604)
        space = ProbSpace.uniform(4)
        lazy = eager = 0
        for _ in range(4):
            t = rng.integers(4, 9, size=4) / 32.0
            inst = KKMInstance.on_unit_simplex(
                [coord_at_least(space, i, t[i]) for i in range(4)]
            )
            parts = [Polytope(inst.vertices), *inst.sets]
            start = rv(space, rng.dirichlet(np.full(4, 0.5)))
            calls.clear()
            got = cckit.convex._dykstra(parts, start, 1e-9)
            lazy += len(calls)
            calls.clear()
            want = eager_dykstra(parts, start, 1e-9)
            eager += len(calls)
            assert np.array_equal(got.values, want.values)
        assert lazy < eager

    def test_polish_certifies_after_few_sweeps(self, monkeypatch, capsys,
                                               tmp_path):
        # box families in the benchmark's kkm_box3 and kkm_box4 shapes: each
        # polish is accepted within 32 sweeps, with at most half the weight
        # programs and a quarter of the lstsq calls that a polish run to
        # 1e-9 made on these twelve families (804 and 2,876)
        sweeps, calls = [], {"weights_for": 0, "lstsq": 0}
        step, weights_for, lstsq = (cckit.kkm._HullStep._project,
                                    Polytope.weights_for, np.linalg.lstsq)

        def counted_step(self, f, tol):
            sweeps[-1] += 1
            return step(self, f, tol)

        def counted_weights_for(*args, **kwargs):
            calls["weights_for"] += 1
            return weights_for(*args, **kwargs)

        def counted_lstsq(*args, **kwargs):
            calls["lstsq"] += 1
            return lstsq(*args, **kwargs)
        monkeypatch.setattr(cckit.kkm._HullStep, "_project", counted_step)
        monkeypatch.setattr(Polytope, "weights_for", counted_weights_for)
        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        tol = 1e-4
        for d in (3, 4):
            rng = np.random.default_rng(620 + d)
            space = ProbSpace.uniform(d)
            for _ in range(6):
                t = rng.integers(int(np.ceil(16 / d)), 32 // d + 1, size=d) / 32.0
                sets = [coord_at_least(space, i, t[i]) for i in range(d)]
                sweeps.append(0)
                point, report = sperner_solve(
                    KKMInstance.on_unit_simplex(sets), tol=tol)
                assert polished(report) and 0 < sweeps[-1] <= 32, t
                x = point.values
                for s in sets:
                    gap = x - np.clip(x, s.lower.values, s.upper.values)
                    assert float(np.sqrt(np.dot(space.probs, gap ** 2))) <= tol
        assert calls["weights_for"] <= 804 // 2
        assert calls["lstsq"] <= 2876 // 4

        # the last kkm_box4 family, twice through the CLI
        path = tmp_path / "kkm_box4.json"
        path.write_text(json.dumps({
            "space": space_to_json(space),
            "vertices": np.eye(d).tolist(),
            "sets": [set_to_json(s) for s in sets],
        }))
        outs = []
        for _ in range(2):
            assert main(["kkm", str(path), "--tol", repr(tol)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["result"]["max_distance"] <= tol

    def test_sets_that_cannot_project_skip_the_polish(self):
        space = ProbSpace.uniform(3)
        lo = 0.3 * np.eye(3)
        inst = KKMInstance.on_unit_simplex(
            [UnprojectableBox(rv(space, lo[i]), rv(space, np.ones(3)))
             for i in range(3)]
        )
        _, report = sperner_solve(inst, tol=1e-6)
        assert (report["q"], report["rounds"], report["steps"]) == (64, 3, 173)
        assert report["distances"] == [0.0, 0.0, 0.0]


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
