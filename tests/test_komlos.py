"""Tail-hull extraction: convergence on bounded sequences, escape
certificates on unbounded ones, and the supporting mass estimates."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cckit.convex
from cckit import komlos
from cckit import (
    InputError,
    NonConvergent,
    Polytope,
    ProbSpace,
    RandVar,
    SequenceSpec,
    Unbounded,
    WeightVector,
    combo_mass_bound,
    contains,
    escape_eps,
    extract,
    metric_d,
    prob_at_least,
)

U2 = ProbSpace.uniform(2)


def rv(space, vals):
    return RandVar(space, np.asarray(vals, dtype=float))


def seq_from_values(space, rows, horizon=None):
    terms = [rv(space, row) for row in rows]
    return SequenceSpec(space, terms, horizon or len(terms))


def alternating_seq(horizon=64):
    rows = [[1.0, 0.0] if n % 2 else [0.0, 1.0] for n in range(horizon)]
    return seq_from_values(U2, rows)


def escaping_seq(horizon=64):
    # f_n = n on the first atom, 0 on the second: half the mass rides
    # the diagonal P[f_n >= n] = 1/2 forever.
    rows = [[float(n), 0.0] for n in range(1, horizon + 1)]
    return seq_from_values(U2, rows)


def ambient_for(seq):
    return Polytope([seq.term(n) for n in range(1, seq.horizon + 1)])


def diagonal_escaper(seed, noise=0.0, atoms=64, horizon=1024):
    """f_n = n on one atom of a random eighth of the atoms, taken in turn
    (the benchmark's escaper), over U(0, noise) on every other atom value;
    six decimals, as the benchmark writes its terms."""
    rng = np.random.default_rng(seed)
    ring = rng.permutation(atoms)[:atoms // 8]
    terms = rng.uniform(0.0, noise, size=(horizon, atoms))
    n = np.arange(horizon)
    terms[n, ring[n % ring.size]] = n + 1.0
    return seq_from_values(ProbSpace.uniform(atoms), np.round(terms, 6))


def geometric_seq(seed, atoms=16, horizon=256):
    rng = np.random.default_rng(seed)
    limit, start = rng.uniform(0.0, 2.0, size=(2, atoms))
    ratio = rng.uniform(0.5, 0.9)
    n = np.arange(1, horizon + 1)[:, None]
    return seq_from_values(ProbSpace.uniform(atoms),
                           np.round(limit + ratio ** n * (start - limit), 6))


class TestSequenceSpec:
    def test_list_dict_callable_agree(self):
        rows = [[1.0, 2.0], [3.0, 4.0]]
        s_list = seq_from_values(U2, rows)
        s_dict = SequenceSpec(U2, {1: rv(U2, rows[0]), 2: rv(U2, rows[1])}, 2)
        s_call = SequenceSpec(U2, lambda n: rv(U2, rows[n - 1]), 2)
        for n in (1, 2):
            assert np.array_equal(s_list.term(n).values, s_dict.term(n).values)
            assert np.array_equal(s_list.term(n).values, s_call.term(n).values)

    def test_index_bounds(self):
        s = alternating_seq(8)
        with pytest.raises(InputError):
            s.term(0)
        with pytest.raises(InputError):
            s.term(9)

    def test_short_list_rejected(self):
        with pytest.raises(InputError):
            SequenceSpec(U2, [rv(U2, [1.0, 0.0])], 2)

    def test_negative_term_rejected(self):
        s = SequenceSpec(U2, [rv(U2, [1.0, -0.5])], 1)
        with pytest.raises(InputError):
            s.term(1)

    def test_values_matrix_columns(self):
        s = alternating_seq(4)
        V = s.values_matrix()
        assert V.shape == (2, 4)
        assert np.array_equal(V[:, 0], s.term(1).values)
        assert np.array_equal(V[:, 3], s.term(4).values)
        V2 = s.values_matrix(start=3)
        assert V2.shape == (2, 2)


class TestBoundednessDiagnostics:
    def test_escape_eps_on_escaper(self):
        eps, start, q_map = escape_eps(escaping_seq(64))
        assert start == 16
        assert eps == pytest.approx(0.5, abs=1e-6)
        assert all(q == 0.5 for q in q_map.values())

    def test_escape_eps_zero_on_bounded(self):
        eps, _, q_map = escape_eps(alternating_seq(64))
        assert eps == 0.0
        assert all(q == 0.0 for q in q_map.values())


class TestComboMassBound:
    def test_worked_instance(self):
        pts = [rv(U2, [3.0, 0.0]), rv(U2, [0.0, 3.0])]
        w = WeightVector([0.5, 0.5])
        # g = (1.5, 1.5); threshold 3*0.4/2 = 0.6; P[g >= 0.6] = 1 >= 0.2
        assert combo_mass_bound(pts, w, n=3.0, eps=0.4) is True

    def test_precondition_violation_raises(self):
        pts = [rv(U2, [3.0, 0.0]), rv(U2, [0.0, 0.0])]
        w = WeightVector([0.5, 0.5])
        with pytest.raises(InputError, match="precondition"):
            combo_mass_bound(pts, w, n=3.0, eps=0.4)

    def test_parameter_validation(self):
        pts = [rv(U2, [3.0, 0.0])]
        w = WeightVector([1.0])
        with pytest.raises(InputError):
            combo_mass_bound(pts, w, n=3.0, eps=0.0)
        with pytest.raises(InputError):
            combo_mass_bound(pts, w, n=3.0, eps=1.0)
        with pytest.raises(InputError):
            combo_mass_bound(pts, w, n=-1.0, eps=0.4)
        # length mismatch between points and weights
        with pytest.raises(InputError):
            combo_mass_bound(pts * 2, w, n=3.0, eps=0.4)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_conclusion_never_fails_under_preconditions(self, data):
        # whenever every point clears P[f >= n] > eps, the recombined
        # mass bound must hold -- no counterexample may exist
        space = ProbSpace.uniform(3)
        n = 2.0
        eps = data.draw(st.floats(0.05, 0.45))
        pts = []
        for _ in range(data.draw(st.integers(1, 4))):
            # at least two of three atoms sit at or above n
            lo = data.draw(st.floats(0.0, 1.5))
            hi1 = data.draw(st.floats(2.0, 9.0))
            hi2 = data.draw(st.floats(2.0, 9.0))
            vals = [hi1, hi2, lo]
            pts.append(rv(space, vals))
        raw = [data.draw(st.floats(0.01, 1.0)) for _ in pts]
        w = WeightVector(np.asarray(raw) / np.sum(raw))
        assert combo_mass_bound(pts, w, n=n, eps=eps) is True


class TestExtractBounded:
    def test_constant_sequence_returns_itself(self):
        f = rv(U2, [0.3, 0.7])
        s = SequenceSpec(U2, lambda n: f, 32)
        limit, trace = extract(s, Polytope([f]), tol=1e-9)
        assert np.allclose(limit.values, [0.3, 0.7], atol=1e-9)
        assert trace[-1].metric_step == 0.0

    def test_alternating_converges_to_mean(self):
        s = alternating_seq(64)
        limit, trace = extract(s, ambient_for(s), tol=1e-6)
        assert np.allclose(limit.values, [0.5, 0.5], atol=1e-5)

    def test_u_exactly_nonincreasing(self):
        s = alternating_seq(64)
        _, trace = extract(s, ambient_for(s), tol=1e-6)
        for prev, cur in zip(trace, trace[1:]):
            assert cur.u <= prev.u

    def test_weights_reproduce_iterate(self):
        s = alternating_seq(64)
        _, trace = extract(s, ambient_for(s), tol=1e-6)
        for state in trace:
            assert np.max(np.abs(state.recombined().values - state.g.values)) <= 1e-10
            total = sum(state.weights_dict().values())
            assert total == pytest.approx(1.0, abs=1e-12)
            assert all(n >= state.D for n in state.indices)

    def test_prefix_junk_does_not_move_limit(self):
        clean = alternating_seq(64)
        junk = rv(U2, [17.0, 3.0])
        rows = [[17.0, 3.0]] + [
            [1.0, 0.0] if n % 2 else [0.0, 1.0] for n in range(64)
        ]
        dirty = seq_from_values(U2, rows)
        lim_clean, _ = extract(clean, ambient_for(clean), tol=1e-6)
        lim_dirty, trace = extract(dirty, ambient_for(dirty), tol=1e-6)
        assert metric_d(lim_clean, lim_dirty) <= 2e-6
        # the accepted stage draws only on indices past the junk
        assert all(n >= 2 for n in trace[-1].indices)

    def test_slow_sequence_raises_nonconvergent(self):
        rows = [[1.0 / n, 0.0] for n in range(1, 65)]
        s = seq_from_values(U2, rows)
        with pytest.raises(NonConvergent):
            extract(s, ambient_for(s), tol=1e-9)

    def test_slow_sequence_converges_at_matching_tol(self):
        rows = [[1.0 / n, 0.0] for n in range(1, 65)]
        s = seq_from_values(U2, rows)
        limit, _ = extract(s, ambient_for(s), tol=0.01)
        assert limit.values[0] <= 1.0 / 32

    def test_input_validation(self):
        s = alternating_seq(8)
        with pytest.raises(InputError):
            extract(s, ambient_for(s), tol=0.0)
        # ambient set missing some terms
        with pytest.raises(InputError):
            extract(s, Polytope([rv(U2, [1.0, 0.0])]), tol=1e-6)

    def test_default_ambient_solves_one_weight_program(self, monkeypatch):
        # every term generates the ambient set, so the per-term precondition
        # needs no weight program; only the limit's membership check runs one
        calls = []
        real = cckit.convex._simplex_lsq

        def counting(A, b):
            calls.append(A.shape)
            return real(A, b)

        monkeypatch.setattr(cckit.convex, "_simplex_lsq", counting)
        rng = np.random.default_rng(5)
        space = ProbSpace.uniform(4)
        palette = rng.uniform(0.0, 2.0, size=(3, space.n))
        s = seq_from_values(space, [palette[n % 3] for n in range(512)])
        amb = ambient_for(s)
        limit, _ = extract(s, amb, tol=1e-6)
        assert len(calls) <= 1
        assert contains(amb, limit, 2e-6)

    def test_ambient_check_names_the_first_term_outside(self):
        # a term inside the hull that is no generator passes through the
        # weight program; a term outside is named by its index
        amb = Polytope([rv(U2, [1.0, -0.0]), rv(U2, [0.0, 1.0])])
        rows = [[1.0, 0.0] if n % 2 else [0.0, 1.0] for n in range(32)]
        extract(seq_from_values(U2, [[0.5, 0.5]] + rows), amb, tol=1e-6)
        with pytest.raises(InputError, match="^term 3 is not contained"):
            extract(seq_from_values(U2, rows[:2] + [[2.0, 0.0]] + rows), amb,
                    tol=1e-6)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_bounded_sequences_behave(self, data):
        space = ProbSpace.uniform(data.draw(st.integers(2, 3)))
        horizon = 16
        rows = [
            [data.draw(st.floats(0.0, 3.0)) for _ in range(space.n)]
            for _ in range(horizon)
        ]
        s = seq_from_values(space, rows)
        amb = ambient_for(s)
        try:
            limit, trace = extract(s, amb, tol=1e-3)
        except NonConvergent:
            return  # legitimate: horizon too short for the tolerance
        assert contains(amb, limit, 2e-3)
        for prev, cur in zip(trace, trace[1:]):
            assert cur.u <= prev.u
        for state in trace:
            assert np.max(np.abs(state.recombined().values - state.g.values)) <= 1e-10


class TestExtractEscape:
    def test_escaper_raises_unbounded_with_verified_certificate(self):
        s = escaping_seq(64)
        with pytest.raises(Unbounded) as ei:
            extract(s, ambient_for(s), tol=1e-6)
        cert = ei.value.certificate
        assert cert is not None
        assert cert.eps == pytest.approx(0.5, abs=1e-6)
        assert len(cert.combo_bound) == 2
        for inst in cert.combo_bound:
            assert inst["holds"] is True
            assert inst["precondition_verified"] is True
            # re-run the mass estimate from the recorded data
            pts = [s.term(i) for i in inst["indices"]]
            w = WeightVector([inst["weights"][str(i)] for i in inst["indices"]])
            assert combo_mass_bound(pts, w, n=inst["n"], eps=inst["eps"]) is True

    def test_certificate_serializes(self):
        s = escaping_seq(64)
        with pytest.raises(Unbounded) as ei:
            extract(s, ambient_for(s), tol=1e-6)
        obj = ei.value.certificate.to_json()
        text = json.dumps(obj)
        back = json.loads(text)
        assert set(back) == {"eps", "indices", "combo_bound", "delta", "thresholds"}

    def test_short_horizon_keeps_detector_off(self):
        # P[f_n >= n] = 1/2 here too, but with horizon 4 the detector's
        # floor (4 / horizon) disables it: four terms are no evidence of
        # escape, and the stationary tail maximizer converges instead.
        rows = [[float(n), 0.0] for n in range(1, 5)]
        s = seq_from_values(U2, rows)
        limit, _ = extract(s, ambient_for(s), tol=1e-12)
        assert np.allclose(limit.values, [4.0, 0.0], atol=1e-9)


class TestWarmStart:
    """Each stage after the first starts from the previous maximizer's
    weight on indices >= D; the gap, the bound u and the certificates are
    measured as before."""

    def test_escaper_counter_gate(self, monkeypatch):
        # cold starts re-add the same 8 vertices at every stage: 80
        # restricted solves and 4,758 Newton rounds on this escaper
        solves, rounds = [], []
        real_newton, real_lstsq = komlos._restricted_newton, np.linalg.lstsq

        def newton(*args):
            solves.append(1)
            return real_newton(*args)

        def lstsq(*args, **kwargs):
            rounds.append(1)
            return real_lstsq(*args, **kwargs)

        monkeypatch.setattr(komlos, "_restricted_newton", newton)
        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        s = diagonal_escaper(601)
        with pytest.raises(Unbounded) as ei:
            extract(s, ambient_for(s), tol=1e-6)
        stages = int(np.log2(ei.value.certificate.combo_bound[-1]["D"])) + 1
        assert len(rounds) <= 1000
        assert len(solves) <= 8 + 2 * (stages - 1)

    # noise 2.0 needs the restricted solve to re-solve without a blocked
    # zero-weight column: held at t = 0 instead, seeds 0-2 and 4-5 ran
    # into CG_VERTEX_CAP and raised SolverError
    @pytest.mark.parametrize("seed, noise", [
        (601, 0.0), (0, 0.5), (1, 0.5), (2, 0.5), (3, 0.5),
        *((seed, 2.0) for seed in range(6)),
    ])
    def test_escape_verdict_and_certificate(self, seed, noise):
        s = diagonal_escaper(seed, noise)
        with pytest.raises(Unbounded) as ei:
            extract(s, ambient_for(s), tol=1e-6)
        cert = ei.value.certificate
        assert len(cert.combo_bound) == 2
        for inst in cert.combo_bound:
            assert inst["holds"] is True and inst["precondition_verified"] is True
            assert all(i >= inst["D"] for i in inst["indices"])
            pts = [s.term(i) for i in inst["indices"]]
            w = WeightVector([inst["weights"][str(i)] for i in inst["indices"]])
            assert combo_mass_bound(pts, w, n=inst["n"], eps=inst["eps"]) is True

    @pytest.mark.parametrize("build", [
        lambda: geometric_seq(7),
        lambda: diagonal_escaper(3, noise=0.5, atoms=8, horizon=64),
        lambda: seq_from_values(U2, [[1.0 / n, 0.0] for n in range(1, 65)]),
    ], ids=["geometric", "short_escaper", "slow"])
    def test_stage_invariants(self, build):
        s = build()
        trace = []
        real = komlos.ExtractState

        def record(**kwargs):
            trace.append(real(**kwargs))
            return trace[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(komlos, "ExtractState", record)
            try:
                extract(s, ambient_for(s), tol=1e-6)
            except (Unbounded, NonConvergent):
                pass
        assert len(trace) >= 3
        for prev, cur in zip(trace, trace[1:]):
            assert cur.u <= prev.u
        for state in trace:
            assert all(n >= state.D for n in state.indices)
            assert state.gamma <= state.u
            assert np.max(np.abs(state.recombined().values - state.g.values)) <= 1e-10

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_warm_and_cold_agree(self, data):
        # the warm start extract builds: the maximizer over a longer tail,
        # cut to the columns of the shorter one and renormalized
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_atoms = data.draw(st.integers(2, 6))
        m = data.draw(st.integers(2, 24))
        head = data.draw(st.integers(1, m))
        pool = rng.uniform(0.0, data.draw(st.sampled_from([0.5, 3.0, 40.0])),
                           size=(n_atoms, head + m))
        p = rng.uniform(0.1, 1.0, size=n_atoms)
        p /= p.sum()
        slack = data.draw(st.sampled_from([1e-2, 1e-4, 1e-7]))
        w_long = komlos._maximize_tail_phi(pool, p, slack)[0][head:]
        cols = np.nonzero(w_long)[0]
        warm = (cols, w_long[cols] / w_long[cols].sum()) if cols.size else None
        tail = pool[:, head:]
        w_cold, g_cold, v_cold, gap_cold = komlos._maximize_tail_phi(tail, p, slack)
        w_warm, g_warm, v_warm, gap_warm = komlos._maximize_tail_phi(
            tail, p, slack, warm)
        assert gap_cold <= slack and gap_warm <= slack
        # each value is within its gap of the hull's supremum
        assert abs(v_cold - v_warm) <= slack + 1e-12
        for wf, gv in ((w_cold, g_cold), (w_warm, g_warm)):
            assert np.all(wf >= 0.0) and abs(float(wf.sum()) - 1.0) <= 1e-12
            assert np.max(np.abs(tail @ wf - gv)) <= 1e-9 * (1.0 + tail.max())

    def test_restricted_solve_does_not_stall_on_a_blocked_column(self):
        # more columns than atoms: the Newton step pushed the zero weight of
        # the best column negative, the ratio test held it at t = 0, and the
        # solve stayed at value 0.278 on columns 0-2
        A = np.array([[0.29, 0.36, 0.12, 0.32], [0.33, 0.43, 0.10, 0.49]])
        p = np.array([0.27, 0.73])
        w = komlos._restricted_newton(A, p, np.array([0.47, 0.03, 0.33, 0.17]))
        assert w.tolist() == [0.0, 0.0, 0.0, 1.0]
        assert komlos._phi_mean(p, A @ w) == komlos._phi_mean(p, A[:, 3])

    @pytest.mark.parametrize("seed", range(6))
    def test_best_vertex_matches_the_per_column_loop(self, seed):
        # tails of a settling geometric sequence hold identical columns, and
        # the random pools repeat columns on purpose: ties go to the lowest
        rng = np.random.default_rng(seed)
        s = geometric_seq(seed, atoms=64, horizon=1024)
        V, p = s.values_matrix(1), s.space.probs
        base = rng.uniform(0.0, 2.0, size=(64, 12))
        pools = [V[:, D - 1:] for D in (1, 2, 64, 512, 1024)]
        pools += [base[:, rng.integers(0, 12, size=40)] for _ in range(4)]
        for pool in pools:
            loop = [komlos._phi_mean(p, pool[:, j]) for j in range(pool.shape[1])]
            assert komlos._best_vertex(pool, p) == int(np.argmax(loop))


class TestTraceSerialization:
    def test_jsonl_lines_parse(self):
        s = alternating_seq(64)
        _, trace = extract(s, ambient_for(s), tol=1e-6)
        stages = [st.to_json() for st in trace]
        for stage in stages:
            assert set(stage) == {"D", "u", "gamma", "weights", "metric_d"}
            assert json.loads(json.dumps(stage)) == stage
        assert stages[0]["metric_d"] is None
        assert all(stage["metric_d"] is not None for stage in stages[1:])
