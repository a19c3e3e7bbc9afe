import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from clrmpc import model, mpc, qpsolver, synthesis, verify
from clrmpc.errors import DimensionMismatch
from clrmpc.qpsolver import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    QpProblem,
    QpSolution,
    linear_program,
    solve_qp,
)

from oracles import brute_force_qp, highs_lp


def test_scalar_bound_qp():
    # min (x-2)^2 s.t. x <= 1: solution pinned at the bound, dual = 2
    prob = QpProblem(h=[[2.0]], f=[-4.0], a_in=[[1.0]], b_in=[1.0])
    sol = solve_qp(prob)
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-7)
    assert sol.in_duals[0] == pytest.approx(2.0, abs=1e-6)


def test_unconstrained_qp():
    prob = QpProblem(h=np.diag([2.0, 4.0]), f=[-2.0, -4.0])
    sol = solve_qp(prob)
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-7)


def test_equality_only_qp():
    # min ||x||^2 s.t. x1 + x2 = 2 -> x = (1, 1), dual = -2 with our sign
    prob = QpProblem(h=2 * np.eye(2), f=[0.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[2.0])
    sol = solve_qp(prob)
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-8)
    # stationarity: h x + f + a' y = 0 -> 2 + y = 0
    assert sol.eq_duals[0] == pytest.approx(-2.0, abs=1e-7)


def test_box_lp_vertex():
    # min -x1 - 2 x2 over unit box -> (1, 1)
    sol = linear_program(
        [-1.0, -2.0],
        a_in=np.vstack([np.eye(2), -np.eye(2)]),
        b_in=[1.0, 1.0, 0.0, 0.0],
    )
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-7)
    assert sol.objective == pytest.approx(-3.0, abs=1e-7)


def test_infeasible_lp_detected():
    sol = linear_program([1.0], a_in=[[1.0], [-1.0]], b_in=[-2.0, 1.0])
    assert sol.status == INFEASIBLE


def test_unbounded_lp_detected():
    sol = linear_program([-1.0], a_in=[[-1.0]], b_in=[0.0])
    assert sol.status == UNBOUNDED


def test_lp_status_decides_feasibility():
    # a zero objective leaves the status as the feasibility verdict
    box = np.vstack([np.eye(2), -np.eye(2)])
    ok = linear_program(np.zeros(2), a_in=box, b_in=[1, 1, 1, 1])
    assert ok.status == OPTIMAL
    assert (box @ ok.x <= 1.0 + 1e-7).all()
    bad = linear_program([0.0], a_in=[[1.0], [-1.0]], b_in=[-2.0, 1.0])
    assert bad.status == INFEASIBLE


def test_lp_status_decides_feasibility_with_equalities():
    box = np.vstack([np.eye(2), -np.eye(2)])
    ok = linear_program(np.zeros(2), a_in=box, b_in=[1, 1, 1, 1],
                        a_eq=[[1.0, 1.0]], b_eq=[1.5])
    assert ok.status == OPTIMAL
    assert ok.x[0] + ok.x[1] == pytest.approx(1.5, abs=1e-6)
    bad = linear_program(np.zeros(2), a_in=box, b_in=[1, 1, 1, 1],
                         a_eq=[[1.0, 0.0], [1.0, 0.0]], b_eq=[0.0, 1.0])
    assert bad.status == INFEASIBLE


def test_kkt_check_is_the_verdict():
    # min |x - (1, 1, 0)|^2 s.t. sum x = 1, x0 <= 0 (active, dual 2),
    # sum x <= 3 and x1 <= 5 (both inactive): x = (0, 1, 0), y = 0
    prob = QpProblem(h=2 * np.eye(3), f=[-2.0, -2.0, 0.0],
                     a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0],
                     a_in=[[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]],
                     b_in=[0.0, 3.0, 5.0])
    sol = solve_qp(prob)
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.in_duals, [2.0, 0.0, 0.0], atol=1e-7)
    scales = qpsolver._scales(prob)
    x, y, z = sol.x, sol.eq_duals, sol.in_duals
    assert qpsolver._kkt_check(prob, x, y, z, *scales) is not None
    # each perturbation breaks exactly one of the four conditions
    off_stationary = x + 1e-3 * np.array([0.0, 1.0, -1.0])
    assert qpsolver._kkt_check(prob, off_stationary, y, z, *scales) is None
    pushed = dataclasses.replace(prob, b_in=np.array([0.0, 3.0, x[1] - 1e-3]))
    assert qpsolver._kkt_check(pushed, x, y, z, *scales) is None
    # the active dual negated on the mirrored row keeps stationarity
    mirrored = dataclasses.replace(
        prob, a_in=prob.a_in * np.array([[-1.0], [1.0], [1.0]]))
    negated = z * np.array([-1.0, 1.0, 1.0])
    assert qpsolver._kkt_check(mirrored, x, y, negated, *scales) is None
    # a dual on the inactive sum row, moved off the equality dual
    slack_dual = z + np.array([0.0, 0.5, 0.0])
    assert qpsolver._kkt_check(prob, x, y - 0.5, slack_dual, *scales) is None
    # a non-finite entry anywhere fails the verdict
    for vec, i in ((x, 1), (y, 0), (z, 1)):
        bad = vec.copy()
        bad[i] = np.nan
        args = [bad if v is vec else v for v in (x, y, z)]
        assert qpsolver._kkt_check(prob, *args, *scales) is None


def test_determinism():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 4))
    h = m.T @ m + 0.5 * np.eye(4)
    f = rng.standard_normal(4)
    g = rng.standard_normal((8, 4))
    b = rng.random(8) + 0.5
    p1 = QpProblem(h=h, f=f, a_in=g, b_in=b)
    p2 = QpProblem(h=h.copy(), f=f.copy(), a_in=g.copy(), b_in=b.copy())
    s1, s2 = solve_qp(p1), solve_qp(p2)
    assert s1.status == s2.status
    assert np.array_equal(s1.x, s2.x)
    assert s1.objective == s2.objective


def test_cholesky_kkt_solve_matches_scipy_wrappers():
    # the direct LAPACK path must reproduce cho_factor / cho_solve plus one
    # refinement pass bit for bit, for each solve with the one factor;
    # sizes include 14, the plan-support LP's
    rng = np.random.default_rng(11)
    reg = qpsolver.REG
    for n in range(1, 21):
        a_in = rng.standard_normal((6 * n, n))
        d = 10.0 ** rng.uniform(-3.0, 3.0, 6 * n)
        hbar = (a_in / d[:, None]).T @ a_in
        kmat = hbar + reg * np.eye(n)
        fac = sla.cho_factor(kmat, lower=True, check_finite=False)
        solve = qpsolver._kkt_solver(hbar, np.zeros((0, n)), reg)
        for rhs in rng.standard_normal((2, n)):
            sol = sla.cho_solve(fac, rhs, check_finite=False)
            ref = sol + sla.cho_solve(fac, rhs - kmat @ sol, check_finite=False)
            dx, dy = solve(rhs, np.zeros(0))
            assert np.array_equal(dx, ref), f"n = {n}"
            assert dy.shape == (0,)


def test_indefinite_kkt_falls_back_to_ldl(monkeypatch):
    real_ldl = qpsolver.sla.ldl
    calls = []

    def counting_ldl(*args, **kwargs):
        calls.append(args[0].shape)
        return real_ldl(*args, **kwargs)

    monkeypatch.setattr(qpsolver.sla, "ldl", counting_ldl)
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    hbar = q @ np.diag([3.0, -2.0, 1.5, -1.0, 2.5, 1.0, -3.0, 2.0]) @ q.T
    hbar = 0.5 * (hbar + hbar.T)
    rhs = rng.standard_normal(8)
    reg = qpsolver.REG
    dx, _ = qpsolver._kkt_solver(hbar, np.zeros((0, 8)), reg)(rhs, np.zeros(0))
    assert calls == [(8, 8)]
    residual = (hbar + reg * np.eye(8)) @ dx - rhs
    assert np.abs(residual).max() <= 1e-10 * np.abs(rhs).max()


def _kkt_oracle(h, f, a, b):
    n = f.shape[0]
    me = a.shape[0]
    kkt = np.zeros((n + me, n + me))
    kkt[:n, :n] = h
    kkt[:n, n:] = a.T
    kkt[n:, :n] = a
    return np.linalg.solve(kkt, np.concatenate([-f, b]))


def test_random_equality_qps_match_kkt():
    # closed-form KKT oracle over 200 random strictly convex problems
    rng = np.random.default_rng(20260816)
    for trial in range(200):
        n = int(rng.integers(2, 9))
        me = int(rng.integers(1, n))
        m = rng.standard_normal((n + 2, n))
        h = m.T @ m + 0.1 * np.eye(n)
        f = rng.standard_normal(n)
        a = rng.standard_normal((me, n))
        b = rng.standard_normal(me)
        ref = _kkt_oracle(h, f, a, b)
        sol = solve_qp(QpProblem(h=h, f=f, a_eq=a, b_eq=b))
        assert sol.status == OPTIMAL, f"trial {trial}"
        scale = 1.0 + np.abs(ref[:n]).max()
        assert np.abs(sol.x - ref[:n]).max() <= 1e-6 * scale, f"trial {trial}"
        assert np.abs(sol.eq_duals - ref[n:]).max() <= 1e-6 * (1 + np.abs(ref[n:]).max())


def test_random_lps_duality_gap():
    # bounded random LPs: primal-dual gap certified at 1e-6
    rng = np.random.default_rng(99)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        mi = int(rng.integers(n + 1, 2 * n + 4))
        g = np.vstack([rng.standard_normal((mi, n)), np.eye(n), -np.eye(n)])
        b = np.concatenate([rng.random(mi) + 0.2, np.full(2 * n, 5.0)])
        f = rng.standard_normal(n)
        sol = linear_program(f, a_in=g, b_in=b)
        assert sol.status == OPTIMAL, f"trial {trial}"
        gap = float(f @ sol.x + b @ sol.in_duals)
        scale = 1.0 + abs(sol.objective)
        assert abs(gap) <= 1e-6 * scale, f"trial {trial}: gap {gap}"
        # stationarity of the dual certificate
        stat = f + g.T @ sol.in_duals
        assert np.abs(stat).max() <= 1e-6 * (1 + np.abs(f).max())


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_inequality_qps_match_bruteforce(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    mi = int(rng.integers(1, 6))
    m = rng.standard_normal((n + 1, n))
    h = m.T @ m + 0.3 * np.eye(n)
    f = rng.standard_normal(n)
    g = rng.standard_normal((mi, n))
    b = rng.random(mi) + 0.3  # origin strictly feasible
    ref = brute_force_qp(h, f, g, b)
    assert ref is not None
    prob = QpProblem(h=h, f=f, a_in=g, b_in=b)
    # cold, and from the unconstrained minimizer through the active-set rounds
    for sol in (solve_qp(prob), solve_qp(prob, start=-np.linalg.solve(h, f))):
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(ref[1], abs=1e-6 * (1 + abs(ref[1])))
        np.testing.assert_allclose(sol.x, ref[0],
                                   atol=1e-5 * (1 + np.abs(ref[0]).max()))


def test_kkt_conditions_on_mixed_qp():
    rng = np.random.default_rng(3)
    n, me, mi = 6, 2, 10
    m = rng.standard_normal((n, n))
    h = m.T @ m + np.eye(n)
    f = rng.standard_normal(n)
    a = rng.standard_normal((me, n))
    b = a @ rng.standard_normal(n)
    g = rng.standard_normal((mi, n))
    hvec = g @ np.linalg.lstsq(a, b, rcond=None)[0] + rng.random(mi) + 0.1
    sol = solve_qp(QpProblem(h=h, f=f, a_eq=a, b_eq=b, a_in=g, b_in=hvec))
    assert sol.status == OPTIMAL
    x, y, z = sol.x, sol.eq_duals, sol.in_duals
    scale_d = 1 + np.abs(h).max() + np.abs(f).max()
    assert np.abs(h @ x + f + a.T @ y + g.T @ z).max() <= 1e-6 * scale_d
    assert np.abs(a @ x - b).max() <= 1e-6 * (1 + np.abs(b).max())
    viol = g @ x - hvec
    assert viol.max() <= 1e-7 * (1 + np.abs(hvec).max())
    assert np.all(z >= 0)
    assert np.abs(z * viol).max() <= 1e-6 * (1 + abs(sol.objective))


def test_lp_encoded_as_zero_hessian():
    sol = linear_program([2.0, 1.0], a_in=[[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]],
                         b_in=[0.0, 0.0, -1.0])
    assert sol.status == OPTIMAL
    # cheapest point of the simplex-like region: put weight on x2
    assert sol.objective == pytest.approx(1.0, abs=1e-6)


def test_solution_type():
    sol = linear_program([1.0], a_in=[[-1.0]], b_in=[0.0])
    assert isinstance(sol, QpSolution)
    assert sol.iterations >= 1
    assert np.isfinite(sol.kkt_residual)


def _boxed_qp():
    # min |x - (3, -2, 0.5)|^2 over the box |x_i| <= 1: x = (1, -1, 0.5)
    return QpProblem(h=2 * np.eye(3), f=[-6.0, 4.0, -1.0],
                     a_in=np.vstack([np.eye(3), -np.eye(3)]), b_in=np.ones(6))


def test_start_rounds_reach_the_interior_point_answer():
    prob = _boxed_qp()
    cold = solve_qp(prob)
    # the unconstrained minimizer violates two rows: one round
    sol = solve_qp(prob, start=[3.0, -2.0, 0.5])
    assert sol.status == OPTIMAL and sol.iterations == 1
    np.testing.assert_allclose(sol.x, [1.0, -1.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(sol.in_duals, [4.0, 0, 0, 0, 2.0, 0], atol=1e-12)
    np.testing.assert_allclose(sol.x, cold.x, atol=1e-7)
    np.testing.assert_allclose(sol.in_duals, cold.in_duals, atol=1e-6)
    # a start at the optimum touches the two active rows: one round
    at_opt = solve_qp(prob, start=[1.0, -1.0, 0.5])
    assert at_opt.status == OPTIMAL and at_opt.iterations == 1
    np.testing.assert_allclose(at_opt.x, [1.0, -1.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(at_opt.in_duals, [4.0, 0, 0, 0, 2.0, 0], atol=1e-12)
    # an unconstrained minimizer inside the box is accepted as it stands
    inner = solve_qp(prob.with_vectors([-1.0, 0.4, -0.2]), start=[0.5, -0.2, 0.1])
    assert inner.iterations == 0
    assert np.array_equal(inner.x, [0.5, -0.2, 0.1])
    assert np.array_equal(inner.in_duals, np.zeros(6))


def test_misleading_start_still_returns_the_interior_point_answer(monkeypatch):
    prob = _boxed_qp()
    cold = solve_qp(prob)
    far = solve_qp(prob, start=[-50.0, 80.0, -9.0])
    assert far.status == OPTIMAL
    np.testing.assert_allclose(far.x, cold.x, atol=1e-7)
    # with no rounds left the interior point path answers, bit for bit
    monkeypatch.setattr(qpsolver, "ACTIVE_SET_ROUNDS", 0)
    calls = []
    real = qpsolver._interior_solve
    monkeypatch.setattr(qpsolver, "_interior_solve",
                        lambda p: calls.append(p) or real(p))
    sol = solve_qp(prob, start=[3.0, -2.0, 0.5])
    assert len(calls) == 1
    assert np.array_equal(sol.x, cold.x)
    assert sol.iterations == cold.iterations


def test_start_is_ignored_with_equality_rows_or_zero_hessian(monkeypatch):
    eq_qp = QpProblem(h=2 * np.eye(2), f=[-2.0, 0.0], a_eq=[[1.0, 1.0]],
                      b_eq=[0.0], a_in=[[1.0, 0.0]], b_in=[0.25])
    lp = QpProblem(h=np.zeros((2, 2)), f=[-1.0, -1.0],
                   a_in=np.vstack([np.eye(2), -np.eye(2)]), b_in=np.ones(4))
    cold = [solve_qp(eq_qp), solve_qp(lp)]

    def no_rounds(*args):
        raise AssertionError("start taken")

    monkeypatch.setattr(qpsolver, "_active_set", no_rounds)
    for prob, ref in zip((eq_qp, lp), cold):
        sol = solve_qp(prob, start=[0.25, -0.25])
        assert sol.status == OPTIMAL
        assert np.array_equal(sol.x, ref.x)


def test_start_is_checked():
    prob = _boxed_qp()
    with pytest.raises(DimensionMismatch):
        solve_qp(prob, start=[1.0, 0.0])
    with pytest.raises(ValueError):
        solve_qp(prob, start=[np.nan, 0.0, 0.0])


def test_with_vectors_shares_matrices_and_checks_new_vectors():
    prob = _boxed_qp()
    new = prob.with_vectors([1.0, 2.0, 3.0], b_in=np.full(6, 2.0))
    assert new.h is prob.h and new.a_in is prob.a_in and new.a_eq is prob.a_eq
    assert np.array_equal(new.f, [1.0, 2.0, 3.0])
    assert np.array_equal(new.b_in, np.full(6, 2.0))
    assert np.array_equal(prob.f, [-6.0, 4.0, -1.0])
    assert prob.with_vectors(np.zeros(3)).b_in is prob.b_in
    with pytest.raises(DimensionMismatch):
        prob.with_vectors(np.zeros(4))
    with pytest.raises(DimensionMismatch):
        prob.with_vectors(np.zeros(3), b_in=np.ones(5))
    with pytest.raises(ValueError):
        prob.with_vectors([np.inf, 0.0, 0.0])
    with pytest.raises(ValueError):
        prob.with_vectors(np.zeros(3), b_in=np.full(6, np.nan))


COMMITTED = (Path(__file__).resolve().parents[1] / "perfbench"
             / "msd_certificate.txt")


def _bounded_lp_stack(seed, k):
    """k objectives over one random polytope inside the box |x_i| <= 5 that
    holds the origin strictly."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    mi = int(rng.integers(n + 1, 2 * n + 4))
    g = np.vstack([rng.standard_normal((mi, n)), np.eye(n), -np.eye(n)])
    b = np.concatenate([rng.random(mi) + 0.2, np.full(2 * n, 5.0)])
    return rng.standard_normal((k, n)), g, b


def _assert_stack_matches(fs, a_in, b_in, sols):
    # every member against its own 1-D call and against HiGHS
    scale_p = 1.0 + np.abs(b_in).max()
    for f, sol in zip(fs, sols):
        single = linear_program(f, a_in=a_in, b_in=b_in)
        status, value = highs_lp(f, a_in, b_in)
        assert sol.status == single.status == OPTIMAL and status == 0
        tol = 10 * qpsolver.TARGET_TOL * (1.0 + abs(single.objective))
        assert abs(sol.objective - single.objective) <= tol
        assert abs(sol.objective - value) <= 1e-7 * (1.0 + abs(value))
        assert (a_in @ sol.x <= b_in + qpsolver.TARGET_TOL * scale_p).all()


def test_stacked_lps_match_single_calls_and_highs():
    for seed in range(30):
        fs, g, b = _bounded_lp_stack(seed, 6)
        _assert_stack_matches(fs, g, b, linear_program(fs, a_in=g, b_in=b))


def test_stacked_msd_support_lps_match_single_calls_and_highs():
    # two of verify's 96-row stacks over the lifted set {(s, w)}
    sys_m, w_m, c_m = model.build_msd()
    cert = synthesis.read_certificate(COMMITTED.read_text())
    ctrl = mpc.make_controller(sys_m, w_m, c_m, cert)
    inner_h, inner_rhs, outers, _ = verify._stacked_sets(cert, ctrl.bundle,
                                                         sys_m, w_m)
    for outer in (outers[0], outers[3]):
        sols = linear_program(-outer, a_in=inner_h, b_in=inner_rhs)
        assert len(sols) == 96
        _assert_stack_matches(-outer, inner_h, inner_rhs, sols)


def test_stack_over_an_empty_polytope_is_infeasible_for_every_member():
    fs = np.array([[1.0], [-1.0], [0.0]])
    sols = linear_program(fs, a_in=[[1.0], [-1.0]], b_in=[-2.0, 1.0])
    assert [s.status for s in sols] == [INFEASIBLE] * 3


def test_stack_member_unbounded_above_is_the_only_unbounded_one():
    # x0 >= 0 is unbounded above, -1 <= x1 <= 1
    a_in = [[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    b_in = [0.0, 1.0, 1.0]
    fs = np.array([[0.0, 1.0], [-1.0, 0.0], [1.0, -1.0]])
    sols = linear_program(fs, a_in=a_in, b_in=b_in)
    assert [s.status for s in sols] == [OPTIMAL, UNBOUNDED, OPTIMAL]
    assert sols[0].objective == pytest.approx(-1.0, abs=1e-9)
    assert sols[2].objective == pytest.approx(-1.0, abs=1e-9)


def test_stalled_member_is_solved_again_on_its_own(monkeypatch):
    fs, g, b = _bounded_lp_stack(3, 5)
    clean = linear_program(fs, a_in=g, b_in=b)
    single = linear_program(fs[2], a_in=g, b_in=b)
    real_residuals = qpsolver._Stack.residuals

    def stalled(self, live, x, y, s, z):
        # member 2's residuals stop moving, so the stall guard ends it
        rd, re, ri, mu = real_residuals(self, live, x, y, s, z)
        hit = live == 2
        rd[hit], ri[hit], mu[hit] = 1.0, 1.0, 1.0
        return rd, re, ri, mu

    real_solve = qpsolver.solve_qp
    calls = []
    monkeypatch.setattr(qpsolver._Stack, "residuals", stalled)
    monkeypatch.setattr(qpsolver, "solve_qp",
                        lambda prob: calls.append(prob) or real_solve(prob))
    sols = linear_program(fs, a_in=g, b_in=b)
    assert len(calls) == 1 and np.array_equal(calls[0].f, fs[2])
    assert np.array_equal(sols[2].x, single.x)
    assert sols[2].iterations == single.iterations
    for i in (0, 1, 3, 4):
        assert np.array_equal(sols[i].x, clean[i].x)


def test_singular_member_leaves_the_stack(monkeypatch):
    # a batched solve that meets an exactly singular matrix is redone
    # member by member; the singular member leaves for its own solve
    fs, g, b = _bounded_lp_stack(5, 4)
    real = np.linalg.solve
    seen = []

    def solve(a, rhs):
        seen.append(a.ndim)
        if a.ndim == 3 and len(seen) == 5:
            raise np.linalg.LinAlgError("Singular matrix")
        if a.ndim == 2 and seen.count(2) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, rhs)

    monkeypatch.setattr(np.linalg, "solve", solve)
    sols = linear_program(fs, a_in=g, b_in=b)
    monkeypatch.undo()
    assert seen.count(2) == 4
    _assert_stack_matches(fs, g, b, sols)


def test_stack_is_deterministic_and_checks_its_input():
    fs, g, b = _bounded_lp_stack(7, 5)
    one, two = (linear_program(fs, a_in=g, b_in=b) for _ in range(2))
    for s1, s2 in zip(one, two):
        assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.in_duals,
                                                             s2.in_duals)
        assert (s1.objective, s1.iterations) == (s2.objective, s2.iterations)
    assert linear_program(fs[:0], a_in=g, b_in=b) == []
    with pytest.raises(DimensionMismatch):
        linear_program(fs, a_in=g, b_in=b, a_eq=g[:1], b_eq=b[:1])
    with pytest.raises(DimensionMismatch):
        linear_program(fs[:, :-1], a_in=g, b_in=b)
    with pytest.raises(ValueError):
        linear_program(np.full_like(fs, np.nan), a_in=g, b_in=b)
