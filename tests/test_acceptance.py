"""End-to-end acceptance suite.

Every promise the toolkit makes is pinned here with its tolerance: the
benchmark certificate passes both the multiplier check and the
multiplier-free geometric check, recursive feasibility holds at the
support LPs' maximizers and at scale over random hull mixtures of them,
the same check catches a first-stage tightening cut by 1% and noise of
1e-3 on one vertex's gains, closed-loop batches finish clean at the
reference cost and byte for byte as pinned, the terminal decrease
condition survives an independent eigensolver, the degenerate noise-free
model collapses to exact plan shifting, the QP solver agrees with
enumeration oracles, and the one-step shift identity holds algebraically
on random instances.
"""

import dataclasses

import numpy as np
import pytest

import oracles
from clrmpc import model, mpc, prediction, qpsolver, sim, verify
from clrmpc.utils import make_rng, sha256_hex

X0 = np.array([1.9, 0.5, -1.7, 1.7])
REFERENCE_MEAN_COST = 83.0
COST_BAND = 0.15
OFFLINE_BUDGET_S = 600.0


@pytest.fixture(scope="module")
def benchmark_batches(msd_controller):
    """25 closed-loop realizations of 60 steps in each uncertainty mode."""
    ctrl, sys_m, w_m, c_m = msd_controller
    fixed = sim.run_batch(ctrl, sys_m, w_m, X0, 60, 25, seed=1,
                          mode=sim.FIXED_DELTA)
    per_step = sim.run_batch(ctrl, sys_m, w_m, X0, 60, 25, seed=1,
                             mode=sim.PER_STEP_DELTA)
    return fixed, per_step


def test_benchmark_certificate_is_certified_two_ways(msd_certificate,
                                                     msd_synthesis_seconds):
    sys_m, w_m, c_m, cfg, cert, trace = msd_certificate
    assert msd_synthesis_seconds <= OFFLINE_BUDGET_S
    bundle = prediction.build_bundle(sys_m, c_m, cert.terminal.y,
                                     cert.terminal.z, cert.n)
    residuals = verify.check_farkas(cert, bundle, sys_m, w_m)
    assert len(residuals) == 4
    for res in residuals:
        assert max(res.values()) <= 1e-6
    # same condition as pure geometry: no multiplier is consulted
    values, _ = verify.shifted_set_inclusions(cert, bundle, sys_m, w_m)
    bt = bundle.tightened(cert.tightenings)
    assert values.shape == (4, bt.size)
    assert (values <= bt + verify.SAMPLE_TOL).all()
    # not vacuous: the origin lies in the lifted set (s, w) = 0
    assert bt.min() > 0.0
    assert w_m.b.min() > 0.0


def test_sampled_recursive_feasibility_at_scale(msd_controller,
                                                msd_certificate):
    ctrl, sys_m, w_m, c_m = msd_controller
    cert = msd_certificate[4]

    def check(cert_, samples):
        supports = verify.shifted_set_inclusions(cert_, ctrl.bundle, sys_m,
                                                 w_m)
        return verify.srf_monte_carlo(cert_, ctrl.bundle, sys_m, supports,
                                      samples, make_rng(101))

    clean = check(cert, 10000)
    assert clean.samples == 10000
    assert clean.failures == 0
    assert clean.worst_margin <= verify.SAMPLE_TOL

    # power check: a first-stage tightening halved or cut by 1%, and
    # seeded noise of 1e-3 on one vertex's disturbance gains, must each be
    # caught; the exact worst margins are 8.0e-2, 1.6e-3 and 2.6e-4
    n_c = c_m.b.shape[0]
    corrupted = []
    for factor in (0.5, 0.99):
        bad_t = cert.tightenings.copy()
        bad_t[n_c:2 * n_c] *= factor
        corrupted.append(dataclasses.replace(cert, tightenings=bad_t))
    gains = list(cert.gains)
    noise = 1e-3 * make_rng(5).standard_normal(gains[2].m_gains.shape)
    gains[2] = dataclasses.replace(gains[2],
                                   m_gains=gains[2].m_gains + noise)
    corrupted.append(dataclasses.replace(cert, gains=gains))
    for bad in corrupted:
        power = check(bad, 1000)
        assert power.failures >= 1
        assert power.worst_margin > verify.SAMPLE_TOL


def test_closed_loop_batches_finish_clean(benchmark_batches):
    for runs in benchmark_batches:
        stats = sim.batch_stats(runs)
        assert stats.infeasible_count == 0
        assert stats.violation_count == 0
        assert len(runs) == 25
        for traj in runs:
            assert traj.infeasible_step is None
            assert traj.violations == []
            assert traj.states.shape == (61, 4)
            assert traj.inputs.shape == (60, 2)


def test_closed_loop_trajectories_are_pinned(benchmark_batches):
    # every run's csv then the batch summary, fixed_delta then
    # per_step_delta; a change that moves the online solve in its last
    # digits updates this hash and says so
    text = "".join("".join(sim.trajectory_csv(traj) for traj in runs)
                   + sim.batch_summary_csv(runs)
                   for runs in benchmark_batches)
    assert sha256_hex(text) == (
        "1557515f3af339ee02886e035ee16bf8b149103545d643a46e0f028c7060d06b")


def test_closed_loop_never_reaches_the_interior_point(benchmark_batches,
                                                      msd_controller,
                                                      monkeypatch):
    # every online QP of the fixed_delta batch is answered by the
    # unconstrained law or the active-set rounds; a silent fall-back to
    # the interior point path shows here
    ctrl, sys_m, w_m, c_m = msd_controller
    calls = []
    real = qpsolver._interior_solve
    monkeypatch.setattr(qpsolver, "_interior_solve",
                        lambda prob: calls.append(prob) or real(prob))
    fixed = sim.run_batch(ctrl, sys_m, w_m, X0, 60, 25, seed=1,
                          mode=sim.FIXED_DELTA)
    assert calls == []
    assert all(np.array_equal(a.states, b.states)
               for a, b in zip(fixed, benchmark_batches[0]))


def test_benchmark_mean_cost_matches_reference(benchmark_batches):
    fixed, _ = benchmark_batches
    mean_cost = sim.batch_stats(fixed).mean_cost
    assert abs(mean_cost - REFERENCE_MEAN_COST) \
        <= COST_BAND * REFERENCE_MEAN_COST


def test_terminal_decrease_survives_independent_eigensolver(msd_controller,
                                                            msd_certificate):
    ctrl, sys_m, w_m, c_m = msd_controller
    cert = msd_certificate[4]
    bundle = ctrl.bundle
    n, n_x, n_u = bundle.n, bundle.n_x, bundle.n_u

    # rebuild the restricted decrease matrices from scratch and hand the
    # eigenproblem to a solver the package itself never uses
    q_s = np.zeros((bundle.n_rows, bundle.n_rows))
    q_s[:n * n_x, :n * n_x] = np.kron(np.eye(n), cert.q_x)
    q_s[n * n_x:(n + 1) * n_x, n * n_x:(n + 1) * n_x] = cert.cost.q_n
    q_s[(n + 1) * n_x:, (n + 1) * n_x:] = np.kron(np.eye(n), cert.q_u)
    h_uu = bundle.s_u.T @ q_s @ bundle.s_u
    phi = -np.linalg.solve(h_uu, bundle.s_u.T @ q_s @ bundle.s_x)
    pi = np.vstack([np.eye(n_x), phi])
    lhs = bundle.s_mat.T @ q_s @ bundle.s_mat
    assert sys_m.n_delta == 4
    for j in range(sys_m.n_delta):
        c_k, _ = prediction.build_gain_matrices(bundle, cert.gains[j],
                                                sys_m, j)
        g = pi.T @ (lhs - (1.0 + cert.cost.epsilon)
                    * c_k.T @ q_s @ c_k) @ pi
        assert np.linalg.eigvalsh(0.5 * (g + g.T))[0] >= 1e-6


def test_sampled_value_decrease_at_scale(msd_controller, msd_certificate):
    ctrl, sys_m, w_m, c_m = msd_controller
    check = verify.lyapunov_check(ctrl, sys_m, w_m, 1000, make_rng(7))
    assert check.samples == 1000
    assert check.failures == 0
    assert check.worst_margin <= verify.RESIDUAL_TOL


def test_value_decreases_strictly_without_disturbance(msd_controller,
                                                      msd_certificate):
    ctrl, sys_m, w_m, c_m = msd_controller
    cert = msd_certificate[4]
    w0 = np.zeros(sys_m.n_w)
    delta = sys_m.deltas[0]
    x = X0.copy()
    sol = mpc.solve_mpc(ctrl, x)
    for _ in range(600):
        nrm = float(np.linalg.norm(x))
        if nrm <= 1e-3:
            break
        x = sys_m.step(x, sol.u, w0, delta)
        nxt = mpc.solve_mpc(ctrl, x)
        assert nxt.value < sol.value
        assert nxt.value <= sol.value - cert.cost.p_margin * nrm ** 2 + 1e-9
        sol = nxt
    assert float(np.linalg.norm(x)) <= 1e-3


def test_degenerate_model_reduces_to_exact_shift(scalar_certain_controller):
    ctrl, sys_s, w_s, c_s = scalar_certain_controller
    cert = ctrl.certificate
    n_c = c_s.b.shape[0]

    # with no uncertainty and a point disturbance set every tightening
    # beyond the first block vanishes
    assert float(cert.tightenings[n_c:].max()) <= 1e-6

    a_lp = ctrl.bundle.h_xu @ ctrl.bundle.s_mat
    w0 = np.zeros(sys_s.n_w)
    delta0 = np.asarray(sys_s.deltas[0])

    def shift_margin(s):
        u_next = prediction.candidate_inputs(ctrl.bundle, cert.gains[0],
                                             sys_s, s, w0)
        x_plus = sys_s.step(s[:1], s[1:2], w0, delta0)
        return float((a_lp @ np.concatenate([x_plus, u_next])
                      - ctrl.bt).max())

    # the margin is convex in s, so checking every vertex of the
    # feasible plan set covers the whole set
    verts = oracles.polytope_vertices(a_lp, ctrl.bt)
    assert len(verts) >= 2
    for v in verts:
        assert shift_margin(np.asarray(v)) <= 1e-9

    supports = verify.shifted_set_inclusions(cert, ctrl.bundle, sys_s, w_s)
    check = verify.srf_monte_carlo(cert, ctrl.bundle, sys_s, supports, 200,
                                   make_rng(3))
    assert check.failures == 0
    assert check.worst_margin <= 1e-9

    # the online optimum itself, found by enumerating KKT systems over
    # all active sets, shifts into a feasible plan as well
    for xval in np.linspace(-0.9, 0.9, 7):
        x = np.array([xval])
        f_lin = ctrl.f_map @ x
        b_in = ctrl.bt - ctrl.g_map @ x
        found = oracles.brute_force_qp(ctrl.qp.h, f_lin, ctrl.a_in, b_in)
        assert found is not None
        u_opt, obj, _ = found
        sol = mpc.solve_mpc(ctrl, x)
        offset = float(x @ ctrl.v_map @ x)
        assert abs(obj + offset - sol.value) <= 1e-6
        assert np.abs(sol.inputs.ravel() - u_opt).max() <= 1e-6
        assert shift_margin(np.concatenate([x, u_opt])) <= 1e-9


def test_solver_matches_closed_form_kkt():
    rng = make_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        mmat = rng.normal(size=(n, n))
        h = mmat @ mmat.T + 0.5 * np.eye(n)
        f = rng.normal(size=n)
        a_eq = rng.normal(size=(m, n))
        b_eq = rng.normal(size=m)
        kkt = np.zeros((n + m, n + m))
        kkt[:n, :n] = h
        kkt[:n, n:] = a_eq.T
        kkt[n:, :n] = a_eq
        ref = np.linalg.solve(kkt, np.concatenate([-f, b_eq]))
        sol = qpsolver.solve_qp(qpsolver.QpProblem(h=h, f=f,
                                                   a_eq=a_eq, b_eq=b_eq))
        assert sol.status == qpsolver.OPTIMAL
        assert np.abs(sol.x - ref[:n]).max() <= 1e-6
        obj = 0.5 * ref[:n] @ h @ ref[:n] + f @ ref[:n]
        assert abs(sol.objective - obj) <= 1e-6 * (1.0 + abs(obj))
        scale = 1.0 + np.abs(ref[n:]).max(initial=0.0)
        assert np.abs(sol.eq_duals - ref[n:]).max() <= 1e-5 * scale


def test_lp_duality_gap_closes():
    rng = make_rng(43)
    for _ in range(120):
        n = int(rng.integers(2, 8))
        extra = rng.normal(size=(3, n))
        x_feas = rng.uniform(-0.4, 0.4, size=n)
        a_in = np.vstack([np.eye(n), -np.eye(n), extra])
        b_in = np.concatenate([np.ones(2 * n),
                               extra @ x_feas
                               + rng.uniform(0.1, 1.0, size=3)])
        f = rng.normal(size=n)
        sol = qpsolver.linear_program(f, a_in=a_in, b_in=b_in)
        assert sol.status == qpsolver.OPTIMAL
        z = sol.in_duals
        assert z.min() >= -1e-9
        # primal f'x, dual -b'z; both certify the optimum when they meet
        assert abs(f @ sol.x + b_in @ z) <= 1e-6
        assert np.abs(f + a_in.T @ z).max() <= 1e-6


def test_shift_identity_against_literal_reconstruction():
    rng = make_rng(5150)
    for _ in range(500):
        n_x = int(rng.integers(1, 6))
        n_u = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        n_p = int(rng.integers(1, 3))
        n_w = int(rng.integers(1, 3))
        n_delta = int(rng.integers(1, 4))
        n_c = int(rng.integers(1, 4))

        def mat(rows, cols, s=0.6):
            return s * rng.normal(size=(rows, cols)) / np.sqrt(cols)

        a = mat(n_x, n_x, 0.9)
        b = mat(n_x, n_u)
        sys_r = model.UncertainSystem(
            a=a, b=b, b_p=mat(n_x, n_p), b_w=mat(n_x, n_w),
            d_x=mat(n_p, n_x), d_u=mat(n_p, n_u), d_w=mat(n_p, n_w),
            deltas=[mat(n_p, n_p) for _ in range(n_delta)])
        c_r = model.ConstraintSet(f=mat(n_c, n_x), g=mat(n_c, n_u),
                                  b=np.ones(n_c))
        y = mat(1 + int(rng.integers(0, 2)), n_x)
        bundle = prediction.build_bundle(sys_r, c_r, y,
                                         np.ones(y.shape[0]), n)
        gains = prediction.GainSet(
            k_term=mat(n_u, n_x),
            m_gains=mat(n * n_u, n_x),
            k_delta=mat(n * n_u, n_x + n_u))
        j = int(rng.integers(0, n_delta))
        c_k, c_m = prediction.build_gain_matrices(bundle, gains, sys_r, j)

        s = rng.normal(size=n_x + n * n_u)
        w_vec = rng.normal(size=n_w)

        # reconstruct the successor stack from the raw dynamics alone,
        # without calling back into the prediction module's input law
        xs = [s[:n_x]]
        us = [s[n_x + i * n_u:n_x + (i + 1) * n_u] for i in range(n)]
        for i in range(n):
            xs.append(a @ xs[-1] + b @ us[i])
        delta = np.asarray(sys_r.deltas[j])
        q0 = (sys_r.d_x @ xs[0] + sys_r.d_u @ us[0]
              + sys_r.d_w @ w_vec)
        x_plus = (a @ xs[0] + b @ us[0]
                  + sys_r.b_p @ (delta @ q0) + sys_r.b_w @ w_vec)
        mw = (gains.m_gains @ (sys_r.b_w @ w_vec)).reshape(n, n_u)
        ky = (gains.k_delta @ s[:n_x + n_u]).reshape(n, n_u)
        u_next = [us[i + 1] + mw[i] + ky[i] for i in range(n - 1)]
        u_next.append(gains.k_term @ xs[n] + mw[n - 1] + ky[n - 1])
        nxt = [x_plus]
        for i in range(n):
            nxt.append(a @ nxt[-1] + b @ u_next[i])

        rhs = np.concatenate(nxt + u_next)
        lhs = c_k @ s + c_m @ w_vec
        assert np.abs(lhs - rhs).max() <= 1e-10
