import numpy as np
import pytest
from scipy.optimize import nnls

from clrmpc import mpc, qpsolver, sim, verify
from clrmpc.errors import FingerprintMismatch, MpcInfeasible

X0 = np.array([1.9, 0.5, -1.7, 1.7])


def _plan_states(sys_m, x, inputs):
    """The nominal plan's states, rolled out literally from x."""
    states = [np.asarray(x, dtype=float)]
    for u in inputs:
        states.append(sys_m.a @ states[-1] + sys_m.b @ u)
    return np.array(states)


def test_origin_solution_is_zero(msd_controller):
    ctrl, sys_m, w_m, c_m = msd_controller
    sol = mpc.solve_mpc(ctrl, np.zeros(4))
    assert np.abs(sol.u).max() <= 1e-9
    assert abs(sol.value) <= 1e-9
    assert np.abs(sol.inputs).max() <= 1e-8


def test_benchmark_state_feasible(msd_controller):
    ctrl, sys_m, w_m, c_m = msd_controller
    sol = mpc.solve_mpc(ctrl, X0)
    assert sol.inputs.shape == (ctrl.certificate.n, sys_m.n_u)
    assert np.array_equal(sol.u, sol.inputs[0])
    assert sol.value > 0.0


def test_plan_satisfies_dynamics_and_tightened_rows(msd_controller):
    ctrl, sys_m, w_m, c_m = msd_controller
    sol = mpc.solve_mpc(ctrl, X0)
    cert = ctrl.certificate
    n, n_c = cert.n, c_m.n_c
    states = _plan_states(sys_m, X0, sol.inputs)
    for i in range(n):
        row = c_m.f @ states[i] + c_m.g @ sol.inputs[i]
        bound = c_m.b - cert.tightenings[i * n_c:(i + 1) * n_c]
        assert (row - bound).max() <= 1e-7
    term = cert.terminal.y @ states[n]
    assert (term - (cert.terminal.z - cert.tightenings[n * n_c:])).max() <= 1e-7


def test_value_matches_plan_cost(msd_controller):
    ctrl, sys_m, w_m, c_m = msd_controller
    sol = mpc.solve_mpc(ctrl, X0)
    cert = ctrl.certificate
    states = _plan_states(sys_m, X0, sol.inputs)
    total = 0.0
    for i in range(cert.n):
        total += states[i] @ cert.q_x @ states[i]
        total += sol.inputs[i] @ cert.q_u @ sol.inputs[i]
    total += states[cert.n] @ cert.cost.q_n @ states[cert.n]
    assert sol.value == pytest.approx(total, abs=1e-8, rel=1e-8)


def test_condensed_matches_multiple_shooting(msd_controller):
    # same program with explicit state variables and dynamics equalities
    ctrl, sys_m, w_m, c_m = msd_controller
    cert = ctrl.certificate
    n, n_x, n_u, n_c = cert.n, sys_m.n_x, sys_m.n_u, c_m.n_c
    n_var = (n + 1) * n_x + n * n_u
    u_off = (n + 1) * n_x
    h = np.zeros((n_var, n_var))
    for i in range(n):
        sl = slice(i * n_x, (i + 1) * n_x)
        h[sl, sl] = 2.0 * cert.q_x
        su = slice(u_off + i * n_u, u_off + (i + 1) * n_u)
        h[su, su] = 2.0 * cert.q_u
    h[n * n_x:(n + 1) * n_x, n * n_x:(n + 1) * n_x] = 2.0 * cert.cost.q_n
    a_eq = np.zeros((n_x + n * n_x, n_var))
    b_eq = np.zeros(n_x + n * n_x)
    a_eq[:n_x, :n_x] = np.eye(n_x)
    b_eq[:n_x] = X0
    for i in range(n):
        rows = slice(n_x + i * n_x, n_x + (i + 1) * n_x)
        a_eq[rows, (i + 1) * n_x:(i + 2) * n_x] = -np.eye(n_x)
        a_eq[rows, i * n_x:(i + 1) * n_x] = sys_m.a
        a_eq[rows, u_off + i * n_u:u_off + (i + 1) * n_u] = sys_m.b
    n_y = cert.terminal.y.shape[0]
    a_in = np.zeros((n * n_c + n_y, n_var))
    for i in range(n):
        rows = slice(i * n_c, (i + 1) * n_c)
        a_in[rows, i * n_x:(i + 1) * n_x] = c_m.f
        a_in[rows, u_off + i * n_u:u_off + (i + 1) * n_u] = c_m.g
    a_in[n * n_c:, n * n_x:(n + 1) * n_x] = cert.terminal.y
    b_in = np.concatenate([np.tile(c_m.b, n), cert.terminal.z])
    b_in -= cert.tightenings
    ref = qpsolver.solve_qp(qpsolver.QpProblem(
        h=h, f=np.zeros(n_var), a_eq=a_eq, b_eq=b_eq,
        a_in=a_in, b_in=b_in))
    assert ref.status == qpsolver.OPTIMAL
    sol = mpc.solve_mpc(ctrl, X0)
    assert sol.value == pytest.approx(ref.objective, abs=1e-6, rel=1e-6)
    assert np.abs(sol.u - ref.x[u_off:u_off + n_u]).max() <= 1e-5


def test_far_state_infeasible(msd_controller):
    ctrl, sys_m, w_m, c_m = msd_controller
    bad = np.array([50.0, 0.0, 0.0, 0.0])
    with pytest.raises(MpcInfeasible) as err:
        mpc.solve_mpc(ctrl, bad)
    assert np.allclose(err.value.state, bad)


def test_value_quadratic_lower_bound(msd_controller):
    ctrl, sys_m, w_m, c_m = msd_controller
    lam = float(np.linalg.eigvalsh(ctrl.q_x).min())
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6, size=4)
        sol = mpc.solve_mpc(ctrl, x)
        assert sol.value >= lam * float(x @ x) - 1e-8


def _ray_states(ctrl, rng, fractions):
    """States at the given fractions of the way to the region boundary,
    along seeded random rays."""
    states = []
    for frac in fractions:
        d = rng.standard_normal(ctrl.bundle.n_x)
        d /= np.linalg.norm(d)
        states.append(frac * verify._boundary_scale(ctrl, d) * d)
    return states


def _online_qp(ctrl, x):
    return ctrl.qp.with_vectors(ctrl.f_map @ x, ctrl.bt - ctrl.g_map @ x)


def _assert_kkt_point(ctrl, x, plan):
    """Feasibility and, by nnls over the near-active rows, stationarity
    with nonnegative multipliers."""
    rhs = ctrl.bt - ctrl.g_map @ x
    scale = 1.0 + np.abs(rhs).max()
    slack = rhs - ctrl.a_in @ plan
    assert slack.min() >= -1e-7 * scale
    f = ctrl.f_map @ x
    grad = ctrl.qp.h @ plan + f
    active = slack <= 1e-6 * scale
    if active.any():
        _, resid = nnls(ctrl.a_in[active].T, -grad)
    else:
        resid = np.linalg.norm(grad)
    assert resid <= 1e-6 * (1.0 + max(np.abs(ctrl.qp.h).max(), np.abs(f).max()))


def test_fast_path_agrees_with_interior_point(msd_controller):
    # seeded interior states, states at 0.999 of the boundary and visited
    # closed-loop states: the online answer is a KKT point and lies within
    # the distance two solutions accepted at ACCEPT_TOL can have
    ctrl, sys_m, w_m, c_m = msd_controller
    rng = np.random.default_rng(5)
    states = _ray_states(ctrl, rng, rng.uniform(0.05, 0.999, size=60))
    states += _ray_states(ctrl, rng, [0.999] * 60)
    runs = sim.run_batch(ctrl, sys_m, w_m, X0, 60, 3, seed=2)
    states += [x for run in runs for x in run.states[:-1]]
    m = ctrl.a_in.shape[0]
    curvature = np.linalg.eigvalsh(ctrl.qp.h).min()
    took_rounds = 0
    for x in states:
        sol = mpc.solve_mpc(ctrl, x)
        ref = qpsolver.solve_qp(_online_qp(ctrl, x))
        assert ref.status == qpsolver.OPTIMAL
        plan = sol.inputs.ravel()
        gap = m * qpsolver.ACCEPT_TOL * (1.0 + abs(ref.objective))
        assert np.linalg.norm(plan - ref.x) <= 2.0 * np.sqrt(2.0 * gap / curvature)
        _assert_kkt_point(ctrl, x, plan)
        started = qpsolver.solve_qp(_online_qp(ctrl, x), start=ctrl.law @ x)
        took_rounds += started.iterations > 0
    # the active-set rounds ran, not only the unconstrained law
    assert took_rounds > 0


def test_states_just_outside_the_region_raise(msd_controller):
    ctrl, sys_m, w_m, c_m = msd_controller
    for x in _ray_states(ctrl, np.random.default_rng(9), [1.001] * 10):
        with pytest.raises(MpcInfeasible):
            mpc.solve_mpc(ctrl, x)


def _phase1_feasible(ctrl, x):
    """True when one LP relaxes the online rows at x uniformly by no more
    than the solver's acceptance tolerance."""
    b = ctrl.bt - ctrl.g_map @ x
    m, n = ctrl.a_in.shape
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    rows = np.block([[ctrl.a_in, -np.ones((m, 1))],
                     [np.zeros((1, n)), -np.ones((1, 1))]])
    sol = qpsolver.linear_program(cost, a_in=rows, b_in=np.append(b, 0.0))
    assert sol.status == qpsolver.OPTIMAL
    return sol.x[-1] <= qpsolver.ACCEPT_TOL * (1.0 + np.abs(b).max())


def test_roa_boundary_bisection(msd_controller):
    # scale the benchmark start outward until the feasible set is left;
    # the controller must agree with a phase-1 LP on both sides
    ctrl, sys_m, w_m, c_m = msd_controller
    d = X0 / np.linalg.norm(X0)
    lo, hi = 0.0, 1.0
    while _phase1_feasible(ctrl, hi * d):
        lo, hi = hi, 2.0 * hi
        assert hi < 1e6
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if _phase1_feasible(ctrl, mid * d):
            lo = mid
        else:
            hi = mid
    assert hi - lo <= 1e-9 * max(1.0, hi)
    assert verify._boundary_scale(ctrl, d) == pytest.approx(lo, rel=1e-6)
    inner = (lo - 1e-6) * d
    outer = (hi + 1e-6) * d
    assert np.isfinite(mpc.solve_mpc(ctrl, inner).value)
    with pytest.raises(MpcInfeasible):
        mpc.solve_mpc(ctrl, outer)


def test_fingerprint_mismatch_rejected(msd_certificate):
    from clrmpc import model
    sys_m, w_m, c_m, cfg, cert, trace = msd_certificate
    other = model.ConstraintSet(f=c_m.f, g=c_m.g, b=c_m.b * 1.01)
    with pytest.raises(FingerprintMismatch):
        mpc.make_controller(sys_m, w_m, other, cert)


def test_state_validation(msd_controller):
    ctrl, sys_m, w_m, c_m = msd_controller
    with pytest.raises(ValueError):
        mpc.solve_mpc(ctrl, np.zeros(3))
    with pytest.raises(ValueError):
        mpc.solve_mpc(ctrl, np.array([np.nan, 0.0, 0.0, 0.0]))


def test_scalar_certain_controller_origin(scalar_certain_controller):
    ctrl, sys, w, c = scalar_certain_controller
    sol = mpc.solve_mpc(ctrl, np.zeros(1))
    assert abs(sol.value) <= 1e-9
    assert np.abs(sol.u).max() <= 1e-9
