"""Correctness checks of the benchmark's stage outputs.

The checks rebuild what they need from the model data with plain numpy and
``scipy.optimize``: the stacked plan and its constraint rows come from a
literal rollout of the nominal dynamics, the successor plans from the
feedback law written out step by step, and the plant from its equations.
They do not call ``clrmpc.prediction``, ``clrmpc.qpsolver`` or
``sim.replay_states``.  Each check returns a list of failure messages;
an empty list means it passed.
"""

import copy

import numpy as np
from scipy.optimize import linprog, nnls

CONTAINMENT_TOL = 1e-7
FARKAS_TOL = 1e-6
OBJECTIVE_TOL = 1e-9
PROPAGATION_TOL = 1e-10
SIMPLEX_TOL = 1e-12
KKT_TOL = 1e-6
# rows this close to active may carry a small multiplier in an interior
# point solution (slack 3e-4 with multiplier 4e-4 occurs at boundary states)
ACTIVE_TOL = 1e-3


def _linear_map(fn, dim):
    """Matrix of a linear function, from its values on the unit vectors."""
    return np.column_stack([fn(e) for e in np.eye(dim)])


class PlanAlgebra:
    """The stacked plan s = [x; u_0; ...; u_{N-1}] of one certificate.

    ``rows`` maps a plan to its constraint values: stage rows
    F x_k + G u_k for k < N, then the terminal rows Y x_N.
    """

    def __init__(self, sys, w, c, cert):
        self.sys, self.w, self.c, self.cert = sys, w, c, cert
        self.n = cert.n
        self.n_x, self.n_u = sys.n_x, sys.n_u
        self.n_s = self.n_x + self.n * self.n_u
        self.y = np.asarray(cert.terminal.y, dtype=float)
        self.b_stack = np.concatenate([np.tile(c.b, self.n),
                                       np.asarray(cert.terminal.z, dtype=float)])
        self.bt = self.b_stack - np.asarray(cert.tightenings, dtype=float)
        self.a_plan = _linear_map(self.rows, self.n_s)
        self.traj = _linear_map(self.trajectory, self.n_s)

    def split(self, s):
        return s[:self.n_x], s[self.n_x:].reshape(self.n, self.n_u)

    def states(self, s):
        x, u = self.split(s)
        xs = [x]
        for k in range(self.n):
            xs.append(self.sys.a @ xs[-1] + self.sys.b @ u[k])
        return xs

    def trajectory(self, s):
        """[x_0; ...; x_N; u_0; ...; u_{N-1}] of the nominal plan."""
        return np.concatenate(self.states(s) + [s[self.n_x:]])

    def rows(self, s):
        xs = self.states(s)
        _, u = self.split(s)
        stage = [self.c.f @ xs[k] + self.c.g @ u[k] for k in range(self.n)]
        return np.concatenate(stage + [self.y @ xs[self.n]])

    def successor(self, j, v):
        """Constraint rows of the candidate successor plan at vertex j.

        v = [s; w].  The plant moves with Delta_j; the successor inputs are
        the shifted plan plus disturbance and perturbation feedback, and
        the last one closes the loop on the predicted terminal state.
        """
        sys, g = self.sys, self.cert.gains[j]
        s, w_vec = v[:self.n_s], v[self.n_s:]
        x, u = self.split(s)
        q = sys.d_x @ x + sys.d_u @ u[0] + sys.d_w @ w_vec
        x_next = (sys.a @ x + sys.b @ u[0] + sys.b_p @ (sys.deltas[j] @ q)
                  + sys.b_w @ w_vec)
        yv = np.concatenate([x, u[0]])
        mw = (g.m_gains @ (sys.b_w @ w_vec)).reshape(self.n, self.n_u)
        ky = (g.k_delta @ yv).reshape(self.n, self.n_u)
        u_next = np.empty((self.n, self.n_u))
        u_next[:-1] = u[1:] + mw[:-1] + ky[:-1]
        u_next[-1] = g.k_term @ self.states(s)[self.n] + mw[-1] + ky[-1]
        return self.rows(np.concatenate([x_next, u_next.ravel()]))

    def lifted(self):
        """The current plan set lifted with the disturbance set."""
        m_w, n_w = self.w.h.shape
        inner_h = np.zeros((self.a_plan.shape[0] + m_w, self.n_s + n_w))
        inner_h[:self.a_plan.shape[0], :self.n_s] = self.a_plan
        inner_h[self.a_plan.shape[0]:, self.n_s:] = self.w.h
        return inner_h, np.concatenate([self.bt, self.w.b])

    def outer(self, j):
        return _linear_map(lambda v: self.successor(j, v),
                           self.n_s + self.w.h.shape[1])

    def cost_matrix(self):
        """Q_s on the stacked trajectory: Q_x per stage, Q_N, Q_u per input."""
        n, n_x, n_u = self.n, self.n_x, self.n_u
        q_s = np.zeros(((n + 1) * n_x + n * n_u,) * 2)
        for k in range(n):
            q_s[k * n_x:(k + 1) * n_x, k * n_x:(k + 1) * n_x] = self.cert.q_x
            o = (n + 1) * n_x + k * n_u
            q_s[o:o + n_u, o:o + n_u] = self.cert.q_u
        q_s[n * n_x:(n + 1) * n_x, n * n_x:(n + 1) * n_x] = self.cert.cost.q_n
        return q_s


# -- synth-msd ---------------------------------------------------------------

def check_containment(alg):
    """Multiplier-free: every successor row's support over the lifted set,
    by HiGHS, stays below its tightened bound."""
    inner_h, inner_rhs = alg.lifted()
    failures = []
    for j in range(alg.sys.n_delta):
        outer = alg.outer(j)
        for r in range(outer.shape[0]):
            res = linprog(-outer[r], A_ub=inner_h, b_ub=inner_rhs,
                          bounds=(None, None), method="highs")
            if res.status != 0:
                failures.append(f"containment LP vertex {j} row {r}: "
                                f"{res.message}")
                continue
            slack = -res.fun - alg.bt[r]
            if slack > CONTAINMENT_TOL:
                failures.append(f"containment vertex {j} row {r}: "
                                f"slack {slack:.3e}")
    return failures


def check_farkas(alg):
    """lam >= 0, lam [A; H_w] = outer and lam [bt; h_w] <= bt, per vertex."""
    inner_h, inner_rhs = alg.lifted()
    failures = []
    for j, lam in enumerate(alg.cert.multipliers):
        lam = np.asarray(lam, dtype=float)
        res = {"negativity": max(0.0, -float(lam.min())),
               "equality": float(np.abs(lam @ inner_h - alg.outer(j)).max()),
               "inequality": float((lam @ inner_rhs - alg.bt).max())}
        for key, value in res.items():
            if value > FARKAS_TOL:
                failures.append(f"Farkas {key} residual vertex {j}: {value:.3e}")
    return failures


def check_objective(cert, b_stack, mu):
    """objective == |t|^2 - mu alpha, alpha > 0, -1e-12 <= t <= b_stack."""
    t = np.asarray(cert.tightenings, dtype=float)
    failures = []
    expected = float(t @ t) - mu * cert.alpha
    if abs(cert.objective - expected) > OBJECTIVE_TOL * (1.0 + abs(expected)):
        failures.append(f"objective {cert.objective!r} != |t|^2 - mu alpha "
                        f"= {expected!r}")
    if not cert.alpha > 0:
        failures.append(f"alpha {cert.alpha!r} is not positive")
    if t.min() < -1e-12:
        failures.append(f"tightening {t.min():.3e} below -1e-12")
    if np.any(t > b_stack):
        failures.append("tightening exceeds the constraint offsets")
    return failures


def check_trace(trace, objective):
    failures = []
    if not trace:
        return ["synthesis trace is empty"]
    for i in range(1, len(trace)):
        if trace[i] > trace[i - 1]:
            failures.append(f"trace increases at alternation {i}: "
                            f"{trace[i - 1]!r} -> {trace[i]!r}")
    if trace[-1] != objective:
        failures.append("last trace entry is not the certificate objective")
    return failures


def check_feasible_at(alg, x0):
    """HiGHS finds the tightened online QP feasible at x0."""
    a_x, a_u = alg.a_plan[:, :alg.n_x], alg.a_plan[:, alg.n_x:]
    res = linprog(np.zeros(a_u.shape[1]), A_ub=a_u, b_ub=alg.bt - a_x @ x0,
                  bounds=(None, None), method="highs")
    if res.status != 0:
        return [f"tightened online QP not feasible at x0: {res.message}"]
    return []


def check_synthesis(cert, trace, sys, w, c, mu, x0):
    alg = PlanAlgebra(sys, w, c, cert)
    return (check_containment(alg) + check_farkas(alg)
            + check_objective(cert, alg.b_stack, mu)
            + check_trace(trace, cert.objective)
            + check_feasible_at(alg, x0))


# -- closed-loop-msd ---------------------------------------------------------

def plant_step(sys, x, u, w_vec, weights):
    """x+ = A x + B u + B_p Delta (D_x x + D_u u + D_w w) + B_w w, with
    Delta the hull combination the run recorded."""
    delta = np.zeros_like(sys.deltas[0])
    for t, d in zip(weights, sys.deltas):
        delta = delta + t * d
    q = sys.d_x @ x + sys.d_u @ u + sys.d_w @ w_vec
    return sys.a @ x + sys.b @ u + sys.b_p @ (delta @ q) + sys.b_w @ w_vec


def check_run(traj, sys, w, c, x0, steps):
    """One recorded run: length, start, plant equations, disturbance set,
    hull weights and stage constraints."""
    failures = []
    if traj.infeasible_step is not None or traj.inputs.shape[0] != steps:
        return [f"run stopped at step {traj.inputs.shape[0]} of {steps}"]
    if not np.array_equal(traj.states[0], x0):
        failures.append("run does not start at x0")
    row_tol = 1e-7 * (1.0 + float(np.abs(c.b).max()))
    for k in range(steps):
        x, u = traj.states[k], traj.inputs[k]
        w_vec, tau = traj.disturbances[k], traj.delta_weights[k]
        x_next = plant_step(sys, x, u, w_vec, tau)
        err = float(np.abs(x_next - traj.states[k + 1]).max())
        if err > PROPAGATION_TOL * (1.0 + float(np.abs(x_next).max())):
            failures.append(f"step {k}: state off the plant equations by "
                            f"{err:.3e}")
        if np.any(w.h @ w_vec > w.b + SIMPLEX_TOL):
            failures.append(f"step {k}: disturbance outside W")
        if tau.min() < -SIMPLEX_TOL or abs(tau.sum() - 1.0) > SIMPLEX_TOL:
            failures.append(f"step {k}: hull weights off the simplex")
        over = float((c.f @ x + c.g @ u - c.b).max())
        if over > row_tol:
            failures.append(f"step {k}: stage row exceeded by {over:.3e}")
    if traj.violations:
        failures.append(f"run records violations {traj.violations[:3]}")
    return failures


def check_batch(runs, sys, w, c, cert, x0, steps, n_runs, mean_cost):
    failures = []
    if len(runs) != n_runs:
        failures.append(f"batch has {len(runs)} runs, expected {n_runs}")
    costs = []
    for i, traj in enumerate(runs):
        failures += [f"run {i}: {m}" for m in
                     check_run(traj, sys, w, c, x0, steps)]
        costs.append(sum(float(x @ cert.q_x @ x + u @ cert.q_u @ u)
                         for x, u in zip(traj.states[:-1], traj.inputs)))
    expected = float(np.mean(costs))
    if abs(mean_cost - expected) > 1e-9 * (1.0 + abs(expected)):
        failures.append(f"mean cost {mean_cost!r} != recomputed {expected!r}")
    return failures


class OnlineQp:
    """The online QP rebuilt from the plan algebra: min J(x, u) over the
    tightened rows, J the stacked trajectory cost.  ``accept_tol`` is the
    relative tolerance at which the solver accepts a solution."""

    def __init__(self, alg, accept_tol):
        self.alg = alg
        self.accept_tol = accept_tol
        q_s = alg.cost_matrix()
        self.q_s = q_s
        p_x, p_u = alg.traj[:, :alg.n_x], alg.traj[:, alg.n_x:]
        self.hess = 2.0 * p_u.T @ q_s @ p_u
        self.f_map = 2.0 * p_u.T @ q_s @ p_x
        self.x_cost = p_x.T @ q_s @ p_x
        self.curvature = float(np.linalg.eigvalsh(self.hess).min())
        self.a_u = alg.a_plan[:, alg.n_x:]
        self.g_x = alg.a_plan[:, :alg.n_x]

    def input_tol(self, x, value):
        """How far two accepted solutions at x may lie apart.  The solver
        accepts a mean complementarity of ``accept_tol`` (1 + |objective|),
        so a duality gap of ``rows`` times that; by strong convexity each
        solution then lies within sqrt(2 gap / curvature) of the optimum."""
        objective = value - float(x @ self.x_cost @ x)
        gap = self.a_u.shape[0] * self.accept_tol * (1.0 + abs(objective))
        return 2.0 * np.sqrt(2.0 * gap / self.curvature)

    def kkt(self, x, u_plan, value):
        """Failures of one solution: primal feasibility, stationarity with
        nonnegative multipliers on the near-active rows, complementarity of
        those multipliers, and its value."""
        failures = []
        rhs = self.alg.bt - self.g_x @ x
        scale = 1.0 + float(np.abs(rhs).max())
        slack = rhs - self.a_u @ u_plan
        if slack.min() < -1e-7 * scale:
            failures.append(f"infeasible by {-slack.min():.3e}")
        f = self.f_map @ x
        grad = self.hess @ u_plan + f
        # the solver's contract scales its KKT tolerance by its data norms
        tol = KKT_TOL * (1.0 + max(float(np.abs(self.hess).max()),
                                   float(np.abs(f).max())))
        active = slack <= ACTIVE_TOL * scale
        if active.any():
            lam, resid = nnls(self.a_u[active].T, -grad)
            comp = float(np.max(lam * np.maximum(slack[active], 0.0)))
        else:
            resid, comp = float(np.linalg.norm(grad)), 0.0
        if resid > tol:
            failures.append(f"stationarity residual {resid:.3e}")
        if comp > tol:
            failures.append(f"complementarity {comp:.3e}")
        traj = self.alg.traj @ np.concatenate([x, u_plan])
        cost = float(traj @ self.q_s @ traj)
        if abs(cost - value) > 1e-8 * (1.0 + abs(cost)):
            failures.append(f"value {value!r} != plan cost {cost!r}")
        return failures


def check_replay(qp, replay):
    """Every timed solve, given as (state, solution, loop input or None), is
    a KKT point and applies the loop's input, within solver tolerance."""
    failures = []
    for i, (x, sol, u_loop) in enumerate(replay):
        msgs = qp.kkt(x, np.asarray(sol.inputs, dtype=float).ravel(),
                      sol.value)
        if u_loop is not None:
            diff = float(np.linalg.norm(sol.u - u_loop))
            if diff > qp.input_tol(x, sol.value):
                msgs.append(f"replayed input differs from the loop's input "
                            f"by {diff:.3e}")
        if not np.array_equal(sol.u, sol.inputs[0]):
            msgs.append("applied input is not the plan's first input")
        failures += [f"replay {i}: {m}" for m in msgs]
    return failures


def boundary_scale(alg, d):
    """Largest t with the tightened online QP feasible at t d, by one LP
    over (u, t): a_u u + t (g_x d) <= bt."""
    a_x, a_u = alg.a_plan[:, :alg.n_x], alg.a_plan[:, alg.n_x:]
    cost = np.zeros(a_u.shape[1] + 1)
    cost[-1] = -1.0
    res = linprog(cost, A_ub=np.column_stack([a_u, a_x @ d]), b_ub=alg.bt,
                  bounds=(None, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"boundary LP failed: {res.message}")
    return float(res.x[-1])


def probe_states(alg, rng, count, fraction=None):
    """States along random rays: a fixed fraction of the way to the region
    boundary, or a uniform fraction in [0.05, 0.999] when none is given."""
    states = []
    for _ in range(count):
        d = rng.standard_normal(alg.n_x)
        d /= np.linalg.norm(d)
        frac = fraction if fraction is not None else rng.uniform(0.05, 0.999)
        states.append(frac * boundary_scale(alg, d) * d)
    return states


# -- verify-msd --------------------------------------------------------------

def check_report(report, srf_samples, lyapunov_samples):
    failures = []
    if not report.valid:
        failures.append("verification report is not valid")
    if report.srf_failures or report.lyapunov_failures:
        failures.append(f"report counts {report.srf_failures} SRF and "
                        f"{report.lyapunov_failures} Lyapunov failures")
    if (report.srf_samples, report.lyapunov_samples) != (srf_samples,
                                                         lyapunov_samples):
        failures.append("report sample counts differ from the request")
    return failures


def negate_one_multiplier(cert):
    """Copy of cert with its largest multiplier entry negated."""
    bad = copy.deepcopy(cert)
    lam = bad.multipliers[0]
    idx = np.unravel_index(int(np.argmax(lam)), lam.shape)
    lam[idx] = -lam[idx]
    return bad


def check_negation_flagged(residuals, tol):
    """The program's Farkas check must flag a negated multiplier."""
    if max(max(d.values()) for d in residuals) <= tol:
        return ["a negated multiplier passed the Farkas check"]
    return []
