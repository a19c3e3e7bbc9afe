"""Independent certification of a synthesized tightening certificate.

Nothing here trusts the synthesis pipeline: multiplier identities are
re-evaluated from the stored data, set inclusions are decided by row-wise
support LPs that never look at the multipliers, recursive feasibility is
tested by literally propagating the plant and the stored feedback law from
those LPs' maximizers and random hull mixtures of them, the terminal
cost's decrease condition is recomputed from the certificate's gains and
q_n, and the value-function decrease is checked one closed-loop step at a
time.  Failures are counted, never repaired.
"""

from dataclasses import dataclass

import numpy as np

from . import model, mpc, prediction, qpsolver, terminal
from .errors import ModelFormatError, MpcInfeasible, SolverFailure
from .utils import VECTOR, read_keyed, write_keyed

RESIDUAL_TOL = 1e-6
SAMPLE_TOL = 1e-7
# relative allowance below p_margin for the recomputed terminal slack
SLACK_ALLOWANCE = 1e-9

REPORT_HEADER = "# verification report, toolkit text format v1"

REPORT_KEYS = {
    "farkas_negativity": VECTOR, "farkas_equality": VECTOR,
    "farkas_inequality": VECTOR, "srf_samples": int, "srf_failures": int,
    "srf_worst_margin": float, "lyapunov_samples": int,
    "lyapunov_failures": int, "lyapunov_worst_margin": float,
    "terminal_slack": float, "p_margin": float,
    "valid": int,  # the verdict is written as 0 or 1
}


@dataclass
class VerificationReport:
    """Aggregated outcome; valid only if every residual and count clears.

    farkas_residuals holds one dict per hull vertex with keys negativity,
    equality, inequality, each a nonnegative residual.  Each worst margin
    is its check's closest approach to violation: a certificate with room
    reports a clearly negative number.  terminal_slack is the terminal
    cost's decrease-condition margin recomputed from the certificate, and
    p_margin the margin the certificate claims for it.
    """

    farkas_residuals: list
    srf_samples: int
    srf_failures: int
    srf_worst_margin: float
    lyapunov_samples: int
    lyapunov_failures: int
    lyapunov_worst_margin: float
    terminal_slack: float
    p_margin: float

    @property
    def valid(self):
        return (farkas_clean(self.farkas_residuals) and self.srf_failures == 0
                and self.lyapunov_failures == 0
                and self.terminal_slack
                >= self.p_margin * (1.0 - SLACK_ALLOWANCE))


def farkas_residuals(lam, inner_h, inner_rhs, outer_h, outer_rhs):
    """Residuals of one multiplier pair certifying inclusion of H-sets.

    lam certifies {x : inner_h x <= inner_rhs} inside
    {x : outer_h x <= outer_rhs} when lam >= 0, lam inner_h = outer_h and
    lam inner_rhs <= outer_rhs.  negativity and equality are nonnegative
    defect magnitudes; inequality is the raw worst slack, so a negative
    value shows how much room the certificate has.
    """
    lam = np.asarray(lam, dtype=float)
    neg = max(0.0, -float(lam.min())) if lam.size else 0.0
    eq = float(np.abs(lam @ inner_h - outer_h).max())
    ineq = float((lam @ inner_rhs - outer_rhs).max())
    return {"negativity": neg, "equality": eq, "inequality": ineq}


def farkas_clean(residuals):
    """True when every residual of every vertex is within RESIDUAL_TOL."""
    return all(max(d.values()) <= RESIDUAL_TOL for d in residuals)


def _stacked_sets(cert, bundle, sys, w):
    """Current-step set (lifted with w) and the per-vertex successor maps."""
    bt = bundle.tightened(cert.tightenings)
    n_t, n_s = bundle.a_lp.shape
    m_w = w.h.shape[0]
    inner_h = np.zeros((n_t + m_w, n_s + w.dim))
    inner_h[:n_t, :n_s] = bundle.a_lp
    inner_h[n_t:, n_s:] = w.h
    inner_rhs = np.concatenate([bt, w.b])
    outers = [prediction.successor_rows(bundle, cert.gains[j], sys, j)
              for j in range(sys.n_delta)]
    return inner_h, inner_rhs, outers, bt


def check_farkas(cert, bundle, sys, w):
    """Re-evaluate the stored multipliers against freshly built maps.

    This is the one Farkas check: synthesis gates its certificate on it
    too, with farkas_clean.
    """
    inner_h, inner_rhs, outers, bt = _stacked_sets(cert, bundle, sys, w)
    return [farkas_residuals(lam, inner_h, inner_rhs, outer_h, bt)
            for lam, outer_h in zip(cert.multipliers, outers)]


def _support_lps(outer_h, inner_h, inner_rhs):
    """Maximize each outer row over {z : inner_h z <= inner_rhs}.

    One LP per row, none skipped, solved as one stack over the shared
    inner set: returns each row's value and a maximizer (a row of the
    returned matrix).  An empty inner set, certified as an infeasible LP,
    gives -inf values; a row unbounded above gives +inf.  Such rows have
    NaN points.
    """
    if outer_h.shape[1] != inner_h.shape[1]:
        raise ValueError("polytopes live in different ambient dimensions")
    values = np.full(outer_h.shape[0], np.inf)
    points = np.full(outer_h.shape, np.nan)
    sols = qpsolver.linear_program(-outer_h, a_in=inner_h, b_in=inner_rhs)
    for i, (row, sol) in enumerate(zip(outer_h, sols)):
        if sol.status == qpsolver.INFEASIBLE:
            return np.full(outer_h.shape[0], -np.inf), points
        if sol.status == qpsolver.UNBOUNDED:
            continue
        if sol.status != qpsolver.OPTIMAL:
            raise SolverFailure("support LP ended with " + sol.status)
        values[i] = row @ sol.x
        points[i] = sol.x
    return values, points


def shifted_set_inclusions(cert, bundle, sys, w):
    """The gain condition as pure geometry: every successor row's support.

    The lifted current set {(s, w)} must map into the tightened set under
    each vertex's one-step matrices.  Returns (values, points): values[j, i]
    is the maximum of vertex j's successor row i over the lifted set and
    points[j, i] a maximizer (s, w).  The inclusion holds where
    values <= bt + SAMPLE_TOL; no multiplier is consulted.
    """
    inner_h, inner_rhs, outers, _ = _stacked_sets(cert, bundle, sys, w)
    values, points = zip(*(_support_lps(outer_h, inner_h, inner_rhs)
                           for outer_h in outers))
    return np.array(values), np.array(points)


def _successor_values(bundle, sys, z, delta, u_next):
    """Constraint rows at the plant's literal successor of z = (s, w) and
    the plan u_next."""
    n_x, n_u = bundle.n_x, bundle.n_u
    x_next = sys.step(z[:n_x], z[n_x:n_x + n_u], z[bundle.n_s:], delta)
    return bundle.h_xu @ (bundle.s_mat @ np.concatenate([x_next, u_next]))


@dataclass
class SampleCheck:
    samples: int
    failures: int
    worst_margin: float


def srf_monte_carlo(cert, bundle, sys, supports, samples, rng):
    """Recursive feasibility of the stored feedback law, propagated literally.

    A vertex's successor margin is affine in (s, w), so it peaks at one of
    the maximizers in supports (from shifted_set_inclusions).  Each goes
    through the plant with its vertex's candidate plan, and fails on a
    literal or LP margin above SAMPLE_TOL, or on a literal row that misses
    the LP's value by more.  Each sample then draws a row and hull weights
    tau: the tau-mixed candidate at sum tau_j delta_j and the tau-mixture
    of that row's maximizers.
    """
    if int(samples) < 1:
        raise ValueError("samples must be positive")
    values, points = supports
    bt = bundle.tightened(cert.tightenings)
    n_s = bundle.n_s
    failures = 0
    worst = -np.inf

    def candidate(j, z):
        return prediction.candidate_inputs(bundle, cert.gains[j], sys,
                                           z[:n_s], z[n_s:])

    for j, delta in enumerate(sys.deltas):
        for i, (value, z) in enumerate(zip(values[j], points[j])):
            if not np.isfinite(value):
                # -inf: the lifted set is empty; +inf: unbounded along row i
                failures += int(value > 0)
                continue
            rows = _successor_values(bundle, sys, z, delta, candidate(j, z))
            margin = float(max((rows - bt).max(), value - bt[i]))
            worst = max(worst, margin)
            if margin > SAMPLE_TOL or abs(rows[i] - value) > SAMPLE_TOL:
                failures += 1
    for _ in range(int(samples)):
        i = int(rng.integers(values.shape[1]))
        tau = rng.dirichlet(np.ones(sys.n_delta))
        if not np.isfinite(values[:, i]).all():
            continue
        z = tau @ points[:, i]
        mix = sum(t * d for t, d in zip(tau, sys.deltas))
        u_mix = sum(t * candidate(j, z) for j, t in enumerate(tau))
        margin = float((_successor_values(bundle, sys, z, mix, u_mix)
                        - bt).max())
        worst = max(worst, margin)
        if margin > SAMPLE_TOL:
            failures += 1
    return SampleCheck(samples=int(samples), failures=failures,
                       worst_margin=worst)


def _boundary_scale(ctrl, direction):
    """Largest t with t * direction in the feasible set, by one LP.

    Maximizes t over (u, t) subject to a_in u + t (g_map direction) <= bt,
    which is the online QP's feasibility condition along the ray.
    """
    cost = np.zeros(ctrl.a_in.shape[1] + 1)
    cost[-1] = -1.0
    sol = qpsolver.linear_program(
        cost, a_in=np.column_stack([ctrl.a_in, ctrl.g_map @ direction]),
        b_in=ctrl.bt)
    if sol.status == qpsolver.UNBOUNDED:
        raise SolverFailure("feasible set appears unbounded along ray")
    if sol.status != qpsolver.OPTIMAL:
        raise SolverFailure("boundary LP ended with " + sol.status)
    return float(sol.x[-1])


def lyapunov_check(ctrl, sys, w, samples, rng):
    """Sampled one-step decrease of the online optimal value.

    Each sample checks V(x+) - V(x) <= (1 + 1/eps) |c_m(tau) w|^2_Qs
    - p_margin |x|^2, where c_m(tau) = sum_j tau_j c_m[j] mixes the
    vertex disturbance maps.  The bound holds for every hull decomposition
    tau of the applied uncertainty: mixing the vertex candidates with tau
    gives a feasible successor plan whose cost splits by Young's
    inequality into a state part, bounded through the per-vertex decrease
    condition, and this disturbance term.  So the weights model.sample_delta
    drew with the uncertainty, a valid decomposition, must satisfy it.
    A sample whose online QP, at the state or at its successor, is
    infeasible or fails numerically also counts as a failure: the decrease
    bound presumes the controller stays solvable one step ahead.

    This tests the online value function, not the terminal cost's decrease
    condition, which terminal_slack recomputes: near the origin, where that
    condition matters, the disturbance term does not shrink with |x| and
    swamps the p_margin |x|^2 term.
    """
    if int(samples) < 1:
        raise ValueError("samples must be positive")
    bundle, cert = ctrl.bundle, ctrl.certificate
    q_s = terminal.stack_cost(bundle, cert.q_x, cert.q_u, cert.cost.q_n)
    c_m_vertex = [prediction.build_gain_matrices(bundle, g, sys, j)[1]
                  for j, g in enumerate(cert.gains)]
    growth = 1.0 + 1.0 / cert.cost.epsilon
    failures = 0
    worst = -np.inf
    for _ in range(int(samples)):
        d = rng.standard_normal(bundle.n_x)
        d /= np.linalg.norm(d)
        scale = _boundary_scale(ctrl, d)
        frac = 0.999 if rng.random() < 0.5 else rng.random()
        x = (scale * frac) * d
        w_vec = model.sample_disturbance(w, rng)
        delta, tau = model.sample_delta(sys, rng)
        try:
            sol = mpc.solve_mpc(ctrl, x)
            v_next = mpc.solve_mpc(ctrl, sys.step(x, sol.u, w_vec, delta)).value
        except (MpcInfeasible, SolverFailure):
            # finite sentinel so a failed report still serializes
            failures += 1
            worst = max(worst, 1e30)
            continue
        vec = sum(t * cm for t, cm in zip(tau, c_m_vertex)) @ w_vec
        lam2 = growth * float(vec @ (q_s @ vec))
        margin = (v_next - sol.value - lam2
                  + cert.cost.p_margin * float(x @ x))
        worst = max(worst, margin)
        if margin > RESIDUAL_TOL:
            failures += 1
    return SampleCheck(samples=int(samples), failures=failures,
                       worst_margin=worst)


def terminal_slack(cert, bundle, sys):
    """Margin of the terminal cost's decrease condition, recomputed from the
    certificate's gains, q_n and epsilon; the stored slack is not read."""
    c_k = [prediction.build_gain_matrices(bundle, g, sys, j)[0]
           for j, g in enumerate(cert.gains)]
    return terminal.terminal_cost_slack(bundle, c_k, cert.q_x, cert.q_u,
                                        cert.cost.q_n, cert.cost.epsilon)


def verify_certificate(cert, sys, w, c, srf_samples, lyapunov_samples, rng):
    """Full independent pass.  One set of support LPs, a stack of one LP
    per successor row for each vertex, decides both the multiplier-free
    inclusion and recursive feasibility, so a certificate whose
    containment fails gets an invalid report, whatever its multipliers
    say.  The terminal cost's decrease condition is recomputed and must
    reach the certificate's p_margin."""
    ctrl = mpc.make_controller(sys, w, c, cert)
    bundle = ctrl.bundle
    residuals = check_farkas(cert, bundle, sys, w)
    supports = shifted_set_inclusions(cert, bundle, sys, w)
    srf = srf_monte_carlo(cert, bundle, sys, supports, srf_samples, rng)
    lyap = lyapunov_check(ctrl, sys, w, lyapunov_samples, rng)
    return VerificationReport(
        farkas_residuals=residuals,
        srf_samples=srf.samples,
        srf_failures=srf.failures,
        srf_worst_margin=srf.worst_margin,
        lyapunov_samples=lyap.samples,
        lyapunov_failures=lyap.failures,
        lyapunov_worst_margin=lyap.worst_margin,
        terminal_slack=terminal_slack(cert, bundle, sys),
        p_margin=cert.cost.p_margin,
    )


def write_report(report):
    """Serialize a report to keyed text; one line of derived verdict."""
    return write_keyed(REPORT_HEADER, {
        "farkas_negativity": np.asarray(
            [d["negativity"] for d in report.farkas_residuals]),
        "farkas_equality": np.asarray(
            [d["equality"] for d in report.farkas_residuals]),
        "farkas_inequality": np.asarray(
            [d["inequality"] for d in report.farkas_residuals]),
        "srf_samples": report.srf_samples,
        "srf_failures": report.srf_failures,
        "srf_worst_margin": report.srf_worst_margin,
        "lyapunov_samples": report.lyapunov_samples,
        "lyapunov_failures": report.lyapunov_failures,
        "lyapunov_worst_margin": report.lyapunov_worst_margin,
        "terminal_slack": report.terminal_slack,
        "p_margin": report.p_margin,
        "valid": report.valid,
    })


def read_report(text):
    """Parse a serialized report; the stored verdict must match the data."""
    entries = read_keyed(text, REPORT_HEADER, REPORT_KEYS, "report")
    neg = entries["farkas_negativity"].tolist()
    eq = entries["farkas_equality"].tolist()
    ineq = entries["farkas_inequality"].tolist()
    if not len(neg) == len(eq) == len(ineq):
        raise ModelFormatError("report: residual lists disagree in length")
    report = VerificationReport(
        farkas_residuals=[
            {"negativity": a, "equality": b, "inequality": c}
            for a, b, c in zip(neg, eq, ineq)],
        srf_samples=entries["srf_samples"],
        srf_failures=entries["srf_failures"],
        srf_worst_margin=entries["srf_worst_margin"],
        lyapunov_samples=entries["lyapunov_samples"],
        lyapunov_failures=entries["lyapunov_failures"],
        lyapunov_worst_margin=entries["lyapunov_worst_margin"],
        terminal_slack=entries["terminal_slack"],
        p_margin=entries["p_margin"],
    )
    if entries["valid"] != report.valid:
        raise ModelFormatError("report: stored verdict contradicts the data")
    return report
