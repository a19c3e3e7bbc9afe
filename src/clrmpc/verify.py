"""Independent certification of a synthesized tightening certificate.

Nothing here trusts the synthesis pipeline: multiplier identities are
re-evaluated from the stored data, set inclusions are decided by row-wise
support LPs that never look at the multipliers, recursive feasibility is
Monte-Carlo tested by literally propagating the plant and the stored
feedback law, and the value-function decrease is checked one closed-loop
step at a time.  Failures are counted, never repaired.
"""

from dataclasses import dataclass

import numpy as np

from . import model, mpc, prediction, qpsolver, terminal
from .errors import ModelFormatError, MpcInfeasible, SolverFailure
from .utils import VECTOR, read_keyed, write_keyed

RESIDUAL_TOL = 1e-6
SAMPLE_TOL = 1e-7
INCLUSION_TOL = 1e-7

REPORT_HEADER = "# verification report, toolkit text format v1"

REPORT_KEYS = {
    "farkas_negativity": VECTOR, "farkas_equality": VECTOR,
    "farkas_inequality": VECTOR, "srf_samples": int, "srf_failures": int,
    "srf_worst_margin": float, "lyapunov_samples": int,
    "lyapunov_failures": int, "lyapunov_worst_margin": float,
    "valid": int,  # the verdict is written as 0 or 1
}


@dataclass
class VerificationReport:
    """Aggregated outcome; valid only if every residual and count clears.

    farkas_residuals holds one dict per hull vertex with keys negativity,
    equality, inequality, each a nonnegative residual.  worst_margin is
    the closest approach to violation over all sampled checks, so a
    comfortable certificate reports a clearly negative number.
    """

    farkas_residuals: list
    srf_samples: int
    srf_failures: int
    srf_worst_margin: float
    lyapunov_samples: int
    lyapunov_failures: int
    lyapunov_worst_margin: float

    @property
    def worst_margin(self):
        return max(self.srf_worst_margin, self.lyapunov_worst_margin)

    @property
    def valid(self):
        return (farkas_clean(self.farkas_residuals) and self.srf_failures == 0
                and self.lyapunov_failures == 0)


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


def contains(outer_h, outer_rhs, inner_h, inner_rhs):
    """Decide polytope inclusion by support LPs, one per outer row.

    Inclusion holds iff every outer row's support over the inner set
    stays below its bound.  An empty inner set makes the inclusion
    vacuously true; the solver certifies it as an infeasible support LP.
    """
    outer_h = np.asarray(outer_h, dtype=float)
    outer_rhs = np.asarray(outer_rhs, dtype=float)
    inner_h = np.asarray(inner_h, dtype=float)
    inner_rhs = np.asarray(inner_rhs, dtype=float)
    if outer_h.shape[1] != inner_h.shape[1]:
        raise ValueError("polytopes live in different ambient dimensions")
    for row, bound in zip(outer_h, outer_rhs):
        sol = qpsolver.linear_program(-row, a_in=inner_h, b_in=inner_rhs)
        if sol.status == qpsolver.INFEASIBLE:
            return True
        if sol.status == qpsolver.UNBOUNDED:
            return False
        if sol.status != qpsolver.OPTIMAL:
            raise SolverFailure("support LP ended with " + sol.status)
        if row @ sol.x > bound + INCLUSION_TOL:
            return False
    return True


def shifted_set_inclusions(cert, bundle, sys, w):
    """The gain condition as pure geometry, one inclusion per vertex.

    The lifted current set {(s, w)} must map into the tightened set under
    each vertex's one-step matrices; decided entirely by support LPs so
    the multipliers are never consulted.
    """
    inner_h, inner_rhs, outers, bt = _stacked_sets(cert, bundle, sys, w)
    return [contains(outer_h, bt, inner_h, inner_rhs)
            for outer_h in outers]


def _successor_margin(bundle, sys, bt, s, w_vec, delta, u_next):
    """Constraint margin of one literal one-step candidate.

    The successor state follows the plant equations at the given
    uncertainty matrix; the candidate plan is supplied by the caller.
    Positive return means some tightened row is violated.
    """
    n_x, n_u = bundle.n_x, bundle.n_u
    x_next = sys.step(s[:n_x], s[n_x:n_x + n_u], w_vec, delta)
    stacked = bundle.s_mat @ np.concatenate([x_next, u_next])
    return float((bundle.h_xu @ stacked - bt).max())


def _sample_point(a_lp, bt, rng, pool):
    """Point in the tightened set: LP vertex or mixture of earlier draws."""
    if len(pool) >= 2 and rng.random() < 0.5:
        take = min(len(pool), 4)
        idx = rng.choice(len(pool), size=take, replace=False)
        wts = rng.dirichlet(np.ones(take))
        return sum(t * pool[i] for t, i in zip(wts, idx))
    sol = qpsolver.linear_program(rng.standard_normal(a_lp.shape[1]),
                                  a_in=a_lp, b_in=bt)
    if sol.status != qpsolver.OPTIMAL:
        raise SolverFailure("sampling LP ended with " + sol.status)
    pool.append(sol.x.copy())
    return sol.x


@dataclass
class SampleCheck:
    samples: int
    failures: int
    worst_margin: float


def srf_monte_carlo(cert, bundle, sys, w, samples, rng):
    """Sampled recursive feasibility of the stored feedback law.

    Each sample draws a point of the tightened set, a disturbance, and a
    hull vertex, then checks the literal one-step candidate built with
    that vertex's gains; a second check moves to a random interior
    uncertainty matrix and mixes the per-vertex candidates with the same
    hull weights, which is the convex-combination argument made concrete.
    """
    if int(samples) < 1:
        raise ValueError("samples must be positive")
    bt = bundle.tightened(cert.tightenings)
    pool = []
    failures = 0
    worst = -np.inf
    for _ in range(int(samples)):
        s = _sample_point(bundle.a_lp, bt, rng, pool)
        w_vec = model.sample_disturbance(w, rng)
        cands = [prediction.candidate_inputs(bundle, g, sys, s, w_vec)
                 for g in cert.gains]
        j = int(rng.integers(sys.n_delta))
        margin = _successor_margin(bundle, sys, bt, s, w_vec,
                                   sys.deltas[j], cands[j])
        tau = rng.dirichlet(np.ones(sys.n_delta))
        mix = sum(t * d for t, d in zip(tau, sys.deltas))
        u_mix = sum(t * u for t, u in zip(tau, cands))
        inner = _successor_margin(bundle, sys, bt, s, w_vec, mix, u_mix)
        for m in (margin, inner):
            worst = max(worst, m)
            if m > SAMPLE_TOL:
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


def verify_certificate(cert, sys, w, c, srf_samples, lyapunov_samples, rng):
    """Full independent pass; also insists on the multiplier-free
    inclusion route agreeing with the multipliers."""
    ctrl = mpc.make_controller(sys, w, c, cert)
    bundle = ctrl.bundle
    residuals = check_farkas(cert, bundle, sys, w)
    # the inclusions can only contradict a clean Farkas check
    if (farkas_clean(residuals)
            and not all(shifted_set_inclusions(cert, bundle, sys, w))):
        raise SolverFailure(
            "multiplier certificate and support-LP inclusion disagree")
    srf = srf_monte_carlo(cert, bundle, sys, w, srf_samples, rng)
    lyap = lyapunov_check(ctrl, sys, w, lyapunov_samples, rng)
    return VerificationReport(
        farkas_residuals=residuals,
        srf_samples=srf.samples,
        srf_failures=srf.failures,
        srf_worst_margin=srf.worst_margin,
        lyapunov_samples=lyap.samples,
        lyapunov_failures=lyap.failures,
        lyapunov_worst_margin=lyap.worst_margin,
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
    )
    if entries["valid"] != report.valid:
        raise ModelFormatError("report: stored verdict contradicts the data")
    return report
