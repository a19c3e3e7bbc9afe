"""Online control law: the tightened nominal quadratic program.

The offline certificate fixes the tightenings and the terminal pair once
and for all, so the online work reduces to one small dense QP in the
stacked input vector.  The nominal trajectory is eliminated through the
prediction matrix, every stage keeps its tightened right hand side, and
the first input of the minimizer is applied to the plant.  Feasibility
of that program is the region-of-attraction test; its optimal value is
the function the closed loop descends.

Each solve hands qpsolver the unconstrained minimizer u = law x as its
start.  That point is the answer whenever no constraint binds; otherwise
a few active-set rounds from it usually are, and the interior point path
remains the fallback and the infeasibility test.  Every accepted point
passes the solver's KKT check, so the answer is the cold solve's within
the solver's tolerance.
"""

from dataclasses import dataclass

import numpy as np

from . import model, prediction, qpsolver, terminal
from .errors import FingerprintMismatch, MpcInfeasible, SolverFailure


@dataclass
class MpcSolution:
    """One solve: applied input, optimal value, and the planned inputs.

    inputs holds one row per stage of the nominal plan and u is its first
    row.  The planned states follow from x and inputs through the nominal
    dynamics; no status is kept, since anything but an optimal solve
    raises.
    """

    u: np.ndarray
    value: float
    inputs: np.ndarray


@dataclass
class ControllerState:
    """Condensed QP data for one certificate; read-only after construction.

    All matrices live in the stacked input space: with the nominal plan
    written as s_mat @ [x; u_stack], the cost splits into
    u' h u / 2 + (f_map x)' u + x' v_map x and the tightened stage and
    terminal constraints into a_in u <= bt - g_map x.  qp is the problem
    at x = 0 (its h is the Hessian above), whose matrices every online
    problem shares, and law the unconstrained minimizer u = law x.
    """

    certificate: object
    bundle: object
    q_x: np.ndarray
    q_u: np.ndarray
    f_map: np.ndarray
    v_map: np.ndarray
    a_in: np.ndarray
    g_map: np.ndarray
    bt: np.ndarray
    law: np.ndarray
    qp: qpsolver.QpProblem


def make_controller(sys, w, c, cert):
    """Bind a certificate to its model and precompute the condensed QP.

    The certificate stores the fingerprint of the model text it was
    synthesized for; a mismatch means the caller is pairing artifacts
    from different models and is rejected outright.
    """
    fp = model.model_fingerprint(model.write_model_text(sys, w, c))
    if cert.fingerprint and fp != cert.fingerprint:
        raise FingerprintMismatch(
            "certificate was synthesized for a different model")
    bundle = prediction.build_bundle(
        sys, c, cert.terminal.y, cert.terminal.z, cert.n)
    q_s = terminal.stack_cost(bundle, cert.q_x, cert.q_u, cert.cost.q_n)
    qs_x = q_s @ bundle.s_x
    qs_u = q_s @ bundle.s_u
    hess = 2.0 * (bundle.s_u.T @ qs_u)
    f_map = 2.0 * (bundle.s_u.T @ qs_x)
    bt = bundle.tightened(cert.tightenings)
    # the input blocks of the stacked cost are positive definite, so hess
    # is too (as in terminal.optimal_manifold)
    law = -np.linalg.solve(hess, f_map)
    qp = qpsolver.QpProblem(h=hess, f=np.zeros(hess.shape[0]),
                            a_in=bundle.a_u, b_in=bt)
    for arr in (law, qp.h, qp.f, qp.a_in, qp.b_in, qp.a_eq, qp.b_eq):
        arr.flags.writeable = False
    return ControllerState(
        certificate=cert,
        bundle=bundle,
        q_x=np.asarray(cert.q_x, dtype=float),
        q_u=np.asarray(cert.q_u, dtype=float),
        f_map=f_map,
        v_map=bundle.s_x.T @ qs_x,
        a_in=bundle.a_u,
        g_map=bundle.a_x,
        bt=bt,
        law=law,
        qp=qp,
    )


def solve_mpc(ctrl, x):
    """Solve the tightened nominal QP at state x and return the plan.

    Returns the first input, the optimal value of the stacked cost and the
    planned inputs.  Infeasibility is a hard error: the state is outside
    the certified region and no input is returned, clipped, or improvised.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (ctrl.bundle.n_x,):
        raise ValueError("state has wrong dimension")
    if not np.all(np.isfinite(x)):
        raise ValueError("state has non-finite entries")
    prob = ctrl.qp.with_vectors(ctrl.f_map @ x, ctrl.bt - ctrl.g_map @ x)
    sol = qpsolver.solve_qp(prob, start=ctrl.law @ x)
    if sol.status == qpsolver.INFEASIBLE:
        raise MpcInfeasible(
            "no admissible input plan at the queried state", state=x.copy())
    if sol.status != qpsolver.OPTIMAL:
        raise SolverFailure("online QP ended with status " + sol.status)
    inputs = sol.x.reshape(ctrl.bundle.n, ctrl.bundle.n_u)
    value = float(sol.objective + x @ ctrl.v_map @ x)
    return MpcSolution(u=inputs[0].copy(), value=value, inputs=inputs)
