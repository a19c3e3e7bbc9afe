"""Online control law: the tightened nominal quadratic program.

The offline certificate fixes the tightenings and the terminal pair once
and for all, so the online work reduces to one small dense QP in the
stacked input vector.  The nominal trajectory is eliminated through the
prediction matrix, every stage keeps its tightened right hand side, and
the first input of the minimizer is applied to the plant.  Feasibility
of that program is the region-of-attraction test; its optimal value is
the function the closed loop descends.
"""

from dataclasses import dataclass

import numpy as np

from . import model, prediction, qpsolver, terminal
from .errors import FingerprintMismatch, MpcInfeasible, SolverFailure


@dataclass
class MpcSolution:
    """One solve: applied input, optimal value, and the nominal plan."""

    u: np.ndarray
    value: float
    status: str
    states: np.ndarray
    inputs: np.ndarray


@dataclass
class ControllerState:
    """Condensed QP data for one certificate; read-only after construction.

    All matrices live in the stacked input space: with the nominal plan
    written as s_mat @ [x; u_stack], the cost splits into
    u' hess u / 2 + (f_map x)' u + x' v_map x and the tightened stage and
    terminal constraints into a_in u <= bt - g_map x.
    """

    certificate: object
    bundle: object
    q_x: np.ndarray
    q_u: np.ndarray
    hess: np.ndarray
    f_map: np.ndarray
    v_map: np.ndarray
    a_in: np.ndarray
    g_map: np.ndarray
    bt: np.ndarray


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
    return ControllerState(
        certificate=cert,
        bundle=bundle,
        q_x=np.asarray(cert.q_x, dtype=float),
        q_u=np.asarray(cert.q_u, dtype=float),
        hess=2.0 * (bundle.s_u.T @ qs_u),
        f_map=2.0 * (bundle.s_u.T @ qs_x),
        v_map=bundle.s_x.T @ qs_x,
        a_in=bundle.a_u,
        g_map=bundle.a_x,
        bt=bundle.tightened(cert.tightenings),
    )


def solve_mpc(ctrl, x):
    """Solve the tightened nominal QP at state x and return the plan.

    Infeasibility is a hard error: the state is outside the certified
    region and no input is returned, clipped, or improvised.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (ctrl.bundle.n_x,):
        raise ValueError("state has wrong dimension")
    if not np.all(np.isfinite(x)):
        raise ValueError("state has non-finite entries")
    prob = qpsolver.QpProblem(
        h=ctrl.hess,
        f=ctrl.f_map @ x,
        a_in=ctrl.a_in,
        b_in=ctrl.bt - ctrl.g_map @ x,
    )
    sol = qpsolver.solve_qp(prob)
    if sol.status == qpsolver.INFEASIBLE:
        raise MpcInfeasible(
            "no admissible input plan at the queried state", state=x.copy())
    if sol.status != qpsolver.OPTIMAL:
        raise SolverFailure("online QP ended with status " + sol.status)
    bundle = ctrl.bundle
    n, n_x, n_u = bundle.n, bundle.n_x, bundle.n_u
    stacked = bundle.s_mat @ np.concatenate([x, sol.x])
    states = stacked[: (n + 1) * n_x].reshape(n + 1, n_x)
    inputs = stacked[(n + 1) * n_x:].reshape(n, n_u)
    value = float(sol.objective + x @ ctrl.v_map @ x)
    return MpcSolution(
        u=inputs[0].copy(),
        value=value,
        status=sol.status,
        states=states,
        inputs=inputs,
    )
