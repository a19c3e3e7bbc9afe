"""Slow, independent reference implementations used only by the tests.

Nothing here shares code paths with the package solvers: the QP oracle
enumerates active sets and solves exact KKT systems, the polytope oracle
enumerates vertices from facet intersections.  Both are exponential and
meant for tiny instances.  The LP oracle is HiGHS, through scipy.  The replay re-propagates a closed-loop run
through the plant from its recorded inputs and draws.
"""

import itertools

import numpy as np
from scipy.optimize import linprog


def brute_force_qp(h, f, a_in, b_in, a_eq=None, b_eq=None, tol=1e-9):
    """Global minimum of a convex QP by active-set enumeration.

    Requires the KKT system of the winning active set to be nonsingular,
    which holds for strictly convex h or full-rank LP vertices. Returns
    (x, objective, duals_in) or None when no KKT point is feasible.
    """
    h = np.asarray(h, dtype=float)
    f = np.asarray(f, dtype=float).ravel()
    a_in = np.asarray(a_in, dtype=float)
    b_in = np.asarray(b_in, dtype=float).ravel()
    n = f.shape[0]
    mi = a_in.shape[0]
    if a_eq is None:
        a_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    else:
        a_eq = np.asarray(a_eq, dtype=float)
        b_eq = np.asarray(b_eq, dtype=float).ravel()
    me = a_eq.shape[0]

    best = None
    for k in range(0, min(mi, n) + 1):
        for combo in itertools.combinations(range(mi), k):
            act = a_in[list(combo)]
            amat = np.vstack([a_eq, act])
            ma = amat.shape[0]
            kkt = np.zeros((n + ma, n + ma))
            kkt[:n, :n] = h
            kkt[:n, n:] = amat.T
            kkt[n:, :n] = amat
            rhs = np.concatenate([-f, b_eq, b_in[list(combo)]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            lam = sol[n + me:]
            scale = 1.0 + np.abs(b_in).max(initial=0.0)
            if np.any(a_in @ x > b_in + tol * scale):
                continue
            if np.any(lam < -tol * (1.0 + np.abs(lam).max(initial=0.0))):
                continue
            obj = 0.5 * x @ h @ x + f @ x
            if best is None or obj < best[1] - 1e-12:
                duals = np.zeros(mi)
                duals[list(combo)] = lam
                best = (x, obj, duals)
    return best


def highs_lp(f, a_in, b_in):
    """(status, value) of min f'x s.t. a_in x <= b_in with x free, by
    HiGHS: status 0 optimal, 2 infeasible, 3 unbounded."""
    res = linprog(f, A_ub=a_in, b_ub=b_in, bounds=(None, None),
                  method="highs")
    return res.status, res.fun


def polytope_vertices(hmat, hvec, tol=1e-8):
    """All vertices of {x : hmat x <= hvec} by facet-combination enumeration."""
    hmat = np.asarray(hmat, dtype=float)
    hvec = np.asarray(hvec, dtype=float).ravel()
    m, n = hmat.shape
    verts = []
    for combo in itertools.combinations(range(m), n):
        a = hmat[list(combo)]
        try:
            v = np.linalg.solve(a, hvec[list(combo)])
        except np.linalg.LinAlgError:
            continue
        if np.all(hmat @ v <= hvec + tol * (1.0 + np.abs(hvec).max(initial=0.0))):
            if not any(np.linalg.norm(v - u) <= 1e-7 for u in verts):
                verts.append(v)
    return verts


def replay_states(sys, traj):
    """Re-propagate a recorded closed-loop run from its logs alone.

    Only the recorded inputs, disturbances and hull weights are used;
    the stored states are recomputed from scratch.
    """
    x = traj.states[0].copy()
    out = [x.copy()]
    for k in range(traj.inputs.shape[0]):
        delta = sum(w_j * d_j for w_j, d_j
                    in zip(traj.delta_weights[k], sys.deltas))
        x = sys.step(x, traj.inputs[k], traj.disturbances[k], delta)
        out.append(x.copy())
    return np.asarray(out)
