"""Terminal ingredients: invariant-style constraint set and terminal cost.

The terminal set stacks the stage constraints propagated k'+1 steps under a
stabilizing state feedback.

The terminal cost is a matrix Q_N certifying a one-step decrease of the
stacked trajectory cost under the shifted-plus-feedback successor plan:

    Pi' (S' Q_s S - (1+eps) C_K' Q_s C_K) Pi  >=  delta I,   every vertex,

with Q_s = diag(I_N (x) Q_x, Q_N, I_N (x) Q_u) and Pi = [I; Phi] the
optimal-feedback manifold of the unconstrained trajectory cost (the online
problem's minimizer near the origin, where no constraint is active).

The restriction to Pi is not optional.  Whenever (N-1)*n_u > n_x there are
directions with zero initial state, zero first input and zero terminal
state; on them the successor plan is an exact energy-preserving shift, the
quadratic form equals -eps times the path energy for every Q_N, every gain
set and every vertex, and the unrestricted matrix inequality is infeasible.
Optimal trajectories never enter those directions: near the origin the
minimizer is u = Phi x, which is where the decrease certificate is needed.

The restricted condition is affine in Q_N once Phi is frozen, and the
smallest eigenvalue is concave, so a projected subgradient ascent with
Polyak steps finds a feasible Q_N; Phi is then refreshed at the new Q_N and
the certificate re-verified until it holds at its own manifold.  Finally
Q_N is pulled back along the segment toward the Riccati solution to keep
the cost close to the infinite-horizon one.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg, prediction
from .errors import InfeasibleLmi

P_MARGIN = 1e-6
ASCENT_MAX_ITER = 5000
MANIFOLD_REFRESH_MAX = 25
PROJ_FLOOR = 1e-6
BISECT_TOL = 1e-3


@dataclass
class TerminalSet:
    y: np.ndarray
    z: np.ndarray
    k_y: np.ndarray
    k_prime: int


@dataclass
class TerminalCost:
    q_n: np.ndarray
    epsilon: float
    p_margin: float
    slack: float


def build_terminal_set(sys, c, k_prime, q_x=None, q_u=None, k_y=None):
    """Stack (F + G K_Y)(A + B K_Y)^i for i = 0..k_prime.

    K_Y defaults to the Riccati feedback for (q_x, q_u), written in the
    u = K_Y x convention, so A + B K_Y is Schur stable.
    """
    if k_prime < 0:
        raise ValueError("k_prime must be nonnegative")
    if k_y is None:
        q_x = np.eye(sys.n_x) if q_x is None else np.asarray(q_x, dtype=float)
        q_u = np.eye(sys.n_u) if q_u is None else np.asarray(q_u, dtype=float)
        _, gain = linalg.solve_dare(sys.a, sys.b, q_x, q_u)
        k_y = -gain
    else:
        k_y = np.asarray(k_y, dtype=float)
    a_cl = sys.a + sys.b @ k_y
    edge = c.f + c.g @ k_y
    blocks = []
    power = np.eye(sys.n_x)
    for _ in range(k_prime + 1):
        blocks.append(edge @ power)
        power = a_cl @ power
    y = np.vstack(blocks)
    z = np.tile(c.b, k_prime + 1)
    return TerminalSet(y=y, z=z, k_y=k_y, k_prime=k_prime)


def stack_cost(bundle, q_x, q_u, q_n):
    """Q_s on the stacked trajectory: stage state costs, terminal, inputs."""
    n, n_x, n_u = bundle.n, bundle.n_x, bundle.n_u
    q_s = np.zeros((bundle.n_rows, bundle.n_rows))
    q_s[: n * n_x, : n * n_x] = np.kron(np.eye(n), q_x)
    q_s[n * n_x:(n + 1) * n_x, n * n_x:(n + 1) * n_x] = q_n
    q_s[(n + 1) * n_x:, (n + 1) * n_x:] = np.kron(np.eye(n), q_u)
    return q_s


def optimal_manifold(bundle, q_x, q_u, q_n):
    """Pi = [I; Phi]: minimizer of the trajectory cost with no constraints.

    Phi is well defined because the input blocks of Q_s are positive
    definite, making the cost strictly convex in the plan.
    """
    q_s = stack_cost(bundle, q_x, q_u, q_n)
    h_uu = bundle.s_u.T @ q_s @ bundle.s_u
    h_ux = bundle.s_u.T @ q_s @ bundle.s_x
    phi = -np.linalg.solve(h_uu, h_ux)
    return np.vstack([np.eye(bundle.n_x), phi])


def _decrease_forms(bundle, c_k_list, q_x, q_u, q_n, epsilon, pi):
    """(c_k, symmetric Pi' (S' Q_s S - (1+eps) C_K' Q_s C_K) Pi) per vertex."""
    q_s = stack_cost(bundle, q_x, q_u, q_n)
    lhs = bundle.s_mat.T @ q_s @ bundle.s_mat
    for c_k in c_k_list:
        g = pi.T @ (lhs - (1.0 + epsilon) * c_k.T @ q_s @ c_k) @ pi
        yield c_k, 0.5 * (g + g.T)


def _restricted_lmi(bundle, c_k_list, q_x, q_u, q_n, epsilon, pi):
    """Worst vertex eigenpair of the manifold-restricted decrease LMI."""
    best = None
    for c_k, form in _decrease_forms(bundle, c_k_list, q_x, q_u, q_n,
                                     epsilon, pi):
        vals, vecs = np.linalg.eigh(form)
        if best is None or vals[0] < best[0]:
            best = (vals[0], pi @ vecs[:, 0], c_k)
    return best


def _project_pd(q, floor):
    q = 0.5 * (q + q.T)
    vals, vecs = np.linalg.eigh(q)
    vals = np.maximum(vals, floor)
    return vecs @ np.diag(vals) @ vecs.T


def synthesize_terminal_cost(bundle, gains, sys, q_x, q_u, epsilon):
    """Find Q_N for the per-vertex manifold-restricted decrease condition.

    Projected subgradient ascent with Polyak steps, started at the Riccati
    cost matrix, with the optimal-feedback manifold refreshed whenever the
    ascent reaches the margin; once the certificate holds at its own
    manifold, the smallest feasible point on the segment back to the
    Riccati matrix is taken.  Raises InfeasibleLmi when the iteration
    budget runs out below the margin.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    q_x = np.asarray(q_x, dtype=float)
    q_u = np.asarray(q_u, dtype=float)
    c_k_list = [
        prediction.build_gain_matrices(bundle, g, sys, j)[0]
        for j, g in enumerate(gains)
    ]
    p_dare, _ = linalg.solve_dare(sys.a, sys.b, q_x, q_u)

    def worst(q_n, pi):
        return _restricted_lmi(bundle, c_k_list, q_x, q_u, q_n, epsilon, pi)

    def slack_at_own_manifold(q_n):
        pi = optimal_manifold(bundle, q_x, q_u, q_n)
        return worst(q_n, pi)[0]

    n, n_x = bundle.n, bundle.n_x
    t0, t1 = n * n_x, (n + 1) * n_x
    q_n = _project_pd(p_dare, PROJ_FLOOR)
    it = 0
    for _ in range(MANIFOLD_REFRESH_MAX):
        pi = optimal_manifold(bundle, q_x, q_u, q_n)
        lam, v, c_k = worst(q_n, pi)
        while lam < P_MARGIN:
            it += 1
            if it > ASCENT_MAX_ITER:
                raise InfeasibleLmi(
                    f"terminal cost ascent stalled at margin {lam:.3e} "
                    f"after {ASCENT_MAX_ITER} iterations"
                )
            t_s = bundle.s_mat[t0:t1, :] @ v
            t_c = c_k[t0:t1, :] @ v
            grad = np.outer(t_s, t_s) - (1.0 + epsilon) * np.outer(t_c, t_c)
            gnorm2 = float(np.sum(grad * grad))
            if gnorm2 <= 1e-300:
                raise InfeasibleLmi(
                    "terminal cost ascent has a zero subgradient; the "
                    "violation cannot be repaired by any Q_N"
                )
            step = (2.0 * P_MARGIN - lam) / gnorm2
            q_n = _project_pd(q_n + step * grad, PROJ_FLOOR)
            lam, v, c_k = worst(q_n, pi)
        if slack_at_own_manifold(q_n) >= P_MARGIN:
            break
    else:
        raise InfeasibleLmi(
            "terminal cost certificate kept drifting as the optimal "
            "manifold was refreshed"
        )

    # pull back toward the Riccati matrix: smallest feasible point on the
    # segment (1-theta) p_dare + theta q_n, each candidate checked at its
    # own manifold
    base = _project_pd(p_dare, PROJ_FLOOR)
    if slack_at_own_manifold(base) >= P_MARGIN:
        q_n = base
    else:
        lo, hi = 0.0, 1.0
        while hi - lo > BISECT_TOL:
            mid = 0.5 * (lo + hi)
            cand = _project_pd((1.0 - mid) * p_dare + mid * q_n, PROJ_FLOOR)
            if slack_at_own_manifold(cand) >= P_MARGIN:
                hi = mid
            else:
                lo = mid
        q_n = _project_pd((1.0 - hi) * p_dare + hi * q_n, PROJ_FLOOR)

    slack = terminal_cost_slack(bundle, c_k_list, q_x, q_u, q_n, epsilon)
    if slack < P_MARGIN:
        raise InfeasibleLmi(
            f"terminal cost margin {slack:.3e} below {P_MARGIN:.1e} "
            "on independent recheck"
        )
    return TerminalCost(q_n=q_n, epsilon=float(epsilon), p_margin=P_MARGIN,
                        slack=float(slack))


def terminal_cost_slack(bundle, c_k_list, q_x, q_u, q_n, epsilon):
    """Margin of the restricted decrease LMI, via the package eigensolver."""
    pi = optimal_manifold(bundle, q_x, q_u, q_n)
    forms = _decrease_forms(bundle, c_k_list, q_x, q_u, q_n, epsilon, pi)
    return min((float(linalg.sym_eig(form)[0]) for _, form in forms),
               default=np.inf)
