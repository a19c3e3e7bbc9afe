"""Offline synthesis of constraint tightenings, gains, and multipliers.

The offline problem couples three groups of unknowns: the tightening
vector t (one entry per stacked constraint row), per-vertex feedback
gains that shape candidate successor plans, and per-vertex nonnegative
multipliers certifying, row by row, that every plan admitted by the
tightened feasible set can be continued one step later for every
disturbance and every uncertainty vertex.  The only nonconvex coupling
is the product of the multipliers with t, so the program is solved by
alternating two convex steps:

* multiplier step: with t fixed, choose gains minimizing the worst
  row-wise containment slack.  The slack of one row is a support
  function of the joint plan-disturbance polytope evaluated at a
  direction affine in the gains, so the step is a minimax over support
  values and is solved with a proximal cutting-plane scheme; the cuts
  come from small support LPs, and the multipliers are recovered from
  the duals of those LPs at the final gains.
* tightening step: with multipliers fixed, a single QP shrinks ||t||^2
  while growing a certified l1 ball of feasible initial states.

The alternation starts from a classical additive-disturbance tightening
computed under the terminal feedback, scaled up until the multiplier
step certifies it, and never accepts an objective increase.
"""

from dataclasses import dataclass

import numpy as np

from . import model, prediction, qpsolver, terminal, verify
from .errors import (
    FingerprintMismatch,
    Infeasible,
    InitialGuessInfeasible,
    ModelFormatError,
    NoProgress,
    SolverFailure,
)
from .utils import MATRICES, MATRIX, VECTOR, read_keyed, write_keyed

SIGMA_GATE = 1e-7
ALPHA_MIN = 1e-9
PROX_WEIGHT = 1e-6
MAX_ROUNDS = 60
STALL_LIMIT = 15
POOL_CAP = 4000
CUT_FEAS_TOL = 1e-9
CONVERGENCE_TOL = 1e-6
GUESS_SCALES = (1.0, 2.0, 4.0, 8.0)
CERT_HEADER = "# robust mpc certificate, toolkit text format v1"


@dataclass
class SynthesisConfig:
    """Knobs of the offline phase; defaults match the benchmark setup."""

    n: int = 5
    k_prime: int = 2
    mu: float = 2.0
    epsilon: float = 0.1
    init_scale: float = 1.7
    max_alternations: int = 20
    q_x: np.ndarray = None
    q_u: np.ndarray = None

    def __post_init__(self):
        if self.n < 1 or self.k_prime < 0 or self.max_alternations < 1:
            raise ValueError("n >= 1, k_prime >= 0, max_alternations >= 1 required")
        if self.mu <= 0 or self.epsilon <= 0:
            raise ValueError("mu and epsilon must be positive")
        if self.init_scale < 1.0:
            raise ValueError("init_scale must be at least 1")

    def weights(self, sys):
        q_x = np.eye(sys.n_x) if self.q_x is None else np.asarray(self.q_x, float)
        q_u = np.eye(sys.n_u) if self.q_u is None else np.asarray(self.q_u, float)
        return q_x, q_u


@dataclass
class MultiplierStep:
    gains: list
    multipliers: list
    sigmas: np.ndarray
    pools: list


@dataclass
class TighteningStep:
    tightenings: np.ndarray
    alpha: float
    objective: float


@dataclass
class Certificate:
    """Everything the online controller and the verifier need."""

    tightenings: np.ndarray
    gains: list
    multipliers: list
    terminal: terminal.TerminalSet
    cost: terminal.TerminalCost
    alpha: float
    objective: float
    n: int
    q_x: np.ndarray
    q_u: np.ndarray
    fingerprint: str = ""


def _w_support(w, d):
    """Support value and a maximizer of direction d over the polytope w."""
    box = w.box_bounds
    if box is not None:
        lo, hi = box
        point = np.where(d > 0, hi, np.where(d < 0, lo, 0.5 * (lo + hi)))
        return float(d @ point), point
    sol = qpsolver.linear_program(-d, a_in=w.h, b_in=w.b)
    if sol.status != qpsolver.OPTIMAL:
        raise SolverFailure(f"disturbance support LP ended {sol.status}")
    return -sol.objective, sol.x


def _w_support_dual(w, d):
    """Nonnegative row weights over w's rows reproducing direction d."""
    lam = np.zeros(w.h.shape[0])
    if np.abs(d).max(initial=0.0) < 1e-14:
        return lam
    box = w.box_bounds
    if box is not None:
        # every row touches one coordinate; route d through the binding rows
        for i in range(w.dim):
            if d[i] > 0:
                rows = [r for r in range(w.h.shape[0]) if w.h[r, i] > 0]
                r = min(rows, key=lambda r: w.b[r] / w.h[r, i])
                lam[r] = d[i] / w.h[r, i]
            elif d[i] < 0:
                rows = [r for r in range(w.h.shape[0]) if w.h[r, i] < 0]
                r = min(rows, key=lambda r: w.b[r] / -w.h[r, i])
                lam[r] = d[i] / w.h[r, i]
        return lam
    sol = qpsolver.linear_program(
        w.b, a_in=-np.eye(w.h.shape[0]), b_in=np.zeros(w.h.shape[0]),
        a_eq=w.h.T, b_eq=d,
    )
    if sol.status != qpsolver.OPTIMAL:
        raise SolverFailure(f"disturbance dual LP ended {sol.status}")
    return np.maximum(sol.x, 0.0)


def _plan_support(plan_lp, d, memo):
    """Support of direction d over the tightened plan polytope.

    plan_lp is the LP over that polytope with a zero objective; its
    matrices are shared by every call.  Returns (value, maximizer, row
    duals); the duals are the Farkas weights with a_lp' duals = d.  memo
    maps d.tobytes() to the result of an earlier call with the same
    plan_lp; the solver is deterministic, so a stored result is exactly
    what a new solve would return.  Its arrays are read-only because later
    calls share them.
    """
    if np.abs(d).max(initial=0.0) < 1e-14:
        return 0.0, np.zeros(plan_lp.n), np.zeros(plan_lp.b_in.shape[0])
    key = d.tobytes()
    if key in memo:
        return memo[key]
    sol = qpsolver.solve_qp(plan_lp.with_vectors(-d))
    if sol.status == qpsolver.UNBOUNDED:
        raise SolverFailure("plan polytope unbounded along a containment direction")
    if sol.status != qpsolver.OPTIMAL:
        raise SolverFailure(f"plan support LP ended {sol.status}")
    sol.x.flags.writeable = False
    sol.in_duals.flags.writeable = False
    memo[key] = -sol.objective, sol.x, sol.in_duals
    return memo[key]


@dataclass
class _VertexMaps:
    """Affine decomposition of the successor constraint rows in the gains."""

    base_k: np.ndarray
    base_m: np.ndarray
    p_k: np.ndarray
    p_u: np.ndarray


def _vertex_maps(bundle, sys, vertex):
    zero = prediction.zero_gains(bundle.n, bundle.n_x, bundle.n_u)
    c_k0, c_m0 = prediction.build_gain_matrices(bundle, zero, sys, vertex)
    n, n_x, n_u = bundle.n, bundle.n_x, bundle.n_u
    term_cols = bundle.h_xu[:, n * n_x:(n + 1) * n_x]
    p_k = term_cols @ sys.b + bundle.h_xu[:, bundle.n_rows - n_u:]
    return _VertexMaps(bundle.h_xu @ c_k0, bundle.h_xu @ c_m0, p_k, bundle.a_u)


def _pack_gains(g):
    return np.concatenate([g.k_term.ravel(), g.m_gains.ravel(), g.k_delta.ravel()])


def _unpack_gains(vec, n, n_x, n_u):
    a = n_u * n_x
    b = a + n * n_u * n_x
    return prediction.GainSet(
        k_term=vec[:a].reshape(n_u, n_x).copy(),
        m_gains=vec[a:b].reshape(n * n_u, n_x).copy(),
        k_delta=vec[b:].reshape(n * n_u, n_x + n_u).copy(),
    )


def _cut_coeffs(maps, term, sys, bundle, r, y_s, y_w):
    """Row-r successor support at plan point (y_s, y_w) as affine(gains)."""
    tau = term @ y_s
    eta = y_s[:bundle.n_x + bundle.n_u]
    zeta = sys.b_w @ y_w
    coef = np.concatenate([
        np.outer(maps.p_k[r], tau).ravel(),
        np.outer(maps.p_u[r], zeta).ravel(),
        np.outer(maps.p_u[r], eta).ravel(),
    ])
    const = float(maps.base_k[r] @ y_s + maps.base_m[r] @ y_w)
    return coef, const


def _separate(bundle, sys, w, plan_lp, vertex, gains, memo):
    """Exact row slacks of the containment at the given gains."""
    bt = plan_lp.b_in
    rhs = prediction.successor_rows(bundle, gains, sys, vertex)
    n_s = bundle.n_s
    sigmas = np.empty(bundle.n_t)
    points = []
    for r in range(bundle.n_t):
        v_s, y_s, _ = _plan_support(plan_lp, rhs[r, :n_s], memo)
        v_w, y_w = _w_support(w, rhs[r, n_s:])
        sigmas[r] = v_s + v_w - bt[r]
        points.append((y_s, y_w))
    return sigmas, points


def _solve_master(cuts, bt_min, g_center):
    """Prox-regularized minimax over the collected cuts."""
    n_g = g_center.size
    h = np.zeros((n_g + 1, n_g + 1))
    h[:n_g, :n_g] = PROX_WEIGHT * np.eye(n_g)
    f = np.concatenate([-PROX_WEIGHT * g_center, [1.0]])
    a = np.zeros((len(cuts) + 1, n_g + 1))
    b = np.empty(len(cuts) + 1)
    a[0, n_g] = -1.0
    b[0] = bt_min  # plan 0 with disturbance 0 gives slack -bt_r on every row
    for i, (coef, cut_b) in enumerate(cuts, start=1):
        a[i, :n_g] = coef
        a[i, n_g] = -1.0
        b[i] = cut_b
    sol = qpsolver.solve_qp(qpsolver.QpProblem(h=h, f=f, a_in=a, b_in=b))
    if sol.status != qpsolver.OPTIMAL:
        raise SolverFailure(f"multiplier master QP ended {sol.status}")
    return sol.x[:n_g], float(sol.x[n_g])


def _vertex_multiplier(bundle, sys, w, plan_lp, vertex, warm, pool, target, memo):
    """Cutting-plane gain search plus dual recovery for one vertex.

    Pool entries are (row, y_s, y_w, coef, const): a plan point and its
    cut, affine in the gains.  The cut depends on the vertex and the
    point only, so entries carried over from an earlier step keep it.
    """
    bt = plan_lp.b_in
    maps = _vertex_maps(bundle, sys, vertex)
    term = bundle.term_rows()
    n_t = bundle.n_t

    entries = {}
    for key, entry in (pool or {}).items():
        # stale plan points outside the new tightened set give invalid cuts
        if (bundle.a_lp @ entry[1] - bt).max() <= CUT_FEAS_TOL:
            entries[key] = entry

    def add_point(r, y_s, y_w):
        if max(np.abs(y_s).max(initial=0.0), np.abs(y_w).max(initial=0.0)) < 1e-14:
            return
        key = (r, y_s.tobytes(), y_w.tobytes())
        if key not in entries:
            coef, const = _cut_coeffs(maps, term, sys, bundle, r, y_s, y_w)
            entries[key] = (r, y_s.copy(), y_w.copy(), coef, const)

    def cuts_for(bt_vec):
        return [(coef, bt_vec[r] - const) for r, _, _, coef, const in entries.values()]

    g_best = _pack_gains(warm)
    sigmas, points = _separate(bundle, sys, w, plan_lp, vertex,
                               _unpack_gains(g_best, bundle.n, bundle.n_x, bundle.n_u),
                               memo)
    sigma_best = float(sigmas.max())
    for r in range(n_t):
        add_point(r, *points[r])

    stall = 0
    rounds = 1
    while not (target is not None and sigma_best <= target) and rounds < MAX_ROUNDS:
        g_new, sigma_pred = _solve_master(cuts_for(bt), float(bt.min()), g_best)
        sigmas, points = _separate(bundle, sys, w, plan_lp, vertex,
                                   _unpack_gains(g_new, bundle.n, bundle.n_x, bundle.n_u),
                                   memo)
        sigma_new = float(sigmas.max())
        for r in range(n_t):
            if sigmas[r] > sigma_pred + 1e-10:
                add_point(r, *points[r])
        rounds += 1
        if sigma_new < sigma_best - 1e-10:
            g_best, sigma_best = g_new, sigma_new
            stall = 0
        else:
            stall += 1
        if sigma_new - sigma_pred <= 1e-9 * (1.0 + abs(sigma_new)):
            break  # the cut model is exact here; the master cannot improve
        if stall >= STALL_LIMIT:
            break

    # the separation at g_best solved these rows already; memo hits
    gains = _unpack_gains(g_best, bundle.n, bundle.n_x, bundle.n_u)
    rhs = prediction.successor_rows(bundle, gains, sys, vertex)
    n_s = bundle.n_s
    lam = np.zeros((n_t, n_t + w.h.shape[0]))
    sigma_fin = -np.inf
    for r in range(n_t):
        d_s, d_w = rhs[r, :n_s], rhs[r, n_s:]
        v_s, _, duals = _plan_support(plan_lp, d_s, memo)
        lam_w = _w_support_dual(w, d_w)
        lam[r, :n_t] = duals
        lam[r, n_t:] = lam_w
        sigma_fin = max(sigma_fin, v_s + float(w.b @ lam_w) - bt[r])

    eq = np.hstack([lam[:, :n_t] @ bundle.a_lp, lam[:, n_t:] @ w.h])
    eq_res = float(np.abs(eq - rhs).max())
    if len(entries) > POOL_CAP:
        keys = list(entries)[-POOL_CAP:]
        entries = {k: entries[k] for k in keys}
    return gains, lam, float(sigma_fin), entries, eq_res


def initial_guess(bundle, sys, w, cfg, k_y):
    """Additive-disturbance tightening under the terminal feedback.

    Stage block i accumulates the worst-case effect of i past
    disturbances on each constraint row when the loop is closed with
    k_y.  Terminal block i encodes the same stage constraint pushed to
    closed-loop time n+i, so it accumulates depth n+i along the base
    row directions.  The blocks are therefore the running sums, over
    depths 0 to n + k', of one disturbance support per (step, row).  The
    whole vector is inflated by cfg.init_scale; block 0 stays zero.
    """
    n_x, n_c = bundle.n_x, bundle.n_c
    a_k = sys.a + sys.b @ k_y
    f, g, _ = bundle.stage_rows()
    fgk = f + g @ k_y
    k_prime = bundle.n_y // n_c - 1

    blocks = [np.zeros(n_c)]
    power = np.eye(n_x)
    for _ in range(bundle.n + k_prime):
        dirs = fgk @ (power @ sys.b_w)
        blocks.append(blocks[-1] + [_w_support(w, d)[0] for d in dirs])
        power = a_k @ power
    return np.concatenate(blocks) * cfg.init_scale


def solve_multiplier_step(bundle, sys, w, t_fixed, warm_gains=None, pools=None,
                          target=None):
    """Best gains and Farkas multipliers at a fixed tightening vector.

    Returns the per-vertex gains, the recovered multipliers, and the
    per-vertex worst containment slacks sigmas; sigmas.max() <= 0 means
    the tightened set is recursively feasible as it stands.  Every
    plan-support LP of the step shares bundle.a_lp and bt, so one LP
    template, checked once, and one memo keyed by the direction serve all
    rounds and vertices and end with the call.
    """
    bt = bundle.tightened(t_fixed)
    n_s = bundle.n_s
    plan_lp = qpsolver.QpProblem(h=np.zeros((n_s, n_s)), f=np.zeros(n_s),
                                 a_in=bundle.a_lp, b_in=bt)
    n_delta = len(sys.deltas)
    if warm_gains is None:
        warm_gains = [prediction.zero_gains(bundle.n, bundle.n_x, bundle.n_u)
                      for _ in range(n_delta)]
    if pools is None:
        pools = [None] * n_delta

    memo = {}
    results = [_vertex_multiplier(bundle, sys, w, plan_lp, j, warm_gains[j],
                                  pools[j], target, memo)
               for j in range(n_delta)]
    gains = [r[0] for r in results]
    multipliers = [r[1] for r in results]
    sigmas = np.array([r[2] for r in results])
    eq_res = max(r[4] for r in results)
    if eq_res > verify.RESIDUAL_TOL:
        raise SolverFailure(f"multiplier equality residual {eq_res:.3e}")
    return MultiplierStep(
        gains=gains,
        multipliers=multipliers,
        sigmas=sigmas,
        pools=[r[3] for r in results],
    )


def solve_tightening_step(bundle, sys, w, multipliers, cfg):
    """Shrink the tightenings and grow the certified l1 ball, gains held.

    With the multipliers fixed the containment condition is linear in t,
    and the gains only enter through equalities that the fixed gains
    already satisfy, so they are not re-optimized here.
    """
    n_t, n_x, n_c = bundle.n_t, bundle.n_x, bundle.n_c
    n_plan = bundle.n * bundle.n_u
    n_ball = 2 * n_x
    n_z = n_t + 1 + n_ball * n_plan
    idx_a = n_t

    h = np.zeros((n_z, n_z))
    h[:n_t, :n_t] = 2.0 * np.eye(n_t)
    f = np.zeros(n_z)
    f[idx_a] = -cfg.mu

    rows_a = []
    rows_b = []

    block = np.zeros((n_c, n_z))
    block[:, :n_c] = -np.eye(n_c)
    rows_a.append(block)  # the applied-step tightening stays nonnegative
    rows_b.append(np.zeros(n_c))

    block = np.zeros((n_t, n_z))
    block[:, :n_t] = np.eye(n_t)
    rows_a.append(block)  # tightening may not exceed the constraint offsets
    rows_b.append(bundle.b_stack.copy())

    block = np.zeros((1, n_z))
    block[0, idx_a] = -1.0
    rows_a.append(block)
    rows_b.append(np.array([-ALPHA_MIN]))

    for lam in multipliers:
        if lam.min(initial=0.0) < -1e-12:
            raise ValueError("multipliers must be elementwise nonnegative")
        lam_s = lam[:, :n_t]
        lam_w = lam[:, n_t:]
        block = np.zeros((n_t, n_z))
        block[:, :n_t] = np.eye(n_t) - lam_s
        rows_a.append(block)
        rows_b.append(bundle.b_stack - lam_s @ bundle.b_stack - lam_w @ w.b)

    for j in range(n_x):
        for sign in (1.0, -1.0):
            i_ball = 2 * j + (0 if sign > 0 else 1)
            block = np.zeros((n_t, n_z))
            block[:, :n_t] = np.eye(n_t)
            block[:, idx_a] = sign * bundle.a_x[:, j]
            cols = n_t + 1 + i_ball * n_plan
            block[:, cols:cols + n_plan] = bundle.a_u
            rows_a.append(block)
            rows_b.append(bundle.b_stack.copy())

    prob = qpsolver.QpProblem(h=h, f=f, a_in=np.vstack(rows_a),
                              b_in=np.concatenate(rows_b))
    sol = qpsolver.solve_qp(prob)
    if sol.status == qpsolver.INFEASIBLE:
        raise Infeasible("tightening step infeasible at the fixed multipliers")
    if sol.status != qpsolver.OPTIMAL:
        raise SolverFailure(f"tightening QP ended {sol.status}")
    t_new = sol.x[:n_t]
    alpha = float(sol.x[idx_a])
    objective = float(t_new @ t_new - cfg.mu * alpha)
    return TighteningStep(tightenings=t_new, alpha=alpha, objective=objective)


def synthesize(sys, w, c, cfg, trace=None):
    """Run the full offline phase and return a Certificate that passes
    verify.check_farkas.

    When trace is a list, every accepted alternation objective is
    appended to it, oldest first.
    """
    issues = model.validate(sys, w, c)
    if issues:
        raise ModelFormatError("model rejected: " + "; ".join(issues))
    q_x, q_u = cfg.weights(sys)
    ts = terminal.build_terminal_set(sys, c, cfg.k_prime, q_x=q_x, q_u=q_u)
    bundle = prediction.build_bundle(sys, c, ts.y, ts.z, cfg.n)
    base = initial_guess(bundle, sys, w, cfg, k_y=ts.k_y)
    warm = []
    for _ in sys.deltas:
        g = prediction.zero_gains(cfg.n, sys.n_x, sys.n_u)
        g.k_term = ts.k_y.copy()
        warm.append(g)

    step = None
    t_cur = None
    best_sigma = np.inf
    for scale in GUESS_SCALES:
        t_try = base * scale
        try:
            bundle.tightened(t_try)
        except ValueError:
            continue
        ms = solve_multiplier_step(bundle, sys, w, t_try, warm_gains=warm,
                                   target=0.0)
        sigma = float(ms.sigmas.max())
        best_sigma = min(best_sigma, sigma)
        if sigma <= SIGMA_GATE:
            step = ms
            t_cur = t_try
            break
    if step is None:
        raise InitialGuessInfeasible(
            f"no scaled initial tightening certified; best slack {best_sigma:.3e}")

    gains, lambdas, pools = step.gains, step.multipliers, step.pools
    alpha = None
    objective = np.inf
    for it in range(cfg.max_alternations):
        try:
            tstep = solve_tightening_step(bundle, sys, w, lambdas, cfg)
        except Infeasible:
            if alpha is None:
                raise NoProgress("first tightening step infeasible at the "
                                 "initial multipliers") from None
            break
        if tstep.objective > objective + 1e-9 * (1.0 + abs(objective)):
            break  # alternation may not increase the accepted objective
        improvement = objective - tstep.objective
        t_cur, alpha, objective = tstep.tightenings, tstep.alpha, tstep.objective
        if trace is not None:
            trace.append(objective)
        if improvement < CONVERGENCE_TOL or it == cfg.max_alternations - 1:
            break
        ms = solve_multiplier_step(bundle, sys, w, t_cur, warm_gains=gains,
                                   pools=pools)
        gains, lambdas, pools = ms.gains, ms.multipliers, ms.pools
    if alpha is None:
        raise NoProgress("alternation produced no feasible tightening step")

    tc = terminal.synthesize_terminal_cost(bundle, gains, sys, q_x, q_u,
                                           cfg.epsilon)
    fingerprint = model.model_fingerprint(model.write_model_text(sys, w, c))
    cert = Certificate(
        tightenings=t_cur,
        gains=gains,
        multipliers=lambdas,
        terminal=ts,
        cost=tc,
        alpha=float(alpha),
        objective=float(objective),
        n=cfg.n,
        q_x=q_x,
        q_u=q_u,
        fingerprint=fingerprint,
    )
    residuals = verify.check_farkas(cert, bundle, sys, w)
    if not verify.farkas_clean(residuals):
        worst = max(max(d.values()) for d in residuals)
        raise SolverFailure(f"certificate Farkas residual {worst:.3e}")
    return cert


CERT_KEYS = {
    "n": int, "k_prime": int, "epsilon": float, "p_margin": float,
    "slack": float, "alpha": float, "objective": float, "fingerprint": str,
    "q_x": MATRIX, "q_u": MATRIX, "q_n": MATRIX, "k_y": MATRIX,
    "term_y": MATRIX, "term_z": VECTOR, "tightenings": VECTOR,
    "k_term": MATRICES, "m_gains": MATRICES, "k_delta": MATRICES,
    "multipliers": MATRICES,
}


def write_certificate(cert):
    """Serialize a Certificate to the text format read_certificate accepts."""
    return write_keyed(CERT_HEADER, {
        "n": cert.n,
        "k_prime": cert.terminal.k_prime,
        "epsilon": cert.cost.epsilon,
        "p_margin": cert.cost.p_margin,
        "slack": cert.cost.slack,
        "alpha": cert.alpha,
        "objective": cert.objective,
        "fingerprint": cert.fingerprint,
        "q_x": cert.q_x,
        "q_u": cert.q_u,
        "q_n": cert.cost.q_n,
        "k_y": cert.terminal.k_y,
        "term_y": cert.terminal.y,
        "term_z": cert.terminal.z,
        "tightenings": cert.tightenings,
        "k_term": [g.k_term for g in cert.gains],
        "m_gains": [g.m_gains for g in cert.gains],
        "k_delta": [g.k_delta for g in cert.gains],
        "multipliers": list(cert.multipliers),
    })


def read_certificate(text, expected_fingerprint=None):
    """Parse a certificate file; reject stale or malformed ones."""
    e = read_keyed(text, CERT_HEADER, CERT_KEYS, "certificate")
    lams = list(e["multipliers"])
    if not (len(e["k_term"]) == len(e["m_gains"]) == len(e["k_delta"]) == len(lams)):
        raise ModelFormatError("certificate: per-vertex lists disagree in length")
    gains = [prediction.GainSet(k_term=k, m_gains=m, k_delta=d)
             for k, m, d in zip(e["k_term"], e["m_gains"], e["k_delta"])]
    ts = terminal.TerminalSet(y=e["term_y"], z=e["term_z"], k_y=e["k_y"],
                              k_prime=e["k_prime"])
    tc = terminal.TerminalCost(q_n=e["q_n"], epsilon=e["epsilon"],
                               p_margin=e["p_margin"], slack=e["slack"])
    cert = Certificate(
        tightenings=e["tightenings"],
        gains=gains,
        multipliers=lams,
        terminal=ts,
        cost=tc,
        alpha=e["alpha"],
        objective=e["objective"],
        n=e["n"],
        q_x=e["q_x"],
        q_u=e["q_u"],
        fingerprint=e["fingerprint"],
    )
    n_t = cert.tightenings.shape[0]
    for lam in cert.multipliers:
        # negative entries are left for the verifier to flag, so corrupted
        # certificates stay loadable and fail loudly where it counts
        if lam.shape[0] != n_t:
            raise ModelFormatError("certificate: multiplier row count mismatch")
    if expected_fingerprint is not None and cert.fingerprint != expected_fingerprint:
        raise FingerprintMismatch(
            "certificate was synthesized for a different model")
    return cert
