"""Dense convex QP / LP solver.

Primal-dual interior point with a Mehrotra-style predictor-corrector:
the affine direction supplies the second-order correction, the centering
parameter is the fixed barrier reduction factor 0.1, and steps take 0.99
of the distance to the positivity boundary.  Inequality blocks are
eliminated, so every iteration factors one dense symmetric system of size
n + m_eq:

    [ h + g' d^-1 g + delta I   a_eq' ] [dx]   [rhs_x]
    [ a_eq                    -delta I ] [dy] = [rhs_y]

with d = s / z the scaling from the current slack/dual pair.  The system is
positive definite when there are no equality rows (Cholesky), otherwise
symmetric indefinite (LDL' with Bunch-Kaufman pivoting), once per
iteration for both directions.  One step of iterative refinement keeps
each direction usable when d is badly scaled.  Every problem shape takes
this one path; without inequality rows the complementarity measure is 0
and the loop is Newton's method on the equality KKT system.

The loop iterates a stack of problems; a single QpProblem is a stack of
one, in the vector arithmetic above.  linear_program with a 2-D f makes a
stack of LPs that share their inequality rows and differ in f (in the
spirit of the structure-exploiting interior point methods of Gondzio and
Grothey).  A member's Newton system is then its normal matrix
a_in' diag(1/d) a_in: all members' matrices come from one product and are
solved by one batched LU solve, with the same refinement pass.  The step
rule, the centering, the stop test and the divergence and stall guards
act per member, and a member leaves the stack when it meets the stop test
or a guard ends its iteration.  A member that met the stop test goes
through the crossover as a single problem does; any other is solved again
on its own by solve_qp.

After the iteration a crossover solves the KKT system of the guessed
active set.  A candidate point is accepted as exact only through
_kkt_check, the one verdict: stationarity, every row, dual signs and
complementarity, all at TARGET_TOL.

A caller that knows a good primal guess for a strictly convex problem
without equality rows can pass it as start.  The guess is tried with zero
duals, then a few active-set rounds from it, each solving the KKT system
of the rows with positive duals plus the rows the last candidate
violates (in the spirit of Goldfarb and Idnani 1983).  Their points pass
the same _kkt_check, and the interior point path runs only when none
does.  The online controller starts from its unconstrained law and is
answered this way on every state of the msd benchmark; without a start
the solver is unchanged.

Problems are declared infeasible only by evidence: a stalled iteration
triggers a phase-1 slack minimization, and the problem is infeasible when
the smallest achievable slack exceeds 1e-7 (scaled).  That LP and the
unboundedness ray LP are QpProblems solved through the same entry as any
other.  Everything is deterministic; identical input yields bit-identical
output.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg as sla

from .errors import DimensionMismatch, SolverFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
MAXITER = "maxiter"

MAX_ITER = 200
STEP_FRACTION = 0.99
SIGMA = 0.1
TARGET_TOL = 1e-9
ACCEPT_TOL = 1e-7
REG = 1e-10
# active-set rounds from a start before the interior point path takes over;
# of 12,000 seeded online msd states, half at 0.999 of the region boundary,
# 92% needed none, 4 needed 4 or 5 and none more
ACTIVE_SET_ROUNDS = 5


@dataclass
class QpProblem:
    """min 0.5 x' h x + f' x  s.t.  a_eq x = b_eq,  a_in x <= b_in.

    h must be symmetric positive semidefinite; an LP is encoded with h = 0.
    Empty constraint blocks are represented by 0-row matrices.
    """

    h: np.ndarray
    f: np.ndarray
    a_eq: np.ndarray = None
    b_eq: np.ndarray = None
    a_in: np.ndarray = None
    b_in: np.ndarray = None

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float).ravel()
        n = self.f.shape[0]
        self.h = np.asarray(self.h, dtype=float)
        if self.h.shape != (n, n):
            raise DimensionMismatch(f"h must be {n}x{n}, got {self.h.shape}")
        scale = 1.0 + float(np.abs(self.h).max(initial=0.0))
        if np.abs(self.h - self.h.T).max(initial=0.0) > 1e-9 * scale:
            raise DimensionMismatch("h must be symmetric")
        if self.a_eq is None:
            self.a_eq = np.zeros((0, n))
            self.b_eq = np.zeros(0)
        else:
            self.a_eq = np.asarray(self.a_eq, dtype=float)
            self.b_eq = np.asarray(self.b_eq, dtype=float).ravel()
        if self.a_in is None:
            self.a_in = np.zeros((0, n))
            self.b_in = np.zeros(0)
        else:
            self.a_in = np.asarray(self.a_in, dtype=float)
            self.b_in = np.asarray(self.b_in, dtype=float).ravel()
        if self.a_eq.shape != (self.b_eq.shape[0], n):
            raise DimensionMismatch("a_eq/b_eq shapes inconsistent")
        if self.a_in.shape != (self.b_in.shape[0], n):
            raise DimensionMismatch("a_in/b_in shapes inconsistent")
        for name, arr in (("h", self.h), ("f", self.f), ("a_eq", self.a_eq),
                          ("b_eq", self.b_eq), ("a_in", self.a_in), ("b_in", self.b_in)):
            if arr.size and not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite entries")

    @property
    def n(self):
        return self.f.shape[0]

    def with_vectors(self, f, b_in=None):
        """The problem with this one's matrices and a new f, and a new b_in
        when one is given.

        The matrices were checked when this problem was built and are
        shared, not copied, so only the new vectors are checked.
        """
        new = object.__new__(QpProblem)  # without __post_init__'s checks
        new.__dict__.update(self.__dict__)
        new.f = _checked_vector("f", f, self.f.shape[0])
        if b_in is not None:
            new.b_in = _checked_vector("b_in", b_in, self.b_in.shape[0])
        return new


def _checked_vector(name, v, size):
    v = np.asarray(v, dtype=float).ravel()
    if v.shape != (size,):
        raise DimensionMismatch(f"{name} must have {size} entries, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries")
    return v


@dataclass
class QpSolution:
    x: np.ndarray
    objective: float
    eq_duals: np.ndarray
    in_duals: np.ndarray
    status: str
    iterations: int
    kkt_residual: float


# Resolved once: the scipy.linalg wrappers look these up and validate their
# arguments on every call, which costs several times a 14x14 factor-solve.
_POTRF, _POTRS = sla.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _cholesky_solve(chol, rhs):
    sol, info = _POTRS(chol, rhs, lower=1)
    if info:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return sol


def _ldl_solver(kmat):
    """Solver through LDL' of a symmetric, possibly indefinite matrix; d is
    block diagonal with 1x1 / 2x2 pivots."""
    lu, d, perm = sla.ldl(kmat, check_finite=False)
    low = lu[perm]
    n = d.shape[0]

    def solve(rhs):
        w = sla.solve_triangular(low, rhs[perm], lower=True,
                                 unit_diagonal=True, check_finite=False)
        v = np.empty_like(w)
        i = 0
        # a vanishing pivot gives a non-finite solve, which the caller
        # replaces by least squares
        with np.errstate(divide="ignore", invalid="ignore"):
            while i < n:
                if i + 1 < n and d[i + 1, i] != 0.0:
                    a, b, c = d[i, i], d[i + 1, i], d[i + 1, i + 1]
                    det = a * c - b * b
                    w0, w1 = w[i], w[i + 1]
                    v[i] = (c * w0 - b * w1) / det
                    v[i + 1] = (-b * w0 + a * w1) / det
                    i += 2
                else:
                    v[i] = w[i] / d[i, i]
                    i += 1
        u = sla.solve_triangular(low.T, v, lower=False,
                                 unit_diagonal=True, check_finite=False)
        out = np.empty_like(u)
        out[perm] = u
        return out

    return solve


def _kkt_solver(hbar, a_eq, reg):
    """Solver of the regularized reduced KKT system: factored once, with
    one refinement pass per solve.

    Without equality rows the matrix is positive definite and is factored
    by Cholesky; with them, or when Cholesky breaks down, by LDL'.  If the
    factor solve is not finite, least squares replaces it.
    """
    n = hbar.shape[0]
    me = a_eq.shape[0]
    if me:
        kmat = np.zeros((n + me, n + me))
        kmat[:n, :n] = hbar
        kmat[:n, n:] = a_eq.T
        kmat[n:, :n] = a_eq
        kmat[n:, n:] = -reg * np.eye(me)
    else:
        kmat = hbar.copy()
    dim = n + me
    # kmat is contiguous, so ravel is a view: reg on the first n diagonal entries
    kmat.ravel()[:n * (dim + 1):dim + 1] += reg
    factor = None
    if me == 0:
        chol, info = _POTRF(kmat, lower=1, clean=0)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of potrf")
        if info == 0:
            factor = partial(_cholesky_solve, chol)
    if factor is None:
        factor = _ldl_solver(kmat)

    def solve(rhs_x, rhs_y):
        rhs = np.concatenate([rhs_x, rhs_y]) if me else rhs_x
        sol = factor(rhs)
        if np.isfinite(sol).all():
            sol = sol + factor(rhs - kmat @ sol)
        else:
            sol = np.linalg.lstsq(kmat, rhs, rcond=None)[0]
        return sol[:n], sol[n:]

    return solve


def _max_step(v, dv):
    """Per member, the step of 0.99 times the distance to the boundary
    v + alpha dv = 0, at most 1; v > 0."""
    # v / -dv where dv < 0; inf elsewhere, without dividing by zero
    ratio = np.where(dv < 0, v, np.inf) / np.maximum(-dv, 5e-324)
    return np.minimum(1.0, STEP_FRACTION * ratio.min(axis=1, initial=np.inf))


def _scales(prob):
    """(primal, dual) tolerance scales: 1 + the largest right-hand side,
    and 1 + the largest objective entry."""
    scale_p = 1.0 + max(
        float(np.abs(prob.b_eq).max(initial=0.0)),
        float(np.abs(prob.b_in).max(initial=0.0)),
    )
    scale_d = 1.0 + max(
        float(np.abs(prob.f).max(initial=0.0)), float(np.abs(prob.h).max(initial=0.0))
    )
    return scale_p, scale_d


def _objective(prob, x):
    return 0.5 * float(x @ (prob.h @ x)) + float(prob.f @ x)


class _Dense:
    """One QpProblem as a stack of one, in its own vector arithmetic.

    The loop's per-member arrays have one row; the products are taken on
    that row, with the reduced KKT system of _kkt_solver.
    """

    def __init__(self, prob):
        self.prob = prob

    def start(self):
        p = self.prob
        me = p.a_eq.shape[0]
        x = np.linalg.lstsq(p.a_eq, p.b_eq, rcond=None)[0] if me else np.zeros(p.n)
        s = np.maximum(1.0, p.b_in - p.a_in @ x)
        return x[None], np.zeros((1, me)), s[None], np.ones((1, s.shape[0]))

    def residuals(self, live, x, y, s, z):
        p = self.prob
        x, y, s, z = x[0], y[0], s[0], z[0]
        me = y.shape[0]
        rd = p.h @ x + p.f + p.a_in.T @ z + (p.a_eq.T @ y if me else 0.0)
        re = p.a_eq @ x - p.b_eq if me else np.zeros(0)
        ri = p.a_in @ x + s - p.b_in
        # without inequality rows there is no complementarity to reduce
        mu = float(s @ z) / max(s.shape[0], 1)
        return rd[None], re[None], ri[None], np.array([mu])

    def objective(self, member, x):
        return _objective(self.prob, x)

    def column(self, v):
        # the one member's number, which broadcasts as a scalar
        return v[0]

    def newton(self, live, d, rd, re, reg):
        p = self.prob
        gd = p.a_in / d[0][:, None]
        solve = _kkt_solver(p.h + gd.T @ p.a_in, p.a_eq, reg[0])
        rd, re = -rd[0], -re[0]

        def direction(r3):
            dx, dy = solve(rd + gd.T @ r3[0], re)
            return dx[None], dy[None], (p.a_in @ dx)[None]

        return direction


def _stack_solve(kmat, rhs):
    """Solve kmat[i] x = rhs[i] for every member at once.  A member whose
    matrix is exactly singular gets a NaN solution, which takes it out of
    the stack."""
    try:
        return np.linalg.solve(kmat, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for i, (mat, vec) in enumerate(zip(kmat, rhs)):
            try:
                out[i] = np.linalg.solve(mat, vec)
            except np.linalg.LinAlgError:
                pass
        return out


class _Stack:
    """LPs over one polytope {x : a_in x <= b_in}, one per row of fs.

    A member's Newton system is its normal matrix a_in' diag(1/d) a_in plus
    the regularization.  All members' matrices come from one product,
    (1/d) @ outer, where row i of outer is a_i a_i' flattened, and are
    solved together with the dense path's one refinement pass.
    """

    def __init__(self, prob, fs):
        self.prob, self.fs = prob, fs
        a = prob.a_in
        # an explicit width: a stack with no rows has nothing to infer it from
        self.outer = (a[:, :, None] * a[:, None, :]).reshape(
            a.shape[0], a.shape[1] ** 2)

    def start(self):
        k, n = self.fs.shape
        s = np.tile(np.maximum(1.0, self.prob.b_in), (k, 1))
        return np.zeros((k, n)), np.zeros((k, 0)), s, np.ones_like(s)

    def residuals(self, live, x, y, s, z):
        a, b = self.prob.a_in, self.prob.b_in
        f = self.fs[live]
        mu = np.einsum("ij,ij->i", s, z) / max(b.shape[0], 1)
        # no equality rows: y has no columns, and neither has re
        return f + z @ a, y, x @ a.T + s - b, mu

    def objective(self, member, x):
        return float(self.fs[member] @ x)

    def column(self, v):
        return v[:, None]

    def newton(self, live, d, rd, re, reg):
        a = self.prob.a_in
        k, n = rd.shape
        dinv = 1.0 / d
        kmat = (dinv @ self.outer).reshape(k, n, n)
        kmat[:, np.arange(n), np.arange(n)] += reg[:, None]

        def direction(r3):
            rhs = (r3 * dinv) @ a - rd
            dx = _stack_solve(kmat, rhs)
            dx = dx + _stack_solve(kmat, rhs - (kmat @ dx[:, :, None])[:, :, 0])
            return dx, re, dx @ a.T

        return direction


def _newton_step(kind, live, s, z, rd, re, ri, mu, reg):
    """Predictor-corrector direction (dx, dy, dz, ds) of the live members,
    with fixed centering.  The Newton system and the predictor die with
    this call, before the step is taken."""
    d = np.minimum(np.maximum(s / z, 1e-16), 1e16)
    direction = kind.newton(live, d, rd, re, reg)

    def newton(rc):
        # Newton direction of the KKT equations at the current iterate,
        # with complementarity target s z = rc
        r3 = -ri + rc / z
        dx, dy, adx = direction(r3)
        return dx, dy, (adx - r3) / d, -ri - adx

    # predictor: pure Newton on the KKT equations
    _, _, dz_a, ds_a = newton(s * z)
    # corrector with fixed centering
    return newton(s * z + ds_a * dz_a - SIGMA * kind.column(mu))


def _ipm(kind, scale_p, scale_d):
    """The predictor-corrector loop, over a stack of problems.

    kind supplies the members' start, residuals and Newton directions, as
    arrays with one row per member still in the stack; the step rule, the
    centering, the stop test and the guards are here and act per member.
    A member leaves the stack when it meets the stop test or a guard ends
    its iteration.  scale_d holds each member's dual scale.  Returns one
    tuple per member: x, y, z, whether it met the stop test, its
    iterations and its residual triplet (stationarity, primal,
    complementarity) at its last evaluation.
    """
    x, y, s, z = kind.start()
    k = x.shape[0]
    ends = [None] * k
    live = np.arange(k)
    hists = [[] for _ in range(k)]
    reg = REG * scale_d
    tol_d = (TARGET_TOL * scale_d).tolist()
    tol_p = TARGET_TOL * scale_p
    n = x.shape[1]

    def leave(keep, oks, res):
        """Record the members not kept, as they stand; keep as a mask."""
        for j, (i, kept) in enumerate(zip(live.tolist(), keep)):
            if not kept:
                # copies, so that no member keeps a stack's arrays alive
                ends[i] = (x[j].copy(), y[j].copy(), z[j].copy(), oks[j], it,
                           res[j])
        return np.array(keep)

    for it in range(1, MAX_ITER + 1):
        rd, re, ri, mu = kind.residuals(live, x, y, s, z)
        res, oks, keep = [], [], []
        for j, (i, nrd, nre, nri, m, nx) in enumerate(zip(
                live.tolist(), np.abs(rd).max(axis=1, initial=0.0).tolist(),
                np.abs(re).max(axis=1, initial=0.0).tolist(),
                np.abs(ri).max(axis=1, initial=0.0).tolist(), mu.tolist(),
                np.abs(x).max(axis=1, initial=0.0).tolist())):
            res.append((nrd, max(nre, nri), m))
            # |objective| <= n scale_d |x| (1 + n |x| / 2), so the objective
            # is evaluated only where the stop test can hinge on it; the
            # factor 2 covers rounding
            ok = (nrd <= tol_d[i] and nre <= tol_p and nri <= tol_p
                  and not m > TARGET_TOL + 2.0 * n * tol_d[i] * nx
                  * (1.0 + 0.5 * n * nx)
                  and m <= TARGET_TOL * (1.0 + abs(kind.objective(i, x[j]))))
            # divergence guard; mu >= 0, so a NaN or infinite mu fails it
            stop = ok or not m <= 1e16 or nx > 1e14 * scale_p
            hist = hists[i]
            hist.append((m, nrd, nre + nri))
            if not stop and len(hist) > 8:
                # stall guard: no progress over the last 7 iterations
                del hist[0]
                (m0, rd0, rp0), (m1, rd1, rp1) = hist[0], hist[-1]
                stop = (m1 > 0.9 * m0 and rd1 > 0.9 * rd0 + TARGET_TOL
                        and rp1 >= 0.9 * rp0)
            oks.append(ok)
            keep.append(not stop)
        if not all(keep):
            keep = leave(keep, oks, res)
            live, x, y, s, z, rd, re, ri, mu = (
                v[keep] for v in (live, x, y, s, z, rd, re, ri, mu))
            res = [r for r, kept in zip(res, keep) if kept]
        if not live.size:
            break

        dx, dy, dz, ds = _newton_step(kind, live, s, z, rd, re, ri, mu,
                                      reg[live])
        # primal steps in the first rows, dual steps in the rest
        steps = _max_step(np.concatenate((s, z)), np.concatenate((ds, dz)))
        ap, ad = steps[:live.size], steps[live.size:]
        finite = np.isfinite(np.concatenate((dx, ds, dz), axis=1)).all(axis=1)
        keep = [f and (a > 1e-12 or b > 1e-12) for f, a, b in
                zip(finite.tolist(), ap.tolist(), ad.tolist())]
        if not all(keep):
            keep = leave(keep, [False] * len(keep), res)
            live, x, y, s, z, dx, dy, dz, ds, ap, ad = (
                v[keep] for v in (live, x, y, s, z, dx, dy, dz, ds, ap, ad))
            res = [r for r, kept in zip(res, keep) if kept]
            if not live.size:
                break

        ap, ad = kind.column(ap), kind.column(ad)
        x = x + ap * dx
        s = np.maximum(s + ap * ds, 1e-300)
        z = np.maximum(z + ad * dz, 1e-300)
        if y.size:
            y = y + ad * dy
    leave([False] * live.size, [False] * live.size, res)
    return ends


def _kkt_check(prob, x, y, z, scale_p, scale_d):
    """The verdict on a candidate primal-dual point (x, y, z).

    Returns the residual triplet (stationarity, primal, complementarity)
    when all four conditions hold at TARGET_TOL: stationarity, every
    equality and inequality row, nonnegative inequality duals, and
    complementarity; otherwise None.  Each test is written as "not
    within", so a non-finite residual fails it.
    """
    rd = float(np.abs(prob.h @ x + prob.f + prob.a_in.T @ z
                      + prob.a_eq.T @ y).max(initial=0.0))
    re = float(np.abs(prob.a_eq @ x - prob.b_eq).max(initial=0.0))
    ri = float((prob.a_in @ x - prob.b_in).max(initial=0.0))
    if not (rd <= TARGET_TOL * scale_d and re <= TARGET_TOL * scale_p
            and ri <= TARGET_TOL * scale_p):
        return None
    if not z.min(initial=0.0) >= -TARGET_TOL * scale_d:
        return None
    comp = float(np.abs(z * (prob.b_in - prob.a_in @ x)).max(initial=0.0))
    if not comp <= TARGET_TOL * scale_d * (1.0 + abs(_objective(prob, x))):
        return None
    return rd, max(re, ri), comp


def _active_kkt(prob, active, x, y, z):
    """Exact KKT point of prob with the inequality rows `active` held as
    equalities, or None when more than 3 n + m_eq rows are given.

    The equality-constrained KKT system is solved in deviation form from
    the point (x, y, z), so a singular system (optimal face, not vertex)
    yields the solution nearest that point.  Returns (x, y, z) with zero
    duals off the active rows.
    """
    n = prob.n
    me = prob.a_eq.shape[0]
    if active.size > 3 * n + me:
        return None
    a_act = prob.a_in[active]
    dim = n + me + active.size
    kmat = np.zeros((dim, dim))
    kmat[:n, :n] = prob.h
    kmat[:n, n:n + me] = prob.a_eq.T
    kmat[:n, n + me:] = a_act.T
    kmat[n:n + me, :n] = prob.a_eq
    kmat[n + me:, :n] = a_act
    rhs = np.concatenate([-prob.f, prob.b_eq, prob.b_in[active]])
    cur = np.concatenate([x, y, z[active]])
    delta, *_ = np.linalg.lstsq(kmat, rhs - kmat @ cur, rcond=None)
    sol = cur + delta
    zp = np.zeros(prob.a_in.shape[0])
    zp[active] = sol[n + me:]
    return sol[:n], sol[n:n + me], zp


def _crossover(prob, x, y, z, scale_p, scale_d):
    """Jump from an interior point to the exact KKT point of its active set.

    The complementarity split of the interior solution guesses the active
    inequalities; the KKT point of that guess is returned as
    (x, y, z, residuals) only if it passes _kkt_check, otherwise None.
    """
    slack = prob.b_in - prob.a_in @ x
    point = _active_kkt(prob, np.flatnonzero(z >= slack), x, y, z)
    if point is None:
        return None
    res = _kkt_check(prob, *point, scale_p, scale_d)
    return None if res is None else (*point, res)


def _active_set(prob, start, scale_p, scale_d):
    """Primal active-set rounds from the guess start with zero duals.

    The guess itself is tried first.  Each round then solves the KKT
    system of the rows with positive duals plus the rows the last
    candidate violates; the first round, at zero duals, takes the rows
    the guess violates or touches (slack below TARGET_TOL scale_p), so
    a guess at a constrained optimum is accepted after one round.
    Returns (x, z, residuals, rounds) for the first candidate _kkt_check
    accepts within ACTIVE_SET_ROUNDS, otherwise None.
    """
    x, y, z = start, np.zeros(0), np.zeros(prob.a_in.shape[0])
    touch = TARGET_TOL * scale_p  # the first round only
    for rounds in range(ACTIVE_SET_ROUNDS + 1):
        if rounds:
            active = np.flatnonzero((z > 0.0)
                                    | (prob.a_in @ x > prob.b_in - touch))
            touch = 0.0
            point = _active_kkt(prob, active, x, y, z)
            if point is None:
                return None
            x, y, z = point
        res = _kkt_check(prob, x, y, z, scale_p, scale_d)
        if res is not None:
            return x, z, res, rounds
    return None


def _interior_solve(prob):
    """Interior point, then crossover to the exact solution of the active
    set's KKT system when it checks out; a non-optimal end is not diagnosed."""
    scale_p, scale_d = _scales(prob)
    x, y, z, ok, it, res = _ipm(_Dense(prob), scale_p, np.array([scale_d]))[0]
    status = OPTIMAL if ok else MAXITER
    # accept a stalled point that still meets the contract tolerance
    if (not ok and res[0] <= ACCEPT_TOL * scale_d
            and res[1] <= ACCEPT_TOL * scale_p
            and res[2] <= ACCEPT_TOL * (1.0 + abs(_objective(prob, x)))):
        status = OPTIMAL
    return _polished(prob, x, y, z, status, it, res, scale_p, scale_d)


def _polished(prob, x, y, z, status, it, res, scale_p, scale_d):
    """The solution at the loop's end point, or at its crossover point."""
    # a complete KKT certificate also rescues stalled-but-close points
    polished = _crossover(prob, x, y, z, scale_p, scale_d)
    if polished is not None:
        x, y, z, res = polished
        status = OPTIMAL
    return QpSolution(
        x=x,
        objective=_objective(prob, x),
        eq_duals=y,
        in_duals=np.maximum(z, 0.0),
        status=status,
        iterations=it,
        kkt_residual=float(max(res)),
    )


def solve_qp(prob, start=None):
    """Solve a QpProblem; statuses: optimal, infeasible, unbounded, maxiter.

    On optimal the KKT conditions hold to 1e-7 scaled by (1 + data norms).
    Infeasibility and unboundedness are certified by auxiliary LPs rather
    than guessed from divergence.

    start is an optional primal guess for a problem with h != 0 and no
    equality rows; other problems ignore it.  The guess and a few
    active-set rounds from it are tried first, and a point they reach is
    returned only if it passes _kkt_check; otherwise the interior point
    path runs as without a guess.  iterations then counts the rounds.
    """
    if start is not None and not prob.a_eq.shape[0] and prob.h.any():
        scale_p, scale_d = _scales(prob)
        found = _active_set(prob, _checked_vector("start", start, prob.n),
                            scale_p, scale_d)
        if found is not None:
            x, z, res, rounds = found
            return QpSolution(
                x=x,
                objective=_objective(prob, x),
                eq_duals=np.zeros(0),
                in_duals=np.maximum(z, 0.0),
                status=OPTIMAL,
                iterations=rounds,
                kkt_residual=float(max(res)),
            )
    sol = _interior_solve(prob)
    if sol.status != OPTIMAL:
        if not _phase1(prob):
            sol.status = INFEASIBLE
        elif float(np.abs(prob.h).max(initial=0.0)) == 0.0 and _has_ray(prob):
            sol.status = UNBOUNDED
    return sol


def linear_program(f, a_in=None, b_in=None, a_eq=None, b_eq=None):
    """LP front end: min f' x subject to the supplied constraint blocks.

    A 2-D f is a stack, one LP per row over the same inequality rows (a
    stack takes no equality rows), and gives one QpSolution per row.  The
    rows share one interior point loop.  A member that meets its stop test
    there goes through the crossover, as in solve_qp; any other member is
    solved again on its own by solve_qp, which keeps the stalled-point
    accept and the infeasibility and unboundedness verdicts.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2:
        f = f.ravel()
        n = f.shape[0]
        return solve_qp(QpProblem(h=np.zeros((n, n)), f=f, a_eq=a_eq,
                                  b_eq=b_eq, a_in=a_in, b_in=b_in))
    n = f.shape[1]
    prob = QpProblem(h=np.zeros((n, n)), f=np.zeros(n), a_eq=a_eq, b_eq=b_eq,
                     a_in=a_in, b_in=b_in)
    if prob.a_eq.shape[0]:
        raise DimensionMismatch("a stack of LPs takes no equality rows")
    members = [prob.with_vectors(row) for row in f]
    scales = [_scales(m) for m in members]
    ends = _ipm(_Stack(prob, f), _scales(prob)[0],
                np.array([sd for _, sd in scales]))
    return [_polished(m, x, y, z, OPTIMAL, it, res, *sc) if ok else solve_qp(m)
            for m, sc, (x, y, z, ok, it, res) in zip(members, scales, ends)]


def _phase1(prob):
    """True iff the constraint rows of prob admit a point: the least
    gamma >= 0 with a_in x <= b_in + gamma, a_eq x = b_eq is at most 1e-7
    (scaled)."""
    n = prob.n
    a_eq, b_eq, a_in, b_in = prob.a_eq, prob.b_eq, prob.a_in, prob.b_in
    mi = a_in.shape[0]
    me = a_eq.shape[0]
    if me:
        xls, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
        if np.abs(a_eq @ xls - b_eq).max(initial=0.0) > ACCEPT_TOL * (
            1.0 + np.abs(b_eq).max(initial=0.0)
        ) * (1.0 + np.abs(xls).max(initial=0.0)):
            return False
    f = np.zeros(n + 1)
    f[-1] = 1.0
    g = np.zeros((mi + 1, n + 1))
    g[:mi, :n] = a_in
    g[:mi, -1] = -1.0
    g[mi, -1] = -1.0
    sol = _interior_solve(QpProblem(
        h=np.zeros((n + 1, n + 1)), f=f,
        a_eq=np.hstack([a_eq, np.zeros((me, 1))]), b_eq=b_eq,
        a_in=g, b_in=np.concatenate([b_in, [0.0]])))
    if sol.status != OPTIMAL:
        raise SolverFailure("phase-1 slack minimization stalled")
    return float(sol.x[-1]) <= ACCEPT_TOL * (1.0 + float(np.abs(b_in).max(initial=0.0)))


def _has_ray(prob):
    """Certify LP unboundedness: a bounded ray with negative cost."""
    n = prob.n
    mi = prob.a_in.shape[0]
    g = np.vstack([prob.a_in, np.eye(n), -np.eye(n)])
    hvec = np.concatenate([np.zeros(mi), np.ones(2 * n)])
    sol = _interior_solve(QpProblem(h=np.zeros((n, n)), f=prob.f, a_in=g,
                                    b_in=hvec, a_eq=prob.a_eq,
                                    b_eq=np.zeros(prob.a_eq.shape[0])))
    scale = 1.0 + float(np.abs(prob.f).max(initial=0.0))
    return sol.status == OPTIMAL and sol.objective < -1e-8 * scale
