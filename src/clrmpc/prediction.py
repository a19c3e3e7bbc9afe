"""Stacked prediction algebra for a fixed horizon.

Everything here is plain matrix assembly.  With s = [x; u_0; ...; u_{N-1}],
the bundle's map S sends s to the stacked nominal trajectory
[x_0; ...; x_N; u_0; ...; u_{N-1}], H_xu and b express the tightened
constraint system H_xu S s <= b - t, and the one-step matrices describe how
the stacked trajectory at the next sample depends on (s, w) for each
uncertainty vertex, with or without the feedback parameterization of the
successor input sequence.  The bundle owns the plan polytope
{s : a_lp s <= b - t} and successor_rows its one-step successor rows, so
synthesis, verification and the online controller all read one algebra.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass
class GainSet:
    """Feedback gains attached to one uncertainty vertex.

    k_term: terminal state feedback (n_u x n_x).
    m_gains: stacked disturbance feedback, row block i applies to step i
        (N*n_u x n_x).
    k_delta: stacked perturbation feedback on y = [x; u_0]
        (N*n_u x (n_x + n_u)).
    """

    k_term: np.ndarray
    m_gains: np.ndarray
    k_delta: np.ndarray

    def __post_init__(self):
        self.k_term = np.asarray(self.k_term, dtype=float)
        self.m_gains = np.asarray(self.m_gains, dtype=float)
        self.k_delta = np.asarray(self.k_delta, dtype=float)
        n_u, n_x = self.k_term.shape
        n = self.m_gains.shape[0] // max(n_u, 1)
        if self.m_gains.shape != (n * n_u, n_x):
            raise DimensionMismatch("m_gains rows must stack N blocks of n_u")
        if self.k_delta.shape != (n * n_u, n_x + n_u):
            raise DimensionMismatch("k_delta must be N*n_u by n_x+n_u")


def zero_gains(n, n_x, n_u):
    return GainSet(
        k_term=np.zeros((n_u, n_x)),
        m_gains=np.zeros((n * n_u, n_x)),
        k_delta=np.zeros((n * n_u, n_x + n_u)),
    )


@dataclass
class PredictionBundle:
    n: int
    n_x: int
    n_u: int
    n_c: int
    n_y: int
    s_mat: np.ndarray
    s_x: np.ndarray
    s_u: np.ndarray
    h_xu: np.ndarray
    b_stack: np.ndarray
    d_xu: np.ndarray
    a_lp: np.ndarray
    a_x: np.ndarray
    a_u: np.ndarray
    c_w: list = field(default_factory=list)

    @property
    def n_rows(self):
        """Rows of the stacked trajectory vector."""
        return (self.n + 1) * self.n_x + self.n * self.n_u

    @property
    def n_s(self):
        """Length of the decision vector s."""
        return self.n_x + self.n * self.n_u

    @property
    def n_t(self):
        """Length of the tightening vector."""
        return self.n * self.n_c + self.n_y

    def term_rows(self):
        """Rows of S producing the terminal predicted state."""
        return self.s_mat[self.n * self.n_x:(self.n + 1) * self.n_x, :]

    def stage_rows(self):
        """(F, G, b) of one stage, read back from the stacked rows."""
        n, n_x, n_u, n_c = self.n, self.n_x, self.n_u, self.n_c
        f = self.h_xu[:n_c, :n_x]
        g = self.h_xu[:n_c, (n + 1) * n_x:(n + 1) * n_x + n_u]
        return f, g, self.b_stack[:n_c]

    def tightened(self, t):
        """Offsets b - t of the plan polytope a_lp s <= b - t; ValueError
        when a tightening exceeds its offset by more than rounding."""
        bt = self.b_stack - np.asarray(t, dtype=float).ravel()
        if bt.min() < -1e-12:
            raise ValueError("tightenings exceed the constraint offsets")
        return bt


def build_bundle(sys, c, y, z, n):
    """Assemble the stacked matrices for horizon n and terminal set (y, z).

    a_lp, a_x and a_u are H_xu times S, S_x and S_u, three separate
    products: a column slice of a_lp can differ from a_x in the last bit.
    Every array is returned read-only, so no caller can change a bundle
    that others hold.
    """
    if n < 1:
        raise DimensionMismatch("horizon must be at least 1")
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float).ravel()
    if y.ndim != 2 or y.shape[0] != z.shape[0]:
        raise DimensionMismatch("terminal matrix and offset row counts differ")
    if y.shape[1] != sys.n_x:
        raise DimensionMismatch("terminal matrix columns must equal n_x")
    if c.f.shape[1] != sys.n_x or c.g.shape[1] != sys.n_u:
        raise DimensionMismatch("constraint set does not match system dims")

    n_x, n_u, n_p = sys.n_x, sys.n_u, sys.n_p
    n_c = c.n_c
    n_y = y.shape[0]

    a_pow = [np.eye(n_x)]
    for _ in range(n + 1):
        a_pow.append(sys.a @ a_pow[-1])

    s_x = np.vstack([np.vstack(a_pow[: n + 1]), np.zeros((n * n_u, n_x))])

    s_u = np.zeros(((n + 1) * n_x + n * n_u, n * n_u))
    for i in range(1, n + 1):
        for l in range(i):
            s_u[i * n_x:(i + 1) * n_x, l * n_u:(l + 1) * n_u] = a_pow[i - 1 - l] @ sys.b
    s_u[(n + 1) * n_x:, :] = np.eye(n * n_u)
    s_mat = np.hstack([s_x, s_u])

    h_xu = np.zeros((n * n_c + n_y, (n + 1) * n_x + n * n_u))
    h_xu[: n * n_c, : n * n_x] = np.kron(np.eye(n), c.f)
    h_xu[: n * n_c, (n + 1) * n_x:] = np.kron(np.eye(n), c.g)
    h_xu[n * n_c:, n * n_x:(n + 1) * n_x] = y

    b_stack = np.concatenate([np.tile(c.b, n), z])

    d_xu = np.zeros((n_p, n_x + n * n_u))
    d_xu[:, :n_x] = sys.d_x
    d_xu[:, n_x:n_x + n_u] = sys.d_u

    c_w = [_freeze(s_x @ (sys.b_w + sys.b_p @ dj @ sys.d_w)) for dj in sys.deltas]

    return PredictionBundle(
        n=n, n_x=n_x, n_u=n_u, n_c=n_c, n_y=n_y,
        s_mat=_freeze(s_mat), s_x=_freeze(s_x), s_u=_freeze(s_u),
        h_xu=_freeze(h_xu), b_stack=_freeze(b_stack),
        d_xu=_freeze(d_xu), a_lp=_freeze(h_xu @ s_mat),
        a_x=_freeze(h_xu @ s_x), a_u=_freeze(h_xu @ s_u), c_w=c_w,
    )


def build_gain_matrices(bundle, gains, sys, vertex):
    """One-step maps (c_k, c_m) under the feedback parameterization.

    c_k maps s_k to the successor stacked trajectory and c_m maps the
    disturbance into it, when the uncertainty sits at the given vertex and
    the successor inputs are the shifted plan plus the feedback terms.
    """
    if not 0 <= vertex < sys.n_delta:
        raise DimensionMismatch(f"vertex {vertex} out of range")
    n, n_x, n_u = bundle.n, bundle.n_x, bundle.n_u
    if gains.k_term.shape != (n_u, n_x) or gains.m_gains.shape != (n * n_u, n_x):
        raise DimensionMismatch("gain shapes do not match the bundle")

    term = bundle.term_rows()
    a_k = sys.a + sys.b @ gains.k_term

    l_k = np.zeros((bundle.n_rows, bundle.n_s))
    # predicted states 0..N-1 are yesterday's states 1..N
    l_k[: n * n_x, :] = bundle.s_mat[n_x:(n + 1) * n_x, :]
    l_k[n * n_x:(n + 1) * n_x, :] = a_k @ term
    # successor inputs 0..N-2 are the shifted plan
    l_k[(n + 1) * n_x:(n + 1) * n_x + (n - 1) * n_u, n_x + n_u:] = np.eye((n - 1) * n_u)
    l_k[(n + 1) * n_x + (n - 1) * n_u:, :] = gains.k_term @ term

    sel_y = np.zeros((n_x + n_u, bundle.n_s))
    sel_y[:, : n_x + n_u] = np.eye(n_x + n_u)

    c_k = (
        l_k
        + bundle.s_x @ sys.b_p @ sys.deltas[vertex] @ bundle.d_xu
        + bundle.s_u @ gains.k_delta @ sel_y
    )
    c_m = bundle.c_w[vertex] + bundle.s_u @ gains.m_gains @ sys.b_w
    return c_k, c_m


def successor_rows(bundle, gains, sys, vertex):
    """Rows H_xu [c_k, c_m] of the successor constraints over (s, w)."""
    c_k, c_m = build_gain_matrices(bundle, gains, sys, vertex)
    return bundle.h_xu @ np.hstack([c_k, c_m])


def candidate_inputs(bundle, gains, sys, s, w):
    """Successor input sequence built literally from the feedback law.

    Step i < N-1 takes the shifted plan plus disturbance and perturbation
    feedback; the last step closes the loop on the predicted terminal state.
    """
    n, n_x, n_u = bundle.n, bundle.n_x, bundle.n_u
    s = np.asarray(s, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    u_plan = s[n_x:].reshape(n, n_u)
    y = s[: n_x + n_u]
    x_term = bundle.term_rows() @ s
    mw = (gains.m_gains @ sys.b_w @ w).reshape(n, n_u)
    ky = (gains.k_delta @ y).reshape(n, n_u)
    out = np.empty((n, n_u))
    for i in range(n - 1):
        out[i] = u_plan[i + 1] + mw[i] + ky[i]
    out[n - 1] = gains.k_term @ x_term + mw[n - 1] + ky[n - 1]
    return out.ravel()
