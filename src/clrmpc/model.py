"""Problem data: uncertain system, disturbance set, constraint set.

The plant model is

    x+ = a x + b u + b_p p + b_w w,    q = d_x x + d_u u + d_w w,
    p = delta q,   delta in convex hull of the listed vertices,
    w in the polytope {h_w w <= b_w},   (x, u) in {f x + g u <= b}.

A model round-trips through the artifact text format of utils: a header
line, then `key = value` lines with nested bracket arrays for matrices.
The reader accepts exactly the header and keys the writer writes.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import qpsolver
from .errors import DimensionMismatch, EmptyPolytope, ModelFormatError
from .utils import MATRICES, MATRIX, VECTOR, read_keyed, sha256_hex, write_keyed

MODEL_HEADER = "# uncertain system model, toolkit text format v1"
MODEL_KEYS = {
    "n_x": int, "n_u": int, "n_p": int, "n_w": int,
    "A": MATRIX, "B": MATRIX, "B_p": MATRIX, "B_w": MATRIX,
    "D_x": MATRIX, "D_u": MATRIX, "D_w": MATRIX, "deltas": MATRICES,
    "H_w": MATRIX, "h_w": VECTOR, "F": MATRIX, "G": MATRIX, "b": VECTOR,
}


def _mat(value, rows, cols, name):
    a = np.asarray(value, dtype=float)
    if a.ndim != 2 or a.shape != (rows, cols):
        raise DimensionMismatch(f"{name} must be {rows}x{cols}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


@dataclass
class UncertainSystem:
    a: np.ndarray
    b: np.ndarray
    b_p: np.ndarray
    b_w: np.ndarray
    d_x: np.ndarray
    d_u: np.ndarray
    d_w: np.ndarray
    deltas: list = field(default_factory=list)

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        n_x = self.a.shape[0]
        self.a = _mat(self.a, n_x, n_x, "a")
        n_u = np.asarray(self.b, dtype=float).shape[1]
        n_p = np.asarray(self.b_p, dtype=float).shape[1]
        n_w = np.asarray(self.b_w, dtype=float).shape[1]
        self.b = _mat(self.b, n_x, n_u, "b")
        self.b_p = _mat(self.b_p, n_x, n_p, "b_p")
        self.b_w = _mat(self.b_w, n_x, n_w, "b_w")
        self.d_x = _mat(self.d_x, n_p, n_x, "d_x")
        self.d_u = _mat(self.d_u, n_p, n_u, "d_u")
        self.d_w = _mat(self.d_w, n_p, n_w, "d_w")
        if not self.deltas:
            raise DimensionMismatch("at least one uncertainty vertex is required")
        self.deltas = [_mat(d, n_p, n_p, "delta") for d in self.deltas]

    @property
    def n_x(self):
        return self.a.shape[0]

    @property
    def n_u(self):
        return self.b.shape[1]

    @property
    def n_p(self):
        return self.b_p.shape[1]

    @property
    def n_w(self):
        return self.b_w.shape[1]

    @property
    def n_delta(self):
        return len(self.deltas)

    def step(self, x, u, w, delta):
        """One exact plant step under a fixed uncertainty matrix."""
        q = self.d_x @ x + self.d_u @ u + self.d_w @ w
        return self.a @ x + self.b @ u + self.b_p @ (delta @ q) + self.b_w @ w


@dataclass
class Polytope:
    """H-representation {x : h x <= b}."""

    h: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.h.ndim != 2 or self.h.shape[0] != self.b.shape[0]:
            raise DimensionMismatch("polytope row counts of h and b differ")
        if not (np.all(np.isfinite(self.h)) and np.all(np.isfinite(self.b))):
            raise ValueError("polytope has non-finite entries")
        zero_rows = np.abs(self.h).max(axis=1, initial=0.0) == 0.0
        if np.any(zero_rows & (self.b < 0)):
            raise EmptyPolytope("zero normal row with negative offset")

    @property
    def dim(self):
        return self.h.shape[1]

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float).ravel()
        scale = 1.0 + float(np.abs(self.b).max(initial=0.0))
        return bool(np.all(self.h @ x <= self.b + tol * scale))

    @cached_property
    def box_bounds(self):
        """Per-coordinate (lo, hi) when every row of h touches a single
        coordinate and the rows bound every coordinate, else None.

        Kept on the instance like bounding_box; the arrays are read-only.
        """
        if self.h.shape[0] == 0:
            return None
        lo = np.full(self.dim, -np.inf)
        hi = np.full(self.dim, np.inf)
        for r in range(self.h.shape[0]):
            nz = np.nonzero(self.h[r])[0]
            if len(nz) != 1:
                return None
            i = nz[0]
            coef = self.h[r, i]
            if coef > 0:
                hi[i] = min(hi[i], self.b[r] / coef)
            else:
                lo[i] = max(lo[i], self.b[r] / coef)
        if np.any(~np.isfinite(lo)) or np.any(~np.isfinite(hi)) or np.any(lo > hi):
            return None
        lo.flags.writeable = False
        hi.flags.writeable = False
        return lo, hi

    @cached_property
    def bounding_box(self):
        """Per-coordinate (lo, hi) bounds, from one stack of 2 * dim LPs
        on first use.

        The result is kept on the instance, so h and b must not change
        once the box has been read.
        """
        eye = np.eye(self.dim)
        sols = qpsolver.linear_program(np.vstack([eye, -eye]), a_in=self.h,
                                       b_in=self.b)
        if any(sol.status != qpsolver.OPTIMAL for sol in sols):
            raise EmptyPolytope("polytope is empty or unbounded")
        x = np.array([sol.x for sol in sols])
        return np.diag(x[:self.dim]).copy(), np.diag(x[self.dim:]).copy()


@dataclass
class ConstraintSet:
    """Mixed state-input constraints {(x, u) : f x + g u <= b}."""

    f: np.ndarray
    g: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.f.ndim != 2 or self.g.ndim != 2:
            raise DimensionMismatch("f and g must be matrices")
        if self.f.shape[0] != self.g.shape[0] or self.f.shape[0] != self.b.shape[0]:
            raise DimensionMismatch("f, g, b row counts differ")
        if not all(np.all(np.isfinite(m)) for m in (self.f, self.g, self.b)):
            raise ValueError("constraint set has non-finite entries")

    @property
    def n_c(self):
        return self.b.shape[0]

    def stacked(self):
        return np.hstack([self.f, self.g])


def validate(sys, w, c):
    """Cross-check a model triple; returns a list of human-readable issues."""
    issues = []
    if w.dim != sys.n_w:
        issues.append(f"disturbance polytope dimension {w.dim} != n_w {sys.n_w}")
    if c.f.shape[1] != sys.n_x:
        issues.append(f"constraint f has {c.f.shape[1]} columns, n_x is {sys.n_x}")
    if c.g.shape[1] != sys.n_u:
        issues.append(f"constraint g has {c.g.shape[1]} columns, n_u is {sys.n_u}")
    if np.any(c.b <= 0):
        issues.append("constraint offsets must be strictly positive (origin interior)")
    if np.any(w.b < 0):
        issues.append("disturbance set must contain the origin (h_w 0 <= b_w)")
    if not issues:
        for name, poly in (("constraint", Polytope(h=c.stacked(), b=c.b)),
                           ("disturbance", w)):
            try:
                poly.bounding_box
            except EmptyPolytope:
                issues.append(f"{name} set is unbounded")
    return issues


def build_msd():
    """Two-cart spring-damper benchmark with uncertain coupling.

    Carts of mass 0.2 joined by a spring-damper pair (nominal 0.5 each,
    4% / 2% uncertain), Euler-discretized at 0.1 s, forces on both carts,
    additive input disturbance at one fifth of the input gain, every state
    and input bounded by 2 in magnitude.
    """
    m1 = m2 = 0.2
    k12 = 0.5
    c12 = 0.5
    ts = 0.1
    w_b = 0.2
    k_u = 0.04 * k12
    c_u = 0.02 * c12

    a = np.array(
        [
            [1.0, ts, 0.0, 0.0],
            [-k12 * ts / m1, 1.0 - c12 * ts / m1, k12 * ts / m1, c12 * ts / m1],
            [0.0, 0.0, 1.0, ts],
            [k12 * ts / m2, c12 * ts / m2, -k12 * ts / m2, 1.0 - c12 * ts / m2],
        ]
    )
    b = np.array([[0.0, 0.0], [ts / m1, 0.0], [0.0, 0.0], [0.0, ts / m2]])
    b_p = np.array(
        [
            [0.0, 0.0],
            [k_u * ts / m1, c_u * ts / m1],
            [0.0, 0.0],
            [-k_u * ts / m2, -c_u * ts / m2],
        ]
    )
    b_w = w_b * b
    # uncertainty channel sees relative displacement and relative velocity
    d_x = np.array([[-1.0, 0.0, 1.0, 0.0], [0.0, -1.0, 0.0, 1.0]])
    d_u = np.zeros((2, 2))
    d_w = np.zeros((2, 2))
    deltas = [np.diag([s1, s2]) for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]
    sys = UncertainSystem(a=a, b=b, b_p=b_p, b_w=b_w, d_x=d_x, d_u=d_u, d_w=d_w,
                          deltas=deltas)

    w = Polytope(h=np.vstack([np.eye(2), -np.eye(2)]), b=np.ones(4))
    f = np.vstack([np.eye(4), -np.eye(4), np.zeros((4, 4))])
    g = np.vstack([np.zeros((8, 2)), np.eye(2), -np.eye(2)])
    c = ConstraintSet(f=f, g=g, b=2.0 * np.ones(12))
    return sys, w, c


def _box_signs(deltas):
    """Sign patterns when the vertex set is the full diagonal +-1 box."""
    n_p = deltas[0].shape[0]
    if len(deltas) != 2**n_p:
        return None
    patterns = set()
    for d in deltas:
        if np.abs(d - np.diag(np.diag(d))).max(initial=0.0) > 0.0:
            return None
        diag = np.diag(d)
        if not np.all(np.abs(np.abs(diag) - 1.0) < 1e-12):
            return None
        patterns.add(tuple(np.sign(diag).astype(int)))
    if len(patterns) != 2**n_p:
        return None
    return [tuple(np.sign(np.diag(d)).astype(int)) for d in deltas]


def sample_delta(sys, rng):
    """Draw an uncertainty matrix from the vertex hull.

    Returns (delta, weights) with weights a convex combination certificate,
    i.e. delta == sum_j weights[j] * deltas[j] exactly.  When the vertices
    form the complete diagonal sign box the draw is uniform over the box.
    """
    signs = _box_signs(sys.deltas)
    if signs is not None:
        d = rng.uniform(-1.0, 1.0, size=sys.n_p)
        weights = np.array(
            [np.prod([(1.0 + s[i] * d[i]) / 2.0 for i in range(sys.n_p)]) for s in signs]
        )
        return np.diag(d), weights
    weights = rng.dirichlet(np.ones(sys.n_delta))
    delta = sum(wj * dj for wj, dj in zip(weights, sys.deltas))
    return delta, weights


def sample_disturbance(w, rng):
    """Uniform draw from the disturbance polytope.

    Axis-aligned boxes (the common case) sample each coordinate directly;
    anything else goes through rejection from the bounding box.
    """
    box = w.box_bounds
    if box is not None:
        lo, hi = box
        return rng.uniform(lo, hi)
    lo, hi = w.bounding_box
    span = np.maximum(hi - lo, 0.0)
    for _ in range(10_000):
        cand = lo + rng.uniform(0.0, 1.0, size=w.dim) * span
        if w.contains(cand, tol=1e-12):
            return cand
    raise RuntimeError("rejection sampling failed; polytope volume too small")


def write_model_text(sys, w, c):
    """Serialize a model triple to the text format accepted by read_model_text."""
    return write_keyed(MODEL_HEADER, {
        "n_x": sys.n_x, "n_u": sys.n_u, "n_p": sys.n_p, "n_w": sys.n_w,
        "A": sys.a, "B": sys.b, "B_p": sys.b_p, "B_w": sys.b_w,
        "D_x": sys.d_x, "D_u": sys.d_u, "D_w": sys.d_w,
        "deltas": sys.deltas, "H_w": w.h, "h_w": w.b,
        "F": c.f, "G": c.g, "b": c.b,
    })


def read_model_text(text):
    """Parse the model text format; rejects a missing header and unknown or
    missing keys."""
    entries = read_keyed(text, MODEL_HEADER, MODEL_KEYS, "model")
    try:
        sys = UncertainSystem(
            a=entries["A"], b=entries["B"], b_p=entries["B_p"], b_w=entries["B_w"],
            d_x=entries["D_x"], d_u=entries["D_u"], d_w=entries["D_w"],
            deltas=list(entries["deltas"]),
        )
    except (DimensionMismatch, ValueError) as exc:
        raise ModelFormatError(str(exc)) from exc
    for name, actual in (("n_x", sys.n_x), ("n_u", sys.n_u),
                         ("n_p", sys.n_p), ("n_w", sys.n_w)):
        declared = entries[name]
        if declared != actual:
            raise ModelFormatError(f"declared {name}={declared} but matrices give {actual}")
    try:
        w = Polytope(h=entries["H_w"], b=entries["h_w"])
        c = ConstraintSet(f=entries["F"], g=entries["G"], b=entries["b"])
    except (DimensionMismatch, EmptyPolytope, ValueError) as exc:
        raise ModelFormatError(str(exc)) from exc
    if w.dim != sys.n_w:
        raise ModelFormatError("H_w column count does not match n_w")
    return sys, w, c


def model_fingerprint(text):
    """Stable identity of a serialized model, stored inside certificates."""
    return sha256_hex(text)
