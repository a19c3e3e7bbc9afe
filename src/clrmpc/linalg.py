"""Dense real linear algebra kernels used throughout the toolkit.

Two operations carry the numerical load: the eigenvalues of a symmetric
matrix, the independent check on the terminal cost search's result, and a
discrete algebraic Riccati solver for the terminal feedback gain.

The eigenvalues come from a cyclic Jacobi iteration: sweeps of plane
rotations annihilate off-diagonal entries until the off-diagonal Frobenius
norm falls below 1e-12 times the input norm.  Jacobi is slower than QR
iteration but every rotation is orthogonal by construction, which makes the
result a trustworthy oracle for positive definiteness margins.

The Riccati solver is the plain fixed-point recursion

    p <- q + a' p a - a' p b (r + b' p b)^-1 b' p a

started at p = q.  For stabilizable (a, b) and detectable (a, q) the
recursion converges linearly; the gain k = (r + b' p b)^-1 b' p a is checked
a posteriori to give spectral radius(a - b k) < 1.
"""

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotSymmetric, Unstabilizable

DARE_MAX_ITER = 100_000
DARE_TOL = 1e-10
JACOBI_MAX_SWEEPS = 100
JACOBI_OFF_TOL = 1e-12


def as_matrix(m, name="matrix"):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def _check_symmetric(m, name):
    scale = 1.0 + float(np.abs(m).max(initial=0.0))
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {m.shape}")
    if np.abs(m - m.T).max(initial=0.0) > 1e-9 * scale:
        raise NotSymmetric(f"{name} is not symmetric within 1e-9*(1+max|entry|)")


def sym_eig(m):
    """Ascending eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate away every off-diagonal pair (p, q) in row order until the
    off-diagonal norm is at most 1e-12 * ||m||_F.  Raises NotSymmetric for
    asymmetric input and NoConvergence if the sweep cap is hit.
    """
    m = as_matrix(m, "m")
    _check_symmetric(m, "m")
    n = m.shape[0]
    a = 0.5 * (m + m.T)
    if n == 1:
        return a[0].copy()

    norm = np.linalg.norm(a)
    target = JACOBI_OFF_TOL * max(norm, np.finfo(float).tiny)

    def off(mat):
        return np.linalg.norm(mat - np.diag(np.diag(mat)))

    for _ in range(JACOBI_MAX_SWEEPS):
        if off(a) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                # smaller root of t^2 + 2 t theta - 1 = 0, stable form
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0)) if theta != 0.0 else 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp = a[:, p].copy()
                rq = a[:, q].copy()
                a[:, p] = c * rp - s * rq
                a[:, q] = s * rp + c * rq
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
    else:
        raise NoConvergence("jacobi sweeps exhausted before off-diagonal target")

    return np.sort(np.diag(a), kind="stable")


def spectral_radius(m):
    """Largest eigenvalue magnitude of a square (possibly asymmetric) matrix."""
    m = as_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {m.shape}")
    if m.shape[0] == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(m)).max())


def solve_dare(a, b, q, r):
    """Discrete algebraic Riccati equation by fixed-point iteration.

    Returns (p, k) with p the stabilizing solution and k the gain such that
    a - b k is Schur stable.  Convergence test is on the Frobenius norm of
    the update, relative to 1 + ||p||_F.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    q = as_matrix(q, "q")
    r = as_matrix(r, "r")
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n or q.shape != (n, n):
        raise DimensionMismatch("a, b, q shapes are inconsistent")
    m = b.shape[1]
    if r.shape != (m, m):
        raise DimensionMismatch("r must be square with b's column count")
    _check_symmetric(q, "q")
    _check_symmetric(r, "r")

    p = q.copy()
    for _ in range(DARE_MAX_ITER):
        bpb = r + b.T @ p @ b
        bpa = b.T @ p @ a
        try:
            gain = np.linalg.solve(bpb, bpa)
        except np.linalg.LinAlgError as exc:
            raise Unstabilizable("r + b' p b became singular") from exc
        p_next = q + a.T @ p @ a - a.T @ p @ b @ gain
        p_next = 0.5 * (p_next + p_next.T)
        if not np.all(np.isfinite(p_next)) or np.abs(p_next).max() > 1e100:
            raise Unstabilizable("riccati iterates diverged")
        if np.linalg.norm(p_next - p) <= DARE_TOL * (1.0 + np.linalg.norm(p_next)):
            p = p_next
            break
        p = p_next
    else:
        raise NoConvergence("riccati fixed point did not converge")

    k = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
    if spectral_radius(a - b @ k) >= 1.0 - 1e-9:
        raise Unstabilizable("riccati gain does not stabilize a - b k")
    return p, k
