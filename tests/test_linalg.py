import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clrmpc.errors import NotSymmetric, Unstabilizable
from clrmpc.linalg import solve_dare, spectral_radius, sym_eig


def rand_sym(rng, n):
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


def test_sym_eig_diagonal():
    np.testing.assert_allclose(sym_eig(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0],
                               atol=1e-12)


def test_sym_eig_known_2x2():
    # eigenvalues of [[2,1],[1,2]] are 1 and 3
    np.testing.assert_allclose(sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]])),
                               [1.0, 3.0], atol=1e-12)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sym_eig_reconstructs(n, seed):
    # the spectrum of m, against LAPACK's symmetric eigensolver
    rng = np.random.default_rng(seed)
    m = rand_sym(rng, n)
    values = sym_eig(m)
    scale = 1.0 + np.abs(m).max()
    assert np.abs(values - np.linalg.eigvalsh(m)).max() <= 1e-9 * scale
    # ascending values
    assert np.all(np.diff(values) >= 0.0)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sym_eig_matches_shift(n, seed):
    # eigenvalues commute with spectral shifts: eig(m + c I) = eig(m) + c
    rng = np.random.default_rng(seed)
    m = rand_sym(rng, n)
    c = float(rng.standard_normal())
    base = sym_eig(m)
    shifted = sym_eig(m + c * np.eye(n))
    np.testing.assert_allclose(shifted, base + c, atol=1e-8 * (1 + np.abs(base).max()))


def test_spectral_radius_known():
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9, abs=1e-12)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
    assert spectral_radius(rot) == pytest.approx(1.0, abs=1e-12)


def test_dare_scalar_closed_form():
    # a=0.5, b=1, q=r=1: p solves p^2 - 0.25 p - 1 = 0
    p, k = solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]])
    p_ref = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0
    assert p[0, 0] == pytest.approx(p_ref, abs=1e-9)
    assert k[0, 0] == pytest.approx(0.5 * p_ref / (1.0 + p_ref), abs=1e-9)


def test_dare_zero_dynamics():
    # a = 0: cost-to-go is just q and the gain vanishes
    p, k = solve_dare(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))
    np.testing.assert_allclose(p, np.eye(2), atol=1e-10)
    np.testing.assert_allclose(k, np.zeros((2, 2)), atol=1e-10)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_dare_residual_and_stability(n, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = 0.95 * a / max(1.0, spectral_radius(a))
    b = rng.standard_normal((n, m))
    q = np.eye(n)
    r = np.eye(m)
    p, k = solve_dare(a, b, q, r)
    res = q + a.T @ p @ a - a.T @ p @ b @ np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a) - p
    assert np.abs(res).max() <= 1e-7 * (1 + np.abs(p).max())
    assert spectral_radius(a - b @ k) < 1.0
    assert sym_eig(p).min() > 0.0


def test_dare_unstabilizable():
    # unstable mode with no input authority
    a = np.array([[2.0, 0.0], [0.0, 0.1]])
    b = np.array([[0.0], [1.0]])
    with pytest.raises(Unstabilizable):
        solve_dare(a, b, np.eye(2), np.eye(1))


def test_symeig_type_fields():
    # a plain vector of eigenvalues, for a 1x1 matrix too
    res = sym_eig(np.eye(2))
    assert isinstance(res, np.ndarray) and res.shape == (2,)
    assert sym_eig([[-2.0]]).tolist() == [-2.0]
