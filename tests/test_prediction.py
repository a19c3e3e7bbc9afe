import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clrmpc import model, prediction
from clrmpc.errors import DimensionMismatch
from clrmpc.utils import make_rng


def scalar_system(a=2.0, b=1.0):
    return model.UncertainSystem(
        a=[[a]], b=[[b]], b_p=[[0.0]], b_w=[[1.0]],
        d_x=[[0.0]], d_u=[[0.0]], d_w=[[0.0]], deltas=[[[0.0]]],
    )


def scalar_constraints():
    return model.ConstraintSet(f=[[1.0], [-1.0]], g=[[0.0], [0.0]],
                               b=[1.0, 1.0])


def test_scalar_stack_matrix():
    sys = scalar_system()
    c = scalar_constraints()
    bundle = prediction.build_bundle(sys, c, y=[[1.0]], z=[1.0], n=1)
    assert np.array_equal(bundle.s_mat, np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 1.0]]))


def test_msd_dimensions():
    sys, w, c = model.build_msd()
    rng = make_rng(0)
    y = rng.normal(size=(36, 4))
    bundle = prediction.build_bundle(sys, c, y=y, z=np.ones(36), n=5)
    assert bundle.h_xu.shape == (96, 34)
    assert bundle.s_mat.shape == (34, 14)
    assert bundle.b_stack.shape == (96,)
    assert bundle.n_t == 96
    assert bundle.d_xu.shape == (2, 14)
    assert len(bundle.c_w) == 4


def test_stack_reproduces_recursion():
    sys, w, c = model.build_msd()
    rng = make_rng(1)
    y = rng.normal(size=(8, 4))
    bundle = prediction.build_bundle(sys, c, y=y, z=np.ones(8), n=4)
    s = rng.normal(size=bundle.n_s)
    traj = bundle.s_mat @ s
    x = s[:4].copy()
    u = s[4:].reshape(4, 2)
    for i in range(5):
        assert np.allclose(traj[4 * i:4 * (i + 1)], x, atol=1e-12)
        if i < 4:
            x = sys.a @ x + sys.b @ u[i]
    assert np.allclose(traj[20:], s[4:], atol=0)


def test_zero_uncertainty_collapses_c_s():
    sys = scalar_system()
    c = scalar_constraints()
    bundle = prediction.build_bundle(sys, c, y=[[1.0]], z=[1.0], n=3)
    assert np.array_equal(bundle.c_w[0], bundle.s_x @ sys.b_w)


def test_zero_gains_give_nominal_shift():
    sys = scalar_system(a=1.5, b=0.5)
    c = scalar_constraints()
    bundle = prediction.build_bundle(sys, c, y=[[1.0]], z=[1.0], n=3)
    gains = prediction.zero_gains(3, 1, 1)
    c_k, c_m = prediction.build_gain_matrices(bundle, gains, sys, 0)
    # with zero gains the successor plan is the shifted plan with a zero tail
    s = np.array([0.7, 0.2, -0.4, 0.9])
    x1 = sys.a @ s[:1] + sys.b @ s[1:2]
    succ = np.concatenate([x1, s[2:], [0.0]])
    assert np.allclose(c_k @ s, bundle.s_mat @ succ, atol=1e-12)
    assert np.array_equal(c_m, bundle.c_w[0])


def test_gain_matrix_term_isolation():
    sys, w, c = model.build_msd()
    rng = make_rng(2)
    y = rng.normal(size=(12, 4))
    bundle = prediction.build_bundle(sys, c, y=y, z=np.ones(12), n=3)
    gains = prediction.zero_gains(3, 4, 2)
    for j in range(4):
        c_k, c_m = prediction.build_gain_matrices(bundle, gains, sys, j)
        base, _ = prediction.build_gain_matrices(
            bundle, gains, scalar_null_delta(sys), 0
        )
        extra = bundle.s_x @ sys.b_p @ sys.deltas[j] @ bundle.d_xu
        assert np.allclose(c_k, base + extra, atol=1e-12)
        assert np.array_equal(c_m, bundle.c_w[j])


def scalar_null_delta(sys):
    return model.UncertainSystem(
        a=sys.a, b=sys.b, b_p=sys.b_p, b_w=sys.b_w,
        d_x=sys.d_x, d_u=sys.d_u, d_w=sys.d_w,
        deltas=[np.zeros((sys.n_p, sys.n_p))],
    )


def test_bundle_cache_and_readonly():
    sys, w, c = model.build_msd()
    y = np.ones((6, 4))
    bundle = prediction.build_bundle(sys, c, y=y, z=np.ones(6), n=2)
    with pytest.raises(ValueError):
        bundle.s_mat[0, 0] = 99.0


def test_plan_polytope_products_are_read_only_and_exact():
    sys, w, c = model.build_msd()
    y = make_rng(3).normal(size=(12, 4))
    bundle = prediction.build_bundle(sys, c, y=y, z=np.ones(12), n=5)
    for prod, right in ((bundle.a_lp, bundle.s_mat), (bundle.a_x, bundle.s_x),
                        (bundle.a_u, bundle.s_u)):
        assert np.array_equal(prod, bundle.h_xu @ right)
        with pytest.raises(ValueError):
            prod[0, 0] = 99.0


def test_stage_rows_are_the_model_rows():
    sys, w, c = model.build_msd()
    bundle = prediction.build_bundle(sys, c, y=np.ones((6, 4)), z=np.ones(6), n=3)
    f, g, b = bundle.stage_rows()
    assert np.array_equal(f, c.f)
    assert np.array_equal(g, c.g)
    assert np.array_equal(b, c.b)


def test_tightened_allows_rounding_only():
    bundle = prediction.build_bundle(scalar_system(), scalar_constraints(),
                                     y=[[1.0]], z=[1.0], n=2)
    t = 0.5 * bundle.b_stack
    assert np.array_equal(bundle.tightened(t), bundle.b_stack - t)
    t = bundle.b_stack.copy()
    t[1] += 5e-13
    assert bundle.tightened(t).min() < 0.0
    t[1] += 1e-9
    with pytest.raises(ValueError, match="exceed"):
        bundle.tightened(t)


def test_successor_rows_follow_the_literal_step():
    sys, bundle, gains, rng = random_instance(4, 3, 2, 2, 2, 4)
    vertex = 1
    rows = prediction.successor_rows(bundle, gains, sys, vertex)
    assert rows.shape == (bundle.n_t, bundle.n_s + sys.n_w)
    s = rng.normal(size=bundle.n_s)
    w = rng.normal(size=sys.n_w)
    x, u0 = s[:3], s[3:5]
    q = sys.d_x @ x + sys.d_u @ u0 + sys.d_w @ w
    x_next = (sys.a @ x + sys.b @ u0 + sys.b_p @ (sys.deltas[vertex] @ q)
              + sys.b_w @ w)
    u_next = prediction.candidate_inputs(bundle, gains, sys, s, w)
    literal = bundle.h_xu @ bundle.s_mat @ np.concatenate([x_next, u_next])
    assert np.allclose(rows @ np.concatenate([s, w]), literal, atol=1e-10)


def test_vertex_out_of_range():
    sys = scalar_system()
    bundle = prediction.build_bundle(sys, scalar_constraints(), y=[[1.0]],
                                     z=[1.0], n=2)
    gains = prediction.zero_gains(2, 1, 1)
    with pytest.raises(DimensionMismatch):
        prediction.build_gain_matrices(bundle, gains, sys, 5)


def random_instance(seed, n_x, n_u, n_p, n_w, horizon):
    rng = make_rng(seed)
    sys = model.UncertainSystem(
        a=rng.normal(size=(n_x, n_x)) * 0.6,
        b=rng.normal(size=(n_x, n_u)),
        b_p=rng.normal(size=(n_x, n_p)) * 0.3,
        b_w=rng.normal(size=(n_x, n_w)) * 0.2,
        d_x=rng.normal(size=(n_p, n_x)),
        d_u=rng.normal(size=(n_p, n_u)),
        d_w=rng.normal(size=(n_p, n_w)),
        deltas=[rng.normal(size=(n_p, n_p)) for _ in range(3)],
    )
    f = np.vstack([np.eye(n_x), -np.eye(n_x), np.zeros((2 * n_u, n_x))])
    g = np.vstack([np.zeros((2 * n_x, n_u)), np.eye(n_u), -np.eye(n_u)])
    c = model.ConstraintSet(f=f, g=g, b=np.ones(2 * (n_x + n_u)))
    y = rng.normal(size=(n_x + 1, n_x))
    bundle = prediction.build_bundle(sys, c, y=y, z=np.ones(n_x + 1), n=horizon)
    gains = prediction.GainSet(
        k_term=rng.normal(size=(n_u, n_x)),
        m_gains=rng.normal(size=(horizon * n_u, n_x)),
        k_delta=rng.normal(size=(horizon * n_u, n_x + n_u)),
    )
    return sys, bundle, gains, rng


def shift_identity_residual(sys, bundle, gains, rng, vertex):
    """Literal one-step simulation versus the assembled matrices."""
    n, n_x, n_u = bundle.n, bundle.n_x, bundle.n_u
    s = rng.normal(size=bundle.n_s)
    w = rng.normal(size=sys.n_w)
    x, u0 = s[:n_x], s[n_x:n_x + n_u]
    delta = sys.deltas[vertex]
    q = sys.d_x @ x + sys.d_u @ u0 + sys.d_w @ w
    x_next = sys.a @ x + sys.b @ u0 + sys.b_p @ (delta @ q) + sys.b_w @ w
    u_next = prediction.candidate_inputs(bundle, gains, sys, s, w)
    s_next = np.concatenate([x_next, u_next])
    c_k, c_m = prediction.build_gain_matrices(bundle, gains, sys, vertex)
    return np.abs(bundle.s_mat @ s_next - (c_k @ s + c_m @ w)).max()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_x=st.integers(1, 5),
    n_u=st.integers(1, 3),
    n_p=st.integers(1, 3),
    n_w=st.integers(1, 2),
    horizon=st.integers(1, 6),
    vertex=st.integers(0, 2),
)
def test_shift_identity_property(seed, n_x, n_u, n_p, n_w, horizon, vertex):
    sys, bundle, gains, rng = random_instance(seed, n_x, n_u, n_p, n_w, horizon)
    assert shift_identity_residual(sys, bundle, gains, rng, vertex) < 1e-10
