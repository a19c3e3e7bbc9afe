import numpy as np
import pytest

from clrmpc import model, qpsolver
from clrmpc.errors import DimensionMismatch, EmptyPolytope, ModelFormatError
from clrmpc.utils import make_rng


def test_msd_matrices_exact():
    sys, w, c = model.build_msd()
    a_ref = np.array(
        [
            [1.0, 0.1, 0.0, 0.0],
            [-0.25, 0.75, 0.25, 0.25],
            [0.0, 0.0, 1.0, 0.1],
            [0.25, 0.25, -0.25, 0.75],
        ]
    )
    b_ref = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.5]])
    bp_ref = np.array(
        [[0.0, 0.0], [0.01, 0.005], [0.0, 0.0], [-0.01, -0.005]]
    )
    assert np.array_equal(sys.a, a_ref)
    assert np.array_equal(sys.b, b_ref)
    assert np.array_equal(sys.b_p, bp_ref)
    assert np.array_equal(sys.b_w, 0.2 * b_ref)
    assert np.array_equal(sys.d_x, np.array([[-1.0, 0.0, 1.0, 0.0], [0.0, -1.0, 0.0, 1.0]]))
    assert np.array_equal(sys.d_u, np.zeros((2, 2)))
    assert np.array_equal(sys.d_w, np.zeros((2, 2)))


def test_msd_vertices_and_sets():
    sys, w, c = model.build_msd()
    assert sys.n_delta == 4
    diags = sorted(tuple(np.diag(d)) for d in sys.deltas)
    assert diags == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
    assert w.dim == 2 and w.h.shape == (4, 2)
    assert np.array_equal(w.b, np.ones(4))
    assert c.n_c == 12
    assert np.array_equal(c.b, 2.0 * np.ones(12))
    # every state and input component is bounded by 2 in both directions
    stacked = c.stacked()
    for i in range(6):
        col = stacked[:, i]
        assert np.any(col == 1.0) and np.any(col == -1.0)


def test_msd_validates_clean():
    sys, w, c = model.build_msd()
    assert model.validate(sys, w, c) == []


def test_step_matches_manual():
    sys, _, _ = model.build_msd()
    rng = make_rng(3)
    x = rng.normal(size=4)
    u = rng.normal(size=2)
    w = rng.normal(size=2)
    delta = np.diag([0.3, -0.7])
    q = sys.d_x @ x
    expected = sys.a @ x + sys.b @ u + sys.b_p @ (delta @ q) + sys.b_w @ w
    assert np.allclose(sys.step(x, u, w, delta), expected, atol=1e-14)


def test_polytope_rejects_contradictory_zero_row():
    with pytest.raises(EmptyPolytope):
        model.Polytope(h=np.array([[0.0, 0.0]]), b=np.array([-1.0]))


def test_polytope_contains():
    w = model.Polytope(h=np.vstack([np.eye(2), -np.eye(2)]), b=np.ones(4))
    assert w.contains([0.5, -0.5])
    assert not w.contains([1.5, 0.0])


def test_constraint_set_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        model.ConstraintSet(f=np.eye(2), g=np.zeros((3, 1)), b=np.ones(2))


def test_validate_flags_nonpositive_offsets():
    sys, w, _ = model.build_msd()
    c = model.ConstraintSet(
        f=np.vstack([np.eye(4), -np.eye(4)]),
        g=np.zeros((8, 2)),
        b=np.concatenate([np.zeros(1), np.ones(7)]),
    )
    issues = model.validate(sys, w, c)
    assert any("positive" in s for s in issues)


def test_validate_flags_unbounded_constraints():
    sys, w, _ = model.build_msd()
    # only upper bounds: the set is unbounded below
    c = model.ConstraintSet(
        f=np.hstack([np.eye(4)[:, :4]]),
        g=np.zeros((4, 2)),
        b=np.ones(4),
    )
    issues = model.validate(sys, w, c)
    assert any("unbounded" in s for s in issues)


def test_sample_delta_box_weights_reconstruct():
    sys, _, _ = model.build_msd()
    rng = make_rng(11)
    for _ in range(50):
        delta, wts = model.sample_delta(sys, rng)
        assert wts.shape == (4,)
        assert np.all(wts >= -1e-15)
        assert abs(wts.sum() - 1.0) < 1e-12
        mix = sum(t * d for t, d in zip(wts, sys.deltas))
        assert np.abs(mix - delta).max() < 1e-12
        assert np.abs(np.diag(delta)).max() <= 1.0


def test_sample_delta_general_hull():
    sys, w, c = model.build_msd()
    tri = model.UncertainSystem(
        a=sys.a, b=sys.b, b_p=sys.b_p, b_w=sys.b_w,
        d_x=sys.d_x, d_u=sys.d_u, d_w=sys.d_w,
        deltas=[np.eye(2), -np.eye(2), np.diag([1.0, -1.0])],
    )
    rng = make_rng(12)
    delta, wts = model.sample_delta(tri, rng)
    assert wts.shape == (3,)
    assert abs(wts.sum() - 1.0) < 1e-12 and np.all(wts >= 0)
    mix = sum(t * d for t, d in zip(wts, tri.deltas))
    assert np.abs(mix - delta).max() < 1e-12


def test_sample_disturbance_box():
    w = model.Polytope(h=np.vstack([np.eye(2), -np.eye(2)]), b=np.array([1.0, 2.0, 0.5, 2.0]))
    rng = make_rng(13)
    draws = np.array([model.sample_disturbance(w, rng) for _ in range(200)])
    assert np.all(draws[:, 0] >= -0.5) and np.all(draws[:, 0] <= 1.0)
    assert np.all(draws[:, 1] >= -2.0) and np.all(draws[:, 1] <= 2.0)
    # spread check: uniform draws should cover most of the box
    assert draws[:, 0].max() > 0.8 and draws[:, 0].min() < -0.3


def test_box_bounds_box_and_non_box():
    w = model.Polytope(h=np.vstack([np.eye(2), -np.eye(2), [[2.0, 0.0]]]),
                       b=np.array([1.0, 2.0, 0.5, 2.0, 1.0]))
    lo, hi = w.box_bounds
    assert np.array_equal(lo, [-0.5, -2.0]) and np.array_equal(hi, [0.5, 2.0])
    assert w.box_bounds is w.box_bounds
    assert not lo.flags.writeable
    cut = model.Polytope(h=np.vstack([np.eye(2), -np.eye(2), [[1.0, 1.0]]]),
                         b=np.array([1.0, 1.0, 1.0, 1.0, 1.0]))
    assert cut.box_bounds is None
    half = model.Polytope(h=[[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], b=[1.0, 1.0, 1.0])
    assert half.box_bounds is None


def test_sample_disturbance_degenerate_origin():
    w = model.Polytope(h=np.vstack([np.eye(2), -np.eye(2)]), b=np.zeros(4))
    rng = make_rng(14)
    assert np.array_equal(model.sample_disturbance(w, rng), np.zeros(2))


def test_sample_disturbance_general_polytope(monkeypatch):
    # triangle w1 >= 0, w2 >= 0, w1 + w2 <= 1
    w = model.Polytope(
        h=np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]), b=np.array([0.0, 0.0, 1.0])
    )
    calls = []
    real_lp = qpsolver.linear_program

    def counting_lp(*args, **kwargs):
        calls.append(1)
        return real_lp(*args, **kwargs)

    monkeypatch.setattr(qpsolver, "linear_program", counting_lp)
    rng = make_rng(15)
    for _ in range(50):
        d = model.sample_disturbance(w, rng)
        assert w.contains(d, tol=1e-9)
    # the bounding box is solved once per set: one stack of two LPs per
    # coordinate
    assert len(calls) == 1


def test_bounding_box_of_empty_or_unbounded_sets_raises():
    diamond = model.Polytope(h=[[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
                             b=[0.5] * 4)
    lo, hi = diamond.bounding_box
    np.testing.assert_allclose(lo, [-0.5, -0.5], atol=1e-9)
    np.testing.assert_allclose(hi, [0.5, 0.5], atol=1e-9)
    for h, b in (([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0]),  # a strip
                 ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                  [-1.0, 0.5, 1.0, 1.0]),  # empty
                 (np.zeros((0, 2)), np.zeros(0))):  # no rows at all
        with pytest.raises(EmptyPolytope):
            model.Polytope(h=h, b=b).bounding_box


def test_model_text_round_trip_exact():
    sys, w, c = model.build_msd()
    text = model.write_model_text(sys, w, c)
    sys2, w2, c2 = model.read_model_text(text)
    assert np.array_equal(sys.a, sys2.a)
    assert np.array_equal(sys.b_p, sys2.b_p)
    assert all(np.array_equal(d1, d2) for d1, d2 in zip(sys.deltas, sys2.deltas))
    assert np.array_equal(w.h, w2.h) and np.array_equal(w.b, w2.b)
    assert np.array_equal(c.f, c2.f) and np.array_equal(c.g, c2.g)
    assert np.array_equal(c.b, c2.b)
    # writing again gives byte-identical text
    assert model.write_model_text(sys2, w2, c2) == text


def test_model_text_rejects_unknown_key():
    sys, w, c = model.build_msd()
    text = model.write_model_text(sys, w, c) + "extra = 1\n"
    with pytest.raises(ModelFormatError, match="unknown key"):
        model.read_model_text(text)


def test_model_text_rejects_missing_key():
    sys, w, c = model.build_msd()
    lines = [
        ln for ln in model.write_model_text(sys, w, c).splitlines()
        if not ln.startswith("n_w")
    ]
    with pytest.raises(ModelFormatError, match="missing"):
        model.read_model_text("\n".join(lines))


def test_model_text_rejects_duplicate_key():
    sys, w, c = model.build_msd()
    text = model.write_model_text(sys, w, c) + "n_x = 4\n"
    with pytest.raises(ModelFormatError, match="duplicate"):
        model.read_model_text(text)


def test_model_text_rejects_bad_literal():
    sys, w, c = model.build_msd()
    text = model.write_model_text(sys, w, c)
    with pytest.raises(ModelFormatError):
        model.read_model_text(text.replace("n_x = 4", "n_x = [1, "))
    with pytest.raises(ModelFormatError, match="unterminated"):
        model.read_model_text(text.rstrip()[:-1])
    with pytest.raises(ModelFormatError, match="bad literal"):
        model.read_model_text(text.replace("n_x = 4", "n_x = 4]"))


def test_model_text_rejects_dim_mismatch():
    sys, w, c = model.build_msd()
    text = model.write_model_text(sys, w, c).replace("n_x = 4", "n_x = 3")
    with pytest.raises(ModelFormatError, match="n_x"):
        model.read_model_text(text)


def test_fingerprint_changes_with_content():
    sys, w, c = model.build_msd()
    text = model.write_model_text(sys, w, c)
    fp1 = model.model_fingerprint(text)
    fp2 = model.model_fingerprint(text + " ")
    assert fp1 != fp2 and len(fp1) == 64
