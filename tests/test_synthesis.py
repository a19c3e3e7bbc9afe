from pathlib import Path

import numpy as np
import pytest

from clrmpc import model, prediction, qpsolver, synthesis, terminal
from clrmpc.errors import (
    FingerprintMismatch,
    Infeasible,
    ModelFormatError,
)
from clrmpc.utils import make_rng


def scalar_setup(n=3, k_prime=1, w_bound=0.2, with_delta=False):
    """Scalar double-bound testbed: a=0.5, b=1, |x|<=1, |u|<=1."""
    if with_delta:
        deltas = [[[1.0]], [[-1.0]]]
        b_p = [[0.05]]
        d_x = [[1.0]]
    else:
        deltas = [[[0.0]]]
        b_p = [[0.0]]
        d_x = [[0.0]]
    sys = model.UncertainSystem(
        a=[[0.5]], b=[[1.0]], b_p=b_p, b_w=[[1.0]],
        d_x=d_x, d_u=[[0.0]], d_w=[[0.0]], deltas=deltas,
    )
    w = model.Polytope(h=[[1.0], [-1.0]], b=[w_bound, w_bound])
    c = model.ConstraintSet(f=[[1.0], [-1.0], [0.0], [0.0]],
                            g=[[0.0], [0.0], [1.0], [-1.0]],
                            b=[1.0, 1.0, 1.0, 1.0])
    cfg = synthesis.SynthesisConfig(n=n, k_prime=k_prime, mu=2.0, epsilon=0.1,
                                    init_scale=1.0)
    q_x, q_u = cfg.weights(sys)
    ts = terminal.build_terminal_set(sys, c, k_prime, q_x=q_x, q_u=q_u)
    bundle = prediction.build_bundle(sys, c, ts.y, ts.z, n)
    return sys, w, c, cfg, ts, bundle


def test_config_validation():
    with pytest.raises(ValueError):
        synthesis.SynthesisConfig(mu=0.0)
    with pytest.raises(ValueError):
        synthesis.SynthesisConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        synthesis.SynthesisConfig(init_scale=0.5)
    with pytest.raises(ValueError):
        synthesis.SynthesisConfig(max_alternations=0)
    cfg = synthesis.SynthesisConfig()
    assert cfg.n == 5 and cfg.k_prime == 2
    assert cfg.mu == 2.0 and cfg.epsilon == 0.1 and cfg.init_scale == 1.7


def test_initial_guess_zero_for_point_disturbance():
    sys, w, c, cfg, ts, bundle = scalar_setup(w_bound=0.0)
    t = synthesis.initial_guess(bundle, sys, w, cfg, k_y=ts.k_y)
    assert np.abs(t).max() == 0.0


def test_initial_guess_stage_one_block_row_maxima():
    # stage block 1 must equal the row-wise box support of (F+G K_y) B_w
    sys_m, w_m, c_m = model.build_msd()
    cfg = synthesis.SynthesisConfig()
    q_x, q_u = cfg.weights(sys_m)
    ts = terminal.build_terminal_set(sys_m, c_m, cfg.k_prime, q_x=q_x, q_u=q_u)
    bundle = prediction.build_bundle(sys_m, c_m, ts.y, ts.z, cfg.n)
    t = synthesis.initial_guess(bundle, sys_m, w_m, cfg, k_y=ts.k_y)
    fgk = c_m.f + c_m.g @ ts.k_y
    expected = np.abs(fgk @ sys_m.b_w).sum(axis=1) * cfg.init_scale
    n_c = c_m.n_c
    assert np.abs(t[:n_c]).max() == 0.0
    assert np.allclose(t[n_c:2 * n_c], expected, atol=1e-12)


def test_initial_guess_on_a_diamond_disturbance_set(monkeypatch):
    # W = {|w_1| + |w_2| <= rho} is no box, so each support is an LP; the
    # support of a direction d is rho max_i |d_i|
    sys_m, _, c_m = model.build_msd()
    rho = 0.5
    w = model.Polytope(h=[[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
                       b=[rho] * 4)
    assert w.box_bounds is None
    cfg = synthesis.SynthesisConfig()
    q_x, q_u = cfg.weights(sys_m)
    ts = terminal.build_terminal_set(sys_m, c_m, cfg.k_prime, q_x=q_x, q_u=q_u)
    bundle = prediction.build_bundle(sys_m, c_m, ts.y, ts.z, cfg.n)
    calls = []
    real_lp = qpsolver.linear_program
    monkeypatch.setattr(qpsolver, "linear_program",
                        lambda *a, **k: calls.append(1) or real_lp(*a, **k))
    t = synthesis.initial_guess(bundle, sys_m, w, cfg, k_y=ts.k_y)
    # block i sums the supports of (F + G K_y) (A + B K_y)^l B_w, l < i,
    # over the n stage blocks and the k' + 1 terminal blocks
    steps = cfg.n + cfg.k_prime
    a_k = sys_m.a + sys_m.b @ ts.k_y
    fgk = c_m.f + c_m.g @ ts.k_y
    support = [rho * np.abs(fgk @ np.linalg.matrix_power(a_k, l) @ sys_m.b_w).max(axis=1)
               for l in range(steps)]
    expected = np.concatenate([sum(support[:i], np.zeros(c_m.n_c))
                               for i in range(steps + 1)]) * cfg.init_scale
    assert t.shape == expected.shape
    assert np.allclose(t, expected, rtol=1e-7, atol=1e-9)
    # one support LP per (step, row), not one per (block, step, row)
    assert len(calls) == steps * c_m.n_c


def test_initial_guess_blocks_monotone():
    sys, w, c, cfg, ts, bundle = scalar_setup()
    t = synthesis.initial_guess(bundle, sys, w, cfg, k_y=ts.k_y)
    blocks = t.reshape(-1, c.n_c)
    assert (np.diff(blocks, axis=0) >= -1e-12).all()


def shift_multiplier_oracle(sys, w, bundle, ts, n, k_prime):
    """Time-shift selection multipliers and matching gains, built by hand.

    The successor plan reuses the current plan shifted by one step and
    closes the loop with the terminal feedback; every successor row is
    then dominated by one current row plus the worst-case disturbance
    term routed through the box rows of W.
    """
    k_y = float(ts.k_y[0, 0])
    a_k = float(sys.a[0, 0] + sys.b[0, 0] * k_y)
    b_w = float(sys.b_w[0, 0])
    n_c = bundle.n_c
    n_t = bundle.n_t
    coeffs = np.array([1.0, -1.0, k_y, -k_y])

    gains = prediction.GainSet(
        k_term=np.array([[k_y]]),
        m_gains=np.array([[k_y * a_k ** i] for i in range(n)]),
        k_delta=np.zeros((n, 2)),
    )

    lam = np.zeros((n_t, n_t + 2))

    def w_part(r, v):
        v = v * b_w
        if v >= 0:
            lam[r, n_t] = v
        else:
            lam[r, n_t + 1] = -v

    for i in range(n - 1):
        for rho in range(n_c):
            r = n_c * i + rho
            lam[r, n_c * (i + 1) + rho] = 1.0
            w_part(r, coeffs[rho] * a_k ** i)
    for rho in range(n_c):
        r = n_c * (n - 1) + rho
        lam[r, n_c * n + rho] = 1.0
        w_part(r, coeffs[rho] * a_k ** (n - 1))
    for j in range(k_prime):
        for rho in range(n_c):
            r = n_c * (n + j) + rho
            lam[r, n_c * (n + j + 1) + rho] = 1.0
            w_part(r, coeffs[rho] * a_k ** (n + j))
    for rho in range(n_c):
        r = n_c * (n + k_prime) + rho
        lam[r, r] = a_k
        w_part(r, coeffs[rho] * a_k ** (n + k_prime))
    return gains, lam


def test_scalar_shift_multipliers_certify():
    sys, w, c, cfg, ts, bundle = scalar_setup()
    n, k_prime = cfg.n, cfg.k_prime
    gains, lam = shift_multiplier_oracle(sys, w, bundle, ts, n, k_prime)
    t = synthesis.initial_guess(bundle, sys, w, cfg, k_y=ts.k_y)
    bt = bundle.b_stack - t

    c_k, c_m = prediction.build_gain_matrices(bundle, gains, sys, 0)
    rhs = bundle.h_xu @ np.hstack([c_k, c_m])
    a_lp = bundle.h_xu @ bundle.s_mat
    lhs = np.hstack([lam[:, :bundle.n_t] @ a_lp, lam[:, bundle.n_t:] @ w.h])
    assert np.abs(lhs - rhs).max() < 1e-12

    viol = lam @ np.concatenate([bt, w.b]) - bt
    assert viol.max() < 1e-12
    # all but the last terminal block hold with equality for this guess
    assert np.abs(viol[:bundle.n_t - c.n_c]).max() < 1e-12


def test_multiplier_step_matches_shift_oracle():
    sys, w, c, cfg, ts, bundle = scalar_setup()
    t = synthesis.initial_guess(bundle, sys, w, cfg, k_y=ts.k_y)
    step = synthesis.solve_multiplier_step(bundle, sys, w, t)
    # the shift construction proves the true optimum is <= 0; the solver
    # must land within the feasibility gate of it
    assert step.sigmas.max() <= synthesis.SIGMA_GATE
    for lam in step.multipliers:
        assert lam.min() >= 0.0
        assert lam.shape == (bundle.n_t, bundle.n_t + 2)


def test_multiplier_step_rejects_oversized_tightening():
    sys, w, c, cfg, ts, bundle = scalar_setup()
    t = np.full(bundle.n_t, 2.0)
    with pytest.raises(ValueError):
        synthesis.solve_multiplier_step(bundle, sys, w, t)


def test_multiplier_step_vertex_order_invariant():
    sys, w, c, cfg, ts, bundle = scalar_setup(with_delta=True)
    t = synthesis.initial_guess(bundle, sys, w, cfg, k_y=ts.k_y)
    step = synthesis.solve_multiplier_step(bundle, sys, w, t)
    flipped = model.UncertainSystem(
        a=sys.a, b=sys.b, b_p=sys.b_p, b_w=sys.b_w,
        d_x=sys.d_x, d_u=sys.d_u, d_w=sys.d_w,
        deltas=[sys.deltas[1], sys.deltas[0]],
    )
    ts2 = terminal.build_terminal_set(flipped, c, cfg.k_prime,
                                      q_x=np.eye(1), q_u=np.eye(1))
    bundle2 = prediction.build_bundle(flipped, c, ts2.y, ts2.z, cfg.n)
    step2 = synthesis.solve_multiplier_step(bundle2, flipped, w, t)
    assert np.allclose(step.sigmas, step2.sigmas[::-1], atol=1e-8)


def test_multiplier_step_solves_each_plan_lp_once(monkeypatch):
    sys, w, c, cfg, ts, bundle = scalar_setup(with_delta=True)
    t0 = synthesis.initial_guess(bundle, sys, w, cfg, k_y=ts.k_y)
    a_lp = bundle.h_xu @ bundle.s_mat
    real_solve = qpsolver.solve_qp
    # a second step at another tightening must not see the first one's LPs
    for t in (t0, 0.5 * t0):
        solved = []

        def recording_solve(prob, **kwargs):
            if not prob.h.any():
                solved.append((prob.b_in.tobytes(), prob.f.tobytes()))
            return real_solve(prob, **kwargs)

        monkeypatch.setattr(qpsolver, "solve_qp", recording_solve)
        step = synthesis.solve_multiplier_step(bundle, sys, w, t)
        monkeypatch.undo()
        assert solved and len(set(solved)) == len(solved)

        # the reused duals are exactly those of a fresh solve at the final gains
        plan_lp = qpsolver.QpProblem(
            h=np.zeros((bundle.n_s, bundle.n_s)), f=np.zeros(bundle.n_s),
            a_in=a_lp, b_in=bundle.b_stack - t)
        for j, (g, lam) in enumerate(zip(step.gains, step.multipliers)):
            rhs = prediction.successor_rows(bundle, g, sys, j)
            ref = np.zeros_like(lam)
            for r in range(bundle.n_t):
                ref[r, :bundle.n_t] = synthesis._plan_support(
                    plan_lp, rhs[r, :bundle.n_s], {})[2]
                ref[r, bundle.n_t:] = synthesis._w_support_dual(w, rhs[r, bundle.n_s:])
            assert np.array_equal(lam, ref)


def test_cut_model_matches_gain_matrices():
    # the affine cut decomposition must agree with the prediction route
    sys_m, w_m, c_m = model.build_msd()
    cfg = synthesis.SynthesisConfig()
    ts = terminal.build_terminal_set(sys_m, c_m, cfg.k_prime,
                                     q_x=np.eye(4), q_u=np.eye(2))
    bundle = prediction.build_bundle(sys_m, c_m, ts.y, ts.z, cfg.n)
    rng = make_rng(11)
    term = bundle.term_rows()
    for _ in range(10):
        j = int(rng.integers(0, 4))
        maps = synthesis._vertex_maps(bundle, sys_m, j)
        gvec = rng.normal(size=108)
        g = synthesis._unpack_gains(gvec, bundle.n, bundle.n_x, bundle.n_u)
        y_s = rng.normal(size=bundle.n_s)
        y_w = rng.normal(size=sys_m.n_w)
        c_k, c_m2 = prediction.build_gain_matrices(bundle, g, sys_m, j)
        direct = bundle.h_xu @ (c_k @ y_s + c_m2 @ y_w)
        for r in (0, 17, 40, 65, 95):
            coef, const = synthesis._cut_coeffs(maps, term, sys_m, bundle,
                                                r, y_s, y_w)
            assert abs(coef @ gvec + const - direct[r]) < 1e-10


def test_tightening_step_certain_scalar():
    # no uncertainty: tightening collapses and alpha fills the state bound
    sys, w, c, cfg, ts, bundle = scalar_setup(w_bound=0.0)
    t0 = synthesis.initial_guess(bundle, sys, w, cfg, k_y=ts.k_y)
    step = synthesis.solve_multiplier_step(bundle, sys, w, t0)
    assert step.sigmas.max() <= 1e-9
    tstep = synthesis.solve_tightening_step(bundle, sys, w, step.multipliers,
                                            cfg)
    assert np.abs(tstep.tightenings[c.n_c:]).max() <= 1e-6
    assert abs(tstep.alpha - 1.0) <= 1e-7
    assert abs(tstep.objective - (-2.0)) <= 1e-6


def test_tightening_step_alpha_against_direct_lp():
    # independent route: maximize alpha over the stacked plan constraints
    sys, w, c, cfg, ts, bundle = scalar_setup(w_bound=0.0)
    t0 = synthesis.initial_guess(bundle, sys, w, cfg, k_y=ts.k_y)
    step = synthesis.solve_multiplier_step(bundle, sys, w, t0)
    tstep = synthesis.solve_tightening_step(bundle, sys, w, step.multipliers,
                                            cfg)
    h_sx = bundle.h_xu @ bundle.s_x
    h_su = bundle.h_xu @ bundle.s_u
    best = np.inf
    for sign in (1.0, -1.0):
        n_u_plan = bundle.n * bundle.n_u
        f = np.zeros(1 + n_u_plan)
        f[0] = -1.0
        a_in = np.hstack([sign * h_sx, h_su])
        sol = qpsolver.linear_program(f, a_in=a_in, b_in=bundle.b_stack)
        assert sol.status == qpsolver.OPTIMAL
        best = min(best, sol.x[0])
    assert abs(tstep.alpha - best) <= 1e-6


def test_tightening_step_mu_dominates_objective():
    # vanishing mu leaves the pure quadratic tightening objective
    sys, w, c, cfg, ts, bundle = scalar_setup(w_bound=0.0)
    t0 = synthesis.initial_guess(bundle, sys, w, cfg, k_y=ts.k_y)
    step = synthesis.solve_multiplier_step(bundle, sys, w, t0)
    tiny = synthesis.SynthesisConfig(n=cfg.n, k_prime=cfg.k_prime, mu=1e-300,
                                     epsilon=0.1, init_scale=1.0)
    tstep = synthesis.solve_tightening_step(bundle, sys, w, step.multipliers,
                                            tiny)
    assert tstep.objective == pytest.approx(
        float(tstep.tightenings @ tstep.tightenings), abs=1e-30)


def test_tightening_step_infeasible_multipliers():
    sys, w, c, cfg, ts, bundle = scalar_setup()
    lam = np.zeros((bundle.n_t, bundle.n_t + 2))
    # route an enormous disturbance load onto an applied-step row
    lam[0, bundle.n_t] = 100.0
    with pytest.raises(Infeasible):
        synthesis.solve_tightening_step(bundle, sys, w, [lam], cfg)


def test_tightening_step_rejects_negative_multipliers():
    sys, w, c, cfg, ts, bundle = scalar_setup()
    lam = np.zeros((bundle.n_t, bundle.n_t + 2))
    lam[0, 0] = -1e-3
    with pytest.raises(ValueError):
        synthesis.solve_tightening_step(bundle, sys, w, [lam], cfg)


def test_synthesize_certain_scalar_strips_tightening():
    sys, w, c, cfg, ts, bundle = scalar_setup(w_bound=0.0)
    cert = synthesis.synthesize(sys, w, c, cfg)
    n_c = c.n_c
    assert np.abs(cert.tightenings[:n_c]).max() <= 1e-9
    assert cert.tightenings[n_c:].max() <= 1e-6
    assert cert.alpha == pytest.approx(1.0, abs=1e-7)


def test_synthesize_uncertain_scalar_monotone_objective(monkeypatch):
    sys, w, c, _, ts, bundle = scalar_setup(with_delta=True)
    monkeypatch.setattr(synthesis, "CONVERGENCE_TOL", 1e-12)
    cfg = synthesis.SynthesisConfig(n=3, k_prime=1, mu=2.0, epsilon=0.1,
                                    init_scale=1.0, max_alternations=6)
    trace = []
    cert = synthesis.synthesize(sys, w, c, cfg, trace=trace)
    assert len(trace) >= 1
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    assert cert.objective == pytest.approx(trace[-1])
    assert cert.tightenings[:c.n_c].min() >= -1e-12
    assert (bundle.b_stack - cert.tightenings).min() >= -1e-12


def test_msd_certificate_feasible(msd_certificate):
    sys_m, w_m, c_m, cfg, cert, trace = msd_certificate
    n_c = c_m.n_c
    assert cert.tightenings[:n_c].min() >= -1e-12
    assert cert.alpha >= 1e-9
    assert cert.cost.slack >= 1e-6
    assert all(lam.min() >= 0.0 for lam in cert.multipliers)
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_msd_certificate_residuals_recomputed(msd_certificate):
    # rebuild both residual families without synthesis-module helpers
    sys_m, w_m, c_m, cfg, cert, trace = msd_certificate
    bundle = prediction.build_bundle(sys_m, c_m, cert.terminal.y,
                                     cert.terminal.z, cert.n)
    a_lp = bundle.h_xu @ bundle.s_mat
    bt = bundle.b_stack - cert.tightenings
    assert bt.min() >= -1e-12
    stacked = np.concatenate([bt, w_m.b])
    for j, (g, lam) in enumerate(zip(cert.gains, cert.multipliers)):
        c_k, c_m2 = prediction.build_gain_matrices(bundle, g, sys_m, j)
        rhs = bundle.h_xu @ np.hstack([c_k, c_m2])
        lhs = np.hstack([lam[:, :bundle.n_t] @ a_lp,
                         lam[:, bundle.n_t:] @ w_m.h])
        assert np.abs(lhs - rhs).max() <= 1e-6
        assert (lam @ stacked - bt).max() <= 1e-6


def test_certificate_roundtrip(msd_certificate):
    sys_m, w_m, c_m, cfg, cert, trace = msd_certificate
    text = synthesis.write_certificate(cert)
    back = synthesis.read_certificate(text, expected_fingerprint=cert.fingerprint)
    assert np.array_equal(back.tightenings, cert.tightenings)
    assert np.array_equal(back.cost.q_n, cert.cost.q_n)
    assert np.array_equal(back.terminal.y, cert.terminal.y)
    for g1, g2 in zip(back.gains, cert.gains):
        assert np.array_equal(g1.k_term, g2.k_term)
        assert np.array_equal(g1.m_gains, g2.m_gains)
        assert np.array_equal(g1.k_delta, g2.k_delta)
    for l1, l2 in zip(back.multipliers, cert.multipliers):
        assert np.array_equal(l1, l2)
    assert back.alpha == cert.alpha and back.objective == cert.objective


def test_msd_certificate_matches_committed_text(msd_certificate):
    # the benchmark's fixed certificate is the default synthesis, byte for byte
    cert = msd_certificate[4]
    committed = Path(__file__).resolve().parents[1] / "perfbench" / "msd_certificate.txt"
    assert synthesis.write_certificate(cert) == committed.read_text()


def test_certificate_rejects_stale_fingerprint(msd_certificate):
    sys_m, w_m, c_m, cfg, cert, trace = msd_certificate
    text = synthesis.write_certificate(cert)
    with pytest.raises(FingerprintMismatch):
        synthesis.read_certificate(text, expected_fingerprint="0" * 64)


def test_certificate_rejects_malformed_text(msd_certificate):
    sys_m, w_m, c_m, cfg, cert, trace = msd_certificate
    text = synthesis.write_certificate(cert)
    with pytest.raises(ModelFormatError):
        synthesis.read_certificate(text + "rogue = 1\n")
    with pytest.raises(ModelFormatError):
        synthesis.read_certificate(text.replace("alpha = ", "alpha_x = ", 1))
    lines = [ln for ln in text.splitlines() if not ln.startswith("objective")]
    with pytest.raises(ModelFormatError):
        synthesis.read_certificate("\n".join(lines))
    with pytest.raises(ModelFormatError, match="unterminated"):
        synthesis.read_certificate(text.rstrip()[:-1])
    with pytest.raises(ModelFormatError, match="bad literal"):
        synthesis.read_certificate(text.replace("alpha = ", "alpha = ]", 1))
