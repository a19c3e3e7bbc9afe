import dataclasses
from pathlib import Path

import numpy as np
import pytest

from clrmpc import model, mpc, prediction, qpsolver, synthesis, verify
from clrmpc.errors import ModelFormatError, SolverFailure
from clrmpc.utils import make_rng, sha256_hex
from oracles import polytope_vertices

COMMITTED = (Path(__file__).resolve().parents[1] / "perfbench"
             / "msd_certificate.txt")


def box(n, r):
    h = np.vstack([np.eye(n), -np.eye(n)])
    return h, np.full(2 * n, float(r))


def test_farkas_identity_pair():
    h, rhs = box(2, 1.0)
    res = verify.farkas_residuals(np.eye(4), h, rhs, h, rhs)
    assert res["negativity"] == 0.0
    assert res["equality"] == 0.0
    assert res["inequality"] == 0.0


def test_farkas_scaled_pair_reports_slack():
    # {|x|<=1} inside {|x|<=2} written with rows 0.5 x <= 1
    inner_h, inner_rhs = box(1, 1.0)
    outer_h = 0.5 * inner_h
    outer_rhs = np.array([1.0, 1.0])
    res = verify.farkas_residuals(0.5 * np.eye(2), inner_h, inner_rhs,
                                  outer_h, outer_rhs)
    assert res["negativity"] == 0.0
    assert res["equality"] == 0.0
    assert res["inequality"] == pytest.approx(-0.5)


def test_farkas_flags_defects():
    h, rhs = box(1, 1.0)
    bad = np.array([[1.0, -0.25], [0.0, 1.0]])
    res = verify.farkas_residuals(bad, h, rhs, h, rhs)
    assert res["negativity"] == pytest.approx(0.25)
    assert res["equality"] > 0.0


def included(outer_h, outer_rhs, inner_h, inner_rhs):
    values, _ = verify._support_lps(outer_h, inner_h, inner_rhs)
    return bool((values <= outer_rhs + verify.SAMPLE_TOL).all())


def test_contains_boxes():
    small_h, small_rhs = box(2, 1.0)
    big_h, big_rhs = box(2, 2.0)
    assert included(big_h, big_rhs, small_h, small_rhs)
    assert not included(small_h, small_rhs, big_h, big_rhs)


def test_contains_empty_inner_is_vacuous():
    inner_h = np.array([[1.0], [-1.0]])
    inner_rhs = np.array([-1.0, -1.0])
    assert included(*box(1, 1.0), inner_h, inner_rhs)


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        included(*box(2, 1.0), *box(3, 1.0))


def test_contains_matches_vertex_enumeration():
    # random low-dimensional pairs against the combinatorial oracle; every
    # row's maximizer lies in the inner set and attains the row's value
    rng = make_rng(101)
    checked = 0
    for trial in range(50):
        n = 2 if trial % 2 == 0 else 3
        inner_h, inner_rhs = box(n, 1.0)
        cut = rng.standard_normal((2, n))
        inner_h = np.vstack([inner_h, cut])
        inner_rhs = np.concatenate([inner_rhs,
                                    rng.uniform(-0.5, 1.5, size=2)])
        outer_h = rng.standard_normal((2 * n + 1, n))
        outer_rhs = rng.uniform(0.2, 2.0, size=2 * n + 1)
        verts = polytope_vertices(inner_h, inner_rhs)
        values, points = verify._support_lps(outer_h, inner_h, inner_rhs)
        if not verts:
            assert (values == -np.inf).all()
            continue
        best = np.max([outer_h @ v for v in verts], axis=0)
        assert np.abs(values - best).max() <= 1e-7
        assert (points @ inner_h.T <= inner_rhs + 1e-7).all()
        assert np.abs((outer_h * points).sum(axis=1) - values).max() <= 1e-12
        checked += 1
    assert checked >= 30


def test_check_farkas_on_synthesized_certificate(msd_controller):
    ctrl, sys_m, w_m, c_m = msd_controller
    cert = ctrl.certificate
    res = verify.check_farkas(cert, ctrl.bundle, sys_m, w_m)
    assert len(res) == sys_m.n_delta
    for d in res:
        assert max(d.values()) <= 1e-6


def test_inclusions_agree_with_multipliers(scalar_uncertain_controller):
    ctrl, sys, w, c = scalar_uncertain_controller
    cert = ctrl.certificate
    values, points = verify.shifted_set_inclusions(cert, ctrl.bundle, sys, w)
    bt = ctrl.bundle.tightened(cert.tightenings)
    assert values.shape == (sys.n_delta, bt.size)
    assert points.shape == (sys.n_delta, bt.size,
                            ctrl.bundle.n_s + w.dim)
    assert (values <= bt + verify.SAMPLE_TOL).all()


def srf(ctrl, sys, w, samples, rng, cert=None):
    """Support LPs of cert (default the controller's), then the SRF check."""
    cert = ctrl.certificate if cert is None else cert
    supports = verify.shifted_set_inclusions(cert, ctrl.bundle, sys, w)
    return verify.srf_monte_carlo(cert, ctrl.bundle, sys, supports, samples,
                                  rng)


def test_srf_clean_on_certain_scalar(scalar_certain_controller):
    ctrl, sys, w, c = scalar_certain_controller
    res = srf(ctrl, sys, w, 200, make_rng(7))
    assert res.samples == 200
    assert res.failures == 0
    assert res.worst_margin <= verify.SAMPLE_TOL


def test_srf_clean_on_uncertain_scalar(scalar_uncertain_controller):
    ctrl, sys, w, c = scalar_uncertain_controller
    res = srf(ctrl, sys, w, 300, make_rng(8))
    assert res.failures == 0


def test_srf_negative_control(scalar_uncertain_controller):
    # halving the first nonzero tightening block must surface failures
    ctrl, sys, w, c = scalar_uncertain_controller
    cert = ctrl.certificate
    n_c = c.n_c
    corrupt = cert.tightenings.copy()
    corrupt[n_c:2 * n_c] *= 0.5
    bad = dataclasses.replace(cert, tightenings=corrupt)
    res = srf(ctrl, sys, w, 300, make_rng(9), cert=bad)
    assert res.failures > 0
    assert res.worst_margin > verify.SAMPLE_TOL


def test_srf_rejects_empty_sampling():
    with pytest.raises(ValueError):
        verify.srf_monte_carlo(None, None, None, None, 0, make_rng(0))


@pytest.mark.parametrize("wrong", ["gains", "halved"])
def test_srf_catches_successor_rows_that_miss_the_plant(
        scalar_uncertain_controller, monkeypatch, wrong):
    # the support LPs trust prediction.successor_rows; the literal
    # propagation does not.  Halved rows keep every support inside the
    # bound at the true maximizers, so only the mismatch test can count.
    ctrl, sys, w, c = scalar_uncertain_controller
    real = prediction.successor_rows

    def rows(bundle, gains, sys_, vertex):
        if wrong == "halved":
            return 0.5 * real(bundle, gains, sys_, vertex)
        return real(bundle, dataclasses.replace(
            gains, m_gains=1.001 * gains.m_gains), sys_, vertex)

    monkeypatch.setattr(prediction, "successor_rows", rows)
    res = srf(ctrl, sys, w, 50, make_rng(1))
    assert res.failures > 0
    if wrong == "halved":
        assert res.worst_margin <= verify.SAMPLE_TOL


def test_lyapunov_clean_scalar(scalar_uncertain_controller):
    ctrl, sys, w, c = scalar_uncertain_controller
    res = verify.lyapunov_check(ctrl, sys, w, 40, make_rng(10))
    assert res.samples == 40
    assert res.failures == 0
    assert res.worst_margin <= verify.RESIDUAL_TOL


@pytest.mark.parametrize("bad_call", [19, 20])
def test_lyapunov_counts_a_solver_failure(scalar_uncertain_controller,
                                          monkeypatch, bad_call):
    # calls 19 and 20 are the state and successor solves of the last of
    # 10 samples, so the samples before it draw the same numbers
    ctrl, sys, w, c = scalar_uncertain_controller
    clean = verify.lyapunov_check(ctrl, sys, w, 10, make_rng(10))
    real_solve = mpc.solve_mpc
    calls = []

    def flaky(ctrl_, x):
        calls.append(1)
        if len(calls) == bad_call:
            raise SolverFailure("online QP ended with status maxiter")
        return real_solve(ctrl_, x)

    monkeypatch.setattr(mpc, "solve_mpc", flaky)
    res = verify.lyapunov_check(ctrl, sys, w, 10, make_rng(10))
    assert res.samples == 10
    assert res.failures == clean.failures + 1
    assert res.worst_margin == 1e30


def test_lyapunov_solves_one_lp_per_sample(msd_controller, monkeypatch):
    # the boundary LP is the only one: the disturbance term is taken at the
    # hull weights the sample drew, with no search over other weights
    ctrl, sys_m, w_m, c_m = msd_controller
    real_lp = qpsolver.linear_program
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("a_eq"))
        return real_lp(*args, **kwargs)

    monkeypatch.setattr(qpsolver, "linear_program", counted)
    res = verify.lyapunov_check(ctrl, sys_m, w_m, 20, make_rng(7))
    assert res.failures == 0
    assert len(calls) == 20
    assert all(a_eq is None for a_eq in calls)


def test_lyapunov_negative_control(scalar_uncertain_controller):
    # the value here is about 1.13 |x|^2, so a claimed decrease of
    # 10 |x|^2 per step would need a negative successor value
    ctrl, sys, w, c = scalar_uncertain_controller
    cert = ctrl.certificate
    bad = dataclasses.replace(
        cert, cost=dataclasses.replace(cert.cost, p_margin=10.0))
    bad_ctrl = mpc.make_controller(sys, w, c, bad)
    res = verify.lyapunov_check(bad_ctrl, sys, w, 40, make_rng(10))
    assert res.failures > 0
    assert res.worst_margin > verify.RESIDUAL_TOL


def test_lyapunov_zero_disturbance_strict_decrease(
        scalar_uncertain_controller):
    from clrmpc import model
    ctrl, sys, w, c = scalar_uncertain_controller
    w0 = model.Polytope(h=[[1.0], [-1.0]], b=[0.0, 0.0])
    res = verify.lyapunov_check(ctrl, sys, w0, 40, make_rng(11))
    assert res.failures == 0
    assert res.worst_margin <= verify.RESIDUAL_TOL


def test_verify_certificate_report(scalar_uncertain_controller):
    ctrl, sys, w, c = scalar_uncertain_controller
    report = verify.verify_certificate(ctrl.certificate, sys, w, c,
                                       srf_samples=100, lyapunov_samples=20,
                                       rng=make_rng(12))
    assert report.valid
    assert report.srf_samples == 100
    assert report.lyapunov_samples == 20
    text = verify.write_report(report)
    back = verify.read_report(text)
    assert back.valid == report.valid
    assert back.farkas_residuals == report.farkas_residuals
    assert back.srf_worst_margin == report.srf_worst_margin
    assert back.lyapunov_worst_margin == report.lyapunov_worst_margin


def test_report_of_committed_certificate_is_pinned():
    # the Farkas check, the support LPs and their propagated maximizers,
    # the tau draws and the online solve, byte for byte; a change that
    # moves the online solve in its last digits, or the random numbers a
    # sample draws, updates this hash and says so in CHANGES.md with both
    # hashes.  It last moved when the report gained the recomputed terminal
    # slack and its p_margin; without those two lines it hashes as before
    # (006bf517...), with the support LPs solved as stacks.
    sys_m, w_m, c_m = model.build_msd()
    cert = synthesis.read_certificate(COMMITTED.read_text())
    report = verify.verify_certificate(cert, sys_m, w_m, c_m, srf_samples=400,
                                       lyapunov_samples=8, rng=make_rng(1))
    assert sha256_hex(verify.write_report(report)) == (
        "4c6beeb18938fe3cb735e421ec0193546d145caa8d2a0c3279dbfffcbd1b489c")


@pytest.mark.parametrize("negate", [False, True], ids=["clean", "negated"])
def test_verify_certificate_solves_each_support_lp_once(monkeypatch, negate):
    # 4 vertices x 96 successor rows serve both the inclusion and the SRF
    # check, whatever the Farkas check says, as one stack of 96 LPs per
    # vertex; the only other LP is one boundary LP per Lyapunov sample, and
    # the SRF draws solve none
    sys_m, w_m, c_m = model.build_msd()
    cert = synthesis.read_certificate(COMMITTED.read_text())
    if negate:
        lam = np.array(cert.multipliers[0], dtype=float)
        lam.flat[lam.argmax()] *= -1.0
        cert = dataclasses.replace(
            cert, multipliers=[lam] + list(cert.multipliers[1:]))
    real_lp = qpsolver.linear_program
    calls = []

    def counted(f, **kwargs):
        calls.append(len(f) if np.ndim(f) == 2 else 1)
        return real_lp(f, **kwargs)

    monkeypatch.setattr(qpsolver, "linear_program", counted)
    report = verify.verify_certificate(cert, sys_m, w_m, c_m, srf_samples=50,
                                       lyapunov_samples=3, rng=make_rng(1))
    assert calls == [96] * 4 + [1] * 3
    assert report.srf_failures == 0
    assert report.valid != negate
    if negate:
        assert report.farkas_residuals[0]["negativity"] > verify.RESIDUAL_TOL


@pytest.mark.parametrize("row", [0, 2, 13])
def test_farkas_clean_certificate_that_fails_containment_is_invalid(row):
    # one tightening entry raised by 5e-7: the multipliers still pass at
    # RESIDUAL_TOL, the containment fails at SAMPLE_TOL, and the verdict is
    # an invalid report, not an exception
    sys_m, w_m, c_m = model.build_msd()
    cert = synthesis.read_certificate(COMMITTED.read_text())
    t = cert.tightenings.copy()
    t[row] += 5e-7
    bad = dataclasses.replace(cert, tightenings=t)
    ctrl = mpc.make_controller(sys_m, w_m, c_m, bad)
    assert verify.farkas_clean(verify.check_farkas(bad, ctrl.bundle, sys_m,
                                                   w_m))
    report = verify.verify_certificate(bad, sys_m, w_m, c_m, srf_samples=20,
                                       lyapunov_samples=2, rng=make_rng(1))
    assert report.srf_failures > 0
    assert not report.valid


@pytest.mark.parametrize("scale", [0.9, 0.5])
def test_terminal_cost_below_its_decrease_condition_is_invalid(scale):
    # a smaller q_n leaves the Farkas, SRF and sampled Lyapunov checks
    # clean; only the recomputed decrease condition sees it
    sys_m, w_m, c_m = model.build_msd()
    cert = synthesis.read_certificate(COMMITTED.read_text())
    bad = dataclasses.replace(cert, cost=dataclasses.replace(
        cert.cost, q_n=scale * cert.cost.q_n))
    report = verify.verify_certificate(bad, sys_m, w_m, c_m, srf_samples=20,
                                       lyapunov_samples=2, rng=make_rng(1))
    assert report.srf_failures == report.lyapunov_failures == 0
    assert verify.farkas_clean(report.farkas_residuals)
    assert report.terminal_slack < 0.0 < report.p_margin
    assert not report.valid
    assert not verify.read_report(verify.write_report(report)).valid


def test_terminal_slack_is_recomputed_on_every_certificate(
        scalar_uncertain_controller, scalar_certain_controller):
    sys_m, w_m, c_m = model.build_msd()
    committed = synthesis.read_certificate(COMMITTED.read_text())
    ctrl = mpc.make_controller(sys_m, w_m, c_m, committed)
    cases = [(committed, ctrl.bundle, sys_m)] + [
        (ctrl.certificate, ctrl.bundle, sys_s) for ctrl, sys_s, _, _ in
        (scalar_uncertain_controller, scalar_certain_controller)]
    for cert, bundle, sys_s in cases:
        slack = verify.terminal_slack(cert, bundle, sys_s)
        assert slack == cert.cost.slack
        assert slack >= cert.cost.p_margin


def test_tolerance_chain_is_ordered():
    # synthesis gates on nothing verify would reject: its worst slack gate
    # is no looser than the containment tolerance, which is no looser than
    # the Farkas residual tolerance; its terminal cost reaches p_margin
    # itself, and verify accepts down to p_margin (1 - SLACK_ALLOWANCE)
    assert synthesis.SIGMA_GATE <= verify.SAMPLE_TOL <= verify.RESIDUAL_TOL
    assert 0.0 <= verify.SLACK_ALLOWANCE <= verify.SAMPLE_TOL


def test_report_rejects_tampered_verdict(scalar_uncertain_controller):
    ctrl, sys, w, c = scalar_uncertain_controller
    report = verify.verify_certificate(ctrl.certificate, sys, w, c,
                                       srf_samples=50, lyapunov_samples=10,
                                       rng=make_rng(13))
    text = verify.write_report(report)
    lines = text.splitlines()
    swapped = ["valid = 0" if ln.startswith("valid") else ln
               for ln in lines]
    with pytest.raises(ModelFormatError):
        verify.read_report("\n".join(swapped) + "\n")
    with pytest.raises(ModelFormatError):
        verify.read_report("nonsense\n" + text)

