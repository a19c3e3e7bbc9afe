import dataclasses
from pathlib import Path

import numpy as np
import pytest

from clrmpc import model, mpc, synthesis, verify
from clrmpc.errors import ModelFormatError, SolverFailure
from clrmpc.utils import make_rng, sha256_hex
from oracles import polytope_vertices


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


def test_contains_boxes():
    small_h, small_rhs = box(2, 1.0)
    big_h, big_rhs = box(2, 2.0)
    assert verify.contains(big_h, big_rhs, small_h, small_rhs)
    assert not verify.contains(small_h, small_rhs, big_h, big_rhs)


def test_contains_empty_inner_is_vacuous():
    inner_h = np.array([[1.0], [-1.0]])
    inner_rhs = np.array([-1.0, -1.0])
    assert verify.contains(*box(1, 1.0), inner_h, inner_rhs)


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        verify.contains(*box(2, 1.0), *box(3, 1.0))


def test_contains_matches_vertex_enumeration():
    # random low-dimensional pairs against the combinatorial oracle
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
        included = verify.contains(outer_h, outer_rhs, inner_h, inner_rhs)
        if not verts:
            assert included
            continue
        expect = all((outer_h @ v <= outer_rhs + 1e-7).all() for v in verts)
        assert included == expect
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
    out = verify.shifted_set_inclusions(cert, ctrl.bundle, sys, w)
    assert len(out) == sys.n_delta
    assert all(out)


def test_srf_clean_on_certain_scalar(scalar_certain_controller):
    ctrl, sys, w, c = scalar_certain_controller
    res = verify.srf_monte_carlo(ctrl.certificate, ctrl.bundle, sys, w,
                                 200, make_rng(7))
    assert res.samples == 200
    assert res.failures == 0
    assert res.worst_margin <= verify.SAMPLE_TOL


def test_srf_clean_on_uncertain_scalar(scalar_uncertain_controller):
    ctrl, sys, w, c = scalar_uncertain_controller
    res = verify.srf_monte_carlo(ctrl.certificate, ctrl.bundle, sys, w,
                                 300, make_rng(8))
    assert res.failures == 0


def test_srf_negative_control(scalar_uncertain_controller):
    # halving the first nonzero tightening block must surface failures
    ctrl, sys, w, c = scalar_uncertain_controller
    cert = ctrl.certificate
    n_c = c.n_c
    corrupt = cert.tightenings.copy()
    corrupt[n_c:2 * n_c] *= 0.5
    bad = dataclasses.replace(cert, tightenings=corrupt)
    res = verify.srf_monte_carlo(bad, ctrl.bundle, sys, w, 300, make_rng(9))
    assert res.failures > 0
    assert res.worst_margin > verify.SAMPLE_TOL


def test_srf_rejects_empty_sampling():
    with pytest.raises(ValueError):
        verify.srf_monte_carlo(None, None, None, None, 0, make_rng(0))


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
    assert report.worst_margin == max(report.srf_worst_margin,
                                      report.lyapunov_worst_margin)
    text = verify.write_report(report)
    back = verify.read_report(text)
    assert back.valid == report.valid
    assert back.farkas_residuals == report.farkas_residuals
    assert back.srf_worst_margin == report.srf_worst_margin
    assert back.lyapunov_worst_margin == report.lyapunov_worst_margin


def test_report_of_committed_certificate_is_pinned():
    # the Farkas check, the inclusions, the sampling and the online solve,
    # byte for byte; a change that moves the online solve in its last
    # digits updates this hash and says so
    committed = Path(__file__).resolve().parents[1] / "perfbench" / "msd_certificate.txt"
    sys_m, w_m, c_m = model.build_msd()
    cert = synthesis.read_certificate(committed.read_text())
    report = verify.verify_certificate(cert, sys_m, w_m, c_m, srf_samples=400,
                                       lyapunov_samples=8, rng=make_rng(1))
    assert sha256_hex(verify.write_report(report)) == (
        "96f220ab2a85b62e8a87d4e38362b03fc566c56d3a0943bb30bb2b189b0074cc")


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

