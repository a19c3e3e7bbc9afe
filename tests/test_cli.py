import csv
import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from clrmpc import cli, model, mpc, sim, synthesis, verify
from clrmpc.errors import (
    InfeasibleLmi,
    NoProgress,
    SolverFailure,
    Unstabilizable,
)
from conftest import _scalar_model

SCALAR_FLAGS = ["--n", "3", "--kprime", "1", "--init-scale", "1.0"]


def write_scalar_model(path, with_delta=True, w_bound=0.2):
    sys, w, c = _scalar_model(with_delta, w_bound)
    path.write_text(model.write_model_text(sys, w, c))
    return sys, w, c


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One synth run on the scalar model, reused by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    write_scalar_model(root / "scalar.model")
    code = cli.main(["synth", "--model", str(root / "scalar.model"),
                     "--out", str(root / "out")] + SCALAR_FLAGS)
    assert code == 0
    return root


def test_synth_outputs_and_determinism(pipeline_dir, tmp_path):
    out = pipeline_dir / "out"
    cert_text = (out / "certificate.txt").read_text()
    synthesis.read_certificate(cert_text)
    log = (out / "synth_log.txt").read_text()
    assert "alternation 0: objective = " in log
    assert "farkas_sigma_max = " in log
    assert "duration_s = " in log
    code = cli.main(["synth", "--model",
                     str(pipeline_dir / "scalar.model"),
                     "--out", str(tmp_path / "again")] + SCALAR_FLAGS)
    assert code == 0
    assert (tmp_path / "again" / "certificate.txt").read_text() == cert_text


def test_synth_exit_on_infeasible_guess(tmp_path):
    # disturbance support exceeds the constraint level at every scale
    write_scalar_model(tmp_path / "bad.model", with_delta=False, w_bound=2.0)
    code = cli.main(["synth", "--model", str(tmp_path / "bad.model"),
                     "--out", str(tmp_path / "out")] + SCALAR_FLAGS)
    assert code == cli.EXIT_GUESS


@pytest.mark.parametrize("error", [NoProgress, InfeasibleLmi, Unstabilizable])
def test_synth_exit_on_synthesis_failure(tmp_path, monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error("no certificate")

    monkeypatch.setattr(synthesis, "synthesize", fail)
    write_scalar_model(tmp_path / "scalar.model")
    code = cli.main(["synth", "--model", str(tmp_path / "scalar.model"),
                     "--out", str(tmp_path / "out")] + SCALAR_FLAGS)
    assert code == cli.EXIT_SYNTH
    assert "synthesis failed: no certificate" in capsys.readouterr().err


def test_verify_command_valid(pipeline_dir):
    out = pipeline_dir / "out"
    code = cli.main(["verify", "--model",
                     str(pipeline_dir / "scalar.model"),
                     "--certificate", str(out / "certificate.txt"),
                     "--out", str(out),
                     "--srf-samples", "60", "--lyap-samples", "10",
                     "--seed", "2"])
    assert code == 0
    report = verify.read_report((out / "report.txt").read_text())
    assert report.valid
    assert report.srf_samples == 60


def test_verify_fingerprint_mismatch(pipeline_dir, tmp_path):
    out = pipeline_dir / "out"
    code = cli.main(["verify", "--builtin", "msd",
                     "--certificate", str(out / "certificate.txt"),
                     "--out", str(tmp_path),
                     "--srf-samples", "10", "--lyap-samples", "2"])
    assert code == cli.EXIT_FINGERPRINT


def test_verify_corrupted_multiplier_fails(pipeline_dir, tmp_path):
    out = pipeline_dir / "out"
    cert = synthesis.read_certificate((out / "certificate.txt").read_text())
    lam = [m.copy() for m in cert.multipliers]
    lam[0][0, 0] = -0.5
    bad = dataclasses.replace(cert, multipliers=lam)
    (tmp_path / "bad.cert").write_text(synthesis.write_certificate(bad))
    code = cli.main(["verify", "--model",
                     str(pipeline_dir / "scalar.model"),
                     "--certificate", str(tmp_path / "bad.cert"),
                     "--out", str(tmp_path),
                     "--srf-samples", "20", "--lyap-samples", "4",
                     "--seed", "2"])
    assert code == cli.EXIT_INVALID
    report = verify.read_report((tmp_path / "report.txt").read_text())
    assert not report.valid
    assert report.farkas_residuals[0]["negativity"] >= 0.5


def simulate_args(pipeline_dir, out, extra):
    return (["simulate", "--model", str(pipeline_dir / "scalar.model"),
             "--certificate",
             str(pipeline_dir / "out" / "certificate.txt"),
             "--out", str(out), "--x0", "[0.5]"] + extra)


def test_simulate_outputs_and_determinism(pipeline_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    flags = ["--realizations", "2", "--steps", "5", "--seed", "3"]
    assert cli.main(simulate_args(pipeline_dir, a, flags)) == 0
    assert cli.main(simulate_args(pipeline_dir, b, flags)) == 0
    for name in ["runs/run_000.csv", "runs/run_001.csv", "summary.csv",
                 "envelope.csv", "stats.txt"]:
        assert (a / name).read_text() == (b / name).read_text()
    svg = (a / "envelope.svg").read_text()
    assert svg.startswith("<svg")
    assert "stroke-dasharray" in svg
    assert "polyline" in svg
    assert "solve_ms_p50" in (a / "sim_log.txt").read_text()
    stats = cli.read_stats((a / "stats.txt").read_text())
    assert stats["violation_count"] == 0
    assert stats["mode"] == sim.FIXED_DELTA


def test_simulate_solves_each_visited_state_once(pipeline_dir, tmp_path,
                                                  monkeypatch):
    real_solve = mpc.solve_mpc
    calls = []

    def counted(ctrl_, x):
        calls.append(1)
        return real_solve(ctrl_, x)

    monkeypatch.setattr(mpc, "solve_mpc", counted)
    flags = ["--realizations", "3", "--steps", "4", "--seed", "3"]
    assert cli.main(simulate_args(pipeline_dir, tmp_path, flags)) == 0
    assert len(calls) == 3 * 4
    assert "solve_samples = 12\n" in (tmp_path / "sim_log.txt").read_text()


def test_simulate_zero_steps(pipeline_dir, tmp_path):
    flags = ["--realizations", "1", "--steps", "0", "--seed", "3"]
    assert cli.main(simulate_args(pipeline_dir, tmp_path, flags)) == 0
    rows = (tmp_path / "runs" / "run_000.csv").read_text().splitlines()
    assert len(rows) == 2  # header comment plus column row
    assert "solve_samples = 0" in (tmp_path / "sim_log.txt").read_text()


def test_simulate_infeasible_start(pipeline_dir, tmp_path):
    flags = ["--realizations", "1", "--steps", "3", "--seed", "3"]
    args = simulate_args(pipeline_dir, tmp_path, flags)
    args[args.index("[0.5]")] = "[30.0]"
    assert cli.main(args) == cli.EXIT_MPC_INFEASIBLE
    stats = cli.read_stats((tmp_path / "stats.txt").read_text())
    assert stats["infeasible_count"] == 1


def test_simulate_records_solver_failure(pipeline_dir, tmp_path, monkeypatch):
    """A run cut short by a solver failure shows in stats.txt, summary.csv
    and report.md, and the batch goes on."""
    steps, bad_run, bad_step = 4, 1, 2
    real_solve = mpc.solve_mpc
    calls = []

    def flaky(ctrl_, x):
        calls.append(1)
        if len(calls) == bad_run * steps + bad_step + 1:
            raise SolverFailure("online QP ended with status maxiter")
        return real_solve(ctrl_, x)

    monkeypatch.setattr(mpc, "solve_mpc", flaky)
    flags = ["--realizations", "3", "--steps", str(steps), "--seed", "3"]
    assert cli.main(simulate_args(pipeline_dir, tmp_path, flags)) == cli.EXIT_SYNTH
    stats = cli.read_stats((tmp_path / "stats.txt").read_text())
    assert stats["failed_count"] == 1
    assert stats["infeasible_count"] == 0
    rows = list(csv.DictReader(
        (tmp_path / "summary.csv").read_text().splitlines()[1:]))
    assert [r["failed_step"] for r in rows] == ["", str(bad_step), ""]
    assert [r["steps"] for r in rows] == [str(steps), str(bad_step), str(steps)]
    shutil.copy(pipeline_dir / "out" / "certificate.txt", tmp_path)
    assert cli.main(["verify", "--model", str(pipeline_dir / "scalar.model"),
                     "--certificate", str(tmp_path / "certificate.txt"),
                     "--out", str(tmp_path), "--srf-samples", "10",
                     "--lyap-samples", "2"]) == 0
    assert cli.main(["report", "--dir", str(tmp_path)]) == 0
    assert "- failed_count = 1\n" in (tmp_path / "report.md").read_text()


def test_report_command(pipeline_dir, tmp_path):
    out = pipeline_dir / "out"
    flags = ["--realizations", "2", "--steps", "4", "--seed", "3"]
    assert cli.main(simulate_args(pipeline_dir, out, flags)) == 0
    assert cli.main(["report", "--dir", str(out)]) == 0
    text = (out / "report.md").read_text()
    assert "violation_count = 0" in text
    assert "failed_count = 0" in text
    assert "VALID" in text
    assert "reference-only" in text
    assert "83.0" in text
    assert cli.main(["report", "--dir", str(tmp_path)]) == 1


def test_verify_and_report_print_both_worst_margins(pipeline_dir, tmp_path,
                                                    capsys):
    # one max over both checks would hide the Lyapunov margin behind the
    # SRF one, so each is printed on its own line
    shutil.copy(pipeline_dir / "out" / "certificate.txt", tmp_path)
    assert cli.main(["verify", "--model", str(pipeline_dir / "scalar.model"),
                     "--certificate", str(tmp_path / "certificate.txt"),
                     "--out", str(tmp_path), "--srf-samples", "20",
                     "--lyap-samples", "5", "--seed", "2"]) == 0
    printed = capsys.readouterr().out
    report = verify.read_report((tmp_path / "report.txt").read_text())
    assert f"srf worst margin {report.srf_worst_margin!r}" in printed
    assert f"lyapunov worst margin {report.lyapunov_worst_margin!r}" in printed
    # the terminal slack verify recomputed, not the one the certificate stores
    slack = f"terminal slack {report.terminal_slack!r} (p_margin 1e-06)"
    assert slack in printed
    flags = ["--realizations", "1", "--steps", "2", "--seed", "3"]
    assert cli.main(simulate_args(pipeline_dir, tmp_path, flags)) == 0
    assert cli.main(["report", "--dir", str(tmp_path)]) == 0
    text = (tmp_path / "report.md").read_text()
    assert f"- srf worst margin: {report.srf_worst_margin!r}" in text
    assert (f"- lyapunov worst margin: {report.lyapunov_worst_margin!r}"
            in text)
    assert (f"- terminal slack: {report.terminal_slack!r} (p_margin 1e-06)"
            in text)


def test_builtin_loader_matches_constructor():
    import argparse
    ns = argparse.Namespace(builtin="msd", model=None)
    sys_m, w_m, c_m = cli._load_model(ns)
    ref_sys, ref_w, ref_c = model.build_msd()
    assert np.array_equal(sys_m.a, ref_sys.a)
    assert np.array_equal(w_m.b, ref_w.b)
    assert np.array_equal(c_m.b, ref_c.b)


def test_variable_bounds_extraction():
    sys, w, c = _scalar_model(True, 0.2)
    bounds = cli._variable_bounds(c, 1, 1)
    assert np.allclose(bounds, [1.0, 1.0])
    mixed = model.ConstraintSet(f=[[1.0], [-1.0], [1.0]],
                                g=[[0.5], [0.0], [0.0]],
                                b=[1.0, 3.0, 1.0])
    bounds = cli._variable_bounds(mixed, 1, 1)
    assert bounds[0] == pytest.approx(1.0)
    assert not np.isfinite(bounds[1])


def test_svg_envelope_without_known_bounds():
    stats = sim.BatchStats(
        mean_cost=1.0,
        env_min=np.array([[0.0, -0.5], [0.1, -0.4]]),
        env_max=np.array([[0.2, 0.5], [0.3, 0.6]]),
        infeasible_count=0, violation_count=0, failed_count=0, n_x=1, n_u=1)
    svg = cli.svg_envelope(stats, np.array([np.inf, np.inf]))
    assert svg.startswith("<svg")
    assert "stroke-dasharray" not in svg
    assert svg.count("<polyline") == 4


def test_cli_pins_one_blas_thread_before_numpy_loads():
    # the console script imports the package (errors only), then cli; the
    # pin must be in place when numpy is first imported
    spy = (
        "import os, sys\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import clrmpc.cli\n"
        "print(seen, os.environ['OMP_NUM_THREADS'],"
        " os.environ['MKL_NUM_THREADS'])\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               MKL_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get(
                   "PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", spy], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["['1']", "1", "1"]
