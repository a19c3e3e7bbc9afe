import csv
import io

import numpy as np
import pytest

from clrmpc import mpc, qpsolver, sim
from clrmpc.errors import SolverFailure
from clrmpc.utils import make_rng

import oracles

X0 = np.array([1.9, 0.5, -1.7, 1.7])


def test_mode_and_argument_validation(scalar_certain_controller):
    ctrl, sys, w, c = scalar_certain_controller
    rng = make_rng(0)
    with pytest.raises(ValueError):
        sim.run_closed_loop(ctrl, sys, w, [0.0], 3, rng, mode="sometimes")
    with pytest.raises(ValueError):
        sim.run_closed_loop(ctrl, sys, w, [0.0], -1, rng)
    with pytest.raises(ValueError):
        sim.run_closed_loop(ctrl, sys, w, [0.0], 3, rng, delta_schedule=[5])
    with pytest.raises(ValueError):
        sim.run_closed_loop(ctrl, sys, w, [0.0], 3, rng, delta_schedule=[])


def test_zero_case_all_zero(scalar_certain_controller):
    ctrl, sys, w, c = scalar_certain_controller
    traj = sim.run_closed_loop(ctrl, sys, w, [0.0], 10, make_rng(1))
    assert traj.states.shape == (11, 1)
    assert traj.inputs.shape == (10, 1)
    assert np.abs(traj.states).max() <= 1e-9
    assert np.abs(traj.inputs).max() <= 1e-9
    assert np.abs(traj.disturbances).max() == 0.0
    assert traj.cumulative_cost <= 1e-16
    assert np.abs(traj.mpc_values).max() <= 1e-9
    assert traj.violations == []
    assert traj.infeasible_step is None


def test_record_lengths_and_replay(scalar_uncertain_controller):
    ctrl, sys, w, c = scalar_uncertain_controller
    for mode in sim.MODES:
        traj = sim.run_closed_loop(ctrl, sys, w, [0.5], 15, make_rng(3),
                                   mode=mode)
        assert traj.states.shape[0] == traj.inputs.shape[0] + 1
        assert traj.solve_s.shape == (15,) and (traj.solve_s > 0).all()
        replayed = oracles.replay_states(sys, traj)
        assert np.abs(replayed - traj.states).max() <= 1e-10
        again = sim.run_closed_loop(ctrl, sys, w, [0.5], 15, make_rng(3),
                                    mode=mode)
        assert np.array_equal(again.states, traj.states)
        assert np.array_equal(again.disturbances, traj.disturbances)
        assert np.array_equal(again.delta_weights, traj.delta_weights)


def test_fixed_delta_is_constant_per_run(scalar_uncertain_controller):
    ctrl, sys, w, c = scalar_uncertain_controller
    fixed = sim.run_closed_loop(ctrl, sys, w, [0.4], 12, make_rng(4),
                                mode=sim.FIXED_DELTA)
    assert np.ptp(fixed.delta_weights, axis=0).max() == 0.0
    varying = sim.run_closed_loop(ctrl, sys, w, [0.4], 12, make_rng(4),
                                  mode=sim.PER_STEP_DELTA)
    assert np.ptp(varying.delta_weights, axis=0).max() > 0.0


def test_adversarial_vertex_cycling(scalar_uncertain_controller):
    # worst-case time-varying uncertainty: cycle the hull vertices
    ctrl, sys, w, c = scalar_uncertain_controller
    traj = sim.run_closed_loop(ctrl, sys, w, [0.5], 200, make_rng(5),
                               mode=sim.PER_STEP_DELTA,
                               delta_schedule=[0, 1])
    assert traj.infeasible_step is None
    assert traj.violations == []
    assert np.abs(traj.states).max() <= 1.0 + 1e-9
    assert np.abs(traj.inputs).max() <= 1.0 + 1e-9
    expect = np.tile([[1.0, 0.0], [0.0, 1.0]], (100, 1))
    assert np.array_equal(traj.delta_weights, expect)


def test_infeasible_start_is_recorded(scalar_certain_controller):
    ctrl, sys, w, c = scalar_certain_controller
    traj = sim.run_closed_loop(ctrl, sys, w, [5.0], 4, make_rng(6))
    assert traj.infeasible_step == 0
    assert traj.failed_step is None
    assert traj.states.shape == (1, 1)
    assert traj.inputs.shape == (0, 1)
    assert traj.solve_s.shape == (0,)
    runs = sim.run_batch(ctrl, sys, w, [5.0], 4, 2, seed=6)
    assert all(r.infeasible_step == 0 for r in runs)
    stats = sim.batch_stats(runs)
    assert stats.infeasible_count == 2


def test_run_batch_reproducible_by_index(scalar_uncertain_controller):
    ctrl, sys, w, c = scalar_uncertain_controller
    runs = sim.run_batch(ctrl, sys, w, [0.5], 8, 3, seed=11)
    again = sim.run_batch(ctrl, sys, w, [0.5], 8, 3, seed=11)
    for a, b in zip(runs, again):
        assert np.array_equal(a.states, b.states)
    solo = sim.run_closed_loop(ctrl, sys, w, [0.5], 8,
                               make_rng(11, stream=2))
    assert np.array_equal(solo.states, runs[2].states)


def test_violation_threshold_follows_solver_tolerance(
        scalar_certain_controller, monkeypatch):
    # an accepted online QP may overshoot a row by ACCEPT_TOL (1 + max|b|)
    ctrl, sys, w, c = scalar_certain_controller
    f, g, b = ctrl.bundle.stage_rows()
    assert (f[2, 0], g[2, 0]) == (0.0, 1.0)  # row 2 is u <= b[2]
    tol = qpsolver.ACCEPT_TOL * (1.0 + np.abs(b).max())
    assert tol > 1e-7
    for over, expected in ((0.5 * (1e-7 + tol), []), (2.0 * tol, [(0, 2)])):
        u = np.array([b[2] + over])
        monkeypatch.setattr(mpc, "solve_mpc", lambda ctrl_, x: mpc.MpcSolution(
            u=u, value=0.0, inputs=u[None, :]))
        traj = sim.run_closed_loop(ctrl, sys, w, [0.0], 1, make_rng(0))
        assert traj.violations == expected


def test_solver_failure_is_recorded_and_batch_continues(
        scalar_uncertain_controller, monkeypatch):
    ctrl, sys, w, c = scalar_uncertain_controller
    steps, n_runs, bad_run, bad_step = 8, 4, 1, 5
    clean = sim.run_batch(ctrl, sys, w, [0.5], steps, n_runs, seed=16)
    assert all(r.inputs.shape[0] == steps for r in clean)
    real_solve = mpc.solve_mpc
    calls = []

    def flaky(ctrl_, x):
        calls.append(1)
        if len(calls) == bad_run * steps + bad_step + 1:
            raise SolverFailure("online QP ended with status maxiter")
        return real_solve(ctrl_, x)

    monkeypatch.setattr(mpc, "solve_mpc", flaky)
    runs = sim.run_batch(ctrl, sys, w, [0.5], steps, n_runs, seed=16)
    assert len(runs) == n_runs
    failed = runs[bad_run]
    assert failed.failed_step == bad_step
    assert failed.infeasible_step is None
    assert failed.inputs.shape[0] == bad_step
    assert failed.solve_s.shape == (bad_step,)
    assert np.array_equal(failed.states, clean[bad_run].states[:bad_step + 1])
    fields = ("states", "inputs", "disturbances", "delta_weights",
              "stage_costs", "mpc_values")
    for i in range(n_runs):
        if i == bad_run:
            continue
        for name in fields:
            assert getattr(runs[i], name).tobytes() == \
                getattr(clean[i], name).tobytes(), (i, name)
        assert runs[i].violations == clean[i].violations
        assert runs[i].failed_step is None
    stats = sim.batch_stats(runs)
    assert stats.failed_count == 1
    assert stats.infeasible_count == 0
    assert sim.batch_stats(clean).failed_count == 0


def test_batch_stats_single_run_envelope(scalar_uncertain_controller):
    ctrl, sys, w, c = scalar_uncertain_controller
    traj = sim.run_closed_loop(ctrl, sys, w, [0.5], 9, make_rng(12))
    stats = sim.batch_stats([traj])
    pairs = np.hstack([traj.states[:9], traj.inputs])
    assert np.array_equal(stats.env_min, pairs)
    assert np.array_equal(stats.env_max, pairs)
    assert stats.mean_cost == pytest.approx(traj.cumulative_cost)
    assert stats.infeasible_count == 0


def test_batch_stats_mean_and_violation_count():
    def fake(costs, violations):
        k = len(costs)
        return sim.Trajectory(
            states=np.zeros((k + 1, 2)), inputs=np.zeros((k, 1)),
            disturbances=np.zeros((k, 1)), delta_weights=np.zeros((k, 2)),
            stage_costs=np.asarray(costs, dtype=float),
            mpc_values=np.zeros(k), violations=violations)

    runs = [fake([1.0, 2.0], []), fake([3.0, 5.0], [(0, 2), (1, 0)])]
    stats = sim.batch_stats(runs)
    assert stats.mean_cost == pytest.approx(0.5 * (3.0 + 8.0))
    assert stats.violation_count == 2
    with pytest.raises(ValueError):
        sim.batch_stats([])


def test_envelope_bounds_every_run(scalar_uncertain_controller):
    ctrl, sys, w, c = scalar_uncertain_controller
    runs = sim.run_batch(ctrl, sys, w, [0.5], 10, 5, seed=13,
                         mode=sim.PER_STEP_DELTA)
    stats = sim.batch_stats(runs)
    for r in runs:
        pairs = np.hstack([r.states[:10], r.inputs])
        assert (stats.env_min <= pairs + 1e-15).all()
        assert (stats.env_max >= pairs - 1e-15).all()


def test_benchmark_short_batch_clean(msd_controller):
    ctrl, sys_m, w_m, c_m = msd_controller
    runs = sim.run_batch(ctrl, sys_m, w_m, X0, 10, 3, seed=21)
    stats = sim.batch_stats(runs)
    assert stats.infeasible_count == 0
    assert stats.violation_count == 0
    assert stats.env_min.min() >= -2.0 - 1e-9
    assert stats.env_max.max() <= 2.0 + 1e-9


def _rows(text, header):
    lines = text.splitlines()
    assert lines[0] == header
    return list(csv.reader(io.StringIO("\n".join(lines[1:]))))


def test_trajectory_csv_roundtrip(scalar_uncertain_controller):
    ctrl, sys, w, c = scalar_uncertain_controller
    traj = sim.run_closed_loop(ctrl, sys, w, [0.5], 6, make_rng(14))
    rows = _rows(sim.trajectory_csv(traj), sim.CSV_RUN_HEADER)
    assert rows[0] == ["step", "x0", "u0", "w0", "stage_cost", "mpc_value"]
    assert len(rows) == 7
    for k, row in enumerate(rows[1:]):
        assert int(row[0]) == k
        assert float(row[1]) == traj.states[k, 0]
        assert float(row[2]) == traj.inputs[k, 0]
        assert float(row[3]) == traj.disturbances[k, 0]
        assert float(row[4]) == traj.stage_costs[k]
        assert float(row[5]) == traj.mpc_values[k]


def test_summary_and_envelope_csv(scalar_uncertain_controller):
    ctrl, sys, w, c = scalar_uncertain_controller
    runs = sim.run_batch(ctrl, sys, w, [0.5], 5, 2, seed=15)
    rows = _rows(sim.batch_summary_csv(runs), sim.CSV_SUMMARY_HEADER)
    assert rows[0] == ["run", "steps", "cumulative_cost", "violations",
                       "infeasible_step", "failed_step"]
    assert [r[0] for r in rows[1:]] == ["0", "1"]
    assert float(rows[1][2]) == runs[0].cumulative_cost
    assert rows[1][4] == rows[1][5] == ""
    stats = sim.batch_stats(runs)
    env = _rows(sim.envelope_csv(stats), sim.CSV_ENVELOPE_HEADER)
    assert env[0] == ["step", "x0_min", "x0_max", "u0_min", "u0_max"]
    assert len(env) == 6
    assert float(env[1][1]) == stats.env_min[0, 0]
    assert float(env[1][4]) == stats.env_max[0, 1]
