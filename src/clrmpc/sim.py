"""Closed-loop rollouts of the certified controller on the true plant.

A run repeatedly solves the online QP, applies the first input, then
propagates the real uncertain dynamics under a sampled disturbance and a
sampled (or scheduled) uncertainty matrix.  Everything needed to replay
the run exactly is recorded: states, inputs, disturbances, and the hull
weights of each uncertainty draw.  Batches are keyed by run index on a
counter-based generator, so any subset of runs can be reproduced in any
order.
"""

import csv
import io
import time
from dataclasses import dataclass, field

import numpy as np

from . import model, mpc, qpsolver
from .errors import MpcInfeasible, SolverFailure
from .utils import make_rng

FIXED_DELTA = "fixed_delta"
PER_STEP_DELTA = "per_step_delta"
MODES = (FIXED_DELTA, PER_STEP_DELTA)

CSV_RUN_HEADER = "# closed loop run, toolkit csv format v1"
CSV_SUMMARY_HEADER = "# batch summary, toolkit csv format v1"
CSV_ENVELOPE_HEADER = "# trajectory envelope, toolkit csv format v1"


@dataclass
class Trajectory:
    """One rollout; states has exactly one more row than inputs.

    delta_weights stores the hull weights of the uncertainty draw used at
    each step, which together with disturbances and inputs makes the run
    exactly replayable.  violations lists (step, row) pairs where the
    applied pair broke a stage constraint; it stays empty whenever the
    certificate's preconditions held.  infeasible_step marks a run cut
    short by an infeasible online QP, failed_step one cut short by a
    numerical failure of the solver.  solve_s holds the wall seconds of
    each applied step's online solve; no CSV writer emits it, so the
    artifacts stay deterministic.
    """

    states: np.ndarray
    inputs: np.ndarray
    disturbances: np.ndarray
    delta_weights: np.ndarray
    stage_costs: np.ndarray
    mpc_values: np.ndarray
    solve_s: np.ndarray = None
    violations: list = field(default_factory=list)
    infeasible_step: int = None
    failed_step: int = None

    @property
    def cumulative_cost(self):
        return float(np.sum(self.stage_costs))


def _delta_source(sys, rng, mode, delta_schedule):
    """Per-step supplier of (delta, hull weights) draws."""
    n_d = len(sys.deltas)
    if delta_schedule is not None:
        schedule = [int(j) for j in delta_schedule]
        if not schedule or any(j < 0 or j >= n_d for j in schedule):
            raise ValueError("delta_schedule entries must index hull vertices")

        def supply(k):
            j = schedule[k % len(schedule)]
            weights = np.zeros(n_d)
            weights[j] = 1.0
            return sys.deltas[j], weights

        return supply
    if mode == FIXED_DELTA:
        pair = model.sample_delta(sys, rng)
        return lambda k: pair
    return lambda k: model.sample_delta(sys, rng)


def run_closed_loop(ctrl, sys, w, x0, steps, rng, mode=FIXED_DELTA,
                    delta_schedule=None):
    """Roll the controlled uncertain plant forward for the given steps.

    mode selects whether the uncertainty matrix is drawn once per run or
    redrawn every step; delta_schedule overrides both with a cyclic list
    of hull vertex indices, which is how adversarial runs are driven.
    An infeasible online QP or a solver failure ends the run early: the
    trajectory up to that step is returned with infeasible_step or
    failed_step set.  Only invalid arguments raise.
    """
    if mode not in MODES:
        raise ValueError("mode must be one of " + ", ".join(MODES))
    steps = int(steps)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    x = np.asarray(x0, dtype=float).ravel()
    f, g, b = ctrl.bundle.stage_rows()
    # the online QP accepts primal residuals up to this tolerance, so an
    # accepted solve may overshoot its active rows by as much
    violation_tol = qpsolver.ACCEPT_TOL * (1.0 + float(np.abs(b).max(initial=0.0)))
    supply = _delta_source(sys, rng, mode, delta_schedule)

    states = [x.copy()]
    inputs, dists, weights_log, costs, values, solve_s = [], [], [], [], [], []
    violations = []
    infeasible_step = failed_step = None
    for k in range(steps):
        t0 = time.perf_counter()
        try:
            sol = mpc.solve_mpc(ctrl, x)
        except MpcInfeasible:
            infeasible_step = k
            break
        except SolverFailure:
            failed_step = k
            break
        solve_s.append(time.perf_counter() - t0)
        u = sol.u
        residual = f @ x + g @ u - b
        for row in np.flatnonzero(residual > violation_tol):
            violations.append((k, int(row)))
        w_k = model.sample_disturbance(w, rng)
        delta, weights = supply(k)
        inputs.append(u)
        dists.append(w_k)
        weights_log.append(np.asarray(weights, dtype=float))
        costs.append(float(x @ ctrl.q_x @ x + u @ ctrl.q_u @ u))
        values.append(sol.value)
        x = sys.step(x, u, w_k, delta)
        states.append(x.copy())
    n_steps = len(inputs)
    return Trajectory(
        states=np.asarray(states).reshape(n_steps + 1, sys.n_x),
        inputs=np.asarray(inputs).reshape(n_steps, sys.n_u),
        disturbances=np.asarray(dists).reshape(n_steps, sys.n_w),
        delta_weights=np.asarray(weights_log).reshape(
            n_steps, len(sys.deltas)),
        stage_costs=np.asarray(costs, dtype=float),
        mpc_values=np.asarray(values, dtype=float),
        solve_s=np.asarray(solve_s, dtype=float),
        violations=violations,
        infeasible_step=infeasible_step,
        failed_step=failed_step,
    )


def run_batch(ctrl, sys, w, x0, steps, runs, seed, mode=FIXED_DELTA,
              delta_schedule=None):
    """Independent rollouts keyed by run index; runs cut short by an
    infeasible QP or a solver failure are kept.

    Runs execute one after another in index order; each draws from its
    own generator stream, so any single run can be reproduced alone.
    """
    return [run_closed_loop(ctrl, sys, w, x0, steps, make_rng(seed, stream=i),
                            mode=mode, delta_schedule=delta_schedule)
            for i in range(int(runs))]


@dataclass
class BatchStats:
    """Aggregate over a batch: cost mean and the per-step extreme envelope.

    env_min and env_max have one row per applied step and one column per
    state then input coordinate; rows beyond a truncated run's length do
    not contribute to the extremes.  failed_count counts the runs cut
    short by a solver failure.
    """

    mean_cost: float
    env_min: np.ndarray
    env_max: np.ndarray
    infeasible_count: int
    violation_count: int
    failed_count: int
    n_x: int
    n_u: int


def batch_stats(runs):
    """Reduce a list of trajectories to the batch summary statistics."""
    if not runs:
        raise ValueError("batch_stats needs at least one run")
    n_x = runs[0].states.shape[1]
    n_u = runs[0].inputs.shape[1]
    longest = max(r.inputs.shape[0] for r in runs)
    stacked = np.full((len(runs), longest, n_x + n_u), np.nan)
    for i, r in enumerate(runs):
        m = r.inputs.shape[0]
        stacked[i, :m, :n_x] = r.states[:m]
        stacked[i, :m, n_x:] = r.inputs
    with np.errstate(invalid="ignore"):
        env_min = np.nanmin(stacked, axis=0)
        env_max = np.nanmax(stacked, axis=0)
    return BatchStats(
        mean_cost=float(np.mean([r.cumulative_cost for r in runs])),
        env_min=env_min,
        env_max=env_max,
        infeasible_count=sum(r.infeasible_step is not None for r in runs),
        violation_count=sum(len(r.violations) for r in runs),
        failed_count=sum(r.failed_step is not None for r in runs),
        n_x=n_x,
        n_u=n_u,
    )


def _csv_text(header, columns, rows):
    buf = io.StringIO()
    buf.write(header + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def trajectory_csv(traj):
    """One row per applied step: state, input, disturbance, costs."""
    n_x = traj.states.shape[1]
    n_u = traj.inputs.shape[1]
    n_w = traj.disturbances.shape[1]
    columns = (["step"]
               + ["x%d" % i for i in range(n_x)]
               + ["u%d" % i for i in range(n_u)]
               + ["w%d" % i for i in range(n_w)]
               + ["stage_cost", "mpc_value"])
    rows = []
    for k in range(traj.inputs.shape[0]):
        rows.append([k]
                    + [repr(float(v)) for v in traj.states[k]]
                    + [repr(float(v)) for v in traj.inputs[k]]
                    + [repr(float(v)) for v in traj.disturbances[k]]
                    + [repr(float(traj.stage_costs[k])), repr(float(traj.mpc_values[k]))])
    return _csv_text(CSV_RUN_HEADER, columns, rows)


def batch_summary_csv(runs):
    """One row per run: length, cumulative cost, violation and abort info."""
    columns = ["run", "steps", "cumulative_cost", "violations",
               "infeasible_step", "failed_step"]
    rows = []
    for i, r in enumerate(runs):
        rows.append([i, r.inputs.shape[0], repr(r.cumulative_cost),
                     len(r.violations),
                     "" if r.infeasible_step is None else r.infeasible_step,
                     "" if r.failed_step is None else r.failed_step])
    return _csv_text(CSV_SUMMARY_HEADER, columns, rows)


def envelope_csv(stats):
    """Per-step min and max of every state and input coordinate."""
    names = (["x%d" % i for i in range(stats.n_x)]
             + ["u%d" % i for i in range(stats.n_u)])
    columns = ["step"]
    for name in names:
        columns += [name + "_min", name + "_max"]
    rows = []
    for k in range(stats.env_min.shape[0]):
        row = [k]
        for j in range(len(names)):
            row += [repr(float(stats.env_min[k, j])), repr(float(stats.env_max[k, j]))]
        rows.append(row)
    return _csv_text(CSV_ENVELOPE_HEADER, columns, rows)
