"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Every check must pass on a sound output and fail on a deliberately broken
one: a perturbed tightening, a negated multiplier, a shifted input, a wrong
state, a disturbance outside W, and so on.  Uses the committed certificate
and small batches; takes a few seconds.  Exits 1 if any case goes the
wrong way.
"""

import copy
import dataclasses
import sys

import common

common.use_checkout_source()

import numpy as np  # noqa: E402

from clrmpc import (cli, model, mpc, qpsolver, sim, synthesis,  # noqa: E402
                    utils, verify)

import checks  # noqa: E402

X0 = cli.BUILTIN_X0["msd"]
STEPS, RUNS = 8, 3


def with_tightenings(cert, t):
    bad = copy.deepcopy(cert)
    bad.tightenings = t
    return bad


def broken_run(traj, **changes):
    """Copy of a trajectory with some recorded entries replaced."""
    bad = copy.deepcopy(traj)
    for field, (index, value) in changes.items():
        getattr(bad, field)[index] = value
    return bad


def main():
    sys_m, w_m, c_m = model.build_msd()
    fp = model.model_fingerprint(model.write_model_text(sys_m, w_m, c_m))
    cert = synthesis.read_certificate(common.CERT_PATH.read_text(),
                                      expected_fingerprint=fp)
    mu = synthesis.SynthesisConfig().mu
    ctrl = mpc.make_controller(sys_m, w_m, c_m, cert)
    alg = checks.PlanAlgebra(sys_m, w_m, c_m, cert)
    cases = []

    def case(name, failures, should_fail, expect=None):
        ok = bool(failures) == should_fail
        if ok and should_fail and expect is not None:
            ok = any(expect in f for f in failures)
        cases.append(ok)
        verdict = "ok" if ok else "WRONG"
        print(f"{verdict:5s} {name}: {len(failures)} failures"
              + (f" ({failures[0]})" if failures else ""))

    # synth-msd
    t = np.asarray(cert.tightenings, dtype=float)
    loose = t.copy()
    loose[c_m.n_c:] *= 0.5
    bad_alg = checks.PlanAlgebra(sys_m, w_m, c_m, with_tightenings(cert, loose))
    case("containment, sound", checks.check_containment(alg), False)
    case("containment, perturbed tightening",
         checks.check_containment(bad_alg), True, "containment")
    case("Farkas, sound", checks.check_farkas(alg), False)
    case("Farkas, perturbed tightening", checks.check_farkas(bad_alg), True,
         "inequality")
    negated = checks.negate_one_multiplier(cert)
    case("Farkas, negated multiplier",
         checks.check_farkas(checks.PlanAlgebra(sys_m, w_m, c_m, negated)),
         True, "negativity")
    case("objective, sound", checks.check_objective(cert, alg.b_stack, mu),
         False)
    case("objective, perturbed tightening",
         checks.check_objective(with_tightenings(cert, loose), alg.b_stack, mu),
         True, "objective")
    case("objective, alpha not positive",
         checks.check_objective(dataclasses.replace(cert, alpha=-1.0),
                                alg.b_stack, mu), True, "alpha")
    below = t.copy()
    below[0] = -1e-9
    case("objective, negative tightening",
         checks.check_objective(with_tightenings(cert, below), alg.b_stack,
                                mu), True, "below")
    case("trace, sound",
         checks.check_trace([cert.objective + 1e-3, cert.objective],
                            cert.objective), False)
    case("trace, increasing",
         checks.check_trace([cert.objective, cert.objective + 1e-3],
                            cert.objective), True, "increases")
    case("feasible at x0, sound", checks.check_feasible_at(alg, X0), False)
    case("feasible at x0, state outside the region",
         checks.check_feasible_at(alg, 10.0 * X0), True, "not feasible")

    # closed-loop-msd
    runs = sim.run_batch(ctrl, sys_m, w_m, X0, STEPS, RUNS, seed=7,
                         mode=sim.PER_STEP_DELTA)
    mean = sim.batch_stats(runs).mean_cost
    traj = runs[0]

    def batch(bad_traj, mean_cost=mean):
        return checks.check_batch([bad_traj] + runs[1:], sys_m, w_m, c_m, cert,
                                  X0, STEPS, RUNS, mean_cost)

    case("batch, sound", batch(traj), False)
    case("batch, shifted input",
         batch(broken_run(traj, inputs=(3, traj.inputs[3] + 0.01))), True,
         "plant equations")
    case("batch, wrong state",
         batch(broken_run(traj, states=(5, traj.states[5] + 1e-3))), True,
         "plant equations")
    case("batch, disturbance outside W",
         batch(broken_run(traj, disturbances=(2, np.array([1.5, 0.0])))),
         True, "outside W")
    case("batch, hull weights off the simplex",
         batch(broken_run(traj, delta_weights=(1, 1.1 * traj.delta_weights[1]))),
         True, "simplex")
    case("batch, stage row exceeded",
         batch(broken_run(traj, states=(4, np.array([2.5, 0.0, 0.0, 0.0])))),
         True, "stage row")
    case("batch, infeasible run",
         batch(dataclasses.replace(traj, infeasible_step=3)), True, "stopped")
    case("batch, wrong mean cost", batch(traj, mean + 1.0), True, "mean cost")

    qp = checks.OnlineQp(alg, qpsolver.ACCEPT_TOL)
    replay = [(x, mpc.solve_mpc(ctrl, x), u)
              for x, u in zip(traj.states[:-1], traj.inputs)]
    x, sol, u = replay[2]
    shifted = dataclasses.replace(sol, inputs=sol.inputs + 1e-3)
    case("replay, sound", checks.check_replay(qp, replay), False)
    case("replay, shifted plan", checks.check_replay(qp, [(x, shifted, u)]),
         True, "stationarity")
    case("replay, wrong value",
         checks.check_replay(qp, [(x, dataclasses.replace(sol, value=sol.value
                                                           + 1e-3), u)]),
         True, "value")
    case("replay, loop input within solver tolerance",
         checks.check_replay(qp, [(x, sol, u + 1e-6)]), False)
    case("replay, input differs from the loop",
         checks.check_replay(qp, [(x, sol, u + 0.1)]), True, "loop's input")
    case("replay, wrong state", checks.check_replay(qp, [(x + 0.05, sol, u)]),
         True, "replay")

    # verify-msd
    report = verify.verify_certificate(cert, sys_m, w_m, c_m, srf_samples=20,
                                       lyapunov_samples=2,
                                       rng=utils.make_rng(3))
    case("report, sound", checks.check_report(report, 20, 2), False)
    case("report, one SRF failure",
         checks.check_report(dataclasses.replace(report, srf_failures=1), 20,
                             2), True, "not valid")
    case("report, wrong sample count", checks.check_report(report, 21, 2),
         True, "sample counts")
    flagged = verify.check_farkas(negated, ctrl.bundle, sys_m, w_m)
    clean = verify.check_farkas(cert, ctrl.bundle, sys_m, w_m)
    case("negation, flagged by the program",
         checks.check_negation_flagged(flagged, verify.RESIDUAL_TOL), False)
    case("negation, missed", checks.check_negation_flagged(
        clean, verify.RESIDUAL_TOL), True, "passed")

    wrong = cases.count(False)
    print(f"{len(cases) - wrong} of {len(cases)} cases as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
