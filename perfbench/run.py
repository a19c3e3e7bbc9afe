"""Benchmark of clrmpc on the msd model: synthesis, online loop, verification.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (each runs in this one process; one caller that waits for every
result):

    synth-msd        synthesis.synthesize on model.build_msd(), default config
    closed-loop-msd  sim.run_batch 25 x 60 in both uncertainty modes from the
                     committed certificate
    verify-msd       verify.verify_certificate on the committed certificate

After its first stage round each workload times ``mpc.solve_mpc`` one call
at a time: closed-loop-msd on every state its fixed_delta batch visited, in
visiting order; synth-msd on seeded states inside the region of the
committed certificate, so that a synthesis change does not move them;
verify-msd on seeded states 0.999 of the way to the region boundary of the
committed certificate.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` the stage runs once untraced and
once traced, and the object carries the per-layer metrics instead.  The
spans of a traced run are written to ``.perfbench_out/``.  Correctness
checks run after the timed sections; any failure sets ``correct`` to false.
"""

import argparse
import importlib
import json
import resource
import statistics
import sys
import time

import common

# imported once up front, so every set-up sample times the same work
import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402,F401

import checks  # noqa: E402

SETUP_REPEATS = 2  # before the stage, and as many after it
TIMED_PASSES = 3
OUT_DIR = common.ROOT / ".perfbench_out"
PACKAGE_MODULES = ("model", "linalg", "qpsolver", "prediction", "terminal",
                 "synthesis", "mpc", "sim", "verify", "utils", "cli")


def import_layers():
    """Import every module of the package afresh, dropping module caches."""
    for name in [m for m in sys.modules
                 if m == "clrmpc" or m.startswith("clrmpc.")]:
        del sys.modules[name]
    return {name: importlib.import_module("clrmpc." + name)
            for name in PACKAGE_MODULES}


def _load_certificate(m):
    sys_m, w_m, c_m = m["model"].build_msd()
    fp = m["model"].model_fingerprint(
        m["model"].write_model_text(sys_m, w_m, c_m))
    cert = m["synthesis"].read_certificate(common.CERT_PATH.read_text(),
                                           expected_fingerprint=fp)
    ctrl = m["mpc"].make_controller(sys_m, w_m, c_m, cert)
    return {"model": (sys_m, w_m, c_m), "cert": cert, "ctrl": ctrl}


# -- workloads ----------------------------------------------------------------

class Workload:
    """Stage, output identity, timed online solves and checks of one
    workload.

    On a shared virtual machine a vCPU can switch between a fast and a
    slow speed for seconds at a time, and other tenants stall it now and
    then, so one timed call measures the host as much as the solver.  The
    online states are therefore solved in three passes, one after the
    other, and a state's latency is the median of its three timed calls;
    p50 and p99 are taken over the states.  ``timed`` keeps (state,
    solution, loop input) of the last pass for the KKT check, and
    ``timed_alg`` the plan algebra of the certificate solved."""

    def __init__(self, seed):
        self.seed = seed
        self.latencies_ms = None
        self.timed = None
        self.timed_alg = None

    def time_solves(self, m, ctrl, alg, states, loop_inputs=None):
        """Timed passes over the states; returns the number of calls."""
        solve = m["mpc"].solve_mpc
        if loop_inputs is None:
            loop_inputs = [None] * len(states)
        passes = []
        for _ in range(TIMED_PASSES):
            times, done = [], []
            for x, u in zip(states, loop_inputs):
                t0 = time.perf_counter()
                sol = solve(ctrl, x)
                times.append((time.perf_counter() - t0) * 1e3)
                done.append((x, sol, u))
            passes.append(times)
        self.timed = done
        self.timed_alg = alg
        self.latencies_ms = [statistics.median(t) for t in zip(*passes)]
        return TIMED_PASSES * len(states)

    def latency_metrics(self):
        ms = self.latencies_ms
        cuts = statistics.quantiles(ms, n=100, method="inclusive")
        return {"online_ms_p50": (statistics.median(ms), "ms"),
                "online_ms_p99": (cuts[98], "ms")}

    def check_timed(self, m):
        if self.timed is None:
            return []
        qp = checks.OnlineQp(self.timed_alg, m["qpsolver"].ACCEPT_TOL)
        return checks.check_replay(qp, self.timed)


class SynthMsd(Workload):
    name = "synth-msd"

    def setup(self, m):
        return {"model": m["model"].build_msd()}

    def stage(self, m, inputs):
        trace = []
        cert = m["synthesis"].synthesize(*inputs["model"],
                                         m["synthesis"].SynthesisConfig(),
                                         trace=trace)
        return {"cert": cert, "trace": trace}

    def fingerprint(self, m, out):
        return (m["synthesis"].write_certificate(out["cert"]),
                tuple(out["trace"]))

    def operations(self, out):
        return 1, 0

    def time_online(self, m, inputs, out):
        """Online solves with the committed certificate."""
        fixed = _load_certificate(m)
        alg = checks.PlanAlgebra(*fixed["model"], fixed["cert"])
        states = checks.probe_states(alg, np.random.default_rng(self.seed),
                                     common.PROBE_STATES)
        return self.time_solves(m, fixed["ctrl"], alg, states)

    def check(self, m, inputs, out):
        failures = checks.check_synthesis(
            out["cert"], out["trace"], *inputs["model"],
            m["synthesis"].SynthesisConfig().mu, m["cli"].BUILTIN_X0["msd"])
        return failures + self.check_timed(m)

    def summary(self, out):
        cert = out["cert"]
        return (f"objective {cert.objective!r}, alpha {cert.alpha!r}, "
                f"{len(out['trace'])} alternations")


class ClosedLoopMsd(Workload):
    name = "closed-loop-msd"
    modes = ("fixed_delta", "per_step_delta")

    def setup(self, m):
        inputs = _load_certificate(m)
        inputs["x0"] = m["cli"].BUILTIN_X0["msd"]
        return inputs

    def stage(self, m, inputs):
        sys_m, w_m, _ = inputs["model"]
        return {mode: m["sim"].run_batch(
                    inputs["ctrl"], sys_m, w_m, inputs["x0"],
                    common.BATCH_STEPS, common.BATCH_RUNS, seed=self.seed,
                    mode=mode)
                for mode in self.modes}

    def fingerprint(self, m, out):
        return tuple(
            (mode, i, field, getattr(t, field).tobytes())
            for mode in self.modes for i, t in enumerate(out[mode])
            for field in ("states", "inputs", "disturbances", "delta_weights",
                          "stage_costs", "mpc_values"))

    def operations(self, out):
        runs = [t for mode in self.modes for t in out[mode]]
        return (sum(t.inputs.shape[0] for t in runs),
                sum(t.infeasible_step is not None for t in runs))

    def time_online(self, m, inputs, out):
        """Replay every state the fixed_delta batch visited, in visiting
        order."""
        trajs = out[self.modes[0]]
        states = [x for t in trajs for x in t.states[:-1]]
        applied = [u for t in trajs for u in t.inputs]
        alg = checks.PlanAlgebra(*inputs["model"], inputs["cert"])
        return self.time_solves(m, inputs["ctrl"], alg, states, applied)

    def check(self, m, inputs, out):
        sys_m, w_m, c_m = inputs["model"]
        failures = []
        for mode in self.modes:
            stats = m["sim"].batch_stats(out[mode])
            failures += [f"{mode}: {f}" for f in checks.check_batch(
                out[mode], sys_m, w_m, c_m, inputs["cert"], inputs["x0"],
                common.BATCH_STEPS, common.BATCH_RUNS, stats.mean_cost)]
            if stats.infeasible_count or stats.violation_count:
                failures.append(f"{mode}: batch stats count infeasible or "
                                "violating runs")
        return failures + self.check_timed(m)

    def summary(self, out):
        return ", ".join(
            f"{mode} mean cost "
            f"{float(np.mean([t.cumulative_cost for t in out[mode]])):.4f}"
            for mode in self.modes)


class VerifyMsd(Workload):
    name = "verify-msd"

    def setup(self, m):
        return _load_certificate(m)

    def stage(self, m, inputs):
        report = m["verify"].verify_certificate(
            inputs["cert"], *inputs["model"],
            srf_samples=common.SRF_SAMPLES,
            lyapunov_samples=common.LYAPUNOV_SAMPLES,
            rng=m["utils"].make_rng(self.seed))
        return {"report": report}

    def fingerprint(self, m, out):
        return m["verify"].write_report(out["report"])

    def operations(self, out):
        r = out["report"]
        return (r.srf_samples + r.lyapunov_samples,
                r.srf_failures + r.lyapunov_failures)

    def time_online(self, m, inputs, out):
        """Cold online solves near the region boundary."""
        alg = checks.PlanAlgebra(*inputs["model"], inputs["cert"])
        states = checks.probe_states(alg, np.random.default_rng(self.seed),
                                     common.PROBE_STATES, fraction=0.999)
        return self.time_solves(m, inputs["ctrl"], alg, states)

    def check(self, m, inputs, out):
        sys_m, w_m, c_m = inputs["model"]
        failures = checks.check_report(out["report"], common.SRF_SAMPLES,
                                       common.LYAPUNOV_SAMPLES)
        alg = checks.PlanAlgebra(sys_m, w_m, c_m, inputs["cert"])
        failures += checks.check_containment(alg)
        bad = checks.negate_one_multiplier(inputs["cert"])
        residuals = m["verify"].check_farkas(bad, inputs["ctrl"].bundle,
                                             sys_m, w_m)
        failures += checks.check_negation_flagged(residuals,
                                                  m["verify"].RESIDUAL_TOL)
        return failures + self.check_timed(m)

    def summary(self, out):
        r = out["report"]
        return (f"valid {r.valid}, srf worst margin {r.srf_worst_margin!r}, "
                f"lyapunov worst margin {r.lyapunov_worst_margin!r}")


WORKLOADS = {w.name: w for w in (SynthMsd, ClosedLoopMsd, VerifyMsd)}


# -- runs ---------------------------------------------------------------------

def timed_setup(workload, tracer=None):
    t0 = time.perf_counter()
    mods = import_layers()
    if tracer is not None:
        tracer.install(mods)
    inputs = workload.setup(mods)
    return time.perf_counter() - t0, mods, inputs


def timed_stage(workload, mods, inputs):
    t0 = time.perf_counter()
    out = workload.stage(mods, inputs)
    return time.perf_counter() - t0, out


def run_untraced(workload, seconds):
    """Set up a few times, run whole stage rounds until the stage time
    reaches ``seconds``, time the online solves after the first round, then
    set up as many times again; ``setup_s`` is the median of all set-ups."""
    setups = []
    for _ in range(SETUP_REPEATS):
        dt, mods, inputs = timed_setup(workload)
        setups.append(dt)
    rounds, first, failures = [], None, []
    attempted = failed = 0
    while not rounds or sum(rounds) < seconds:
        dt, out = timed_stage(workload, mods, inputs)
        rounds.append(dt)
        ops, bad = workload.operations(out)
        attempted += ops
        failed += bad
        if first is None:
            first, first_print = out, workload.fingerprint(mods, out)
            attempted += workload.time_online(mods, inputs, out)
        elif workload.fingerprint(mods, out) != first_print:
            failures.append(f"stage round {len(rounds)} differs from round 1")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups += [timed_setup(workload)[0] for _ in range(SETUP_REPEATS)]
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "stage_s": (statistics.median(rounds), "s"),
               "peak_rss_mb": (rss_kb / 1024.0, "MB")}
    metrics.update(workload.latency_metrics())
    failures += workload.check(mods, inputs, first)
    print(f"{workload.name} seed {workload.seed}: stage rounds "
          f"{[round(r, 3) for r in rounds]}, set-ups "
          f"{[round(s, 3) for s in setups]}, "
          f"{len(workload.latencies_ms)} states timed {TIMED_PASSES} times; "
          f"{workload.summary(first)}")
    return metrics, attempted, failed, failures


def run_traced(workload):
    """One untraced and one traced stage; per-layer figures of the traced."""
    import tracer as tracing
    _, mods, inputs = timed_setup(workload)
    plain_s, plain_out = timed_stage(workload, mods, inputs)
    plain_print = workload.fingerprint(mods, plain_out)

    tracer = tracing.Tracer()
    _, mods, inputs = timed_setup(workload, tracer)
    try:
        traced_s, out = timed_stage(workload, mods, inputs)
    finally:
        tracer.uninstall()
    failures = []
    if workload.fingerprint(mods, out) != plain_print:
        failures.append("traced stage output differs from the untraced one")
    attempted, failed = workload.operations(out)
    failures += workload.check(mods, inputs, out)

    metrics = tracer.metrics()
    metrics["synthesis.alternations"] = (
        len(out["trace"]) if "trace" in out else 0, "count")
    lyap = out["report"].lyapunov_samples if "report" in out else 0
    metrics["verify.roa_per_lyapunov_sample"] = (
        metrics["mpc.roa_membership.calls"][0] / lyap if lyap else 0.0,
        "calls/sample")
    metrics["trace.stage_s"] = (traced_s, "s")
    metrics["trace.untraced_stage_s"] = (plain_s, "s")
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": workload.seed,
                   "metrics": {k: v[0] for k, v in metrics.items()},
                   "spans": tracer.dump()}, fh)
    print(f"{workload.name} seed {workload.seed}: traced stage "
          f"{traced_s:.3f} s, untraced {plain_s:.3f} s; "
          f"{workload.summary(out)}; spans in "
          f"{path.relative_to(common.ROOT)}")
    return metrics, attempted, failed, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, attempted, failed, failures = run_traced(workload)
    else:
        metrics, attempted, failed, failures = run_untraced(workload,
                                                            args.seconds)
    for line in failures:
        print("check failed:", line, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        common.use_checkout_source()
    except common.MissingSource as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
