"""Batch front end: synthesize, verify, simulate, and report.

Four subcommands cover the whole pipeline on files in an output
directory.  Exit codes are a stable contract: 2 infeasible initial
guess, 3 synthesis or solver failure, 4 failed verification, 5 certificate
and model fingerprints disagree, 6 closed-loop infeasibility, 1 other
errors.  All artifacts are deterministic for a given seed; wall-clock
measurements live only in the log files.

Artifact layout inside the output directory:
  model.txt, certificate.txt, synth_log.txt   from synth
  report.txt                                  from verify
  runs/run_NNN.csv, summary.csv, stats.txt,
  envelope.csv, envelope.svg, sim_log.txt     from simulate
  report.md                                   from report

BLAS is pinned to one thread here, before numpy loads: a threaded product
sums in another order, and the certificate moves in its last digits.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from . import model, mpc, sim, synthesis, verify  # noqa: E402
from .utils import make_rng, parse_value, read_keyed, write_keyed  # noqa: E402
from .errors import (  # noqa: E402
    FingerprintMismatch,
    Infeasible,
    InfeasibleLmi,
    InitialGuessInfeasible,
    MissingArtifacts,
    ModelFormatError,
    NoConvergence,
    NoProgress,
    SolverFailure,
    Unstabilizable,
)

EXIT_GUESS = 2
EXIT_SYNTH = 3
EXIT_INVALID = 4
EXIT_FINGERPRINT = 5
EXIT_MPC_INFEASIBLE = 6

BUILTIN_X0 = {"msd": np.array([1.9, 0.5, -1.7, 1.7])}

STATS_HEADER = "# simulation stats, toolkit text format v1"
STATS_KEYS = {"realizations": int, "steps": int, "seed": int, "mode": str,
              "mean_cost": float, "violation_count": int,
              "infeasible_count": int, "failed_count": int}

REFERENCE_NUMBERS = {
    "offline seconds": 45.1,
    "online milliseconds": 2.2,
    "mean cost": 83.0,
}


def _load_model(args):
    if args.builtin is not None:
        if args.builtin != "msd":
            raise ModelFormatError("unknown builtin model " + args.builtin)
        return model.build_msd()
    text = Path(args.model).read_text()
    return model.read_model_text(text)


def _load_certificate(path, sys_m, w_m, c_m):
    fp = model.model_fingerprint(model.write_model_text(sys_m, w_m, c_m))
    return synthesis.read_certificate(Path(path).read_text(),
                                      expected_fingerprint=fp)


def _matrix_arg(text):
    if text is None:
        return None
    return np.asarray(parse_value(text), dtype=float)


def cmd_synth(args):
    sys_m, w_m, c_m = _load_model(args)
    cfg = synthesis.SynthesisConfig(
        n=args.n, k_prime=args.kprime, mu=args.mu, epsilon=args.epsilon,
        init_scale=args.init_scale, max_alternations=args.max_alternations,
        q_x=_matrix_arg(args.qx), q_u=_matrix_arg(args.qu))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace = []
    start = time.perf_counter()
    cert = synthesis.synthesize(sys_m, w_m, c_m, cfg, trace=trace)
    elapsed = time.perf_counter() - start
    (out / "model.txt").write_text(model.write_model_text(sys_m, w_m, c_m))
    (out / "certificate.txt").write_text(synthesis.write_certificate(cert))
    ctrl = mpc.make_controller(sys_m, w_m, c_m, cert)
    residuals = verify.check_farkas(cert, ctrl.bundle, sys_m, w_m)
    sigma_max = max(max(d["negativity"], d["equality"], d["inequality"])
                    for d in residuals)
    lines = ["# synthesis log"]
    for i, obj in enumerate(trace):
        lines.append(f"alternation {i}: objective = {obj!r}")
    lines.append(f"alpha = {cert.alpha!r}")
    lines.append(f"objective = {cert.objective!r}")
    lines.append("terminal_slack = "
                 f"{verify.terminal_slack(cert, ctrl.bundle, sys_m)!r}")
    lines.append(f"farkas_sigma_max = {sigma_max!r}")
    for j, d in enumerate(residuals):
        lines.append(f"vertex {j}: negativity = {d['negativity']!r}, "
                     f"equality = {d['equality']!r}, "
                     f"inequality = {d['inequality']!r}")
    lines.append(f"duration_s = {elapsed!r}")
    (out / "synth_log.txt").write_text("\n".join(lines) + "\n")
    print(f"certificate written: objective {cert.objective!r}, "
          f"alpha {cert.alpha!r}, {elapsed:.1f} s")
    return 0


def cmd_verify(args):
    sys_m, w_m, c_m = _load_model(args)
    cert = _load_certificate(args.certificate, sys_m, w_m, c_m)
    report = verify.verify_certificate(
        cert, sys_m, w_m, c_m, srf_samples=args.srf_samples,
        lyapunov_samples=args.lyap_samples,
        rng=make_rng(args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(verify.write_report(report))
    print(f"verification {'VALID' if report.valid else 'FAILED'}: "
          f"srf {report.srf_failures}/{report.srf_samples} failures, "
          f"lyapunov {report.lyapunov_failures}/{report.lyapunov_samples}\n"
          f"srf worst margin {report.srf_worst_margin!r}\n"
          f"lyapunov worst margin {report.lyapunov_worst_margin!r}\n"
          f"terminal slack {report.terminal_slack!r} "
          f"(p_margin {report.p_margin!r})")
    return 0 if report.valid else EXIT_INVALID


def _variable_bounds(c_m, n_x, n_u):
    """Per-coordinate symmetric bound when a row constrains it alone."""
    rows = np.hstack([c_m.f, c_m.g])
    bounds = np.full(n_x + n_u, np.inf)
    for r in range(rows.shape[0]):
        nz = np.flatnonzero(rows[r])
        if len(nz) != 1:
            continue
        i = nz[0]
        bounds[i] = min(bounds[i], c_m.b[r] / abs(rows[r, i]))
    return bounds


def svg_envelope(stats, bounds):
    """Static per-variable envelope plot; one panel per coordinate.

    Draws the min/max polylines against the step index with dashed lines
    at the symmetric constraint bound when one is known.
    """
    names = ([f"x{i}" for i in range(stats.n_x)]
             + [f"u{i}" for i in range(stats.n_u)])
    width, p_h, p_gap, m_left, m_top = 640, 110, 26, 56, 24
    plot_w = width - m_left - 20
    steps = stats.env_min.shape[0]
    height = m_top + len(names) * (p_h + p_gap)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for v, name in enumerate(names):
        top = m_top + v * (p_h + p_gap)
        lo = stats.env_min[:, v] if steps else np.zeros(0)
        hi = stats.env_max[:, v] if steps else np.zeros(0)
        bound = bounds[v] if np.isfinite(bounds[v]) else None
        span = [min(lo.min(initial=0.0), -0.1), max(hi.max(initial=0.0), 0.1)]
        if bound is not None:
            span = [min(span[0], -bound), max(span[1], bound)]
        pad = 0.08 * (span[1] - span[0])
        y0, y1 = span[0] - pad, span[1] + pad

        def ypix(val, top=top, y0=y0, y1=y1):
            return top + p_h * (y1 - val) / (y1 - y0)

        def xpix(k):
            return m_left + (plot_w * k / max(steps - 1, 1))

        parts.append(f'<rect x="{m_left}" y="{top}" width="{plot_w}" '
                     f'height="{p_h}" fill="none" stroke="#888"/>')
        parts.append(f'<text x="8" y="{top + p_h / 2:.1f}">{name}</text>')
        parts.append(f'<line x1="{m_left}" y1="{ypix(0.0):.1f}" '
                     f'x2="{m_left + plot_w}" y2="{ypix(0.0):.1f}" '
                     f'stroke="#ccc"/>')
        if bound is not None:
            for s in (bound, -bound):
                parts.append(
                    f'<line x1="{m_left}" y1="{ypix(s):.1f}" '
                    f'x2="{m_left + plot_w}" y2="{ypix(s):.1f}" '
                    f'stroke="#c33" stroke-dasharray="5,4"/>')
        for series, color in ((lo, "#136"), (hi, "#361")):
            if steps == 0:
                continue
            pts = " ".join(f"{xpix(k):.1f},{ypix(series[k]):.1f}"
                           for k in range(steps))
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{m_left}" y="{top + p_h + 14}">'
                     f'0..{max(steps - 1, 0)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_stats(path, args, stats):
    path.write_text(write_keyed(STATS_HEADER, {
        "realizations": args.realizations,
        "steps": args.steps,
        "seed": args.seed,
        "mode": args.mode,
        "mean_cost": stats.mean_cost,
        "violation_count": stats.violation_count,
        "infeasible_count": stats.infeasible_count,
        "failed_count": stats.failed_count,
    }))


def read_stats(text):
    return read_keyed(text, STATS_HEADER, STATS_KEYS, "stats")


def cmd_simulate(args):
    sys_m, w_m, c_m = _load_model(args)
    cert = _load_certificate(args.certificate, sys_m, w_m, c_m)
    ctrl = mpc.make_controller(sys_m, w_m, c_m, cert)
    # structural re-check only; the sampled checks belong to verify
    residuals = verify.check_farkas(cert, ctrl.bundle, sys_m, w_m)
    if not verify.farkas_clean(residuals):
        print("certificate fails the multiplier re-check", file=sys.stderr)
        return EXIT_INVALID
    if args.x0 is not None:
        x0 = np.asarray(parse_value(args.x0), dtype=float)
    elif args.builtin in BUILTIN_X0:
        x0 = BUILTIN_X0[args.builtin]
    else:
        raise ModelFormatError("--x0 is required for custom models")
    out = Path(args.out)
    (out / "runs").mkdir(parents=True, exist_ok=True)
    runs = sim.run_batch(ctrl, sys_m, w_m, x0, args.steps, args.realizations,
                         seed=args.seed, mode=args.mode)
    for i, traj in enumerate(runs):
        (out / "runs" / f"run_{i:03d}.csv").write_text(
            sim.trajectory_csv(traj))
    stats = sim.batch_stats(runs)
    (out / "summary.csv").write_text(sim.batch_summary_csv(runs))
    (out / "envelope.csv").write_text(sim.envelope_csv(stats))
    bounds = _variable_bounds(c_m, sys_m.n_x, sys_m.n_u)
    (out / "envelope.svg").write_text(svg_envelope(stats, bounds))
    _write_stats(out / "stats.txt", args, stats)
    # every online solve of the batch, timed where it ran
    ms = np.sort(np.concatenate([traj.solve_s for traj in runs])) * 1e3
    log = ["# simulation log", f"solve_samples = {len(ms)}"]
    if len(ms):
        log.append(f"solve_ms_p50 = {float(np.percentile(ms, 50))!r}")
        log.append(f"solve_ms_p90 = {float(np.percentile(ms, 90))!r}")
        log.append(f"solve_ms_max = {float(ms[-1])!r}")
    (out / "sim_log.txt").write_text("\n".join(log) + "\n")
    print(f"{len(runs)} runs, mean cost {stats.mean_cost!r}, "
          f"{stats.violation_count} violations, "
          f"{stats.infeasible_count} infeasible, "
          f"{stats.failed_count} solver failures")
    if stats.infeasible_count:
        return EXIT_MPC_INFEASIBLE
    if stats.failed_count:
        return EXIT_SYNTH
    return 0


def cmd_report(args):
    out = Path(args.dir)
    needed = ["certificate.txt", "report.txt", "stats.txt"]
    missing = [n for n in needed if not (out / n).exists()]
    if missing:
        raise MissingArtifacts("missing artifacts: " + ", ".join(missing))
    cert = synthesis.read_certificate((out / "certificate.txt").read_text())
    report = verify.read_report((out / "report.txt").read_text())
    stats = read_stats((out / "stats.txt").read_text())
    offline = online = None
    log_path = out / "synth_log.txt"
    if log_path.exists():
        for line in log_path.read_text().splitlines():
            if line.startswith("duration_s = "):
                offline = float(line.split("=", 1)[1])
    sim_log = out / "sim_log.txt"
    if sim_log.exists():
        for line in sim_log.read_text().splitlines():
            if line.startswith("solve_ms_p50 = "):
                online = float(line.split("=", 1)[1])
    worst_farkas = max(max(d.values()) for d in report.farkas_residuals)
    lines = [
        "# pipeline report",
        "",
        "## synthesis",
        f"- horizon: {cert.n}",
        f"- objective: {cert.objective!r}",
        f"- alpha: {cert.alpha!r}",
        "",
        "## verification",
        f"- verdict: {'VALID' if report.valid else 'FAILED'}",
        f"- worst farkas residual: {worst_farkas!r}",
        f"- srf failures: {report.srf_failures} of {report.srf_samples}",
        f"- lyapunov failures: {report.lyapunov_failures} "
        f"of {report.lyapunov_samples}",
        f"- srf worst margin: {report.srf_worst_margin!r}",
        f"- lyapunov worst margin: {report.lyapunov_worst_margin!r}",
        f"- terminal slack: {report.terminal_slack!r} "
        f"(p_margin {report.p_margin!r})",
        "",
        "## simulation",
        f"- realizations: {stats['realizations']}, steps: {stats['steps']}, "
        f"seed: {stats['seed']}, mode: {stats['mode']}",
        f"- mean_cost = {stats['mean_cost']!r}",
        f"- violation_count = {stats['violation_count']}",
        f"- infeasible_count = {stats['infeasible_count']}",
        f"- failed_count = {stats['failed_count']}",
        "",
        "## timing (reference-only comparison)",
        f"- offline: {offline!r} s "
        f"(reference {REFERENCE_NUMBERS['offline seconds']} s)",
        f"- online p50: {online!r} ms "
        f"(reference {REFERENCE_NUMBERS['online milliseconds']} ms)",
        f"- mean cost reference: {REFERENCE_NUMBERS['mean cost']}",
        "",
        "Reference numbers describe the original experiment setup and are "
        "not acceptance thresholds.",
    ]
    (out / "report.md").write_text("\n".join(lines) + "\n")
    print(f"report written to {out / 'report.md'}")
    return 0


def _add_model_flags(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="model text file")
    group.add_argument("--builtin", choices=["msd"],
                       help="named built-in model")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="clr-mpc",
        description="constraint-tightening robust MPC pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a tightening certificate")
    _add_model_flags(p)
    p.add_argument("--out", default="out")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--kprime", type=int, default=2)
    p.add_argument("--mu", type=float, default=2.0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--init-scale", type=float, default=1.7)
    p.add_argument("--max-alternations", type=int, default=20)
    p.add_argument("--qx", help="state weight matrix literal")
    p.add_argument("--qu", help="input weight matrix literal")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("verify", help="independently check a certificate")
    _add_model_flags(p)
    p.add_argument("--certificate", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--srf-samples", type=int, default=10000)
    p.add_argument("--lyap-samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="closed-loop batch simulation")
    _add_model_flags(p)
    p.add_argument("--certificate", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--realizations", type=int, default=25)
    p.add_argument("--steps", type=int, default=60)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mode", choices=list(sim.MODES), default=sim.FIXED_DELTA)
    p.add_argument("--x0", help="initial state literal")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("report", help="consolidate pipeline artifacts")
    p.add_argument("--dir", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InitialGuessInfeasible as err:
        print(f"initial guess infeasible: {err}", file=sys.stderr)
        return EXIT_GUESS
    except (Infeasible, InfeasibleLmi, NoConvergence, NoProgress,
            SolverFailure, Unstabilizable) as err:
        print(f"synthesis failed: {err}", file=sys.stderr)
        return EXIT_SYNTH
    except FingerprintMismatch as err:
        print(f"fingerprint mismatch: {err}", file=sys.stderr)
        return EXIT_FINGERPRINT
    except (MissingArtifacts, ModelFormatError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
