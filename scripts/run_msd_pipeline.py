"""Full pipeline on the built-in mass-spring-damper benchmark.

Runs the four command line stages in order: offline synthesis, the
independent verification pass, closed-loop batch simulation in both
uncertainty modes, and the consolidated report.  Artifacts land in the
chosen output directory; the per-step-uncertainty batch goes to a
sibling directory so the two runs never overwrite each other.

Usage:
    python3 scripts/run_msd_pipeline.py [--out OUT] [--seed SEED]
        [--realizations R] [--steps K] [--srf-samples S] [--lyap-samples L]
"""

import argparse
import sys

# cli comes first: importing it pins BLAS to one thread before numpy
# loads, and only the one-thread synthesis reproduces the committed
# perfbench/msd_certificate.txt byte for byte.  Nothing above may import
# numpy.
from clrmpc import cli, sim


def stage(label, argv):
    print("== " + label + ": clr-mpc " + " ".join(argv))
    code = cli.main(argv)
    if code != 0:
        print(f"stage '{label}' failed with exit code {code}")
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="msd_out")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--realizations", type=int, default=25)
    ap.add_argument("--steps", type=int, default=60)
    ap.add_argument("--srf-samples", type=int, default=10000)
    ap.add_argument("--lyap-samples", type=int, default=1000)
    args = ap.parse_args()

    out = args.out
    cert = out + "/certificate.txt"
    stage("synth", ["synth", "--builtin", "msd", "--out", out])
    stage("verify", ["verify", "--builtin", "msd", "--certificate", cert,
                     "--out", out,
                     "--srf-samples", str(args.srf_samples),
                     "--lyap-samples", str(args.lyap_samples),
                     "--seed", str(args.seed)])
    stage("simulate fixed", ["simulate", "--builtin", "msd",
                             "--certificate", cert, "--out", out,
                             "--realizations", str(args.realizations),
                             "--steps", str(args.steps),
                             "--seed", str(args.seed),
                             "--mode", sim.FIXED_DELTA])
    stage("simulate per-step", ["simulate", "--builtin", "msd",
                                "--certificate", cert,
                                "--out", out + "_per_step",
                                "--realizations", str(args.realizations),
                                "--steps", str(args.steps),
                                "--seed", str(args.seed),
                                "--mode", sim.PER_STEP_DELTA])
    stage("report", ["report", "--dir", out])
    print("pipeline complete; see " + out + "/report.md")


if __name__ == "__main__":
    main()
