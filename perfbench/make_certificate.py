"""Synthesize the msd certificate that closed-loop-msd and verify-msd read.

    python3 perfbench/make_certificate.py [--out PATH]

The certificate is a fixed input of the benchmark, committed next to this
script, so that a change to synthesis moves neither the online nor the
verification figures.  This script makes it anew from the default
``SynthesisConfig`` and refuses to write it unless every synth-msd check
passes on the result.
"""

import argparse
import sys
import time

import common

common.use_checkout_source()

from clrmpc import cli, model, synthesis  # noqa: E402

import checks  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(common.CERT_PATH))
    args = parser.parse_args(argv)
    sys_m, w_m, c_m = model.build_msd()
    trace = []
    start = time.perf_counter()
    cert = synthesis.synthesize(sys_m, w_m, c_m, synthesis.SynthesisConfig(),
                                trace=trace)
    elapsed = time.perf_counter() - start
    failures = checks.check_synthesis(cert, trace, sys_m, w_m, c_m,
                                      synthesis.SynthesisConfig().mu,
                                      cli.BUILTIN_X0["msd"])
    if failures:
        for line in failures:
            print("check failed:", line, file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        fh.write(synthesis.write_certificate(cert))
    print(f"wrote {args.out}: objective {cert.objective!r}, "
          f"alpha {cert.alpha!r}, {len(trace)} alternations, {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
