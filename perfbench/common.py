"""Shared set-up for the benchmark scripts: paths, thread pinning, inputs.

Import this module before numpy.  It pins BLAS to one thread, so that the
package's own thread pool, left at its default size, is the only source of
parallelism.  ``use_checkout_source`` puts the checkout's ``src`` directory
first on ``sys.path``, so the package is always the one in this checkout,
never an installed copy.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the package's thread pool runs at its default size (the CPU count)
os.environ.pop("CLR_MPC_THREADS", None)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CERT_PATH = BENCH_DIR / "msd_certificate.txt"

# closed-loop-msd: one batch per uncertainty mode, the CLI's default size
BATCH_RUNS = 25
BATCH_STEPS = 60
# verify-msd: reduced from the CLI defaults (10000 / 1000) so that neither
# sampled check dominates the stage
SRF_SAMPLES = 400
LYAPUNOV_SAMPLES = 8
# online states timed on synth-msd and verify-msd; 10 lie beyond the p99
PROBE_STATES = 1000


class MissingSource(RuntimeError):
    """The checkout holds no package source to benchmark."""


def use_checkout_source():
    """Make ``import clrmpc`` resolve to this checkout's ``src/clrmpc``."""
    if not (SRC / "clrmpc" / "__init__.py").is_file():
        raise MissingSource(f"no package source under {SRC}")
    path = str(SRC)
    if path in sys.path:
        sys.path.remove(path)
    sys.path.insert(0, path)
