import os
import sys
import time

# One BLAS thread, as in the benchmark: a threaded product sums in another
# order and moves the msd certificate in its last digits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from clrmpc import model, mpc, synthesis

_TIMINGS = {}


@pytest.fixture(scope="session")
def msd_certificate():
    """One full offline synthesis on the benchmark model, shared by all
    modules that exercise the certificate downstream."""
    sys_m, w_m, c_m = model.build_msd()
    cfg = synthesis.SynthesisConfig()
    trace = []
    start = time.perf_counter()
    cert = synthesis.synthesize(sys_m, w_m, c_m, cfg, trace=trace)
    _TIMINGS["msd_offline_seconds"] = time.perf_counter() - start
    return sys_m, w_m, c_m, cfg, cert, trace


@pytest.fixture(scope="session")
def msd_synthesis_seconds(msd_certificate):
    return _TIMINGS["msd_offline_seconds"]


@pytest.fixture(scope="session")
def msd_controller(msd_certificate):
    sys_m, w_m, c_m, cfg, cert, trace = msd_certificate
    return mpc.make_controller(sys_m, w_m, c_m, cert), sys_m, w_m, c_m


def _scalar_model(with_delta, w_bound):
    """Scalar testbed: a=0.5, b=1, |x|<=1, |u|<=1, |w|<=w_bound."""
    if with_delta:
        deltas = [[[1.0]], [[-1.0]]]
        b_p = [[0.05]]
        d_x = [[1.0]]
    else:
        deltas = [[[0.0]]]
        b_p = [[0.0]]
        d_x = [[0.0]]
    sys = model.UncertainSystem(
        a=[[0.5]], b=[[1.0]], b_p=b_p, b_w=[[1.0]],
        d_x=d_x, d_u=[[0.0]], d_w=[[0.0]], deltas=deltas,
    )
    w = model.Polytope(h=[[1.0], [-1.0]], b=[w_bound, w_bound])
    c = model.ConstraintSet(f=[[1.0], [-1.0], [0.0], [0.0]],
                            g=[[0.0], [0.0], [1.0], [-1.0]],
                            b=[1.0, 1.0, 1.0, 1.0])
    return sys, w, c


@pytest.fixture(scope="session")
def scalar_uncertain_controller():
    """Full pipeline on the uncertain scalar testbed; cheap to synthesize."""
    sys, w, c = _scalar_model(True, 0.2)
    cfg = synthesis.SynthesisConfig(n=3, k_prime=1, init_scale=1.0)
    cert = synthesis.synthesize(sys, w, c, cfg)
    return mpc.make_controller(sys, w, c, cert), sys, w, c


@pytest.fixture(scope="session")
def scalar_certain_controller():
    """Scalar plant with a point disturbance set and no uncertainty."""
    sys, w, c = _scalar_model(False, 0.0)
    cfg = synthesis.SynthesisConfig(n=3, k_prime=1, init_scale=1.0)
    cert = synthesis.synthesize(sys, w, c, cfg)
    return mpc.make_controller(sys, w, c, cert), sys, w, c
