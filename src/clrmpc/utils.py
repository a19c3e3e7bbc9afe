"""Small shared helpers: seeded counter-based RNG, hashing, stable float
formatting for text artifacts.
"""

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def make_rng(seed, stream=0):
    """Counter-based generator keyed by (seed, stream).

    Streams with the same seed but different stream index are independent,
    which keeps batch runs reproducible regardless of execution order.
    """
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sha256_hex(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def fmt(x):
    """Shortest round-trip decimal form of a float; exact on read-back."""
    return repr(float(x))
