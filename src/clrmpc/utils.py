"""Small shared helpers: seeded counter-based RNG, hashing, and the text
format of models, certificates, verification reports and simulation stats:
a header line, then `key = value` lines whose values are JSON numbers,
nested JSON arrays of numbers, or quoted strings.
"""

import ast
import hashlib
import json

import numpy as np

from .errors import ModelFormatError

_MASK64 = (1 << 64) - 1

# Value kinds of read_keyed besides int, float and str: float arrays of
# this many dimensions.  A list of same-shape matrices reads as one array.
VECTOR, MATRIX, MATRICES = 1, 2, 3


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


def _format_value(value):
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, (float, np.floating)):
        return fmt(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.ndarray):
        if value.ndim == 1:
            return "[" + ", ".join(fmt(v) for v in value) + "]"
        rows = ["[" + ", ".join(fmt(v) for v in row) + "]" for row in value]
        return "[" + ",\n     ".join(rows) + "]"
    if isinstance(value, list):  # list of matrices
        return "[" + ",\n    ".join(_format_value(np.asarray(v)) for v in value) + "]"
    raise TypeError(f"cannot format {type(value)}")


def write_keyed(header, fields):
    """The header line, then one `key = value` entry per field in order."""
    lines = [header] + [f"{key} = {_format_value(v)}" for key, v in fields.items()]
    return "\n".join(lines) + "\n"


def _refuse_constant(name):
    raise ValueError(f"non-finite constant {name}")


def parse_value(src):
    """One value as Python numbers, lists and strings; ValueError if bad.

    Quoted strings and older Python-literal input such as `.5` or a tuple
    are not JSON and go through ast.literal_eval.  NaN and infinities are
    refused either way.
    """
    try:
        return json.loads(src, parse_constant=_refuse_constant)
    except ValueError:
        pass
    try:
        return ast.literal_eval(src)
    except SyntaxError as exc:
        raise ValueError(str(exc)) from exc


def _typed(value, kind):
    """value as kind: int, float, str, or a float array of kind dimensions;
    ValueError for any other type and for a non-finite number."""
    if kind is str:
        if isinstance(value, str):
            return value
        raise ValueError("must be a string")
    ndim = 0 if kind in (int, float) else kind
    try:
        arr = np.asarray(value)
        ok = (arr.ndim == ndim and arr.dtype.kind in ("iu" if kind is int else "iuf")
              and np.isfinite(arr).all())
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        names = {int: "an integer", float: "a finite number"}
        raise ValueError("must be " + names.get(kind, f"a {ndim}-D array of finite numbers"))
    if kind is int:
        return value
    return float(value) if kind is float else np.asarray(arr, dtype=float)


def read_keyed(text, header, keys, what):
    """Scan text written by write_keyed into a dict of typed values.

    The first non-blank line must be header; blank lines and `#` comments
    are skipped.  A value runs on across lines until its brackets balance,
    so a stray `]` ends it early and fails as a bad literal.  keys maps
    every key to its kind (int, float, str, VECTOR, MATRIX or MATRICES);
    each key must appear exactly once and hold a value of its kind.
    """
    first = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
    if first != header:
        raise ModelFormatError(f"{what}: missing format header")
    entries = {}
    pending_key = None
    pending = []
    depth = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if pending_key is None:
            if "=" not in line:
                raise ModelFormatError(
                    f"{what} line {lineno}: expected 'key = value'")
            key, line = line.split("=", 1)
            key, line = key.strip(), line.strip()
            if key not in keys:
                raise ModelFormatError(f"{what} line {lineno}: unknown key {key!r}")
            if key in entries:
                raise ModelFormatError(
                    f"{what} line {lineno}: duplicate key {key!r}")
            pending_key = key
        pending.append(line)
        depth += line.count("[") - line.count("]")
        if depth <= 0:
            try:
                entries[pending_key] = _typed(parse_value(" ".join(pending)),
                                              keys[pending_key])
            except ValueError as exc:
                raise ModelFormatError(
                    f"{what}: bad literal for key {pending_key!r}: {exc}") from exc
            pending_key = None
            pending = []
            depth = 0
    if pending_key is not None:
        raise ModelFormatError(f"{what}: unterminated value for key {pending_key!r}")
    missing = [k for k in keys if k not in entries]
    if missing:
        raise ModelFormatError(f"{what}: missing keys {', '.join(missing)}")
    return entries
