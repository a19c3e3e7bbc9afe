"""Spans and counters around the calls into each layer of ``clrmpc``.

The tracer wraps every public module-level function of the layer modules
and rebinds each wrapper wherever the package looks the function up,
including names bound by ``from ... import`` in another module (for example
``synthesis.parallel_map`` or ``synthesis.solve_dare``).  Nothing inside
``src/`` changes: the wrappers are set from the benchmark's own files and
removed again by ``uninstall``.

Each wrapped call records one span: name, start, end, thread and the span
that was open when it started.  Work that ``utils.parallel_map`` hands to
its thread pool is attributed to the ``parallel_map`` span, so spans in
worker threads keep their cause.  Counters are updated under one lock and
are therefore safe under that pool.
"""

import functools
import inspect
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("model", "linalg", "qpsolver", "prediction", "terminal",
          "synthesis", "mpc", "sim", "verify", "utils")


class _CountingLinalg:
    """Stand-in for ``scipy.linalg`` inside ``qpsolver`` that counts the
    KKT factorizations and forwards everything else unchanged."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def cho_factor(self, *args, **kwargs):
        self._tracer.count("qpsolver.kkt_factorizations")
        return self._real.cho_factor(*args, **kwargs)

    def ldl(self, *args, **kwargs):
        self._tracer.count("qpsolver.kkt_factorizations")
        return self._real.ldl(*args, **kwargs)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._restore = []
        self.spans = {}  # id -> (name, start, end, thread, parent)
        self.counts = Counter()
        self.max_workers = 0

    # -- installation -----------------------------------------------------

    def install(self, modules):
        """Wrap the public functions of the given ``{layer: module}`` map."""
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, name, wrappers[obj])
        qp = modules["qpsolver"]
        self._set(qp, "sla", _CountingLinalg(qp.sla, self))

    def uninstall(self):
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore = []

    def _set(self, mod, name, value):
        self._restore.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    # -- recording --------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key):
        with self._lock:
            self.counts[key] += 1

    def _open(self):
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        return sid

    def _observe(self, name, result):
        with self._lock:
            if name == "qpsolver.solve_qp":
                self.counts["qpsolver.solve_qp.ipm_iters"] += result.iterations
                if result.status == "optimal":
                    self.counts["qpsolver.solve_qp.optimal"] += 1
            elif name == "utils.worker_count":
                self.max_workers = max(self.max_workers, int(result))

    def _adopt(self, fn, parent):
        """Run fn in a pool thread as a child of the span that submitted it."""
        def adopted(item):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(item)
            finally:
                stack.pop()
        return adopted

    def _wrap(self, name, fn):
        tracer = self
        adopts = name == "utils.parallel_map"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = tracer._open()
            if adopts and args:
                args = (tracer._adopt(args[0], sid),) + args[1:]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans[sid] = (name, start, end,
                                         threading.get_ident(), parent)
                    tracer.counts[name + ".calls"] += 1
            tracer._observe(name, result)
            return result

        return wrapper

    # -- derived figures --------------------------------------------------

    def self_times(self):
        """Span duration minus the union of its children's intervals.

        Children in pool threads count as covering their parent, so the
        self time of ``parallel_map`` is the pool's own overhead, not the
        wall time of the work it waited for.
        """
        children = defaultdict(list)
        for sid, (_, start, end, _, parent) in self.spans.items():
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, (_, start, end, _, _) in self.spans.items():
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[sid] = (end - start) - covered
        return out

    def _ancestors(self, sid):
        parent = self.spans[sid][4]
        while parent is not None and parent in self.spans:
            yield parent
            parent = self.spans[parent][4]

    def inclusive_seconds(self):
        """Per function: wall time of its outermost calls (no double count
        of calls nested inside a call to the same function)."""
        out = defaultdict(float)
        for sid, (name, start, end, _, _) in self.spans.items():
            if all(self.spans[a][0] != name for a in self._ancestors(sid)):
                out[name] += end - start
        return out

    def metrics(self):
        """Per-layer figures; names are ``<layer>.<function>.<figure>``."""
        calls = self.counts
        seconds = self.inclusive_seconds()
        selfs = self.self_times()
        layer_self = defaultdict(float)
        batch_self = 0.0
        for sid, value in selfs.items():
            name = self.spans[sid][0]
            layer = name.split(".", 1)[0]
            layer_self[layer] += value
            if layer == "sim" and (name == "sim.run_batch" or any(
                    self.spans[a][0] == "sim.run_batch"
                    for a in self._ancestors(sid))):
                batch_self += value
        qp_calls = calls["qpsolver.solve_qp.calls"]
        out = {}

        def put(name, value, unit):
            out[name] = (float(value), unit)

        for fn in ("qpsolver.solve_qp", "qpsolver.linear_program",
                   "qpsolver.check_feasible", "mpc.roa_membership",
                   "mpc.solve_mpc", "synthesis.solve_multiplier_step",
                   "synthesis.solve_tightening_step", "prediction.build_bundle",
                   "prediction.build_gain_matrices",
                   "prediction.candidate_inputs", "model.sample_disturbance",
                   "model.sample_delta", "utils.parallel_map"):
            put(fn + ".calls", calls[fn + ".calls"], "count")
        for fn in ("qpsolver.solve_qp", "qpsolver.check_feasible",
                   "mpc.roa_membership", "mpc.solve_mpc",
                   "synthesis.solve_multiplier_step",
                   "synthesis.solve_tightening_step", "synthesis.initial_guess",
                   "synthesis.read_certificate", "mpc.make_controller",
                   "terminal.build_terminal_set",
                   "terminal.synthesize_terminal_cost",
                   "prediction.build_bundle", "prediction.candidate_inputs",
                   "sim.run_batch", "verify.shifted_set_inclusions",
                   "verify.srf_monte_carlo", "verify.lyapunov_check"):
            put(fn + ".s", seconds[fn], "s")
        put("qpsolver.solve_qp.ipm_iters", calls["qpsolver.solve_qp.ipm_iters"],
            "count")
        put("qpsolver.solve_qp.iters_per_call",
            calls["qpsolver.solve_qp.ipm_iters"] / qp_calls if qp_calls else 0.0,
            "iters/call")
        put("qpsolver.solve_qp.optimal_per_call",
            calls["qpsolver.solve_qp.optimal"] / qp_calls if qp_calls else 0.0,
            "ratio")
        put("qpsolver.kkt_factorizations",
            calls["qpsolver.kkt_factorizations"], "count")
        put("sim.run_batch.self_s", batch_self, "s")
        put("utils.workers", self.max_workers, "count")
        for layer in LAYERS:
            put(layer + ".self_s", layer_self[layer], "s")
        return out

    def dump(self):
        """Spans as plain rows, oldest first, for the trace file."""
        rows = sorted(self.spans.items(), key=lambda kv: kv[1][1])
        return [{"id": sid, "name": name, "start": start, "end": end,
                 "thread": thread, "parent": parent}
                for sid, (name, start, end, thread, parent) in rows]
