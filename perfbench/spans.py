"""Spans around the public functions of each qdeform module, for the traced pass.

``Recorder.installed()`` replaces every public function of the layer modules
with a wrapper that records one span (function, start, end, parent span,
thread) and rebinds the name in every qdeform module that imported it, so
``solvers.gauss_2f1`` is traced as well as ``special.gauss_2f1``.  The
wrappers are removed on exit.  Spans stay in memory, in one buffer per
thread, until ``layer_metrics`` reads them.

A span's self time is its duration minus the time its children cover.
Children on the same thread nest and are summed; the first span a worker
thread opens (``cli.cmd_morse_limit`` fans out to a thread pool) is a child
of the span open on the installing thread when it starts, and such children
are merged as intervals before they are subtracted, because they overlap.
"""

import contextlib
import importlib
import inspect
import sys
import threading
from time import perf_counter

import numpy as np

LAYERS = ("special", "effective", "solvers", "oracle", "wavefunctions", "deformed", "cli")


def _size_of_last(args, kwargs, result):
    return int(np.size(args[-1])) if args else 1


def _size_of_first(args, kwargs, result):
    return int(np.size(args[0] if args else next(iter(kwargs.values()))))


def _grid_points(args, kwargs, result):
    grid = args[3] if len(args) > 3 else kwargs["grid"]
    return grid.n_points


def _levels(args, kwargs, result):
    return len(result) if isinstance(result, list) else 1


# Work counted per call; which calls are summed is up to layer_metrics.
COUNTERS = {
    "special": _size_of_last,  # the argument z (or x) of every kernel
    "solvers": _levels,
    "deformed.potential_value": _size_of_first,  # the radii r (or x)
    "deformed.morse_value": _size_of_first,
    "deformed.sinh_q": _size_of_first,
    "deformed.cosh_q": _size_of_first,
    "deformed.tanh_q": _size_of_first,
    "oracle.build_grid": lambda args, kwargs, result: result.n_points,
    "oracle.integrate_radial": _grid_points,
    "oracle.shoot_eigenvalues": _levels,
    "wavefunctions.analytic_upper": _size_of_first,
}


class _Buffer:
    def __init__(self):
        self.fid, self.start, self.end, self.parent, self.count = [], [], [], [], []
        self.stack = []
        self.foreign = {}  # root span -> span of the installing thread it serves
        self.f_evals = 0


class Recorder:
    def __init__(self):
        self.names = []
        self._buffers = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home = None

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def reset(self):
        """Drop the spans recorded so far, keep the wrappers."""
        with self._lock:
            self._home = self._local.buf = _Buffer()
            self._buffers = [self._home]

    def _wrap(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        layer = name.split(".")[0]
        counter = COUNTERS.get(name) or COUNTERS.get(layer)
        rec = self

        def wrapper(*args, **kwargs):
            buf = rec._buffer()
            stack = buf.stack
            i = len(buf.fid)
            if stack:
                buf.parent.append(stack[-1])
            else:
                buf.parent.append(-1)
                if buf is not rec._home and rec._home.stack:
                    buf.foreign[i] = rec._home.stack[-1]
            buf.fid.append(fid)
            buf.end.append(0.0)
            buf.count.append(0)
            stack.append(i)
            buf.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[i] = perf_counter()
                stack.pop()
            if counter is not None:
                buf.count[i] = counter(args, kwargs, result)
            return result

        return wrapper

    def _count_f_evals(self, fn):
        rec = self

        def wrapper(*args, **kwargs):
            rec._buffer().f_evals += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions of every layer module for the duration."""
        modules = {layer: importlib.import_module("qdeform." + layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self._wrap(fn, layer + "." + name)
        # Every scalar evaluation of a quantization function passes through
        # solvers._safe_eval: counted, without a span, as solvers.f_evals.
        safe_eval = getattr(modules["solvers"], "_safe_eval", None)
        if safe_eval is not None:
            wrappers[safe_eval] = self._count_f_evals(safe_eval)
        saved = []
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "qdeform"]:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    saved.append((mod, name, value))
                    setattr(mod, name, wrappers[value])
        self._home = self._buffer()
        try:
            yield self
        finally:
            for mod, name, value in saved:
                setattr(mod, name, value)

    def spans(self):
        """All spans as arrays: fid, start, end, parent, thread, count, and
        self time; parent indexes the same arrays, -1 for none."""
        with self._lock:
            buffers = list(self._buffers)
        cols = {k: [] for k in ("fid", "start", "end", "parent", "thread", "count")}
        offsets, offset = {}, 0
        for t, buf in enumerate(buffers):
            offsets[id(buf)] = offset
            parent = np.asarray(buf.parent, dtype=np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            for key in ("fid", "start", "end", "count"):
                cols[key].append(np.asarray(getattr(buf, key)))
            cols["thread"].append(np.full(len(parent), t))
            offset += len(parent)
        out = {k: np.concatenate(v) for k, v in cols.items()}
        home = offsets[id(self._home)]
        for buf in buffers:
            for i, p in buf.foreign.items():
                out["parent"][offsets[id(buf)] + i] = home + p
        dur = out["end"] - out["start"]
        covered = np.zeros(len(dur))
        same = (out["parent"] >= 0) & (out["thread"] == out["thread"][np.maximum(out["parent"], 0)])
        np.add.at(covered, out["parent"][same], dur[same])
        cross = np.nonzero((out["parent"] >= 0) & ~same)[0]
        for p in np.unique(out["parent"][cross]):
            kids = cross[out["parent"][cross] == p]
            covered[p] += _union_length(out["start"][kids], out["end"][kids])
        out["self"] = dur - covered
        return out

    def f_evals(self):
        with self._lock:
            return sum(buf.f_evals for buf in self._buffers)


def _union_length(starts, ends):
    order = np.argsort(starts)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in zip(starts[order], ends[order]):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    return total + (cur_e - cur_s if cur_e is not None else 0.0)


def layer_metrics(rec, cli_rows):
    """The per-layer metrics of one pass, named as in BENCHMARK.json."""
    s = rec.spans()
    names = np.array(rec.names)
    fid = s["fid"]
    layer = np.array([n.split(".")[0] for n in names])[fid]
    parent_layer = np.where(s["parent"] >= 0, layer[np.maximum(s["parent"], 0)], "")
    entry = layer != parent_layer  # calls into a layer from outside it
    name = names[fid]

    def self_s(lay):
        return float(s["self"][layer == lay].sum())

    def total(mask, key="count"):
        return float(s[key][mask].sum())

    def ratio(num, den):
        return num / den if den else 0.0

    special_evals = total(entry & (layer == "special"))
    levels = total(entry & (layer == "solvers"))
    f_evals = rec.f_evals()
    sweeps_mask = name == "oracle.integrate_radial"
    sweeps = int(sweeps_mask.sum())
    sweep_s = float((s["end"] - s["start"])[sweeps_mask].sum())
    sweep_points = total(sweeps_mask)
    oracle_levels = total(name == "oracle.shoot_eigenvalues")
    samples = name == "wavefunctions.analytic_upper"
    return {
        "special.calls": (int((entry & (layer == "special")).sum()), "count"),
        "special.evals": (int(special_evals), "count"),
        "special.self_s": (self_s("special"), "s"),
        "special.us_per_eval": (1e6 * ratio(self_s("special"), special_evals), "us/eval"),
        "effective.calls": (int((entry & (layer == "effective")).sum()), "count"),
        "effective.self_s": (self_s("effective"), "s"),
        "solvers.calls": (int((entry & (layer == "solvers")).sum()), "count"),
        "solvers.levels": (int(levels), "count"),
        "solvers.f_evals": (f_evals, "count"),
        "solvers.f_evals_per_level": (ratio(f_evals, levels), "evals/level"),
        "solvers.self_s": (self_s("solvers"), "s"),
        "oracle.grid_points": (int(total(name == "oracle.build_grid")), "count"),
        "oracle.ns_per_point": (1e9 * ratio(sweep_s, sweep_points), "ns/point"),
        "oracle.sweeps": (sweeps, "count"),
        "oracle.sweeps_per_level": (ratio(sweeps, oracle_levels), "sweeps/level"),
        "oracle.ms_per_sweep": (1e3 * ratio(sweep_s, sweeps), "ms/sweep"),
        "oracle.self_s": (self_s("oracle"), "s"),
        "wavefunctions.points": (int(total(samples)), "count"),
        "wavefunctions.resamples": (int(samples.sum()), "count"),
        "wavefunctions.self_s": (self_s("wavefunctions"), "s"),
        "deformed.points": (int(total(entry & (layer == "deformed"))), "count"),
        "deformed.self_s": (self_s("deformed"), "s"),
        "cli.rows": (cli_rows, "count"),
        "cli.self_s": (self_s("cli"), "s"),
    }
