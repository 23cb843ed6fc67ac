"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps functions from the benchmark's side: every public entry
point listed in ``LAYER_FUNCTIONS`` is replaced in each ``mgdeform`` module
that holds it by name, ``DiskGrid`` methods are replaced on the class, and
``numpy.einsum`` / ``numpy.fft.fft`` / ``numpy.fft.ifft`` /
``numpy.linalg.lstsq`` are replaced on their numpy modules.  Nothing under
``src/`` changes.  Wrappers are installed only around traced operations, so
untraced operations run the unmodified code.

A span has a name, start, end, parent span and operation; its self time is its
duration minus the durations of its direct children (calls are nested and
sequential in one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# -- hooks: counters computed from a call's arguments and result --------------

def _rk4_hook(tracer, args, kwargs, out):
    metric = _arg(args, kwargs, 0, "metric")
    history = _arg(args, kwargs, 2, "history")
    substeps = _arg(args, kwargs, 5, "substeps", 1)
    # flat metrics and empty histories return before any RK4 stage
    if not metric.is_flat() and history.n_steps > 0:
        tracer.add("transport.rk4_stages", 4 * history.n_steps * substeps)


def _normal_hook(tracer, args, kwargs, out):
    tracer.maximize("transport.norm_drift_max", float(np.max(np.abs(out.norm - 1.0))))


def _cdot_hook(tracer, args, kwargs, out):
    tracer.add("cdot.sweeps", out.iterations)
    tracer.maximize("cdot.rate_max", float(out.rate))


def _bvp_hook(tracer, args, kwargs, out):
    tracer.add("vekua.inner_iterations", out.iterations)
    tracer.add("vekua.gmres_solves", 1 if out.mode == "gmres" else 0)
    tracer.maximize("vekua.boundary_residual_max", float(out.boundary_residual))
    tracer.maximize("vekua.fixed_point_residual_max", float(out.fixed_point_residual))


def _assembler_hook(tracer, args, kwargs, out):
    tracer.add("vekua.assembler_calls", 1)


def _einsum_hook(tracer, args, kwargs, out):
    # computed traffic: every array operand read once plus the output written
    moved = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    moved += out.nbytes if isinstance(out, np.ndarray) else np.asarray(out).nbytes
    tracer.add("kernels.einsum_bytes", moved)


# (home module, function, span name, hook)
LAYER_FUNCTIONS = [
    ("mgdeform.metrics", "christoffel_at", "metrics.christoffel", None),
    ("mgdeform.surface", "build_surface", "surface.build", None),
    ("mgdeform.surface", "gauss_curvature_of", "surface.oracle", None),
    ("mgdeform.transport", "transport_tensor_ode", "transport.ode", _rk4_hook),
    ("mgdeform.transport", "transport_series_terms", "transport.series", None),
    ("mgdeform.transport", "transport_normal", "transport.normal", _normal_hook),
    ("mgdeform.gdef", "assemble_coefficients", "gdef.assemble", None),
    ("mgdeform.gdef", "gdef_normal_residual", "gdef.normal_residual", None),
    ("mgdeform.cdot", "solve_cdot", "cdot.solve", _cdot_hook),
    ("mgdeform.kpres", "assemble_variation", "kpres.variation", None),
    ("mgdeform.kpres", "delta_g", "kpres.delta_g", None),
    ("mgdeform.kpres", "delta_b", "kpres.delta_b", None),
    ("mgdeform.kpres", "assemble_rates", "kpres.rates", None),
    ("mgdeform.kpres", "rhs_psi", "kpres.rhs", None),
    ("mgdeform.vekua", "bvp_solve", "vekua.bvp", _bvp_hook),
    ("mgdeform.vekua", "solve_family", "vekua.family", None),
    ("mgdeform.vekua", "t_operator", "vekua.t_operator", None),
    ("mgdeform.vekua", "holomorphic_field", "vekua.holomorphic", None),
    ("mgdeform.vekua", "load_problem", "vekua.io_read", None),
    ("mgdeform.vekua", "save_solution", "vekua.io_write", None),
    ("mgdeform.flow", "step", "flow.step", None),
]

# DiskGrid methods, replaced on the class
GRID_METHODS = [
    ("ddx1", "grid.deriv"),
    ("ddx2", "grid.deriv"),
    ("dz_bar", "grid.deriv"),
    ("dz", "grid.deriv"),
    ("line_integral_from", "grid.line_integral"),
    ("reflect", "grid.reflect"),
]

# (numpy module, function, span name, hook)
KERNELS = [
    ("numpy", "einsum", "kernels.einsum", _einsum_hook),
    ("numpy.fft", "fft", "kernels.fft", None),
    ("numpy.fft", "ifft", "kernels.fft", None),
    ("numpy.linalg", "lstsq", "kernels.lstsq", None),
]


class Tracer:
    """Records nested spans and per-operation counters while installed.

    Spans are stored column-wise in lists of atoms, so the garbage collector
    tracks five lists instead of one container per span.
    """

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.stack = []
        self.op = None
        self.counters = defaultdict(float)   # (op, key) -> sum
        self.maxima = defaultdict(float)     # key -> max over the run
        self._patches = []

    # -- recording -------------------------------------------------------------

    def add(self, key, value):
        if self.op is not None:
            self.counters[(self.op, key)] += value

    def maximize(self, key, value):
        if self.op is not None:
            self.maxima[key] = max(self.maxima[key], value)

    def _open(self, name):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.ends[sid] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, hook=None, pre=None):
        open_span, close_span = self._open, self._close
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            sid = open_span(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                close_span(sid)
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return traced

    def _count_assembler(self, args, kwargs):
        """Wrap bvp_solve's right-hand-side assembler so its calls are spans."""
        assembler = _arg(args, kwargs, 1, "psi_assembler")
        if assembler is None:
            return args, kwargs
        counted = self.wrap("flow.assembler", assembler, _assembler_hook)
        if len(args) > 1:
            return (args[0], counted) + tuple(args[2:]), kwargs
        return args, dict(kwargs, psi_assembler=counted)

    def run_op(self, op_index, fn):
        """Run ``fn`` as operation ``op_index`` with every wrapper installed."""
        self.op = op_index
        self.install()
        sid = self._open("op")
        try:
            return fn()
        finally:
            self._close(sid)
            self.uninstall()
            self.op = None

    # -- patching --------------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        from mgdeform.grid import DiskGrid

        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "mgdeform" or n.startswith("mgdeform."))]
        for home, attr, name, hook in LAYER_FUNCTIONS:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                continue
            pre = self._count_assembler if name == "vekua.bvp" else None
            wrapper = self.wrap(name, original, hook, pre)
            for module in package:
                if getattr(module, attr, None) is original:
                    self._replace(module, attr, wrapper)
        for attr, name in GRID_METHODS:
            if hasattr(DiskGrid, attr):
                self._replace(DiskGrid, attr, self.wrap(name, getattr(DiskGrid, attr)))
        for home, attr, name, hook in KERNELS:
            owner = importlib.import_module(home)
            self._replace(owner, attr, self.wrap(name, getattr(owner, attr), hook))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.names)
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for start, end, c in zip(self.starts, self.ends, child)]

    def totals(self, ops):
        """Per-name call counts and self seconds summed over ``ops``."""
        ops = set(ops)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for name, op, st in zip(self.names, self.ops, self.self_times()):
            if op in ops:
                calls[name] += 1
                self_s[name] += st
        return calls, self_s

    def counter(self, key, ops):
        return sum(self.counters.get((op, key), 0.0) for op in ops)

    def root_seconds(self, ops):
        ops = set(ops)
        return sum(end - start for start, end, parent, op
                   in zip(self.starts, self.ends, self.parents, self.ops)
                   if parent == -1 and op in ops)

    def write(self, path):
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            for i, row in enumerate(zip(self.names, self.ops, self.parents,
                                        self.starts, self.ends)):
                name, op, parent, start, end = row
                fh.write(json.dumps({"id": i, "op": op, "name": name, "parent": parent,
                                     "start": start - t0, "end": end - t0}) + "\n")
