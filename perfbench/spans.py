"""Spans around calls into the mblaser modules, recorded from outside the package.

`instrument` replaces public functions of the package's modules with wrappers
for the duration of a ``with`` block, in every mblaser namespace that holds
them, so calls the package makes internally are traced too.  Each span is
``[name, start, end, parent index, op id]``; self time is a span's duration
minus the time its child spans cover.  Solver counts are taken where
`mblaser.dynamics` calls scipy's `solve_ivp`.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from scipy.integrate import DOP853, RK23, RK45, solve_ivp

#: (module, attribute, span name).  A target the package no longer has is
#: skipped, and its metrics then read 0.
TARGETS = [
    ("model", "lift_state", "model.lift"),
    ("ensemble", "sample_ensemble", "ensemble.sample"),
    ("ensemble", "Ensemble.with_pump_amplitude", "ensemble.with_pump"),
    ("dynamics", "integrate", "dynamics.integrate"),
    ("spectrum", "assemble_blocks", "spectrum.assemble_blocks"),
    ("spectrum", "reduced_matrix", "spectrum.reduced_matrix"),
    ("spectrum", "eigvec_back_substitute", "spectrum.back_substitute"),
    ("spectrum", "char_polynomial_centered", "spectrum.char_poly"),
    ("spectrum", "poly_roots", "spectrum.poly_roots"),
    ("spectrum", "_polynomial_spectrum", "spectrum.polynomial"),
    ("spectrum", "resonance_verdict", "spectrum.verdict"),
    ("spectrum", "threshold_scan", "spectrum.threshold_scan"),
]

#: explicit Runge-Kutta methods of scipy: each step attempt costs n_stages
#: right-hand-side calls, after 2 calls spent on the initial step size
_RK_STAGES = {"RK23": RK23.n_stages, "RK45": RK45.n_stages,
              "DOP853": DOP853.n_stages}


class Tracer:
    """In-memory spans and per-op counters; `op` is the id of the running op."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.op = None
        self.missing = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def count(self, key, value):
        self.counts[self.op][key] += value

    def self_times(self):
        """{(op, span name): [calls, self seconds]} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, op) in enumerate(self.spans):
            acc = out[(op, name)]
            acc[0] += 1
            acc[1] += end - start - child[i]
        return out

    def traced_solve_ivp(self):
        """`solve_ivp` with a span per right-hand-side call and solver counts."""
        wrap = self.wrap

        def solve(fun, t_span, y0, method="RK45", t_eval=None, **kwargs):
            sol = solve_ivp(wrap("dynamics.rhs", fun), t_span, y0, method=method,
                            t_eval=t_eval, **kwargs)
            self.count("dynamics.solves", 1)
            self.count("dynamics.nfev", sol.nfev)
            # state read plus derivative written, from the array sizes
            self.count("dynamics.rhs_bytes_computed", 2 * sol.nfev * 8 * len(y0))
            stages = _RK_STAGES.get(method) if isinstance(method, str) else None
            if t_eval is None and stages:
                self.count("dynamics.steps", len(sol.t) - 1)
                self.count("dynamics.step_attempts", (sol.nfev - 2) / stages)
            return sol

        return solve


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mblaser" or name.startswith("mblaser."))]


@contextmanager
def instrument(tracer: Tracer):
    """Trace the mblaser modules while the block runs, then restore them."""
    import mblaser
    from mblaser import kernels

    patches = []

    def replace(original, replacement):
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def resolve(module, dotted):
        owner = getattr(mblaser, module)
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr

    try:
        for module, dotted, span in TARGETS:
            try:
                owner, attr = resolve(module, dotted)
                original = getattr(owner, attr)
            except AttributeError:
                tracer.missing.append(f"{module}.{dotted}")
                continue
            wrapped = tracer.wrap(span, original)
            if inspect.isclass(owner):
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                replace(original, wrapped)
        for name, fn in vars(kernels).items():
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == kernels.__name__):
                replace(fn, tracer.wrap("kernels", fn))

        make_map = mblaser.poincare.make_numeric_map

        @functools.wraps(make_map)
        def traced_make_map(*args, **kwargs):
            return tracer.wrap("poincare.numeric_map", make_map(*args, **kwargs))

        replace(make_map, traced_make_map)
        if mblaser.dynamics.__dict__.get("solve_ivp") is solve_ivp:
            patches.append((mblaser.dynamics, "solve_ivp", solve_ivp))
            mblaser.dynamics.solve_ivp = tracer.traced_solve_ivp()
        else:
            tracer.missing.append("dynamics.solve_ivp")
        yield tracer
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)
