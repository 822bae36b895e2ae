"""Span tracer for the benchmark's traced run.

Wraps the entry points of each gromon layer from outside the program: every
module that bound a traced function by ``from ... import`` gets the wrapper,
so calls made inside the package are recorded too.  Spans nest on a stack;
a span's self time is its duration minus the time covered by its child
spans.  Recording is off unless ``enabled`` is set, so set-up and the
benchmark's own correctness checks are never traced.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# (span name, module defining the function, attribute).  Functions defined in
# gromon are replaced in every loaded gromon module that holds them.
PROGRAM_SPANS = (
    ("networks.distortion_p", "gromon.networks", "distortion_p"),
    ("networks.distortion_map", "gromon.networks", "distortion_map"),
    ("solvers.gm_exact", "gromon.solvers", "gm_exact"),
    ("solvers.enum.batch_distortion", "gromon.solvers", "_map_distortion_batch"),
    ("solvers.fw", "gromon.solvers", "gw_frank_wolfe"),
    ("solvers.oracle.lp_build", "gromon.solvers", "_linear_oracle"),
    ("solvers.ascent", "gromon.solvers", "gw_spd_vertex_ascent"),
    ("euclidean.m_iso", "gromon.euclidean", "m_iso"),
    ("euclidean.procrustes", "gromon.euclidean", "procrustes_align"),
    ("graphs.heat_kernel", "gromon.graphs", "heat_kernel_network"),
)

# scipy.optimize functions, traced per calling gromon module because the same
# routine serves different layers.  The caller is read from the stack, so the
# spans hold whether a module imports the routine eagerly or inside a function.
LIBRARY_SPANS = {
    "linprog": {"gromon.solvers": "solvers.oracle.lp"},
    "linear_sum_assignment": {"gromon.solvers": "solvers.oracle.lsa",
                              "gromon.euclidean": "euclidean.oracle.lsa"},
}


def _distortion_terms(args, kwargs) -> int:
    # n*m*n*m products at finite p; ordered pairs of support cells at p = inf
    pi = args[2] if len(args) > 2 else kwargs["pi"]
    p = float(args[3] if len(args) > 3 else kwargs["p"])
    if math.isinf(p):
        eps = args[4] if len(args) > 4 else kwargs.get("eps_supp", 1e-12)
        supp = int((pi.table > eps).sum())
        return supp * supp
    return int(pi.table.size) ** 2


def _count_distortion(tracer, args, kwargs, out) -> None:
    tracer.counters["networks.distortion_p.terms"] += _distortion_terms(args, kwargs)


def _count_enum(tracer, args, kwargs, out) -> None:
    tracer.counters["solvers.enum.maps"] += out.iterations


def _count_fw(tracer, args, kwargs, out) -> None:
    tracer.counters["solvers.fw.iterations"] += out.iterations
    tracer.counters["solvers.fw.converged"] += int(out.converged)


def _count_ascent(tracer, args, kwargs, out) -> None:
    tracer.counters["solvers.ascent.moves"] += out.iterations
    tracer.counters["solvers.ascent.restarts"] += (
        args[2] if len(args) > 2 else kwargs.get("restarts", 20))


def _count_m_iso(tracer, args, kwargs, out) -> None:
    tracer.counters["euclidean.m_iso.alternations"] += out.iterations


COUNTERS = {
    "networks.distortion_p": _count_distortion,
    "solvers.gm_exact": _count_enum,
    "solvers.fw": _count_fw,
    "solvers.ascent": _count_ascent,
    "euclidean.m_iso": _count_m_iso,
}


class Tracer:
    """Per-span call counts, busy time and self time, plus named counters."""

    def __init__(self):
        self.enabled = False
        self._stack: list[list[float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, name, fn, on_return=None):
        """Wrap ``fn`` in a span; ``name`` is a span name, or a mapping from
        the calling module's name to a span name (other callers go untraced)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = name if isinstance(name, str) else name.get(
                sys._getframe(1).f_globals.get("__name__"))
            if span is None:
                return fn(*args, **kwargs)
            children = [0.0]
            tracer._stack.append(children)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.calls[span] += 1
                tracer.busy[span] += elapsed
                tracer.self_time[span] += elapsed - children[0]
            if on_return is not None:
                on_return(tracer, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Replace every traced entry point; call after importing gromon.

        An entry point the program no longer has is skipped, and its figures
        read 0.
        """
        import scipy.optimize

        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "gromon" or name.startswith("gromon."))]

        def replace(original, wrapper) -> None:
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

        for name, module_name, attr in PROGRAM_SPANS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is not None:
                replace(original, self.wrap(name, original, COUNTERS.get(name)))
        for attr, spans in LIBRARY_SPANS.items():
            original = getattr(scipy.optimize, attr)
            wrapper = self.wrap(spans, original)
            setattr(scipy.optimize, attr, wrapper)
            replace(original, wrapper)
        monge = sys.modules["gromon.networks"].MongeMap
        if "__post_init__" in vars(monge):
            monge.__post_init__ = self.wrap("networks.MongeMap", monge.__post_init__)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer figures over ``ops`` traced operations."""
        def per_op(x: float) -> float:
            return x / ops

        out: dict[str, float] = {}
        for name in ("networks.distortion_p", "networks.distortion_map",
                     "solvers.oracle.lp", "solvers.oracle.lsa",
                     "euclidean.oracle.lsa", "euclidean.procrustes",
                     "graphs.heat_kernel"):
            out[f"{name}.calls"] = per_op(self.calls[name])
            out[f"{name}.s"] = per_op(self.busy[name])
        out["networks.distortion_p.terms"] = per_op(self.counters["networks.distortion_p.terms"])
        out["networks.MongeMap.count"] = per_op(self.calls["networks.MongeMap"])
        out["networks.MongeMap.s"] = per_op(self.busy["networks.MongeMap"])
        out["solvers.gm_exact.s"] = per_op(self.busy["solvers.gm_exact"])
        maps = self.counters["solvers.enum.maps"]
        out["solvers.enum.maps"] = per_op(maps)
        enum_s = self.busy["solvers.gm_exact"]
        out["solvers.enum.maps_per_s"] = maps / enum_s if enum_s > 0 else 0.0
        out["solvers.enum.batch_distortion.s"] = per_op(self.busy["solvers.enum.batch_distortion"])
        for name in ("solvers.fw", "solvers.ascent", "euclidean.m_iso"):
            out[f"{name}.s"] = per_op(self.busy[name])
            out[f"{name}.self_s"] = per_op(self.self_time[name])
        out["solvers.fw.iterations"] = per_op(self.counters["solvers.fw.iterations"])
        fw_calls = self.calls["solvers.fw"]
        out["solvers.fw.converged_frac"] = (
            self.counters["solvers.fw.converged"] / fw_calls if fw_calls else 0.0)
        out["solvers.oracle.lp_build.self_s"] = per_op(self.self_time["solvers.oracle.lp_build"])
        out["solvers.ascent.moves"] = per_op(self.counters["solvers.ascent.moves"])
        out["solvers.ascent.restarts"] = per_op(self.counters["solvers.ascent.restarts"])
        out["euclidean.m_iso.alternations"] = per_op(self.counters["euclidean.m_iso.alternations"])
        return out
