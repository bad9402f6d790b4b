"""Per-layer spans and counts from wrappers around library attributes.

A patch point names a module and an attribute path. While the tracer is
installed, the attribute is replaced by a wrapper in its own module and
in every ``radon_hgf`` module that imported it by name, so calls from
inside the library are seen too. A point that a refactor removed is
recorded as absent instead of failing the run.

Spans nest: a span's self time is its duration minus the time of the
spans it encloses, and time spent in spans opened while no other span is
open is the part of an op that the trace attributes to a layer. Spans are
aggregated in memory per name; the wrappers assume the library runs on
one thread, its default.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name)
SPANS = (
    ("radon_hgf.integrate", "radon_hgf", "integrate.radon_hgf"),
    ("radon_hgf.integrate", "integrate_pieces", "integrate.integrate_pieces"),
    ("radon_hgf.integrate", "integrate_invariant", "integrate.integrate_invariant"),
    ("radon_hgf.integrate", "integrate_haar_mc", "integrate.integrate_haar_mc"),
    ("radon_hgf.hgs", "verify_system", "hgs.verify_system"),
    ("radon_hgf.hgs", "apply_DIJ", "hgs.apply_DIJ"),
    ("radon_hgf.grassmann", "z_lambda_member", "grassmann.z_lambda_member"),
    ("radon_hgf.normal_form", "reduce3", "normal_form.reduce3"),
    ("radon_hgf.normal_form", "reduce4", "normal_form.reduce4"),
    ("radon_hgf.normal_form", "reduce_ones", "normal_form.reduce_ones"),
    ("radon_hgf.quadrature", "jacobi_01", "quadrature.jacobi_01"),
    ("radon_hgf.quadrature", "genlaguerre", "quadrature.genlaguerre"),
    ("radon_hgf.quadrature", "hermite_scaled", "quadrature.hermite_scaled"),
    ("radon_hgf.integrands", "named_integrand_batch", "integrands.named_integrand_batch"),
    ("radon_hgf.integrands", "chart_integrand_batch", "integrands.chart_integrand_batch"),
    ("radon_hgf.ncpoly", "theta_symbolic", "ncpoly.theta_symbolic"),
    ("radon_hgf._kernels", "vdm_sq_batch", "kernels.vdm_sq_batch"),
    ("radon_hgf._kernels", "tensor_vdm_sum", "kernels.tensor_vdm_sum"),
    ("radon_hgf.rng", "RandomStream.generator", "rng.RandomStream.generator"),
    # wraps the returned integrand, whose evaluations are the spans
    ("radon_hgf.integrate", "scalar_chart_function", "integrate.scalar_chart_function"),
)


class Tracer:
    """Install with ``with Tracer() as t:``; read ``stats``, ``counts``,
    ``edges`` and ``top_level_s`` afterwards."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, busy, self
        self.edges = Counter()  # (parent span, child span) -> calls
        self.counts = Counter()  # work counts read from arguments and results
        self.top_level_s = 0.0
        self.absent = []
        self._stack = []
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        for module_name, path, name in SPANS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrapper(name, original)
            self._replace(owner, attr, original, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, original, wrapper):
        owners = [owner]
        if isinstance(owner, type(sys)):
            owners += [
                mod for key, mod in list(sys.modules.items())
                if (key == "radon_hgf" or key.startswith("radon_hgf."))
                and mod is not owner and getattr(mod, attr, None) is original
            ]
        for obj in owners:
            self._undo.append((obj, attr, original))
            setattr(obj, attr, wrapper)

    def _wrapper(self, name, fn):
        if name == "integrate.scalar_chart_function":
            @functools.wraps(fn)
            def make_integrand(*args, **kwargs):
                return self._span(name, fn(*args, **kwargs))
            return make_integrand
        span = self._span(name, fn)
        if name == "integrate.integrate_pieces":
            @functools.wraps(fn)
            def pieces(*args, **kwargs):
                est = span(*args, **kwargs)
                self.counts["integrate.adaptive.panels"] += est.nodes_or_samples
                return est
            return pieces
        if name == "integrate.integrate_haar_mc":
            @functools.wraps(fn)
            def haar_mc(*args, **kwargs):
                est = span(*args, **kwargs)
                self.counts["integrate.integrate_haar_mc.samples"] += est.nodes_or_samples
                return est
            return haar_mc
        if name == "kernels.tensor_vdm_sum":
            # busy time split by r; the sum has len(wg)**r terms
            spans = {}

            @functools.wraps(fn)
            def tensor_sum(wg, lam, r):
                if r not in spans:
                    spans[r] = self._span(f"{name}.r{r}", fn)
                self.counts["kernels.tensor_vdm_sum.terms"] += len(wg) ** r
                return spans[r](wg, lam, r)
            return tensor_sum
        return span

    def _span(self, name, fn):
        stack, stats, edges = self._stack, self.stats, self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                row = stats[name]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]
                if parent is None:
                    self.top_level_s += dt
                else:
                    parent[1] += dt
                    edges[(parent[0], name)] += 1

        return span


def _resolve(module_name, path):
    """(owner, attribute, object) for a dotted path in a module, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)
