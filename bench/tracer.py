"""Outside-in tracing of ksm_stab: spans recorded around calls into each
module's public functions, installed by patching every binding of the
function from the benchmark's own code (the package is not modified).

Modules import functions by name (``from .polytope import integrate``), so
patching only the defining module would miss most calls.  ``Tracer.install``
therefore replaces the function object wherever a ksm_stab module binds it;
methods are patched on their class.  Spans live in memory and are written out
once, after the run.  Tracing assumes one thread (the benchmark pins
KSM_STAB_THREADS=1).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# span names of the field solvers, the MA verification channels and the layer
# groups used in the per-layer metrics
FIELD_SOLVERS = (
    "field_solver.solve_soliton",
    "field_solver.solve_path_1d",
    "field_solver.find_tau0",
    "field_solver.solve_general",
)
MA_VERIFY = (
    "ma_solver.alexandrov_measure",
    "ma_solver.ode_residual_1d",
    "ma_solver.build_subsolution",
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """Record a span; yields its attribute dict for counters."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, self.clock(), None, parent, {}]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec[4]
        finally:
            rec[2] = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(attrs, result)`` records counters.
        Inlined rather than built on ``span`` to keep the per-call cost low:
        the 2D strip sweep makes ~10^5 traced calls per solve."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(rec[4], out)
                return out
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_everywhere(self, modules, original, replacement) -> int:
        """Replace ``original`` in every module namespace that binds it."""
        n = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)
                    n += 1
        return n

    def patch_method(self, cls, attr, name, after=None) -> None:
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], after))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def install(self) -> None:
        """Wrap the public functions of every ksm_stab layer."""
        from ksm_stab import cli, convex, field_solver, functionals, ksm, ma_solver, polytope

        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "ksm_stab" or n.startswith("ksm_stab.")
        ]

        def everywhere(original, name, after=None):
            if self.patch_everywhere(modules, original, self.wrap(name, original, after)) == 0:
                raise RuntimeError(f"no binding of {name} found")

        self.patch_everywhere(modules, polytope.integrate, self._integrate(polytope.integrate))
        everywhere(functionals.g_integral, "functionals.g_integral")
        everywhere(functionals.g_stats, "functionals.g_stats")
        everywhere(functionals.roots_jacobi, "functionals.roots_jacobi")
        self.patch_method(functionals.Functionals, "hat_weights", "functionals.hat_weights")
        self.patch_method(functionals.Functionals, "ding", "functionals.ding")
        self.patch_method(functionals.Functionals, "ding_invariant", "functionals.ding_invariant")

        def solver_iterations(attrs, out):
            report = out[1] if isinstance(out, tuple) else out
            attrs["iterations"] = report.iterations

        for fn_name in ("solve_soliton", "solve_path_1d", "find_tau0", "solve_general"):
            everywhere(getattr(field_solver, fn_name), f"field_solver.{fn_name}", solver_iterations)

        everywhere(convex.pl_exp_integral_1d, "convex.pl_exp_integral_1d")
        everywhere(convex.dual_grid_geometry, "convex.dual_grid_geometry")
        self.patch_method(convex.ConvexDualGrid, "exp_integral", "convex.exp_integral")
        self.patch_method(convex.ConvexDualGrid, "convexify", "convex.convexify")

        def ma_iterations(attrs, out):
            attrs["iterations"] = out.iterations

        everywhere(ma_solver.minimize_ding, "ma_solver.minimize_ding", ma_iterations)
        for fn_name in ("alexandrov_measure", "ode_residual_1d", "build_subsolution"):
            everywhere(getattr(ma_solver, fn_name), f"ma_solver.{fn_name}")
        everywhere(cli.run, "cli.run")
        everywhere(ksm.h_stats, "ksm.h_stats")

    def _integrate(self, original):
        """polytope.integrate with integrand points counted: ``evals`` over all
        refinement levels, ``useful`` in the accepted (last) level."""

        @functools.wraps(original)
        def integrate(dual, f, *args, **kwargs):
            batches: list[int] = []

            def counted(zs):
                batches.append(len(zs))
                return f(zs)

            with self.span("polytope.integrate") as attrs:
                attrs["evals"], attrs["useful"] = 0, 0
                try:
                    out = original(dual, counted, *args, **kwargs)
                finally:
                    attrs["evals"] = sum(batches)
                attrs["useful"] = batches[-1] if batches else 0
                return out

        return integrate

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the part of it covered by its child spans."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for a, b in sorted(children.get(i, ())):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            out.append((end - start) - covered)
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics of the benchmark, from the recorded spans."""
        selfs = self.self_times()
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, *_), s in zip(self.spans, selfs):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + s

        def total(names, key):
            return sum(sp[4].get(key, 0) for sp in self.spans if sp[0] in names)

        def ratio(a, b):
            return a / b if b else 0.0

        # moment integrals the field solvers request themselves, and 1D
        # exp-integrals made anywhere under a Ding minimization
        futaki = sum(
            1
            for name, _, _, parent, _ in self.spans
            if name in ("functionals.g_integral", "polytope.integrate")
            and parent >= 0
            and self.spans[parent][0] in FIELD_SOLVERS
        )
        inside = []
        for name, _, _, parent, _ in self.spans:
            inside.append(name == "ma_solver.minimize_ding" or (parent >= 0 and inside[parent]))
        pl_in_ma = sum(
            1
            for sp, flag in zip(self.spans, inside)
            if flag and sp[0] == "convex.pl_exp_integral_1d"
        )
        fs_iter = total(FIELD_SOLVERS, "iterations")
        ma_iter = total(("ma_solver.minimize_ding",), "iterations")
        evals = total(("polytope.integrate",), "evals")
        c = lambda n: calls.get(n, 0)
        s = lambda *names: sum(self_s.get(n, 0.0) for n in names)
        return {
            "polytope.integrate.calls": c("polytope.integrate"),
            "polytope.integrate.self_s": s("polytope.integrate"),
            "polytope.integrate.evals": evals,
            "polytope.integrate.useful_frac": ratio(total(("polytope.integrate",), "useful"), evals),
            "functionals.g_integral.calls": c("functionals.g_integral"),
            "functionals.g_integral.self_s": s("functionals.g_integral"),
            "functionals.jacobi_rules": c("functionals.roots_jacobi"),
            "functionals.jacobi_rules.self_s": s("functionals.roots_jacobi"),
            "functionals.g_stats.self_s": s("functionals.g_stats"),
            "functionals.hat_weights.calls": c("functionals.hat_weights"),
            "functionals.hat_weights.self_s": s("functionals.hat_weights"),
            "functionals.ding.calls": c("functionals.ding"),
            "functionals.ding.self_s": s("functionals.ding"),
            "functionals.ding_invariant.self_s": s("functionals.ding_invariant"),
            "field_solver.self_s": s(*FIELD_SOLVERS),
            "field_solver.iterations": fs_iter,
            "field_solver.futaki_evals_per_iter": ratio(futaki, fs_iter),
            "convex.pl_exp_integral_1d.calls": c("convex.pl_exp_integral_1d"),
            "convex.pl_exp_integral_1d.self_s": s("convex.pl_exp_integral_1d"),
            "convex.exp_integral.calls": c("convex.exp_integral"),
            "convex.exp_integral.self_s": s("convex.exp_integral"),
            "convex.convexify.calls": c("convex.convexify"),
            "convex.convexify.self_s": s("convex.convexify"),
            "convex.dual_grid_geometry.self_s": s("convex.dual_grid_geometry"),
            "ma_solver.minimize_ding.self_s": s("ma_solver.minimize_ding"),
            "ma_solver.iterations": ma_iter,
            "ma_solver.pl_calls_per_iter": ratio(pl_in_ma, ma_iter),
            "ma_solver.verify.self_s": s(*MA_VERIFY),
            "cli.run.self_s": s("cli.run"),
            "ksm.h_stats.self_s": s("ksm.h_stats"),
        }

    def dump(self, path) -> None:
        """Write the spans as JSON: a name table and [name, start, end, parent]
        rows (times in seconds from the first span)."""
        names = sorted({sp[0] for sp in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[n], round(a - t0, 9), round(b - t0, 9), p]
            for n, a, b, p, _ in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"names": names, "spans": rows}, f, separators=(",", ":"))
