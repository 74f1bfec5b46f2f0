"""Span tracing of spinpair's public functions, installed from outside.

`Tracer.install` replaces each traced function on every spinpair module
that holds it under its own name, which is where callers look it up:
`spinpair.evolution.full_generator` as well as `spinpair.channels.full_generator`,
and `spinpair.cli.propagate` as well as `spinpair.evolution.propagate`.
Nothing under `src/` is edited.  `uninstall` puts the originals back.

Each wrapper counts calls and errors and adds up self time: the span's
duration minus the time covered by the traced spans it caused.  Totals are
kept in memory; `per_op` turns them into per-op figures.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# The public functions traced, one layer per module.
TRACED = (
    "spinops.pulse",
    "spinops.free_evolution",
    "states.prepare_target",
    "states.validate_density_matrix",
    "channels.full_generator",
    "evolution.propagate",
    "evolution.matrix_exp",
    "tomography.simulate_readout",
    "tomography.reconstruct",
    "tomography.fidelity",
    "estimation.synthetic_curve",
    "estimation.fit_exponential",
    "estimation.fit_noise_model",
    "estimation.load_curve",
    "estimation.save_curve",
    "plotting.render_decay_plot",
    "cli.main",
)


class Tracer:
    def __init__(self, traced: tuple[str, ...] = TRACED):
        self.traced = traced
        # name -> [calls, self seconds, errors]
        self.totals = {name: [0, 0.0, 0] for name in traced}
        self.fit_iterations = 0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "spinpair" or name.startswith("spinpair."))]
        for qualified in self.traced:
            module_name, attr = qualified.split(".")
            original = getattr(importlib.import_module(f"spinpair.{module_name}"), attr)
            wrapper = self._wrap(qualified, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        totals = self.totals[name]
        stack = self._stack
        clock = time.perf_counter
        count_iterations = name == "estimation.fit_noise_model"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                totals[2] += 1
                raise
            finally:
                elapsed = clock() - start
                totals[0] += 1
                totals[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if count_iterations:
                self.fit_iterations += result.iterations
            return result

        return traced

    def per_op(self, ops: int) -> dict[str, tuple[float, str]]:
        """`F.calls`, `F.self_ms` and `F.errors` per traced op, and derived ratios."""
        out: dict[str, tuple[float, str]] = {}
        base = max(ops, 1)
        for name, (calls, self_s, errors) in self.totals.items():
            out[f"{name}.calls"] = (calls / base, "calls/op")
            out[f"{name}.self_ms"] = (1e3 * self_s / base, "ms/op")
            out[f"{name}.errors"] = (errors / base, "errors/op")
        propagates = self.totals["evolution.propagate"][0]
        exps = self.totals["evolution.matrix_exp"][0]
        out["evolution.matrix_exp_per_propagate"] = (exps / propagates if propagates else 0.0, "ratio")
        fits = self.totals["estimation.fit_noise_model"][0]
        out["estimation.fit_noise_model.iterations"] = (
            self.fit_iterations / fits if fits else 0.0, "iterations")
        return out
