"""Spans and counters recorded around the package's public functions.

`Tracer.install` replaces every binding of every public function of the layer
modules, in every `cavmem` module that holds one (`optimize.simulate_batch`
is the same function as `memory.simulate_batch`), with a wrapper that records
a span: name, start, end and parent.  Two private entry points get counting
hooks: the RK4 integrator, for steps and batch widths, and the GA's batch
evaluator, for evaluations.  `Tracer.remove` puts the originals back, so
untraced rounds never run through a wrapper.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("atomic", "cavity", "vapour", "memory", "fitting", "optimize", "cli")
SCAN_FUNCTIONS = ("simulate_storage_retrieval", "lifetime_scan", "energy_scan",
                  "bandwidth_scan")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple] = []
        self._solved: set = set()      # (manifold, field) solved this round
        self._ga_seen: set | None = None

    # ------------------------------------------------------------ recording

    def count(self, name, n=1):
        self.counts[name] += n

    def _wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                if before is not None:
                    args, kwargs = before(args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _hook(self, fn, after):
        """Counting wrapper without a span, for private entry points."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result
        return wrapper

    # --------------------------------------------------------------- hooks

    def _model_span(self, args, kwargs):
        model = args[0]

        def counted(x, theta):
            self.count("fitting.model_evals")
            return model(x, theta)
        return (self._wrap("fitting.model", counted),) + tuple(args[1:]), kwargs

    def _after_least_squares(self, args, kwargs, result):
        self.count("fitting.iterations", result.iterations)

    def _before_diagonalize(self, args, kwargs):
        manifold = args[0] if args else kwargs["manifold"]
        b = args[1] if len(args) > 1 else kwargs["b_mt"]
        key = (manifold, float(b))
        if key in self._solved:
            self.count("atomic.diagonalize_manifold.repeats")
        self._solved.add(key)
        return args, kwargs

    def _before_run_ga(self, args, kwargs):
        self._ga_seen = set()
        return args, kwargs

    def _after_run_ga(self, args, kwargs, result):
        self._ga_seen = None
        self.count("optimize.faults", len(result.faults))

    def _after_evaluate(self, args, kwargs, result):
        vectors = args[0]
        self.count("optimize.evals", len(vectors))
        if self._ga_seen is not None:
            self.count("optimize.ga_evals", len(vectors))
            for v in vectors:
                key = np.asarray(v, dtype=float).tobytes()
                if key not in self._ga_seen:
                    self.count("optimize.ga_new_evals")
                    self._ga_seen.add(key)

    def _after_integrate(self, args, kwargs, result):
        par, t0, t1, dt = args[:4]
        steps = int(math.ceil((t1 - t0) / dt))
        width = len(par["kappa"])
        self.count("memory.rk4_steps", steps)
        self.count("memory.lane_steps", steps * width)
        if not (np.any(par["omega_w"]) or np.any(par["omega_r"])):
            self.count("memory.reference_lane_steps", steps * width)

    # ------------------------------------------------------ install/remove

    def install(self):
        """Wrap every binding of the layers' public functions.  Repeat
        counting restarts here, since each round starts with empty caches."""
        self._solved = set()
        special = {
            "fitting.least_squares": (self._model_span, self._after_least_squares),
            "atomic.diagonalize_manifold": (self._before_diagonalize, None),
            "optimize.run_ga": (self._before_run_ga, self._after_run_ga),
        }
        replace_by_id = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cavmem.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                before, after = special.get(f"{layer}.{name}", (None, None))
                replace_by_id[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj,
                                                          before, after))
        for layer, name, after in (("memory", "_integrate_batch", self._after_integrate),
                                   ("optimize", "_evaluate_batch", self._after_evaluate)):
            obj = getattr(importlib.import_module(f"cavmem.{layer}"), name, None)
            if obj is None:
                print(f"tracing: cavmem.{layer}.{name} not found; its counters "
                      "read 0", file=sys.stderr)
                continue
            replace_by_id[id(obj)] = (obj, self._hook(obj, after))
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                hit = replace_by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def remove(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        wrapped = [f"{m.__name__}.{a}" for m in _package_modules()
                   for a, v in vars(m).items()
                   if inspect.isfunction(v) and v.__code__.co_filename == __file__]
        if wrapped:
            raise RuntimeError(f"tracing wrappers left installed: {wrapped}")

    # -------------------------------------------------------------- output

    def self_times(self, clock):
        """Total self time and call count per span name, read on `clock`."""
        if not self.spans:
            return Counter(), Counter()
        ends = clock.at([[sp[1], sp[2]] for sp in self.spans])
        dur = ends[:, 1] - ends[:, 0]
        child = np.zeros(len(self.spans))
        for k, sp in enumerate(self.spans):
            if sp[3] >= 0:
                child[sp[3]] += dur[k]
        selfs, calls = Counter(), Counter()
        for k, sp in enumerate(self.spans):
            selfs[sp[0]] += float(dur[k] - child[k])
            calls[sp[0]] += 1
        return selfs, calls

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)

    def layer_metrics(self, rounds, clock):
        """Per-round means of the per-layer metrics over `rounds` traced rounds."""
        selfs, calls = self.self_times(clock)
        c = self.counts

        def per_round(v):
            return v / rounds

        def ratio(a, b):
            return a / b if b else 0.0

        def group_self(prefix):
            return sum(v for k, v in selfs.items() if k.startswith(prefix))

        sb_self = selfs["memory.simulate_batch"]
        cli_self = group_self("cli.")
        return {
            "memory.simulate_batch.calls": (per_round(calls["memory.simulate_batch"]), "count"),
            "memory.simulate_batch.self_s": (per_round(sb_self), "s"),
            "memory.rk4_steps": (per_round(c["memory.rk4_steps"]), "count"),
            "memory.lane_steps": (per_round(c["memory.lane_steps"]), "count"),
            "memory.step_us": (1e6 * ratio(sb_self, c["memory.rk4_steps"]), "us"),
            "memory.batch_width": (ratio(c["memory.lane_steps"], c["memory.rk4_steps"]), "lanes"),
            "memory.reference_share": (ratio(c["memory.reference_lane_steps"],
                                             c["memory.lane_steps"]), "ratio"),
            "memory.scans.self_s": (per_round(sum(selfs[f"memory.{f}"]
                                                  for f in SCAN_FUNCTIONS)), "s"),
            "optimize.run_ga.self_s": (per_round(selfs["optimize.run_ga"]), "s"),
            "optimize.grid_search.self_s": (per_round(selfs["optimize.grid_search"]), "s"),
            "optimize.evals": (per_round(c["optimize.evals"]), "count"),
            "optimize.new_eval_ratio": (ratio(c["optimize.ga_new_evals"],
                                              c["optimize.ga_evals"]), "ratio"),
            "optimize.faults": (per_round(c["optimize.faults"]), "count"),
            "cavity.buildup_factor.calls": (per_round(calls["cavity.buildup_factor"]), "count"),
            "cavity.self_s": (per_round(group_self("cavity.")), "s"),
            "atomic.diagonalize_manifold.calls": (
                per_round(calls["atomic.diagonalize_manifold"]), "count"),
            "atomic.diagonalize_manifold.self_s": (
                per_round(selfs["atomic.diagonalize_manifold"]), "s"),
            "atomic.diagonalize_manifold.repeat_ratio": (
                ratio(c["atomic.diagonalize_manifold.repeats"],
                      calls["atomic.diagonalize_manifold"]), "ratio"),
            "atomic.transition_lines.calls": (per_round(calls["atomic.transition_lines"]), "count"),
            "atomic.transition_lines.self_s": (per_round(selfs["atomic.transition_lines"]), "s"),
            "atomic.breit_rabi_curve.self_s": (per_round(selfs["atomic.breit_rabi_curve"]), "s"),
            "atomic.two_photon_lines.self_s": (per_round(selfs["atomic.two_photon_lines"]), "s"),
            "vapour.one_photon_spectrum.calls": (
                per_round(calls["vapour.one_photon_spectrum"]), "count"),
            "vapour.one_photon_spectrum.self_s": (
                per_round(selfs["vapour.one_photon_spectrum"]), "s"),
            "vapour.two_photon_spectrum.self_s": (
                per_round(selfs["vapour.two_photon_spectrum"]), "s"),
            "fitting.least_squares.calls": (per_round(calls["fitting.least_squares"]), "count"),
            "fitting.least_squares.self_s": (per_round(selfs["fitting.least_squares"]), "s"),
            "fitting.iterations": (per_round(c["fitting.iterations"]), "count"),
            "fitting.model_evals": (per_round(c["fitting.model_evals"]), "count"),
            "cli.main.calls": (per_round(calls["cli.main"]), "count"),
            "cli.main.self_s": (per_round(cli_self), "s"),
            "cli.rows_written": (per_round(c["cli.rows_written"]), "count"),
            "cli.us_per_row": (1e6 * ratio(cli_self, c["cli.rows_written"]), "us"),
        }


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "cavmem" or n.startswith("cavmem."))]
