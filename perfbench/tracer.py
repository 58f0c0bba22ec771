"""Span tracer that measures erwlab's layers from outside the package.

``Tracer.install`` replaces each public function named in ``TRACED`` by a
wrapper that records one span per call: name, start, end and parent span.
Several modules bind their neighbours' functions by from-import (limitlaw
and moments hold ``specfun.gamma_ln``, specfun holds
``rootfind.bisect_newton``, cli holds ``emit.write_csv``), so the wrapper
is written into every erwlab module namespace that holds the original,
not only into its home module.  ``uninstall`` restores the originals.

Spans are kept in memory for one job repetition; ``collect`` turns them
into per-layer figures and clears them.  A span's self time is its
duration minus the durations of its child spans, which run one after
another on the calling thread.  Busy time counts only the outermost span
of a name, so recursion (``hyp2f1`` through its Pfaff transform,
``gamma_ln`` through reflection) is not counted twice.
"""

import functools
import inspect
import os
import sys
import threading
import time

TRACED = {
    "walk": ("simulate_terminal", "evolve_distribution", "check_shape"),
    "emit": ("write_csv",),
    "cli": ("main",),
    "specfun": ("gamma_ln", "hyp2f1", "f_eval", "f_inverse", "prabhakar", "mittag_leffler"),
    "rootfind": ("bisect_newton",),
    "quadrature": ("integrate",),
    "moments": ("moment_sequence", "rho", "rho_integral", "context", "hankel_test"),
    "limitlaw": ("genfun", "residuals", "psi_mgf", "tail"),
}

# functions with a high-precision mode selected by precision_digits > 0
_HP = {"specfun.prabhakar", "specfun.mittag_leffler", "limitlaw.psi_mgf"}

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def resident_mb():
    """Current resident set size of this process (Linux /proc)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, outermost, extras]
        self._local = threading.local()
        self._active = {}
        self._saved = []

    # -- patching -------------------------------------------------------
    def install(self):
        originals = {}
        for mod, names in TRACED.items():
            module = sys.modules[f"erwlab.{mod}"]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (fn, self._wrap(f"{mod}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "erwlab" and not modname.startswith("erwlab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in self._saved:
            setattr(module, attr, value)
        self._saved = []

    def _wrap(self, qual, fn):
        spans = self.spans
        active = self._active
        active[qual] = 0
        local = self._local
        sig = inspect.signature(fn)
        probe = _PROBES.get(qual)
        hp = qual in _HP
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            extras = {}
            bound = sig.bind(*args, **kwargs).arguments if (probe or hp) else None
            if hp:
                extras["hp"] = bound.get("precision_digits", 0) > 0
            span = [qual, 0.0, 0.0, stack[-1] if stack else -1, active[qual] == 0, extras]
            stack.append(len(spans))
            spans.append(span)
            active[qual] += 1
            state = probe[0](bound) if probe else None
            span[1] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf()
                if probe:
                    probe[1](bound, state, extras)
                active[qual] -= 1
                stack.pop()

        return traced

    # -- aggregation ----------------------------------------------------
    def collect(self):
        """Per-name figures of the spans recorded since the last call."""
        spans = self.spans
        stats = {}
        child = [0.0] * len(spans)
        in_inverse = [False] * len(spans)
        for i, (name, t0, t1, parent, outer, extras) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                in_inverse[i] = in_inverse[parent] or spans[parent][0] == "specfun.f_inverse"
        for i, (name, t0, t1, parent, outer, extras) in enumerate(spans):
            s = stats.setdefault(name, _blank())
            dur = t1 - t0
            s["calls"] += 1
            s["self_s"] += dur - child[i]
            if outer:
                s["busy_s"] += dur
                if extras.get("hp"):
                    s["hp_busy_s"] += dur
            for key, value in extras.items():
                if key == "rss_growth_mb":
                    s[key] = max(s[key], value)
                elif key != "hp":
                    s[key] += value
            if name == "specfun.f_eval" and in_inverse[i]:
                s["in_inverse"] += 1
        spans.clear()
        return stats


def _blank():
    return dict.fromkeys(
        ("calls", "self_s", "busy_s", "hp_busy_s", "steps", "traj", "cpu_s",
         "cells", "rss_growth_mb", "bytes", "in_inverse"),
        0,
    )


def _sim_start(args):
    return time.process_time()


def _sim_end(args, cpu0, extras):
    extras["cpu_s"] = time.process_time() - cpu0
    extras["steps"] = args["n"] * args["count"]
    extras["traj"] = args["count"]


def _evolve_start(args):
    return resident_mb()


def _evolve_end(args, rss0, extras):
    n = args["n_max"]
    extras["cells"] = n * (n + 1) // 2
    extras["rss_growth_mb"] = resident_mb() - rss0


def _csv_end(args, state, extras):
    path = args["path"]
    extras["bytes"] = 0 if path in (None, "-") else os.path.getsize(path)


# (before(bound arguments) -> state, after(bound arguments, state, extras))
_PROBES = {
    "walk.simulate_terminal": (_sim_start, _sim_end),
    "walk.evolve_distribution": (_evolve_start, _evolve_end),
    "emit.write_csv": (lambda args: None, _csv_end),
}


# stat -> (numerator, denominator, scale) of a ratio of summed figures
_RATIOS = {
    "ns_per_step": ("busy_s", "steps", 1e9),
    "us_per_traj": ("busy_s", "traj", 1e6),
    "cpu_per_wall": ("cpu_s", "busy_s", 1.0),
    "ns_per_cell": ("busy_s", "cells", 1e9),
    "us_per_row": ("busy_s", "calls", 1e6),
    "us_per_call": ("busy_s", "calls", 1e6),
}


def layer_value(stats, metric):
    """Value of a per-layer metric ``<module>.<function>.<stat>``.

    ``busy_s`` of a function with a high-precision mode counts only its
    double-precision calls; ``hp_busy_s`` holds the rest.  A ratio over
    a function that was not called reads 0.
    """
    if metric == "specfun.f_eval_per_inverse":
        calls = stats.get("specfun.f_inverse", _blank())["calls"]
        inside = stats.get("specfun.f_eval", _blank())["in_inverse"]
        return inside / calls if calls else 0.0
    name, stat = metric.rsplit(".", 1)
    s = stats.get(name, _blank())
    if stat in _RATIOS:
        num, den, scale = _RATIOS[stat]
        return s[num] * scale / s[den] if s[den] else 0.0
    if stat == "busy_s" and name in _HP:
        return s["busy_s"] - s["hp_busy_s"]
    return s[stat]
