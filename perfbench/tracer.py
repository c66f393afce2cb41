"""Layer tracing from outside the package.

`Tracer.install` replaces the public functions and methods that the
per-layer metrics name with timing wrappers, in every namespace of the
`lutzlab` package that binds them (a name imported with `from .x import f`
is a second binding that patching `x.f` alone would miss, and those calls
would go uncounted without any error).  `uninstall` puts the originals
back, so untraced rounds in the same process run the unmodified code.

Spans nest: each wrapper pushes a frame, and a span's self time is its
duration minus the durations of the spans it directly caused.  Profile
evaluations are the hottest calls (tens of thousands per CLI command), so
they are aggregated leaf spans: they count and time the call and charge it
to the parent's child time, but keep no record of their own.  Every other
span is kept in memory and written out by `write_spans` when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute path, metric prefix, reported statistics) of every
# traced span; a metric is named <prefix>.<statistic>.
SPAN_TARGETS = (
    ("profile", "build_mollified_path", "profile.build_mollified_path",
     ("calls", "total_s")),
    ("profile", "check_contact_condition", "profile.check_contact_condition",
     ("calls", "total_s")),
    ("profile", "TwistedPathFamily.pair", "profile.TwistedPathFamily.pair",
     ("calls", "total_s")),
    ("profile", "ProfilePair.winding_number", "profile.winding_number",
     ("calls", "total_s")),
    ("reeb", "resonance_scan", "reeb.resonance_scan",
     ("calls", "total_s", "self_s")),
    ("reeb", "perturb", "reeb.perturb", ("total_s",)),
    ("reeb", "CoreOrbitInfo.compute", "reeb.CoreOrbitInfo.compute",
     ("total_s",)),
    ("reeb", "action_minima", "reeb.action_minima", ("calls",)),
    ("reeb", "l_invariant", "reeb.l_invariant", ("calls", "total_s")),
    ("family", "FamilyModel.__init__", "family.FamilyModel.init", ()),
    ("family", "FamilyModel.embed_point", "family.FamilyModel.embed_point",
     ("calls", "total_s", "self_s")),
    ("family", "tube_volume", "family.tube_volume", ("calls", "total_s")),
    ("family", "compensator_solve", "family.compensator_solve",
     ("calls", "total_s")),
    ("distance", "gray_integral", "distance.gray_integral",
     ("calls", "total_s", "self_s")),
    ("distance", "lower_bound", "distance.lower_bound", ("calls", "total_s")),
    ("distance", "bilipschitz_sweep", "distance.bilipschitz_sweep",
     ("self_s",)),
    ("persistence", "barcode", "persistence.barcode", ("calls", "self_s")),
    ("persistence", "unit_vanishing_level",
     "persistence.unit_vanishing_level", ("calls", "self_s")),
    ("persistence", "d_squared_check", "persistence.d_squared_check",
     ("calls", "total_s")),
    ("persistence", "FilteredDGA.basis", "persistence.FilteredDGA.basis",
     ("calls", "total_s")),
    ("cli", "main", "cli.main", ("calls",)),
)

# Counters kept outside the spans.
COUNTERS = ("profile.scalar_evals", "profile.vector_points",
            "profile.eval_scalar_s", "profile.eval_vector_s",
            "reeb.root_polishes", "distance.integrand_evals",
            "persistence.columns")

# Callers of FilteredDGA.basis whose result is handed to the elimination.
_ELIMINATORS = ("persistence.barcode", "persistence.unit_vanishing_level")


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "depth", "hits")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.hits = 0


class _Frame:
    __slots__ = ("sid", "name", "child_s")

    def __init__(self, sid, name):
        self.sid = sid
        self.name = name
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.counters = defaultdict(float)
        self.spans = []
        self.missing = []
        self._stack = []
        self._next_sid = 0
        self._patches = []   # (owner, attribute, original value)

    # -- accounting -------------------------------------------------------

    def _charge_parent(self, dur):
        if self._stack:
            self._stack[-1].child_s += dur

    def _span(self, name, fn, args, kwargs):
        st = self.stats[name]
        parent = self._stack[-1].sid if self._stack else None
        frame = _Frame(self._next_sid, name)
        self._next_sid += 1
        self._stack.append(frame)
        st.depth += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            st.depth -= 1
            dur = t1 - t0
            st.calls += 1
            st.self_s += dur - frame.child_s
            if st.depth == 0:   # a recursive call is inside its caller's span
                st.total_s += dur
            self._charge_parent(dur)
            self.spans.append((frame.sid, parent, name, t0, t1))

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        if name == "reeb.action_minima":
            winding = self.stats["profile.winding_number"]

            def wrapper(*args, **kwargs):
                before = winding.calls
                try:
                    return tracer._span(name, fn, args, kwargs)
                finally:
                    if winding.calls == before:
                        tracer.stats[name].hits += 1
        elif name == "persistence.FilteredDGA.basis":
            def wrapper(*args, **kwargs):
                caller = tracer._stack[-1].name if tracer._stack else None
                words = tracer._span(name, fn, args, kwargs)
                if caller in _ELIMINATORS:
                    tracer.counters["persistence.columns"] += len(words)
                return words
        else:
            def wrapper(*args, **kwargs):
                return tracer._span(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _eval_wrapper(self, fn):
        counters = self.counters
        tracer = self

        def wrapper(prof, r):
            t0 = perf_counter()
            out = fn(prof, r)
            dur = perf_counter() - t0
            if np.ndim(r) == 0:
                counters["profile.scalar_evals"] += 1
                counters["profile.eval_scalar_s"] += dur
            else:
                counters["profile.vector_points"] += np.size(r)
                counters["profile.eval_vector_s"] += dur
            tracer._charge_parent(dur)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_brentq(self, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters["reeb.root_polishes"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counting_quadrature(self, fn):
        counters = self.counters

        def wrapper(f, *args, **kwargs):
            def counted(x):
                counters["distance.integrand_evals"] += 1
                return f(x)
            return fn(counted, *args, **kwargs)
        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr, wrapper_for):
        """Rebind module.attr in every lutzlab namespace that binds it."""
        orig = getattr(module, attr, None)
        if orig is None:
            return False
        wrapper = wrapper_for(orig)
        for mod in _package_modules():
            for name, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, name, wrapper)
        return True

    def _patch_method(self, cls, attr, wrapper_for):
        raw = cls.__dict__.get(attr)
        if raw is None:
            return False
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(wrapper_for(raw.__func__)))
        else:
            self._set(cls, attr, wrapper_for(raw))
        return True

    def install(self):
        mods = {name: importlib.import_module(f"lutzlab.{name}") for name in
                ("profile", "reeb", "family", "distance", "persistence",
                 "cli")}
        for modname, path, name, _ in SPAN_TARGETS:
            module = mods[modname]

            def wrapper_for(fn, name=name):
                return self._span_wrapper(name, fn)
            if "." in path:
                clsname, attr = path.split(".")
                cls = getattr(module, clsname, None)
                found = cls is not None and self._patch_method(
                    cls, attr, wrapper_for)
            else:
                found = self._patch_function(module, path, wrapper_for)
            if not found:
                self.missing.append(f"{modname}.{path}")
        for attr in ("value", "deriv", "deriv2"):
            if not self._patch_method(mods["profile"].PiecewiseProfile, attr,
                                      self._eval_wrapper):
                self.missing.append(f"profile.PiecewiseProfile.{attr}")
        # counted through these two modules' own bindings only
        for module, attr, wrapper_for in (
                (mods["reeb"], "brentq", self._counting_brentq),
                (mods["distance"], "adaptive_simpson",
                 self._counting_quadrature)):
            if attr in vars(module):
                self._set(module, attr, wrapper_for(vars(module)[attr]))
            else:
                self.missing.append(f"{module.__name__}.{attr}")

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics, each divided by the number of traced rounds."""
        def s(name):
            return self.stats[name] if name in self.stats else _Stat()

        raw = {name: self.counters.get(name, 0.0) for name in COUNTERS}
        for _, _, prefix, fields in SPAN_TARGETS:
            st = s(prefix)
            for f in fields:
                raw[f"{prefix}.{f}"] = float(getattr(st, f))
        raw["family.FamilyModel.init_s"] = s("family.FamilyModel.init").total_s
        raw["cli.self_s"] = s("cli.main").self_s
        out = {k: v / rounds for k, v in raw.items()}
        # a ratio, not a per-round amount
        minima = s("reeb.action_minima")
        out["reeb.action_minima.hit_ratio"] = (
            minima.hits / minima.calls if minima.calls else 0.0)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": t0,
                                     "end": t1}) + "\n")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lutzlab"
                                  or name.startswith("lutzlab."))]
