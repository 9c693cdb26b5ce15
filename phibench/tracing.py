"""Span tracing of phientropy's public functions, from outside the library.

:class:`Tracer` replaces, for the duration of a traced run, every
module-level name through which phientropy looks up a traced function at
call time (``bounds.entropy``, ``functionals.big_f_drop``,
``families.integrate``, ``cli.stability_scan``, ...) with a wrapper that
records one span per call: name, start, end, parent span and the number of
elements the call received.  Spans are kept in flat arrays in memory and
written out when the run ends; :meth:`Tracer.uninstall` puts the original
functions back.  No file of the library changes.

Self time of a span is its duration minus the durations of its direct
children, so the self times of all spans add up to the traced wall time.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# Traced public functions, by home module.  A span is named after the home
# module whatever module the call went through.
TRACED = {
    "cli": ("main",),
    "bounds": (
        "stability_scan",
        "check_cont1",
        "check_lb",
        "check_cont2",
        "check_improved",
        "check_lesche3",
        "check_lesche4",
        "check_fannes",
        "check_relent",
        "check_condition1_segment",
        "condition1_delta",
        "metric_d",
        "h_r",
        "e_r",
    ),
    "functionals": ("entropy", "rel_entropy", "divergence", "entropy_max"),
    "families": ("big_f_drop", "ln_phi", "omega_phi"),
    "numerics": ("sum_compensated", "integrate", "bisect_monotone"),
    "distributions": ("sample_uniform", "sample_sparse", "sample_neighbor", "tv_norm", "sym_diff"),
}

# Singularity exponents the benchmark's custom families declare; integrate
# spans are split by them ("smooth" when no singular endpoint is declared).
INTEGRATE_CLASSES = {None: "smooth", 0.0: "s0", 0.3: "s03", 0.5: "s05", 0.9: "s09"}


def _elems(home: str, name: str):
    """How many elements a call receives: pdf entries or array entries."""
    if home == "functionals":
        if name == "entropy":
            return lambda a: a[1].n
        if name == "entropy_max":
            return lambda a: 1
        return lambda a: a[1].n + a[2].n
    if home == "families":
        return lambda a: int(np.size(a[1]))
    if name == "sum_compensated":
        return lambda a: int(np.size(a[0]))
    return lambda a: 0


def _integrate_class(singular_at_a) -> str:
    key = None if singular_at_a is None else float(singular_at_a)
    return INTEGRATE_CLASSES.get(key, f"s{key}")


class Tracer:
    """Records spans of traced calls; install it, run, uninstall, summarize."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.elems = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.raised: Counter = Counter()
        self.integrand_evals = 0
        self._integrate_ids: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            if name.startswith("numerics.integrate."):
                self._integrate_ids.add(i)
        return i

    def _wrap(self, home: str, name: str, fn):
        tr = self
        elems_of = _elems(home, name)
        full = f"{home}.{name}"
        fixed = None if full == "numerics.integrate" else self._id(full)

        def wrapper(*args, **kwargs):
            if fixed is None:
                nid = tr._id("numerics.integrate." + _integrate_class(kwargs.get("singular_at_a")))
            else:
                nid = fixed
            idx = len(tr.nid)
            tr.nid.append(nid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.elems.append(elems_of(args))
            tr.end.append(0.0)
            tr.stack.append(idx)
            tr.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tr.raised[(full, type(exc).__name__)] += 1
                raise
            finally:
                tr.end[idx] = perf_counter()
                tr.stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def install(self, modules: dict) -> None:
        """Patch every module-level reference to a traced function.

        ``modules`` maps short module names (``"bounds"``, ...) to the
        imported modules; every one of them, the package included, is
        searched for names bound to a traced function.
        """
        wrappers = {}
        for home, names in TRACED.items():
            for name in names:
                fn = getattr(modules[home], name)
                wrappers[id(fn)] = self._wrap(home, name, fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def counting(self, ln):
        """Wrap a custom logarithm so evaluations made inside integrate count."""
        tr = self

        def counted(x):
            if tr.stack and tr.nid[tr.stack[-1]] in tr._integrate_ids:
                tr.integrand_evals += 1
            return ln(x)

        return counted

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, elements."""
        nid = np.frombuffer(self.nid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        elems = np.frombuffer(self.elems, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        selfs = np.bincount(nid, weights=self_time, minlength=k)
        el = np.bincount(nid, weights=elems, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "self_s": float(selfs[i]),
                "elems": int(el[i]),
            }
            for i, name in enumerate(self.names)
        }

    def mean_duration(self, name: str, elems: int | None = None) -> float | None:
        """Mean span duration of ``name`` (optionally only calls of ``elems``)."""
        i = self._ids.get(name)
        if i is None:
            return None
        nid = np.frombuffer(self.nid, dtype=np.int32)
        sel = nid == i
        if elems is not None:
            sel &= np.frombuffer(self.elems, dtype=np.int64) == elems
        if not np.any(sel):
            return None
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return float(dur[sel].mean())

    def write(self, path: Path) -> None:
        """Write all spans (name table plus one row per span) as ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.nid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            elems=np.frombuffer(self.elems, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )

