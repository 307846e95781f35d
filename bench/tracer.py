"""In-memory spans around the calls into bellvol's layers.

Nothing inside the package is edited.  ``instrument`` replaces each public
function at the module attribute its caller looks it up through (for example
``volumes.region_mask``, which the Monte Carlo loop reads from the
``volumes`` module globals) with a wrapper that opens and closes a span, and
puts the originals back on exit.  Spans live in flat arrays (name id, parent
index, start, end), so a traced run of ~10^6 spans stays small; they are
written to disk once, by ``Tracer.save``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

QUAD_LEVELS = ("outer", "mid", "inner")

# scalar oracle -> short name used in the per-layer metrics
ORACLES = {
    "in_local": "local",
    "in_quantum_arcsin": "arcsin",
    "in_quantum_landau": "landau",
    "in_quantum_sextic": "sextic",
    "in_uffink_U": "uffink",
    "in_tsirelson_T": "tsirelson",
    "in_box_L": "box",
}


class Tracer:
    """Span recorder: ``open`` returns an index that ``close`` finishes.

    A span's parent is the innermost span open when it starts.  ``counts``
    holds work counters kept at the same boundaries (rows scored, samples
    drawn, integrand calls).
    """

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        # context read by nested wrappers
        self.mc_engine: str | None = None
        self.quad_region: str | None = None
        self.quad_depth = 0

    def open(self, name: str) -> int:
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        idx = len(self.names)
        self.names.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Total and self seconds, and call counts, per span name.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        names = np.frombuffer(self.names, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = (np.frombuffer(self.ends, dtype=np.int64)
               - np.frombuffer(self.starts, dtype=np.int64)) * 1e-9
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        k = len(self.name_ids)
        total = np.bincount(names, weights=dur, minlength=k)
        self_ = np.bincount(names, weights=dur - child, minlength=k)
        calls = np.bincount(names, minlength=k)
        by_id = {i: n for n, i in self.name_ids.items()}
        return ({by_id[i]: float(total[i]) for i in range(k)},
                {by_id[i]: float(self_[i]) for i in range(k)},
                Counter({by_id[i]: int(calls[i]) for i in range(k)}))

    def save(self, path) -> None:
        order = sorted(self.name_ids, key=self.name_ids.get)
        np.savez(path, names=np.array(order),
                 name_ids=np.frombuffer(self.names, dtype=np.int32),
                 parents=np.frombuffer(self.parents, dtype=np.int32),
                 start_ns=np.frombuffer(self.starts, dtype=np.int64),
                 end_ns=np.frombuffer(self.ends, dtype=np.int64))


def _spanned(tracer: Tracer, fn, label):
    """Wrap ``fn`` in a span named ``label(*args, **kwargs)``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(label(*args, **kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def _polytope_tag(p) -> str:
    """Which of the package's polytopes ``p`` is, by dimension and size."""
    if p.dim == 8 and p.halfspaces is not None and len(p.halfspaces) == 16:
        return "ns"
    if p.dim == 8 and p.vertices is not None and len(p.vertices) == 16:
        return "local"
    if p.dim == 4 and p.vertices is not None and len(p.vertices) == 8:
        return "corrC"
    if p.dim == 4 and (p.vertices is not None and len(p.vertices) == 16
                       or p.halfspaces is not None and len(p.halfspaces) == 8):
        return "cube4"
    return "other"


class _IntegrateProxy:
    """Stands in for ``scipy.integrate`` inside ``bellvol.volumes`` only."""

    def __init__(self, real, quad):
        self._real = real
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._real, name)


def _mc_engine(tracer: Tracer, fn, engine: str, label):
    """Span plus sample counting for a Monte Carlo entry point."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cfg = signature.bind(*args, **kwargs).arguments["cfg"]
        outer, tracer.mc_engine = tracer.mc_engine, engine
        tracer.counts[f"mc.samples.{engine}"] += cfg.sample_count
        idx = tracer.open(label(*args, **kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.mc_engine = outer
    return wrapper


def _region_mask(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(region, pts, *args, **kwargs):
        tracer.counts[f"mc.rows.{tracer.mc_engine}"] += len(pts)
        tracer.counts[f"mask.rows.{region.value}"] += len(pts)
        idx = tracer.open(f"regions.mask.{region.value}")
        try:
            return fn(region, pts, *args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def _quadrature_volume(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(region, *args, **kwargs):
        tracer.quad_region = region.value
        idx = tracer.open(f"volumes.quadrature_volume.{region.value}")
        try:
            return fn(region, *args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.quad_region = None
    return wrapper


def _quad(tracer: Tracer, fn):
    """``scipy.integrate.quad`` named by nesting depth on the span stack;
    the innermost level also counts its integrand calls."""
    @functools.wraps(fn)
    def wrapper(func, *args, **kwargs):
        level = QUAD_LEVELS[min(tracer.quad_depth, 2)]
        region = tracer.quad_region
        if level == "inner":
            key = f"quad.integrand.{region}"
            counts = tracer.counts
            inner_func = func

            def func(*a):
                counts[key] += 1
                return inner_func(*a)
        tracer.quad_depth += 1
        idx = tracer.open(f"quad.{level}.{region}")
        try:
            return fn(func, *args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.quad_depth -= 1
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch the layer entry points for the duration of the block."""
    from bellvol import cli, polytopes, quantum, regions, volumes

    patches = [
        (volumes, "headline_report", _mc_engine(
            tracer, volumes.headline_report, "ratios",
            lambda *a, **k: "volumes.headline_report")),
        (volumes, "mc_volume", _mc_engine(
            tracer, volumes.mc_volume, "volume",
            lambda region, *a, **k: f"volumes.mc_volume.{region.value}")),
        (volumes, "region_mask", _region_mask(tracer, volumes.region_mask)),
        (volumes, "quadrature_volume",
         _quadrature_volume(tracer, volumes.quadrature_volume)),
        (volumes, "integrate", _IntegrateProxy(
            volumes.integrate, _quad(tracer, volumes.integrate.quad))),
        (volumes, "exact_region_volume", _spanned(
            tracer, volumes.exact_region_volume,
            lambda region: f"volumes.exact_region_volume.{region.value}")),
        (quantum, "sample_quantum_points", _spanned(
            tracer, quantum.sample_quantum_points,
            lambda *a, **k: "quantum.sample")),
    ]
    for fname in ("enumerate_vertices", "enumerate_facets", "exact_volume"):
        patches.append((polytopes, fname, _spanned(
            tracer, getattr(polytopes, fname),
            lambda p, _f=fname: f"polytopes.{_f}.{_polytope_tag(p)}")))
    for mod in (cli, regions):  # the CLI and the harness's own calls
        patches.append((mod, "membership_profile", _spanned(
            tracer, mod.membership_profile,
            lambda *a, **k: "regions.profile")))
    for fname, short in ORACLES.items():
        patches.append((regions, fname, _spanned(
            tracer, getattr(regions, fname),
            lambda *a, _s=short, **k: f"regions.oracle.{_s}")))

    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, new in patches:
            setattr(mod, name, new)
        yield tracer
    finally:
        for mod, name, old in saved:
            setattr(mod, name, old)
