"""Span tracer for the traced benchmark run.

Public functions of the invarsim modules are wrapped from the outside: the
wrapper replaces the function object in every invarsim module namespace that
holds it, so calls made through ``from .x import f`` bindings are seen too.
Each call records one span (name, start, end, parent span) plus the counts
that the layer's per-layer metrics need.  Spans stay in memory until
``Tracer.dump`` writes them when the run ends.

Self time of a span is its duration minus the part of it covered by its
child spans.  Spans opened in a worker thread with no open span of their
own take the innermost open span of the main thread as parent, which is the
sweep that submitted them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
import weakref


class Tracer:
    """In-memory span store with per-layer counters."""

    def __init__(self):
        self.names = []  # span name per name id
        self._name_ids = {}
        # one tuple per span: (name id, start, end, parent span index or -1)
        self.spans = []
        self.counts = {}
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, key, value):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def current(self):
        """Name of the innermost open span of this thread, or None."""
        stack = self._stack()
        if not stack:
            return None
        return self.names[self.spans[stack[-1]][0]]

    def open(self, nid):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((nid, time.perf_counter(), None, parent))
        stack.append(index)
        return index

    def close(self, index):
        self._stack().pop()
        nid, start, _, parent = self.spans[index]
        self.spans[index] = (nid, start, time.perf_counter(), parent)

    # -- aggregation -----------------------------------------------------

    def self_times(self):
        """Total self time per span name, seconds."""
        children = {}
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0 and end is not None:
                children.setdefault(parent, []).append((start, end))
        totals = {}
        for i, (nid, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            covered = _union_length(children.get(i, ()), start, end)
            name = self.names[nid]
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def dump(self, path):
        """Write the spans, one JSON object per line."""
        with open(path, "w") as f:
            for i, (nid, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": self.names[nid],
                                    "start": start, "end": end,
                                    "parent": parent}) + "\n")


def _union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a = max(a, cursor)
        b = min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def _root_buffer(arr):
    """The array that owns the memory an array view reads."""
    while getattr(arr, "base", None) is not None and hasattr(arr.base, "base"):
        arr = arr.base
    return arr


def _wrap(tracer, name, fn, before=None, after=None, on_error=None,
          nested_ok=True):
    """Span-recording wrapper around ``fn``.

    ``before(args, kwargs)`` and ``after(args, kwargs, result)`` run outside
    the span; ``on_error(exc)`` sees exceptions the call raises, which are
    re-raised unchanged.  With ``nested_ok``
    false, a call made inside a span of the same name (recursion) records
    its span but not its counts.
    """
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counted = nested_ok or tracer.current() != name
        if counted:
            tracer.add(name + ".calls", 1)
            if before:
                before(args, kwargs)
        index = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(index)
            if on_error and counted:
                on_error(exc)
            raise
        tracer.close(index)
        if counted and after:
            after(args, kwargs, result)
        return result

    wrapper.__wrapped_by_perfbench__ = fn
    return wrapper


def _replace_everywhere(original, replacement):
    """Swap ``original`` for ``replacement`` in every loaded invarsim module."""
    for mod_name, mod in list(sys.modules.items()):
        if not (mod_name == "invarsim" or mod_name.startswith("invarsim.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def instrument(tracer):
    """Wrap the public functions whose per-layer metrics the benchmark reports."""
    import numpy as np

    from invarsim import characterize, cli, geometry, imgio, medium, patches
    from invarsim import render, scenegen, validators
    from invarsim.errors import PatchSamplingError

    add = tracer.add

    def plain(module, fname, name=None, **hooks):
        fn = getattr(module, fname)
        _replace_everywhere(fn, _wrap(tracer, name or f"{module.__name__[9:]}.{fname}",
                                      fn, **hooks))

    # geometry: rays and ray x primitive pairs at the outermost trace call
    def trace_before(args, kwargs):
        soup, O = args[0], args[1]
        add("geometry.trace.rays", len(O))
        add("geometry.trace.pairs", len(O) * soup.n_primitives)

    plain(geometry, "trace", before=trace_before, nested_ok=False)
    plain(geometry, "occluded",
          before=lambda a, k: add("geometry.occluded.rays", len(a[1])))
    soup_build = geometry.PrimitiveSoup.from_scene.__func__
    geometry.PrimitiveSoup.from_scene = classmethod(
        _wrap(tracer, "geometry.soup_build", soup_build))

    # render: pixel samples, and distinct object states rendered within one
    # CLI command (the count restarts at each command)
    geometries = set()
    command = [0]

    def frame_before(args, kwargs):
        scene, cfg = args[0], args[1]
        add("render.render_frame.pixel_samples",
            cfg.width * cfg.height * cfg.samples_per_pixel)
        key = repr([(o.object_id, o.primitives) for o in scene.objects])
        with tracer._lock:
            geometries.add((command[0], key))

    plain(render, "render_frame", before=frame_before)
    plain(render, "render_ground_truth")
    plain(render, "compute_flow")
    plain(render, "apply_sensor")
    plain(medium, "observed_radiance")

    plain(patches, "classify_contexts")

    def sample_error(exc):
        if isinstance(exc, PatchSamplingError):
            add("patches.sample_patches.gaps", 1)

    plain(patches, "sample_patches", on_error=sample_error)

    # validators: converted pixels against the pixels of distinct frames
    frames = {}

    def gray_before(args, kwargs):
        arr = np.asarray(args[0])
        add("validators.to_gray.pixels", arr.shape[0] * arr.shape[1]
            if arr.ndim >= 2 else arr.size)
        root = _root_buffer(arr)
        key = id(root)
        with tracer._lock:
            if key in frames:
                return
            try:
                frames[key] = weakref.ref(root, lambda _r, k=key: frames.pop(k, None))
            except TypeError:
                frames[key] = None
        shape = getattr(root, "shape", ())
        add("validators.to_gray.frame_pixels",
            shape[0] * shape[1] if len(shape) >= 2 else getattr(root, "size", 0))

    plain(validators, "to_gray", before=gray_before)
    for fname in ("average_ranks", "oc_measure", "bc_variance", "gc_variance",
                  "ps_variance", "ds_angular_error"):
        plain(validators, fname)

    plain(characterize, "run_sweep")
    plain(characterize, "ingest_sequence")
    plain(characterize, "heatmap_svg")

    cache_load = characterize.CellCache.load
    cache_store = characterize.CellCache.store

    def load_after(args, kwargs, result):
        add("characterize.cache.hits" if result is not None
            else "characterize.cache.misses", 1)

    characterize.CellCache.load = _wrap(tracer, "characterize.cache.load",
                                        cache_load, after=load_after)
    characterize.CellCache.store = _wrap(tracer, "characterize.cache.store",
                                         cache_store)

    # imgio: every reader and writer is one layer; bytes are file sizes
    def read_before(args, kwargs):
        add("imgio.read.bytes", os.path.getsize(args[0]))

    def write_after(args, kwargs, result):
        add("imgio.write.bytes", os.path.getsize(args[0]))

    for fname in ("read_pfm", "read_ppm", "read_flo"):
        fn = getattr(imgio, fname)
        _replace_everywhere(fn, _wrap(tracer, "imgio.read", fn, before=read_before))
    for fname in ("write_pfm", "write_ppm", "write_flo"):
        fn = getattr(imgio, fname)
        _replace_everywhere(fn, _wrap(tracer, "imgio.write", fn, after=write_after))

    plain(scenegen, "sample_scene")
    plain(scenegen, "apply_dynamics")

    def cli_before(args, kwargs):
        command[0] += 1

    plain(cli, "main", name="cli", before=cli_before)

    return geometries


def per_layer_metrics(tracer, geometries, rounds):
    """Per-layer metrics per round, named ``<module>.<function>.<quantity>``."""
    st = tracer.self_times()
    c = tracer.counts

    def per_round(v):
        return v / rounds

    def count(key):
        return per_round(c.get(key, 0))

    def self_s(name):
        return per_round(st.get(name, 0.0))

    trace_self = st.get("geometry.trace", 0.0)
    frame_calls = c.get("render.render_frame.calls", 0)
    frame_pixels = c.get("validators.to_gray.frame_pixels", 0)
    out = {
        "geometry.trace.calls": (count("geometry.trace.calls"), "count"),
        "geometry.trace.rays": (count("geometry.trace.rays"), "count"),
        "geometry.trace.pairs": (count("geometry.trace.pairs"), "count"),
        "geometry.trace.self_s": (self_s("geometry.trace"), "s"),
        "geometry.trace.mrays_per_s": (
            c.get("geometry.trace.rays", 0) / trace_self / 1e6 if trace_self else 0.0,
            "Mray/s"),
        "geometry.occluded.rays": (count("geometry.occluded.rays"), "count"),
        "geometry.occluded.self_s": (self_s("geometry.occluded"), "s"),
        "geometry.soup_build.calls": (count("geometry.soup_build.calls"), "count"),
        "geometry.soup_build.self_s": (self_s("geometry.soup_build"), "s"),
        "render.render_frame.calls": (per_round(frame_calls), "count"),
        "render.render_frame.pixel_samples": (
            count("render.render_frame.pixel_samples"), "count"),
        "render.render_frame.self_s": (self_s("render.render_frame"), "s"),
        "render.render_frame.calls_per_geometry": (
            frame_calls / len(geometries) if geometries else 0.0, "ratio"),
        "render.render_ground_truth.calls": (
            count("render.render_ground_truth.calls"), "count"),
        "render.render_ground_truth.self_s": (self_s("render.render_ground_truth"), "s"),
        "render.compute_flow.calls": (count("render.compute_flow.calls"), "count"),
        "render.compute_flow.self_s": (self_s("render.compute_flow"), "s"),
        "render.apply_sensor.self_s": (self_s("render.apply_sensor"), "s"),
        "medium.observed_radiance.calls": (
            count("medium.observed_radiance.calls"), "count"),
        "medium.observed_radiance.self_s": (self_s("medium.observed_radiance"), "s"),
        "patches.classify_contexts.calls": (
            count("patches.classify_contexts.calls"), "count"),
        "patches.classify_contexts.self_s": (self_s("patches.classify_contexts"), "s"),
        "patches.sample_patches.calls": (count("patches.sample_patches.calls"), "count"),
        "patches.sample_patches.self_s": (self_s("patches.sample_patches"), "s"),
        "patches.sample_patches.gaps": (count("patches.sample_patches.gaps"), "count"),
        "validators.average_ranks.calls": (
            count("validators.average_ranks.calls"), "count"),
        "validators.average_ranks.self_s": (self_s("validators.average_ranks"), "s"),
        "validators.oc_measure.self_s": (self_s("validators.oc_measure"), "s"),
        "validators.bc_variance.calls": (count("validators.bc_variance.calls"), "count"),
        "validators.bc_variance.self_s": (self_s("validators.bc_variance"), "s"),
        "validators.gc_variance.calls": (count("validators.gc_variance.calls"), "count"),
        "validators.gc_variance.self_s": (self_s("validators.gc_variance"), "s"),
        "validators.to_gray.calls": (count("validators.to_gray.calls"), "count"),
        "validators.to_gray.pixels_per_frame": (
            c.get("validators.to_gray.pixels", 0) / frame_pixels if frame_pixels else 0.0,
            "ratio"),
        "validators.ps_variance.self_s": (self_s("validators.ps_variance"), "s"),
        "validators.ds_angular_error.self_s": (self_s("validators.ds_angular_error"), "s"),
        "characterize.run_sweep.calls": (count("characterize.run_sweep.calls"), "count"),
        "characterize.run_sweep.self_s": (self_s("characterize.run_sweep"), "s"),
        "characterize.cache.hits": (count("characterize.cache.hits"), "count"),
        "characterize.cache.misses": (count("characterize.cache.misses"), "count"),
        "characterize.cache.load_s": (self_s("characterize.cache.load"), "s"),
        "characterize.cache.store_s": (self_s("characterize.cache.store"), "s"),
        "characterize.ingest_sequence.self_s": (self_s("characterize.ingest_sequence"), "s"),
        "characterize.heatmap_svg.self_s": (self_s("characterize.heatmap_svg"), "s"),
        "imgio.read.bytes": (count("imgio.read.bytes"), "bytes"),
        "imgio.read.self_s": (self_s("imgio.read"), "s"),
        "imgio.write.bytes": (count("imgio.write.bytes"), "bytes"),
        "imgio.write.self_s": (self_s("imgio.write"), "s"),
        "scenegen.sample_scene.calls": (count("scenegen.sample_scene.calls"), "count"),
        "scenegen.sample_scene.self_s": (self_s("scenegen.sample_scene"), "s"),
        "scenegen.apply_dynamics.calls": (count("scenegen.apply_dynamics.calls"), "count"),
        "scenegen.apply_dynamics.self_s": (self_s("scenegen.apply_dynamics"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
    }
    return out


def calibrate_span_cost(samples=20000):
    """Extra seconds one traced call costs over a bare call."""
    tracer = Tracer()

    def bare(x):
        return x

    wrapped = _wrap(tracer, "calibration", bare)
    best_bare = best_wrapped = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(samples):
            bare(i)
        t1 = time.perf_counter()
        for i in range(samples):
            wrapped(i)
        t2 = time.perf_counter()
        best_bare = min(best_bare, t1 - t0)
        best_wrapped = min(best_wrapped, t2 - t1)
    return max(0.0, (best_wrapped - best_bare) / samples)
