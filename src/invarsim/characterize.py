"""Characterization protocols: sweeps, manifolds, marginals, rankings, ingest.

A sweep walks a grid of contextual coordinates (illumination level, weather
density, object speed, frame index) crossed with model parameters (patch
side), evaluates one criterion measure per (cell, spatial context) over
sampled patches, and assembles the results into a criterion manifold.

Determinism contract: every random choice is keyed by a stable hash of the
protocol seeds plus the cell's own coordinates, never by enumeration order,
so any cell evaluated in isolation, or in any order, equals its value inside
a full sweep.  Renders across grid cells share one render seed (common
random numbers), which makes purely photometric parameter changes produce
purely photometric image changes.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .codec import _LIST, _NUMBER, _STRING, _block, _each, _encode, _items, _Kind, _reader
from .errors import ConfigError, IngestError, LabelMismatchError, PatchSamplingError
from .patches import (
    CONTEXT_NAMES,
    Patch,
    classify_contexts,
    sample_patches,
)
from .render import (
    RenderConfig,
    SensorConfig,
    apply_sensor,
    compute_flow,
    render_ground_truth,
    render_setups,
)
from .scene import WEATHER_PRESETS, DynamicsScript
from .scenegen import SceneConfig, apply_dynamics, sample_scene, validation_scene_config
from .validators import (
    Trajectories,
    average_ranks,
    ds_angular_error,
    gradient_fields,
    oc_values,
    patch_pixels,
    ragged_groups,
    residuals,
    row_variances,
    smoothness_energy,
    spearman_rho,
    to_gray,
)

MODELS = ("OC", "BC", "GC", "PS", "DS")

#: measure direction per model: is a larger criterion value better?
HIGHER_IS_BETTER = {"OC": True, "BC": False, "GC": False, "PS": False, "DS": False}

#: the most float values (OC's gray patch pixels, BC's and GC's residuals)
#: that a block of cells gathers: the consecutive cells of a run that fit
#: share one kernel call per patch side and one statistics pass; a block
#: holds at least one cell.  A block's measure temporaries grow with it: a
#: stock OC run peaks at 0.6 MB of allocations a block of one level, 1.1 MB
#: of two (this budget) and 2.7 MB of five, which no longer fit in the
#: memory the render pass freed and raise a stock sweep's peak RSS
_BLOCK_VALUES = 1 << 15

#: the names a name-valued field accepts; Clear has no density for DS to ramp
_KNOWN_NAMES = {"contexts": CONTEXT_NAMES, "sunny_tags": tuple(WEATHER_PRESETS),
                "weather_tags": tuple(t for t in WEATHER_PRESETS if t != "Clear")}

#: the values of a theta_W axis: finite numbers, each kept an int or a float
#: as given, since the manifold CSV prints a coordinate as it was given
_AXIS_VALUES = _Kind("a list of finite numbers",
                     lambda v: isinstance(v, list) and all(map(_NUMBER.test, v)), tuple)

def _at(json_key, default, **metadata):
    """A ProtocolConfig field held at dotted ``json_key`` of the document."""
    return field(default=default, metadata={"json_key": json_key, **metadata})


def _mix(*parts) -> int:
    """Stable 63-bit seed from arbitrary parts (never Python hash())."""
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything a characterization run needs, JSON-loadable."""

    model: str
    source: str = "simulate"
    scene: dict | None = None
    illumination_levels: tuple = _at("theta_w.illumination_levels", (), kind=_AXIS_VALUES)
    weather_tags: tuple = _at("theta_w.weather_tags", ())
    density_scales: tuple = _at("theta_w.density_scales", (), kind=_AXIS_VALUES)
    speed_scales: tuple = _at("theta_w.speed_scales", (), kind=_AXIS_VALUES)
    sunny_tags: tuple = _at("theta_w.sunny_tags", ("MildHaze",))
    patch_sizes: tuple = _at("theta_v.patch_sizes", (5, 9, 13))
    contexts: tuple = ()
    patches_per_cell: int = 6
    scene_seed: int = _at("seeds.scene", 7)
    render_seed: int = _at("seeds.render", 11)
    patch_seed: int = _at("seeds.patch", 13)
    sensor_seed: int = _at("seeds.sensor", 17)
    width: int = _at("render.width", 64)
    height: int = _at("render.height", 48)
    samples_per_pixel: int = _at("render.spp", 16)
    max_bounces: int = _at("render.max_bounces", 1)
    sensor: dict | None = field(default_factory=lambda: _encode(SensorConfig()))
    ds_angle_threshold_deg: float = _at("thresholds.ds_angle_deg", 3.0)
    exclude_occluded: bool = False
    ingest_dir: str | None = _at("ingest.directory", None)
    ingest_annotation: str | None = _at("ingest.annotation", None)

    def __post_init__(self):
        where = {name: key for key, name, _, _ in _block(ProtocolConfig)}
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}", json_path=where["model"])
        if self.source not in ("simulate", "ingest"):
            raise ConfigError(f"unknown source {self.source!r}",
                              json_path=where["source"])
        if self.patches_per_cell < 1:
            raise ConfigError("patches_per_cell must be >= 1",
                              json_path=where["patches_per_cell"])
        for s in self.patch_sizes:
            if not isinstance(s, int) or s % 2 == 0 or s < 3:
                raise ConfigError(f"patch size {s!r} must be an odd integer >= 3",
                                  json_path=where["patch_sizes"])
            if self.model in ("GC",) and s < 5:
                raise ConfigError("GC needs patch sizes >= 5",
                                  json_path=where["patch_sizes"])
        for name, known in _KNOWN_NAMES.items():
            for v in getattr(self, name):
                if v not in known:
                    raise ConfigError(f"unknown name {v!r}", json_path=where[name])
        for name, path in where.items():  # a repeated value would repeat its rows
            if path.split(".")[0] in ("contexts", "theta_v", "theta_w"):
                values = getattr(self, name)
                for i, v in enumerate(values):
                    if v in values[:i]:
                        raise ConfigError(f"{v!r} is listed twice", json_path=path)
        if self.source == "simulate":
            if self.scene is None:
                raise ConfigError("simulate mode requires a scene config",
                                  json_path=where["scene"])
            if self.model in ("OC", "BC", "GC") and not self.illumination_levels:
                raise ConfigError("illumination_levels required",
                                  json_path=where["illumination_levels"])
            if self.model == "DS" and (not self.weather_tags or
                                       len(self.density_scales) < 3):
                raise ConfigError(
                    "DS needs weather_tags and >= 3 density_scales",
                    json_path="theta_w")
            if self.model == "PS" and not self.speed_scales:
                raise ConfigError("speed_scales required", json_path="theta_w")
        else:
            if not self.ingest_dir or not self.ingest_annotation:
                raise ConfigError("ingest mode requires ingest.directory and "
                                  "ingest.annotation", json_path="ingest")
            if self.exclude_occluded:
                raise ConfigError("ingested frames have no occlusion mask",
                                  json_path=where["exclude_occluded"])
        if not self.contexts and self.model != "DS":
            raise ConfigError("contexts must not be empty", json_path=where["contexts"])
        for path, build in (("render", self.render_config),
                            (where["scene"], self.scene_config)):
            try:
                build()
            except ConfigError as exc:
                raise ConfigError(str(exc), json_path=path) from exc
        self.sensor_config()  # its errors name the sensor block

    # -- JSON ------------------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "ProtocolConfig":
        """The protocol of JSON document ``doc``, sharing no dict with it; a
        ConfigError names the path of a bad value."""
        return _reader(cls, True)(copy.deepcopy(doc), None, sensor=_read_sensor)

    def to_dict(self) -> dict:
        return copy.deepcopy(_encode(self))

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def scene_config(self) -> SceneConfig | None:
        return None if self.scene is None else SceneConfig.from_dict(self.scene)

    def render_config(self) -> RenderConfig:
        return RenderConfig(width=self.width, height=self.height,
                            samples_per_pixel=self.samples_per_pixel,
                            max_bounces=self.max_bounces,
                            rng_seed=self.render_seed)

    def sensor_config(self) -> SensorConfig | None:
        """The sensor stage; None means evaluate raw radiance."""
        if self.sensor is None:
            return None
        return _reader(SensorConfig, True)(self.sensor, "sensor")


def _read_sensor(block, path):
    """A protocol's sensor block at ``path``: None, or the keys it gives,
    each checked and loaded; SensorConfig has the rest."""
    if block is None:
        return None
    sensor = _encode(_reader(SensorConfig, True)(block, path))
    return {key: sensor[key] for key in block}


_RAMP_40 = tuple(1.0 + 4.0 * i / 39.0 for i in range(40))

_OC_CONTEXTS = ("Homogeneous", "Diffuse", "Specular", "ShadowRegion",
                "ShadowBoundary", "Edge", "Corner", "Occluded")


def default_protocol(model: str) -> ProtocolConfig:
    """The stock validation protocol for each model.

    OC/BC/GC ramp the sun over 40 intensity levels on the fixed city-block
    scene; PS sweeps object speed; DS renders five density levels of each
    weather preset (ambient, except the sunny haze case) with indirect
    bounces disabled so the linear scattering model is exercised exactly.
    """
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}")
    base = {
        "model": model,
        "scene": validation_scene_config(),
        "theta_w": {"illumination_levels": list(_RAMP_40)},
        "contexts": list(_OC_CONTEXTS),
    }
    if model in ("BC", "GC", "PS"):
        base["scene"]["dynamics"] = [[0, "objects.5.velocity", [0.5, 0.0, 0.0]]]
    if model == "PS":
        base["theta_w"] = {"speed_scales": [0.5, 1.0, 1.5, 2.0]}
        base["contexts"] = ["SameSurface", "MotionBoundary"]
    elif model == "DS":
        base["theta_w"] = {
            "weather_tags": ["Fog", "Mist", "Rain", "DenseHaze", "MildHaze"],
            "density_scales": [0.2, 0.4, 0.6, 0.8, 1.0],
        }
        base["contexts"] = []
        base["render"] = {"max_bounces": 0}
    return ProtocolConfig.from_dict(base)


# -- manifold ---------------------------------------------------------------


class Manifold:
    """Dense criterion grid in columns: one row per (context, theta_w,
    theta_v) cell.

    The key columns are ``context`` and ``coords``, one per axis, theta_w
    axes first: object arrays that keep each value as given, so the CSV
    prints ``1`` and ``1.0`` as they came.  The value columns are ``mean``
    and ``std`` (float64) and ``n``.  The rows are sorted by context, then by
    each axis in order; rows that tie keep the order they came in.  Cells
    that could not be evaluated (no eligible patches, degenerate measure
    everywhere) stay in the grid with n=0 and NaN statistics; they are never
    interpolated away.
    """

    def __init__(self, model, theta_w_axes, theta_v_axes, context, coords, mean, std, n,
                 aux=None):
        self.model = model
        self.theta_w_axes = tuple(theta_w_axes)
        self.theta_v_axes = tuple(theta_v_axes)
        self.aux = dict(aux or {})
        axes = self.theta_w_axes + self.theta_v_axes
        keys = [np.array(column, dtype=object) for column in (context, *(coords[a] for a in axes))]
        order = np.lexsort(keys[::-1])  # the last key is the primary one
        self.context, *columns = (column[order] for column in keys)
        self.coords = dict(zip(axes, columns))
        self.mean = np.asarray(mean, dtype=float)[order]
        self.std = np.asarray(std, dtype=float)[order]
        self.n = np.asarray(n, dtype=int)[order]

    @property
    def missing(self):
        """The count of cells without a value."""
        return int(np.count_nonzero(self.n == 0))

    def axis_values(self, axis):
        if axis not in self.coords:
            raise ConfigError(f"unknown axis {axis!r}")
        return sorted(set(self.coords[axis]))

    def cell(self, context, **coords):
        """The row of ``context`` at ``coords``, one value per axis."""
        if set(coords) == set(self.coords):
            hit = self.context == context
            for axis, value in coords.items():
                hit &= self.coords[axis] == value
            for row in np.flatnonzero(hit):
                return int(row)
        raise KeyError((context, coords))

    # -- CSV (fixed schema, byte-deterministic) ------------------------

    def csv_header(self):
        cols = ["model", "context"]
        cols += [f"theta_w_{a}" for a in self.theta_w_axes]
        cols += [f"theta_v_{a}" for a in self.theta_v_axes]
        cols += ["mean_E", "std_E", "n"]
        return ",".join(cols)

    def to_csv(self) -> str:
        # a Python float's str is its repr, and a name prints bare
        columns = (self.context, *self.coords.values(), self.mean, self.std, self.n)
        rows = zip(*(map(str, column.tolist()) for column in columns))
        lines = [self.csv_header()] + [",".join([self.model, *row]) for row in rows]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Manifold":
        """The manifold of a CSV that ``to_csv`` wrote; a ConfigError names
        the line of a row that does not fit its header or the first row's model."""
        lines = [(number, line.strip()) for number, line in enumerate(text.split("\n"), 1)
                 if line.strip()]
        if not lines:
            raise ConfigError("empty manifold CSV")
        (_, head), *lines = lines
        header = head.split(",")
        if header[:2] != ["model", "context"] or header[-3:] != ["mean_E", "std_E", "n"]:
            raise ConfigError(f"unexpected manifold CSV header: {head!r}")
        w_axes = [c[len("theta_w_"):] for c in header if c.startswith("theta_w_")]
        v_axes = [c[len("theta_v_"):] for c in header if c.startswith("theta_v_")]
        table = []
        for number, line in lines:
            cells = line.split(",")
            try:
                if len(cells) != len(header):
                    raise ValueError(f"{len(cells)} fields, the header has {len(header)}")
                if cells[0] not in MODELS:
                    raise ValueError(f"unknown model {cells[0]!r}")
                if table and cells[0] != table[0][0]:
                    raise ValueError(f"model {cells[0]!r}, the first row's is {table[0][0]!r}")
                table.append([*cells[:2], *map(_parse_coord, cells[2:-3]),
                              float(cells[-3]), float(cells[-2]), int(cells[-1])])
            except ValueError as exc:
                raise ConfigError(f"manifold CSV line {number}: {exc}") from None
        models, context, *keys, mean, std, n = zip(*table) if table else [()] * len(header)
        coords = {c[len("theta_w_"):]: k for c, k in zip(header[2:-3], keys)}  # as theta_v_
        return cls(models[0] if models else None, w_axes, v_axes, context, coords, mean, std, n)


def _parse_coord(text):
    try:
        f = float(text)
    except ValueError:
        return text
    if f.is_integer() and ("." not in text and "e" not in text.lower()):
        return int(f)
    return f


# -- marginalization --------------------------------------------------------


def marginalize(manifold: Manifold, axis: str) -> list:
    """The marginal of mean_E along one axis, as the rows ``report.json``
    holds: one ``{"context", "coords", "value", "complete"}`` per context
    and coordinates on the other axes, sorted by both.

    The value is the plain sum over the axis's grid points, in axis order.
    A gap propagates: a row with a cell of n=0 is flagged incomplete with a
    NaN value, never silently filled.
    """
    if axis not in manifold.coords:
        raise ConfigError(f"unknown axis {axis!r}")
    others = [a for a in manifold.coords if a != axis]
    columns = (manifold.context, manifold.mean, manifold.n, *map(manifold.coords.get, others))
    groups: dict = {}
    # the manifold's rows are sorted by each axis, so each group comes in axis order
    for context, mean, n, *coords in zip(*(c.tolist() for c in columns)):
        key = (context, tuple(sorted(zip(others, coords))))
        groups.setdefault(key, []).append((mean, n))
    rows = []
    for (context, coord_items), cells in sorted(groups.items()):
        complete = all(n > 0 for _, n in cells)
        value = float(sum(mean for mean, _ in cells)) if complete else float("nan")
        rows.append({"context": context, "coords": dict(coord_items), "value": value,
                     "complete": complete})
    return rows


# -- ranking ----------------------------------------------------------------


def rank_items(items, direction: str) -> dict:
    """Average-rank the labeled values; rank 1 is best.

    ``direction`` says whether larger values are better ("higher_better",
    e.g. rank correlation) or worse ("lower_better", variances and angular
    errors).
    """
    if direction not in ("higher_better", "lower_better"):
        raise ConfigError(f"unknown ranking direction {direction!r}")
    if not items:
        raise ConfigError("rank_items needs at least one item")
    labels = [l for l, _ in items]
    values = np.array([v for _, v in items], dtype=float)
    keyed = -values if direction == "higher_better" else values
    ranks = average_ranks(keyed)
    return {label: float(rank) for label, rank in zip(labels, ranks)}


def compare_rankings(a: dict, b: dict) -> dict:
    """Rank-correlate two rankings over the same labels: the empirical
    conclusion-deviation measure between two data sources.  The labels in
    sorted order, each side's ranks in that order, their Spearman
    correlation and the rank change per label."""
    if set(a) != set(b):
        raise LabelMismatchError(set(a) - set(b), set(b) - set(a))
    labels = sorted(a)
    ra = [a[l] for l in labels]
    rb = [b[l] for l in labels]
    return {"labels": labels, "ranks_a": ra, "ranks_b": rb,
            "correlation": spearman_rho(ra, rb),
            "deltas": {l: a[l] - b[l] for l in labels}}


def rank_manifold_contexts(manifold: Manifold, by: str = "context") -> dict:
    """Pool the mean over all complete cells per label, then rank.

    The label is the cell's context, or with ``by`` naming a theta_w axis
    (say "weather"), the cell's coordinate on that axis.
    """
    if by != "context" and by not in manifold.theta_w_axes:
        raise ConfigError(f"cannot rank by {by}: the manifold's theta_w axes are "
                          f"{', '.join(manifold.theta_w_axes) or 'none'}")
    labels = manifold.context if by == "context" else manifold.coords[by]
    complete = (manifold.n > 0) & np.isfinite(manifold.mean)
    pools: dict = {}
    for label, mean in zip(labels[complete].tolist(), manifold.mean[complete].tolist()):
        pools.setdefault(label, []).append(mean)
    items = [(label, float(np.mean(v))) for label, v in sorted(pools.items())]
    if not items:
        raise ConfigError(f"manifold has no complete cells to rank by {by}")
    direction = "higher_better" if HIGHER_IS_BETTER[manifold.model] else "lower_better"
    return rank_items(items, direction)


# -- sweep engine -----------------------------------------------------------


def _sun_setups(scene, levels):
    """The setups of one render pass that gives the scene's radiance at
    every level of a sun ramp: its first directional light off, then on.

    Radiance (surface, bounce and airlight alike) is affine in that light's
    intensity, so with ``hdr0`` and ``hdr1`` the pass's images, the radiance
    at ``level`` times its intensity is ``hdr0 + level * (hdr1 - hdr0)``.  A
    scene without a directional light allows only levels of 1.
    """
    lights = scene.lights
    sun = next((i for i, l in enumerate(lights) if l.kind == "directional"), None)
    if sun is None and any(level != 1.0 for level in levels):
        raise ConfigError("protocol requires a directional light in the scene")
    dark = lights if sun is None else (
        lights[:sun] + (dataclasses.replace(lights[sun], intensity=0.0),) + lights[sun + 1:])
    return (scene.medium, dark), (scene.medium, lights)


def _ambient_only(scene):
    lights = tuple(l for l in scene.lights if l.kind == "ambient")
    if not lights:
        raise ConfigError("protocol requires an ambient light in the scene")
    return dataclasses.replace(scene, lights=lights)


def _without_dynamic_objects(scene):
    objects = tuple(o for o in scene.objects if not o.dynamic)
    return dataclasses.replace(scene, objects=objects)


def _scale_velocities(scene, factor):
    keys = tuple((t, path, tuple(c * factor for c in value) if path.endswith(".velocity")
                  else value) for t, path, value in scene.dynamics.keyframes)
    return dataclasses.replace(scene, dynamics=DynamicsScript(keys))


def _ldr_float(hdr, protocol, *tags):
    """A rendered frame as the protocol's sensor sees it, noise seeded by
    the frame's ``tags``; raw radiance when the protocol has no sensor."""
    scfg = protocol.sensor_config()
    if scfg is None:
        return hdr
    levels, maxval = apply_sensor(hdr, scfg, _mix(protocol.sensor_seed, *tags))
    return levels.astype(np.float64) / float(maxval)


def _collect_patches(protocol, gt, occlusion, flow, *seed_parts):
    """Patches per (context, side), sampled from the contexts classified at
    that side (``classify_contexts``); None marks a cell without enough
    eligible centers, which becomes a gap."""
    patches = {}
    for s in protocol.patch_sizes:
        labels = classify_contexts(gt, s, occlusion, flow)
        for context in protocol.contexts:
            try:
                patches[(context, s)] = sample_patches(
                    labels, context, s, protocol.patches_per_cell,
                    seed=_mix(protocol.patch_seed, context, s, *seed_parts),
                )
            except PatchSamplingError:
                patches[(context, s)] = None
    return patches


def _statistics(counts, values):
    """Mean, std and count of the non-NaN values of each array that
    ``values`` holds one after another, ``counts[i]`` values long, and the
    count of NaN values left out of each.

    The arrays are grouped by their count of kept values, and each group is
    stacked and reduced along its rows.  A contiguous row sums as a 1-D
    array does, so every array's mean and std have the bits of its own
    ``mean()`` and ``std()``.  An array that keeps no value has NaN
    statistics."""
    counts = np.asarray(counts, dtype=int)
    values = np.asarray(values, dtype=float)
    nan = np.isnan(values)
    skipped = np.bincount(np.repeat(np.arange(len(counts)), counts)[nan],
                          minlength=len(counts))
    n = counts - skipped
    kept = values[~nan]
    mean = np.full(len(counts), np.nan)
    std = np.full(len(counts), np.nan)
    for group, index in ragged_groups(n):
        rows = kept[index]
        mean[group] = rows.mean(axis=1)
        std[group] = rows.std(axis=1)
    return mean, std, n, skipped


def _cell_keys(protocol):
    """The (context, side) of each row of a cell, in row order: sides outer."""
    return [(context, s) for s in protocol.patch_sizes for context in protocol.contexts]


def _block_stats(protocol, block, keys, counts, values):
    """One ``((mean, std, n), skipped)`` per cell of ``block``, each
    statistic a list over the cell's rows (``_cell_keys``), from one
    statistics pass over the block.

    Every cell measured ``counts`` patches for each of ``keys`` (context,
    side, in ``_cell_keys`` order), and ``values`` holds the criterion value
    of each patch, cell after cell and key after key, NaN where the measure
    is degenerate.  NaN values are left out of the statistics and counted.
    A row of no patches is a gap: n=0 and NaN statistics.
    """
    measured = dict(zip(keys, counts))
    rows = [measured.get(key, 0) for key in _cell_keys(protocol)]
    stats = _statistics(np.tile(rows, len(block)), values)
    mean, std, n, skipped = (a.reshape(len(block), -1) for a in stats)
    return [((mean[c].tolist(), std[c].tolist(), n[c].tolist()), int(skipped[c].sum()))
            for c in range(len(block))]


def _cell_batches(protocol, patches, flow=None, occlusion=None):
    """What the measure gathers from every frame, one batch per patch side:
    the keys of the side's cells with patches, their patch counts, all
    their patches, cell after cell, and the pixels (OC, PS) or the
    trajectories under ``flow`` (BC, GC) of those patches."""
    keys_by_side = {}
    for key, ps in patches.items():
        if ps:
            keys_by_side.setdefault(key[1], []).append(key)
    occlusion = occlusion if protocol.exclude_occluded else None
    inset = 1 if protocol.model in ("GC", "PS") else 0  # central differences need neighbours
    batches = []
    for keys in keys_by_side.values():
        ps = [p for key in keys for p in patches[key]]
        gathered = (patch_pixels(ps, inset) if flow is None else
                    Trajectories(flow, ps, inset=inset, occlusion=occlusion))
        batches.append((keys, [len(patches[key]) for key in keys], ps, gathered))
    return batches


def _features(protocol, frame):
    """A frame's feature fields, ``(gray,)`` or for GC its gradients: computed
    once, and read-only, so the cells that measure with them cannot change them."""
    gray = to_gray(frame)
    features = gradient_fields(gray) if protocol.model == "GC" else (gray,)
    for array in features:
        array.flags.writeable = False
    return features


def _reference(protocol, batches, frame):
    """What the measure keeps of its first frame: the frame's features, or
    for OC each batch's ranked gray patches."""
    features = _features(protocol, frame)
    if protocol.model == "OC":
        return [average_ranks(features[0][pixels]) for *_, pixels in batches]
    return features


def _gather(protocol, batches, ref, features):
    """What the measure reduces of one cell, per batch: a list of row stacks
    and the mask of the values to keep.  OC gathers its patches' gray rows
    (no mask) and PS their smoothness energy ``features[0]`` (its finite
    values); BC and GC their residual rows between the reference features
    ``ref`` and ``features``, and the mask of the usable ones."""
    if protocol.model in ("OC", "PS"):
        rows = [features[0][pixels] for *_, pixels in batches]
        return [([r], None if protocol.model == "OC" else np.isfinite(r)) for r in rows]
    return [residuals(ref, features, traj) for *_, traj in batches]


def _block_values(protocol, batches, ref, block):
    """The criterion value of every patch of a block of cells, cell after
    cell and, within a cell, batch after batch and key after key.

    ``block`` holds each cell's ``_gather``; one kernel call measures the
    stacked rows of a batch: OC ranks them against the batch's reference
    ranks, BC, GC and PS take ``row_variances``.  The kernels work row
    by row, so each patch's value has the same bits as when measured alone.
    """
    per_batch = [np.empty((len(block), 0))]  # cells without patches measure nothing
    for k, (_, _, patches, _) in enumerate(batches):
        parts = [cell[k] for cell in block]
        rows = [np.concatenate(s) for s in zip(*(stacks for stacks, _ in parts))]
        if protocol.model == "OC":
            values = oc_values(ref[k], rows[0])
        else:
            values = row_variances(rows, np.concatenate([keep for _, keep in parts]),
                                   patches)
        per_batch.append(values.reshape(len(block), -1))
    return np.concatenate(per_batch, axis=1).reshape(-1)


def _in_blocks(protocol, coords, cell, ref):
    """``((mean, std, n), skipped)`` of each coordinate of ``coords``, in
    order, measured a block of cells at a time.

    ``cell(coord)`` makes one cell's frame and returns its batches and its
    ``_gather``, so a block keeps no frame.  A block is the consecutive
    cells whose gathered values fit in ``_BLOCK_VALUES``, and at least one.
    It is measured with the batches of its first cell (all of ``coords``
    share their patches) and, for OC, the reference ranks ``ref``: one
    kernel call per batch, then one statistics pass (``_block_stats``).
    """
    coords = iter(coords)
    for first in coords:
        batches, rows = cell(first)
        block, gathered = [first], [rows]
        size = sum(r.size for stacks, _ in rows for r in stacks)
        for coord in itertools.islice(coords, max(1, _BLOCK_VALUES // max(1, size)) - 1):
            block.append(coord)
            gathered.append(cell(coord)[1])
        yield from _block_stats(
            protocol, block,
            [key for keys, *_ in batches for key in keys],
            [n for _, counts, *_ in batches for n in counts],
            _block_values(protocol, batches, ref, gathered))


def _plan_ramp(protocol, levels):
    """OC/BC/GC: the renders of a ramp of sun ``levels`` (the ground truth
    of frame 0 and of the other state, the reference frame, and the lit
    state's ``_sun_setups``), and the build of its cell batches, reference
    and sun basis.  The reference frame and the flow serve every level."""
    rcfg = protocol.render_config()
    base = sample_scene(protocol.scene_config(), protocol.scene_seed)
    scene_t = apply_dynamics(base, 0)
    if protocol.model == "OC":
        # the reference: the static objects under ambient light only
        ref = other = _ambient_only(_without_dynamic_objects(base))
        lit, tag = scene_t, "ref"
    else:
        ref, other = scene_t, apply_dynamics(base, 1)
        lit, tag = other, "frame_t"
    requests = [(scene_t, rcfg), (other, rcfg), (ref, rcfg, ((ref.medium, ref.lights),)),
                (lit, rcfg, _sun_setups(lit, levels))]

    def build(gt_t, gt_other, ref_pass, sun_pass):
        # OC's contexts vs. the reference: occluded where the object ids differ
        flow, occl = ((None, gt_t.object_id != gt_other.object_id) if protocol.model == "OC"
                      else compute_flow(gt_t, gt_other, scene_t, other))
        batches = _cell_batches(protocol, _collect_patches(protocol, gt_t, occl, flow),
                                flow, occl)
        (hdr0, hdr1), ref_ldr = sun_pass, _ldr_float(ref_pass[0], protocol, tag)
        return batches, _reference(protocol, batches, ref_ldr), hdr0, hdr1 - hdr0
    return requests, build


def _eval_levels(protocol, state, levels):
    """The cells of a run of sun levels, each level's frame the affine
    combination of the sun basis as the sensor sees it."""
    batches, ref, hdr0, hdr_sun = state

    def cell(level):
        cur = _ldr_float(hdr0 + level * hdr_sun, protocol, "level", float(level).hex())
        return batches, _gather(protocol, batches, ref, _features(protocol, cur))
    return _in_blocks(protocol, levels, cell, ref)


def _plan_speeds(protocol, speeds):
    """PS: the ground truth of frames 0..3 with the velocities scaled by each
    of ``speeds``, built into speed -> (its states, their ground truth).
    Equal states render once: each speed's frame 0, speed 0.5's frame 2
    and speed 1's frame 1."""
    base = sample_scene(protocol.scene_config(), protocol.scene_seed)
    states = {s: [apply_dynamics(_scale_velocities(base, s), t) for t in range(4)]
              for s in speeds}
    rcfg = protocol.render_config()
    return [(state, rcfg) for s in speeds for state in states[s]], lambda *gts: {
        s: (states[s], gts[4 * i : 4 * i + 4]) for i, s in enumerate(speeds)}


def _eval_speeds(protocol, frames, speeds):
    """PS: the cells of a run of speeds, each the flow smoothness of that
    speed's frames (``_plan_speeds``).  A speed samples its patches from
    its own ground truth, so each speed is a block of its own."""
    def cell(speed):
        states, gts = frames[speed]
        (flow_prev, _), (flow, occl), (flow_next, _) = [
            compute_flow(gts[t], gts[t + 1], states[t], states[t + 1]) for t in range(3)]
        batches = _cell_batches(protocol, _collect_patches(protocol, gts[1], occl, flow, speed))
        energy = smoothness_energy(flow_prev, flow, flow_next)
        return batches, _gather(protocol, batches, None, (energy,))
    for speed in speeds:
        yield from _in_blocks(protocol, [speed], cell, None)


def _plan_weather(protocol, tags):
    """DS: one Monte Carlo pass over every (weather tag, density) setup of
    ``tags``, built into tag -> its density ramp's images.

    A tag outside ``sunny_tags`` sees the scene under its ambient light
    only: its direct sources keep their placement at intensity 0, where
    they add +0.0 and draw no random numbers, so every setup shares the
    pass's rays and each image has the bits of rendering that tag alone.
    """
    base = sample_scene(protocol.scene_config(), protocol.scene_seed)
    sunny = protocol.sunny_tags
    if any(tag not in sunny for tag in tags):
        _ambient_only(base)  # raises when there is no ambient light to see by
    off = tuple(l if l.kind == "ambient" else dataclasses.replace(l, intensity=0.0)
                for l in base.lights)
    setups = tuple((WEATHER_PRESETS[tag].scaled(density), base.lights if tag in sunny else off)
                   for tag in tags for density in protocol.density_scales)
    k = len(protocol.density_scales)
    return [(base, protocol.render_config(), setups)], lambda images: {
        tag: images[i * k : (i + 1) * k] for i, tag in enumerate(tags)}


def _eval_weather(protocol, images, tags):
    """DS: the cells of a run of tags, each the dichromatic plane fit over
    the tag's density ramp, as the sensor sees it."""
    for tag in tags:
        samples = np.stack([  # (P, k, 3)
            _ldr_float(hdr, protocol, "weather", tag, float(density).hex()).reshape(-1, 3)
            for density, hdr in zip(protocol.density_scales, images[tag])], axis=1)
        res = ds_angular_error(samples, protocol.ds_angle_threshold_deg)
        yield ([res.mean_deg], [res.std_deg], [res.n_pixels]), {
            "weather": tag, **dataclasses.asdict(res)}


@functools.cache
def source_fingerprint():
    """The sha256 of the package source: of the ``sha256sum`` listing of its
    ``*.py`` files in name order (``LC_ALL=C sha256sum *.py | sha256sum``).
    Computed once per process, at the first ``CellCache``."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n".encode())
    return digest.hexdigest()


class CellCache:
    """Per-cell result cache keyed by protocol content hash plus cell coordinate.

    Resume never trusts timestamps: a cache entry is only reused when the
    package's ``source_fingerprint()`` and the protocol content hash embedded
    in its name both match, so any edit to the package source turns every
    cached cell into a miss.  Every cell is one document: its value rows
    (``mean``, ``std`` and ``n``, each a list in the cell's row order) plus
    its ``extra`` (the count of degenerate patch values, or the DS details).
    Cells are written whole through a temporary file, and a cell that
    cannot be parsed (say, cut short by a crash from before that rule) counts
    as a miss, so it is evaluated and written again.
    """

    def __init__(self, directory, protocol):
        self.dir = Path(directory)
        key = f"{source_fingerprint()}\x1f{protocol.content_hash()}"
        self.prefix = hashlib.sha256(key.encode()).hexdigest()[:16]

    def _path(self, coord):
        tag = hashlib.sha256(repr(coord).encode()).hexdigest()[:16]
        return self.dir / f"cell_{self.prefix}_{tag}.json"

    def load(self, coord):
        try:
            doc = json.loads(self._path(coord).read_text())
            return (doc["mean"], doc["std"], doc["n"]), doc["extra"]
        except (FileNotFoundError, ValueError, KeyError, TypeError):
            return None  # missing, truncated or foreign: evaluate again

    def store(self, coord, result):
        path = self._path(coord)
        (mean, std, n), extra = result
        doc = {"mean": mean, "std": std, "n": n, "extra": extra}
        self.dir.mkdir(parents=True, exist_ok=True)  # a sweep that fails first makes none
        # readers see the old file or the whole new one, never a part
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, path)


def _render_key(request):
    """What a render reads: the scene's objects, materials, lights and camera,
    and the rest of the request; not the dynamics, nor the medium, which
    ground truth does not read and a pass takes from its setups."""
    scene, *rest = request
    return (scene.objects, tuple(scene.materials.items()), scene.lights, scene.camera, *rest)


def _execute(requests, build):
    """``build(*products)`` of the render requests, in order: the ground
    truth of ``(scene, cfg)``, the read-only images of the pass ``(scene,
    cfg, setups)``.  Equal requests (``_render_key``) render once."""
    products, keys = {}, [_render_key(request) for request in requests]
    for key, (scene, cfg, *setups) in zip(keys, requests):
        if key in products:
            continue
        if setups:
            products[key] = tuple(render_setups(scene, *setups, cfg))
            for image in products[key]:
                image.flags.writeable = False
        else:
            products[key] = render_ground_truth(scene, cfg)
    return build(*map(products.get, keys))


def _sweep_cells(coords, plan, evaluate, cache, progress):
    """Every coordinate's ``((mean, std, n), extra)``, in order, through
    the cache.

    ``plan(missing)`` gives the renders and the build of the state the
    cells that miss share (``_execute``), so resuming a finished sweep plans
    and renders nothing.  ``evaluate(state, missing)`` yields their results
    in order, on the calling thread, perhaps a block of cells at a time
    (``_in_blocks``).  Each result is stored as it comes and
    ``progress(done, missing)`` is called, so an interrupted sweep loses at
    most the block it was measuring, and a failure propagates as raised,
    with every cell yielded before it stored.  Returns the results and the
    state (None when every cell came from the cache).
    """
    coords = list(coords)
    results = [cache.load(c) if cache is not None else None for c in coords]
    missing = [i for i, r in enumerate(results) if r is None]
    if not missing:
        return results, None
    run = [coords[i] for i in missing]
    state = _execute(*plan(run))
    outs = evaluate(state, run)
    for done, (i, out) in enumerate(zip(missing, outs), 1):
        if cache is not None:
            cache.store(coords[i], out)
        results[i] = out
        if progress:
            progress(done, len(missing))
    return results, state


# -- real-sequence ingestion --------------------------------------------------


@dataclass(frozen=True)
class LabelledRect:
    """An annotated rectangle: its top-left pixel, its size and its context."""

    x: int
    y: int
    width: int
    height: int
    context: str


@dataclass(frozen=True)
class Annotation:
    """An ingest annotation: labelled rectangles, the reference frame, the
    static-camera flag, and one .flo file name per consecutive frame pair."""

    patches: tuple = ()
    reference_frame: int = 0
    zero_flow: bool = False
    flo_files: tuple | None = field(default=None, metadata={"kind": _LIST})


@dataclass
class IngestedSequence:
    """A checked sequence: P6 frame files that all share one size, checked
    from their headers, and the annotation.  ``frame`` decodes one frame's
    pixels when a cell measures it, so memory does not grow with the
    sequence's length."""

    frame_files: list
    shape: tuple  # (height, width) of every frame
    reference_index: int
    zero_flow: bool
    patches: list
    flow_files: list | None
    directory: str

    def frame(self, index):
        """Frame ``index`` as float64 (H, W, 3): each sample over maxval."""
        from .imgio import read_ppm

        samples, maxval = read_ppm(self.frame_files[index])
        return np.divide(samples, maxval, dtype=np.float64)


_FRAME_RE = re.compile(r"(\d+)")


def _sequence_layout(directory, annotation_path):
    """A sequence's sorted frame paths and its annotation: everything but
    the pixels."""
    directory = Path(directory)
    if not directory.is_dir():
        raise IngestError(f"not a directory: {directory}")
    frame_paths = sorted(
        (p for p in directory.iterdir() if p.suffix.lower() == ".ppm"),
        key=lambda p: [int(t) if t.isdigit() else t for t in _FRAME_RE.split(p.name)],
    )
    if not frame_paths:
        raise IngestError(f"no .ppm frames in {directory}")
    try:
        doc = json.loads(Path(annotation_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IngestError(f"cannot read annotation: {exc}") from exc
    annotation = _reader(Annotation, True)(doc, None, patches=_each(_reader(LabelledRect, True)),
                                           flo_files=functools.partial(_items, _STRING))
    if not 0 <= annotation.reference_frame < len(frame_paths):
        raise IngestError(f"reference_frame {annotation.reference_frame} out of range "
                          f"(have {len(frame_paths)} frames)",
                          json_path="reference_frame")
    return frame_paths, annotation


def ingest_sequence(directory, annotation_path) -> IngestedSequence:
    """Load a numbered PPM frame directory plus its patch annotation.

    The annotation JSON carries ``reference_frame``, optional ``zero_flow``
    (static-camera brightness/gradient evaluation without ground-truth
    flow), a ``patches`` list of labeled rectangles, and optionally
    ``flo_files`` naming one flow file per consecutive frame pair.
    """
    from .imgio import read_flo_header, read_ppm_header

    directory = Path(directory)
    frame_paths, annotation = _sequence_layout(directory, annotation_path)
    shapes = {read_ppm_header(p).shape for p in frame_paths}
    if len(shapes) != 1:
        raise IngestError(f"frame size mismatch: {sorted(shapes)}")

    h, w = next(iter(shapes))[:2]
    for i, rect in enumerate(annotation.patches):
        if rect.context not in CONTEXT_NAMES:
            raise IngestError(f"unknown context {rect.context!r}",
                              json_path=f"patches[{i}].context")
        x, y, pw, ph = rect.x, rect.y, rect.width, rect.height
        if x < 0 or y < 0 or x + pw > w or y + ph > h or pw < 3 or ph < 3:
            raise IngestError(
                f"rectangle ({x},{y},{pw}x{ph}) outside {w}x{h} frame",
                json_path=f"patches[{i}]")
    if not annotation.patches:
        raise IngestError("annotation lists no patches", json_path="patches")
    flo_files = annotation.flo_files
    if flo_files is not None:
        if len(flo_files) != len(frame_paths) - 1:
            raise IngestError("need one .flo per consecutive frame pair",
                              json_path="flo_files")
        flo_files = [str(directory / f) for f in flo_files]
        for i, path in enumerate(flo_files):
            try:
                fw, fh = read_flo_header(path)
            except (OSError, ConfigError) as exc:
                raise IngestError(str(exc), json_path=f"flo_files[{i}]") from exc
            if (fw, fh) != (w, h):
                raise IngestError(f"{path} is {fw}x{fh}, the frames are {w}x{h}",
                                  json_path=f"flo_files[{i}]")
    return IngestedSequence(
        frame_files=[str(p) for p in frame_paths],
        shape=(h, w),
        reference_index=annotation.reference_frame,
        zero_flow=annotation.zero_flow,
        patches=list(annotation.patches),
        flow_files=flo_files,
        directory=str(directory),
    )


def _ingest_frames(protocol):
    """The frames an ingest sweep evaluates: all but the reference for OC,
    all with a predecessor for BC/GC."""
    frame_paths, annotation = _sequence_layout(protocol.ingest_dir,
                                               protocol.ingest_annotation)
    if protocol.model == "OC":
        indices = [i for i in range(len(frame_paths)) if i != annotation.reference_frame]
    else:
        indices = list(range(1, len(frame_paths)))
    if not indices:
        raise IngestError("sequence too short for the requested model")
    return indices


def _prepare_ingest(protocol):
    """The loaded sequence, the centered side x side patch inside each
    annotated rectangle that holds one, and the cell batches and reference
    every frame shares: all of OC's, and BC/GC's zero-flow batches."""
    seq = ingest_sequence(protocol.ingest_dir, protocol.ingest_annotation)
    if protocol.model != "OC" and not seq.zero_flow and not seq.flow_files:
        raise IngestError(
            "brightness/gradient constancy on ingested data needs either "
            "zero_flow (static camera assumption) or flo_files")
    patches = {(context, s): [] for s in protocol.patch_sizes
               for context in protocol.contexts}
    for s in protocol.patch_sizes:
        for rect in seq.patches:
            key = (rect.context, s)
            if key in patches and s <= min(rect.width, rect.height):
                row = rect.y + (rect.height - s) // 2
                col = rect.x + (rect.width - s) // 2
                patches[key].append(Patch(row=row, col=col, side=s, context=rect.context))
    batches = ref = None
    if protocol.model == "OC":
        batches = _cell_batches(protocol, patches)
        ref = _reference(protocol, batches, seq.frame(seq.reference_index))
    elif not seq.flow_files:
        zero_flow = np.broadcast_to(0.0, seq.shape + (2,))
        batches = _cell_batches(protocol, patches, zero_flow)
    return seq, patches, batches, ref


def _eval_frames(protocol, state, indices):
    """Each frame of ``indices``, in order, against the reference (OC) or
    its predecessor (BC/GC), under the supplied flow or, for a static
    camera, zero flow.

    Only the frames a cell measures are decoded.  A BC/GC cell takes its
    predecessor's features from the cell before it when that cell measured
    the predecessor, and decodes the predecessor otherwise (the first cell
    of ``indices``, or one that does not follow its predecessor); the bytes
    are the same either way, and a sweep in frame order decodes each frame
    once."""
    from .imgio import read_flo

    seq, patches, batches, ref = state
    last = None  # (index, features) of the frame the cell before measured

    def cell(idx):
        nonlocal batches, ref, last
        if protocol.model != "OC":
            if seq.flow_files:
                batches = _cell_batches(protocol, patches, read_flo(seq.flow_files[idx - 1]))
            ref = (last[1] if last is not None and last[0] == idx - 1
                   else _features(protocol, seq.frame(idx - 1)))
        features = _features(protocol, seq.frame(idx))
        last = idx, features
        return batches, _gather(protocol, batches, ref, features)
    # OC's reference ranks; BC and GC measure their gathered residuals alone
    return _in_blocks(protocol, indices, cell, ref)


# -- the sweep driver ---------------------------------------------------------


@dataclass(frozen=True)
class _SweepSpec:
    """How one model sweeps: the theta_w axis and its coordinates, the plan
    of a run of cells, and the ``((mean, std, n), extra)`` of each.  A
    cell's statistics are lists over its rows: one per ``_cell_keys``
    (context, side), or with no theta_v axis (DS) one row, context "All"."""

    axis: str
    coords: object  # protocol -> coordinates along ``axis``
    plan: object  # (protocol, coords) -> (render requests, build of the shared state)
    evaluate: object  # (protocol, state, coords) -> one ((mean, std, n), extra) per coord
    theta_v_axes: tuple = ("s",)


_SWEEP_SPECS = {
    **dict.fromkeys(("OC", "BC", "GC"), _SweepSpec(
        "illumination", lambda p: p.illumination_levels, _plan_ramp, _eval_levels)),
    "PS": _SweepSpec("speed", lambda p: p.speed_scales, _plan_speeds, _eval_speeds),
    "DS": _SweepSpec("weather", lambda p: p.weather_tags, _plan_weather, _eval_weather,
                     theta_v_axes=()),
}

# ingested frames are read, not rendered
_INGEST_SPEC = _SweepSpec("frame", _ingest_frames,
                          lambda p, _: ((), functools.partial(_prepare_ingest, p)), _eval_frames)


def _sweep_spec(protocol):
    if protocol.source == "simulate":
        return _SWEEP_SPECS[protocol.model]
    if protocol.model not in ("OC", "BC", "GC"):
        raise IngestError(f"{protocol.model} ingestion is not supported: "
                          "ingested sequences are evaluated with OC, BC and GC")
    return _INGEST_SPEC


def sweep_size(protocol: ProtocolConfig) -> tuple:
    """(cells, distinct Monte Carlo render passes) of a fresh sweep's plan,
    which samples the scene, so it raises what the sweep's renders would."""
    spec = _sweep_spec(protocol)
    coords = spec.coords(protocol)
    requests, _ = spec.plan(protocol, coords)
    per_coord = (len(protocol.patch_sizes) * len(protocol.contexts)
                 if spec.theta_v_axes else 1)
    return len(coords) * per_coord, len({_render_key(r) for r in requests if len(r) == 3})


def run_sweep(protocol: ProtocolConfig, progress=None, cache_dir=None) -> Manifold:
    """Evaluate the full (theta_w x theta_v x context) grid for a protocol.

    Grid cells are independent: they may be evaluated in any order, or
    alone, and always produce the same bytes.  The cells that miss the cache
    share one plan of renders (``_execute``) and are measured in order on
    the calling thread, a block of cells at a time (``_in_blocks``).
    ``progress(done, total)`` is called once per cell evaluated, in order.
    Empty-context cells are recorded as gaps; render failures abort.
    """
    spec = _sweep_spec(protocol)
    # the bytes of ingested frames are not in the protocol hash, so a cached
    # cell could not tell an edited sequence from the one it came from
    cache = (CellCache(cache_dir, protocol)
             if cache_dir and protocol.source == "simulate" else None)
    coords = spec.coords(protocol)
    results, state = _sweep_cells(
        coords, functools.partial(spec.plan, protocol),
        functools.partial(spec.evaluate, protocol), cache, progress)
    mean, std, n = (np.concatenate(stat) for stat in zip(*(stats for stats, _ in results)))
    extras = [extra for _, extra in results]
    # a cell's rows; DS has one, context "All", and no theta_v axis to read a side of
    rows = _cell_keys(protocol) if spec.theta_v_axes else [("All", None)]
    context = [context for context, _ in rows] * len(coords)
    keys = {spec.axis: [c for c in coords for _ in rows], "s": [s for _, s in rows] * len(coords)}
    if protocol.model == "DS":
        aux = {"ds": extras}
    else:
        aux = {"degenerate_skipped": sum(extras)}
    if protocol.source == "ingest":
        aux["zero_flow"] = state[0].zero_flow  # state[0]: the sequence
    return Manifold(protocol.model, (spec.axis,), spec.theta_v_axes, context, keys,
                    mean, std, n, aux=aux)


# -- SVG emission -------------------------------------------------------------


def heatmap_svg(manifold: Manifold, x_axis: str, y_axis: str) -> dict:
    """Context -> a self-contained SVG heatmap of mean_E for that context's
    slice, for every context of the manifold."""
    xs = manifold.axis_values(x_axis)
    ys = manifold.axis_values(y_axis)
    col = {v: j for j, v in enumerate(xs)}
    row = {v: i for i, v in enumerate(ys)}
    y_at = np.array([row[v] for v in manifold.coords[y_axis]], dtype=int)
    x_at = np.array([col[v] for v in manifold.coords[x_axis]], dtype=int)
    svgs = {}
    # the rows are sorted by context first, so the contexts come in order
    for context in dict.fromkeys(manifold.context):
        grid = np.full((len(ys), len(xs)), np.nan)
        filled = (manifold.context == context) & (manifold.n > 0)
        grid[y_at[filled], x_at[filled]] = manifold.mean[filled]
        svgs[context] = _heatmap(manifold.model, context, x_axis, y_axis, xs, ys, grid)
    return svgs


def _heatmap(model, context, x_axis, y_axis, xs, ys, grid):
    """One context's SVG from its (y, x) grid of mean_E, NaN at gaps."""
    finite = grid[np.isfinite(grid)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0

    cell, margin = 14, 60
    width = margin + cell * len(xs) + 20
    height = margin + cell * len(ys) + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{margin}" y="16" font-size="12" font-family="monospace">'
        f'{model} {context}: mean_E over ({x_axis}, {y_axis}), '
        f'range [{lo:.6g}, {hi:.6g}]</text>',
    ]
    for i, (yv, values) in enumerate(zip(ys, grid.tolist())):
        for j, (xv, v) in enumerate(zip(xs, values)):
            if math.isnan(v):
                fill = "#b0b0b0"
            else:
                t = (v - lo) / span
                r_c = int(40 + 215 * t)
                g_c = int(60 + 80 * (1 - abs(2 * t - 1)))
                b_c = int(255 - 215 * t)
                fill = f"#{r_c:02x}{g_c:02x}{b_c:02x}"
            x = margin + j * cell
            y = margin - 20 + i * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="{fill}"><title>{x_axis}={xv!r} {y_axis}={yv!r} '
                         f'mean_E={v!r}</title></rect>')
    for i, yv in enumerate(ys):
        parts.append(f'<text x="4" y="{margin - 10 + i * cell}" font-size="9" '
                     f'font-family="monospace">{_short(yv)}</text>')
    step = max(1, len(xs) // 8)
    for j in range(0, len(xs), step):
        parts.append(f'<text x="{margin + j * cell}" '
                     f'y="{margin - 24 + len(ys) * cell + 14}" font-size="9" '
                     f'font-family="monospace">{_short(xs[j])}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _short(v):
    if isinstance(v, float):
        return f"{v:.3g}"
    return str(v)
