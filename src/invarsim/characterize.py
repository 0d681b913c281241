"""Characterization protocols: sweeps, manifolds, marginals, rankings, ingest.

A sweep walks a grid of contextual coordinates (illumination level, weather
density, object speed, frame index) crossed with model parameters (patch
side), evaluates one criterion measure per (cell, spatial context) over
sampled patches, and assembles the results into a criterion manifold.

Determinism contract: every random choice is keyed by a stable hash of the
protocol seeds plus the cell's own coordinates, never by enumeration order,
so any cell evaluated in isolation equals its value inside a full sweep and
thread count cannot change output bytes.  Renders across grid cells share
one render seed (common random numbers), which makes purely photometric
parameter changes produce purely photometric image changes.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import math
import os
import queue
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .codec import _LIST, _NUMBER, _STRING, _block, _each, _encode, _items, _Kind, _reader
from .errors import ConfigError, IngestError, LabelMismatchError, PatchSamplingError
from .patches import (
    CONTEXT_NAMES,
    Patch,
    classify_contexts,
    sample_patches,
)
from .render import (
    RadianceImage,
    RenderConfig,
    SensorConfig,
    apply_sensor,
    compute_flow,
    render_frame,
    render_ground_truth,
    render_setups,
)
from .scene import WEATHER_PRESETS, DynamicsScript
from .scenegen import SceneConfig, apply_dynamics, sample_scene, validation_scene_config
from .validators import (
    Trajectories,
    average_ranks,
    bc_values,
    ds_angular_error,
    energy_variance,
    gc_values,
    gradient_fields,
    oc_values,
    patch_pixels,
    smoothness_energy,
    spearman_rho,
    to_gray,
)

MODELS = ("OC", "BC", "GC", "PS", "DS")

#: measure direction per model: is a larger criterion value better?
HIGHER_IS_BETTER = {"OC": True, "BC": False, "GC": False, "PS": False, "DS": False}

#: part of every cell-cache key; bump it whenever a change to rendering or
#: measuring moves cell values, so no resumed run mixes old cells in
CACHE_EPOCH = 2

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
    sensor: dict | None = field(default_factory=lambda: {
        key: value for key, value in _encode(SensorConfig()).items() if key != "noise_seed"})
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

    def sensor_config(self, *tags) -> SensorConfig | None:
        """Sensor stage for one frame; None means evaluate raw radiance."""
        if self.sensor is None:
            return None
        return _reader(SensorConfig, True)(
            {**self.sensor, "noise_seed": _mix(self.sensor_seed, *tags)}, "sensor")


def _read_sensor(block, path):
    """A protocol's sensor block at ``path``: None, or the keys it gives,
    each checked and loaded; SensorConfig has the rest, and a seed of its own."""
    if block is None:
        return None
    sensor = _encode(_reader(SensorConfig, True, omit=("noise_seed",))(block, path))
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


@dataclass(frozen=True)
class CriterionRecord:
    model: str
    context: str
    theta_w: dict
    theta_v: dict
    mean: float
    std: float
    n: int

    def key(self, w_axes, v_axes):
        return (self.context,
                tuple(self.theta_w[a] for a in w_axes),
                tuple(self.theta_v[a] for a in v_axes))


class Manifold:
    """Dense criterion grid: one record per (theta_w, theta_v, context) cell.

    Cells that could not be evaluated (no eligible patches, degenerate
    measure everywhere) stay in the grid with n=0 and NaN statistics; they
    are never interpolated away.
    """

    def __init__(self, model, theta_w_axes, theta_v_axes, records, aux=None):
        self.model = model
        self.theta_w_axes = tuple(theta_w_axes)
        self.theta_v_axes = tuple(theta_v_axes)
        self.records = list(records)
        self.aux = dict(aux or {})
        self._sort()

    def _sort(self):
        self.records.sort(key=lambda r: r.key(self.theta_w_axes, self.theta_v_axes))

    @property
    def missing(self):
        return [r for r in self.records if r.n == 0]

    def axis_values(self, axis):
        if axis in self.theta_w_axes:
            return sorted({r.theta_w[axis] for r in self.records})
        if axis in self.theta_v_axes:
            return sorted({r.theta_v[axis] for r in self.records})
        raise ConfigError(f"unknown axis {axis!r}")

    def cell(self, context, theta_w, theta_v):
        for r in self.records:
            if (r.context == context and r.theta_w == theta_w
                    and r.theta_v == theta_v):
                return r
        raise KeyError((context, theta_w, theta_v))

    # -- CSV (fixed schema, byte-deterministic) ------------------------

    def csv_header(self):
        cols = ["model", "context"]
        cols += [f"theta_w_{a}" for a in self.theta_w_axes]
        cols += [f"theta_v_{a}" for a in self.theta_v_axes]
        cols += ["mean_E", "std_E", "n"]
        return ",".join(cols)

    def to_csv(self) -> str:
        lines = [self.csv_header()]
        for r in self.records:
            cells = [self.model, r.context]
            cells += [_fmt(r.theta_w[a]) for a in self.theta_w_axes]
            cells += [_fmt(r.theta_v[a]) for a in self.theta_v_axes]
            cells += [_fmt(r.mean), _fmt(r.std), str(r.n)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Manifold":
        lines = [l for l in text.strip().split("\n") if l]
        if not lines:
            raise ConfigError("empty manifold CSV")
        header = lines[0].split(",")
        if header[:2] != ["model", "context"] or header[-3:] != ["mean_E", "std_E", "n"]:
            raise ConfigError(f"unexpected manifold CSV header: {lines[0]!r}")
        w_axes = [c[len("theta_w_"):] for c in header if c.startswith("theta_w_")]
        v_axes = [c[len("theta_v_"):] for c in header if c.startswith("theta_v_")]
        records = []
        model = None
        for line in lines[1:]:
            cells = line.split(",")
            model, context = cells[:2]
            coords = [_parse_coord(c) for c in cells[2:-3]]
            tw = dict(zip(w_axes, coords))
            tv = dict(zip(v_axes, coords[len(w_axes):]))
            mean, std, n = float(cells[-3]), float(cells[-2]), int(cells[-1])
            records.append(CriterionRecord(model, context, tw, tv, mean, std, n))
        return cls(model, w_axes, v_axes, records)


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _parse_coord(text):
    try:
        f = float(text)
    except ValueError:
        return text
    if f.is_integer() and ("." not in text and "e" not in text.lower()):
        return int(f)
    return f


# -- marginalization --------------------------------------------------------


@dataclass(frozen=True)
class MarginalEntry:
    context: str
    coords: dict
    value: float
    complete: bool


@dataclass
class MarginalTable:
    axis: str
    method: str
    entries: list

    @property
    def gaps(self):
        return [e for e in self.entries if not e.complete]


def marginalize(manifold: Manifold, axis: str, exclude_contexts=(),
                method: str = "sum") -> MarginalTable:
    """Integrate mean_E along one axis for every remaining cell.

    Default is a plain grid-point sum; "trapezoid" integrates against the
    axis coordinate values.  Cells with gaps propagate: the affected
    marginal entries are flagged incomplete with NaN value, never silently
    filled.
    """
    if method not in ("sum", "trapezoid"):
        raise ConfigError(f"unknown marginalization method {method!r}")
    if axis not in manifold.theta_w_axes and axis not in manifold.theta_v_axes:
        raise ConfigError(f"unknown axis {axis!r}")
    other_w = [a for a in manifold.theta_w_axes if a != axis]
    other_v = [a for a in manifold.theta_v_axes if a != axis]

    groups: dict = {}
    for r in manifold.records:
        if r.context in exclude_contexts:
            continue
        coords = {a: r.theta_w[a] for a in other_w}
        coords.update({a: r.theta_v[a] for a in other_v})
        key = (r.context, tuple(sorted(coords.items())))
        axis_val = r.theta_w.get(axis, r.theta_v.get(axis))
        groups.setdefault(key, []).append((axis_val, r.mean, r.n))

    entries = []
    for (context, coord_items), cells in sorted(groups.items()):
        cells.sort(key=lambda c: c[0])
        complete = all(n > 0 for _, _, n in cells)
        if not complete:
            value = float("nan")
        elif method == "sum":
            value = float(sum(m for _, m, _ in cells))
        else:
            xs = np.array([c[0] for c in cells], dtype=float)
            ys = np.array([c[1] for c in cells], dtype=float)
            value = float(np.trapezoid(ys, xs)) if len(xs) > 1 else float(ys[0])
        entries.append(MarginalEntry(context, dict(coord_items), value, complete))
    return MarginalTable(axis=axis, method=method, entries=entries)


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


@dataclass(frozen=True)
class RankingComparison:
    labels: tuple
    ranks_a: tuple
    ranks_b: tuple
    correlation: float
    deltas: dict

    def to_dict(self):
        return {
            "labels": list(self.labels),
            "ranks_a": list(self.ranks_a),
            "ranks_b": list(self.ranks_b),
            "correlation": self.correlation,
            "deltas": self.deltas,
        }


def compare_rankings(a: dict, b: dict) -> RankingComparison:
    """Rank-correlate two rankings over the same labels: the empirical
    conclusion-deviation measure between two data sources."""
    if set(a) != set(b):
        raise LabelMismatchError(set(a) - set(b), set(b) - set(a))
    labels = tuple(sorted(a))
    ra = tuple(a[l] for l in labels)
    rb = tuple(b[l] for l in labels)
    corr = spearman_rho(ra, rb)
    deltas = {l: a[l] - b[l] for l in labels}
    return RankingComparison(labels, ra, rb, corr, deltas)


def rank_manifold_contexts(manifold: Manifold, by: str = "context") -> dict:
    """Pool the mean over all complete cells per label, then rank.

    The label is the cell's context, or with ``by`` naming a theta_w axis
    (say "weather"), the cell's coordinate on that axis.
    """
    pools: dict = {}
    for r in manifold.records:
        label = r.context if by == "context" else r.theta_w.get(by)
        if label is not None and r.n > 0 and math.isfinite(r.mean):
            pools.setdefault(label, []).append(r.mean)
    items = [(label, float(np.mean(v))) for label, v in sorted(pools.items())]
    if not items:
        raise ConfigError(f"manifold has no complete cells to rank by {by}")
    direction = "higher_better" if HIGHER_IS_BETTER[manifold.model] else "lower_better"
    return rank_items(items, direction)


# -- sweep engine -----------------------------------------------------------


def _sun_basis(scene, rcfg, levels):
    """One render pass that gives the scene's radiance at every level of a
    sun ramp.

    Radiance (surface, bounce and airlight alike) is affine in the intensity
    of the first directional light, so with ``hdr0`` rendered with that
    light off, the radiance at ``level`` times its intensity is
    ``hdr0 + level * hdr_sun``.  The sun-off and sun-on setups share every
    ray of one pass.  A scene without a directional light allows only
    levels of 1, where ``hdr_sun`` is zero.
    """
    lights = tuple(scene.lights)
    dark = lights
    for i, light in enumerate(lights):
        if light.kind == "directional":
            dark = lights[:i] + (dataclasses.replace(light, intensity=0.0),) + lights[i + 1:]
            break
    else:
        if any(level != 1.0 for level in levels):
            raise ConfigError("protocol requires a directional light in the scene")
    hdr0, hdr1 = render_setups(scene, [(scene.medium, dark), (scene.medium, lights)], rcfg)
    return hdr0.data, hdr1.data - hdr0.data


def _ambient_only(scene):
    lights = tuple(l for l in scene.lights if l.kind == "ambient")
    if not lights:
        raise ConfigError("protocol requires an ambient light in the scene")
    return dataclasses.replace(scene, lights=lights)


def _without_dynamic_objects(scene):
    objects = tuple(o for o in scene.objects if not o.dynamic)
    return dataclasses.replace(scene, objects=objects)


def _scale_velocities(scene, factor):
    keys = []
    for t, path, value in scene.dynamics.keyframes:
        if path.endswith(".velocity"):
            keys.append((t, path, tuple(c * factor for c in value)))
        else:
            keys.append((t, path, value))
    return dataclasses.replace(scene, dynamics=DynamicsScript(tuple(keys)))


def _ldr_float(hdr, protocol, *sensor_tags):
    """A rendered frame as the protocol's sensor sees it; raw radiance
    when the protocol has no sensor."""
    scfg = protocol.sensor_config(*sensor_tags)
    if scfg is None:
        return hdr.data
    return apply_sensor(hdr, scfg).to_float()


def _collect_patches(protocol, gt, *seed_parts):
    """Patches per (context, side), sampled from the contexts of ground truth
    ``gt`` classified at that side; None marks a cell without enough
    eligible centers, which becomes a gap."""
    patches = {}
    for s in protocol.patch_sizes:
        cmap = classify_contexts(gt, window=s)
        for context in protocol.contexts:
            try:
                patches[(context, s)] = sample_patches(
                    cmap, context, s, protocol.patches_per_cell,
                    seed=_mix(protocol.patch_seed, context, s, *seed_parts),
                )
            except PatchSamplingError:
                patches[(context, s)] = None
    return patches


def _cell_records(protocol, theta_w, measured):
    """One record per (side, context) cell at one theta_w coordinate.

    ``measured`` maps the key (context, side) of each cell with patches to
    the criterion value of each of its patches, NaN where the measure is
    degenerate; NaN values are left out of the statistics and counted.  A
    cell without patches is a gap: n=0 and NaN statistics.  Returns the
    records and the count of left-out values.
    """
    records = []
    skipped = 0
    for s in protocol.patch_sizes:
        for context in protocol.contexts:
            values = np.asarray(measured.get((context, s), ()), dtype=float)
            vals = values[~np.isnan(values)]
            skipped += len(values) - len(vals)
            if len(vals) == 0:
                mean = std = float("nan")
            else:
                mean, std = float(vals.mean()), float(vals.std())
            records.append(CriterionRecord(protocol.model, context, theta_w,
                                           {"s": s}, mean, std, len(vals)))
    return records, skipped


def _cell_batches(protocol, patches, flow=None, occlusion=None):
    """What the OC, BC or GC measure gathers from every frame, one batch per
    patch side: the keys of the side's cells with patches, their patch
    counts, and the pixels (OC) or the trajectories under ``flow`` of all
    their patches, cell after cell."""
    keys_by_side = {}
    for key, ps in patches.items():
        if ps:
            keys_by_side.setdefault(key[1], []).append(key)
    occlusion = occlusion if protocol.exclude_occluded else None
    inset = 1 if protocol.model == "GC" else 0  # central differences need neighbours
    batches = []
    for keys in keys_by_side.values():
        ps = [p for key in keys for p in patches[key]]
        gathered = (patch_pixels(ps) if protocol.model == "OC" else
                    Trajectories(flow, ps, inset=inset, occlusion=occlusion))
        batches.append((keys, [len(patches[key]) for key in keys], gathered))
    return batches


def _features(protocol, frame):
    """A frame's gray image, or for GC its gradient fields: computed once."""
    gray = to_gray(frame)
    return gradient_fields(gray) if protocol.model == "GC" else gray


def _reference(protocol, batches, frame):
    """What the measure keeps of its first frame: the frame's features, or
    for OC each batch's ranked gray patches."""
    features = _features(protocol, frame)
    if protocol.model == "OC":
        return [average_ranks(features[pixels]) for _, _, pixels in batches]
    return features


def _pair_measure(protocol, batches, ref, cur):
    """Cell key -> the OC, BC or GC criterion of each of its patches between
    the ``_reference`` of one frame and the frame ``cur``."""
    return _features_measure(protocol, batches, ref, _features(protocol, cur))


def _features_measure(protocol, batches, ref, features):
    """``_pair_measure`` of a frame whose ``_features`` are already computed.

    One kernel call measures a whole batch.  The kernels work row by row,
    so each patch's value has the same bits as when measured alone."""
    if protocol.model == "OC":
        values = [oc_values(ranks, features[pixels])
                  for ranks, (_, _, pixels) in zip(ref, batches)]
    else:
        constancy = bc_values if protocol.model == "BC" else gc_values
        values = [constancy(ref, features, traj) for _, _, traj in batches]
    return {key: cell
            for (keys, counts, _), batch in zip(batches, values)
            for key, cell in zip(keys, np.split(batch, np.cumsum(counts)[:-1]))}


def _prepare_ramp(protocol):
    """OC/BC/GC: the cell batches, reference and sun basis of a ramp.

    Radiance is affine in the sun's intensity, so the lit geometry is
    rendered with the sun off and at full strength, in one pass, and each
    level's frame is the affine combination of the two before the sensor
    stage.
    The reference frame and the flow are the same at every level.
    """
    rcfg = protocol.render_config()
    base = sample_scene(protocol.scene_config(), protocol.scene_seed)
    if protocol.model == "OC":
        # reference: static subset of the scene under ambient light only
        ref_scene = _ambient_only(_without_dynamic_objects(base))
        lit = apply_dynamics(base, 0)
        gt_t = render_ground_truth(lit, rcfg)
        # contexts vs. the reference: occluded where the object ids differ
        gt_t.occlusion = gt_t.object_id != render_ground_truth(ref_scene, rcfg).object_id
        flow = occl = None
        ref_img = _ldr_float(render_frame(ref_scene, rcfg), protocol, "ref")
    else:
        scene_t = apply_dynamics(base, 0)
        lit = apply_dynamics(base, 1)
        gt_t = render_ground_truth(scene_t, rcfg)
        flow, occl = compute_flow(gt_t, render_ground_truth(lit, rcfg), scene_t, lit)
        gt_t.flow = flow
        gt_t.occlusion = occl
        ref_img = _ldr_float(render_frame(scene_t, rcfg), protocol, "frame_t")
    patches = _collect_patches(protocol, gt_t)
    hdr0, hdr_sun = _sun_basis(lit, rcfg, protocol.illumination_levels)
    # gathered after the renders, so they do not add to the renders' peak memory
    batches = _cell_batches(protocol, patches, flow, occl)
    return batches, _reference(protocol, batches, ref_img), hdr0, hdr_sun


def _eval_level(protocol, state, level):
    batches, ref, hdr0, hdr_sun = state
    cur_img = _ldr_float(RadianceImage(hdr0 + level * hdr_sun), protocol,
                         "level", float(level).hex())
    return _cell_records(protocol, {"illumination": level},
                         _pair_measure(protocol, batches, ref, cur_img))


def _prepare_scene(protocol):
    return sample_scene(protocol.scene_config(), protocol.scene_seed)


def _eval_speed(protocol, base, speed):
    """PS: flow smoothness with every object velocity scaled by ``speed``."""
    rcfg = protocol.render_config()
    scaled = _scale_velocities(base, speed)
    frames = [apply_dynamics(scaled, t) for t in range(4)]
    gts = [render_ground_truth(f, rcfg) for f in frames]
    gt1 = gts[1]
    (flow_prev, _), (gt1.flow, gt1.occlusion), (flow_next, _) = [
        compute_flow(gts[t], gts[t + 1], frames[t], frames[t + 1]) for t in range(3)]
    patches = _collect_patches(protocol, gt1, speed)
    energy = smoothness_energy(flow_prev, gt1.flow, flow_next)
    return _cell_records(protocol, {"speed": speed}, {
        key: [energy_variance(energy, p) for p in ps] for key, ps in patches.items() if ps})


def _prepare_weather(protocol):
    """DS: every (weather tag, density) setup rendered in one Monte Carlo
    pass, as tag -> its density ramp's images.

    A tag outside ``sunny_tags`` sees the scene under its ambient light
    only: its direct sources keep their placement at intensity 0, where
    they add +0.0 and draw no random numbers, so every setup shares the
    pass's rays and each image has the bits of rendering that tag alone.
    """
    base = sample_scene(protocol.scene_config(), protocol.scene_seed)
    tags, sunny = protocol.weather_tags, protocol.sunny_tags
    if any(tag not in sunny for tag in tags):
        _ambient_only(base)  # raises when there is no ambient light to see by
    off = tuple(l if l.kind == "ambient" else dataclasses.replace(l, intensity=0.0)
                for l in base.lights)
    setups = [(WEATHER_PRESETS[tag].scaled(density), base.lights if tag in sunny else off)
              for tag in tags for density in protocol.density_scales]
    images = render_setups(base, setups, protocol.render_config())
    k = len(protocol.density_scales)
    return {tag: images[i * k : (i + 1) * k] for i, tag in enumerate(tags)}


def _eval_weather(protocol, images, tag):
    """DS: the dichromatic plane fit over one tag's density ramp, as the
    sensor sees it."""
    observations = []
    for density, hdr in zip(protocol.density_scales, images[tag]):
        img = _ldr_float(hdr, protocol, "weather", tag, float(density).hex())
        observations.append(img.reshape(-1, 3))
    samples = np.stack(observations, axis=1)  # (P, k, 3)
    res = ds_angular_error(samples, protocol.ds_angle_threshold_deg)
    rec = CriterionRecord(
        protocol.model, "All", {"weather": tag}, {},
        res.mean_deg, res.std_deg, res.n_pixels)
    return [rec], {
        "weather": tag,
        "mean_deg": res.mean_deg,
        "std_deg": res.std_deg,
        "fraction_below": res.fraction_below,
        "threshold_deg": res.threshold_deg,
        "n_pixels": res.n_pixels,
        "n_excluded": res.n_excluded,
    }


def _parallel_map(fn, items, threads, progress):
    """``fn`` over ``items``, results in item order; one thread runs inline.

    Each of ``threads`` threads runs one contiguous run of the items in
    order, so an item follows its predecessor on the same thread except
    at the start of a run (a BC/GC ingest cell then finds the features of
    its predecessor's frame in the carry).  ``progress(done, total)`` is
    called on the calling thread once per item, as items finish.  The
    first failure in item order is raised once every thread has ended.
    """
    items = list(items)
    n = len(items)
    threads = max(1, min(threads, n))
    if threads == 1:
        out = []
        for i, item in enumerate(items):
            out.append(fn(item))
            if progress:
                progress(i + 1, n)
        return out
    out = [None] * n
    errors = [None] * threads
    finished = queue.SimpleQueue()  # True per item done, False per run ended

    def run(k, a, b):
        try:
            for i in range(a, b):
                out[i] = fn(items[i])
                finished.put(True)
        except BaseException as exc:  # raised again on the calling thread
            errors[k] = exc
        finally:
            finished.put(False)

    bounds = [n * k // threads for k in range(threads + 1)]
    workers = [threading.Thread(target=run, args=(k, a, b))
               for k, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    for w in workers:
        w.start()
    done = ended = 0
    try:
        while ended < threads:
            if finished.get():
                done += 1
                if progress:
                    progress(done, n)
            else:
                ended += 1
    finally:
        for w in workers:
            w.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return out


class CellCache:
    """Per-cell result cache keyed by protocol content hash plus cell coordinate.

    Resume never trusts timestamps: a cache entry is only reused when the
    protocol content hash, the package version and ``CACHE_EPOCH`` embedded
    in its name all match.  Every cell is one document: its records plus
    its extra (the count of degenerate patch values, or the DS details).
    Cells are written whole through a temporary file, and a cell that
    cannot be parsed (say, cut short by a crash from before that rule) counts
    as a miss, so it is evaluated and written again.
    """

    def __init__(self, directory, protocol):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        key = f"{CACHE_EPOCH}\x1f{__version__}\x1f{protocol.content_hash()}"
        self.prefix = hashlib.sha256(key.encode()).hexdigest()[:16]

    def _path(self, coord):
        tag = hashlib.sha256(repr(coord).encode()).hexdigest()[:16]
        return self.dir / f"cell_{self.prefix}_{tag}.json"

    def load(self, coord):
        try:
            doc = json.loads(self._path(coord).read_text())
            return [CriterionRecord(**r) for r in doc["records"]], doc["extra"]
        except (FileNotFoundError, ValueError, KeyError, TypeError, AttributeError):
            return None  # missing, truncated or foreign: evaluate again

    def store(self, coord, result):
        path = self._path(coord)
        records, extra = result
        # json.dumps only reads the records' field dicts: no deep copy needed
        doc = {"records": [vars(r) for r in records], "extra": extra}
        # readers see the old file or the whole new one, never a part
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, path)


def _sweep_cells(coords, prepare, evaluate, cache, threads, progress):
    """``evaluate(state, coord)`` per coordinate, in order, through the cache.

    ``prepare()`` builds the state every cell shares (renders, ground truth,
    patches); it runs only when some cell misses the cache, so resuming a
    finished sweep renders nothing.  Returns the results and the state
    (None when every cell came from the cache).
    """
    coords = list(coords)
    results = [cache.load(c) if cache is not None else None for c in coords]
    missing = [i for i, r in enumerate(results) if r is None]
    if not missing:
        return results, None
    state = prepare()

    def run(i):
        out = evaluate(state, coords[i])
        if cache is not None:
            cache.store(coords[i], out)
        return out

    for i, out in zip(missing, _parallel_map(run, missing, threads, progress)):
        results[i] = out
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
    batches = ref = carry = None
    if protocol.model == "OC":
        batches = _cell_batches(protocol, patches)
        ref = _reference(protocol, batches, seq.frame(seq.reference_index))
    else:
        carry = _FeatureCarry()
        if not seq.flow_files:
            zero_flow = np.broadcast_to(0.0, seq.shape + (2,))
            batches = _cell_batches(protocol, patches, zero_flow)
    return seq, patches, batches, ref, carry


class _FeatureCarry:
    """The ``_features`` of the frame a BC/GC ingest cell measured last,
    kept for the cell of the next frame, which takes them as its reference
    instead of decoding that frame again.

    Each worker thread keeps its own, one frame's features at most, so
    threads share nothing.  Kept arrays are read-only: a cell that takes
    them cannot change them."""

    def __init__(self):
        self._local = threading.local()

    def take(self, index):
        """The features this thread kept of frame ``index``, or None; the
        thread keeps nothing afterwards."""
        kept = getattr(self._local, "kept", None)
        self._local.kept = None
        return kept[1] if kept is not None and kept[0] == index else None

    def keep(self, index, features):
        for array in features if isinstance(features, tuple) else (features,):
            array.flags.writeable = False
        self._local.kept = (index, features)


def _eval_frame(protocol, state, idx):
    """Frame ``idx`` against the reference (OC) or its predecessor (BC/GC),
    under the supplied flow or, for a static camera, zero flow.

    Only the frames the cell measures are decoded, and a BC/GC cell keeps
    its frame's features in the carry for the next frame's cell.  It takes
    its predecessor's features from the carry when this thread's last cell
    measured that frame, and decodes the predecessor otherwise (the first
    cell, a cell evaluated alone or after another thread's cell); the
    bytes are the same either way."""
    from .imgio import read_flo

    seq, patches, batches, ref, carry = state
    if protocol.model != "OC":
        if seq.flow_files:
            batches = _cell_batches(protocol, patches, read_flo(seq.flow_files[idx - 1]))
        ref = carry.take(idx - 1)
        if ref is None:
            ref = _features(protocol, seq.frame(idx - 1))
    features = _features(protocol, seq.frame(idx))
    if carry is not None:
        carry.keep(idx, features)
    return _cell_records(protocol, {"frame": idx},
                         _features_measure(protocol, batches, ref, features))


# -- the sweep driver ---------------------------------------------------------


@dataclass(frozen=True)
class _SweepSpec:
    """How one model sweeps: the theta_w axis and its coordinates, the state
    every cell shares, one cell's ``(records, extra)``, and the Monte Carlo
    render passes of a fresh sweep as (per sweep, per coordinate)."""

    axis: str
    coords: object  # protocol -> coordinates along ``axis``
    prepare: object  # protocol -> shared state
    evaluate: object  # (protocol, state, coord) -> (records, extra)
    passes: tuple
    theta_v_axes: tuple = ("s",)


# the reference frame; the sun off and on, in one pass
_RAMP_SPEC = _SweepSpec("illumination", lambda p: p.illumination_levels,
                        _prepare_ramp, _eval_level, passes=(2, 0))

_SWEEP_SPECS = {
    "OC": _RAMP_SPEC,
    "BC": _RAMP_SPEC,
    "GC": _RAMP_SPEC,
    # ground truth and flow only: no Monte Carlo pass
    "PS": _SweepSpec("speed", lambda p: p.speed_scales, _prepare_scene,
                     _eval_speed, passes=(0, 0)),
    # all tags and densities in one pass
    "DS": _SweepSpec("weather", lambda p: p.weather_tags, _prepare_weather,
                     _eval_weather, passes=(1, 0), theta_v_axes=()),
}

_INGEST_SPEC = _SweepSpec("frame", _ingest_frames, _prepare_ingest, _eval_frame,
                          passes=(0, 0))


def _sweep_spec(protocol):
    if protocol.source == "simulate":
        return _SWEEP_SPECS[protocol.model]
    if protocol.model not in ("OC", "BC", "GC"):
        raise IngestError(f"{protocol.model} ingestion is not supported: "
                          "ingested sequences are evaluated with OC, BC and GC")
    return _INGEST_SPEC


def sweep_size(protocol: ProtocolConfig) -> tuple:
    """(cells, Monte Carlo render passes) of a fresh sweep."""
    spec = _sweep_spec(protocol)
    n_w = len(spec.coords(protocol))
    per_coord = (len(protocol.patch_sizes) * len(protocol.contexts)
                 if spec.theta_v_axes else 1)
    per_sweep, per_w = spec.passes
    return n_w * per_coord, per_sweep + per_w * n_w


def run_sweep(protocol: ProtocolConfig, threads: int = 1, progress=None,
              cache_dir=None) -> Manifold:
    """Evaluate the full (theta_w x theta_v x context) grid for a protocol.

    Grid cells are independent: they may be evaluated concurrently, in any
    order, or alone, and always produce the same bytes.  Empty-context
    cells are recorded as gaps; render failures abort.
    """
    spec = _sweep_spec(protocol)
    # the bytes of ingested frames are not in the protocol hash, so a cached
    # cell could not tell an edited sequence from the one it came from
    cache = (CellCache(cache_dir, protocol)
             if cache_dir and protocol.source == "simulate" else None)
    results, state = _sweep_cells(
        spec.coords(protocol), functools.partial(spec.prepare, protocol),
        functools.partial(spec.evaluate, protocol), cache, threads, progress)
    records = [r for recs, _ in results for r in recs]
    extras = [extra for _, extra in results]
    if protocol.model == "DS":
        aux = {"ds": extras}
    else:
        aux = {"degenerate_skipped": sum(extras)}
    if protocol.source == "ingest":
        aux["zero_flow"] = state[0].zero_flow  # state[0]: the sequence
    return Manifold(protocol.model, (spec.axis,), spec.theta_v_axes, records,
                    aux=aux)


# -- SVG emission -------------------------------------------------------------


def heatmap_svg(manifold: Manifold, x_axis: str, y_axis: str) -> dict:
    """Context -> a self-contained SVG heatmap of mean_E for that context's
    slice, for every context of the manifold.  The axes' values are found
    and the records grouped by context in one pass."""
    xs = manifold.axis_values(x_axis)
    ys = manifold.axis_values(y_axis)
    col = {v: j for j, v in enumerate(xs)}
    row = {v: i for i, v in enumerate(ys)}
    grids = {}
    for r in manifold.records:
        grid = grids.get(r.context)
        if grid is None:
            grid = grids[r.context] = np.full((len(ys), len(xs)), np.nan)
        if r.n > 0:
            coords = {**r.theta_w, **r.theta_v}
            grid[row[coords[y_axis]], col[coords[x_axis]]] = r.mean
    # the records are sorted by context first, so the contexts come in order
    return {context: _heatmap(manifold.model, context, x_axis, y_axis, xs, ys, grid)
            for context, grid in grids.items()}


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
    for i, yv in enumerate(ys):
        for j, xv in enumerate(xs):
            v = grid[i, j]
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
