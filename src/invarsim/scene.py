"""Realized scene state: objects, materials, lights, medium, camera, dynamics.

A ``SceneGraph`` is the full description of one sampled world.  It is a plain
value object: construction validates invariants, after which instances are
treated as immutable and are safe to share across threads.  Everything a
renderer needs is derivable from it, and the JSON export is canonical (sorted
keys) so two exports of the same graph are byte-identical and diffable.  The
codec of ``codec`` reads it from the dataclass fields and their type hints,
so each key of a scene document is named once, on its dataclass.

What a renderer or an export derives from one state is derived once: each
``SceneObject`` encodes its own JSON entry once, and each ``SceneGraph``
builds its ``PrimitiveSoup`` once.  States of one scene share the objects
that did not move, so each unmoved object is encoded once for all of them.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import sys
from dataclasses import dataclass

from .codec import (_INTEGER, _LIST, _NUMBER, _construct, _each, _items, _Kind, _layout,
                    _reader, _text, _writer)
from .errors import ConfigError
from .geometry import FAMILIES, PRIMITIVES, PrimitiveSoup, camera_basis

SKY_OBJECT_ID = -1
SKY_MATERIAL_ID = -1


class ObjectClass(enum.Enum):
    BUILDING = "Building"
    TREE = "Tree"
    VEHICLE = "Vehicle"
    PEDESTRIAN = "Pedestrian"
    GROUND = "Ground"
    ROAD = "Road"

    def __str__(self):
        return self.value


#: Classes whose footprints participate in occupancy / nonoverlap checks.
#: Ground and road are support surfaces that everything else stands on.
COLLIDING_CLASSES = frozenset(
    {ObjectClass.BUILDING, ObjectClass.TREE, ObjectClass.VEHICLE, ObjectClass.PEDESTRIAN}
)

#: Classes that move in dynamics scripts (foreground objects).
DYNAMIC_CLASSES = frozenset({ObjectClass.VEHICLE, ObjectClass.PEDESTRIAN})


@dataclass(frozen=True)
class CuboidMark:
    """One point-process mark: a classed, axis-aligned bounding cuboid.

    ``position`` is the footprint center on the ground (x, z) plane, in
    meters.  ``length`` spans x, ``breadth`` spans z, ``height`` spans y
    upward from y=0 (ground objects extend slightly below).  ``yaw`` is kept
    for completeness but must be 0: every scene is Manhattan.
    """

    position: tuple[float, float]
    length: float
    breadth: float
    height: float
    #: named "class" in the object entries of a scene document
    object_class: ObjectClass = dataclasses.field(metadata={"json_key": "class"})
    yaw: float = 0.0

    def __post_init__(self):
        if self.length <= 0 or self.breadth <= 0 or self.height <= 0:
            raise ConfigError(
                f"cuboid dimensions must be positive, got "
                f"l={self.length} b={self.breadth} h={self.height}"
            )

    def footprint(self) -> tuple[float, float, float, float]:
        """Axis-aligned footprint rectangle (x0, z0, x1, z1)."""
        x, z = self.position
        return (
            x - self.length / 2.0,
            z - self.breadth / 2.0,
            x + self.length / 2.0,
            z + self.breadth / 2.0,
        )


@dataclass(frozen=True)
class ClassPrior:
    """Per-class sampling prior: class weight plus Gaussian dimension priors.

    Dimension priors are (mean, stddev) pairs; draws are truncated at three
    standard deviations and clamped positive so every mark is a valid cuboid.
    """

    probability: float
    length: tuple[float, float]
    breadth: tuple[float, float]
    height: tuple[float, float]

    def __post_init__(self):
        for name in ("length", "breadth", "height"):
            mean, std = getattr(self, name)
            if std < 0:
                raise ConfigError(f"stddev of {name} prior must be >= 0, got {std}")
            if mean <= 0:
                raise ConfigError(f"mean of {name} prior must be > 0, got {mean}")
        if self.probability < 0:
            raise ConfigError(f"class probability must be >= 0, got {self.probability}")


@dataclass(frozen=True)
class ClassPriors:
    """Mark priors for all object classes in play."""

    classes: dict[ObjectClass, ClassPrior]

    def __post_init__(self):
        if not self.classes:
            raise ConfigError("at least one object class required")
        total = sum(p.probability for p in self.classes.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(
                f"class probabilities must sum to 1 within 1e-9, got {total!r}"
            )

    def class_list(self):
        """Classes in declaration order (sampling order is fixed by this)."""
        return list(self.classes.keys())


@dataclass(frozen=True)
class LightSpec:
    """A light source: ambient (sky), directional (sun), or spot.

    Directions point from the light toward the scene and are stored
    normalized.  ``intensity`` scales ``color`` linearly; for directional
    lights the product is irradiance on a perpendicular surface, for spots it
    is intensity at unit distance.
    """

    kind: str  # "ambient" | "directional" | "spot"
    color: tuple[float, float, float] = (1.0, 1.0, 1.0)
    intensity: float = 1.0
    direction: tuple[float, float, float] | None = None
    position: tuple[float, float, float] | None = None
    cone_deg: float | None = None
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("ambient", "directional", "spot"):
            raise ConfigError(f"unknown light kind {self.kind!r}")
        if self.intensity < 0:
            raise ConfigError("light intensity must be >= 0")
        if self.kind in ("directional", "spot"):
            if self.direction is None:
                raise ConfigError(f"{self.kind} light requires a direction")
            n = math.sqrt(sum(c * c for c in self.direction))
            if n == 0:
                raise ConfigError("light direction must be nonzero")
            # a unit direction keeps its bits however often the light is rebuilt
            if abs(n - 1.0) <= 4 * sys.float_info.epsilon:
                n = 1.0
            object.__setattr__(self, "direction", tuple(c / n for c in self.direction))
        if self.kind == "spot":
            if self.position is None or self.cone_deg is None:
                raise ConfigError("spot light requires position and cone_deg")


@dataclass(frozen=True)
class MediumSpec:
    """Homogeneous participating medium: scattering betas plus phase anisotropy.

    ``beta`` is the per-channel scattering coefficient in 1/m; ``anisotropy``
    parameterizes the phase function in (-1, 1), positive meaning
    forward-scattering.  ``airlight_color`` modulates the ambient illumination
    scattered into the view path.  The medium forms a layer of
    ``layer_height`` meters, so directional sources are extinguished along
    their slant path through it before reaching the scene; denser weather
    therefore dims the sun, which is what breaks color constancy under
    sunny haze.
    """

    beta: tuple[float, float, float] = (0.0, 0.0, 0.0)
    anisotropy: float = 0.0
    airlight_color: tuple[float, float, float] = (1.0, 1.0, 1.0)
    weather_tag: str = "Clear"
    layer_height: float = 60.0

    def __post_init__(self):
        if any(b < 0 for b in self.beta):
            raise ConfigError("medium beta must be >= 0 per channel")
        if not -1.0 < self.anisotropy < 1.0:
            raise ConfigError("medium anisotropy must lie strictly inside (-1, 1)")
        if self.weather_tag == "Clear" and any(b != 0 for b in self.beta):
            raise ConfigError("Clear weather requires beta = 0")
        if self.layer_height <= 0:
            raise ConfigError("medium layer_height must be > 0")

    @property
    def is_clear(self):
        return all(b == 0.0 for b in self.beta)

    def scaled(self, factor: float) -> "MediumSpec":
        """Medium with beta scaled by ``factor`` (density ramping)."""
        tag = self.weather_tag
        if factor == 0.0:
            tag = "Clear"
        elif tag == "Clear" and factor != 0.0:
            raise ConfigError("cannot scale a Clear medium to nonzero density")
        return dataclasses.replace(self, beta=tuple(b * factor for b in self.beta), weather_tag=tag)


#: Default (beta 1/m, anisotropy) per weather tag.  The tag-to-coefficient
#: mapping is a configuration default, overridable per scene; betas are
#: channel-uniform so attenuation is gray.
WEATHER_PRESETS = {
    "Clear": MediumSpec(),
    "Fog": MediumSpec(beta=(0.060, 0.060, 0.060), anisotropy=0.20,
                      airlight_color=(0.85, 0.90, 0.95), weather_tag="Fog"),
    "Mist": MediumSpec(beta=(0.025, 0.025, 0.025), anisotropy=0.10,
                       airlight_color=(0.85, 0.90, 0.95), weather_tag="Mist"),
    "Rain": MediumSpec(beta=(0.012, 0.012, 0.012), anisotropy=0.35,
                       airlight_color=(0.70, 0.75, 0.80), weather_tag="Rain"),
    "DenseHaze": MediumSpec(beta=(0.040, 0.040, 0.040), anisotropy=0.50,
                            airlight_color=(0.90, 0.88, 0.82), weather_tag="DenseHaze"),
    "MildHaze": MediumSpec(beta=(0.012, 0.012, 0.012), anisotropy=0.75,
                           airlight_color=(0.90, 0.88, 0.82), weather_tag="MildHaze"),
}


@dataclass(frozen=True)
class CameraSpec:
    """Pinhole camera: position, aim point, up hint, vertical field of view."""

    position: tuple[float, float, float]
    look_at: tuple[float, float, float]
    up: tuple[float, float, float] = (0.0, 1.0, 0.0)
    vfov_deg: float = 55.0

    def __post_init__(self):
        if not 0.0 < self.vfov_deg < 180.0:
            raise ConfigError("vfov_deg must be in (0, 180)")
        if self.position == self.look_at:
            raise ConfigError("camera position and look_at coincide")
        try:
            camera_basis(self.position, self.look_at, self.up)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


#: the albedo patterns ``render.albedo_at`` draws
TEXTURE_PATTERNS = ("checker", "stripes", "bands")


@dataclass(frozen=True)
class Texture:
    """A smooth deterministic modulation of a material's albedo: ``pattern``
    repeats every ``scale`` metres and scales the albedo by up to
    ``1 ± contrast``; see ``render.albedo_at``."""

    pattern: str
    scale: float
    contrast: float

    def __post_init__(self):
        if self.pattern not in TEXTURE_PATTERNS:
            raise ConfigError(f"texture pattern must be one of {', '.join(TEXTURE_PATTERNS)}, "
                              f"got {self.pattern!r}")
        if not 0.0 < self.scale < math.inf:
            raise ConfigError("texture scale must be finite and > 0")
        if not 0.0 <= self.contrast < math.inf:
            raise ConfigError("texture contrast must be finite and >= 0")


@dataclass(frozen=True)
class Material:
    """Surface material: diffuse albedo, gray specular weight, emission.

    ``kind`` classifies the surface for patch taxonomy purposes:
    ``"diffuse"`` or ``"specular"``.  ``texture`` optionally modulates the
    albedo as a deterministic function of the hit point.
    """

    name: str
    kind: str = "diffuse"
    albedo: tuple[float, float, float] = (0.5, 0.5, 0.5)
    specular: float = 0.0
    emissive: tuple[float, float, float] = (0.0, 0.0, 0.0)
    texture: Texture | None = None

    def __post_init__(self):
        if self.kind not in ("diffuse", "specular"):
            raise ConfigError(f"unknown material kind {self.kind!r}")
        if not 0.0 <= self.specular <= 1.0:
            raise ConfigError("specular weight must be in [0, 1]")


@dataclass(frozen=True)
class DynamicsScript:
    """Scripted temporal variation: ordered (frame, parameter path, value) keys.

    Supported parameter paths:

    * ``lights.<index>.intensity_scale`` -- multiplier on the base intensity.
    * ``medium.density_scale``           -- multiplier on the base betas.
    * ``objects.<index>.velocity``       -- per-frame displacement vector; the
      object's position at frame t is offset by the sum of the per-frame
      values over frames 0..t-1 (step interpolation).

    Values are held piecewise-constant between keyframes.
    """

    keyframes: tuple = ()

    def __post_init__(self):
        last_t = {}
        for entry in self.keyframes:
            if len(entry) != 3:
                raise ConfigError(f"keyframe must be (t, path, value), got {entry!r}")
            t, path, value = entry
            if not isinstance(t, int) or t < 0:
                raise ConfigError(f"keyframe time must be a non-negative int, got {t!r}")
            # a velocity is a per-frame displacement, every other parameter a scale
            size = 3 if path.endswith(".velocity") else None
            if (len(value) if isinstance(value, tuple) else None) != size:
                raise ConfigError(f"keyframe value of {path!r} must be "
                                  f"{'3 numbers' if size else 'a number'}, got {value!r}")
            if path in last_t and t <= last_t[path]:
                raise ConfigError(
                    f"keyframe times for {path!r} must be strictly increasing"
                )
            last_t[path] = t

    def value_at(self, path: str, t: int, default):
        """Step-interpolated value of ``path`` at frame ``t``."""
        value = default
        for kt, kpath, kval in self.keyframes:
            if kpath != path:
                continue
            if kt <= t:
                value = kval
            else:
                break  # per-path times strictly increase; no later key applies
        return value

    def displacement_at(self, path: str, t: int):
        """Accumulated displacement for a velocity path over frames 0..t-1."""
        dx = dy = dz = 0.0
        for tau in range(t):
            v = self.value_at(path, tau, (0.0, 0.0, 0.0))
            dx += v[0]
            dy += v[1]
            dz += v[2]
        return (dx, dy, dz)

    def paths(self):
        return {path for _, path, _ in self.keyframes}


@dataclass(frozen=True)
class SceneObject:
    """One instantiated object: its mark, primitives, and dynamic flag.

    ``y_offset`` accumulates vertical translation from dynamics so rigid
    displacement between two frames is recoverable as a full 3-vector.
    """

    object_id: int
    mark: CuboidMark
    primitives: tuple
    dynamic: bool = False
    y_offset: float = 0.0

    def anchor(self) -> tuple[float, float, float]:
        """Reference point tracking rigid translation (x, y, z)."""
        return (self.mark.position[0], self.y_offset, self.mark.position[1])

    def translated(self, offset) -> "SceneObject":
        """Copy with mark and every primitive shifted by (dx, dy, dz)."""
        dx, dy, dz = offset
        mark = dataclasses.replace(
            self.mark, position=(self.mark.position[0] + dx, self.mark.position[1] + dz)
        )
        prims = tuple(p.translated(offset) for p in self.primitives)
        return dataclasses.replace(
            self, mark=mark, primitives=prims, y_offset=self.y_offset + dy
        )

    @functools.cached_property
    def json_fragment(self) -> str:
        """This object's entry in ``SceneGraph.to_json``, encoded once at its
        place in the document's ``objects`` list.  The entry holds its
        mark's fields as its own."""
        return _writer(SceneObject, 2, "mark")(self)


#: a keyframe's value is a velocity, a list of numbers, or else a scale
_KEYFRAME = _Kind(
    "a [frame, path, value] list, its value a number >= 0 or a list of numbers",
    lambda v: isinstance(v, list) and len(v) == 3 and _INTEGER.test(v[0]) and isinstance(v[1], str)
    and (_NUMBER.test(v[2]) and v[2] >= 0
         or isinstance(v[2], list) and all(map(_NUMBER.test, v[2]))),
    lambda v: (v[0], v[1], tuple(map(float, v[2])) if isinstance(v[2], list) else float(v[2])))

#: the metadata of a DynamicsScript field: a document holds the script as
#: the JSON list of its keyframes, at its "dynamics" key
DYNAMICS_FIELD = {"kind": _LIST._replace(load=lambda keyframes: _construct(
    DynamicsScript, {"keyframes": _items(_KEYFRAME, keyframes, "dynamics")}, "dynamics"))}


def _read_primitives(docs, path):
    """The primitives of the JSON list ``docs`` at ``path``, each read by
    the compiled reader of the type its ``kind`` names."""
    try:
        return tuple([_reader(PRIMITIVES[doc["kind"]])(doc, f"{path}[{i}]")
                      for i, doc in enumerate(docs)])
    except (TypeError, KeyError):  # an entry of no known kind: the first is named
        i, kind = next((i, doc.get("kind") if isinstance(doc, dict) else None)
                       for i, doc in enumerate(docs)
                       if not isinstance(doc, dict) or doc.get("kind") not in FAMILIES)
        raise ConfigError(f"unknown primitive kind {kind!r}",
                          json_path=f"{path}[{i}].kind") from None


def _read_object(doc, path):
    """The SceneObject of its JSON entry ``doc`` at ``path``, which holds
    its mark's fields as its own."""
    return _reader(SceneObject, inline="mark")(doc, path, primitives=_read_primitives)


def _read_texture(doc, path):
    """The Texture of its JSON block ``doc`` at ``path``, or None."""
    return None if doc is None else _reader(Texture)(doc, path)


def _read_materials(docs, path):
    """The materials of the JSON object ``docs`` at ``path``, by their ids:
    each key is an id as ``str`` writes an int, so no two keys name one id."""
    materials = {}
    for key, doc in docs.items():
        try:
            mid = int(key)
        except ValueError:
            mid = None
        if mid is None or str(mid) != key:
            raise ConfigError("material id must be an integer written without '+', spaces, "
                              "underscores or leading zeros", json_path=f"{path}.{key}")
        materials[mid] = _reader(Material)(doc, f"{path}.{key}", texture=_read_texture)
    return materials


def _require_manhattan(manhattan):
    """Every object is an axis-aligned box: nothing renders a rotated one."""
    if not manhattan:
        raise ConfigError("only Manhattan scenes are supported: manhattan must be true",
                          json_path="manhattan")


@dataclass(frozen=True)
class SceneGraph:
    """A fully realized world sample, deterministic in (config, seed)."""

    objects: tuple
    materials: dict[int, Material]
    lights: tuple
    medium: MediumSpec
    camera: CameraSpec
    dynamics: DynamicsScript = dataclasses.field(metadata=DYNAMICS_FIELD)
    seed: int
    world_bounds: tuple[float, float, float, float]
    manhattan: bool = True

    def __post_init__(self):
        for i, obj in enumerate(self.objects):
            for j, prim in enumerate(obj.primitives):
                if prim.material not in self.materials:
                    raise ConfigError(
                        f"object {obj.object_id} references unknown material "
                        f"id {prim.material}", json_path=f"objects[{i}].primitives[{j}].material"
                    )
        _require_manhattan(self.manhattan)
        for i, obj in enumerate(self.objects):
            if obj.mark.yaw != 0.0:
                raise ConfigError("manhattan scene requires yaw = 0 on all marks",
                                  json_path=f"objects[{i}].yaw")

    def object_by_id(self, object_id: int) -> SceneObject:
        for obj in self.objects:
            if obj.object_id == object_id:
                return obj
        raise KeyError(object_id)

    def material_kinds(self) -> dict[int, str]:
        return {mid: m.kind for mid, m in self.materials.items()}

    @functools.cached_property
    def soup(self) -> PrimitiveSoup:
        """The objects' primitives flattened for tracing, built once."""
        return PrimitiveSoup.from_scene(self)

    # -- canonical JSON ---------------------------------------------------

    def to_json(self) -> str:
        """Sorted keys, one-space indent: ``json.dumps(doc, sort_keys=True,
        indent=1)`` of the whole document, with each object's entry taken
        from its ``json_fragment``."""
        return _writer(SceneGraph, 0, given=("objects", "materials", "dynamics"))(
            self, objects=_layout("[", [o.json_fragment for o in self.objects], "]", 1),
            materials=_text({str(mid): m for mid, m in self.materials.items()}, 1),
            dynamics=_text(self.dynamics.keyframes, 1))

    @classmethod
    def from_json(cls, text: str) -> "SceneGraph":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid scene JSON: {exc}") from exc
        return _reader(cls)(doc, None, objects=_each(_read_object),
                            materials=_read_materials, lights=_each(_reader(LightSpec)),
                            medium=_reader(MediumSpec), camera=_reader(CameraSpec))
