"""Realized scene state: objects, materials, lights, medium, camera, dynamics.

A ``SceneGraph`` is the full description of one sampled world.  It is a plain
value object: construction validates invariants, after which instances are
treated as immutable and are safe to share across threads.  Everything a
renderer needs is derivable from it, and the JSON export is canonical (sorted
keys) so two exports of the same graph are byte-identical and diffable.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from dataclasses import dataclass

from .errors import ConfigError
from .geometry import RECT_UV

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
    for completeness but is always 0 in Manhattan mode.
    """

    position: tuple[float, float]
    length: float
    breadth: float
    height: float
    object_class: ObjectClass
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
    count_range: tuple[int, int] | None = None

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


@dataclass(frozen=True)
class Material:
    """Surface material: diffuse albedo, gray specular weight, emission.

    ``kind`` classifies the surface for patch taxonomy purposes:
    ``"diffuse"`` or ``"specular"``.  ``texture`` optionally modulates the
    albedo as a deterministic function of the hit point; see
    ``render.albedo_at`` for the supported patterns.
    """

    name: str
    kind: str = "diffuse"
    albedo: tuple[float, float, float] = (0.5, 0.5, 0.5)
    specular: float = 0.0
    emissive: tuple[float, float, float] = (0.0, 0.0, 0.0)
    texture: dict | None = None

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
            t, path, _ = entry
            if not isinstance(t, int) or t < 0:
                raise ConfigError(f"keyframe time must be a non-negative int, got {t!r}")
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
        prims = tuple(_translate_primitive(p, dx, dy, dz) for p in self.primitives)
        return dataclasses.replace(
            self, mark=mark, primitives=prims, y_offset=self.y_offset + dy
        )


def _translate_primitive(p, dx, dy, dz):
    kind = p["kind"]
    q = dict(p)
    if kind == "box":
        q["lo"] = [p["lo"][0] + dx, p["lo"][1] + dy, p["lo"][2] + dz]
        q["hi"] = [p["hi"][0] + dx, p["hi"][1] + dy, p["hi"][2] + dz]
    elif kind == "sphere":
        c = p["center"]
        q["center"] = [c[0] + dx, c[1] + dy, c[2] + dz]
    elif kind == "cylinder":
        q["center"] = [p["center"][0] + dx, p["center"][1] + dz]
        q["y0"] = p["y0"] + dy
        q["y1"] = p["y1"] + dy
    elif kind == "rect":
        # axis is the normal axis; offset moves along it, u/v along the others
        axis = p["axis"]
        d = (dx, dy, dz)
        u_axis, v_axis = RECT_UV[axis]
        q["offset"] = p["offset"] + d[axis]
        q["u"] = [p["u"][0] + d[u_axis], p["u"][1] + d[u_axis]]
        q["v"] = [p["v"][0] + d[v_axis], p["v"][1] + d[v_axis]]
    else:
        raise ConfigError(f"unknown primitive kind {kind!r}")
    return q



@dataclass(frozen=True)
class SceneGraph:
    """A fully realized world sample, deterministic in (config, seed)."""

    objects: tuple
    materials: dict[int, Material]
    lights: tuple
    medium: MediumSpec
    camera: CameraSpec
    dynamics: DynamicsScript
    seed: int
    world_bounds: tuple[float, float, float, float]
    manhattan: bool = True

    def __post_init__(self):
        for obj in self.objects:
            for prim in obj.primitives:
                if prim["material"] not in self.materials:
                    raise ConfigError(
                        f"object {obj.object_id} references unknown material "
                        f"id {prim['material']}"
                    )
        if self.manhattan:
            for obj in self.objects:
                if obj.mark.yaw != 0.0:
                    raise ConfigError("manhattan scene requires yaw = 0 on all marks")

    def object_by_id(self, object_id: int) -> SceneObject:
        for obj in self.objects:
            if obj.object_id == object_id:
                return obj
        raise KeyError(object_id)

    def material_kinds(self) -> dict[int, str]:
        return {mid: m.kind for mid, m in self.materials.items()}

    # -- canonical JSON ---------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "world_bounds": list(self.world_bounds),
            "manhattan": self.manhattan,
            "objects": [
                {
                    "object_id": o.object_id,
                    "class": o.mark.object_class.value,
                    "position": list(o.mark.position),
                    "length": o.mark.length,
                    "breadth": o.mark.breadth,
                    "height": o.mark.height,
                    "yaw": o.mark.yaw,
                    "dynamic": o.dynamic,
                    "y_offset": o.y_offset,
                    "primitives": [dict(p) for p in o.primitives],
                }
                for o in self.objects
            ],
            "materials": {
                str(mid): {
                    "name": m.name,
                    "kind": m.kind,
                    "albedo": list(m.albedo),
                    "specular": m.specular,
                    "emissive": list(m.emissive),
                    "texture": m.texture,
                }
                for mid, m in self.materials.items()
            },
            "lights": [
                {
                    "kind": l.kind,
                    "color": list(l.color),
                    "intensity": l.intensity,
                    "direction": list(l.direction) if l.direction else None,
                    "position": list(l.position) if l.position else None,
                    "cone_deg": l.cone_deg,
                    "name": l.name,
                }
                for l in self.lights
            ],
            "medium": {
                "beta": list(self.medium.beta),
                "anisotropy": self.medium.anisotropy,
                "airlight_color": list(self.medium.airlight_color),
                "weather_tag": self.medium.weather_tag,
                "layer_height": self.medium.layer_height,
            },
            "camera": {
                "position": list(self.camera.position),
                "look_at": list(self.camera.look_at),
                "up": list(self.camera.up),
                "vfov_deg": self.camera.vfov_deg,
            },
            "dynamics": [list(k) for k in self.dynamics.keyframes],
        }
        return json.dumps(doc, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "SceneGraph":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid scene JSON: {exc}") from exc
        objects = tuple(
            SceneObject(
                object_id=o["object_id"],
                mark=CuboidMark(
                    position=tuple(o["position"]),
                    length=o["length"],
                    breadth=o["breadth"],
                    height=o["height"],
                    object_class=ObjectClass(o["class"]),
                    yaw=o.get("yaw", 0.0),
                ),
                primitives=tuple(o["primitives"]),
                dynamic=o.get("dynamic", False),
                y_offset=o.get("y_offset", 0.0),
            )
            for o in doc["objects"]
        )
        materials = {
            int(mid): Material(
                name=m["name"],
                kind=m["kind"],
                albedo=tuple(m["albedo"]),
                specular=m["specular"],
                emissive=tuple(m["emissive"]),
                texture=m["texture"],
            )
            for mid, m in doc["materials"].items()
        }
        lights = tuple(
            LightSpec(
                kind=l["kind"],
                color=tuple(l["color"]),
                intensity=l["intensity"],
                direction=tuple(l["direction"]) if l.get("direction") else None,
                position=tuple(l["position"]) if l.get("position") else None,
                cone_deg=l.get("cone_deg"),
                name=l.get("name", ""),
            )
            for l in doc["lights"]
        )
        med = doc["medium"]
        cam = doc["camera"]
        return cls(
            objects=objects,
            materials=materials,
            lights=lights,
            medium=MediumSpec(
                beta=tuple(med["beta"]),
                anisotropy=med["anisotropy"],
                airlight_color=tuple(med["airlight_color"]),
                weather_tag=med["weather_tag"],
                layer_height=med.get("layer_height", 60.0),
            ),
            camera=CameraSpec(
                position=tuple(cam["position"]),
                look_at=tuple(cam["look_at"]),
                up=tuple(cam["up"]),
                vfov_deg=cam["vfov_deg"],
            ),
            dynamics=DynamicsScript(tuple((k[0], k[1], k[2]) for k in doc["dynamics"])),
            seed=doc["seed"],
            world_bounds=tuple(doc["world_bounds"]),
            manhattan=doc["manhattan"],
        )
