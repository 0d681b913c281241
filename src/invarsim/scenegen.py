"""Stochastic Manhattan-world scene sampling.

Scenes are drawn from a marked point process: object class from a categorical
prior, cuboid dimensions from class-conditional Gaussians (truncated at three
standard deviations, clamped positive), position uniform over the free cells
of a region occupancy map, orientation fixed axis-aligned.  Rejection
sampling enforces pairwise-disjoint footprints.  Everything is a
deterministic function of (config, seed).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .codec import _LIST, _NUMBER, _construct, _each, _items, _Kind, _list_of, _reader
from .errors import ConfigError, DynamicsPathError, OutOfBoundsError, PlacementError
from .geometry import Box, Cylinder, Rect, Sphere
from .scene import (
    COLLIDING_CLASSES,
    DYNAMIC_CLASSES,
    DYNAMICS_FIELD,
    WEATHER_PRESETS,
    CameraSpec,
    ClassPrior,
    ClassPriors,
    CuboidMark,
    DynamicsScript,
    LightSpec,
    Material,
    MediumSpec,
    ObjectClass,
    SceneGraph,
    SceneObject,
    Texture,
    _require_manhattan,
)

DEFAULT_CELL_SIZE = 0.5
DEFAULT_MAX_ATTEMPTS = 1000


class OccupancyMap:
    """Boolean raster over the bounded ground region.

    A cell is True iff it is covered by at least one accepted footprint.
    Queries dilate the footprint by half a cell, so they are conservative:
    a footprint reported free is guaranteed not to overlap any accepted one.
    """

    def __init__(self, bounds, cell_size=DEFAULT_CELL_SIZE):
        x0, z0, x1, z1 = bounds  # checked by SceneConfig, as is cell_size
        self.bounds = (float(x0), float(z0), float(x1), float(z1))
        self.cell_size = float(cell_size)
        self.nx = int(math.ceil((x1 - x0) / cell_size))
        self.nz = int(math.ceil((z1 - z0) / cell_size))
        self.grid = np.zeros((self.nz, self.nx), dtype=bool)

    def _cell_span(self, rect):
        """Half-open index ranges of cells intersecting ``rect`` with area."""
        x0, z0, x1, z1 = self.bounds
        cs = self.cell_size
        ix0 = max(0, int(math.floor((rect[0] - x0) / cs)))
        iz0 = max(0, int(math.floor((rect[1] - z0) / cs)))
        ix1 = min(self.nx, int(math.ceil((rect[2] - x0) / cs)))
        iz1 = min(self.nz, int(math.ceil((rect[3] - z0) / cs)))
        return ix0, iz0, ix1, iz1

    def in_bounds(self, footprint):
        x0, z0, x1, z1 = self.bounds
        return (
            footprint[0] >= x0
            and footprint[1] >= z0
            and footprint[2] <= x1
            and footprint[3] <= z1
        )

    def is_free(self, footprint):
        """True iff the half-cell-dilated footprint meets no covered cell."""
        if not self.in_bounds(footprint):
            raise OutOfBoundsError(
                f"footprint {footprint!r} outside world bounds {self.bounds!r}"
            )
        half = self.cell_size / 2.0
        dilated = (
            footprint[0] - half,
            footprint[1] - half,
            footprint[2] + half,
            footprint[3] + half,
        )
        ix0, iz0, ix1, iz1 = self._cell_span(dilated)
        if ix0 >= ix1 or iz0 >= iz1:
            return True
        return not self.grid[iz0:iz1, ix0:ix1].any()

    def mark(self, footprint):
        """Cover every cell the footprint intersects."""
        ix0, iz0, ix1, iz1 = self._cell_span(footprint)
        self.grid[iz0:iz1, ix0:ix1] = True


class MaterialRegistry:
    """Assigns stable integer ids to materials in creation order."""

    def __init__(self):
        self._by_name: dict[str, int] = {}
        self.materials: dict[int, Material] = {}

    def add(self, material: Material) -> int:
        if material.name in self._by_name:
            return self._by_name[material.name]
        mid = len(self.materials)
        self.materials[mid] = material
        self._by_name[material.name] = mid
        return mid


_FACADE_PALETTE = [
    ((0.58, 0.42, 0.32), "brick"),
    ((0.58, 0.58, 0.55), "concrete"),
    ((0.62, 0.54, 0.38), "sandstone"),
    ((0.46, 0.50, 0.55), "slate"),
]

_VEHICLE_PALETTE = [
    (0.68, 0.16, 0.12),
    (0.14, 0.26, 0.58),
    (0.72, 0.70, 0.66),
    (0.20, 0.22, 0.24),
]


@dataclass(frozen=True)
class ObjectSpec:
    """An object to instantiate: its mark, shape style, whether it moves (None:
    as its class does), and a building's window grid and facade contrast."""

    mark: CuboidMark
    style: int = 0
    dynamic: bool | None = None
    window_grid: tuple[int, int] | None = None
    facade_contrast: float | None = None

    def __post_init__(self):
        if self.facade_contrast is not None and not self.facade_contrast >= 0.0:
            raise ConfigError("facade_contrast must be >= 0")


def instantiate_geometry(spec: ObjectSpec, registry: MaterialRegistry):
    """Parametric primitives for one object, fitted inside its mark's cuboid.

    Buildings get a diffuse facade box plus a regular grid of glassy window
    rectangles on the -z face (a rows*cols == 0 grid disables them); trees
    are a trunk cylinder plus a crown sphere; vehicles and pedestrians are
    diffuse boxes, vehicles with an emissive rear patch on odd styles.
    Returns a tuple of primitives.
    """
    mark, style = spec.mark, spec.style
    x, z = mark.position
    l, b, h = mark.length, mark.breadth, mark.height
    x0, z0, x1, z1 = mark.footprint()
    cls = mark.object_class

    if cls is ObjectClass.BUILDING:
        base, label = _FACADE_PALETTE[style % len(_FACADE_PALETTE)]
        contrast = 0.35 if spec.facade_contrast is None else spec.facade_contrast
        facade = registry.add(Material(
            name=f"facade_{label}_{contrast:g}",
            albedo=base,
            texture=Texture("bands", 4.0, contrast),
        ))
        glass = registry.add(Material(
            name="window_glass",
            kind="specular",
            albedo=(0.04, 0.05, 0.06),
            specular=0.70,
        ))
        prims = [Box((x0, 0.0, z0), (x1, h, z1), facade)]
        if spec.window_grid is not None:
            rows, cols = spec.window_grid
        else:
            rows = max(1, min(8, int(h // 3)))
            cols = max(1, min(10, int(l // 3)))
        if rows * cols == 0:
            return tuple(prims)
        cell_w = l / cols
        cell_h = h / rows
        win_w = 0.55 * cell_w
        win_h = 0.55 * cell_h
        for r in range(rows):
            cy = (r + 0.5) * cell_h
            for c in range(cols):
                cx = x0 + (c + 0.5) * cell_w
                prims.append(Rect(axis=2, offset=z0, u=(cx - win_w / 2.0, cx + win_w / 2.0),
                                  v=(cy - win_h / 2.0, cy + win_h / 2.0), material=glass))
        return tuple(prims)

    if cls is ObjectClass.TREE:
        trunk = registry.add(Material(name="tree_trunk", albedo=(0.30, 0.22, 0.15)))
        crown = registry.add(Material(
            name="tree_crown",
            albedo=(0.14, 0.32, 0.13),
            texture=Texture("checker", 0.4, 0.25),
        ))
        radius = min(l, b) / 2.0
        radius = min(radius, h / 2.0)
        trunk_r = max(0.05, 0.08 * min(l, b))
        center_y = h - radius
        return (Cylinder(center=(x, z), radius=trunk_r, y0=0.0, y1=center_y, material=trunk),
                Sphere(center=(x, center_y, z), radius=radius, material=crown))

    if cls is ObjectClass.VEHICLE:
        body = registry.add(Material(
            name=f"vehicle_body_{style % len(_VEHICLE_PALETTE)}",
            albedo=_VEHICLE_PALETTE[style % len(_VEHICLE_PALETTE)],
            texture=Texture("stripes", 1.2, 0.30),
        ))
        prims = [Box((x0, 0.0, z0), (x1, h, z1), body)]
        if style % 2 == 1:
            lamp = registry.add(Material(
                name="brake_light",
                albedo=(0.10, 0.02, 0.02),
                emissive=(0.80, 0.04, 0.04),
            ))
            prims.append(Rect(axis=0, offset=x0, u=(0.30 * h, 0.50 * h),
                              v=(z0 + 0.15 * b, z1 - 0.15 * b), material=lamp))
        return tuple(prims)

    if cls is ObjectClass.PEDESTRIAN:
        mat = registry.add(Material(name="pedestrian", albedo=(0.36, 0.26, 0.22)))
        return (Box((x0, 0.0, z0), (x1, h, z1), mat),)

    if cls is ObjectClass.GROUND:
        mat = registry.add(Material(
            name="ground",
            albedo=(0.42, 0.40, 0.37),
            texture=Texture("checker", 3.5, 0.35),
        ))
        return (Box((x0, -h, z0), (x1, 0.0, z1), mat),)

    if cls is ObjectClass.ROAD:
        mat = registry.add(Material(
            name="road",
            albedo=(0.19, 0.19, 0.20),
            texture=Texture("stripes", 3.0, 0.30),
        ))
        return (Box((x0, 0.0, z0), (x1, 0.02, z1), mat),)

    raise ConfigError(f"no geometry template for class {cls!s}")


#: a scene config's weather: a preset's name, or a medium whose beta must be
#: given, Fog unless tagged
_WEATHER = _Kind(f"one of {', '.join(WEATHER_PRESETS)} or a JSON object",
                 lambda v: isinstance(v, dict) or isinstance(v, str) and v in WEATHER_PRESETS,
                 lambda v: WEATHER_PRESETS[v] if isinstance(v, str) else _reader(
                     MediumSpec, True, require=("beta",))({"weather_tag": "Fog", **v}, "weather"))


@dataclass(frozen=True)
class SceneConfig:
    """Parsed scene configuration: priors, bounds, fixtures, photometry.  Each
    field holds a key of a scene config: its ``json_key``, or its name."""

    world_bounds: tuple[float, float, float, float]
    manhattan: bool = True
    cell_size: float = DEFAULT_CELL_SIZE
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    priors: ClassPriors | None = dataclasses.field(
        default=None, metadata={"json_key": "classes", "kind": _LIST})
    count_total: int | None = dataclasses.field(default=None,
                                                metadata={"json_key": "counts.total"})
    explicit_objects: tuple = dataclasses.field(default=(), metadata={"json_key": "objects"})
    ground: bool = True
    roads: tuple = ()
    lights: tuple = dataclasses.field(  # left out: the default sky and sun
        default_factory=lambda: _read_lights(default_lights_doc(), "lights"))
    medium: MediumSpec = dataclasses.field(default=MediumSpec(),
                                           metadata={"json_key": "weather", "kind": _WEATHER})
    camera: CameraSpec = CameraSpec(position=(0.0, 4.0, -20.0), look_at=(0.0, 4.0, 10.0))
    dynamics: DynamicsScript = dataclasses.field(default=DynamicsScript(), metadata=DYNAMICS_FIELD)
    seed: int = 0  #: read by ``invarsim sample`` unless ``--seed`` is given

    def __post_init__(self):
        _require_manhattan(self.manhattan)
        rects = [("world_bounds", self.world_bounds)]
        rects += [(f"roads[{i}]", road) for i, road in enumerate(self.roads)]
        for path, (x0, z0, x1, z1) in rects:
            if not (x1 > x0 and z1 > z0):
                raise ConfigError("[x0, z0, x1, z1] must have x1 > x0 and z1 > z0",
                                  json_path=path)
        if self.cell_size <= 0:
            raise ConfigError("cell_size must be > 0", json_path="cell_size")
        if self.count_total is not None:
            if self.count_total < 0:
                raise ConfigError("counts.total must be >= 0", json_path="counts.total")
            if self.priors is None:
                raise ConfigError("counts.total requires classes[]", json_path="counts")

    @classmethod
    def from_dict(cls, doc: dict) -> "SceneConfig":
        """The scene config of JSON object ``doc``, in which a key is optional
        when its field has a default, and a camera of ``{}`` is the default
        camera; ConfigError names a bad value's path."""
        return _reader(cls, True)(
            doc, None, priors=_read_classes, roads=functools.partial(_items, _ROAD),
            explicit_objects=_each(_reader(ObjectSpec, True, "mark", ("yaw",))),
            lights=_read_lights, camera=lambda camera, path: (
                _reader(CameraSpec, True)(camera, path) if camera else cls.camera))


@dataclass(frozen=True)
class _ClassEntry:
    """A ``classes[]`` entry of a scene config: a class, and its prior,
    whose fields the entry holds as its own."""

    object_class: ObjectClass = dataclasses.field(metadata={"json_key": "class"})
    prior: ClassPrior


def _read_classes(docs, path):
    """The ClassPriors of a scene config's ``classes[]`` entries at
    ``path``, or None for no entry; a second entry of a class is a
    ConfigError at its ``class``."""
    classes = {}
    for i, entry in enumerate(_each(_reader(_ClassEntry, True, "prior"))(docs, path)):
        if entry.object_class in classes:
            raise ConfigError(f"class {entry.object_class.value!r} has two entries",
                              json_path=f"{path}[{i}].class")
        classes[entry.object_class] = entry.prior
    return _construct(ClassPriors, {"classes": classes}, path) if classes else None


def _read_lights(docs, path):
    """The ``lights[]`` of a scene config."""
    return _each(_reader(LightSpec, True))(docs, path)


_ROAD = _list_of(4, _NUMBER)  #: [x0, z0, x1, z1]


def default_lights_doc():
    """Default photometry: white ambient sky plus a warm mid-season sun.

    The sun azimuth is chosen so tall objects throw shadows across the
    scene toward -x while surfaces facing -z still catch direct light.
    """
    return [
        {"kind": "ambient", "color": [1.0, 1.0, 1.0], "intensity": 0.35, "name": "sky"},
        {"kind": "directional", "color": [1.0, 0.97, 0.92], "intensity": 0.9,
         "direction": [-0.55, -0.65, 0.20], "name": "sun"},
    ]


def _truncated_gaussian(rng, mean, std, minimum=0.05):
    """Gaussian draw truncated at +/- 3 sigma and clamped positive."""
    if std == 0.0:
        return max(mean, minimum)
    for _ in range(64):
        v = rng.normal(mean, std)
        if abs(v - mean) <= 3.0 * std and v > minimum:
            return v
    return max(minimum, min(mean + 3.0 * std, max(mean - 3.0 * std, mean)))


def sample_scene(config: SceneConfig, seed: int) -> SceneGraph:
    """Draw one SceneGraph from the marked point process.

    Fixtures (ground slab, road strips, explicit objects) are placed first
    and their footprints marked; sampled objects then reject against the
    occupancy map.  Raises PlacementError when an object cannot be placed
    within ``config.max_attempts`` tries.
    """
    rng = np.random.default_rng(int(seed))
    occupancy = OccupancyMap(config.world_bounds, config.cell_size)
    registry = MaterialRegistry()
    objects = []

    def add_object(spec):
        prims = instantiate_geometry(spec, registry)
        dynamic = spec.dynamic
        if dynamic is None:
            dynamic = spec.mark.object_class in DYNAMIC_CLASSES
        objects.append(SceneObject(object_id=len(objects), mark=spec.mark,
                                   primitives=prims, dynamic=dynamic))

    x0, z0, x1, z1 = config.world_bounds
    slabs = [(config.world_bounds, 0.2, ObjectClass.GROUND)] if config.ground else []
    slabs += [(road, 0.02, ObjectClass.ROAD) for road in config.roads]
    for (sx0, sz0, sx1, sz1), height, object_class in slabs:
        add_object(ObjectSpec(CuboidMark(((sx0 + sx1) / 2.0, (sz0 + sz1) / 2.0),
                                         sx1 - sx0, sz1 - sz0, height, object_class)))

    for i, spec in enumerate(config.explicit_objects):
        footprint = spec.mark.footprint()
        if spec.mark.object_class in COLLIDING_CLASSES:
            if not occupancy.in_bounds(footprint):
                raise ConfigError("explicit footprint outside world bounds",
                                  json_path=f"objects[{i}]")
            occupancy.mark(footprint)
        add_object(spec)

    if config.priors is not None and config.count_total:
        class_list = config.priors.class_list()
        probs = np.array([config.priors.classes[c].probability for c in class_list])
        draws = rng.choice(len(class_list), size=config.count_total, p=probs)
        for draw in draws:
            oc = class_list[int(draw)]
            prior = config.priors.classes[oc]
            l = _truncated_gaussian(rng, *prior.length)
            b = _truncated_gaussian(rng, *prior.breadth)
            h = _truncated_gaussian(rng, *prior.height)
            style = int(rng.integers(0, 1 << 16))
            if oc not in COLLIDING_CLASSES:
                px = rng.uniform(x0 + l / 2.0, x1 - l / 2.0)
                pz = rng.uniform(z0 + b / 2.0, z1 - b / 2.0)
                add_object(ObjectSpec(CuboidMark((px, pz), l, b, h, oc), style))
                continue
            if x1 - x0 < l or z1 - z0 < b:
                raise PlacementError(oc, 0)
            placed = False
            for _ in range(config.max_attempts):
                px = rng.uniform(x0 + l / 2.0, x1 - l / 2.0)
                pz = rng.uniform(z0 + b / 2.0, z1 - b / 2.0)
                mark = CuboidMark((px, pz), l, b, h, oc)
                if occupancy.is_free(mark.footprint()):
                    occupancy.mark(mark.footprint())
                    add_object(ObjectSpec(mark, style))
                    placed = True
                    break
            if not placed:
                raise PlacementError(oc, config.max_attempts)

    scene = SceneGraph(
        objects=tuple(objects),
        materials=registry.materials,
        lights=config.lights,
        medium=config.medium,
        camera=config.camera,
        dynamics=config.dynamics,
        seed=int(seed),
        world_bounds=config.world_bounds,
        manhattan=config.manhattan,
    )
    for i, (_, path, _) in enumerate(scene.dynamics.keyframes):
        _target(scene, path, f"dynamics[{i}]")
    return scene


def apply_dynamics(scene: SceneGraph, t: int) -> SceneGraph:
    """Scene state at frame ``t`` under the scene's dynamics script.

    Pure: always derived from the base scene, never from a previous frame.
    Unknown parameter paths raise DynamicsPathError.
    """
    if t < 0:
        raise DynamicsPathError(f"frame index must be >= 0, got {t}")
    script = scene.dynamics
    if not script.keyframes:
        return scene

    lights = list(scene.lights)
    medium = scene.medium
    objects = list(scene.objects)

    for path in sorted(script.paths()):
        block, idx = _target(scene, path)
        if block == "lights":
            scale = script.value_at(path, t, 1.0)
            base = lights[idx]
            lights[idx] = dataclasses.replace(base, intensity=base.intensity * scale)
        elif block == "medium":
            medium = scene.medium.scaled(script.value_at(path, t, 1.0))
        else:
            offset = script.displacement_at(path, t)
            if offset != (0.0, 0.0, 0.0):
                objects[idx] = objects[idx].translated(offset)

    return dataclasses.replace(
        scene, lights=tuple(lights), medium=medium, objects=tuple(objects)
    )


#: the parameter of each indexed block that a keyframe path may set
_PARAMETERS = {"lights": "intensity_scale", "objects": "velocity"}


def _target(scene, path, where=None):
    """(block, index) of the value of ``scene`` that keyframe ``path`` sets:
    ("lights", i), ("medium", None) or ("objects", i); DynamicsPathError,
    naming json_path ``where``, if it sets none."""
    if path == "medium.density_scale":
        return "medium", None
    parts = path.split(".")
    if len(parts) != 3 or _PARAMETERS.get(parts[0]) != parts[2]:
        raise DynamicsPathError(f"unresolved parameter path {path!r}", json_path=where)
    try:
        idx = int(parts[1])
    except ValueError:
        raise DynamicsPathError(f"bad index in parameter path {path!r}", json_path=where) from None
    if not 0 <= idx < len(getattr(scene, parts[0])):
        raise DynamicsPathError(f"index out of range in parameter path {path!r}", json_path=where)
    return parts[0], idx


def validation_scene_config() -> dict:
    """The fixed city-block scene used by the default validation protocols.

    One wide textured facade with two storefront windows faces the camera,
    a second tall near-untextured tower (homogeneous patches) casts a
    shadow band diagonally across the facade and ground, a tree adds
    curved geometry, and a van-sized dynamic vehicle sits close to the
    camera so occlusion patches are available at all default scales.
    """
    return {
        "world_bounds": [-50.0, -50.0, 50.0, 50.0],
        "manhattan": True,
        "ground": True,
        "roads": [[-50.0, -6.0, 50.0, 0.0]],
        "objects": [
            {"class": "Building", "position": [2.0, 24.0], "length": 30.0,
             "breadth": 12.0, "height": 18.0, "style": 0, "window_grid": [1, 2]},
            {"class": "Building", "position": [21.0, 10.0], "length": 20.0,
             "breadth": 10.0, "height": 26.0, "style": 1, "window_grid": [0, 0],
             "facade_contrast": 0.012},
            {"class": "Tree", "position": [8.0, 2.0], "length": 4.0,
             "breadth": 4.0, "height": 7.0, "style": 0},
            {"class": "Vehicle", "position": [-4.0, -9.0], "length": 8.0,
             "breadth": 3.0, "height": 3.6, "style": 1, "dynamic": True},
        ],
        "lights": default_lights_doc(),
        "weather": "Clear",
        "camera": {"position": [0.0, 4.5, -22.0], "look_at": [0.0, 3.5, 10.0],
                   "vfov_deg": 55.0},
        "dynamics": [],
    }
