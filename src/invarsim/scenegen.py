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
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DynamicsPathError, OutOfBoundsError, PlacementError,
                     reject_unknown_keys)
from .scene import (
    COLLIDING_CLASSES,
    DYNAMIC_CLASSES,
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
        x0, z0, x1, z1 = bounds
        if not (x1 > x0 and z1 > z0):
            raise ConfigError(f"degenerate world bounds {bounds!r}")
        if cell_size <= 0:
            raise ConfigError("cell_size must be > 0")
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


def check_placement(occupancy: OccupancyMap, footprint) -> bool:
    """Whether ``footprint`` can be accepted against the occupancy map."""
    return occupancy.is_free(footprint)


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


def instantiate_geometry(mark: CuboidMark, shape_style: int, registry: MaterialRegistry,
                         window_grid: tuple[int, int] | None = None,
                         facade_contrast: float | None = None):
    """Parametric primitives for one mark, fitted inside its cuboid.

    Buildings get a diffuse facade box plus a regular grid of glassy window
    rectangles on the -z face (a rows*cols == 0 grid disables them); trees
    are a trunk cylinder plus a crown sphere; vehicles and pedestrians are
    diffuse boxes, vehicles with an emissive rear patch on odd styles.
    Returns a tuple of primitive dicts.
    """
    x, z = mark.position
    l, b, h = mark.length, mark.breadth, mark.height
    x0, z0, x1, z1 = mark.footprint()
    cls = mark.object_class
    style = int(shape_style)

    if cls is ObjectClass.BUILDING:
        base, label = _FACADE_PALETTE[style % len(_FACADE_PALETTE)]
        contrast = 0.35 if facade_contrast is None else float(facade_contrast)
        facade = registry.add(Material(
            name=f"facade_{label}_{contrast:g}",
            albedo=base,
            texture={"pattern": "bands", "scale": 4.0, "contrast": contrast},
        ))
        glass = registry.add(Material(
            name="window_glass",
            kind="specular",
            albedo=(0.04, 0.05, 0.06),
            specular=0.70,
        ))
        prims = [{"kind": "box", "lo": [x0, 0.0, z0], "hi": [x1, h, z1], "material": facade}]
        if window_grid is not None:
            rows, cols = window_grid
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
                prims.append({
                    "kind": "rect",
                    "axis": 2,
                    "offset": z0,
                    "u": [cx - win_w / 2.0, cx + win_w / 2.0],
                    "v": [cy - win_h / 2.0, cy + win_h / 2.0],
                    "material": glass,
                })
        return tuple(prims)

    if cls is ObjectClass.TREE:
        trunk = registry.add(Material(name="tree_trunk", albedo=(0.30, 0.22, 0.15)))
        crown = registry.add(Material(
            name="tree_crown",
            albedo=(0.14, 0.32, 0.13),
            texture={"pattern": "checker", "scale": 0.4, "contrast": 0.25},
        ))
        radius = min(l, b) / 2.0
        radius = min(radius, h / 2.0)
        trunk_r = max(0.05, 0.08 * min(l, b))
        center_y = h - radius
        return (
            {"kind": "cylinder", "center": [x, z], "radius": trunk_r,
             "y0": 0.0, "y1": center_y, "material": trunk},
            {"kind": "sphere", "center": [x, center_y, z], "radius": radius,
             "material": crown},
        )

    if cls is ObjectClass.VEHICLE:
        body = registry.add(Material(
            name=f"vehicle_body_{style % len(_VEHICLE_PALETTE)}",
            albedo=_VEHICLE_PALETTE[style % len(_VEHICLE_PALETTE)],
            texture={"pattern": "stripes", "scale": 1.2, "contrast": 0.30},
        ))
        prims = [{"kind": "box", "lo": [x0, 0.0, z0], "hi": [x1, h, z1], "material": body}]
        if style % 2 == 1:
            lamp = registry.add(Material(
                name="brake_light",
                albedo=(0.10, 0.02, 0.02),
                emissive=(0.80, 0.04, 0.04),
            ))
            prims.append({
                "kind": "rect",
                "axis": 0,
                "offset": x0,
                "u": [0.30 * h, 0.50 * h],
                "v": [z0 + 0.15 * b, z1 - 0.15 * b],
                "material": lamp,
            })
        return tuple(prims)

    if cls is ObjectClass.PEDESTRIAN:
        mat = registry.add(Material(name="pedestrian", albedo=(0.36, 0.26, 0.22)))
        return ({"kind": "box", "lo": [x0, 0.0, z0], "hi": [x1, h, z1], "material": mat},)

    if cls is ObjectClass.GROUND:
        mat = registry.add(Material(
            name="ground",
            albedo=(0.42, 0.40, 0.37),
            texture={"pattern": "checker", "scale": 3.5, "contrast": 0.35},
        ))
        return ({"kind": "box", "lo": [x0, -h, z0], "hi": [x1, 0.0, z1], "material": mat},)

    if cls is ObjectClass.ROAD:
        mat = registry.add(Material(
            name="road",
            albedo=(0.19, 0.19, 0.20),
            texture={"pattern": "stripes", "scale": 3.0, "contrast": 0.30},
        ))
        return ({"kind": "box", "lo": [x0, 0.0, z0], "hi": [x1, 0.02, z1], "material": mat},)

    raise ConfigError(f"no geometry template for class {cls!s}")


#: the ``reject_unknown_keys`` table of a scene config; ``invarsim sample`` reads seed
_SCENE_KEYS = {
    **dict.fromkeys(("world_bounds", "manhattan", "cell_size", "max_attempts", "ground",
                     "roads", "dynamics", "seed")),
    "classes": dict.fromkeys(("class", "probability", "length", "breadth", "height",
                              "count_range")),
    "objects": dict.fromkeys(("class", "position", "length", "breadth", "height", "style",
                              "dynamic", "window_grid", "facade_contrast")),
    "lights": dict.fromkeys(("kind", "color", "intensity", "direction", "position",
                             "cone_deg", "name")),
    "weather": dict.fromkeys(("beta", "anisotropy", "airlight_color", "weather_tag")),
    "camera": dict.fromkeys(("position", "look_at", "up", "vfov_deg")), "counts": {"total": None},
}


@dataclass(frozen=True)
class SceneConfig:
    """Parsed scene configuration: priors, bounds, fixtures, photometry."""

    world_bounds: tuple[float, float, float, float]
    manhattan: bool = True
    cell_size: float = DEFAULT_CELL_SIZE
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    priors: ClassPriors | None = None
    count_total: int | None = None
    explicit_objects: tuple = ()
    ground: bool = True
    roads: tuple = ()
    lights: tuple = ()
    medium: MediumSpec = MediumSpec()
    camera: CameraSpec = CameraSpec(position=(0.0, 4.0, -20.0), look_at=(0.0, 4.0, 10.0))
    dynamics: DynamicsScript = DynamicsScript()

    @classmethod
    def from_dict(cls, doc: dict) -> "SceneConfig":
        reject_unknown_keys(doc, _SCENE_KEYS)
        try:
            return cls._parse(doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid scene config: {exc}") from exc

    @classmethod
    def _parse(cls, doc):
        bounds = tuple(float(v) for v in doc["world_bounds"])
        if len(bounds) != 4:
            raise ConfigError("world_bounds must be [x0, z0, x1, z1]",
                              json_path="world_bounds")
        priors = None
        if doc.get("classes"):
            entries = {}
            for i, entry in enumerate(doc["classes"]):
                try:
                    oc = ObjectClass(entry["class"])
                except ValueError:
                    raise ConfigError(f"unknown class {entry['class']!r}",
                                      json_path=f"classes[{i}].class")
                entries[oc] = ClassPrior(
                    probability=float(entry["probability"]),
                    length=tuple(entry["length"]),
                    breadth=tuple(entry["breadth"]),
                    height=tuple(entry["height"]),
                    count_range=tuple(entry["count_range"]) if entry.get("count_range") else None,
                )
            priors = ClassPriors(entries)
        for key in ("counts", "camera"):
            if key in doc and not isinstance(doc[key], dict):
                raise ConfigError("expected a JSON object", json_path=key)
        count_total = doc.get("counts", {}).get("total")
        if count_total is not None:
            count_total = int(count_total)
            if count_total < 0:
                raise ConfigError("counts.total must be >= 0", json_path="counts.total")
            if priors is None:
                raise ConfigError("counts.total requires classes[]", json_path="counts")
        explicit = tuple(dict(o) for o in doc.get("objects", []))
        lights = tuple(
            LightSpec(
                kind=l["kind"],
                color=tuple(l.get("color", (1.0, 1.0, 1.0))),
                intensity=float(l.get("intensity", 1.0)),
                direction=tuple(l["direction"]) if l.get("direction") else None,
                position=tuple(l["position"]) if l.get("position") else None,
                cone_deg=l.get("cone_deg"),
                name=l.get("name", ""),
            )
            for l in doc.get("lights", default_lights_doc())
        )
        weather = doc.get("weather", "Clear")
        if isinstance(weather, str):
            if weather not in WEATHER_PRESETS:
                raise ConfigError(f"unknown weather tag {weather!r}", json_path="weather")
            medium = WEATHER_PRESETS[weather]
        else:
            medium = MediumSpec(
                beta=tuple(weather["beta"]),
                anisotropy=float(weather.get("anisotropy", 0.0)),
                airlight_color=tuple(weather.get("airlight_color", (1.0, 1.0, 1.0))),
                weather_tag=weather.get("weather_tag", "Fog"),
            )
        cam = doc.get("camera")
        camera = (
            CameraSpec(
                position=tuple(cam["position"]),
                look_at=tuple(cam["look_at"]),
                up=tuple(cam.get("up", (0.0, 1.0, 0.0))),
                vfov_deg=float(cam.get("vfov_deg", 55.0)),
            )
            if cam
            else SceneConfig.__dataclass_fields__["camera"].default
        )
        dynamics = DynamicsScript(
            tuple((int(k[0]), str(k[1]), _keyvalue(k[2])) for k in doc.get("dynamics", ()))
        )
        return cls(
            world_bounds=bounds,
            manhattan=bool(doc.get("manhattan", True)),
            cell_size=float(doc.get("cell_size", DEFAULT_CELL_SIZE)),
            max_attempts=int(doc.get("max_attempts", DEFAULT_MAX_ATTEMPTS)),
            priors=priors,
            count_total=count_total,
            explicit_objects=explicit,
            ground=bool(doc.get("ground", True)),
            roads=tuple(tuple(float(v) for v in r) for r in doc.get("roads", ())),
            lights=lights,
            medium=medium,
            camera=camera,
            dynamics=dynamics,
        )


def _keyvalue(v):
    if isinstance(v, (list, tuple)):
        return tuple(float(c) for c in v)
    return float(v)


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
    next_id = 0

    def add_object(mark, style, dynamic=None, window_grid=None, facade_contrast=None):
        nonlocal next_id
        prims = instantiate_geometry(mark, style, registry, window_grid=window_grid,
                                     facade_contrast=facade_contrast)
        if dynamic is None:
            dynamic = mark.object_class in DYNAMIC_CLASSES
        objects.append(SceneObject(object_id=next_id, mark=mark,
                                   primitives=prims, dynamic=dynamic))
        next_id += 1

    x0, z0, x1, z1 = config.world_bounds
    if config.ground:
        mark = CuboidMark(
            position=((x0 + x1) / 2.0, (z0 + z1) / 2.0),
            length=x1 - x0,
            breadth=z1 - z0,
            height=0.2,
            object_class=ObjectClass.GROUND,
        )
        add_object(mark, 0, dynamic=False)
    for rx0, rz0, rx1, rz1 in config.roads:
        mark = CuboidMark(
            position=((rx0 + rx1) / 2.0, (rz0 + rz1) / 2.0),
            length=rx1 - rx0,
            breadth=rz1 - rz0,
            height=0.02,
            object_class=ObjectClass.ROAD,
        )
        add_object(mark, 0, dynamic=False)

    for i, entry in enumerate(config.explicit_objects):
        try:
            oc = ObjectClass(entry["class"])
            mark = CuboidMark(
                position=tuple(entry["position"]),
                length=float(entry["length"]),
                breadth=float(entry["breadth"]),
                height=float(entry["height"]),
                object_class=oc,
            )
        except (KeyError, ValueError) as exc:
            raise ConfigError(str(exc), json_path=f"objects[{i}]") from exc
        if oc in COLLIDING_CLASSES:
            if not occupancy.in_bounds(mark.footprint()):
                raise ConfigError("explicit footprint outside world bounds",
                                  json_path=f"objects[{i}]")
            occupancy.mark(mark.footprint())
        wg = tuple(entry["window_grid"]) if entry.get("window_grid") is not None else None
        add_object(mark, int(entry.get("style", 0)), dynamic=entry.get("dynamic"),
                   window_grid=wg, facade_contrast=entry.get("facade_contrast"))

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
                add_object(CuboidMark((px, pz), l, b, h, oc), style)
                continue
            if x1 - x0 < l or z1 - z0 < b:
                raise PlacementError(oc, 0)
            placed = False
            for _ in range(config.max_attempts):
                px = rng.uniform(x0 + l / 2.0, x1 - l / 2.0)
                pz = rng.uniform(z0 + b / 2.0, z1 - b / 2.0)
                mark = CuboidMark((px, pz), l, b, h, oc)
                if check_placement(occupancy, mark.footprint()):
                    occupancy.mark(mark.footprint())
                    add_object(mark, style)
                    placed = True
                    break
            if not placed:
                raise PlacementError(oc, config.max_attempts)

    return SceneGraph(
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
        parts = path.split(".")
        if len(parts) == 3 and parts[0] == "lights" and parts[2] == "intensity_scale":
            idx = _parse_index(parts[1], len(lights), path)
            scale = script.value_at(path, t, 1.0)
            base = lights[idx]
            lights[idx] = dataclasses.replace(base, intensity=base.intensity * scale)
        elif path == "medium.density_scale":
            medium = scene.medium.scaled(script.value_at(path, t, 1.0))
        elif len(parts) == 3 and parts[0] == "objects" and parts[2] == "velocity":
            idx = _parse_index(parts[1], len(objects), path)
            offset = script.displacement_at(path, t)
            if offset != (0.0, 0.0, 0.0):
                objects[idx] = objects[idx].translated(offset)
        else:
            raise DynamicsPathError(f"unresolved parameter path {path!r}")

    return dataclasses.replace(
        scene, lights=tuple(lights), medium=medium, objects=tuple(objects)
    )


def _parse_index(token, length, path):
    try:
        idx = int(token)
    except ValueError:
        raise DynamicsPathError(f"bad index in parameter path {path!r}")
    if not 0 <= idx < length:
        raise DynamicsPathError(f"index out of range in parameter path {path!r}")
    return idx


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
