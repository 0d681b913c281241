"""The culled tracer against the brute-force oracle, bit for bit.

``geometry.trace`` slab-tests rays against cluster bounds (in a scene of 16
objects or more), then against object bounds, and tests only the primitives
of the objects a ray meets; ``oracles.brute_trace`` tests every ray against
every primitive.  Every ``Hit`` field and every ``occluded`` answer must be
equal, with the default block size and with blocks forced down to a few
rays.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import invarsim.geometry as geometry
from invarsim.characterize import MODELS, default_protocol
from invarsim.geometry import Camera, PrimitiveSoup, occluded, trace
from invarsim.scene import ObjectClass
from invarsim.scenegen import SceneConfig, apply_dynamics, sample_scene
from oracles import brute_occluded, brute_trace

HIT_FIELDS = ("t", "obj_id", "mat_id", "normal", "point")

#: a block size that leaves a few dozen rays per block in the validation
#: scene and a few rays per block in the cities
TINY_CHUNK = 256


@pytest.fixture(params=["default", "tiny"])
def chunking(request, monkeypatch):
    if request.param == "tiny":
        monkeypatch.setattr(geometry, "_CHUNK_PAIRS", TINY_CHUNK)
    return request.param


def assert_same_as_brute(soup, O, D, tmin=1e-6):
    O = np.ascontiguousarray(O, dtype=float)
    D = np.ascontiguousarray(D, dtype=float)
    got = trace(soup, O, D, tmin)
    want = brute_trace(soup, O, D, tmin)
    for field in HIT_FIELDS:
        assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), field
    t = want.t
    finite = np.where(np.isfinite(t), t, 1.0)
    for tmax in (np.inf, 5.0, t, np.nextafter(finite, np.inf), np.nextafter(finite, -np.inf)):
        assert np.array_equal(occluded(soup, O, D, tmax, tmin),
                              brute_occluded(soup, O, D, tmax, tmin))
    return want


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_rays(rng, soup, n):
    """Rays from around and inside the scene's objects in random directions."""
    lo = soup.obj_lo.min(axis=0)
    hi = soup.obj_hi.max(axis=0)
    lo[1], hi[1] = -1.0, min(hi[1], 40.0)
    O = rng.uniform(lo, hi, (n, 3))
    D = unit(rng.normal(size=(n, 3)))
    return O, D


def secondary_rays(rng, soup, O, D):
    """Bounce and shadow rays from the surface points that ``O, D`` hit."""
    hit = brute_trace(soup, O, D)
    m = hit.mask
    origins = hit.point[m] + hit.normal[m] * 1e-4
    bounce = unit(hit.normal[m] + rng.normal(size=(int(m.sum()), 3)))
    sun = np.broadcast_to(unit([0.3, 1.0, 0.2]), origins.shape)
    return np.concatenate([origins, origins]), np.concatenate([bounce, sun])


def city_config(rng):
    return {
        "world_bounds": [-40.0, -40.0, 40.0, 40.0],
        "cell_size": 1.0,
        "classes": [
            {"class": "Building", "probability": 0.4, "length": [12.0, 3.0],
             "breadth": [9.0, 2.0], "height": [14.0, 5.0]},
            {"class": "Tree", "probability": 0.3, "length": [3.0, 0.5],
             "breadth": [3.0, 0.5], "height": [6.0, 1.0]},
            {"class": "Vehicle", "probability": 0.2, "length": [4.5, 0.5],
             "breadth": [2.0, 0.2], "height": [1.6, 0.2]},
            {"class": "Pedestrian", "probability": 0.1, "length": [0.6, 0.1],
             "breadth": [0.6, 0.1], "height": [1.7, 0.1]},
        ],
        "counts": {"total": int(rng.integers(4, 30))},
        "roads": [[-40.0, -3.0, 40.0, 3.0]],
        "camera": {"position": [float(rng.uniform(-10, 10)), float(rng.uniform(2, 30)), -45.0],
                   "look_at": [0.0, 0.0, 0.0], "vfov_deg": 50.0},
    }


def big_city_config():
    """A city of the size the ``city`` benchmark renders: 130 buildings on a
    300 m square, one vehicle and the ground slab."""
    return {
        "world_bounds": [-150.0, 0.0, 150.0, 300.0],
        "cell_size": 1.0,
        "classes": [{"class": "Building", "probability": 1.0, "length": [13.5, 0.3],
                     "breadth": [10.0, 1.0], "height": [16.5, 0.3]}],
        "counts": {"total": 130},
        "objects": [{"class": "Vehicle", "position": [1.5, 5.0], "length": 5.0,
                     "breadth": 2.2, "height": 1.8, "style": 2}],
        "camera": {"position": [0.0, 20.0, -25.0], "look_at": [0.0, 0.0, 30.0],
                   "vfov_deg": 30.0},
    }


@pytest.fixture(scope="module")
def big_city():
    return sample_scene(SceneConfig.from_dict(big_city_config()), 3)


class TestAgainstBruteForce:
    def test_validation_scene(self, validation_scene, chunking):
        soup = PrimitiveSoup.from_scene(validation_scene)
        # the validation scene holds every primitive family
        assert min(len(soup.box_lo), len(soup.sphere_radius), len(soup.cylinder_radius),
                   len(soup.rect_offset)) > 0
        rng = np.random.default_rng(1)
        O, D = Camera(validation_scene.camera, 32, 24).rays()
        assert_same_as_brute(soup, O, D)
        assert_same_as_brute(soup, *secondary_rays(rng, soup, O, D))
        assert_same_as_brute(soup, *random_rays(rng, soup, 600))

    @pytest.mark.parametrize("model", MODELS)
    def test_stock_scene(self, model, chunking):
        p = default_protocol(model)
        base = sample_scene(p.scene_config(), p.scene_seed)
        rng = np.random.default_rng(2)
        for t in (0, 2) if model == "PS" else (0,):
            scene = apply_dynamics(base, t)
            soup = PrimitiveSoup.from_scene(scene)
            O, D = Camera(scene.camera, 40, 30).rays()
            assert_same_as_brute(soup, O, D)
            assert_same_as_brute(soup, *secondary_rays(rng, soup, O, D))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_city(self, seed, chunking):
        rng = np.random.default_rng(100 + seed)
        scene = sample_scene(SceneConfig.from_dict(city_config(rng)), seed)
        soup = PrimitiveSoup.from_scene(scene)
        O, D = Camera(scene.camera, 20, 15).rays()
        assert_same_as_brute(soup, O, D)
        assert_same_as_brute(soup, *secondary_rays(rng, soup, O, D))
        assert_same_as_brute(soup, *random_rays(rng, soup, 200))


    def test_big_city(self, big_city, chunking):
        soup = big_city.soup
        assert len(soup.clu_lo)
        rng = np.random.default_rng(8)
        O, D = Camera(big_city.camera, 20, 15).rays()
        assert_same_as_brute(soup, O, D)
        assert_same_as_brute(soup, *secondary_rays(rng, soup, O, D))
        assert_same_as_brute(soup, *random_rays(rng, soup, 300))


class TestClusterRays:
    """Rays that probe the cluster level of a city: along cluster faces,
    through the gaps between clusters and from inside a cluster's bounds."""

    def cells(self, soup):
        """Bounds of the clusters that share a grid cell; the ground slab
        spans the whole world and is a cluster of its own."""
        small = soup.clu_hi[:, 0] - soup.clu_lo[:, 0] < 200.0
        return soup.clu_lo[small], soup.clu_hi[small]

    def test_rays_in_cluster_face_planes(self, big_city, chunking):
        soup = big_city.soup
        rng = np.random.default_rng(9)
        span_lo, span_hi = soup.clu_lo.min(axis=0), soup.clu_hi.max(axis=0)
        span_hi[1] = 20.0
        O, D = [], []
        for lo, hi in zip(soup.clu_lo, soup.clu_hi):
            for a, b in ((lo, hi), (hi, lo)):
                for k in range(3):
                    # in the face plane of axis k: slanted, and along each other axis
                    for axis in range(3):
                        o = rng.uniform(span_lo, span_hi)
                        o[k] = a[k]
                        d = (rng.normal(size=3) if axis == k
                             else np.eye(3)[axis] * rng.choice([-1.0, 1.0]))
                        d[k] = 0.0
                        O.append(o)
                        D.append(d)
                    # along the edge where faces of the two other axes meet
                    o = a.copy()
                    o[(k + 1) % 3] = b[(k + 1) % 3]
                    d = np.eye(3)[k]
                    O.append(o - 500.0 * d)
                    D.append(d)
        assert_same_as_brute(soup, np.array(O), unit(np.array(D)))

    def test_rays_through_gaps_between_clusters(self, big_city, chunking):
        soup = big_city.soup
        rng = np.random.default_rng(10)
        lo, hi = self.cells(soup)
        x, z = np.meshgrid(np.linspace(-150.0, 150.0, 121), np.linspace(0.0, 300.0, 121))
        pts = np.stack([x.ravel(), np.zeros(x.size), z.ravel()], axis=1)
        inside = ((pts[:, None] >= lo) & (pts[:, None] <= hi))[..., [0, 2]].all(axis=2)
        gaps = pts[~inside.any(axis=1)]
        assert len(gaps) > 200
        gaps = gaps[rng.choice(len(gaps), 200, replace=False)]
        gaps[:, 1] = rng.uniform(0.0, 20.0, len(gaps))
        O = np.concatenate([gaps + rng.normal(scale=40.0, size=gaps.shape),
                            gaps - [300.0, 0.0, 0.0], gaps - [0.0, 0.0, 300.0]])
        O[:, 1] = np.abs(O[:, 1])
        T = np.concatenate([gaps] * 3)
        assert_same_as_brute(soup, O, unit(T - O))

    def test_origins_in_cluster_bounds_outside_every_member(self, big_city, chunking):
        soup = big_city.soup
        rng = np.random.default_rng(11)
        lo, hi = self.cells(soup)
        O = (lo[:, None] + rng.random((len(lo), 40, 3)) * (hi - lo)[:, None]).reshape(-1, 3)
        inside = ((O[:, None] >= soup.obj_lo) & (O[:, None] <= soup.obj_hi)).all(axis=2)
        O = O[~inside.any(axis=1)]
        assert len(O) > 200
        assert_same_as_brute(soup, O, unit(rng.normal(size=O.shape)))


class TestAdversarialRays:
    @pytest.fixture()
    def soup(self, validation_scene):
        return PrimitiveSoup.from_scene(validation_scene)

    def box_planes(self, soup):
        """Every face coordinate of every box and of every object's bounds."""
        return [(k, float(v)) for corners in (soup.box_lo, soup.box_hi, soup.obj_lo,
                                              soup.obj_hi)
                for row in corners for k, v in enumerate(row)]

    def test_axis_parallel_rays_in_slab_planes(self, soup, chunking):
        rng = np.random.default_rng(3)
        O, D = [], []
        for k, v in self.box_planes(soup):
            for axis in range(3):
                if axis == k:
                    continue
                for sign in (1.0, -1.0):
                    o = rng.uniform(-30, 30, 3)
                    o[1] = rng.uniform(0, 20)
                    o[k] = v
                    d = np.zeros(3)
                    d[axis] = sign
                    O.append(o)
                    D.append(d)
        assert_same_as_brute(soup, np.array(O), np.array(D))

    def test_zero_and_negative_zero_direction_components(self, soup, chunking):
        rng = np.random.default_rng(4)
        n = 400
        O = rng.uniform(-30, 30, (n, 3))
        O[:, 1] = rng.uniform(-0.5, 20, n)
        D = rng.normal(size=(n, 3))
        zero = rng.integers(0, 3, (n, 3)) == 0
        D[zero] = 0.0
        D[(D == 0.0) & (rng.random((n, 3)) < 0.5)] = -0.0
        D[np.all(D == 0.0, axis=1), 2] = 1.0
        assert_same_as_brute(soup, O, unit(D))

    def test_origins_inside_boxes_and_on_faces(self, soup, chunking):
        rng = np.random.default_rng(5)
        lo, hi = soup.box_lo, soup.box_hi
        w = rng.random((len(lo), 8, 3))
        inside = lo[:, None] + w * (hi - lo)[:, None]
        on_face = inside.copy()
        on_face[:, :, 0] = lo[:, None, 0]
        O = np.concatenate([inside, on_face]).reshape(-1, 3)
        D = unit(rng.normal(size=O.shape))
        assert_same_as_brute(soup, O, D)

    def test_rays_grazing_rect_and_bounds_edges(self, soup, chunking):
        rng = np.random.default_rng(6)
        targets = []
        for i in range(len(soup.rect_offset)):
            k = int(soup.rect_axis[i])
            ua, va = geometry.RECT_UV[k]
            for u in soup.rect_u[i]:
                for v in soup.rect_v[i]:
                    p = np.zeros(3)
                    p[k], p[ua], p[va] = soup.rect_offset[i], u, v
                    targets.append(p)  # a rect corner
                    q = p.copy()
                    q[va] = 0.5 * (soup.rect_v[i, 0] + soup.rect_v[i, 1])
                    targets.append(q)  # the middle of a rect edge
        targets += list(soup.obj_lo) + list(soup.obj_hi)
        targets += [np.array([lo[0], hi[1], lo[2]]) for lo, hi in zip(soup.box_lo, soup.box_hi)]
        targets = np.array(targets)
        O = np.concatenate([np.broadcast_to([0.0, 4.5, -22.0], targets.shape),
                            targets + rng.normal(scale=10.0, size=targets.shape)])
        T = np.concatenate([targets, targets])
        assert_same_as_brute(soup, O, unit(T - O))
        # rays along an edge: origin on the edge line, direction along it
        D = np.zeros_like(T)
        D[:, 0] = 1.0
        assert_same_as_brute(soup, T - 50.0 * D, D)

    def test_coplanar_window_and_facade_ties(self, soup, chunking):
        rng = np.random.default_rng(7)
        O, D = [], []
        for i in range(len(soup.rect_offset)):
            k = int(soup.rect_axis[i])
            ua, va = geometry.RECT_UV[k]
            for _ in range(40):
                p = np.zeros(3)
                p[k] = soup.rect_offset[i]
                p[ua] = rng.uniform(*soup.rect_u[i])
                p[va] = rng.uniform(*soup.rect_v[i])
                o = p + rng.normal(scale=15.0, size=3)
                O.append(o)
                D.append(unit(p - o))
        hit = assert_same_as_brute(soup, np.array(O), np.array(D))
        assert np.isin(hit.obj_id, soup.rect_obj).any()  # rects did win ties

    def test_hits_at_tmin(self, soup, validation_scene, chunking):
        O, D = Camera(validation_scene.camera, 16, 12).rays()
        hit = brute_trace(soup, O, D)
        m = hit.mask
        for tmin in (1e-6, 1e-3, 0.5):
            # origins moved up to the surface, to tmin before it and onto it
            for back in (tmin, 0.0, 2.0 * tmin):
                O2 = hit.point[m] - back * D[m]
                assert_same_as_brute(soup, O2, D[m], tmin)
            # tmin equal to the hit distance of the camera rays
            assert_same_as_brute(soup, O[m], D[m], float(np.median(hit.t[m])))


@pytest.mark.parametrize("tmin, t, point, normal", [
    (1e-6, 0.1, (0.0, 0.58, 0.5), (-1.0, 0.0, 0.0)),  # enters by the x = 0 face
    (0.5, 0.625, (0.525, 1.0, 0.5), (0.0, -1.0, 0.0)),  # enters before tmin, leaves by y = 1
])
def test_box_face_at_tmin(tmin, t, point, normal):
    """A ray from (-0.1, 0.5, 0.5) along (1, 0.8, 0) into the unit box, in
    closed form: it enters at t = 0.1 and leaves at t = 0.625; once tmin
    passes its entry, its hit is the face it leaves by."""
    box = SimpleNamespace(object_id=3, primitives=(geometry.Box((0.0, 0.0, 0.0),
                                                                 (1.0, 1.0, 1.0), 7),))
    hit = trace(PrimitiveSoup([box]), np.array([[-0.1, 0.5, 0.5]]), np.array([[1.0, 0.8, 0.0]]),
                tmin)
    np.testing.assert_allclose(hit.t, [t], rtol=1e-12)
    np.testing.assert_allclose(hit.point, [point], rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(hit.normal, [normal])
    assert (hit.obj_id[0], hit.mat_id[0]) == (3, 7)


def count_blocks(monkeypatch):
    """The number of rays of each ``_cull`` call, and of each block of rays
    whose culled pairs one ``_nearest`` call tests, as they are made."""
    culls, tested = [], []
    cull, nearest = geometry._cull, geometry._nearest
    monkeypatch.setattr(geometry, "_cull", lambda *a: culls.append(len(a[1])) or cull(*a))
    monkeypatch.setattr(geometry, "_nearest", lambda *a: tested.append(len(a[4])) or nearest(*a))
    return culls, tested


class TestBlocks:
    def test_rays_and_pairs_split_into_blocks(self, monkeypatch):
        # one facade of 8 x 6 windows: every ray that meets the building's
        # bounds has 49 primitive candidates
        scene = sample_scene(SceneConfig.from_dict({
            "world_bounds": [-30.0, -30.0, 30.0, 30.0],
            "objects": [{"class": "Building", "position": [0.0, 10.0], "length": 24.0,
                         "breadth": 8.0, "height": 18.0, "window_grid": [8, 6]}],
            "camera": {"position": [0.0, 9.0, -20.0], "look_at": [0.0, 9.0, 10.0]},
        }), 1)
        soup = PrimitiveSoup.from_scene(scene)
        assert not len(soup.clu_lo)  # every ray is slab-tested against every object
        O, D = Camera(scene.camera, 16, 12).rays()
        culls, tested = count_blocks(monkeypatch)
        monkeypatch.setattr(geometry, "_CHUNK_PAIRS", 4 * len(soup.obj_lo))
        assert_same_as_brute(soup, O, D)
        # one trace and five occluded calls: each culls every ray once, in
        # blocks of 4 rays, and tests each ray once per family: one ray at a
        # time where a ray's 49 facade candidates fill a block
        assert culls == [4] * (6 * len(O) // 4)
        assert sum(tested) == 6 * len(O) * len(geometry.FAMILIES)
        assert min(tested) == 1 and max(tested) == 4

    def test_cluster_and_object_pairs_split_into_blocks(self, big_city, monkeypatch):
        # horizontal rays across the city meet many clusters of several objects
        soup = big_city.soup
        rng = np.random.default_rng(12)
        O = np.stack([np.full(64, -160.0), rng.uniform(0.5, 15.0, 64),
                      rng.uniform(0.0, 100.0, 64)], axis=1)
        D = unit(np.stack([np.ones(64), np.zeros(64), rng.uniform(0.3, 1.5, 64)], axis=1))
        expand = geometry._expand
        expanded = []
        monkeypatch.setattr(geometry, "_expand",
                            lambda *a: expanded.append(len(a[3])) or expand(*a))
        culls, tested = count_blocks(monkeypatch)
        monkeypatch.setattr(geometry, "_CHUNK_PAIRS", 8 * len(soup.clu_lo))
        assert_same_as_brute(soup, O, D)
        # blocks of 8 rays, each ray culled once per call; a block's ray x
        # cluster pairs expand to objects, and its culled pairs to
        # primitives, a few rays at a time
        assert culls == [8] * (6 * len(O) // 8)
        assert sum(tested) == 6 * len(O) * len(geometry.FAMILIES)
        assert len(expanded) > len(culls) + len(tested)
        assert max(tested) < 8

    def test_empty_inputs(self, validation_scene):
        soup = PrimitiveSoup.from_scene(validation_scene)
        empty = np.zeros((0, 3))
        hit = trace(soup, empty, empty)
        assert hit.t.shape == (0,) and hit.normal.shape == (0, 3)
        assert occluded(soup, empty, empty, np.inf).shape == (0,)
        nothing = PrimitiveSoup()
        O, D = Camera(validation_scene.camera, 4, 3).rays()
        assert not trace(nothing, O, D).mask.any()
        assert_same_as_brute(nothing, O, D)


class TestSoup:
    def test_object_bounds_hold_their_primitives(self, validation_scene):
        soup = PrimitiveSoup.from_scene(validation_scene)
        objects = [o for o in validation_scene.objects if o.primitives]
        assert len(soup.obj_lo) == len(objects)
        assert np.array_equal(soup.obj_prims, [len(o.primitives) for o in objects])
        for fam, owner_ids in (("box", soup.box_obj), ("sphere", soup.sphere_obj),
                               ("cylinder", soup.cylinder_obj), ("rect", soup.rect_obj)):
            first, count = soup.ranges[fam]
            for k, obj in enumerate(objects):
                ids = owner_ids[first[k]:first[k] + count[k]]
                assert np.all(ids == obj.object_id)
            assert count.sum() == len(owner_ids)
        for fam_lo, fam_hi, ids in (
            (soup.box_lo, soup.box_hi, soup.box_obj),
            (soup.sphere_center - soup.sphere_radius[:, None], soup.sphere_center + soup.sphere_radius[:, None], soup.sphere_obj),
        ):
            k = np.searchsorted([o.object_id for o in objects], ids)
            assert np.all(soup.obj_lo[k] < fam_lo) and np.all(fam_hi < soup.obj_hi[k])

    def test_clusters_partition_the_objects(self, big_city):
        soup = big_city.soup
        n = len(soup.obj_lo)
        side = int(np.sqrt(n / 4))
        assert side >= 2
        assert np.array_equal(np.sort(soup.clu_obj), np.arange(n))
        assert np.array_equal(soup.clu_first, np.cumsum(soup.clu_count) - soup.clu_count)
        assert soup.clu_count.sum() == n and soup.clu_count.min() >= 1
        assert len(soup.clu_lo) <= side * side + np.sum(soup.clu_count == 1)
        for c, (first, count) in enumerate(zip(soup.clu_first, soup.clu_count)):
            members = soup.clu_obj[first:first + count]
            assert np.array_equal(soup.clu_lo[c], soup.obj_lo[members].min(axis=0))
            assert np.array_equal(soup.clu_hi[c], soup.obj_hi[members].max(axis=0))
        # the ground slab is wider than a cell, so it is a cluster of its own
        objects = [o for o in big_city.objects if o.primitives]
        ground = next(k for k, o in enumerate(objects)
                      if o.mark.object_class is ObjectClass.GROUND)
        at = np.flatnonzero(soup.clu_obj == ground)[0]
        assert soup.clu_count[np.searchsorted(soup.clu_first, at, side="right") - 1] == 1

    def test_small_scenes_have_no_cluster_level(self, validation_scene):
        p = default_protocol("OC")
        stock = sample_scene(p.scene_config(), p.scene_seed).soup
        assert len(stock.obj_lo) == 6
        for soup in (stock, validation_scene.soup):
            assert not len(soup.clu_lo) and not len(soup.clu_obj)


class TestTransientMemory:
    """The tracer's peak allocations per ray, measured with ``tracemalloc``
    on one wavefront of the stock OC render: 2 samples of 64x48 jittered
    camera rays, then the sun's shadow rays from their hits.  The cull of
    the scene's 6 objects sets the peak; its slab test works in five
    (objects x rays) float64 buffers, 240 B a ray, where temporaries of
    every step took about 400 B."""

    #: peak bytes a ray allowed, for trace and occluded alike
    BOUND = 340

    @pytest.fixture(scope="class")
    def wavefront(self):
        p = default_protocol("OC")
        scene = sample_scene(p.scene_config(), p.scene_seed)
        jitter = np.random.default_rng(5).random((2, p.height, p.width, 2)) - 0.5
        O, D = Camera(scene.camera, p.width, p.height).rays(jitter)
        return scene, O, D

    @staticmethod
    def peak_per_ray(fn, n_rays):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return (tracemalloc.get_traced_memory()[1] - before) / n_rays
        finally:
            tracemalloc.stop()

    def test_trace(self, wavefront):
        scene, O, D = wavefront
        assert len(O) == 6144
        assert self.peak_per_ray(lambda: trace(scene.soup, O, D), len(O)) < self.BOUND

    def test_occluded_sun_shadow_rays(self, wavefront):
        scene, O, D = wavefront
        hit = trace(scene.soup, O, D)
        sun = next(light for light in scene.lights if light.kind == "directional")
        to_sun = -np.asarray(sun.direction) / np.linalg.norm(sun.direction)
        lit = hit.mask & (hit.normal @ to_sun > 0.0)
        So = hit.point[lit] + hit.normal[lit] * 1e-4
        Sd = np.broadcast_to(to_sun, So.shape)
        assert len(So) > 3000
        assert self.peak_per_ray(lambda: occluded(scene.soup, So, Sd, np.inf),
                                 len(So)) < self.BOUND
