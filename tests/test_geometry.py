"""The culled tracer against the brute-force oracle, bit for bit.

``geometry.trace`` slab-tests rays against object bounds and tests only the
primitives of the objects a ray meets; ``oracles.brute_trace`` tests every
ray against every primitive.  Every ``Hit`` field and every ``occluded``
answer must be equal, with the default block size and with blocks forced
down to a few rays.
"""

import numpy as np
import pytest

import invarsim.geometry as geometry
from invarsim.characterize import MODELS, default_protocol
from invarsim.geometry import Camera, PrimitiveSoup, occluded, trace
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


class TestAgainstBruteForce:
    def test_validation_scene(self, validation_scene, chunking):
        soup = PrimitiveSoup.from_scene(validation_scene)
        # the validation scene holds every primitive family
        assert min(len(soup.box_lo), len(soup.sph_r), len(soup.cyl_r),
                   len(soup.rect_off)) > 0
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
        for i in range(len(soup.rect_off)):
            k = int(soup.rect_axis[i])
            ua, va = geometry.RECT_UV[k]
            for u in soup.rect_u[i]:
                for v in soup.rect_v[i]:
                    p = np.zeros(3)
                    p[k], p[ua], p[va] = soup.rect_off[i], u, v
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
        for i in range(len(soup.rect_off)):
            k = int(soup.rect_axis[i])
            ua, va = geometry.RECT_UV[k]
            for _ in range(40):
                p = np.zeros(3)
                p[k] = soup.rect_off[i]
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
        O, D = Camera(scene.camera, 16, 12).rays()
        want = brute_trace(soup, O, D)
        culls = []
        cull = geometry._cull
        monkeypatch.setattr(geometry, "_cull", lambda *a: culls.append(len(a[1])) or cull(*a))
        monkeypatch.setattr(geometry, "_CHUNK_PAIRS", 4 * len(soup.obj_lo))
        got = trace(soup, O, D)
        for field in HIT_FIELDS:
            assert np.array_equal(getattr(got, field), getattr(want, field))
        # blocks of 4 rays, halved while their primitive candidates overflow
        assert set(culls) == {4, 2, 1}

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
        for fam, owner_ids in (("box", soup.box_obj), ("sphere", soup.sph_obj),
                               ("cylinder", soup.cyl_obj), ("rect", soup.rect_obj)):
            first, count = soup.ranges[fam]
            for k, obj in enumerate(objects):
                ids = owner_ids[first[k]:first[k] + count[k]]
                assert np.all(ids == obj.object_id)
            assert count.sum() == len(owner_ids)
        for fam_lo, fam_hi, ids in (
            (soup.box_lo, soup.box_hi, soup.box_obj),
            (soup.sph_c - soup.sph_r[:, None], soup.sph_c + soup.sph_r[:, None], soup.sph_obj),
        ):
            k = np.searchsorted([o.object_id for o in objects], ids)
            assert np.all(soup.obj_lo[k] < fam_lo) and np.all(fam_hi < soup.obj_hi[k])
