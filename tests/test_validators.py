import itertools
import math

import numpy as np
import pytest

from invarsim.errors import (
    AllOccludedError,
    ConfigError,
    MissingTemporalError,
    PatchTooSmallError,
    RankDeficientError,
)
from invarsim.patches import Patch
from invarsim.validators import (
    Trajectories,
    average_ranks,
    bc_values,
    bc_variance,
    ds_angular_error,
    fit_dichromatic_plane,
    gc_values,
    gc_variance,
    gradient_fields,
    oc_measure,
    oc_values,
    patch_pixels,
    population_variance,
    ps_variance,
    spearman_rho,
    to_gray,
)
from oracles import (
    exact_spearman,
    loop_average_ranks,
    patch_bc_variance,
    patch_gc_variance,
    patch_oc_measure,
    plane_residual,
)


def random_monotone_map(rng):
    """A random strictly increasing piecewise-linear map on [0, 1]."""
    knots_x = np.sort(rng.uniform(0, 1, size=6))
    knots_x = np.concatenate(([0.0], knots_x, [1.0]))
    steps = rng.uniform(0.05, 1.0, size=len(knots_x))
    knots_y = np.cumsum(steps)
    return lambda v: np.interp(v, knots_x, knots_y)


class TestSpearman:
    def test_identity_is_one(self):
        x = [3.0, 1.0, 2.0, 5.0]
        assert spearman_rho(x, x) == 1.0

    def test_reversal_is_minus_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman_rho(x, x[::-1]) == -1.0

    def test_textbook_value(self):
        # d = (0, 1, -1, 0), sum d^2 = 2, rho = 1 - 12/60 = 0.8
        assert spearman_rho([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_constant_input_is_nan(self):
        assert math.isnan(spearman_rho([1, 1, 1], [1, 2, 3]))
        assert math.isnan(spearman_rho([1, 2, 3], [5, 5, 5]))

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigError):
            spearman_rho([1, 2], [1, 2, 3])

    def test_matches_exact_oracle_on_permutations(self):
        values = [0.5, 1.5, 2.0, 3.25, 4.0, 9.0]
        for perm in itertools.islice(itertools.permutations(values), 0, 720, 7):
            got = spearman_rho(values, list(perm))
            want = exact_spearman(values, list(perm))
            assert abs(got - want) <= 1e-12

    def test_matches_exact_oracle_with_ties(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            x = rng.integers(0, 4, size=n).astype(float)
            y = rng.integers(0, 4, size=n).astype(float)
            want = exact_spearman(list(x), list(y))
            got = spearman_rho(x, y)
            if want is None:
                assert math.isnan(got)
            else:
                assert abs(got - want) <= 1e-12

    def test_average_ranks_ties(self):
        assert np.allclose(average_ranks([10, 20, 20, 30]), [1, 2.5, 2.5, 4])

    def test_average_ranks_equal_loop_oracle_on_tied_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            v = rng.integers(0, int(rng.integers(1, 12)), size=n) * 0.25
            v[rng.random(n) < 0.1] *= -1.0  # -0.0 ties with 0.0
            assert np.array_equal(average_ranks(v), loop_average_ranks(v))

    def test_average_ranks_non_finite_values_tie_with_nothing(self):
        v = [np.nan, 2.0, np.inf, np.nan, 2.0, -np.inf, np.inf, -np.inf]
        want = [7.0, 3.5, 5.0, 8.0, 3.5, 1.0, 6.0, 2.0]
        assert np.array_equal(average_ranks(v), want)
        assert np.array_equal(loop_average_ranks(v), want)

    def test_monotone_invariance_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(0, 1, size=25)
            f = random_monotone_map(rng)
            assert spearman_rho(x, f(x)) == 1.0
            assert spearman_rho(x, -f(x)) == -1.0
            assert abs(spearman_rho(f(x), x)) == 1.0


class TestOcMeasure:
    def test_gamma_transform_is_order_consistent(self):
        rng = np.random.default_rng(1)
        ref = rng.uniform(0.05, 1.0, size=(9, 9))
        for gamma in (0.4, 1.0, 2.4):
            assert oc_measure(ref, ref ** gamma) == 1.0

    def test_decreasing_transform_gives_abs_one(self):
        rng = np.random.default_rng(2)
        ref = rng.uniform(0, 1, size=(7, 7))
        assert oc_measure(ref, 1.0 - ref) == 1.0

    def test_noise_continuity(self):
        rng = np.random.default_rng(3)
        ref = rng.uniform(0, 1, size=(11, 11))
        rhos = []
        for sigma in (0.3, 0.03, 0.003):
            cur = ref + rng.normal(0, sigma, ref.shape)
            rhos.append(oc_measure(ref, cur))
        assert rhos[0] < rhos[1] < rhos[2]
        assert rhos[2] > 0.99

    def test_rgb_patches_use_luma(self):
        rng = np.random.default_rng(4)
        ref = rng.uniform(0, 1, size=(5, 5, 3))
        assert oc_measure(ref, ref * 2.0) == 1.0

    def test_constant_patch_is_nan(self):
        ref = np.full((5, 5), 0.5)
        cur = np.random.default_rng(0).uniform(0, 1, (5, 5))
        assert math.isnan(oc_measure(ref, cur))


def zero_flow(shape):
    return np.zeros(shape + (2,))


class TestBcVariance:
    def test_identical_frames_zero(self):
        rng = np.random.default_rng(5)
        f = rng.uniform(0, 1, size=(32, 32))
        p = Patch(4, 4, 9, "Diffuse")
        assert bc_variance(f, f, zero_flow(f.shape), p) == 0.0

    def test_constant_offset_exactly_zero(self):
        # dyadic values keep the addition exact, so the residual is constant
        rng = np.random.default_rng(6)
        f = rng.integers(0, 256, size=(32, 32)).astype(float) / 256.0
        p = Patch(3, 3, 11, "Diffuse")
        assert bc_variance(f, f + 0.25, zero_flow(f.shape), p) == 0.0

    @pytest.mark.parametrize("a", [1.1, 1.5, 2.0])
    def test_intensity_scaling_closed_form(self, a):
        rng = np.random.default_rng(7)
        f = rng.uniform(0.1, 0.9, size=(32, 32))
        p = Patch(2, 2, 13, "Diffuse")
        got = bc_variance(f, a * f, zero_flow(f.shape), p)
        want = (a - 1.0) ** 2 * np.var(f[2:15, 2:15])
        assert got == pytest.approx(want, abs=1e-12)

    def test_subpixel_bilinear(self):
        f0 = np.zeros((8, 8))
        f1 = np.zeros((8, 8))
        f1[:, 4] = 1.0
        flow = np.zeros((8, 8, 2))
        flow[:, :, 0] = 0.5  # halfway toward the bright column
        p = Patch(1, 3, 3, "Diffuse")
        # residuals at cols 3,4,5: I1 at 3.5,4.5,5.5 = 0.5, 0.5, 0 minus 0
        got = bc_variance(f0, f1, flow, p)
        vals = np.array([0.5, 0.5, 0.0] * 3)
        assert got == pytest.approx(np.var(vals), abs=1e-15)

    def test_all_occluded_raises(self):
        f = np.ones((16, 16))
        occ = np.ones((16, 16), dtype=bool)
        p = Patch(2, 2, 5, "Diffuse")
        with pytest.raises(AllOccludedError):
            bc_variance(f, f, zero_flow(f.shape), p,
                        exclude_occluded=True, occlusion=occ)


class TestGcVariance:
    def test_identical_frames_zero(self):
        rng = np.random.default_rng(8)
        f = rng.uniform(0, 1, size=(32, 32))
        p = Patch(4, 4, 9, "Diffuse")
        assert gc_variance(f, f, zero_flow(f.shape), p) == 0.0

    def test_constant_offset_zero(self):
        rng = np.random.default_rng(9)
        f = rng.integers(0, 256, size=(32, 32)).astype(float) / 256.0
        p = Patch(4, 4, 9, "Diffuse")
        assert gc_variance(f, f + 0.25, zero_flow(f.shape), p) == 0.0

    @pytest.mark.parametrize("a", [1.1, 1.5, 2.0])
    def test_intensity_scaling_closed_form(self, a):
        rng = np.random.default_rng(10)
        f = rng.uniform(0.1, 0.9, size=(32, 32))
        p = Patch(2, 2, 13, "Diffuse")
        got = gc_variance(f, a * f, zero_flow(f.shape), p)
        gx = (f[:, 2:] - f[:, :-2]) / 2.0
        gy = (f[2:, :] - f[:-2, :]) / 2.0
        gx_patch = gx[3:14, 2:13]   # rows 3..13, cols 3..13 in gradient frame
        gy_patch = gy[2:13, 3:14]
        pooled = np.concatenate([gx_patch.reshape(-1), gy_patch.reshape(-1)])
        want = (a - 1.0) ** 2 * np.var(pooled)
        assert got == pytest.approx(want, abs=1e-12)

    def test_small_patch_raises(self):
        f = np.zeros((16, 16))
        with pytest.raises(PatchTooSmallError):
            gc_variance(f, f, zero_flow(f.shape), Patch(2, 2, 3, "Diffuse"))

    def test_gc_below_bc_on_smooth_patch(self):
        # smooth gradient field: gradients are nearly constant
        y, x = np.mgrid[0:32, 0:32]
        f = 0.2 + 0.01 * x + 0.005 * y
        p = Patch(4, 4, 13, "Homogeneous")
        flow = zero_flow(f.shape)
        for a in (1.1, 1.5, 2.0):
            assert gc_variance(f, a * f, flow, p) <= bc_variance(f, a * f, flow, p)


def assert_same_bits(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def kernel_frames(rng, h=24, w=30):
    """Two RGB frames with heavy ties, an inverted block, a constant block
    and NaN/+-inf pixels."""
    f0 = rng.integers(0, 5, size=(h, w, 3)) / 4.0
    f0[:, :10] = rng.uniform(0.0, 1.0, size=(h, 10, 3))
    f1 = 1.3 * f0 + np.where(rng.uniform(size=(h, w, 1)) < 0.5,
                             rng.normal(0.0, 0.05, size=(h, w, 3)), 0.0)
    f1[12:21, :10] = 1.0 - f0[12:21, :10]
    for f in (f0, f1):
        bad = rng.uniform(size=(h, w)) < 0.008
        f[bad] = rng.choice([np.nan, np.inf, -np.inf], size=bad.sum())[:, None]
    f0[2:9, 20:27] = 0.5
    f1[2:9, 20:27] = 0.25
    return f0, f1


def kernel_patches(rng, side, h=24, w=30, n=10):
    """Random patches of one side plus one on the frames' inverted block and
    one on their constant block."""
    rows = rng.integers(0, h - side + 1, size=n)
    cols = rng.integers(0, w - side + 1, size=n)
    return ([Patch(int(r), int(c), side, "Diffuse") for r, c in zip(rows, cols)]
            + [Patch(12, 0, side, "Diffuse"), Patch(2, 20, side, "Homogeneous")])


def kernel_flow(rng, h=24, w=30):
    """Fractional and integer motion, none on the constant block; targets
    near the border leave the frame."""
    flow = rng.uniform(-2.5, 2.5, size=(h, w, 2))
    flow[::3] = np.round(flow[::3])
    flow[2:9, 20:27] = 0.0
    return flow


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in residuals
class TestBatchedKernels:
    """Frame-once, batched kernels against the per-patch oracles, bit for bit."""

    def test_average_ranks_rows_equal_loop_oracle(self):
        rng = np.random.default_rng(30)
        rows = rng.integers(0, 4, size=(50, 25)).astype(float)
        rows[rng.uniform(size=rows.shape) < 0.05] = np.inf
        rows[rng.uniform(size=rows.shape) < 0.05] = -np.inf
        rows[rng.uniform(size=rows.shape) < 0.05] = np.nan
        rows[7] = 2.0
        got = average_ranks(rows)
        for row, ranks in zip(rows, got):
            assert np.array_equal(ranks, loop_average_ranks(row))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("side", [3, 5, 7])
    def test_oc_values_equal_per_patch_oracle(self, seed, side):
        rng = np.random.default_rng(seed)
        f0, f1 = kernel_frames(rng)
        patches = kernel_patches(rng, side)
        pixels = patch_pixels(patches)
        got = oc_values(average_ranks(to_gray(f0)[pixels]), to_gray(f1)[pixels])
        want = [patch_oc_measure(p.extract(f0), p.extract(f1)) for p in patches]
        assert np.isnan(want[-1])  # the constant block
        assert_same_bits(got, want)
        assert_same_bits([oc_measure(p.extract(f0), p.extract(f1)) for p in patches], want)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("side", [3, 5, 9])
    @pytest.mark.parametrize("occluded", [False, True])
    def test_bc_values_equal_per_patch_oracle(self, seed, side, occluded):
        rng = np.random.default_rng(seed)
        f0, f1 = kernel_frames(rng)
        flow = kernel_flow(rng)
        occl = rng.uniform(size=flow.shape[:2]) < 0.3 if occluded else None
        # a patch without usable pixels raises (tested below)
        patches = [p for p in kernel_patches(rng, side)
                   if patch_bc_variance(f0, f1, flow, p, occl) is not None]
        got = bc_values(to_gray(f0), to_gray(f1),
                        Trajectories(flow, patches, occlusion=occl))
        want = [patch_bc_variance(f0, f1, flow, p, occl) for p in patches]
        assert_same_bits(got, want)
        assert_same_bits([bc_variance(f0, f1, flow, p, exclude_occluded=occluded,
                                      occlusion=occl) for p in patches], want)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("side", [5, 7, 9])
    @pytest.mark.parametrize("occluded", [False, True])
    def test_gc_values_equal_per_patch_oracle(self, seed, side, occluded):
        rng = np.random.default_rng(seed)
        f0, f1 = kernel_frames(rng)
        flow = kernel_flow(rng)
        occl = rng.uniform(size=flow.shape[:2]) < 0.3 if occluded else None
        patches = [p for p in kernel_patches(rng, side)
                   if patch_gc_variance(f0, f1, flow, p, occl) is not None]
        grads = [gradient_fields(to_gray(f)) for f in (f0, f1)]
        got = gc_values(*grads, Trajectories(flow, patches, inset=1, occlusion=occl))
        want = [patch_gc_variance(f0, f1, flow, p, occl) for p in patches]
        assert_same_bits(got, want)
        assert_same_bits([gc_variance(f0, f1, flow, p, exclude_occluded=occluded,
                                      occlusion=occl) for p in patches], want)

    @pytest.mark.parametrize("how", ["out-of-frame", "occluded"])
    def test_patch_without_usable_pixels_raises_for_that_patch(self, how):
        rng = np.random.default_rng(40)
        f0, f1 = kernel_frames(rng)
        flow = kernel_flow(rng)
        occl = np.zeros(flow.shape[:2], dtype=bool)
        bad = Patch(10, 12, 5, "Diffuse")
        if how == "out-of-frame":
            flow[bad.slices()] = 100.0
        else:
            occl[bad.slices()] = True
        patches = [Patch(3, 3, 5, "Diffuse"), bad, Patch(15, 20, 5, "Diffuse")]
        for oracle, kernel, inset, grads in (
                (patch_bc_variance, bc_values, 0, to_gray),
                (patch_gc_variance, gc_values, 1,
                 lambda f: gradient_fields(to_gray(f)))):
            assert [oracle(f0, f1, flow, p, occl) is None for p in patches] == [
                False, True, False]
            traj = Trajectories(flow, patches, inset=inset, occlusion=occl)
            with pytest.raises(AllOccludedError, match=r"patch at \(10, 12\)"):
                kernel(grads(f0), grads(f1), traj)

    def test_gray_of_frame_slices_to_gray_of_patch(self):
        # frame-once gray conversion relies on this equality
        rng = np.random.default_rng(41)
        for _ in range(200):
            h, w = (int(v) for v in rng.integers(3, 120, size=2))
            frame = rng.uniform(0.0, 1.0, size=(h, w, 3))
            if rng.uniform() < 0.5:
                frame = np.floor(frame * 255.0 + 0.5) / 255.0
            frame[rng.uniform(size=(h, w)) < 0.02] = np.nan
            gray = to_gray(frame)
            for _ in range(10):
                side = 2 * int(rng.integers(1, (min(h, w) - 1) // 2 + 1)) + 1
                p = Patch(int(rng.integers(0, h - side + 1)),
                          int(rng.integers(0, w - side + 1)), side, "Diffuse")
                assert_same_bits(p.extract(gray), to_gray(p.extract(frame)))


class TestPsVariance:
    def test_constant_flow_zero(self):
        flow = np.tile([1.5, -0.5], (16, 16, 1))
        assert ps_variance(None, flow, None, Patch(2, 2, 7, "SameSurface")) == 0.0

    def test_affine_flow_zero(self):
        # alpha = 0.25 is dyadic: derivatives are exact, r is constant
        y, x = np.mgrid[0:32, 0:32].astype(float)
        flow = np.stack([0.25 * x, 0.5 * y], axis=-1)
        assert ps_variance(None, flow, None, Patch(4, 4, 9, "SameSurface")) == 0.0

    def test_spatiotemporal_linear_motion_zero(self):
        y, x = np.mgrid[0:16, 0:16].astype(float)
        base = np.stack([0.25 * x, np.zeros_like(x)], axis=-1)
        # flow constant in time: temporal derivative exactly zero
        assert ps_variance(base, base, base, Patch(3, 3, 7, "SameSurface")) == 0.0

    def test_missing_temporal_neighbor_raises(self):
        flow = np.zeros((8, 8, 2))
        with pytest.raises(MissingTemporalError):
            ps_variance(flow, flow, None, Patch(1, 1, 5, "SameSurface"))

    def test_motion_boundary_exceeds_smooth(self):
        flow = np.zeros((32, 32, 2))
        flow[:, 16:, 0] = 3.0  # step discontinuity
        boundary = ps_variance(None, flow, None, Patch(8, 12, 9, "MotionBoundary"))
        smooth = ps_variance(None, flow, None, Patch(8, 2, 9, "SameSurface"))
        assert boundary > smooth
        assert smooth == 0.0


class TestDichromatic:
    def synth_observations(self, rng, n=5, noise=0.0):
        z = rng.uniform(0.1, 1.0, size=3)
        za = rng.uniform(0.1, 1.0, size=3)
        m = rng.uniform(0.1, 1.0, size=n)
        k = rng.uniform(0.1, 1.0, size=n)
        obs = np.outer(m, z) + np.outer(k, za)
        if noise:
            obs = obs + rng.normal(0, noise, obs.shape)
        return np.abs(obs), z, za

    def test_exact_mixture_zero_residual(self):
        rng = np.random.default_rng(11)
        obs, z, za = self.synth_observations(rng)
        n = fit_dichromatic_plane(obs)
        assert plane_residual(obs, n) <= 1e-20
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)

    def test_cross_product_oracle(self):
        rng = np.random.default_rng(12)
        obs, z, za = self.synth_observations(rng, noise=1e-6)
        n = fit_dichromatic_plane(obs)
        want = np.cross(z, za)
        want = want / np.linalg.norm(want)
        if want[np.argmax(np.abs(want))] < 0:
            want = -want
        angle = math.acos(min(1.0, abs(float(n @ want))))
        assert angle <= 1e-3

    def test_rank_deficient_raises(self):
        za = np.array([0.2, 0.5, 0.9])
        obs = np.outer([1.0, 2.0, 3.0, 4.0], za)
        with pytest.raises(RankDeficientError):
            fit_dichromatic_plane(obs)

    def test_sign_convention(self):
        rng = np.random.default_rng(13)
        obs, _, _ = self.synth_observations(rng)
        n = fit_dichromatic_plane(obs)
        assert n[np.argmax(np.abs(n))] > 0

    def test_never_beaten_by_random_normals(self):
        rng = np.random.default_rng(14)
        obs, _, _ = self.synth_observations(rng, noise=0.01)
        n = fit_dichromatic_plane(obs)
        best = plane_residual(obs, n)
        cand = rng.normal(size=(10_000, 3))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        residuals = np.sum((obs @ cand.T) ** 2, axis=0)
        assert np.all(best <= residuals + 1e-15)

    def test_ds_angular_error_exact_inputs(self):
        rng = np.random.default_rng(15)
        pix = [self.synth_observations(rng)[0] for _ in range(40)]
        res = ds_angular_error(np.stack(pix))
        assert res.mean_deg <= 1e-6
        assert res.fraction_below == 1.0
        assert res.n_pixels == 40
        assert res.n_excluded == 0

    def test_threshold_fraction_monotone(self):
        rng = np.random.default_rng(16)
        pix = np.stack([self.synth_observations(rng, noise=0.02)[0] for _ in range(50)])
        fracs = [ds_angular_error(pix, threshold_deg=t).fraction_below
                 for t in (0.5, 1.0, 3.0, 10.0, 90.0)]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == 1.0

    def test_rank_deficient_pixels_counted(self):
        rng = np.random.default_rng(17)
        good, _, _ = self.synth_observations(rng)
        bad = np.outer([1.0, 2.0, 3.0, 4.0, 5.0], [0.3, 0.4, 0.5])
        res = ds_angular_error(np.stack([good, bad]))
        assert res.n_pixels == 1
        assert res.n_excluded == 1


class TestHelpers:
    def test_population_variance_constant_exact_zero(self):
        assert population_variance(np.full(100, 0.1)) == 0.0

    def test_bilinear_integer_positions_exact(self):
        rng = np.random.default_rng(18)
        f = rng.uniform(0, 1, size=(10, 10))
        traj = Trajectories(zero_flow(f.shape), [Patch(0, 0, 9, "Diffuse")])
        assert np.all(traj.usable)
        assert np.array_equal(traj.sample(f), f[:9, :9].reshape(1, -1))

    def test_bilinear_out_of_bounds_flagged(self):
        f = np.zeros((4, 4))
        flow = zero_flow(f.shape)
        flow[0, 0] = (0.0, -0.1)  # to row -0.1
        flow[1, 0] = (-0.5, 0.0)  # to col -0.5
        flow[0, 2] = (0.8, 0.0)  # to col 2.8, inside
        flow[2, 1] = (0.0, 1.2)  # to row 3.2
        traj = Trajectories(flow, [Patch(0, 0, 3, "Diffuse")])
        assert np.flatnonzero(~traj.usable[0]).tolist() == [0, 3, 7]

    def test_variance_order_invariant(self):
        rng = np.random.default_rng(19)
        v = rng.uniform(0, 1, 81)
        assert population_variance(v) == population_variance(v[::-1])
