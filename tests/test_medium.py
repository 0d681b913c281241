import math

import numpy as np
import pytest

from invarsim.medium import (airlight, observed_radiance, schlick_phase, source_colors,
                             transmittance)
from invarsim.scene import LightSpec, MediumSpec, WEATHER_PRESETS
from oracles import sphere_integral


def fog(beta=0.1, k=0.2, airlight_color=(1.0, 1.0, 1.0)):
    return MediumSpec(beta=(beta, beta, beta), anisotropy=k,
                      airlight_color=airlight_color, weather_tag="Fog")


AMBIENT_WHITE = (LightSpec(kind="ambient", color=(1, 1, 1), intensity=1.0),)


class TestTransmittance:
    def test_clear_medium_transmits_fully(self):
        assert np.allclose(transmittance(MediumSpec(), 123.0), 1.0)
        assert np.allclose(transmittance(MediumSpec(), np.inf), 1.0)

    def test_closed_form_value(self):
        t = transmittance(fog(0.1), 10.0)
        assert np.allclose(t, math.exp(-1.0), atol=1e-15)

    def test_zero_distance(self):
        assert np.allclose(transmittance(fog(0.37), 0.0), 1.0)

    def test_composition_over_segments(self):
        rng = np.random.default_rng(5)
        m = MediumSpec(beta=(0.02, 0.05, 0.09), weather_tag="Fog")
        for _ in range(200):
            d1, d2 = rng.uniform(0, 80, size=2)
            lhs = transmittance(m, d1 + d2)
            rhs = transmittance(m, d1) * transmittance(m, d2)
            assert np.all(np.abs(lhs - rhs) <= 1e-12)

    def test_infinite_distance_saturates(self):
        assert np.allclose(transmittance(fog(0.1), np.inf), 0.0)


class TestSchlickPhase:
    def test_isotropic_value(self):
        assert schlick_phase(0.0, 0.3) == pytest.approx(1.0 / (4 * math.pi), abs=1e-15)

    @pytest.mark.parametrize("k", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_normalizes_over_sphere(self, k):
        total = sphere_integral(lambda mu: schlick_phase(k, mu))
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_forward_exceeds_backward(self):
        assert schlick_phase(0.5, 1.0) > schlick_phase(0.5, -1.0)

    def test_strictly_positive(self):
        mu = np.linspace(-1, 1, 101)
        assert np.all(schlick_phase(0.85, mu) > 0)

    @pytest.mark.parametrize("k", [1.0, -1.0, 1.3])
    def test_domain_error(self, k):
        with pytest.raises(ValueError):
            schlick_phase(k, 0.0)


def scattered(medium, dirs, lights, depth):
    """Airlight over ``depth`` meters under ``lights``."""
    one_minus_t = 1.0 - transmittance(medium, depth)
    return airlight(medium, dirs, *source_colors(medium, lights), one_minus_t)


class TestAirlight:
    def test_clear_medium_no_airlight(self):
        dirs = np.array([[0.0, 0.0, 1.0]])
        out = scattered(MediumSpec(), dirs, AMBIENT_WHITE, np.array([50.0]))
        assert np.all(out == 0.0)

    def test_ambient_only_saturates_to_airlight_color(self):
        m = fog(0.2, 0.0, airlight_color=(0.8, 0.9, 1.0))
        dirs = np.array([[0.0, 0.0, 1.0]])
        out = scattered(m, dirs, AMBIENT_WHITE, np.array([np.inf]))
        assert np.allclose(out[0], (0.8, 0.9, 1.0), atol=1e-15)

    def test_ambient_fog_coplanarity_exact(self):
        """Observed colors stay in span{surface color, airlight color}."""
        m = fog(0.05, 0.0, airlight_color=(0.7, 0.8, 1.0))
        rng = np.random.default_rng(3)
        surface = rng.uniform(0.05, 0.9, size=(64, 3))
        a = np.asarray(m.airlight_color)
        dirs = np.tile([[0.0, 0.0, 1.0]], (64, 1))
        for d in (3.0, 12.0, 55.0):
            obs = observed_radiance(m, dirs, *source_colors(m, AMBIENT_WHITE), np.full(64, d),
                                    surface)
            for i in range(64):
                basis = np.stack([surface[i], a])
                coef, res, rank, _ = np.linalg.lstsq(basis.T, obs[i], rcond=None)
                recon = basis.T @ coef
                assert np.allclose(recon, obs[i], atol=1e-12)

    def test_directional_term_uses_phase(self):
        sun = LightSpec(kind="directional", direction=(0.0, -1.0, 0.0),
                        color=(1, 1, 1), intensity=2.0)
        m = fog(0.1, 0.5)
        down = np.array([[0.0, -1.0, 0.0]])   # looking along the light travel
        up = np.array([[0.0, 1.0, 0.0]])      # looking into the sun
        a_down = scattered(m, down, (sun,), np.array([30.0]))
        a_up = scattered(m, up, (sun,), np.array([30.0]))
        # forward scattering: sunward view collects more in-scatter
        assert np.all(a_up > a_down)
        sun_extinction = math.exp(-0.1 * m.layer_height)
        expected_up = ((1 - math.exp(-0.1 * 30.0)) * schlick_phase(0.5, 1.0)
                       * 2.0 * sun_extinction)
        assert a_up[0, 0] == pytest.approx(expected_up, rel=1e-12)

    def test_sun_dims_with_layer_density(self):
        from invarsim.medium import sun_transmittance

        direction = (0.0, -0.743, 0.669)
        thin = sun_transmittance(fog(0.005), direction)
        thick = sun_transmittance(fog(0.05), direction)
        assert np.all(thin > thick)
        assert np.all(sun_transmittance(MediumSpec(), direction) == 1.0)

    def test_weather_presets_are_valid(self):
        for tag, preset in WEATHER_PRESETS.items():
            assert preset.weather_tag == tag
            if tag == "Clear":
                assert preset.is_clear
            else:
                assert not preset.is_clear
