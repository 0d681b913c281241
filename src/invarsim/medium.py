"""Homogeneous participating-medium optics: attenuation, phase, airlight.

Attenuation along a path follows the exponential law per channel; in-scatter
("airlight") has a closed form for a homogeneous medium: the ambient part
saturates toward the airlight color with path length, and each directional
source adds a single-scattering term weighted by the phase function at the
sun/view angle.
"""

from __future__ import annotations

import math

import numpy as np


def transmittance(medium, distance):
    """Per-channel surviving fraction exp(-beta_c * d).

    ``distance`` may be a scalar or an array; the result gains a trailing
    channel axis of size 3.  A zero beta yields exactly 1.0, including at
    infinite distance.  Values multiply over consecutive path segments.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be >= 0")
    beta = np.asarray(medium.beta, dtype=float)
    with np.errstate(invalid="ignore"):
        arg = np.multiply.outer(d, beta)
        # 0 * inf would be nan; a clear channel transmits fully at any distance
        arg = np.where(beta > 0.0, arg, 0.0)
    return np.exp(-arg)


def schlick_phase(k: float, cos_theta):
    """Schlick angular scattering density (1/sr) at anisotropy ``k``.

    Normalized over the sphere for every |k| < 1; k=0 is isotropic 1/(4*pi),
    positive k peaks forward (cos_theta -> 1).
    """
    if not -1.0 < k < 1.0:
        raise ValueError(f"anisotropy must lie strictly inside (-1, 1), got {k}")
    mu = np.asarray(cos_theta, dtype=float)
    if np.any(mu < -1.0 - 1e-12) or np.any(mu > 1.0 + 1e-12):
        raise ValueError("cos_theta outside [-1, 1]")
    denom = 1.0 - k * mu
    return (1.0 - k * k) / (4.0 * math.pi * denom * denom)


def sun_transmittance(medium, direction):
    """Per-channel extinction of a directional source through the medium layer.

    The slant path is ``layer_height / |dir_y|``; a horizontal sun is capped
    at a 10x slant.  Clear channels transmit fully.
    """
    dy = abs(float(direction[1]))
    slant = medium.layer_height / max(dy, 0.1)
    return transmittance(medium, slant)


def source_colors(medium, lights):
    """The summed color of the ambient sources, and per directional source
    its direction and its color in the layer, after slant-path extinction.
    Spot sources are not scattered (their airlight is negligible at scene
    scale and is documented as out of model)."""
    ambient = np.zeros(3)
    suns = []
    for light in lights:
        rgb = np.asarray(light.color, dtype=float) * light.intensity
        if light.kind == "ambient":
            ambient = ambient + rgb
        elif light.kind == "directional":
            suns.append((np.asarray(light.direction, dtype=float),
                         rgb * sun_transmittance(medium, light.direction)))
    return ambient, suns


def airlight(medium, ray_dirs, ambient, suns, one_minus_t):
    """Radiance scattered into view paths that lose the fraction
    ``one_minus_t`` = 1 - T(d) of their light, per channel.

    ``ambient`` and ``suns`` are the ``source_colors`` of the lights.
    Ambient sources contribute ``airlight_color * ambient * (1 - T(d))``;
    each directional source contributes the closed-form homogeneous
    single-scattering integral, i.e. its in-layer color weighted by the
    phase function at the light/view angle times ``(1 - T(d))``.
    """
    out = one_minus_t * (np.asarray(medium.airlight_color) * ambient)
    for sun, rgb in suns:
        # angle between the light's travel direction and the scattered
        # (toward-camera) travel direction; forward scattering looks sunward
        cos_theta = -(ray_dirs @ sun)
        phase = schlick_phase(medium.anisotropy, np.clip(cos_theta, -1.0, 1.0))
        out += one_minus_t * (phase[..., None] * rgb)
    return out


def observed_radiance(medium, ray_dirs, ambient, suns, depth, surface_radiance):
    """Attenuated surface radiance plus airlight: what the camera sees.

    ``ambient`` and ``suns`` are the ``source_colors`` of the lights.  The
    transmittance is computed once and serves both terms; a clear medium
    returns ``surface_radiance`` itself.
    """
    if medium.is_clear:
        return surface_radiance
    T = transmittance(medium, depth)
    return T * surface_radiance + airlight(medium, ray_dirs, ambient, suns, 1.0 - T)
