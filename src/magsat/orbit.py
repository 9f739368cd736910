"""Keplerian two-body propagation and a tilted-dipole geomagnetic field model.

The field is expressed in a local orbital frame as a function of the argument
of latitude ``eta = true_anomaly + argp``: the in-plane components oscillate
at twice the orbital phase, the out-of-plane component is ``-cos(i)`` times
the dipole factor ``-Me / r^3``.

Axis convention (not uniquely fixed by the model itself, so it is pinned
here): x is the along-track-like axis carrying the sin(2*eta) term, y carries
the cos(2*eta) term, z completes the triad and holds the -cos(i) component.

Units are SI internally (tesla, meters inside the field law); orbital radii
and semi-major axes are carried in km and converted at the point of use.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

EARTH_MU_KM3_S2 = 398600.4418  # WGS-84
EARTH_RADIUS_KM = 6378.137     # WGS-84
GAUSS_CM3_TO_T_M3 = 1e-10
EARTH_DIPOLE_T_M3 = 8.1e25 * GAUSS_CM3_TO_T_M3  # 8.1e25 gauss*cm^3

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FieldSample:
    """Geomagnetic field vector b in tesla, in the local orbital frame.

    For valid LEO radii the magnitude lands in roughly [1e-6, 1e-3] T;
    synthetic samples used in tests may fall outside.
    """

    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.shape != (3,):
            raise ValueError(f"field vector must have shape (3,), got {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("field vector has non-finite components")
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class OrbitalElements:
    """Classical Keplerian elements; angles in radians, normalized to [0, 2pi).

    A perigee at or below the Earth radius is warned about but accepted: the
    shipped sun-synchronous preset has a perigee only a few km above it.
    """

    a_km: float
    e: float
    inclination: float
    raan: float
    argp: float
    mean_anomaly: float

    def __post_init__(self):
        for name in ("a_km", "e", "inclination", "raan", "argp", "mean_anomaly"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"orbital element {name} is not finite")
        if self.a_km <= 0.0:
            raise ValueError(f"semi-major axis must be positive, got {self.a_km} km")
        if not 0.0 <= self.e < 1.0:
            raise ValueError(f"eccentricity must lie in [0, 1), got {self.e}")
        for name in ("inclination", "raan", "argp", "mean_anomaly"):
            object.__setattr__(self, name, getattr(self, name) % TWO_PI)
        perigee = self.a_km * (1.0 - self.e)
        if perigee <= EARTH_RADIUS_KM:
            warnings.warn(
                f"perigee radius {perigee:.1f} km is at or below the Earth radius "
                f"({EARTH_RADIUS_KM} km)",
                stacklevel=2,
            )


def solve_kepler(mean_anomaly: float, e: float) -> float:
    """Solve E - e*sin(E) = M for the eccentric anomaly E.

    Newton iteration with the analytic derivative 1 - e*cos(E); residual
    tolerance 1e-12 rad, 50 iteration cap. It is seeded at E = M for
    e < 0.8 and at E = pi above: near M = 0 a highly eccentric orbit sends
    the E = M seed far off through the near-zero derivative (e = 0.99 at
    M = 0.0616 did not converge), while the pi seed converges in at most 24
    iterations for every e in [0.8, 1). The mean
    anomaly is reduced modulo 2pi first so the residual is not swamped by
    cancellation for large M; the returned E lies in the matching principal
    interval.
    """
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must lie in [0, 1), got {e}")
    if not math.isfinite(mean_anomaly):
        raise ValueError("mean anomaly is not finite")
    m = mean_anomaly % TWO_PI
    ecc = e
    big_e = m if ecc < 0.8 else math.pi
    for _ in range(50):
        f = big_e - ecc * math.sin(big_e) - m
        if abs(f) < 1e-12:
            return big_e
        big_e -= f / (1.0 - ecc * math.cos(big_e))
    raise RuntimeError(
        f"Kepler solve did not converge in 50 iterations (M={m}, e={ecc})"
    )


def true_anomaly(eccentric_anomaly: float, e: float) -> float:
    """Quadrant-safe conversion from eccentric to true anomaly.

    Implements tan(theta/2) = sqrt((1+e)/(1-e)) * tan(E/2) via atan2.
    """
    if not 0.0 <= e < 1.0:
        raise ValueError(f"eccentricity must lie in [0, 1), got {e}")
    half = 0.5 * eccentric_anomaly
    theta = 2.0 * math.atan2(
        math.sqrt(1.0 + e) * math.sin(half),
        math.sqrt(1.0 - e) * math.cos(half),
    )
    return theta % TWO_PI


def orbit_radius(a_km: float, e: float, theta: float) -> float:
    """Conic radius r = a*(1-e^2) / (1 + e*cos(theta)) in km."""
    return a_km * (1.0 - e * e) / (1.0 + e * math.cos(theta))


def mean_motion(elements: OrbitalElements) -> float:
    """Mean motion n = sqrt(mu / a^3) in rad/s."""
    return math.sqrt(EARTH_MU_KM3_S2 / elements.a_km**3)


def orbital_period(elements: OrbitalElements) -> float:
    """Orbital period 2*pi/n in seconds."""
    return TWO_PI / mean_motion(elements)


def dipole_field(elements: OrbitalElements, theta: float, r_km: float) -> FieldSample:
    """Tilted-dipole field in the orbital frame at true anomaly theta, radius r.

    B = Dm * [ (3/2) sin(i) sin(2 eta),
              -(3/2) sin(i) (cos(2 eta) - 1/3),
              -cos(i) ]
    with eta = theta + argp and Dm = -Me / r^3 (r in meters).
    """
    if r_km <= 0.0:
        raise ValueError(f"orbit radius must be positive, got {r_km} km")
    eta = theta + elements.argp
    dm = -EARTH_DIPOLE_T_M3 / (r_km * 1000.0) ** 3
    sin_i = math.sin(elements.inclination)
    b = np.array(
        [
            dm * 1.5 * sin_i * math.sin(2.0 * eta),
            -dm * 1.5 * sin_i * (math.cos(2.0 * eta) - 1.0 / 3.0),
            -dm * math.cos(elements.inclination),
        ]
    )
    return FieldSample(b)


def field_at_time(elements: OrbitalElements, t: float) -> FieldSample:
    """Orbital-frame field at simulation time t.

    Composes mean motion, the Kepler solve, the true-anomaly conversion and
    the conic radius; deterministic and periodic in t with the orbital period.
    """
    m = elements.mean_anomaly + mean_motion(elements) * t
    big_e = solve_kepler(m, elements.e)
    theta = true_anomaly(big_e, elements.e)
    r_km = orbit_radius(elements.a_km, elements.e, theta)
    return dipole_field(elements, theta, r_km)


def field_function(elements: OrbitalElements):
    """Bind elements into a callable t -> orbital-frame FieldSample."""

    def field_at(t: float) -> FieldSample:
        return field_at_time(elements, t)

    return field_at
