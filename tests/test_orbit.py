import math

import numpy as np
import pytest
from conftest import body_field

import magsat as ms
from magsat import FieldSample, OrbitalElements
from magsat.orbit import EARTH_DIPOLE_T_M3, EARTH_MU_KM3_S2

TWO_PI = 2.0 * math.pi


def kepler_residual(big_e, e, m):
    return big_e - e * math.sin(big_e) - m


def bisect_kepler(m, e, lo, hi, tol=1e-13):
    # sign-change bracketing oracle, independent of the Newton path
    flo = kepler_residual(lo, e, m)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = kepler_residual(mid, e, m)
        if abs(hi - lo) < tol:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- Kepler solve ---------------------------------------------------------------

def test_solve_kepler_circular_orbit():
    for m in (0.0, 0.3, 2.0, 5.9):
        assert ms.solve_kepler(m, 0.0) == m


def test_solve_kepler_half_turn_is_fixed_point():
    for e in (0.0, 0.3, 0.9):
        assert ms.solve_kepler(math.pi, e) == math.pi


def test_solve_kepler_table_case_matches_bisection():
    m = math.radians(240.49)
    e = 0.046440
    big_e = ms.solve_kepler(m, e)
    oracle = bisect_kepler(m, e, m - 1.0, m + 1.0)
    assert abs(big_e - oracle) < 1e-10
    assert abs(kepler_residual(big_e, e, m)) < 1e-12


def test_solve_kepler_residual_random():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        m = float(rng.uniform(0.0, TWO_PI))
        e = float(rng.uniform(0.0, 0.95))
        big_e = ms.solve_kepler(m, e)
        assert abs(kepler_residual(big_e, e, m)) < 1e-12


def test_solve_kepler_residual_high_eccentricity():
    # seeded at E = M, Newton failed to converge for these near M = 0
    ms_grid = [0.0616, 0.061575216010359944, 0.0132, 1e-9, TWO_PI - 1e-9]
    ms_grid += [float(m) for m in np.linspace(0.0, TWO_PI, 2001)]
    for e in (0.8, 0.9, 0.99, 0.999, 1.0 - 1e-9):
        for m in ms_grid:
            big_e = ms.solve_kepler(m, e)
            assert abs(kepler_residual(big_e, e, m % TWO_PI)) < 1e-12, (e, m)


def test_solve_kepler_reduces_large_mean_anomaly():
    m = 12345.678
    big_e = ms.solve_kepler(m, 0.2)
    assert abs(kepler_residual(big_e, 0.2, m % TWO_PI)) < 1e-12


def test_solve_kepler_rejects_bad_eccentricity():
    with pytest.raises(ValueError):
        ms.solve_kepler(1.0, 1.0)
    with pytest.raises(ValueError):
        ms.solve_kepler(1.0, -0.1)


# --- true anomaly and radius -----------------------------------------------------

def test_true_anomaly_circular():
    for big_e in (0.0, 0.7, 2.5, 4.4):
        assert abs(ms.true_anomaly(big_e, 0.0) - big_e) < 1e-12


def test_true_anomaly_apsides():
    for e in (0.0, 0.3, 0.9):
        assert ms.true_anomaly(0.0, e) == 0.0
        assert abs(ms.true_anomaly(math.pi, e) - math.pi) < 1e-12


def test_true_anomaly_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(500):
        big_e = float(rng.uniform(0.0, TWO_PI))
        e = float(rng.uniform(0.0, 0.95))
        theta = ms.true_anomaly(big_e, e)
        # inverse map back to the eccentric anomaly
        back = 2.0 * math.atan2(
            math.sqrt(1.0 - e) * math.sin(theta / 2.0),
            math.sqrt(1.0 + e) * math.cos(theta / 2.0),
        ) % TWO_PI
        diff = abs(back - big_e)
        assert min(diff, TWO_PI - diff) < 1e-10


def test_radius_projection_consistency():
    # r*cos(theta) = a*(cos(E) - e) ties radius, true anomaly and E together
    a, e = 6691.6, 0.046440
    m = math.radians(240.49)
    big_e = ms.solve_kepler(m, e)
    theta = ms.true_anomaly(big_e, e)
    r = ms.orbit_radius(a, e, theta)
    assert abs(r * math.cos(theta) - a * (math.cos(big_e) - e)) < 1e-6


def test_orbit_radius_apsides_and_semi_latus():
    a, e = 6691.6, 0.046440
    assert math.isclose(ms.orbit_radius(a, e, 0.0), a * (1 - e), rel_tol=1e-15)
    assert math.isclose(ms.orbit_radius(a, e, math.pi), a * (1 + e), rel_tol=1e-15)
    assert math.isclose(
        ms.orbit_radius(a, e, math.pi / 2.0), a * (1 - e * e), rel_tol=1e-15
    )


# --- dipole field -----------------------------------------------------------------

def test_dipole_constants_conversion():
    assert math.isclose(EARTH_DIPOLE_T_M3, 8.1e15, rel_tol=1e-15)
    assert EARTH_MU_KM3_S2 == 398600.4418


def test_dipole_field_equatorial_orbit():
    elements = OrbitalElements(
        a_km=7000.0, e=0.0, inclination=0.0, raan=0.0, argp=0.0, mean_anomaly=0.0
    )
    r = 7000.0
    dm = -EARTH_DIPOLE_T_M3 / (r * 1000.0) ** 3
    sample = ms.dipole_field(elements, 1.234, r)
    np.testing.assert_allclose(sample.b, [0.0, 0.0, -dm], rtol=1e-14, atol=1e-20)


def test_dipole_field_eta_zero(sso_elements):
    # at eta = 0 only the constant terms survive: B = Dm*(0, -sin i, -cos i)
    theta = -sso_elements.argp
    r = ms.orbit_radius(sso_elements.a_km, sso_elements.e, theta)
    dm = -EARTH_DIPOLE_T_M3 / (r * 1000.0) ** 3
    sample = ms.dipole_field(sso_elements, theta, r)
    expected = dm * np.array(
        [0.0, -math.sin(sso_elements.inclination), math.cos(sso_elements.inclination)]
    )
    # -cos(i) with i > 90 deg flips sign; write it out explicitly
    expected[2] = dm * (-math.cos(sso_elements.inclination))
    np.testing.assert_allclose(sample.b, expected, rtol=1e-12, atol=1e-20)


def test_dipole_field_eta_quarter_turn(sso_elements):
    # at eta = pi/4 the x component is Dm * (3/2) * sin(i)
    theta = math.pi / 4.0 - sso_elements.argp
    r = ms.orbit_radius(sso_elements.a_km, sso_elements.e, theta)
    dm = -EARTH_DIPOLE_T_M3 / (r * 1000.0) ** 3
    sample = ms.dipole_field(sso_elements, theta, r)
    assert math.isclose(
        sample.b[0], dm * 1.5 * math.sin(sso_elements.inclination), rel_tol=1e-12
    )


def test_dipole_field_in_plane_components_have_period_pi(sso_elements):
    r = sso_elements.a_km
    for eta in (0.1, 0.9, 2.2):
        b1 = ms.dipole_field(sso_elements, eta - sso_elements.argp, r).b
        b2 = ms.dipole_field(sso_elements, eta + math.pi - sso_elements.argp, r).b
        np.testing.assert_allclose(b1[:2], b2[:2], rtol=1e-9, atol=1e-20)


def test_dipole_field_x_component_zero_at_eta_multiples_of_half_pi(sso_elements):
    r = sso_elements.a_km
    for eta in (0.0, math.pi / 2.0):
        b = ms.dipole_field(sso_elements, eta - sso_elements.argp, r).b
        assert abs(b[0]) < 1e-18


def test_dipole_field_rejects_nonpositive_radius(sso_elements):
    with pytest.raises(ValueError):
        ms.dipole_field(sso_elements, 0.0, -1.0)


# --- field over time ----------------------------------------------------------------

def test_field_at_time_zero_composition(sso_elements):
    big_e = ms.solve_kepler(sso_elements.mean_anomaly, sso_elements.e)
    theta = ms.true_anomaly(big_e, sso_elements.e)
    r = ms.orbit_radius(sso_elements.a_km, sso_elements.e, theta)
    direct = ms.dipole_field(sso_elements, theta, r)
    via_time = ms.field_at_time(sso_elements, 0.0)
    np.testing.assert_array_equal(via_time.b, direct.b)


def test_field_at_time_periodicity(sso_elements):
    period = ms.orbital_period(sso_elements)
    for t in (0.0, 137.0, 2000.0):
        b1 = ms.field_at_time(sso_elements, t).b
        b2 = ms.field_at_time(sso_elements, t + period).b
        assert np.max(np.abs(b1 - b2)) < 1e-12 * np.max(np.abs(b1))


def test_field_bz_constant_for_circular_orbit():
    elements = OrbitalElements(
        a_km=7000.0, e=0.0, inclination=math.radians(96.7),
        raan=0.0, argp=0.0, mean_anomaly=0.0,
    )
    bz = [ms.field_at_time(elements, t).b[2] for t in (0.0, 500.0, 1500.0, 3000.0)]
    assert max(bz) - min(bz) < 1e-20


def test_field_magnitude_sane_for_leo(sso_elements):
    # loose LEO plausibility band on the sample type
    period = ms.orbital_period(sso_elements)
    for t in np.linspace(0.0, period, 64):
        mag = np.linalg.norm(ms.field_at_time(sso_elements, float(t)).b)
        assert 1e-6 < mag < 1e-3


def test_mean_motion_and_period(sso_elements):
    n = ms.mean_motion(sso_elements)
    assert math.isclose(n, math.sqrt(398600.4418 / 6691.6**3), rel_tol=1e-15)
    assert math.isclose(ms.orbital_period(sso_elements), TWO_PI / n, rel_tol=1e-15)


# --- orbital-to-body rotation (of dynamics._rhs) ---------------------------------------

def test_to_body_frame_identity():
    b = (1e-5, -2e-5, 3e-5)
    np.testing.assert_allclose(body_field((0.0, 0.0, 0.0, 1.0), b), b, atol=1e-20)


def test_to_body_frame_half_turn_about_z():
    out = body_field((0.0, 0.0, 1.0, 0.0), (1e-5, -2e-5, 3e-5))
    np.testing.assert_allclose(out, [-1e-5, 2e-5, 3e-5], atol=1e-20)


def test_to_body_frame_preserves_norm():
    rng = np.random.default_rng(17)
    for _ in range(300):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        b = rng.normal(size=3) * 1e-5
        out = np.array(body_field(tuple(q), tuple(b)))
        assert abs(np.linalg.norm(out) - np.linalg.norm(b)) < 1e-13 * np.linalg.norm(b) + 1e-21


def test_to_body_frame_inverted_by_conjugate():
    rng = np.random.default_rng(19)
    for _ in range(100):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        b = rng.normal(size=3) * 1e-5
        fwd = body_field(tuple(q), tuple(b))
        conj = (-q[0], -q[1], -q[2], q[3])
        back = body_field(conj, fwd)
        np.testing.assert_allclose(back, b, atol=1e-19, rtol=1e-12)


def test_rotation_matrix_is_orthonormal():
    # columns of the rotation matrix are the images of the orbital axes
    rng = np.random.default_rng(23)
    for _ in range(50):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        r = np.column_stack([body_field(tuple(q), tuple(e)) for e in np.eye(3)])
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-14)
        assert math.isclose(float(np.linalg.det(r)), 1.0, abs_tol=1e-13)


# --- element validation ---------------------------------------------------------------

def test_elements_reject_bad_eccentricity():
    with pytest.raises(ValueError, match="ccentricity"):
        OrbitalElements(a_km=7000.0, e=1.2, inclination=0.0, raan=0.0,
                        argp=0.0, mean_anomaly=0.0)


@pytest.mark.parametrize("a_km", [0.0, -7000.0])
def test_elements_reject_nonpositive_semi_major_axis(a_km):
    with pytest.raises(ValueError, match="semi-major axis"):
        OrbitalElements(a_km=a_km, e=0.0, inclination=0.0, raan=0.0,
                        argp=0.0, mean_anomaly=0.0)


def test_elements_normalize_angles():
    el = OrbitalElements(a_km=7000.0, e=0.0, inclination=-math.pi / 2.0,
                         raan=3.0 * math.pi, argp=0.0, mean_anomaly=TWO_PI)
    assert math.isclose(el.inclination, 1.5 * math.pi, rel_tol=1e-15)
    assert math.isclose(el.raan, math.pi, rel_tol=1e-15)
    assert el.mean_anomaly == 0.0


def test_elements_warn_on_low_perigee():
    with pytest.warns(UserWarning, match="perigee"):
        OrbitalElements(a_km=6691.6, e=0.06, inclination=0.0, raan=0.0,
                        argp=0.0, mean_anomaly=0.0)


def test_table_elements_do_not_warn(sso_elements):
    # perigee sits a couple of km above the Earth radius: low, but accepted
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        OrbitalElements(
            a_km=6691.6, e=0.046440, inclination=math.radians(96.7),
            raan=math.radians(100.9), argp=math.radians(119.7),
            mean_anomaly=math.radians(240.49),
        )


def test_field_sample_validation():
    with pytest.raises(ValueError):
        FieldSample(np.array([1e-5, 0.0]))
    with pytest.raises(ValueError):
        FieldSample(np.array([np.nan, 0.0, 0.0]))
