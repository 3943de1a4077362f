"""Mode functions: values, orthonormality, recurrence, rotation phases."""

import math

import numpy as np
import pytest

from vortexcorr.modes import (DIPOLE_PAIR, DIPOLE_X, DIPOLE_Y, VORTEX_CCW,
                              VORTEX_CW, VORTEX_PAIR, Point2D, mode_eval,
                              overlap, phi1d, rotate_xy)

# analytic anchors: phi0(0) = pi^(-1/4), phi1(1) = sqrt(2) pi^(-1/4) e^(-1/2)
PHI0_AT_0 = math.pi ** -0.25
PHI1_AT_1 = math.sqrt(2.0) * math.pi ** -0.25 * math.exp(-0.5)


def test_phi1d_anchor_values():
    assert phi1d(0, 0.0) == pytest.approx(PHI0_AT_0, abs=1e-15)
    assert phi1d(1, 1.0) == pytest.approx(PHI1_AT_1, abs=1e-15)
    # even/odd parity
    x = np.linspace(-3, 3, 31)
    np.testing.assert_allclose(phi1d(2, -x), phi1d(2, x), atol=1e-15)
    np.testing.assert_allclose(phi1d(3, -x), -phi1d(3, x), atol=1e-15)


def test_recurrence():
    # x phi_n = sqrt(n/2) phi_{n-1} + sqrt((n+1)/2) phi_{n+1}
    x = np.linspace(-4.0, 4.0, 101)
    for n in range(1, 8):
        lhs = x * phi1d(n, x)
        rhs = (math.sqrt(n / 2.0) * phi1d(n - 1, x)
               + math.sqrt((n + 1) / 2.0) * phi1d(n + 1, x))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_dipole_x_value():
    # phi1(1) phi0(0) = sqrt(2/pi) e^(-1/2)
    want = math.sqrt(2.0 / math.pi) * math.exp(-0.5)
    assert want == pytest.approx(0.48394144903828673, abs=1e-15)
    assert mode_eval(DIPOLE_X, 1.0, 0.0) == pytest.approx(want, abs=1e-14)
    assert mode_eval(DIPOLE_Y, 0.0, 1.0) == pytest.approx(want, abs=1e-14)


def test_vortex_polar_form():
    # vortex = (r/sqrt(pi)) e^(-r^2/2) e^(+-i theta)
    r, th = 1.3, 2.1
    x, y = r * math.cos(th), r * math.sin(th)
    radial = r / math.sqrt(math.pi) * math.exp(-0.5 * r * r)
    for mode, sign in ((VORTEX_CCW, +1), (VORTEX_CW, -1)):
        got = complex(mode_eval(mode, x, y))
        want = radial * np.exp(1j * sign * th)
        assert abs(got - want) < 1e-14


def test_vortex_from_dipoles():
    xs = np.linspace(-2, 2, 9)
    ys = np.linspace(-2, 2, 9)[:, None]
    dx = mode_eval(DIPOLE_X, xs, ys)
    dy = mode_eval(DIPOLE_Y, xs, ys)
    np.testing.assert_allclose(mode_eval(VORTEX_CCW, xs, ys),
                               (dx + 1j * dy) / math.sqrt(2), atol=1e-14)
    np.testing.assert_allclose(mode_eval(VORTEX_CW, xs, ys),
                               (dx - 1j * dy) / math.sqrt(2), atol=1e-14)


def test_orthonormality():
    for pair in (VORTEX_PAIR, DIPOLE_PAIR):
        for i, a in enumerate(pair):
            for j, b in enumerate(pair):
                assert abs(overlap(a, b) - (i == j)) < 1e-12


def test_cross_basis_overlaps():
    # <dipole_x | vortex_ccw> = 1/sqrt(2), <dipole_y | vortex_ccw> = i/sqrt(2)
    assert abs(overlap(DIPOLE_X, VORTEX_CCW) - 1 / math.sqrt(2)) < 1e-12
    assert abs(overlap(DIPOLE_Y, VORTEX_CCW) - 1j / math.sqrt(2)) < 1e-12
    assert abs(overlap(DIPOLE_Y, VORTEX_CW) + 1j / math.sqrt(2)) < 1e-12


def test_rotation_phase():
    # moving a point ccw by beta multiplies the ccw vortex by e^(+i beta)
    beta = 0.77
    x, y = 0.9, -0.5
    xr, yr = rotate_xy(x, y, beta)
    before = complex(mode_eval(VORTEX_CCW, x, y))
    after = complex(mode_eval(VORTEX_CCW, xr, yr))
    assert abs(after - before * np.exp(1j * beta)) < 1e-14
    # dipole pair rotates as a 2-vector
    dxr = complex(mode_eval(DIPOLE_X, xr, yr))
    want = (math.cos(beta) * mode_eval(DIPOLE_X, x, y)
            - math.sin(beta) * mode_eval(DIPOLE_Y, x, y))
    assert abs(dxr - want) < 1e-14


def test_point2d_polar():
    p = Point2D(-1.0, 0.0)
    assert p.r == pytest.approx(1.0, abs=1e-15)
    assert p.theta == pytest.approx(math.pi, abs=1e-15)
    q = Point2D(1.0, -1.0)
    assert q.theta == pytest.approx(2.0 * math.pi - math.pi / 4.0, abs=1e-14)
