"""Mode functions: values, closed form, orthonormality, rotation phases."""

import math

import numpy as np
import pytest

from quadrature import gauss_legendre
from vortexcorr.modes import (DIPOLE_PAIR, DIPOLE_X, DIPOLE_Y, VORTEX_CCW,
                              VORTEX_CW, VORTEX_PAIR, mode_eval)
from vortexcorr.oracle import EXTENT


def _phi1d(n, x):
    """Reference 1D oscillator eigenfunction of order 0 or 1:
    (2^n n! sqrt(pi))^{-1/2} exp(-x^2/2) H_n(x), prefactor in logs."""
    log_norm = -0.5 * (n * math.log(2.0) + math.lgamma(n + 1)) \
        - 0.25 * math.log(math.pi)
    hermite = 2.0 * x if n == 1 else np.ones_like(x)
    return hermite * np.exp(log_norm - 0.5 * x * x)


def _product_route(mode, x, y):
    """Reference modes as products of 1D eigenfunctions."""
    dx = _phi1d(1, x) * _phi1d(0, y)
    dy = _phi1d(0, x) * _phi1d(1, y)
    return {"dipole-x": dx + 0.0j, "dipole-y": dy + 0.0j,
            "vortex-ccw": (dx + 1.0j * dy) / math.sqrt(2.0),
            "vortex-cw": (dx - 1.0j * dy) / math.sqrt(2.0)}[mode.kind]


def _overlap(mode_a, mode_b, order=64):
    """<a|b> by a tensor Gauss-Legendre rule over the mode box."""
    nodes, weights = gauss_legendre(order, -EXTENT, EXTENT)
    x, y = nodes[:, None], nodes[None, :]
    w = weights[:, None] * weights[None, :]
    return np.sum(np.conj(mode_eval(mode_a, x, y)) * mode_eval(mode_b, x, y)
                  * w)


def test_closed_form_matches_product_route():
    x, y = np.random.default_rng(11).uniform(-EXTENT, EXTENT, (2, 20000))
    for mode in VORTEX_PAIR + DIPOLE_PAIR:
        got = mode_eval(mode, x, y)
        want = _product_route(mode, x, y)
        assert got.dtype == np.complex128
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0,
                                   err_msg=mode.kind)


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
                assert abs(_overlap(a, b) - (i == j)) < 1e-12


def test_cross_basis_overlaps():
    # <dipole_x | vortex_ccw> = 1/sqrt(2), <dipole_y | vortex_ccw> = i/sqrt(2)
    assert abs(_overlap(DIPOLE_X, VORTEX_CCW) - 1 / math.sqrt(2)) < 1e-12
    assert abs(_overlap(DIPOLE_Y, VORTEX_CCW) - 1j / math.sqrt(2)) < 1e-12
    assert abs(_overlap(DIPOLE_Y, VORTEX_CW) + 1j / math.sqrt(2)) < 1e-12


def test_rotation_phase():
    # moving a point ccw by beta multiplies the ccw vortex by e^(+i beta)
    beta = 0.77
    c, s = math.cos(beta), math.sin(beta)
    x, y = 0.9, -0.5
    xr, yr = c * x - s * y, s * x + c * y
    before = complex(mode_eval(VORTEX_CCW, x, y))
    after = complex(mode_eval(VORTEX_CCW, xr, yr))
    assert abs(after - before * np.exp(1j * beta)) < 1e-14
    # dipole pair rotates as a 2-vector
    dxr = complex(mode_eval(DIPOLE_X, xr, yr))
    want = c * mode_eval(DIPOLE_X, x, y) - s * mode_eval(DIPOLE_Y, x, y)
    assert abs(dxr - want) < 1e-14
