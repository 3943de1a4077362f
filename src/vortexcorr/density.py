"""One- and two-body position densities of two-mode states.

The engine route expands the field operator in the state's own mode pair and
contracts mode products with the normally ordered correlators:

    rho1(x)     = sum_{p,q}       <adag_p a_q>              phi_p*(x) phi_q(x)
    rho2(x, x') = sum_{p,p',q,q'} <adag_p adag_p' a_q' a_q> phi_p*(x)
                  phi_p'*(x') phi_q(x) phi_q'(x')

rho1 integrates to <N>, rho2 to <:N^2:>. Both are Cartesian-measure
densities; polar Jacobians appear only inside integration routines. The
closed-form route evaluates the per-family expressions directly and is kept
separate so the two can be compared.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AlgebraInconsistencyError
from .fock import Basis
from .modes import DIPOLE_PAIR, VORTEX_PAIR, mode_eval

IMAG_TOL = 1e-12


def basis_modes(basis):
    return VORTEX_PAIR if basis is Basis.VORTEX else DIPOLE_PAIR


def _real_checked(values, label):
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    worst = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if worst > IMAG_TOL * scale:
        raise AlgebraInconsistencyError(
            f"{label} produced imaginary residue {worst:.3e}")
    return values.real


def rho1(state, x, y):
    """One-body density at Cartesian points (vectorized)."""
    first = state.correlators().first
    modes = basis_modes(state.basis)
    amps = np.stack([mode_eval(m, x, y) for m in modes])
    values = np.einsum("pq,p...,q...->...", first, np.conj(amps), amps)
    return _real_checked(np.asarray(values), "rho1")


def _mode_products(modes, x, y):
    """P[(p, q)] = phi_p*(x) phi_q(x), shape (4, ...)."""
    amps = np.stack([mode_eval(m, x, y) for m in modes])
    return (np.conj(amps)[:, None] * amps[None, :]).reshape(
        (4,) + amps.shape[1:])


def rho2(state, x1, y1, x2, y2):
    """Two-body density at Cartesian point pairs (vectorized).

    rho2 is bilinear in the mode products: with S[(a, d), (b, c)] =
    second[a, b, c, d] it is the 4x4 sandwich P(x1)^T S P(x2). S meets
    P(x1) in one small matrix product, which then meets P(x2) in a
    four-term broadcast sum.
    """
    second = state.correlators().second
    modes = basis_modes(state.basis)
    p1 = _mode_products(modes, x1, y1)
    p2 = _mode_products(modes, x2, y2)
    # second[p, p', q', q] contracted with phi_p*(1) phi_q(1) phi_p'*(2) phi_q'(2);
    # sandwich[(b, c), (a, d)] = second[a, b, c, d] is S transposed
    sandwich = second.transpose(1, 2, 0, 3).reshape(4, 4)
    left = (sandwich @ p1.reshape(4, -1)).reshape(p1.shape)
    values = np.einsum("k...,k...->...", left, p2)
    return _real_checked(np.asarray(values), "rho2")


@dataclass
class DensityField:
    """rho1 sampled on a uniform grid; values[i, j] = rho1(x[i], y[j])."""
    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    total: float
    meta: dict


def density_grid(state, extent=6.0, step=0.05, meta=None):
    """Tabulate rho1 on [-extent, extent]^2.

    The trapezoid total is effectively exact here because the integrand
    decays like a Gaussian well inside the box.
    """
    n = int(round(2.0 * extent / step)) + 1
    x = -extent + step * np.arange(n)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    values = rho1(state, xx, yy)
    total = float(np.trapezoid(np.trapezoid(values, x, axis=1), x))
    info = {"extent": extent, "step": step}
    if meta:
        info.update(meta)
    return DensityField(x=x, y=x, values=values, total=total, meta=info)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

CORRECTED = "corrected"
VERBATIM = "verbatim"


def _closed_modes(spec):
    return basis_modes(Basis(spec.normalized().basis))


def rho1_closed(spec, x, y):
    """Closed-form one-body density for the cataloged families."""
    spec = spec.normalized()
    mode_a, mode_b = _closed_modes(spec)
    fa, fb = mode_eval(mode_a, x, y), mode_eval(mode_b, x, y)
    if spec.kind == "fermi-fock":
        return (np.abs(fa) ** 2 + np.abs(fb) ** 2)
    if spec.kind == "bose-fock":
        return spec.n * np.abs(fa) ** 2 + spec.m * np.abs(fb) ** 2
    if spec.kind == "coherent":
        return np.abs(spec.alpha_a * fa + spec.alpha_b * fb) ** 2
    if spec.kind == "thermal":
        return spec.nbar_a * np.abs(fa) ** 2 + spec.nbar_b * np.abs(fb) ** 2
    if spec.kind == "noon":
        return np.abs(fa) ** 2 + np.abs(fb) ** 2
    if spec.kind == "cothermal":
        coh = np.abs(spec.alpha_a * fa - 1.0j * spec.alpha_a * fb) ** 2
        return coh + spec.nbar_a * (np.abs(fa) ** 2 + np.abs(fb) ** 2)
    raise ValueError(f"no closed rho1 for kind {spec.kind!r}")


def rho2_closed(spec, x1, y1, x2, y2, variant=CORRECTED):
    """Closed-form two-body density.

    variant='corrected' is the engine-consistent form; 'verbatim'
    reproduces the printed same-label pairing (vortex basis), kept only so
    the cross-check report can quantify the difference.
    """
    spec = spec.normalized()
    mode_a, mode_b = _closed_modes(spec)
    a1, b1 = mode_eval(mode_a, x1, y1), mode_eval(mode_b, x1, y1)
    a2, b2 = mode_eval(mode_a, x2, y2), mode_eval(mode_b, x2, y2)
    if variant not in (CORRECTED, VERBATIM):
        raise ValueError(f"unknown variant {variant!r}")
    verbatim = variant == VERBATIM

    if spec.kind == "fermi-fock":
        if verbatim:
            return np.abs(a1 * a2 - b1 * b2) ** 2
        return np.abs(a1 * b2 - b1 * a2) ** 2
    if spec.kind == "bose-fock":
        n, m = spec.n, spec.m
        if verbatim:
            exchange = np.abs(a1 * a2 + b1 * b2) ** 2
        else:
            exchange = np.abs(a1 * b2 + b1 * a2) ** 2
        return (n * m * exchange
                + n * (n - 1) * np.abs(a1 * a2) ** 2
                + m * (m - 1) * np.abs(b1 * b2) ** 2)
    if spec.kind == "coherent":
        if verbatim:
            # printed as a product of the two single-mode densities
            return (np.abs(spec.alpha_a * a1) ** 2
                    * np.abs(spec.alpha_b * b2) ** 2)
        d1 = np.abs(spec.alpha_a * a1 + spec.alpha_b * b1) ** 2
        d2 = np.abs(spec.alpha_a * a2 + spec.alpha_b * b2) ** 2
        return d1 * d2
    if spec.kind == "thermal":
        nb = (spec.nbar_a, spec.nbar_b)
        f1 = (a1, b1)
        f2 = (a2, b2)
        out = np.zeros(np.broadcast(a1, a2).shape)
        for p in range(2):
            for pp in range(2):
                direct = np.abs(f1[p]) ** 2 * np.abs(f2[pp]) ** 2
                exch = (np.conj(f1[p]) * f2[p]
                        * np.conj(f2[pp]) * f1[pp]).real
                out = out + nb[p] * nb[pp] * (direct + exch)
        return out
    if spec.kind == "noon":
        return np.abs(a1 * a2 - b1 * b2) ** 2
    raise ValueError(f"no closed rho2 for kind {spec.kind!r}")
