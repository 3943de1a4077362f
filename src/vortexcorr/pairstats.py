"""Pair-distance and pair-angle distributions derived from rho2.

Delta-constrained integrals are computed by coordinate changes, never by
binning a 4D lattice:

  distance   D(d)  = (d / N2) int dR int dgamma
                       rho2(R + (d/2) e_gamma, R - (d/2) e_gamma)
  rel angle  f(D)  = (1 / N2) int r dr int s ds int dphi
                       rho2((r, phi), (s, phi + D)),  folded to [0, pi)
  two angle  J(t, v) = (1 / N2) int r dr int s ds rho2((r, t), (s, v))

with N2 = <:N^2:> so every distribution integrates to 1.

The distance law is an exact kernel contraction. Every mode is
phi_v(x) = sqrt(2/pi) (v . x) exp(-|x|^2/2) with v = (1, 0), (0, 1) for the
dipole pair and (1, +-i)/sqrt(2) for the vortex pair. For the correlator
second[a, b, c, d] put u1 = conj(v_a), u2 = v_d, u3 = conj(v_b), u4 = v_c
and (ij) = u_i . u_j (bilinear, no conjugation); the Gaussian integral over
R and the average over gamma give

  K_abcd(d) = (d exp(-d^2/2) / 4) [S_abcd (1 + d^4/8) + d^2 T_abcd]
  S = (12)(34) + (13)(24) + (14)(23),   T = (12)(34) - (13)(24) - (14)(23)

so D(d) = d exp(-d^2/2) [s (1 + d^4/8) + t d^2] / (4 N2) with the two state
numbers s = sum second * S and t = sum second * T. Orthonormal modes give
(12)(34) summed against second = N2, so s + t = 2 N2, hence int D = 1 and
E[d^2] = 4 for every state.

The angular dependence of every state in the family is a low-order
trigonometric polynomial, so the angle laws use modest fixed-order
Gauss-Legendre and periodic-trapezoid rules, exact to well below the 1e-6
comparison tolerances used throughout.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .density import CORRECTED, VERBATIM, basis_modes
from .errors import (AlgebraInconsistencyError, AnisotropicStateError,
                     NoPairsError)
from .fock import dipole_correlators, pair_isotropy_defect, pair_moment
from .modes import mode_eval
from .quadrature import EXTENT, gauss_legendre, periodic_angles
from .states import StateSpec

DISTANCE_MAX = 8.0
DEFAULT_DISTANCE_POINTS = 801
DEFAULT_ANGLE_POINTS = 361
DEFAULT_TWO_ANGLE_POINTS = 180
RADIAL_ORDER = 40
ANGLE_COUNT = 16

PAIR_WEIGHT_TOL = 1e-14
ISOTROPY_TOL = 1e-10


class PairVariable(Enum):
    DISTANCE = "distance"
    REL_ANGLE = "rel-angle"
    TWO_ANGLE = "two-angle"


@dataclass
class PairDistribution:
    """Normalized density over d, folded relative angle, or the angle pair.

    values is 1D for DISTANCE / REL_ANGLE and 2D (grid x grid) for
    TWO_ANGLE. closure, when present, is the analytic density and takes
    precedence in value_at.
    """
    variable: PairVariable
    grid: np.ndarray
    values: np.ndarray
    normalization: float = 1.0
    closure: object = None
    meta: dict = field(default_factory=dict)

    def value_at(self, x, y=None):
        if self.variable is PairVariable.TWO_ANGLE:
            if self.closure is not None:
                return self.closure(x, y)
            ii = np.searchsorted(self.grid, np.mod(x, 2.0 * math.pi)) - 1
            jj = np.searchsorted(self.grid, np.mod(y, 2.0 * math.pi)) - 1
            return self.values[np.clip(ii, 0, len(self.grid) - 1),
                               np.clip(jj, 0, len(self.grid) - 1)]
        if self.closure is not None:
            return self.closure(x)
        return np.interp(x, self.grid, self.values)

    def integral(self):
        """Quadrature of the tabulated values over the domain."""
        if self.variable is PairVariable.TWO_ANGLE:
            step = self.grid[1] - self.grid[0]
            return float(np.sum(self.values) * step * step)
        if self.meta.get("estimator") == "histogram":
            step = self.grid[1] - self.grid[0]
            return float(np.sum(self.values) * step)
        if self.variable is PairVariable.REL_ANGLE:
            return float(np.trapezoid(self.values, self.grid))
        from scipy.integrate import simpson
        return float(simpson(self.values, x=self.grid))


@dataclass
class DistSummary:
    """Moments and peak locations of a distance distribution."""
    mean: float
    second_moment: float
    local_maxima: list
    value_at: object
    meta: dict = field(default_factory=dict)


def _require_pairs(state):
    norm = pair_moment(state)
    if norm <= PAIR_WEIGHT_TOL:
        raise NoPairsError(
            "state has <:N^2:> ~ 0; no particle pairs to correlate")
    return norm


def _clip_noise(values):
    # round-off can leave ~ -1e-16 at exact zeros of the density
    floor = -1e-10 * max(1.0, float(np.max(values, initial=0.0)))
    if np.min(values, initial=0.0) < floor:
        raise AnisotropicStateError(
            "distribution turned significantly negative; "
            "inconsistent correlator input")
    return np.maximum(values, 0.0)


def _distance_coefficients(state):
    """The state numbers (s, t) of the distance kernel.

    In the dipole basis v_a and v_b are the unit vectors, so every (ij) is
    a Kronecker delta and s, t reduce to traces of the correlator.
    """
    second = dipole_correlators(state).second
    direct = np.einsum("abba->", second)                # (12)(34)
    exchange = (np.einsum("aacc->", second)             # (13)(24)
                + np.einsum("abab->", second))          # (14)(23)
    s = direct + exchange
    t = direct - exchange
    worst = max(abs(s.imag), abs(t.imag))
    if worst > 1e-12 * max(1.0, abs(s.real), abs(t.real)):
        raise AlgebraInconsistencyError(
            f"distance kernel produced imaginary residue {worst:.3e}")
    return float(s.real), float(t.real)


def distance_distribution(state, n_points=DEFAULT_DISTANCE_POINTS):
    """Pair-distance density D(d) on [0, 8] from the exact kernel.

    The closure evaluates the law anywhere; values tabulates it on the grid.
    """
    norm = _require_pairs(state)
    s, t = _distance_coefficients(state)

    def closure(d):
        d = np.asarray(d, dtype=float)
        d2 = d * d
        return _clip_noise(d * np.exp(-0.5 * d2)
                           * (s * (1.0 + d2 * d2 / 8.0) + t * d2)
                           / (4.0 * norm))

    grid = np.linspace(0.0, DISTANCE_MAX, n_points)
    return PairDistribution(PairVariable.DISTANCE, grid, closure(grid),
                            normalization=norm, closure=closure,
                            meta={"kernel_s": s, "kernel_t": t})


def _angle_profiles(state, r_nodes, r_weights, thetas):
    """Radially contracted mode-product profiles G[p, q, ...].

    G[p, q, ...] = int r dr phi_p*(r, theta) phi_q(r, theta); thetas may be
    any-dimensional, radial nodes are prepended for the contraction.
    """
    modes = basis_modes(state.basis)
    th = np.asarray(thetas, dtype=float)
    rr = r_nodes.reshape((-1,) + (1,) * th.ndim)
    xx = rr * np.cos(th)[None, ...]
    yy = rr * np.sin(th)[None, ...]
    amps = np.stack([mode_eval(m, xx, yy) for m in modes])
    wr = r_weights * r_nodes
    return np.einsum("i,pi...,qi...->pq...", wr, np.conj(amps), amps)


def angle_distribution(state, n_points=DEFAULT_ANGLE_POINTS,
                       radial_order=RADIAL_ORDER, angle_count=ANGLE_COUNT):
    """Density of the relative angle folded to [0, pi).

    Requires a rotation-invariant pair density; anisotropic states (NOON)
    have no orientation-free relative-angle law and are redirected to
    two_angle_distribution.
    """
    norm = _require_pairs(state)
    defect = pair_isotropy_defect(state)
    if defect > ISOTROPY_TOL:
        raise AnisotropicStateError(
            f"pair density is not rotation invariant (defect {defect:.3e}); "
            "use two_angle_distribution instead")
    second = state.correlators().second
    r_nodes, r_weights = gauss_legendre(radial_order, 0.0, EXTENT)
    phis, _ = periodic_angles(angle_count)
    dphi = 2.0 * math.pi / angle_count

    grid = np.linspace(0.0, math.pi, n_points)
    # folded law: f(D) + f(D + pi), both sides in one batch
    shifts = np.concatenate([grid, grid + math.pi])
    base = _angle_profiles(state, r_nodes, r_weights, phis)
    moved = _angle_profiles(state, r_nodes, r_weights,
                            shifts[:, None] + phis[None, :])
    raw = np.einsum("abcd,adj,bckj->k", second, base, moved) * dphi / norm
    worst = float(np.max(np.abs(raw.imag)))
    if worst > 1e-12 * max(1.0, float(np.max(np.abs(raw.real)))):
        raise AnisotropicStateError(
            f"angle law produced imaginary residue {worst:.3e}")
    values = _clip_noise(raw.real[:n_points] + raw.real[n_points:])
    meta = {"radial_order": radial_order, "angle_count": angle_count,
            "extent": EXTENT, "isotropy_defect": defect}
    return PairDistribution(PairVariable.REL_ANGLE, grid, values,
                            normalization=norm, meta=meta)


def two_angle_distribution(state, n_points=DEFAULT_TWO_ANGLE_POINTS,
                           radial_order=RADIAL_ORDER):
    """Joint density of the two detection angles on [0, 2pi)^2.

    Radial coordinates are integrated out; the half-open periodic grid makes
    the plain Riemann sum exact for the trigonometric-polynomial laws.
    """
    norm = _require_pairs(state)
    second = state.correlators().second
    r_nodes, r_weights = gauss_legendre(radial_order, 0.0, EXTENT)
    axis = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    prof = _angle_profiles(state, r_nodes, r_weights, axis)
    joint = np.einsum("abcd,adj,bck->jk", second, prof, prof) / norm
    worst = float(np.max(np.abs(joint.imag)))
    if worst > 1e-12 * max(1.0, float(np.max(np.abs(joint.real)))):
        raise AnisotropicStateError(
            f"two-angle law produced imaginary residue {worst:.3e}")
    values = _clip_noise(joint.real)
    meta = {"radial_order": radial_order, "extent": EXTENT}
    return PairDistribution(PairVariable.TWO_ANGLE, axis, values,
                            normalization=norm, meta=meta)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _kind_of(kind):
    if isinstance(kind, StateSpec):
        return kind.normalized().kind
    return str(kind)


def closed_form_distance(kind, d, variant=CORRECTED):
    """Analytic pair-distance densities of the cataloged families.

    The Bose form is normalized with the leading d factor restored (the
    printed form integrates to (7/8)sqrt(pi/2), not 1, and contradicts the
    small-distance behavior D ~ d); variant='verbatim' keeps the
    printed one for the comparison report. The NOON law coincides with the
    coherent one: its pair correlations carry no distance information.
    """
    kind = _kind_of(kind)
    d = np.asarray(d, dtype=float)
    gauss = np.exp(-0.5 * d * d)
    if kind == "fermi-fock":
        return 0.5 * d ** 3 * gauss
    if kind == "bose-fock":
        poly = 8.0 - 4.0 * d * d + d ** 4
        if variant == VERBATIM:
            return poly * gauss / 8.0
        return d * poly * gauss / 8.0
    if kind in ("coherent", "noon"):
        return d * (8.0 + d ** 4) * gauss / 16.0
    raise ValueError(f"no printed closed distance form for kind {kind!r}")


def closed_form_angle(kind, delta, variant=CORRECTED):
    """Analytic folded relative-angle densities on [0, pi).

    variant='corrected' carries the engine/oracle-backed statistics labels
    (fermions sin^2, bosons cos^2); 'verbatim' keeps the printed,
    swapped assignment for the comparison report. The NOON value is the
    orientation-averaged marginal, which is uniform.
    """
    kind = _kind_of(kind)
    delta = np.asarray(delta, dtype=float)
    swap = variant == VERBATIM
    if kind == "fermi-fock":
        trig = np.cos(delta) if swap else np.sin(delta)
        return (2.0 / math.pi) * trig ** 2
    if kind == "bose-fock":
        trig = np.sin(delta) if swap else np.cos(delta)
        return (2.0 / math.pi) * trig ** 2
    if kind in ("coherent", "noon"):
        return np.full_like(delta, 1.0 / math.pi)
    if kind == "thermal":
        return (2.0 / (3.0 * math.pi)) * (1.0 + np.cos(delta) ** 2)
    raise ValueError(f"no closed angle form for kind {kind!r}")


def closed_form_two_angle(kind, theta, vartheta):
    """Analytic joint two-angle densities on [0, 2pi)^2."""
    kind = _kind_of(kind)
    theta = np.asarray(theta, dtype=float)
    vartheta = np.asarray(vartheta, dtype=float)
    if kind == "noon":
        return np.sin(theta + vartheta) ** 2 / (2.0 * math.pi ** 2)
    if kind == "fermi-fock":
        return np.sin(theta - vartheta) ** 2 / (2.0 * math.pi ** 2)
    if kind == "coherent":
        return np.full(np.broadcast(theta, vartheta).shape,
                       1.0 / (4.0 * math.pi ** 2))
    raise ValueError(f"no closed two-angle form for kind {kind!r}")


def analytic_distance(kind, variant=CORRECTED, n_points=DEFAULT_DISTANCE_POINTS):
    """closed_form_distance wrapped as a PairDistribution with closure."""
    grid = np.linspace(0.0, DISTANCE_MAX, n_points)

    def closure(d, _kind=_kind_of(kind), _variant=variant):
        return closed_form_distance(_kind, d, variant=_variant)

    return PairDistribution(PairVariable.DISTANCE, grid, closure(grid),
                            closure=closure,
                            meta={"form": "analytic", "variant": variant})


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def _refine_maximum(fn, lo, hi, tol=1e-9):
    """Bisection on the (central-difference) derivative sign change."""
    delta = 1e-7

    def slope(x):
        return fn(x + delta) - fn(x - delta)

    a, b = lo, hi
    if slope(a) <= 0.0 or slope(b) >= 0.0:
        return 0.5 * (lo + hi)
    while b - a > tol:
        mid = 0.5 * (a + b)
        if slope(mid) > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def summarize(dist):
    """Moments and interior maxima of a distance law with a closure.

    Moments integrate the closure over [0, 2 DISTANCE_MAX], where the mass
    beyond adds below 1e-45; maxima are scanned on [0, DISTANCE_MAX].
    """
    if dist.variable is not PairVariable.DISTANCE or dist.closure is None:
        raise ValueError("summarize expects a distance law with a closure")
    nodes, weights = gauss_legendre(160, 0.0, 2.0 * DISTANCE_MAX)
    dens = dist.closure(nodes)
    mean = float(np.sum(weights * nodes * dens))
    second = float(np.sum(weights * nodes * nodes * dens))

    peak_floor = 1e-6 * float(np.max(dist.values))
    scan = np.arange(0.0, DISTANCE_MAX + 1e-12, 1e-3)
    vals = dist.closure(scan)
    interior = ((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])
                & (vals[1:-1] > peak_floor))
    maxima = [_refine_maximum(dist.closure, scan[i - 1], scan[i + 1])
              for i in np.nonzero(interior)[0] + 1]

    meta = {"variance": second - mean * mean,
            "normalization": dist.normalization}
    meta.update(dist.meta)
    return DistSummary(mean=mean, second_moment=second,
                       local_maxima=[float(m) for m in maxima],
                       value_at=dist.value_at, meta=meta)


# ---------------------------------------------------------------------------
# law-of-cosines composition
# ---------------------------------------------------------------------------


def _density_table(density):
    """Coerce a 1D density (PairDistribution, (grid, values), callable)."""
    if isinstance(density, PairDistribution):
        return np.asarray(density.grid, float), np.asarray(density.values,
                                                           float)
    if callable(density):
        grid = np.linspace(0.0, DISTANCE_MAX, 8001)
        return grid, np.asarray(density(grid), float)
    grid, values = density
    return np.asarray(grid, float), np.asarray(values, float)


def _inverse_cdf(grid, values):
    """Inverse CDF of a tabulated density via a refined trapezoid CDF."""
    fine = np.linspace(grid[0], grid[-1], max(4001, 4 * len(grid)))
    dens = np.maximum(np.interp(fine, grid, values), 0.0)
    mids = 0.5 * (dens[1:] + dens[:-1]) * np.diff(fine)
    cdf = np.concatenate([[0.0], np.cumsum(mids)])
    if cdf[-1] <= 0.0:
        raise ValueError("density table has zero mass")
    cdf /= cdf[-1]
    # strictly increasing knots only, so interp is well defined
    keep = np.concatenate([[True], np.diff(cdf) > 0.0])
    keep[0] = keep[-1] = True
    return cdf[keep], fine[keep]


def compose_distance_samples(radial, angular, n, seed):
    """Distance samples d = sqrt(r1^2 + r2^2 - 2 r1 r2 cos T).

    Radii are drawn independently from the radial density and the relative
    angle from the angular law. The folded angle is unfolded by a fair coin
    between T and T + pi, exact for this family whose angular laws are
    pi-periodic (harmonics 0 and +/-2 only).
    """
    if n < 1:
        return np.empty(0)
    r_grid, r_values = _density_table(radial)
    r_cdf, r_knots = _inverse_cdf(r_grid, r_values)
    if isinstance(angular, PairDistribution) and \
            angular.variable is PairVariable.TWO_ANGLE:
        raise ValueError("angular law must be a relative-angle density")
    a_grid, a_values = _density_table(angular)
    a_cdf, a_knots = _inverse_cdf(a_grid, a_values)

    rng = np.random.default_rng(seed)
    u = rng.random((4, int(n)))
    r1 = np.interp(u[0], r_cdf, r_knots)
    r2 = np.interp(u[1], r_cdf, r_knots)
    theta = np.interp(u[2], a_cdf, a_knots)
    cos_t = np.where(u[3] < 0.5, np.cos(theta), -np.cos(theta))
    return np.sqrt(np.maximum(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * cos_t,
                              0.0))


def ring_radial_density(r):
    """Radial marginal p(r) = 2 r^3 exp(-r^2) shared by the whole family."""
    r = np.asarray(r, dtype=float)
    return 2.0 * r ** 3 * np.exp(-r * r)
