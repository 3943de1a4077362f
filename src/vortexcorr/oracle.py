"""Independent cross-checks of the engine and of the reference closed forms.

Everything on the checking side is built without the operator engine:
definite two-particle states get explicit (anti)symmetrized first-quantized
wavefunctions, thermal states a convex geometric mixture of Fock pair
densities (weighted by factorial moments of the geometric law, read off its
generating function), coherent states an amplitude factorization, and
cothermal states Wick moment algebra. The |Psi|^2 quadratures assume only
that Psi is bilinear in the two particles' mode amplitudes (2x2 Gram
matrices), and they are exact (Golub and Welsch 1969): every mode is
(v . x) exp(-|x|^2/2), so along a ray the integrand is u exp(-u) in
u = r^2, which one Gauss-Laguerre node integrates, and in the mean angle a
trigonometric polynomial of degree at most 4, which 5 periodic nodes
integrate. Pair densities are sums of products of real per-particle
factors. Only the modes' unit vectors are shared with the rest of the
library; the engine enters purely as the object under test.

The module is also the one home of the paper's closed forms: the one-body
density, the printed pair densities, and the distance, angle and
two-angle laws, each as printed and, where the print is wrong, as
corrected. printed_family decides which configuration a printed law
describes.

Every comparison is summarized as a DiscrepancyReport. Rows with
``gating=True`` are engine-vs-oracle consistency checks and must all come
out Confirmed for a verification run to succeed; the remaining rows grade
the printed reference formulas, where a large deviation is evidence of a
typo or of a normalization convention, never a failure of the library.
All verdicts are deterministic functions of (state, resolution).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import density
from .density import rho1, rho2
from .errors import UnsupportedStateError
from .modes import DIPOLE_PAIR, VORTEX_PAIR
from .pairstats import (angle_distribution, distance_distribution,
                        summarize, two_angle_distribution)
from .states import (StateSpec, bose_fock, build_state, canonical,
                     cothermal, coherent, fermi_fock, noon, thermal)

CONFIRMED = "Confirmed"
TYPO = "Typo-suspected"
CONVENTION = "Convention-dependent"

CONFIRM_TOL = 1e-6
DEFAULT_RESOLUTION = 61
CLAIM_DISTANCE_POINTS = 401
CLAIM_ANGLE_POINTS = 361
CLAIM_TWO_ANGLE_POINTS = 180
# the smallest periodic rule exact for the mean angle's degree-4 integrand
ORACLE_MEAN_ANGLES = 5
_BLOCK_POINTS = 1 << 11
# the modes are numerically zero beyond this box (exp(-18) ~ 1.5e-8 on the
# amplitude, squared in any density): [-EXTENT, EXTENT]^2 is the domain of
# the Cartesian pair grid
EXTENT = 6.0

FERMI_DISTANCE_MEAN = math.sqrt(9.0 * math.pi / 8.0)
BOSE_DISTANCE_MEAN = math.sqrt(121.0 * math.pi / 128.0)
FERMI_DISTANCE_MODE = math.sqrt(3.0)
# roots of 8 - 20 d^2 + 9 d^4 - d^6, the stationary points of the corrected
# bosonic distance law
BOSE_DISTANCE_MODES = (0.7146407686312902, 2.4038421575174999)
CROSSING_DISTANCES = (math.sqrt(4.0 - 2.0 * math.sqrt(2.0)),
                      math.sqrt(4.0 + 2.0 * math.sqrt(2.0)))
# coherent alpha = (1, 0.5i) in the vortex basis: unlike the canonical
# states, its pair density has sin 2theta harmonics, which a mirror error
# of the engine (y -> -y, a wrong sign of Im phi_a* phi_b) flips
TILTED_COHERENT = StateSpec(kind="coherent", alpha_a=1.0, alpha_b=0.5j,
                            basis="vortex")


@dataclass
class DiscrepancyReport:
    """Outcome of one cross-check claim."""
    claim_id: str
    kind: str
    printed_form: str
    resolved_form: str
    max_abs_deviation: float
    verdict: str
    gating: bool = False
    detail: str = ""

    def as_dict(self):
        return dict(vars(self))  # the fields hold no container to copy


# ---------------------------------------------------------------------------
# oracle-side pair densities
# ---------------------------------------------------------------------------

_FOCK = ("fermi-fock", "bose-fock")


def _pair_modes(spec):
    return VORTEX_PAIR if spec.basis == "vortex" else DIPOLE_PAIR


def _eval_pair(spec, x, y):
    """Both mode amplitudes sqrt(2/pi) (v . x) exp(-|x|^2 / 2)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):  # far out |x|^2 = inf, exp(-inf) = 0
        gauss = math.sqrt(2.0 / math.pi) * np.exp(-0.5 * (x * x + y * y))
    return tuple((vx * x + vy * y) * gauss
                 for vx, vy in (mode.v for mode in _pair_modes(spec)))


def _pair_sum(first, second):
    """sum_k A_k(r1) B_k(r2) over real per-particle factors: the one
    contraction of a pair density that spans all point pairs."""
    return np.einsum("k...,k...->...", first, second)


def _pair_density(factors):
    """The pair density sum_k A_k(r1) B_k(r2) of factors(spec, x, y, first)."""
    def route(spec, x1, y1, x2, y2):
        return _pair_sum(factors(spec, x1, y1, True),
                         factors(spec, x2, y2, False))
    route.__name__, route.__doc__ = factors.__name__, factors.__doc__
    route.factors = factors
    return route


def _intensities(f, g):
    """|f|^2, |g|^2 and f conj(g) of one particle's mode amplitudes."""
    return f.real ** 2 + f.imag ** 2, g.real ** 2 + g.imag ** 2, f * np.conj(g)


def _two_particle_psi(spec, f1, g1, f2, g2):
    """Symmetrized two-particle wavefunction from mode amplitude arrays,
    for the specs that oracle_route takes down the first-quantized route."""
    if oracle_route(spec)[0] != "first-quantized":
        raise UnsupportedStateError(
            f"{_label(spec)} has no definite two-particle wavefunction")
    root2 = math.sqrt(2.0)
    if spec.kind == "noon":
        return (f1 * f2 - g1 * g2) / root2
    if (spec.n, spec.m) == (2, 0):
        return f1 * f2
    if (spec.n, spec.m) == (0, 2):
        return g1 * g2
    if spec.kind == "fermi-fock":
        return (f1 * g2 - g1 * f2) / root2
    return (f1 * g2 + g1 * f2) / root2


@_pair_density
def first_quantized_rho2(spec, x, y, first):
    """Pair density 2|Psi|^2 of a definite two-particle state.

    Supports NOON and the Fock states of exactly two particles; every
    other spec has no definite two-particle wavefunction and raises
    UnsupportedStateError (it is cross-checked through the permanent
    expansion, mixture, factorization, or moment identities instead). Each
    point is a one-node Gram matrix, of weight 2 (exact) for particle 1.
    """
    return _psi_factors(spec, _gram(spec, 2.0 if first else 1.0, x, y), first)


def _fock_factors(weights, spec, x, y, first):
    """Per-particle factors of the bosonic pair density of the modes.

    Reduction of the permanent expansion over an orthonormal mode pair:
    only the symmetrized cross pair and the same-mode pairs survive, which
    |n, m> weights by n m, n(n-1) and m(m-1), the three `weights`. With
    c = f conj(g),
    |f1 g2 + g1 f2|^2 = |f1|^2 |g2|^2 + |g1|^2 |f2|^2 + 2 Re(c1 conj(c2)).
    """
    cross, same_a, same_b = weights
    ff, gg, c = _intensities(*_eval_pair(spec, x, y))
    if first:
        return [same_a * ff + cross * gg, cross * ff + same_b * gg,
                2.0 * cross * c.real, 2.0 * cross * c.imag]
    return [ff, gg, c.real, c.imag]


@_pair_density
def geometric_mixture_rho2(spec, x, y, first):
    """Thermal pair density as a convex mixture of Fock pair densities.

    The double sum over occupations factorizes over the three spatial
    templates of _fock_factors, so the mixture weights them by factorial
    moments of the geometric law. Its generating function
    G(z) = E[z^n] = 1 / (1 + nbar (1 - z)) gives them exactly, at any
    nbar: E[n] = G'(1) = nbar and E[n(n-1)] = G''(1) = 2 nbar^2.
    """
    nbar_a, nbar_b = spec.nbar_a, spec.nbar_b
    return _fock_factors((nbar_a * nbar_b, 2.0 * nbar_a * nbar_a,
                          2.0 * nbar_b * nbar_b), spec, x, y, first)


@_pair_density
def factorized_coherent_rho2(spec, x, y, first):
    """Coherent pair density |A(r1)|^2 |A(r2)|^2 of the amplitude field."""
    f, g = _eval_pair(spec, x, y)
    return [np.abs(spec.alpha_a * f + spec.alpha_b * g) ** 2]


@_pair_density
def wick_rho2(spec, x, y, first):
    """Cothermal pair density from Wick moments of the displaced field.

    A(r) is the displacement field, kappa(r, r') the thermal coherence
    kernel; the normally ordered four-point moment expands into their
    pairings, with no anomalous terms because nothing is squeezed:
    (|A1|^2 + k11)(|A2|^2 + k22) + 2 Re(k12 conj(A2) A1) + |k12|^2 with
    k12 = nu (conj(f1) f2 + conj(g1) g2), expanded per particle.
    """
    beta_a, beta_b = spec.alpha_a, -1.0j * spec.alpha_a
    nu = spec.nbar_a
    f, g = _eval_pair(spec, x, y)
    amp = beta_a * f + beta_b * g
    ff, gg, c = _intensities(f, g)
    pf, pg = amp * np.conj(f), amp * np.conj(g)
    factors = [np.abs(amp) ** 2 + nu * (ff + gg), pf.real, pf.imag,
               pg.real, pg.imag, ff, gg, c.real, c.imag]
    weights = (1.0,) + (2.0 * nu,) * 4 + (nu * nu,) * 2 + (2.0 * nu * nu,) * 2
    return [w * a for w, a in zip(weights, factors)] if first else factors


@_pair_density
def permanent_rho2(spec, x, y, first):
    """Fock pair density from the occupations; every weight, and so the
    density, is exactly 0 for fewer than two fermions."""
    n, m = spec.n, spec.m
    return _fock_factors((n * m, n * (n - 1), m * (m - 1)), spec, x, y,
                         first)


def oracle_route(spec):
    """The name and pair-density function of the oracle's route for `spec`.
    A Fock state of two particles (n + m = 2; for fermions (1, 1)) has an
    explicit wavefunction, like NOON; other occupations take the permanent
    expansion."""
    if spec.kind == "noon" or spec.kind in _FOCK and spec.n + spec.m == 2:
        return "first-quantized", first_quantized_rho2
    return {"fermi-fock": ("permanent-expansion", permanent_rho2),
            "bose-fock": ("permanent-expansion", permanent_rho2),
            "thermal": ("geometric-mixture", geometric_mixture_rho2),
            "coherent": ("amplitude-factorization", factorized_coherent_rho2),
            "cothermal": ("wick-moments", wick_rho2)}[spec.kind]


def reference_rho2(spec, x1, y1, x2, y2):
    """Oracle pair density along the independent route for this spec."""
    return oracle_route(spec)[1](spec, x1, y1, x2, y2)


# ---------------------------------------------------------------------------
# the paper's closed forms
# ---------------------------------------------------------------------------


def printed_family(spec):
    """Catalog key of the printed laws when `spec` is the canonical
    one-quantum-per-mode configuration they describe, else None.

    The Bose, coherent and NOON laws hold in the family's own basis only;
    the Fermi and equal-occupation thermal states are the same state in
    either basis. Cothermal has no printed law, although its canonical
    configuration is the same donut.
    """
    kind = spec.kind
    if (kind in ("bose-fock", "coherent", "noon")
            and spec.basis != canonical(kind).basis):
        return None
    if kind in _FOCK:
        donut = (spec.n, spec.m) == (1, 1)
    elif kind == "thermal":
        donut = spec.nbar_a == spec.nbar_b == 1.0
    elif kind == "coherent":
        # ring profile needs the amplitude vector proportional to a vortex:
        # equal magnitudes AND quadrature phase between the two components
        a, b = spec.alpha_a, spec.alpha_b
        donut = (abs(abs(a) - 1.0) < 1e-12
                 and (abs(a - 1j * b) < 1e-12 or abs(a + 1j * b) < 1e-12))
    else:
        donut = kind == "noon"
    return kind if donut else None


def rho1_closed(spec, x, y):
    """Closed-form one-body density of every family; the Fock, NOON and
    thermal states hold mean occupations n_a and n_b of the two modes."""
    fa, fb = _eval_pair(spec, x, y)
    if spec.kind == "coherent":
        return np.abs(spec.alpha_a * fa + spec.alpha_b * fb) ** 2
    if spec.kind == "cothermal":
        coh = np.abs(spec.alpha_a * fa - 1.0j * spec.alpha_a * fb) ** 2
        return coh + spec.nbar_a * (np.abs(fa) ** 2 + np.abs(fb) ** 2)
    n_a, n_b = {"noon": (1, 1), "thermal": (spec.nbar_a, spec.nbar_b)}.get(
        spec.kind, (spec.n, spec.m))
    return n_a * np.abs(fa) ** 2 + n_b * np.abs(fb) ** 2


@_pair_density
def printed_rho2(spec, x, y, first):
    """The pair densities as printed, for the families in _PAIR_FORMS.

    Fermi and Bose pair each mode with itself across the two particles
    where reference_rho2 pairs the two modes; coherent is a product of
    single-mode densities; the thermal sum agrees with reference_rho2.
    Each is expanded into per-particle factors of |a|^2, |b|^2 and
    c = a conj(b), e.g. |a1 a2 -+ b1 b2|^2 = |a1 a2|^2 + |b1 b2|^2 -+
    2 Re(c1 c2).
    """
    if spec.kind not in _PAIR_FORMS:
        raise ValueError(f"no printed rho2 for kind {spec.kind!r}")
    a, b = _eval_pair(spec, x, y)
    if spec.kind == "coherent":
        return [np.abs(spec.alpha_a * a if first else spec.alpha_b * b) ** 2]
    aa, bb, c = _intensities(a, b)
    na, nb, n, m = spec.nbar_a, spec.nbar_b, spec.n, spec.m
    if not first:
        head = [na * aa + nb * bb] if spec.kind == "thermal" else []
        return head + [aa, bb, c.real, c.imag]
    if spec.kind == "fermi-fock":
        return [aa, bb, -2.0 * c.real, 2.0 * c.imag]
    if spec.kind == "bose-fock":
        return [n * (m + n - 1) * aa, m * (n + m - 1) * bb,
                2.0 * n * m * c.real, -2.0 * n * m * c.imag]
    return [na * aa + nb * bb, na * na * aa, nb * nb * bb,
            2.0 * na * nb * c.real, 2.0 * na * nb * c.imag]


def _flat_angle(delta):
    return np.full_like(delta, 1.0 / math.pi)


def _coherent_distance(d):
    return d * (8.0 + d ** 4) * np.exp(-0.5 * d * d) / 16.0


# The laws of each family's printed configuration (printed_family), keyed
# by family; a family missing from a table has no closed form for that
# law. Entries take float arrays. DISTANCE_FORMS and ANGLE_FORMS hold the
# engine-confirmed laws, the _PRINTED_ tables the laws as printed.
DISTANCE_FORMS = {
    "fermi-fock": lambda d: 0.5 * d ** 3 * np.exp(-0.5 * d * d),
    # the printed polynomial with its leading d restored
    "bose-fock": lambda d: (d * (8.0 - 4.0 * d * d + d ** 4)
                            * np.exp(-0.5 * d * d) / 8.0),
    "coherent": _coherent_distance,
    # NOON pair correlations carry no distance information
    "noon": _coherent_distance,
}
# the printed Bose law lacks the leading d: it integrates to
# (7/8) sqrt(pi/2), not 1, and does not vanish at contact
_PRINTED_DISTANCE_FORMS = {
    **DISTANCE_FORMS,
    "bose-fock": lambda d: ((8.0 - 4.0 * d * d + d ** 4)
                            * np.exp(-0.5 * d * d) / 8.0),
}
# folded relative angle on [0, pi); the NOON value is the
# orientation-averaged marginal, which is uniform
ANGLE_FORMS = {
    "fermi-fock": lambda delta: (2.0 / math.pi) * np.sin(delta) ** 2,
    "bose-fock": lambda delta: (2.0 / math.pi) * np.cos(delta) ** 2,
    "coherent": _flat_angle,
    "noon": _flat_angle,
    "thermal": lambda delta: ((2.0 / (3.0 * math.pi))
                              * (1.0 + np.cos(delta) ** 2)),
}
# printed with the fermion and boson labels swapped
_PRINTED_ANGLE_FORMS = {**ANGLE_FORMS,
                        "fermi-fock": ANGLE_FORMS["bose-fock"],
                        "bose-fock": ANGLE_FORMS["fermi-fock"]}
# joint density of both detection angles on [0, 2pi)^2
TWO_ANGLE_FORMS = {
    "noon": lambda t, v: np.sin(t + v) ** 2 / (2.0 * math.pi ** 2),
    "fermi-fock": lambda t, v: np.sin(t - v) ** 2 / (2.0 * math.pi ** 2),
    "coherent": lambda t, v: np.full(np.broadcast(t, v).shape,
                                     1.0 / (4.0 * math.pi ** 2)),
}


def _form(forms, kind, law):
    if kind not in forms:
        raise ValueError(f"no closed {law} form for kind {kind!r}")
    return forms[kind]


def closed_form_distance(kind, d):
    """Engine-confirmed pair-distance density D(d) of a family."""
    return _form(DISTANCE_FORMS, kind, "distance")(np.asarray(d, dtype=float))


def closed_form_angle(kind, delta):
    """Engine-confirmed folded relative-angle density of a family: sin^2
    for fermions, cos^2 for bosons."""
    return _form(ANGLE_FORMS, kind, "angle")(np.asarray(delta, dtype=float))


def closed_form_two_angle(kind, theta, vartheta):
    """Joint two-angle density of a family."""
    return _form(TWO_ANGLE_FORMS, kind, "two-angle")(
        np.asarray(theta, dtype=float), np.asarray(vartheta, dtype=float))


# ---------------------------------------------------------------------------
# grid sweeps
# ---------------------------------------------------------------------------


def _plane_points(resolution):
    axis = np.linspace(-EXTENT, EXTENT, resolution)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return gx.ravel(), gy.ravel(), axis[1] - axis[0]


def _gap(values, reference):
    """max |values - reference| (NaN if any)."""
    return float(np.max(np.abs(np.subtract(values, reference))))


def _fold(r, rows):
    """The R factor of the thin QR of [r; rows] (of rows where r is None)."""
    return np.linalg.qr(rows if r is None else np.vstack([r, rows]), mode="r")


def pair_grid_sweep(spec, resolution=DEFAULT_RESOLUTION):
    """Engine vs oracle (and the printed pair density, where _pairing_applies)
    over all point pairs of a resolution x resolution grid, never formed.

    On the grid a route's gap to the engine is G = U V^T, U = [-M^T h, A]
    and V = [h, B] per point (density.rho2_factors, looked up at call
    time). Each block of points' factors, while all are finite, is folded
    into the R of the thin QR [U V] = Q R (blockwise TSQR, Demmel,
    Grigori, Hoemmen and Langou 2012): the core R_U R_V^T has G's 2- and
    Frobenius norms, and ||G||_2 bounds its sup. Each block's contact and
    neighbour pairs also meet in reference_rho2 and rho2. Returns
    max(||G||_2, their sup) over the largest |reference_rho2| there where
    that exceeds 1 (rounding grows with the density's scale), the printed
    form's ||G||_F over the engine's ||rho2||_F (or 1), and the pair
    masses, the factor sums' dot products times h^4 (Riemann sums: the
    Gaussian tails at the box edge are negligible).
    """
    state = build_state(spec)
    routes = [oracle_route(spec)[1].factors] + (
        [printed_rho2.factors] if _pairing_applies(spec) else [])
    px, py, step = _plane_points(resolution)
    r, sums, public, scale = None, 0.0, 0.0, 1.0
    for start in range(0, px.size, _BLOCK_POINTS):
        x, y = px[start:start + _BLOCK_POINTS], py[start:start + _BLOCK_POINTS]
        first, second = ([sign * density.rho2_factors(state, x, y, side)]
                         + [f(spec, x, y, side) for f in routes]
                         for sign, side in ((-1.0, True), (1.0, False)))
        rows = np.vstack(first + second).T
        sums = sums + rows.sum(axis=0)  # non-finite for good once a factor is
        r = _fold(r, rows) if np.isfinite(sums).all() else None
        for pairs in ((x, y, x, y), (x, y, np.roll(x, 1), np.roll(y, 1))):
            reference = reference_rho2(spec, *pairs)
            public = np.maximum(public, _gap(reference, rho2(state, *pairs)))
            scale = max(scale, float(np.max(np.abs(reference))))
    width, split = sums.size // 2, 3 + len(first[1])
    gap, printed, engine = (
        np.full((1, 1), math.nan) if r is None else r[:, c] @ r[:, c + width].T
        for c in (np.arange(split), np.r_[0:3, split:width], np.arange(3)))
    bound = math.nan if r is None else np.linalg.norm(gap, 2)
    return {
        "dev_oracle": float(np.maximum(bound, public)) / scale,
        "dev_verbatim": (float(np.linalg.norm(printed)
                               / (np.linalg.norm(engine) or 1.0))
                         if len(routes) > 1 else None),
        "mass_engine": -float(sums[:3] @ sums[width:width + 3]) * step ** 4,
        "mass_oracle": float(sums[3:split] @ sums[width + 3:width + split])
        * step ** 4,
        "resolution": resolution,
    }


# ---------------------------------------------------------------------------
# |Psi|^2 quadratures through one-particle Gram matrices
# ---------------------------------------------------------------------------
# Psi = sum_ab C[a, b] u_a(1) u_b(2) is bilinear in the two particles' mode
# amplitudes, so a product quadrature of |Psi|^2 factorizes exactly through
# each particle's 2x2 Gram matrix M[a, c] = sum_nodes w u_a conj(u_c):
#     sum w1 w2 |Psi|^2 = sum_abcd C[a, b] conj(C[c, d]) M1[a, c] M2[b, d].
# That is the only structure assumed; modes are still evaluated at every
# node, and no correlator, ring factorization or engine call enters.


def _psi_coefficients(spec):
    """C[a, b]: Psi with particle 1 in mode a and particle 2 in mode b."""
    unit = np.eye(2)
    return np.array([[_two_particle_psi(spec, *unit[a], *unit[b])
                      for b in range(2)] for a in range(2)], dtype=complex)


def _gram(spec, w, x, y):
    """M[a, c] = w u_a conj(u_c) at the nodes (x, y) of weight w; M carries
    their node shape, which the caller sums or keeps."""
    u = _eval_pair(spec, x, y)
    return np.array([[w * ua * np.conj(uc) for uc in u] for ua in u])


def _psi_factors(spec, gram, first):
    """Per-particle factors of |Psi|^2: T = C^T M1 conj(C) meets M2, both
    Hermitian, as T00 M2_00 + T11 M2_11 + 2 Re(T01 M2_01)."""
    if not first:
        return [gram[0, 0].real, gram[1, 1].real, gram[0, 1].real,
                gram[0, 1].imag]
    c = _psi_coefficients(spec)
    t = np.einsum("ab,ac...,cd->bd...", c, gram, np.conj(c))
    return [t[0, 0].real, t[1, 1].real, 2.0 * t[0, 1].real,
            -2.0 * t[0, 1].imag]


def _psi_mass(spec, gram1, gram2):
    """|Psi|^2 quadrature; the Gram matrices' node axes broadcast."""
    return _pair_sum(_psi_factors(spec, gram1, True),
                     _psi_factors(spec, gram2, False))


def _radial_gram(spec, cos, sin):
    """Gram matrices along the rays at angles (cos, sin), integrated over
    the radius exactly: with u = r^2 the polar measure r dr is du / 2 and
    every entry is u exp(-u) times a factor of the ray. The one-node
    Gauss-Laguerre rule, node u = 1 and weight 1, is exact for u exp(-u);
    in r it is the node r = 1 of weight e^u / 2 = e / 2."""
    return _gram(spec, 0.5 * math.e, cos, sin)


def wavefunction_norm(spec):
    """Norm of the explicit two-particle Psi, exact: each particle's Gram
    matrix is the ray rule summed over the periodic mean angles, in which
    its entries have degree 2."""
    phi = 2.0 * math.pi * np.arange(ORACLE_MEAN_ANGLES) / ORACLE_MEAN_ANGLES
    gram = _radial_gram(spec, np.cos(phi), np.sin(phi)).sum(axis=-1) \
        * (2.0 * math.pi / ORACLE_MEAN_ANGLES)
    return float(_psi_mass(spec, gram, gram))


# ---------------------------------------------------------------------------
# oracle angle laws (polar quadrature of the explicit wavefunction)
# ---------------------------------------------------------------------------


def _check_grid(n_points):
    """Both angle laws divide by their own trapezoid mass. The pair
    density carries angular harmonics up to order 2, which a periodic rule
    of fewer than 3 nodes aliases: on such a grid fermions and NOON vanish
    at every node and the mass is 0 or rounding noise."""
    if n_points < 3:
        raise ValueError(f"n_points must be >= 3, got {n_points}")


def oracle_folded_angle_law(spec, n_points=CLAIM_ANGLE_POINTS):
    """Folded relative-angle density from the first-quantized pair density.

    Polar integration of |Psi|^2 through Gram matrices (a bilinear Psi is
    the only assumption), exact in both variables: the radii by the ray
    rule of _radial_gram, and the mean angle phi_i of particle 1 by the
    ORACLE_MEAN_ANGLES-node periodic rule, since |Psi|^2 is a
    trigonometric polynomial of degree at most 4 in it. Particle 2 sits on
    the rays phi_i - delta_k for the 2 n relative angles delta_k of grid
    and grid + pi.
    """
    _check_grid(n_points)
    grid = np.linspace(0.0, math.pi, n_points)
    phi = 2.0 * math.pi * np.arange(ORACLE_MEAN_ANGLES) / ORACLE_MEAN_ANGLES
    second = phi[:, None] - np.concatenate([grid, grid + math.pi])[None, :]
    gram1 = _radial_gram(spec, np.cos(phi), np.sin(phi))[..., None]
    gram2 = _radial_gram(spec, np.cos(second), np.sin(second))
    raw = _psi_mass(spec, gram1, gram2).sum(axis=0) \
        * (2.0 * math.pi / ORACLE_MEAN_ANGLES)
    mass = np.trapezoid(raw[:n_points], grid) \
        + np.trapezoid(raw[n_points:], grid + math.pi)
    folded = (raw[:n_points] + raw[n_points:]) / mass
    return grid, folded


def oracle_two_angle_law(spec, n_points=CLAIM_TWO_ANGLE_POINTS):
    """Joint (theta, vartheta) density from the first-quantized pair
    density, on the half-open periodic grid; both radii are integrated
    exactly by the ray rule of _radial_gram."""
    _check_grid(n_points)
    angles = 2.0 * math.pi * np.arange(n_points) / n_points
    gram = _radial_gram(spec, np.cos(angles), np.sin(angles))
    joint = _psi_mass(spec, gram[..., :, None], gram[..., None, :])
    cell = (2.0 * math.pi / n_points) ** 2
    return angles, joint / (np.sum(joint) * cell)


def polar_separability_deviation(state):
    """Sup deviation of the radius-rescaled angular weight across radii.

    The pair density of every state on this mode pair factorizes as
    r^2 s^2 exp(-r^2 - s^2) W(theta, vartheta) / pi^2; this measures how
    much the empirically extracted W actually depends on the radii.
    """
    angles = 2.0 * math.pi * np.arange(24) / 24.0
    c, d = np.cos(angles), np.sin(angles)
    surfaces = [rho2(state, r * c[:, None], r * d[:, None], s * c, s * d)
                * (math.pi ** 2 * math.exp(r * r + s * s) / (r * s) ** 2)
                for r, s in [(1.0, 1.0), (0.8, 1.3), (1.6, 0.7), (2.2, 1.1)]]
    return float(np.max([_gap(w, surfaces[0]) for w in surfaces[1:]]))


# ---------------------------------------------------------------------------
# claim catalog
# ---------------------------------------------------------------------------


def _listed(values):
    return ", ".join(f"{v:.9f}" for v in values)


class _Laws:
    """The engine laws that several claims read of one state (spec None:
    of the families), each computed on first use. Laws and evaluators
    call the traced entry points by their module names at call time, so
    that instrumentation which swaps those names sees every call."""

    def __init__(self, spec, resolution):
        self.spec, self.resolution = spec, resolution

    @cached_property
    def state(self):
        return build_state(self.spec)

    @cached_property
    def sweep(self):
        return pair_grid_sweep(self.spec, self.resolution)

    @cached_property
    def distance(self):
        return distance_distribution(self.state,
                                     n_points=CLAIM_DISTANCE_POINTS)

    @cached_property
    def summary(self):
        return summarize(self.distance)

    @cached_property
    def angle(self):
        return angle_distribution(self.state, n_points=CLAIM_ANGLE_POINTS)

    @cached_property
    def two_angle(self):
        return two_angle_distribution(self.state,
                                      n_points=CLAIM_TWO_ANGLE_POINTS)


# the printed pair densities, per family that has one
_PAIR_FORMS = {
    "fermi-fock": "|phi_a(r1) phi_a(r2) - phi_b(r1) phi_b(r2)|^2",
    "bose-fock": "n m |phi_a(r1) phi_a(r2) + phi_b(r1) phi_b(r2)|^2"
                 " + n(n-1)|phi_a phi_a'|^2 + m(m-1)|phi_b phi_b'|^2",
    "coherent": "rho1_a(r1) rho1_b(r2), a product of single-mode densities",
    "thermal": "sum_{p,p'} nbar_p nbar_p' (|phi_p(r1)|^2 |phi_p'(r2)|^2"
               " + phi_p*(r1) phi_p(r2) phi_p'*(r2) phi_p'(r1))",
}


def _pairing_applies(spec):
    """The Fermi pair density is printed for (1, 1) only; the Bose,
    coherent and thermal ones take the state's parameters."""
    return spec is not None and spec.kind in _PAIR_FORMS and (
        spec.kind != "fermi-fock" or printed_family(spec) is not None)


def _engine_vs_oracle(laws):
    sweep, route = laws.sweep, oracle_route(laws.spec)[0]
    detail = (f"route={route}; pair mass engine"
              f" {sweep['mass_engine']:.12f} vs oracle"
              f" {sweep['mass_oracle']:.12f}")
    if route == "first-quantized":
        detail += f"; wavefunction norm {wavefunction_norm(laws.spec):.12f}"
    return sweep["dev_oracle"], detail, route


def _pairing(laws):
    """A vortex Fock state, like the two-fermion state in either basis, is
    rotation invariant. Dipole modes pair like x and y: x x' + y y' is
    invariant, x y' + y x' is not, and x^2 x'^2 or y^2 y'^2 terms are not."""
    spec, extra = laws.spec, ""
    if spec.kind == "bose-fock" and min(spec.n, spec.m) == 0:
        extra = ("; the cross term carries the pairing mismatch and"
                 " vanishes when one mode is empty")
    elif spec.kind == "coherent":
        extra = ("; under the reading rho1_a rho1_b = rho1 x rho1 of"
                 " the full one-body density the product form is exact")
    elif spec.kind in _FOCK:
        one_each = (spec.n, spec.m) == (1, 1)
        if spec.kind == "fermi-fock" or spec.basis == "vortex":
            extra = ("; same-label pairing breaks rotation invariance of the "
                     + ("one-quantum-per-mode state" if one_each
                        else "vortex-mode Fock state")
                     + ", the cross pairing restores it")
        elif one_each:
            extra = ("; same-label pairing is rotation invariant, the cross"
                     " pairing of the one-quantum-per-mode dipole state is"
                     " not")
        else:
            extra = ("; neither pairing of this dipole-mode Fock state is"
                     " rotation invariant")
    return (laws.sweep["dev_verbatim"],
            "Frobenius norm of the gap to the engine's density over the"
            f" resolution^4 pair grid, relative to that density's{extra}")


def _distance_form(laws):
    kind, dist = laws.spec.kind, laws.distance
    detail = ("corrected-form deviation"
              f" {_gap(dist.values, DISTANCE_FORMS[kind](dist.grid)):.3e}")
    if kind == "bose-fock":
        detail += ("; the printed polynomial lacks the leading factor d"
                   " and does not vanish at contact; the text's own"
                   " small-distance statement D_B(d) ~ d matches the"
                   " corrected form")
    return (_gap(dist.values, _PRINTED_DISTANCE_FORMS[kind](dist.grid)),
            detail)


def _distance_mean(laws):
    printed = {"fermi-fock": FERMI_DISTANCE_MEAN,
               "bose-fock": BOSE_DISTANCE_MEAN}[laws.spec.kind]
    return abs(laws.summary.mean - printed), "", laws.summary.mean


def _distance_maxima(laws):
    exact = {"fermi-fock": (FERMI_DISTANCE_MODE,),
             "bose-fock": BOSE_DISTANCE_MODES}[laws.spec.kind]
    found = laws.summary.local_maxima
    dev = (max(abs(a - b) for a, b in zip(sorted(found), exact))
           if len(found) == len(exact) else math.inf)
    return dev, "engine maxima " + _listed(found), _listed(exact)


def _diameter(laws):
    value = float(np.interp(2.0, laws.distance.grid, laws.distance.values))
    return (abs(value - 3.0 * math.exp(-2.0)),
            "exp(-2) units: F(2) = 4e-2, B(2) = 2e-2, Coh(2) = 3e-2", value)


def _variance(laws):
    mean, second = laws.summary.mean, laws.summary.second_moment
    variance = second - mean ** 2
    return (abs(variance - 4.0),
            f"E[d^2] = {second:.9f} (off 4 by {abs(second - 4.0):.3e});"
            f" literal Var(d) = {variance:.9f}")


def _angle_labels(laws):
    kind, law = laws.spec.kind, laws.angle
    return (_gap(law.values, _PRINTED_ANGLE_FORMS[kind](law.grid)),
            "the surrounding prose (fermions perpendicular, bosons aligned)"
            " matches the swapped assignment, so the printed labels appear"
            " interchanged",
            _gap(law.values, ANGLE_FORMS[kind](law.grid)))


def _angle_form(laws):
    law = laws.angle
    return _gap(law.values, ANGLE_FORMS[laws.spec.kind](law.grid)), ""


def _family_identity(laws):
    specs = [fermi_fock(), bose_fock(1, 1), thermal(1.0, 1.0), coherent(),
             cothermal(), noon()]
    px, py, _ = _plane_points(laws.resolution)
    grids = [rho1(build_state(s), px, py) for s in specs]
    return float(np.max([_gap(a, grids[0]) for a in grids[1:]])), ""


def _crossings(laws):
    kinds = ("fermi-fock", "bose-fock", "coherent")
    return (max(float(np.ptp([closed_form_distance(k, [d]) for k in kinds]))
                for d in CROSSING_DISTANCES),
            "max spread of the three laws at the two crossing radii")


def _printed(*kinds):
    """A claim on the printed configurations of `kinds` (printed_family)."""
    return lambda spec: spec is not None and printed_family(spec) in kinds


def _every_state(spec):
    return spec is not None


def _families(spec):
    """A claim on the families together: one row per report."""
    return spec is None


_FAMILIES = ("fermi-fock", "bose-fock", "coherent", "thermal", "noon")


@dataclass(frozen=True)
class _Claim:
    """One kind of verify row. `applies` takes a spec (None for the
    family claims); the texts and `fallback` are strings or dicts keyed by
    the spec's kind; `evaluate` maps the state's _Laws to (deviation,
    detail, *values), and the values fill the resolved text's {} fields."""
    claim_id: str
    applies: object
    printed: object
    resolved: object
    evaluate: object
    fallback: object = TYPO
    gating: bool = False


# every claim, in report order
_CLAIMS = (
    _Claim("rho2-engine-vs-oracle", _every_state,
           "operator-engine pair density", "independent {} pair density",
           _engine_vs_oracle, gating=True),
    _Claim("rho2-printed-pairing", _pairing_applies, _PAIR_FORMS, {
        "fermi-fock": "|phi_a(r1) phi_b(r2) - phi_b(r1) phi_a(r2)|^2",
        "bose-fock": "n m |phi_a(r1) phi_b(r2) + phi_b(r1) phi_a(r2)|^2"
                     " + n(n-1)|phi_a phi_a'|^2 + m(m-1)|phi_b phi_b'|^2",
        "coherent": "rho1(r1) rho1(r2) with the full one-body density",
        "thermal": "printed direct + exchange sum (cross-paired,"
                   " consistent)",
    }, _pairing, {"fermi-fock": TYPO, "bose-fock": TYPO,
                  "coherent": CONVENTION, "thermal": TYPO}),
    _Claim("distance-printed-form",
           _printed("fermi-fock", "bose-fock", "coherent"), {
               "fermi-fock": "D_F(d) = (1/2) d^3 exp(-d^2/2)",
               "bose-fock": "D_B(d) = (1/8)(8 - 4d^2 + d^4) exp(-d^2/2)",
               "coherent": "D_Coh(d) = (1/16) d (8 + d^4) exp(-d^2/2)",
           }, {
               "fermi-fock": "same form, engine-confirmed",
               "bose-fock": "D_B(d) = (d/8)(8 - 4d^2 + d^4) exp(-d^2/2)",
               "coherent": "same form, engine-confirmed",
           }, _distance_form),
    _Claim("distance-printed-mean", _printed("fermi-fock", "bose-fock"), {
        "fermi-fock": "mean separation sqrt(9 pi/8)",
        "bose-fock": "mean separation sqrt(121 pi/128)",
    }, "engine mean {:.9f}", _distance_mean),
    _Claim("distance-maxima", _printed("fermi-fock", "bose-fock"), {
        "fermi-fock": "single peak at sqrt(3) ~ 1.73",
        "bose-fock": "local maxima near 0.71 and 2.4",
    }, "stationary points of the corrected law: {}", _distance_maxima),
    _Claim("noon-distance-equals-coherent", _printed("noon"),
           "the distribution of distances of uncorrelated particles,"
           " D_Coh(d)", "engine NOON distance law vs D_Coh(d)",
           lambda laws: (_gap(laws.distance.values,
                              DISTANCE_FORMS["coherent"](laws.distance.grid)),
                         "")),
    _Claim("diameter-common-value", _printed(*_FAMILIES),
           "all these states share the value 3/e^2 at d = 2",
           "D(2) = {:.9f} for this state; the three corrected laws instead"
           " intersect pairwise at d^2 = 4 +/- 2 sqrt(2)", _diameter),
    _Claim("variance-convention", _printed(*_FAMILIES),
           "Var(d) = 4 for every state of the family",
           "the state-independent quantity is the raw second moment"
           " E[d^2] = 4; the central variance is 4 - mean^2", _variance,
           CONVENTION),
    _Claim("two-angle-engine-vs-oracle", _printed("noon"),
           "operator-engine joint angle density",
           "first-quantized joint angle density",
           lambda laws: (_gap(laws.two_angle.values,
                              oracle_two_angle_law(laws.spec)[1]), ""),
           gating=True),
    _Claim("two-angle-printed-form", _printed("noon"),
           "D(theta, vartheta) = (2/pi) sin^2(theta + vartheta)",
           "joint density sin^2(theta + vartheta) / (2 pi^2); the printed"
           " coefficient matches the folded relative-angle normalization"
           " convention, the shape is confirmed",
           lambda laws: (_gap(laws.two_angle.values, TWO_ANGLE_FORMS["noon"](
               laws.two_angle.grid[:, None], laws.two_angle.grid[None, :])),
                         ""),
           CONVENTION),
    _Claim("angle-engine-vs-oracle", _printed("fermi-fock", "bose-fock"),
           "operator-engine folded relative-angle density",
           "first-quantized folded relative-angle density",
           lambda laws: (_gap(laws.angle.values,
                              oracle_folded_angle_law(laws.spec)[1]), ""),
           gating=True),
    _Claim("angle-printed-labels", _printed("fermi-fock", "bose-fock"), {
        "fermi-fock": "D(dtheta) = (2/pi) cos^2(dtheta)",
        "bose-fock": "D(dtheta) = (2/pi) sin^2(dtheta)",
    }, {
        "fermi-fock": "D(dtheta) = (2/pi) sin^2(dtheta); deviation from the"
                      " swapped assignment {:.3e}",
        "bose-fock": "D(dtheta) = (2/pi) cos^2(dtheta); deviation from the"
                     " swapped assignment {:.3e}",
    }, _angle_labels),
    _Claim("angle-uniform", _printed("coherent"),
           "D_Coh(dtheta) = cste (1/pi)",
           "uniform 1/pi on the folded half-turn", _angle_form),
    _Claim("angle-derived-form", _printed("thermal"),
           "no printed closed form for the thermal relative-angle law",
           "derived (2/(3 pi)) (1 + cos^2(dtheta))", _angle_form),
    _Claim("polar-separability", _every_state,
           "rho2(r, s, theta, vartheta) = 2 r^2 s^2 exp(-r^2 - s^2)"
           " D(theta, vartheta) / pi^2",
           "r^2 s^2 exp(-r^2 - s^2) W(theta, vartheta) / pi^2 with W"
           " independent of the radii and W = 2 D",
           lambda laws: (polar_separability_deviation(laws.state),
                         "sup over radius pairs of the rescaled angular"
                         " surface")),
    _Claim("one-body-family-identity", _families,
           "rho1 is the same donut for Fermi, Bose, coherent, thermal,"
           " cothermal (and NOON) configurations",
           "max pairwise sup deviation of the engine rho1 grids",
           _family_identity, gating=True),
    _Claim("distance-crossings", _families,
           "(derived, not printed) the three corrected distance laws"
           " intersect pairwise at shared points",
           "common pairwise crossings at d^2 = 4 +/- 2 sqrt(2)", _crossings),
)


# the StateSpec fields that set a spec apart within its family; coherent
# amplitudes are those of the basis's modes, so its basis is one of them
_PARAMETERS = {"fermi-fock": ("n", "m"), "bose-fock": ("n", "m"),
               "coherent": ("alpha_a", "alpha_b", "basis"),
               "thermal": ("nbar_a", "nbar_b"),
               "cothermal": ("alpha_a", "nbar_a"), "noon": ()}


def _argument(value):
    """A basis or an occupation as it is; a number as 1, 0.5i or 1+0.5i,
    each part the shortest repr that reads back, less a trailing .0."""
    if isinstance(value, (str, int)):
        return str(value)
    z = complex(value)
    real, imag = (repr(x).removesuffix(".0") for x in (z.real, z.imag))
    if z.imag == 0.0:
        return real
    sign = "" if imag.startswith("-") else "+"
    return f"{real}{sign}{imag}i" if z.real else f"{imag}i"


def _label(spec):
    """The kind, then what sets the spec apart from its family's canonical
    one: all its family parameters where any of them differs, then the
    basis where it differs."""
    if spec is None:
        return "family"
    base, names = canonical(spec.kind), _PARAMETERS[spec.kind]
    args = [getattr(spec, name) for name in names]
    if args == [getattr(base, name) for name in names]:
        args = []
    if spec.basis != base.basis and "basis" not in names:
        args.append(spec.basis)
    return (f"{spec.kind}({','.join(map(_argument, args))})" if args
            else spec.kind)


def _pick(text, spec):
    return text if isinstance(text, str) else text[spec.kind]


def _report(claim, laws):
    """The claim's row for the state of `laws`."""
    deviation, detail, *values = claim.evaluate(laws)
    spec = laws.spec
    return DiscrepancyReport(
        claim_id=claim.claim_id, kind=_label(spec),
        printed_form=_pick(claim.printed, spec),
        resolved_form=_pick(claim.resolved, spec).format(*values),
        max_abs_deviation=deviation, gating=claim.gating, detail=detail,
        verdict=(CONFIRMED if deviation < CONFIRM_TOL
                 else _pick(claim.fallback, spec)))


def _rows(spec, resolution):
    """The rows of every claim that applies to `spec`, in table order."""
    laws = _Laws(spec, resolution)
    return [_report(claim, laws) for claim in _CLAIMS if claim.applies(spec)]


def cross_validate(kind_or_spec, resolution=DEFAULT_RESOLUTION):
    """All cross-check rows for one state kind.

    Accepts a kind name (canonical donut configuration implied) or a full
    StateSpec. Verdicts depend only on (spec, resolution).
    """
    return _rows(kind_or_spec if isinstance(kind_or_spec, StateSpec)
                 else canonical(kind_or_spec), resolution)


def full_report(resolution=DEFAULT_RESOLUTION):
    """Cross-check rows for every shipped state, the tilted coherent state
    and the family claims (spec None)."""
    specs = [fermi_fock(), bose_fock(1, 1), bose_fock(2, 0), coherent(),
             thermal(1.0, 1.0), cothermal(), noon(), TILTED_COHERENT, None]
    return [row for spec in specs for row in _rows(spec, resolution)]


def all_engine_checks_confirmed(reports):
    """True when every engine-vs-oracle (gating) row is Confirmed."""
    return all(r.verdict == CONFIRMED for r in reports if r.gating)
