"""Monte Carlo single-shot two-photon frames and empirical estimators.

Every state in the two-mode family factorizes in polar coordinates: both
radii follow the ring marginal p(r) = 2 r^3 exp(-r^2) independently of the
angles, and all exchange physics sits in the joint angle law. Pairs are
therefore drawn by exact inverse-CDF sampling of the radii plus constant-
majorant rejection of the angle pair; a generic Cartesian rejection sampler
against a Gaussian envelope backs up states outside the family.

Randomness comes from a counter-based generator: every uniform is a pure
hash of (seed, frame_index, draw_index), so frames can be produced in any
order or split across workers without changing a single sample.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .density import rho2
from .errors import (AlgebraInconsistencyError, EmptyFramesError,
                     NoPairsError, SamplerMethodError)
from .fock import Basis, pair_moment
from .modes import Point2D
from .quadrature import EXTENT
from .states import StateSpec, build_state, spec_from_dict, spec_to_dict
from .version import GENERATOR_VERSION, VERSION

RING_KNOTS = 10001
BISECTION_STEPS = 34
MIN_ACCEPTANCE = 0.01
MAX_ATTEMPT_ROUNDS = 512
MAJORANT_PROBE = 512
MAJORANT_SAFETY = 1.001

_U64 = np.uint64
_GOLD = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_TO_UNIT = 2.0 ** -53


def _mix64(z):
    """splitmix64 finalizer, element-wise on uint64 arrays."""
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def counter_uniforms(seed, frame_indices, draw_index):
    """Uniforms in [0, 1) as a pure function of (seed, frame, draw)."""
    idx = np.atleast_1d(np.asarray(frame_indices, dtype=np.uint64))
    # scalar uint64 products warn on wraparound; do them in python ints
    offset = _U64((int(draw_index) * 0x9E3779B97F4A7C15)
                  & 0xFFFFFFFFFFFFFFFF)
    key = _mix64(_U64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLD)
    value = _mix64(key + offset)
    return (value >> _U64(11)).astype(np.float64) * _TO_UNIT


# ---------------------------------------------------------------------------
# radial inverse CDF
# ---------------------------------------------------------------------------


def radial_cdf(r):
    """CDF of the ring marginal p(r) = 2 r^3 exp(-r^2)."""
    r = np.asarray(r, dtype=float)
    return 1.0 - (1.0 + r * r) * np.exp(-r * r)


_RING_R = np.linspace(0.0, EXTENT, RING_KNOTS)
_RING_F = radial_cdf(_RING_R)
_RING_TOTAL = float(_RING_F[-1])  # 1 - 8.7e-15: mass inside the r <= 6 box


def invert_radial_cdf(u):
    """Radius at CDF value u, bisected between table knots to 1e-12.

    u is rescaled by the in-box mass so samples never leave [0, 6]; the
    discarded tail is below 1e-14, far under every tolerance in use.
    """
    u = np.asarray(u, dtype=float) * _RING_TOTAL
    hi_idx = np.clip(np.searchsorted(_RING_F, u), 1, RING_KNOTS - 1)
    lo = _RING_R[hi_idx - 1]
    hi = _RING_R[hi_idx]
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        below = radial_cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# angular law
# ---------------------------------------------------------------------------


def _angular_factors(basis, theta):
    """Angular parts u_p(theta) of the basis mode pair.

    Every mode in the family shares the radial ring profile; these are the
    remaining angle-dependent factors, normalized over the circle.
    """
    theta = np.asarray(theta, dtype=float)
    if basis is Basis.VORTEX:
        return np.exp(1j * theta), np.exp(-1j * theta)
    root2 = math.sqrt(2.0)
    return (root2 * np.cos(theta)).astype(complex), \
        (root2 * np.sin(theta)).astype(complex)


class AngularLaw:
    """Joint angle weight W(theta, vartheta) with a rigorous majorant."""

    def __init__(self, state):
        self.second = state.correlators().second
        self.basis = state.basis
        probe = np.linspace(0.0, 2.0 * math.pi, MAJORANT_PROBE,
                            endpoint=False)
        tt, vv = np.meshgrid(probe, probe, indexing="ij")
        w = self(tt, vv)
        if np.min(w) < -1e-10 * max(1.0, float(np.max(w))):
            raise AlgebraInconsistencyError(
                "angular weight is significantly negative")
        self.majorant = float(np.max(w)) * MAJORANT_SAFETY + 1e-300
        self.mean_weight = float(np.mean(w))

    def __call__(self, theta, vartheta):
        ua1, ub1 = _angular_factors(self.basis, theta)
        ua2, ub2 = _angular_factors(self.basis, vartheta)
        f1 = np.stack([ua1, ub1])
        f2 = np.stack([ua2, ub2])
        w = np.einsum("abcd,a...,d...,b...,c...->...", self.second,
                      np.conj(f1), f1, np.conj(f2), f2)
        return np.asarray(w).real

    @property
    def acceptance_estimate(self):
        return self.mean_weight / self.majorant


# ---------------------------------------------------------------------------
# frame generation
# ---------------------------------------------------------------------------


@dataclass
class Frame:
    """One simultaneous two-photon detection."""
    points: tuple
    frame_index: int
    rng_stream_id: int


@dataclass
class FrameSet:
    """Reproducible batch of frames; points has shape (count, 2, 2)."""
    spec: object
    seed: int
    points: np.ndarray
    method: str
    acceptance_rate: float
    meta: dict = field(default_factory=dict)

    @property
    def count(self):
        return int(self.points.shape[0])

    def frame(self, i):
        p = self.points[i]
        return Frame(points=(Point2D(float(p[0, 0]), float(p[0, 1])),
                             Point2D(float(p[1, 0]), float(p[1, 1]))),
                     frame_index=i, rng_stream_id=i)

    def __iter__(self):
        return (self.frame(i) for i in range(self.count))


@dataclass
class FrameStream:
    """Cursor handing out consecutive frame indices for one seed."""
    seed: int
    next_frame: int = 0


def _require_state(state_or_spec):
    if isinstance(state_or_spec, StateSpec):
        spec = state_or_spec.normalized()
        return build_state(spec), spec
    return state_or_spec, None


def _sample_ring_block(state, seed, indices, law):
    """Radii by inverse CDF, angle pairs by constant-majorant rejection."""
    n = len(indices)
    r1 = invert_radial_cdf(counter_uniforms(seed, indices, 0))
    r2 = invert_radial_cdf(counter_uniforms(seed, indices, 1))
    th = np.empty(n)
    vt = np.empty(n)
    pending = np.arange(n)
    proposals = 0
    for attempt in range(MAX_ATTEMPT_ROUNDS):
        if pending.size == 0:
            break
        idx = indices[pending]
        cand_t = 2.0 * math.pi * counter_uniforms(seed, idx, 2 + 3 * attempt)
        cand_v = 2.0 * math.pi * counter_uniforms(seed, idx, 3 + 3 * attempt)
        gate = counter_uniforms(seed, idx, 4 + 3 * attempt) * law.majorant
        w = law(cand_t, cand_v)
        if np.any(w > law.majorant):
            raise AlgebraInconsistencyError(
                "angular weight exceeded its majorant")
        proposals += pending.size
        ok = gate <= w
        th[pending[ok]] = cand_t[ok]
        vt[pending[ok]] = cand_v[ok]
        pending = pending[~ok]
    if pending.size:
        raise SamplerMethodError(
            f"{pending.size} frames unresolved after "
            f"{MAX_ATTEMPT_ROUNDS} rejection rounds")
    points = np.empty((n, 2, 2))
    points[:, 0, 0] = r1 * np.cos(th)
    points[:, 0, 1] = r1 * np.sin(th)
    points[:, 1, 0] = r2 * np.cos(vt)
    points[:, 1, 1] = r2 * np.sin(vt)
    return points, proposals


def _gaussian_from_uniforms(u1, u2):
    """Box-Muller pair from two uniforms."""
    mag = np.sqrt(-2.0 * np.log(np.maximum(u1, 1e-300)))
    return mag * np.cos(2.0 * math.pi * u2), \
        mag * np.sin(2.0 * math.pi * u2)


class CartesianEnvelope:
    """rho2 bound against a product of unit Gaussians on the plane."""

    def __init__(self, state):
        self.state = state
        probe = np.linspace(-EXTENT, EXTENT, 13)
        g = np.stack(np.meshgrid(probe, probe, indexing="ij"), axis=-1)
        g = g.reshape(-1, 2)
        x1 = np.repeat(g[:, 0], len(g))
        y1 = np.repeat(g[:, 1], len(g))
        x2 = np.tile(g[:, 0], len(g))
        y2 = np.tile(g[:, 1], len(g))
        ratio = rho2(state, x1, y1, x2, y2) / self._envelope(x1, y1, x2, y2)
        self.bound = float(np.max(ratio)) * 1.5 + 1e-300

    @staticmethod
    def _envelope(x1, y1, x2, y2):
        norm = 1.0 / (2.0 * math.pi) ** 2
        return norm * np.exp(-0.5 * (x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2))

    def density_ratio(self, x1, y1, x2, y2):
        return rho2(self.state, x1, y1, x2, y2) / \
            (self._envelope(x1, y1, x2, y2) * self.bound)


def _sample_cartesian_block(state, seed, indices, envelope):
    """Plain 4D rejection for states outside the ring family."""
    n = len(indices)
    points = np.empty((n, 2, 2))
    pending = np.arange(n)
    proposals = 0
    for attempt in range(MAX_ATTEMPT_ROUNDS):
        if pending.size == 0:
            break
        idx = indices[pending]
        base = 2 + 5 * attempt
        x1, y1 = _gaussian_from_uniforms(
            counter_uniforms(seed, idx, base),
            counter_uniforms(seed, idx, base + 1))
        x2, y2 = _gaussian_from_uniforms(
            counter_uniforms(seed, idx, base + 2),
            counter_uniforms(seed, idx, base + 3))
        gate = counter_uniforms(seed, idx, base + 4)
        ratio = envelope.density_ratio(x1, y1, x2, y2)
        if np.any(ratio > 1.0):
            raise AlgebraInconsistencyError(
                "rho2 exceeded the Gaussian envelope bound")
        inside = (np.abs(x1) <= EXTENT) & (np.abs(y1) <= EXTENT) \
            & (np.abs(x2) <= EXTENT) & (np.abs(y2) <= EXTENT)
        proposals += pending.size
        ok = (gate <= ratio) & inside
        sel = pending[ok]
        points[sel, 0, 0] = x1[ok]
        points[sel, 0, 1] = y1[ok]
        points[sel, 1, 0] = x2[ok]
        points[sel, 1, 1] = y2[ok]
        pending = pending[~ok]
    if pending.size:
        raise SamplerMethodError(
            f"{pending.size} frames unresolved after "
            f"{MAX_ATTEMPT_ROUNDS} rejection rounds")
    return points, proposals


def sample_pair(state, stream):
    """Draw one position pair; advances the stream's frame cursor."""
    state, _ = _require_state(state)
    if pair_moment(state) <= 1e-14:
        raise NoPairsError("state has no particle pairs to sample")
    law = AngularLaw(state)
    if law.acceptance_estimate < MIN_ACCEPTANCE:
        raise SamplerMethodError(
            "angular rejection acceptance below 1%; "
            "state is outside the ring-factorizable family")
    idx = np.array([stream.next_frame], dtype=np.uint64)
    points, _used = _sample_ring_block(state, stream.seed, idx, law)
    stream.next_frame += 1
    return (Point2D(float(points[0, 0, 0]), float(points[0, 0, 1])),
            Point2D(float(points[0, 1, 0]), float(points[0, 1, 1])))


def generate_frames(state_or_spec, count, seed, method="auto",
                    block=65536, start=0):
    """Reproducible FrameSet of `count` two-photon frames.

    method: 'ring' (radial inverse CDF + angular rejection), 'cartesian'
    (4D Gaussian-envelope rejection), or 'auto' which uses the ring sampler
    and falls back to Cartesian when its angular acceptance estimate is
    below 1%. Identical (state, count, seed, method) always reproduces the
    identical array, independent of block or worker splits. `start` offsets
    the frame indices, so disjoint shards [start, start+count) concatenate
    into exactly the single-call result.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    state, spec = _require_state(state_or_spec)
    if pair_moment(state) <= 1e-14:
        raise NoPairsError("state has no particle pairs to sample")

    chosen = method
    law = envelope = None
    if method not in ("auto", "ring", "cartesian"):
        raise SamplerMethodError(f"unknown sampler method {method!r}")
    if method in ("auto", "ring"):
        law = AngularLaw(state)
        if law.acceptance_estimate < MIN_ACCEPTANCE:
            if method == "ring":
                raise SamplerMethodError(
                    "angular rejection acceptance below 1%; use the "
                    "cartesian fallback")
            chosen = "cartesian"
        else:
            chosen = "ring"
    if chosen == "cartesian":
        envelope = CartesianEnvelope(state)

    points = np.empty((count, 2, 2))
    proposals = 0
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        idx = np.arange(start + lo, start + hi, dtype=np.uint64)
        if chosen == "ring":
            pts, used = _sample_ring_block(state, seed, idx, law)
        else:
            pts, used = _sample_cartesian_block(state, seed, idx, envelope)
        points[lo:hi] = pts
        proposals += used
    # proposal counts are per-frame deterministic, so this rate is
    # independent of the block split
    rate = count / proposals if proposals else 1.0
    meta = {"generator_version": GENERATOR_VERSION, "block": "immaterial",
            "proposals": int(proposals)}
    if law is not None and chosen == "ring":
        meta["majorant"] = law.majorant
        meta["acceptance_estimate"] = law.acceptance_estimate
    return FrameSet(spec=spec, seed=int(seed), points=points, method=chosen,
                    acceptance_rate=float(rate), meta=meta)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def empirical_profile(frames, bins=120):
    """2D histogram of all pooled points, normalized as a density.

    Pooling the two detections of every frame estimates rho1 / <N>; the
    per-frame pair structure is intentionally averaged away.
    """
    from .density import DensityField
    if frames.count == 0:
        raise EmptyFramesError("no frames to histogram")
    pts = frames.points.reshape(-1, 2)
    edges = np.linspace(-EXTENT, EXTENT, bins + 1)
    hist, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=(edges, edges))
    width = edges[1] - edges[0]
    values = hist / (pts.shape[0] * width * width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    total = float(np.sum(values) * width * width)
    meta = {"estimator": "histogram", "bins": bins, "count": frames.count}
    return DensityField(x=centers, y=centers, values=values, total=total,
                        meta=meta)


def pair_separations(frames):
    """Per-frame distances |p1 - p2|."""
    if frames.count == 0:
        raise EmptyFramesError("no frames")
    diff = frames.points[:, 0, :] - frames.points[:, 1, :]
    return np.hypot(diff[:, 0], diff[:, 1])


def pair_angles(frames):
    """Per-frame relative angles folded to [0, pi)."""
    if frames.count == 0:
        raise EmptyFramesError("no frames")
    th1 = np.arctan2(frames.points[:, 0, 1], frames.points[:, 0, 0])
    th2 = np.arctan2(frames.points[:, 1, 1], frames.points[:, 1, 0])
    return np.mod(th2 - th1, math.pi)


def empirical_pair_stats(frames, bins=64):
    """Histogram estimates of the distance and folded-angle laws.

    Statistics are strictly per frame: distances and angles never mix
    points from different frames, which is what preserves the exchange
    signature that pooled averaging destroys.
    """
    from .pairstats import PairDistribution, PairVariable
    dist = pair_separations(frames)
    ang = pair_angles(frames)

    d_edges = np.linspace(0.0, 8.0, bins + 1)
    d_hist, _ = np.histogram(dist, bins=d_edges)
    d_width = d_edges[1] - d_edges[0]
    d_centers = 0.5 * (d_edges[:-1] + d_edges[1:])
    d_values = d_hist / (dist.size * d_width)

    a_edges = np.linspace(0.0, math.pi, bins + 1)
    a_hist, _ = np.histogram(ang, bins=a_edges)
    a_width = a_edges[1] - a_edges[0]
    a_centers = 0.5 * (a_edges[:-1] + a_edges[1:])
    a_values = a_hist / (ang.size * a_width)

    meta = {"estimator": "histogram", "bins": bins, "count": frames.count}
    return (PairDistribution(PairVariable.DISTANCE, d_centers, d_values,
                             meta=dict(meta)),
            PairDistribution(PairVariable.REL_ANGLE, a_centers, a_values,
                             meta=dict(meta)))


@dataclass
class GofResult:
    statistic: float
    dof: int
    pvalue: float
    bins: int


def _chi2_sf(x, dof):
    """Chi-square survival function Q(dof/2, x/2) for integer dof.

    Even dof: e^-h sum_{j < dof/2} h^j / j!; odd dof: erfc(sqrt h) +
    e^-h sum_{j=1}^{(dof-1)/2} h^(j-1/2) / Gamma(j+1/2), with h = x/2.
    Each term is formed in logs, so e^-h never underflows on its own.
    """
    if dof < 1:
        return math.nan
    h = 0.5 * x
    if h <= 0.0:
        return 1.0
    if dof % 2 == 0:
        head, powers = 0.0, range(dof // 2)
    else:
        head, powers = math.erfc(math.sqrt(h)), \
            [j - 0.5 for j in range(1, (dof + 1) // 2)]
    log_h = math.log(h)
    return math.fsum([head] + [math.exp(p * log_h - h - math.lgamma(p + 1.0))
                               for p in powers])


def chi_square_gof(samples, reference, bins=40, lo=None, hi=None,
                   min_expected=5.0):
    """Pearson chi-square of samples against a reference density.

    Bin probabilities come from fine trapezoid integrals of the reference;
    bins with expected counts under `min_expected` merge rightward into
    their neighbor, deterministically.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        raise EmptyFramesError("no samples for goodness of fit")
    if lo is None:
        lo = float(reference.grid[0])
    if hi is None:
        hi = float(reference.grid[-1])
    edges = np.linspace(lo, hi, bins + 1)
    fine = 33
    probs = np.empty(bins)
    for i in range(bins):
        xs = np.linspace(edges[i], edges[i + 1], fine)
        probs[i] = np.trapezoid(reference.value_at(xs), xs)
    probs = np.maximum(probs, 0.0)
    total = probs.sum()
    if not 0.5 < total < 1.5:
        raise ValueError(f"reference mass over histogram range is {total}")
    probs /= total
    counts, _ = np.histogram(np.clip(samples, lo, hi), bins=edges)

    # merge low-expectation bins into the next one to the right
    merged_counts = []
    merged_probs = []
    acc_c, acc_p = 0.0, 0.0
    for c, p in zip(counts, probs):
        acc_c += c
        acc_p += p
        if acc_p * n >= min_expected:
            merged_counts.append(acc_c)
            merged_probs.append(acc_p)
            acc_c, acc_p = 0.0, 0.0
    if acc_p > 0.0 and merged_probs:
        merged_counts[-1] += acc_c
        merged_probs[-1] += acc_p
    counts = np.asarray(merged_counts)
    probs = np.asarray(merged_probs)
    expected = probs * n
    stat = float(np.sum((counts - expected) ** 2 / expected))
    dof = len(counts) - 1
    return GofResult(statistic=stat, dof=dof,
                     pvalue=_chi2_sf(stat, dof), bins=len(counts))


# ---------------------------------------------------------------------------
# frame file format
# ---------------------------------------------------------------------------

_HEADER_PREFIX = "#vortexcorr-frames "
_ROW_FORMAT = "%d,%.17g,%.17g,%.17g,%.17g\n"
_WRITE_ROWS = 65536


def _format_rows(start, points):
    """CSV body rows of `points` (shape (k, 2, 2)), indexed from `start`.

    One %-format call per block: the float column holding the frame index
    is exact below 2**53 and prints through %d as the integer.
    """
    k = points.shape[0]
    rows = np.empty((k, 5))
    rows[:, 0] = np.arange(start, start + k)
    rows[:, 1:] = points.reshape(k, 4)
    return _ROW_FORMAT * k % tuple(rows.ravel().tolist())


def _formatted_blocks(points, workers):
    """Body text block by block, in order; forked processes format the
    blocks when `workers` > 1, since %-formatting holds the GIL."""
    starts = range(0, points.shape[0], _WRITE_ROWS)
    blocks = (points[lo:lo + _WRITE_ROWS] for lo in starts)
    if workers > 1 and len(starts) > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            # fork, not spawn: the children only run _format_rows on the
            # blocks they are sent and touch no lock or BLAS thread state
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(min(workers, len(starts)),
                                     mp_context=context) as pool:
                yield from pool.map(_format_rows, starts, blocks)
            return
    for lo, block in zip(starts, blocks):
        yield _format_rows(lo, block)


def save_frames(frames, path, provenance=None, workers=1):
    """Single-file format: one JSON header comment line, then a CSV body.

    The body is written in blocks of `_WRITE_ROWS` rows; `workers` > 1
    formats the blocks in up to that many forked processes. The bytes
    never depend on `workers`.
    """
    if frames.spec is None:
        raise ValueError("FrameSet has no state descriptor; build it from "
                         "a StateSpec to make it saveable")
    header = {
        "format": "vortexcorr.frames",
        "version": VERSION,
        "generator": GENERATOR_VERSION,
        "state": spec_to_dict(frames.spec),
        "seed": frames.seed,
        "count": frames.count,
        "method": frames.method,
        "acceptance_rate": frames.acceptance_rate,
    }
    if provenance:
        header["provenance"] = provenance
    # blocks reach the disk as they are formatted, so build the file
    # beside its target and move it there only once it is whole
    part = f"{path}.part"
    try:
        with open(part, "w", encoding="utf-8") as fh:
            fh.write(_HEADER_PREFIX + json.dumps(
                header, sort_keys=True, separators=(",", ":")) + "\n")
            fh.write("frame_index,x1,y1,x2,y2\n")
            for text in _formatted_blocks(frames.points, workers):
                fh.write(text)
        os.replace(part, path)
    finally:
        if os.path.exists(part):
            os.remove(part)


def load_frames(path):
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith(_HEADER_PREFIX):
            raise ValueError(f"{path} is not a frames file")
        header = json.loads(first[len(_HEADER_PREFIX):])
        columns = fh.readline().strip()
        if columns != "frame_index,x1,y1,x2,y2":
            raise ValueError(f"unexpected column header {columns!r}")
        body = np.loadtxt(fh, delimiter=",", ndmin=2) \
            if header["count"] else np.empty((0, 5))
    if body.shape[0] != header["count"]:
        raise ValueError("frame count mismatch between header and body")
    points = body[:, 1:].reshape(-1, 2, 2)
    return FrameSet(spec=spec_from_dict(header["state"]),
                    seed=int(header["seed"]), points=points,
                    method=header["method"],
                    acceptance_rate=float(header["acceptance_rate"]),
                    meta={"generator_version": header["generator"]})
