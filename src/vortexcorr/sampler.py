"""Monte Carlo single-shot two-photon frames and empirical estimators.

Every state in the two-mode family factorizes in polar coordinates: both
radii follow the ring marginal p(r) = 2 r^3 exp(-r^2) independently of the
angles, and all exchange physics sits in the joint angle law. Pairs are
therefore drawn with exact radii plus constant-majorant rejection of the
angle pair against W = g(theta)^T M g(vartheta), the nine numbers of
fock.harmonics. Under the ring marginal r^2 is Gamma(2, 1), the sum of two
Exp(1) variables, so a radius costs two uniforms, one log and a square
root, with no table or iteration (Devroye, Non-Uniform Random Variate
Generation, 1986, ch. IX). An angle 2 pi u is drawn as its unit
vector, formed from tan(pi u) with no cosine or sine. The majorant is
exact (AngularLaw), and the acceptance is never below a quarter, less a
rounding allowance.

Randomness comes from a counter-based generator: every uniform is a pure
hash of (seed, frame_index, draw_index), so frames can be produced in any
order or split across workers without changing a single sample. Draws 0-1
give the first radius, 2-3 the second, and rejection round k uses draws
4 + 3k (theta), 5 + 3k (vartheta) and 6 + 3k (the gate).
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (AlgebraInconsistencyError, EmptyFramesError,
                     SamplerMethodError)
from .fock import harmonics
from .io import _CELLS, canonical_json, parse_block, whole_file, write_rows
from .pairstats import (DISTANCE_MAX, PairDistribution, PairVariable,
                        angular_weight, harmonic_weight, require_pairs)
from .states import StateSpec, build_state, spec_from_dict, spec_to_dict
from .version import GENERATOR_VERSION, VERSION

MAX_ATTEMPT_ROUNDS = 512
MAJORANT_NODES = 4096
ROUNDING_ALLOWANCE = 2.0 ** -40
_MIN_EXPECTED = 5.0  # chi_square_gof's fewest expected samples in a bin

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


def _frame_keys(seed, frame_indices):
    """Hashed (seed, frame) keys; each draw of a frame hashes its key."""
    idx = np.atleast_1d(np.asarray(frame_indices, dtype=np.uint64))
    return _mix64(_U64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLD)


def _keyed_uniforms(keys, draw_index):
    """Uniforms in [0, 1) of draw `draw_index` of the frames with `keys`."""
    # scalar uint64 products warn on wraparound; do them in python ints
    offset = _U64((int(draw_index) * 0x9E3779B97F4A7C15)
                  & 0xFFFFFFFFFFFFFFFF)
    return (_mix64(keys + offset) >> _U64(11)).astype(np.float64) * _TO_UNIT


def counter_uniforms(seed, frame_indices, draw_index):
    """Uniforms in [0, 1) as a pure function of (seed, frame, draw)."""
    return _keyed_uniforms(_frame_keys(seed, frame_indices), draw_index)


# ---------------------------------------------------------------------------
# radial law
# ---------------------------------------------------------------------------


def invert_radial_cdf(u1, u2):
    """Ring-marginal radius from the two uniforms u1, u2 in [0, 1) of one
    radius.

    r^2 is Gamma(2, 1), the sum of two inverted Exp(1) CDFs:
    r = sqrt(-ln((1 - u1)(1 - u2))). 1 - u is exact for counter uniforms,
    and the product, in [2^-106, 1], moves r^2 by at most 1.1e-16 by its
    rounding. -ln is taken as |ln|, so that u1 = u2 = 0 gives +0.0.
    """
    product = ((1.0 - np.asarray(u1, dtype=float))
               * (1.0 - np.asarray(u2, dtype=float)))
    return np.sqrt(np.abs(np.log(product)))


# ---------------------------------------------------------------------------
# angular law
# ---------------------------------------------------------------------------


class AngularLaw:
    """Joint angle weight W(theta, vartheta) with an exact majorant.

    With theta fixed, W = c0 + c1 cos 2 vartheta + c2 sin 2 vartheta, c =
    M^T g(theta), peaks at c0 + |(c1, c2)|, which moves by at most
    |(M10, M20)| + ||M[1:, 1:]||_2 per radian of 2 theta: its maximum on
    MAJORANT_NODES nodes, plus that slope times half the node spacing,
    bounds W. So does 4 mean(W) = 4 M00, as in the vortex basis each pair
    amplitude has four orthogonal unit-modulus Fourier terms. The majorant
    is the smaller bound plus ROUNDING_ALLOWANCE sum|M_jk|, over 100 times
    the rounding error of either evaluation of W. A state without pairs
    has no angle law and raises NoPairsError.
    """

    def __init__(self, state):
        m = self.matrix = harmonics(state)[1]
        require_pairs(m)
        phi = np.linspace(0.0, 2.0 * math.pi, MAJORANT_NODES, endpoint=False)
        c = m.T @ np.stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
        spread = np.hypot(c[1], c[2])
        top = float(np.max(c[0] + spread))
        if np.min(c[0] - spread) < -1e-10 * max(1.0, top):
            raise AlgebraInconsistencyError(
                "angular weight is significantly negative")
        slope = math.hypot(m[1, 0], m[2, 0]) + np.linalg.norm(m[1:, 1:], 2)
        allowance = ROUNDING_ALLOWANCE * np.sum(np.abs(m))
        self.majorant = float(min(top + slope * math.pi / MAJORANT_NODES,
                                  4.0 * m[0, 0]) + allowance + 1e-300)

    def __call__(self, theta, vartheta):
        return angular_weight(self.matrix, theta, vartheta)

    def from_unit_vectors(self, cos_t, sin_t, cos_v, sin_v):
        """W at the angles of the unit vectors (cos_t, sin_t) and (cos_v,
        sin_v), from cos 2x = c^2 - s^2 and sin 2x = 2cs formed in one
        buffer."""
        harmonics = np.empty((4,) + np.shape(cos_t))
        part = np.empty(np.shape(cos_t))
        for c, s, cos2, sin2 in ((cos_t, sin_t, *harmonics[:2]),
                                 (cos_v, sin_v, *harmonics[2:])):
            np.subtract(np.multiply(c, c, out=cos2),
                        np.multiply(s, s, out=part), out=cos2)
            np.multiply(np.multiply(c, 2.0, out=sin2), s, out=sin2)
        return harmonic_weight(self.matrix, *harmonics)

    @property
    def acceptance_estimate(self):
        # mean(W) over the angle pairs is M_00
        return float(self.matrix[0, 0]) / self.majorant


def _unit_vectors(u):
    """(cos, sin) of the angles 2 pi u from tau = tan(pi u), which stays
    below 1.7e16 for u in [0, 1): ((1 - tau^2), 2 tau) / (1 + tau^2)."""
    tau = np.tan(math.pi * u)
    square = tau * tau
    norm = 1.0 + square
    return (1.0 - square) / norm, 2.0 * tau / norm


# ---------------------------------------------------------------------------
# frame generation
# ---------------------------------------------------------------------------


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


def _sample_ring_block(seed, indices, law):
    """Gamma(2) radii, angle pairs by constant-majorant rejection."""
    keys = _frame_keys(seed, indices)
    radii = np.stack([
        invert_radial_cdf(_keyed_uniforms(keys, 0), _keyed_uniforms(keys, 1)),
        invert_radial_cdf(_keyed_uniforms(keys, 2), _keyed_uniforms(keys, 3)),
    ], 1)
    points = np.empty((len(indices), 2, 2))  # unit vectors until the end
    pending = np.arange(len(indices))
    proposals = 0
    for attempt in range(MAX_ATTEMPT_ROUNDS):
        if pending.size == 0:
            break
        cos_t, sin_t = _unit_vectors(_keyed_uniforms(keys, 4 + 3 * attempt))
        cos_v, sin_v = _unit_vectors(_keyed_uniforms(keys, 5 + 3 * attempt))
        gate = _keyed_uniforms(keys, 6 + 3 * attempt) * law.majorant
        w = law.from_unit_vectors(cos_t, sin_t, cos_v, sin_v)
        if np.any(w > law.majorant):
            raise AlgebraInconsistencyError(
                "angular weight exceeded its majorant")
        proposals += pending.size
        # integer positions: a random boolean mask indexes several times
        # slower, as its branches mispredict
        accept = gate <= w
        ok, miss = np.flatnonzero(accept), np.flatnonzero(~accept)
        hit = pending[ok]
        points[hit, 0, 0], points[hit, 0, 1] = cos_t[ok], sin_t[ok]
        points[hit, 1, 0], points[hit, 1, 1] = cos_v[ok], sin_v[ok]
        pending, keys = pending[miss], keys[miss]
    if pending.size:
        raise SamplerMethodError(
            f"{pending.size} frames unresolved after "
            f"{MAX_ATTEMPT_ROUNDS} rejection rounds")
    points *= radii[:, :, None]
    return points, proposals


def generate_frames(state_or_spec, count, seed, block=65536, threads=1):
    """Reproducible FrameSet of `count` two-photon frames.

    Radii are exact and unbounded (invert_radial_cdf); angle pairs come by
    rejection against the AngularLaw majorant. Identical (state, count,
    seed) always reproduces the identical array, whatever `block` (>= 1)
    or `threads`: every draw is keyed by its frame index, so the blocks of
    `block` frames may be sampled in any order, in up to `threads`
    threads. The FrameSet is saveable when the state carries its spec, as
    every state build_state makes does. The seed lies in [0, 2**64); the
    generator reads it modulo 2**64, so any other raises ValueError.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must lie in [0, 2**64)")
    if block < 1:
        raise ValueError("block must be >= 1")
    state = (build_state(state_or_spec)
             if isinstance(state_or_spec, StateSpec) else state_or_spec)
    law = AngularLaw(state)
    points = np.empty((count, 2, 2))

    def sample(lo):
        hi = min(lo + block, count)
        idx = np.arange(lo, hi, dtype=np.uint64)
        points[lo:hi], used = _sample_ring_block(seed, idx, law)
        return used

    starts = range(0, count, block)
    if threads > 1 and len(starts) > 1:
        # imported here: concurrent.futures pulls logging and queue into
        # every process that imports the command line
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(min(threads, len(starts))) as pool:
            proposals = sum(pool.map(sample, starts))
    else:
        proposals = sum(map(sample, starts))
    # proposal counts are per-frame deterministic, so this rate is
    # independent of the block split
    rate = count / proposals if proposals else 1.0
    meta = {"generator_version": GENERATOR_VERSION, "block": "immaterial",
            "proposals": int(proposals), "majorant": law.majorant,
            "acceptance_estimate": law.acceptance_estimate}
    return FrameSet(spec=state.spec, seed=int(seed), points=points,
                    method="ring", acceptance_rate=float(rate), meta=meta)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


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


def _density_histogram(variable, samples, hi, bins):
    edges = np.linspace(0.0, hi, bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    values = counts / (samples.size * (edges[1] - edges[0]))
    return PairDistribution(variable, centers, values,
                            meta={"samples": samples})


def empirical_pair_stats(frames, bins=64):
    """Histogram estimates of the distance and folded-angle laws.

    Statistics are strictly per frame: distances and angles never mix
    points from different frames, which is what preserves the exchange
    signature that pooled averaging destroys. Each histogram keeps its
    per-frame samples (pair_separations, pair_angles) as meta["samples"].
    """
    return (_density_histogram(PairVariable.DISTANCE,
                               pair_separations(frames), DISTANCE_MAX, bins),
            _density_histogram(PairVariable.REL_ANGLE, pair_angles(frames),
                               math.pi, bins))


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


def chi_square_gof(samples, reference, bins=40):
    """Pearson chi-square of samples against a reference density in `bins`
    equal bins over its grid; samples outside it count in the end bins.

    Bin probabilities come from fine trapezoid integrals of the reference;
    bins with expected counts under _MIN_EXPECTED merge rightward into
    their neighbor, deterministically.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        raise EmptyFramesError("no samples for goodness of fit")
    lo, hi = float(reference.grid[0]), float(reference.grid[-1])
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
        if acc_p * n >= _MIN_EXPECTED:
            merged_counts.append(acc_c)
            merged_probs.append(acc_p)
            acc_c, acc_p = 0.0, 0.0
    if acc_p > 0.0:
        if not merged_probs:  # too few samples: one bin, dof 0, no p-value
            merged_counts.append(0.0)
            merged_probs.append(0.0)
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
_COLUMNS = "frame_index,x1,y1,x2,y2"
_HEADER_KEYS = {"state", "seed", "count", "method", "acceptance_rate",
                "generator"}
_READ_BYTES = 1 << 18  # bytes of body per parse_block call
_WRITE_SLICE = 20 * (_CELLS // 5)  # rows per write_rows call, whole blocks


def save_frames(frames, path, provenance=None):
    """Single-file format: one JSON header comment line, then a CSV body
    of %.17g cells as write_rows lays them out.
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
    rows = frames.points.reshape(-1, 4)
    with whole_file(path) as fh:
        fh.write(f"{_HEADER_PREFIX}{canonical_json(header)}\n{_COLUMNS}\n"
                 .encode("utf-8"))
        for lo in range(0, frames.count, _WRITE_SLICE):
            hi = min(lo + _WRITE_SLICE, frames.count)
            # the frame index is a float, exact below 2**53, that %.17g
            # prints as the integer
            write_rows(fh, (np.arange(lo, hi, dtype=float), *rows[lo:hi].T))


def load_frames(path):
    """The FrameSet of a frames file. The whole header is checked, and its
    state built, before the body is read `_READ_BYTES` at a time into
    points allocated once from the header's count, every cell as Python's
    float() reads it; the frame_index column must count 0, 1, 2, ... row
    by row."""
    with open(path, "rb") as fh:
        first = fh.readline().decode("utf-8")
        if not first.startswith(_HEADER_PREFIX):
            raise ValueError(f"{path} is not a frames file")
        header = json.loads(first[len(_HEADER_PREFIX):])
        columns = fh.readline().decode("utf-8").strip()
        if columns != _COLUMNS:
            raise ValueError(f"unexpected column header {columns!r}")
        if not isinstance(header, dict) or not _HEADER_KEYS <= header.keys():
            raise ValueError(f"frames header is not an object with the keys "
                             f"{', '.join(sorted(_HEADER_KEYS))}")
        count, seed = header["count"], header["seed"]
        if type(count) is not int or count < 0:
            raise ValueError(f"frame count {count!r} is not an integer >= 0")
        if type(seed) is not int or not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed {seed!r} is not an integer in [0, 2**64)")
        if type(header["acceptance_rate"]) not in (int, float):
            raise ValueError("acceptance_rate is not a number")
        if header["method"] not in ("ring", "cartesian"):
            raise ValueError(f"method {header['method']!r} is not 'ring' or "
                             "'cartesian'")
        if type(header["generator"]) is not str:
            raise ValueError(f"generator {header['generator']!r} is not a "
                             "string")
        spec = spec_from_dict(header["state"])
        # a row takes at least 10 bytes, the last one 9
        if 10 * count > os.fstat(fh.fileno()).st_size - fh.tell() + 1:
            raise ValueError("frame count exceeds what the body can hold")
        points = np.empty((count, 2, 2))
        row, rest = 0, b""
        while count:  # a file of no frames has no body to read
            chunk = fh.read(_READ_BYTES)
            if b"\r" in chunk:  # line ends as text mode reads them
                chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            data = rest + chunk
            cut = data.rfind(b"\n") + 1 if chunk else len(data)
            rest = data[cut:]
            rows = parse_block(data[:cut], 5)
            if row + len(rows) > count:
                raise ValueError("more frames in the body than its header "
                                 "counts")
            if np.any(rows[:, 0] != np.arange(row, row + len(rows))):
                raise ValueError(f"frame_index out of sequence in rows "
                                 f"{row} to {row + len(rows) - 1}")
            points[row:row + len(rows)] = rows[:, 1:].reshape(-1, 2, 2)
            row += len(rows)
            if not chunk:
                break
    if row != count:
        raise ValueError("frame count mismatch between header and body")
    return FrameSet(spec=spec, seed=seed, points=points,
                    method=header["method"],
                    acceptance_rate=float(header["acceptance_rate"]),
                    meta={"generator_version": header["generator"]})
