"""Frame sampler: counter RNG, Gamma(2) radii, determinism, estimators."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from vortexcorr import io, oracle, sampler
from vortexcorr.errors import EmptyFramesError, NoPairsError
from vortexcorr.sampler import (chi_square_gof, counter_uniforms,
                                empirical_pair_stats, generate_frames,
                                invert_radial_cdf, load_frames, pair_angles,
                                pair_separations, save_frames)
from vortexcorr.oracle import closed_form_angle, closed_form_distance
from vortexcorr.pairstats import (PairDistribution, PairVariable,
                                  bosonic_weight)
from vortexcorr.states import (SpecError, StateSpec, bose_fock, build_state,
                               coherent, cothermal, fermi_fock, noon, thermal)

MASK = (1 << 64) - 1
GOLD = 0x9E3779B97F4A7C15


def _mix_ref(z):
    # reference mix in plain python integers
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def _uniform_ref(seed, frame, draw):
    key = _mix_ref((seed + frame * GOLD) & MASK)
    value = _mix_ref((key + draw * GOLD) & MASK)
    return (value >> 11) * 2.0 ** -53


def test_counter_uniforms_against_reference():
    frames = np.array([0, 1, 2, 10 ** 12], dtype=np.uint64)
    for seed in (0, 1, 42, 2 ** 63 - 1):
        for draw in (0, 1, 5, 1000):
            got = counter_uniforms(seed, frames, draw)
            want = [_uniform_ref(seed, int(f), draw) for f in frames]
            np.testing.assert_array_equal(got, np.array(want))


def test_counter_uniforms_statistics():
    u = counter_uniforms(7, np.arange(200000, dtype=np.uint64), 3)
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 0.01


def radial_cdf(r):
    """Reference CDF of the ring marginal p(r) = 2 r^3 exp(-r^2)."""
    r = np.asarray(r, dtype=float)
    return 1.0 - (1.0 + r * r) * np.exp(-r * r)


def test_radial_cdf_closed_form():
    # the reference against a Gauss-Legendre integral of the ring marginal
    x, w = np.polynomial.legendre.leggauss(40)
    for r in (0.0, 0.7, 1.3, 3.0):
        t = 0.5 * r * (x + 1.0)
        mass = 0.5 * r * np.sum(w * 2.0 * t ** 3 * np.exp(-t * t))
        assert radial_cdf(r) == pytest.approx(mass, abs=1e-14)


def _gamma_radii(n, seed):
    idx = np.arange(n, dtype=np.uint64)
    return invert_radial_cdf(counter_uniforms(seed, idx, 0),
                             counter_uniforms(seed, idx, 1))


def test_radii_have_the_gamma_moments():
    # r^2 ~ Gamma(2, 1): E r^2 = 2 and E r^4 = 6, with variances
    # E r^4 - 4 = 2 and E r^8 - 36 = 120 - 36 = 84
    n = 1_000_000
    r2 = _gamma_radii(n, 23) ** 2
    assert abs(r2.mean() - 2.0) < 4.0 * math.sqrt(2.0 / n)
    assert abs((r2 * r2).mean() - 6.0) < 4.0 * math.sqrt(84.0 / n)


def test_radii_follow_radial_cdf():
    n = 1_000_000
    cdf = radial_cdf(np.sort(_gamma_radii(n, 31)))
    steps = np.arange(1, n + 1) / n
    kolmogorov = max(np.max(steps - cdf), np.max(cdf - (steps - 1.0 / n)))
    assert kolmogorov < 2e-3


def test_radii_at_the_uniform_ends():
    # counter uniforms run from 0 to 1 - 2^-53; 1 - u never reaches 0
    ends = np.array([0.0, 1.0 - 2.0 ** -53])
    r = invert_radial_cdf(ends[:, None], ends[None, :])
    assert np.all(np.isfinite(r)) and np.all(r >= 0.0)
    # +0.0, not the -0.0 of a bare -ln(1.0), which a frame prints as "-0"
    assert r[0, 0] == 0.0 and not np.any(np.signbit(r))
    np.testing.assert_allclose(r[1, 1], math.sqrt(106.0 * math.log(2.0)),
                               rtol=1e-15)


def test_generate_frames_rejects_bad_block():
    for block in (0, -3):
        with pytest.raises(ValueError, match="block must be >= 1"):
            generate_frames(fermi_fock(), 10, seed=1, block=block)


def test_generate_frames_rejects_seeds_outside_64_bits():
    # the generator reads the seed modulo 2**64: -1 would alias 2**64 - 1
    for seed in (-1, 2 ** 64, -2 ** 63, 10 ** 400):
        with pytest.raises(ValueError, match="seed"):
            generate_frames(fermi_fock(), 5, seed=seed)
    for seed in (0, 2 ** 64 - 1):
        assert generate_frames(fermi_fock(), 5, seed=seed).seed == seed


def test_generate_frames_deterministic():
    a = generate_frames(fermi_fock(), 400, seed=11)
    b = generate_frames(fermi_fock(), 400, seed=11)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.acceptance_rate == b.acceptance_rate
    c = generate_frames(fermi_fock(), 400, seed=12)
    assert np.any(c.points != a.points)


def test_generate_frames_block_split_invariant():
    a = generate_frames(fermi_fock(), 300, seed=3)
    b = generate_frames(fermi_fock(), 300, seed=3, block=7)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.acceptance_rate == b.acceptance_rate


def test_generate_frames_thread_split_property():
    # any block size and thread count reproduces the frames and the
    # proposal count of one block holding every frame
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    state = build_state(fermi_fock())
    law = sampler.AngularLaw(state)

    @hypothesis.settings(max_examples=12, deadline=None)
    @hypothesis.given(count=st.integers(0, 200), block=st.integers(1, 64),
                      threads=st.integers(1, 3))
    def check(count, block, threads):
        points, proposals = sampler._sample_ring_block(
            21, np.arange(count, dtype=np.uint64), law)
        frames = generate_frames(state, count, seed=21, block=block,
                                 threads=threads)
        np.testing.assert_array_equal(frames.points, points)
        assert frames.meta["proposals"] == proposals

    check()


def _reference_frames(spec, count, seed):
    """The draw table of ring-sampler-3, one frame at a time in plain
    python floats with libm cos and sin: the points and the proposals."""
    law = sampler.AngularLaw(build_state(spec))
    points, proposals = np.empty((count, 2, 2)), 0
    for frame in range(count):
        u = [_uniform_ref(seed, frame, draw) for draw in range(4)]
        radii = [math.sqrt(-math.log((1.0 - u[0]) * (1.0 - u[1]))),
                 math.sqrt(-math.log((1.0 - u[2]) * (1.0 - u[3])))]
        for attempt in range(sampler.MAX_ATTEMPT_ROUNDS):
            theta, vartheta, gate = (
                _uniform_ref(seed, frame, 4 + 3 * attempt + k)
                for k in range(3))
            angles = 2.0 * math.pi * theta, 2.0 * math.pi * vartheta
            proposals += 1
            if gate * law.majorant <= float(law(*angles)):
                break
        for p, (r, a) in enumerate(zip(radii, angles)):
            points[frame, p] = r * math.cos(a), r * math.sin(a)
    return points, proposals


@pytest.mark.parametrize("spec", (fermi_fock(), cothermal(), noon()),
                         ids=lambda s: s.kind)
def test_frames_follow_the_draw_table(spec):
    # the tangent unit vectors and the one-log radii agree with libm to a
    # few ulps, and no gate lies that close to its weight in 300 frames
    frames = generate_frames(spec, 300, seed=29)
    points, proposals = _reference_frames(spec, 300, 29)
    np.testing.assert_allclose(frames.points, points, rtol=0, atol=1e-14)
    assert frames.meta["proposals"] == proposals


# sha256 of generate_frames(spec, 2000, seed=17).points.tobytes() and its
# proposal count for every shipped state, taken at ring-sampler-3 (one-log
# Gamma(2) radii from draws 0-3, half-angle-tangent unit vectors and the
# exact majorant in the angle rounds from draw 4); a change of
# GENERATOR_VERSION re-pins them
_FRAME_PINS = {
    "fermi-fock": (fermi_fock(), "552a7ce85513133ff6f11917a53a49a2"
                   "bc875445b43c56c42ec085b0c96d4e5f", 3991),
    "fermi-fock-dipole": (fermi_fock("dipole"), "552a7ce85513133ff6f11917"
                          "a53a49a2bc875445b43c56c42ec085b0c96d4e5f", 3991),
    "bose-fock-1-1": (bose_fock(1, 1), "c5adbd04bbf69413401e164e7f3b7071"
                      "17dc5ee1c3871504528aa657b8450137", 4028),
    "bose-fock-2-1": (bose_fock(2, 1), "86a68f261a579b83f573f2165697c713"
                      "0f53744e2aaf993129325165669e8837", 3350),
    "coherent": (coherent(), "d0403e8eaba7cacca3209ae90d2d1aa0"
                 "4e8713b7ced237d582627e3f9e7cc097", 2000),
    "thermal": (thermal(), "76f4313879a4b595b09e80abfd42a61d"
                "5ccf47310f6bbe88964ddd32a843f58b", 2647),
    "cothermal": (cothermal(), "6c02efddfed198037349b624d047d55a"
                  "68e7728abe0589237ab34c0ccafa5571", 2518),
    "noon": (noon(), "8ff9a79bcf98a129b28c95bb66182fc4"
             "4c6d004124cf4da41b47e8075efd184a", 3937),
    # the one pinned state whose M couples sin 2 theta (M_01, M_02)
    "tilted-coherent": (oracle.TILTED_COHERENT, "e752a20e3996a102df0bf5c2"
                        "4e4f977803b39aba459ec0357c078b029c93b19d", 6789),
}


@pytest.mark.parametrize("name", sorted(_FRAME_PINS))
def test_frame_bytes_are_pinned(name):
    spec, digest, proposals = _FRAME_PINS[name]
    frames = generate_frames(spec, 2000, seed=17)
    assert frames.meta["generator_version"] == sampler.GENERATOR_VERSION
    assert hashlib.sha256(frames.points.tobytes()).hexdigest() == digest
    assert frames.meta["proposals"] == proposals


def test_acceptance_rate_healthy():
    for spec in (fermi_fock(), bose_fock(1, 1), coherent(), noon()):
        frames = generate_frames(spec, 4000, seed=2)
        assert frames.method == "ring"
        assert frames.acceptance_rate >= 0.25, spec.kind


def test_no_pairs_guard():
    with pytest.raises(NoPairsError):
        generate_frames(coherent(alpha_a=0.0, alpha_b=0.0), 5, seed=1)


def test_ring_frames_match_fermi_distance_law():
    ring = generate_frames(fermi_fock(), 30000, seed=6)
    ref = PairDistribution(
        PairVariable.DISTANCE, np.linspace(0, 8, 401),
        closed_form_distance("fermi-fock", np.linspace(0, 8, 401)),
        closure=lambda d: closed_form_distance("fermi-fock", d))
    gof = chi_square_gof(pair_separations(ring), ref, bins=30)
    assert gof.pvalue > 1e-4


def test_per_frame_statistics_keep_exchange_signature():
    frames = generate_frames(fermi_fock(), 40000, seed=14)
    dist = pair_separations(frames)
    # short-distance suppression: the fermi hole empties the first bins
    near = np.mean(dist < 0.35)
    want_near = 4.7e-4  # integral of d^3/2 e^{-d^2/2} up to 0.35
    assert near < 3.0 * want_near + 5e-4
    # scrambling partners across frames erases the hole
    scrambled = np.hypot(
        frames.points[:-1, 0, 0] - frames.points[1:, 1, 0],
        frames.points[:-1, 0, 1] - frames.points[1:, 1, 1])
    assert np.mean(scrambled < 0.35) > 3.0 * near


def test_empirical_pair_stats_match_laws():
    frames = generate_frames(bose_fock(1, 1), 60000, seed=4)
    d_hist, a_hist = empirical_pair_stats(frames, bins=48)
    d_want = closed_form_distance("bose-fock", d_hist.grid)
    a_want = closed_form_angle("bose-fock", a_hist.grid)
    d_step = d_hist.grid[1] - d_hist.grid[0]
    a_step = a_hist.grid[1] - a_hist.grid[0]
    assert np.sum(np.abs(d_hist.values - d_want)) * d_step < 0.05
    assert np.sum(np.abs(a_hist.values - a_want)) * a_step < 0.05


def test_chi_square_gof_calibration():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 101)
    uniform = PairDistribution(PairVariable.DISTANCE, grid, np.ones(101),
                               closure=lambda x: np.ones_like(np.asarray(x)))
    good = chi_square_gof(rng.random(50000), uniform, bins=20)
    assert good.pvalue > 1e-3
    assert good.dof == good.bins - 1
    biased = chi_square_gof(rng.random(50000) ** 1.15, uniform, bins=20)
    assert biased.pvalue < 1e-6


def test_chi_square_gof_merges_thin_bins():
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, 8.0, 401)
    ref = PairDistribution(
        PairVariable.DISTANCE, grid, closed_form_distance("fermi-fock", grid),
        closure=lambda d: closed_form_distance("fermi-fock", d))
    samples = pair_separations(generate_frames(fermi_fock(), 2000, seed=17))
    gof = chi_square_gof(samples, ref, bins=40)
    # far tail bins hold << 5 expected counts and must have been merged
    assert gof.bins < 40
    assert gof.dof == gof.bins - 1


def test_chi_square_gof_too_few_samples():
    grid = np.linspace(0.0, 1.0, 101)
    uniform = PairDistribution(PairVariable.DISTANCE, grid, np.ones(101),
                               closure=lambda x: np.ones_like(np.asarray(x)))
    # no bin reaches 5 expected counts: everything lands in one bin
    gof = chi_square_gof([0.2, 0.7], uniform, bins=20)
    assert (gof.bins, gof.dof, gof.statistic) == (1, 0, 0.0)
    assert math.isnan(gof.pvalue)


def _oracle_angle_cells(spec, k):
    """Probabilities of the k x k cells of (theta1, theta2) in [0, 2 pi)^2
    from the oracle's own pair density, never from AngularLaw. On the
    first shell rho2 is e^{-u-v} times a polynomial of degree <= 1 in u =
    r^2 and in v = s^2, so a 2-node Gauss-Laguerre rule in each gives the
    joint angle density exactly; it is a trigonometric polynomial of
    degree <= 2 in each angle, so 8 periodic nodes give its Fourier
    coefficients exactly, and each cell integrates in closed form."""
    u, w = np.polynomial.laguerre.laggauss(2)
    r = np.sqrt(u)[:, None, None, None]
    s = np.sqrt(u)[None, :, None, None]
    phi = 2.0 * math.pi * np.arange(8) / 8.0
    rho = oracle.reference_rho2(spec, r * np.cos(phi)[:, None],
                                r * np.sin(phi)[:, None],
                                s * np.cos(phi), s * np.sin(phi))
    # r dr = du / 2, and the rule's weight e^{-u} is in rho already
    weight = w * np.exp(u) / 2.0
    joint = np.einsum("a,b,abij->ij", weight, weight, rho)
    coef = np.fft.fft2(joint) / joint.size
    p = np.fft.fftfreq(8, 1.0 / 8.0)[:, None]
    edges = 2.0 * math.pi * np.arange(k + 1) / k
    ends = np.exp(1j * p * edges)
    cell = np.where(p == 0, 2.0 * math.pi / k,
                    (ends[:, 1:] - ends[:, :-1]) / (1j * np.where(p, p, 1)))
    probs = (cell.T @ coef @ cell).real
    return probs / probs.sum()


# states whose angle law couples sin 2 theta, so that a sampler drawing
# the mirror image of the law (the sign of the sin 2 theta row and column
# of M flipped) sees a different joint law
_TILTED_STATES = {
    "tilted-coherent": oracle.TILTED_COHERENT,
    "dipole-coherent": StateSpec(kind="coherent", alpha_a=1.0, alpha_b=0.6,
                                 basis="dipole"),
    # off its canonical amplitude: M_02 = -2.33
    "tilted-cothermal": StateSpec("cothermal", alpha_a=0.6 + 0.4j,
                                  nbar_a=0.3, basis="vortex"),
}


@pytest.mark.parametrize("name", sorted(_TILTED_STATES))
def test_angular_law_is_the_oracle_pair_density_on_rings(name):
    # rho2 = r^2 s^2 exp(-r^2 - s^2) W(theta, vartheta) / pi^2 on the
    # rings r and s, so W is the oracle's own pair density rescaled
    spec = _TILTED_STATES[name]
    law = sampler.AngularLaw(build_state(spec))
    angles = 2.0 * math.pi * np.arange(8) / 8.0
    theta, vartheta = angles[:, None], angles[None, :]
    r, s = 0.9, 1.4
    rho = oracle.reference_rho2(spec, r * np.cos(theta), r * np.sin(theta),
                                s * np.cos(vartheta), s * np.sin(vartheta))
    want = math.pi ** 2 * math.exp(r * r + s * s) * rho / (r * s) ** 2
    got = law(theta, vartheta)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _joint_angle_pvalue(spec, probs, count, seed):
    """The chi-square p-value of the (theta1, theta2) cells of `count`
    frames of `spec` drawn with `seed` against the cell probabilities."""
    k = len(probs)
    points = generate_frames(spec, count, seed=seed).points
    theta = np.arctan2(points[..., 1], points[..., 0]) % (2.0 * math.pi)
    edges = 2.0 * math.pi * np.arange(k + 1) / k
    counts = np.histogram2d(theta[:, 0], theta[:, 1], bins=[edges, edges])[0]
    expected = probs * count
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    return sampler._chi2_sf(statistic, k * k - 1)


@pytest.mark.parametrize("name", sorted(_TILTED_STATES))
def test_sampled_joint_angles_follow_the_oracle(name):
    spec = _TILTED_STATES[name]
    probs = _oracle_angle_cells(spec, 8)
    assert np.all(probs > 0.0)
    assert _joint_angle_pvalue(spec, probs, 40000, 5) > 1e-3


@pytest.mark.parametrize("name", sorted(_TILTED_STATES))
def test_joint_angle_pvalues_over_seeds_are_uniform(name):
    # a calibrated sampler gives uniform p-values over seeds: a KS test of
    # the p-values of 24 seeds, 4000 frames each, does not reject that
    stats = pytest.importorskip("scipy.stats")
    spec = _TILTED_STATES[name]
    probs = _oracle_angle_cells(spec, 8)
    pvalues = [_joint_angle_pvalue(spec, probs, 4000, seed)
               for seed in range(100, 124)]
    assert stats.kstest(pvalues, "uniform").pvalue > 1e-3, pvalues


def test_save_load_round_trip(tmp_path):
    frames = generate_frames(bose_fock(1, 1), 250, seed=33)
    path = tmp_path / "frames.csv"
    save_frames(frames, path, provenance={"note": "round-trip"})
    again = tmp_path / "frames2.csv"
    save_frames(frames, again)
    back = load_frames(path)
    np.testing.assert_array_equal(back.points, frames.points)
    assert back.seed == frames.seed
    assert back.method == frames.method
    assert back.acceptance_rate == frames.acceptance_rate
    assert back.spec.kind == "bose-fock"
    # byte-identical reruns
    text1 = path.read_text()
    save_frames(frames, path, provenance={"note": "round-trip"})
    assert path.read_text() == text1


def test_load_frames_ignores_old_cutoff_entry(tmp_path):
    # files written while product states were truncated carry a cutoff
    frames = generate_frames(thermal(), 20, seed=8)
    path = tmp_path / "frames.csv"
    save_frames(frames, path)
    first, rest = path.read_text().split("\n", 1)
    header = json.loads(first[len(sampler._HEADER_PREFIX):])
    header["state"]["cutoff"] = 40
    path.write_text(sampler._HEADER_PREFIX
                    + json.dumps(header, sort_keys=True) + "\n" + rest)
    back = load_frames(path)
    assert back.spec == frames.spec
    np.testing.assert_array_equal(back.points, frames.points)


def test_load_frames_fills_a_left_out_amplitude_canonically(tmp_path):
    frames = generate_frames(coherent(), 20, seed=8)
    path = tmp_path / "frames.csv"
    save_frames(frames, path)
    first, rest = path.read_text().split("\n", 1)
    header = json.loads(first[len(sampler._HEADER_PREFIX):])
    del header["state"]["alpha_x"]
    path.write_text(sampler._HEADER_PREFIX
                    + json.dumps(header, sort_keys=True) + "\n" + rest)
    assert load_frames(path).spec == coherent()


@pytest.mark.parametrize("entry", [{"n": 1.5}, {"m": True}])
def test_load_frames_refuses_loose_occupations(tmp_path, entry):
    # a header's n and m are whole JSON numbers, checked as a config
    # file's are: a fraction or a boolean is not read as 1
    frames = generate_frames(fermi_fock(), 4, seed=8)
    path = tmp_path / "frames.csv"
    save_frames(frames, path)
    first, rest = path.read_text().split("\n", 1)
    header = json.loads(first[len(sampler._HEADER_PREFIX):])
    header["state"].update(entry)
    path.write_text(sampler._HEADER_PREFIX
                    + json.dumps(header, sort_keys=True) + "\n" + rest)
    with pytest.raises(SpecError, match="must be a number"):
        load_frames(path)


def test_load_frames_rejects_comment_lines_in_body(tmp_path):
    # only line 1 of a frames file is a comment; the body is parsed with
    # no comment character, so a '#' row is a malformed row
    frames = generate_frames(fermi_fock(), 4, seed=8)
    path = tmp_path / "frames.csv"
    save_frames(frames, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:3] + ["# note\n"] + lines[3:]))
    with pytest.raises(ValueError):
        load_frames(path)


def _frames_file(tmp_path, body, count):
    """A frames file of the given header count and body text, written
    byte for byte (no newline translation)."""
    frames = generate_frames(fermi_fock(), 1, seed=8)
    path = tmp_path / "frames.csv"
    save_frames(frames, path)
    first = path.read_text().split("\n", 1)[0]
    header = json.loads(first[len(sampler._HEADER_PREFIX):])
    header["count"] = count
    path.write_text(sampler._HEADER_PREFIX + json.dumps(header)
                    + "\nframe_index,x1,y1,x2,y2\n" + body, newline="")
    return path


def _loadtxt_points(path):
    """The frames' points as np.loadtxt parsed the body before parse_block
    replaced it."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        fh.readline()
        body = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    return body[:, 1:].reshape(-1, 2, 2)


_ROWS = ["0,0.5,-1.25,2,3.0000000000000004",
         "1,-0.0012345678901234567,5e-324,1e+300,-7",
         "2,0.1,0.2,0.30000000000000004,-0"]
# bodies the parse with np.loadtxt accepted, each one departure from the
# plain rows
_ACCEPTED = {
    "crlf": "\r\n".join(_ROWS) + "\r\n",
    "comma-space": "\n".join(r.replace(",", ", ") for r in _ROWS) + "\n",
    "blank-trailing-line": "\n".join(_ROWS) + "\n\n",
    "blank-middle-line": "\n\n".join(_ROWS) + "\n",
    "exponents": "\n".join(_ROWS).replace("0.5", "1.5e-3").replace(
        "-7", "2E+1") + "\n",
    "nan-inf": "\n".join(_ROWS).replace("0.5", "nan").replace(
        "-1.25", "inf").replace("-7", "-inf") + "\n",
    "plus-sign": "\n".join(_ROWS).replace("0.5", "+1.5") + "\n",
    "no-final-newline": "\n".join(_ROWS),
    "long-cell": "\n".join(_ROWS).replace(
        "0.5", "0.50000000000000011102230246251565404") + "\n",
}
_REJECTED = {
    "extra-column": "\n".join(r + ",1" for r in _ROWS) + "\n",
    "word": "\n".join(_ROWS).replace("-7", "abc") + "\n",
    "empty-cell": "\n".join(_ROWS).replace("-7", "") + "\n",
}


@pytest.mark.parametrize("name", sorted(_ACCEPTED))
def test_load_frames_reads_what_loadtxt_read(tmp_path, name):
    path = _frames_file(tmp_path, _ACCEPTED[name], 3)
    want = _loadtxt_points(path)
    got = load_frames(path).points
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_load_frames_rejects_what_loadtxt_rejected(tmp_path, name):
    path = _frames_file(tmp_path, _REJECTED[name], 3)
    with pytest.raises(ValueError):
        load_frames(path)


def test_load_frames_streams_blocks(tmp_path, monkeypatch):
    # blocks of 100 bytes end inside rows and meet blank lines
    monkeypatch.setattr(sampler, "_READ_BYTES", 100)
    frames = generate_frames(fermi_fock(), 60, seed=8)
    path = tmp_path / "frames.csv"
    save_frames(frames, path)
    head, body = path.read_text().split("frame_index,x1,y1,x2,y2\n")
    lines = body.split("\n")
    body = "\n".join(lines[:20] + [""] * 3 + lines[20:])
    path.write_text(head + "frame_index,x1,y1,x2,y2\n" + body)
    np.testing.assert_array_equal(load_frames(path).points, frames.points)
    for count in (59, 61):
        bad = _frames_file(tmp_path, body, count)
        with pytest.raises(ValueError, match="frame"):
            load_frames(bad)


@pytest.mark.parametrize("change", ["wrong-index", "swapped-rows"])
def test_load_frames_checks_the_frame_index(tmp_path, change):
    frames = generate_frames(fermi_fock(), 3, seed=8)
    path = tmp_path / "frames.csv"
    save_frames(frames, path)
    lines = path.read_text().splitlines(keepends=True)
    if change == "wrong-index":
        lines[2] = "7" + lines[2][1:]
    else:
        lines[3], lines[4] = lines[4], lines[3]
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="frame_index"):
        load_frames(path)


@pytest.mark.parametrize("count", [10 ** 12, 2.5, "x", -1, None, True,
                                   False])
def test_load_frames_checks_count_before_allocation(tmp_path, count):
    path = _frames_file(tmp_path, "\n".join(_ROWS) + "\n", count)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="frame count"):
            load_frames(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _with_header(tmp_path, change):
    """A two-frame file whose header object went through `change`."""
    save_frames(generate_frames(fermi_fock(), 2, seed=8),
                tmp_path / "frames.csv")
    first, rest = (tmp_path / "frames.csv").read_text().split("\n", 1)
    header = change(json.loads(first[len(sampler._HEADER_PREFIX):]))
    (tmp_path / "frames.csv").write_text(
        sampler._HEADER_PREFIX + json.dumps(header) + "\n" + rest)
    return tmp_path / "frames.csv"


_BAD_HEADERS = {
    "list": lambda h: [h], "null": lambda h: None, "number": lambda h: 5,
    **{f"no-{key}": lambda h, key=key: {k: v for k, v in h.items()
                                        if k != key}
       for key in sorted(sampler._HEADER_KEYS)},
    **{f"seed-{json.dumps(seed)}": lambda h, seed=seed: {**h, "seed": seed}
       for seed in (-5, "7", 7.9, 2 ** 64, 2 ** 70, True, None)},
    **{f"rate-{json.dumps(rate)}":
       lambda h, rate=rate: {**h, "acceptance_rate": rate}
       for rate in (None, "0.5", True, [0.5])},
    "state-5": lambda h: {**h, "state": 5},
    "method-3": lambda h: {**h, "method": 3},
    "generator-[1]": lambda h: {**h, "generator": [1]},
}


@pytest.mark.parametrize("name", sorted(_BAD_HEADERS))
def test_load_frames_checks_its_header(tmp_path, name):
    # FORMATS.md: a header that is not an object with every key, a seed
    # outside the integers in [0, 2**64), a rate that is not a number, a
    # method other than ring or cartesian, a generator that is not a
    # string or a state that is no state description raises ValueError
    with pytest.raises(ValueError, match="header|seed|acceptance_rate|"
                                         "method|generator|state description"):
        load_frames(_with_header(tmp_path, _BAD_HEADERS[name]))


def test_load_frames_checks_the_state_before_the_body(tmp_path):
    # the whole header is checked before the body is read: a bad state in
    # front of an out-of-sequence body is the error raised
    path = _with_header(tmp_path, lambda h: {**h, "state": 5})
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = "7" + lines[2][1:]
    path.write_text("".join(lines))
    with pytest.raises(SpecError, match="state description"):
        load_frames(path)


def test_load_frames_reads_older_cartesian_files(tmp_path):
    path = _with_header(tmp_path, lambda h: {**h, "method": "cartesian"})
    assert load_frames(path).method == "cartesian"


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_load_frames_reads_seeds_at_both_ends(tmp_path, seed):
    path = _with_header(tmp_path, lambda h: {**h, "seed": seed})
    assert load_frames(path).seed == seed


def test_save_zero_frames(tmp_path):
    frames = generate_frames(fermi_fock(), 0, seed=1)
    path = tmp_path / "empty.csv"
    save_frames(frames, path)
    back = load_frames(path)
    assert back.count == 0


def _row_by_row_save(frames, path, provenance=None):
    """The frame writer as it was before block streaming: one %-format per
    row, joined into one string."""
    header = {
        "format": "vortexcorr.frames",
        "version": sampler.VERSION,
        "generator": sampler.GENERATOR_VERSION,
        "state": sampler.spec_to_dict(frames.spec),
        "seed": frames.seed,
        "count": frames.count,
        "method": frames.method,
        "acceptance_rate": frames.acceptance_rate,
    }
    if provenance:
        header["provenance"] = provenance
    lines = ["#vortexcorr-frames " + json.dumps(header, sort_keys=True,
                                               separators=(",", ":"))]
    lines.append("frame_index,x1,y1,x2,y2")
    for i in range(frames.count):
        p = frames.points[i]
        lines.append("%d,%.17g,%.17g,%.17g,%.17g"
                     % (i, p[0, 0], p[0, 1], p[1, 0], p[1, 1]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# 65537 frames span two `sampler._WRITE_SLICE` slices of write_rows
# calls, the second of them a partial row block
@pytest.mark.parametrize("count", [0, 1, 65537])
def test_save_frames_matches_row_by_row_writer(tmp_path, count):
    block = io._CELLS // 5
    assert count <= 1 or (count > sampler._WRITE_SLICE
                          and count % sampler._WRITE_SLICE < block)
    frames = generate_frames(fermi_fock(), count, seed=29)
    want = tmp_path / "reference.csv"
    _row_by_row_save(frames, want, provenance={"note": "blocks"})
    got = tmp_path / "blocks.csv"
    save_frames(frames, got, provenance={"note": "blocks"})
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_frames_at_write_and_read_block_edges(tmp_path, monkeypatch,
                                              offset):
    # one write block, and one slice of write_rows calls, of rows less one
    # row, one block or slice and one row more; read blocks that end one
    # byte before, at and after a row end and the end of the body load
    # every point bit for bit
    block = io._CELLS // 5  # rows of one write block of 5 columns
    assert sampler._WRITE_SLICE % block == 0
    for rows in (block, sampler._WRITE_SLICE):
        frames = generate_frames(fermi_fock(), rows + offset, seed=31)
        want = tmp_path / "reference.csv"
        _row_by_row_save(frames, want)
        path = tmp_path / "blocks.csv"
        save_frames(frames, path)
        assert path.read_bytes() == want.read_bytes()
        body = path.read_bytes().split(b"frame_index,x1,y1,x2,y2\n")[1]
        row_end = body.index(b"\n", len(body) // 2) + 1
        for size in (sampler._READ_BYTES, row_end - 1, row_end, row_end + 1,
                     len(body) - 1, len(body), len(body) + 1):
            monkeypatch.setattr(sampler, "_READ_BYTES", size)
            points = load_frames(path).points
            assert np.array_equal(points.view(np.uint64),
                                  frames.points.view(np.uint64)), size


def test_chi2_sf_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    x = np.linspace(0.0, 400.0, 401)
    for dof in range(1, 81):
        got = [sampler._chi2_sf(float(v), dof) for v in x]
        np.testing.assert_allclose(got, stats.chi2.sf(x, dof), rtol=1e-12,
                                   atol=0.0, err_msg=f"dof {dof}")


def test_empty_frames_guards():
    frames = generate_frames(fermi_fock(), 0, seed=1)
    with pytest.raises(EmptyFramesError):
        pair_separations(frames)
    with pytest.raises(EmptyFramesError):
        pair_angles(frames)


def test_pair_angles_folded():
    frames = generate_frames(fermi_fock(), 3000, seed=19)
    ang = pair_angles(frames)
    assert np.all((0.0 <= ang) & (ang < math.pi))


def test_bosons_farther_apart_than_fermions_in_seven_of_sixteen():
    # independent pairs: P(d_B > d_F) = 1/2 - (w_B - w_F)/16 = 7/16
    n = 100_000
    fermi = pair_separations(generate_frames(fermi_fock(), n, seed=41))
    bose = pair_separations(generate_frames(bose_fock(1, 1), n, seed=42))
    share = np.mean(bose > fermi)
    p = 7.0 / 16.0
    assert abs(share - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize("spec", [fermi_fock(), bose_fock(1, 1), coherent(),
                                  thermal()], ids=lambda s: s.kind)
def test_mean_cos_twice_relative_angle_is_the_bosonic_weight(spec):
    # the folded law (1 + (2w - 1) cos 2 delta)/pi has E[cos 2 delta] =
    # (2w - 1)/2
    n = 100_000
    cos2 = np.cos(2.0 * pair_angles(generate_frames(spec, n, seed=43)))
    want = (2.0 * bosonic_weight(build_state(spec)) - 1.0) / 2.0
    assert abs(cos2.mean() - want) < 4.0 * cos2.std(ddof=1) / math.sqrt(n)
