"""Frame sampler: counter RNG, inverse CDF, determinism, estimators."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from vortexcorr import sampler
from vortexcorr.errors import (EmptyFramesError, NoPairsError,
                               SamplerMethodError)
from vortexcorr.sampler import (FrameStream, chi_square_gof, counter_uniforms,
                                empirical_pair_stats, empirical_profile,
                                generate_frames, invert_radial_cdf,
                                load_frames, pair_angles, pair_separations,
                                radial_cdf, sample_pair, save_frames)
from vortexcorr.pairstats import (PairDistribution, PairVariable,
                                  closed_form_angle, closed_form_distance)
from vortexcorr.states import bose_fock, coherent, fermi_fock, noon

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


def test_radial_cdf_closed_form():
    r = np.array([0.0, 0.7, 1.3, 3.0])
    want = 1.0 - (1.0 + r * r) * np.exp(-r * r)
    np.testing.assert_allclose(radial_cdf(r), want, atol=1e-15)


def test_invert_radial_cdf_against_brentq():
    cap = 1.0 - 37.0 * math.exp(-36.0)  # cdf at the r = 6 support edge
    for u in (0.001, 0.2, 0.5, 0.9, 0.999, 0.9999999):
        got = float(invert_radial_cdf(np.array([u]))[0])
        want = brentq(lambda r: 1.0 - (1.0 + r * r) * math.exp(-r * r)
                      - u * cap, 0.0, 6.0, xtol=1e-14)
        # inversion error is limited by the conditioning 1/F'(r), which
        # blows up in the far tail where the density is ~ 1e-7
        slack = 1e-12 + 1e-15 / (2.0 * want ** 3 * math.exp(-want * want))
        assert abs(got - want) < slack
    # endpoints stay inside the support
    ends = invert_radial_cdf(np.array([0.0, 1.0 - 1e-16]))
    assert ends[0] < 1e-12 and ends[1] <= 6.0


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


def test_generate_frames_start_offset_shards():
    whole = generate_frames(fermi_fock(), 50, seed=21)
    head = generate_frames(fermi_fock(), 30, seed=21)
    tail = generate_frames(fermi_fock(), 20, seed=21, start=30)
    np.testing.assert_array_equal(np.concatenate([head.points, tail.points]),
                                  whole.points)
    merged = 50 / (head.meta["proposals"] + tail.meta["proposals"])
    assert merged == whole.acceptance_rate


def test_sample_pair_matches_stream():
    stream = FrameStream(seed=9)
    first = sample_pair(fermi_fock(), stream)
    second = sample_pair(fermi_fock(), stream)
    assert stream.next_frame == 2
    batch = generate_frames(fermi_fock(), 2, seed=9)
    np.testing.assert_allclose(
        [[first[0].x, first[0].y], [first[1].x, first[1].y]],
        batch.points[0], atol=0)
    assert second[0].x == batch.points[1, 0, 0]


def test_acceptance_rate_healthy():
    for spec in (fermi_fock(), bose_fock(1, 1), coherent(), noon()):
        frames = generate_frames(spec, 4000, seed=2)
        assert frames.method == "ring"
        assert frames.acceptance_rate >= 0.25, spec.kind


def test_unknown_method_rejected():
    with pytest.raises(SamplerMethodError):
        generate_frames(fermi_fock(), 10, seed=1, method="teleport")


def test_no_pairs_guard():
    with pytest.raises(NoPairsError):
        generate_frames(coherent(alpha_a=0.0, alpha_b=0.0), 5, seed=1)


def test_cartesian_matches_ring_statistically():
    ring = generate_frames(fermi_fock(), 30000, seed=6, method="ring")
    cart = generate_frames(fermi_fock(), 30000, seed=6, method="cartesian")
    assert cart.method == "cartesian"
    ref = PairDistribution(
        PairVariable.DISTANCE, np.linspace(0, 8, 401),
        closed_form_distance("fermi-fock", np.linspace(0, 8, 401)),
        closure=lambda d: closed_form_distance("fermi-fock", d))
    for frames in (ring, cart):
        gof = chi_square_gof(pair_separations(frames), ref, bins=30)
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


def test_empirical_profile_recovers_donut():
    frames = generate_frames(fermi_fock(), 60000, seed=8)
    field = empirical_profile(frames, bins=41)  # odd: one bin brackets 0
    step = field.x[1] - field.x[0]
    assert abs(field.total - 1.0) < 1e-6
    xx, yy = np.meshgrid(field.x, field.y, indexing="ij")
    rr2 = xx ** 2 + yy ** 2
    want = rr2 * np.exp(-rr2) / math.pi  # rho1 / <N>
    l1 = np.sum(np.abs(field.values - want)) * step * step
    assert l1 < 0.05
    # dark core: the origin bin sits far below the ring peak
    mid = len(field.x) // 2
    assert abs(field.x[mid]) < 1e-12
    assert field.values[mid, mid] < 0.08 * np.max(field.values)


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
    good = chi_square_gof(rng.random(50000), uniform, bins=20, lo=0.0, hi=1.0)
    assert good.pvalue > 1e-3
    assert good.dof == good.bins - 1
    biased = chi_square_gof(rng.random(50000) ** 1.15, uniform, bins=20,
                            lo=0.0, hi=1.0)
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


@pytest.mark.parametrize("count", [0, 1, sampler._WRITE_ROWS + 1])
def test_save_frames_matches_row_by_row_writer(tmp_path, count):
    frames = generate_frames(fermi_fock(), count, seed=29)
    want = tmp_path / "reference.csv"
    _row_by_row_save(frames, want, provenance={"note": "blocks"})
    for workers in (1, 3):
        got = tmp_path / f"workers{workers}.csv"
        save_frames(frames, got, provenance={"note": "blocks"},
                    workers=workers)
        assert got.read_bytes() == want.read_bytes(), workers


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
        empirical_profile(frames)
    with pytest.raises(EmptyFramesError):
        pair_separations(frames)
    with pytest.raises(EmptyFramesError):
        pair_angles(frames)


def test_pair_angles_folded():
    frames = generate_frames(fermi_fock(), 3000, seed=19)
    ang = pair_angles(frames)
    assert np.all((0.0 <= ang) & (ang < math.pi))
