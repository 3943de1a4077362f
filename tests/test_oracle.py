"""Tests for the independent cross-check layer.

The oracle recomputes pair densities along routes that never touch the
operator engine (explicit two-particle wavefunctions, geometric mixtures,
amplitude factorization, Wick moments) and grades the printed closed
forms.  These tests pin the route agreement and the verdict table.
"""

import ast
import dataclasses
from dataclasses import replace
import hashlib
import json
import math
import tracemalloc
import types

import numpy as np
import pytest

from quadrature import gauss_legendre
from vortexcorr import density, fock, oracle
from vortexcorr.errors import UnsupportedStateError
from vortexcorr.modes import DIPOLE_PAIR, VORTEX_PAIR, mode_eval
from vortexcorr.oracle import (
    EXTENT,
    all_engine_checks_confirmed,
    cross_validate,
    oracle_folded_angle_law,
    oracle_two_angle_law,
    pair_grid_sweep,
    printed_family,
    wavefunction_norm,
)
from vortexcorr.states import (
    StateSpec,
    bose_fock,
    build_state,
    coherent,
    cothermal,
    fermi_fock,
    noon,
    thermal,
)

RES = 21  # plane resolution for the rho2 sweeps; keeps the suite fast


@pytest.fixture(scope="module")
def fermi_rows():
    return cross_validate("fermi-fock", resolution=RES)


@pytest.fixture(scope="module")
def bose_rows():
    return cross_validate("bose-fock", resolution=RES)


@pytest.fixture(scope="module")
def noon_rows():
    return cross_validate("noon", resolution=RES)


def _row(rows, claim_id):
    hits = [r for r in rows if r.claim_id == claim_id]
    assert len(hits) == 1, f"expected exactly one {claim_id!r} row"
    return hits[0]


def test_two_particle_wavefunctions_normalized():
    # the polar rule is exact, so the norm defect measures the
    # wavefunction itself, up to rounding
    for spec in (fermi_fock(), bose_fock(1, 1), bose_fock(2, 0), noon()):
        assert abs(wavefunction_norm(spec) - 1.0) < 1e-14


def test_oracle_routes_match_engine():
    cases = [
        (fermi_fock(), 1e-12, 2.0),
        (bose_fock(1, 1), 1e-12, 2.0),
        (bose_fock(2, 0), 1e-12, 2.0),
        (noon(), 1e-12, 2.0),
        (coherent(), 1e-12, 4.0),
        (thermal(1.0, 1.0), 1e-12, 6.0),
        (cothermal(), 1e-12, 5.5),
    ]
    for spec, tol, pairs in cases:
        sweep = pair_grid_sweep(spec, resolution=RES)
        assert sweep["dev_oracle"] < tol
        # only a family with a printed pair density has it graded
        assert (sweep["dev_verbatim"] is None) == (
            spec.kind not in oracle._PAIR_FORMS)
        # box Riemann mass of rho2 recovers <N(N-1)>
        assert abs(sweep["mass_engine"] - pairs) < 5e-9
        assert abs(sweep["mass_oracle"] - pairs) < 5e-9


def _blocked_sweep(monkeypatch, spec, resolution, size):
    monkeypatch.setattr(oracle, "_BLOCK_POINTS", size)
    return pair_grid_sweep(spec, resolution=resolution)


# block sizes (the edges between blocks fall every `edge` points), each
# checked against one block for the whole grid: one point per block, a
# size that divides the 49 points, one that leaves a ragged last block;
# at resolution 31 blocks of 100 points leave a last block of 61
@pytest.mark.parametrize("resolution, edges", [(7, (1, 7, 10)), (31, (100,))])
@pytest.mark.parametrize("spec", [fermi_fock(), thermal(1.0, 1.0)],
                         ids=lambda s: s.kind)
def test_sweep_is_independent_of_the_tiling(monkeypatch, spec, resolution,
                                            edges):
    whole = _blocked_sweep(monkeypatch, spec, resolution, resolution ** 2)
    verdicts = [r.verdict for r in cross_validate(spec, resolution)]
    for edge in edges:
        sweep = _blocked_sweep(monkeypatch, spec, resolution, edge)
        assert [r.verdict for r in cross_validate(spec, resolution)] \
            == verdicts
        # the bound on the gap is rounding whatever the blocks: |rho2| is
        # at most 0.11 on the grid, and each fold of a block rounds R to
        # a few eps of the column norms
        assert max(sweep["dev_oracle"], whole["dev_oracle"]) <= 1e-14
        assert sweep["dev_verbatim"] == pytest.approx(
            whole["dev_verbatim"], rel=1e-12, abs=1e-14)
        # each factor sum adds its n points in another grouping
        for key in ("mass_engine", "mass_oracle"):
            assert sweep[key] == pytest.approx(
                whole[key], rel=resolution ** 2 * np.finfo(float).eps,
                abs=0.0)


@pytest.mark.parametrize("resolution", [61, 91, 200])
def test_sweep_memory_is_bounded_by_the_block(resolution):
    # a block of points' factor columns and the running R factors stay
    # under 3 MB at any resolution, also for the widest factor lists
    # (thermal with its printed form, cothermal)
    for spec in (fermi_fock(), thermal(1.0, 1.0), cothermal()):
        tracemalloc.start()
        try:
            pair_grid_sweep(spec, resolution=resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20, spec.kind


def _folded_blocks(monkeypatch, spec, resolution, size):
    """(x, y, first, second) of every block the sweep folds: its points
    and both particles' factor columns, one row per point."""
    folded = []
    original = oracle._fold

    def recording(r, rows):
        folded.append(rows.copy())
        return original(r, rows)

    monkeypatch.setattr(oracle, "_fold", recording)
    monkeypatch.setattr(oracle, "_BLOCK_POINTS", size)
    pair_grid_sweep(spec, resolution=resolution)
    px, py, _ = oracle._plane_points(resolution)
    starts = range(0, px.size, size)
    assert len(folded) == len(starts)
    return [(px[i:i + size], py[i:i + size]) + tuple(np.hsplit(rows, 2))
            for i, rows in zip(starts, folded)]


# every oracle route in both bases: first-quantized, permanent expansion
# (fermi(1, 0) with all weights 0), geometric mixture, factorization, Wick
ROUTE_CASES = [replace(spec, basis=basis)
               for spec in (fermi_fock(), noon(), bose_fock(2, 0),
                            bose_fock(2, 1), StateSpec("fermi-fock", n=1, m=0),
                            thermal(), coherent(), cothermal())
               for basis in ("vortex", "dipole")]


def _case_id(spec):
    return f"{spec.kind}-{spec.n}{spec.m}-{spec.basis}"


@pytest.mark.parametrize("spec", ROUTE_CASES, ids=_case_id)
def test_sweep_contracts_the_public_routes_bit_for_bit(monkeypatch, spec):
    # the factor columns the sweep folds, contracted over every pair of
    # blocks as the public functions contract them, are the engine's
    # rho2 (columns -M^T h and h), reference_rho2 and printed_rho2 on
    # those pairs
    state = build_state(spec)
    routes = [(oracle.reference_rho2, oracle.oracle_route(spec)[1].factors)]
    if oracle._pairing_applies(spec):
        routes.append((oracle.printed_rho2, oracle.printed_rho2.factors))
    x, y = oracle._plane_points(9)[:2]
    ends = np.cumsum([3] + [len(factors(spec, x, y, True))
                            for _, factors in routes])
    blocks = _folded_blocks(monkeypatch, spec, 9, 32)
    for x1, y1, first, _ in blocks:
        for x2, y2, _, second in blocks:
            pairs = (x1[:, None], y1[:, None], x2[None, :], y2[None, :])

            def contract(lo, hi):
                # stacked contiguously, as the routes' factor lists are
                one, two = (np.ascontiguousarray(side.T[lo:hi])
                            for side in (first, second))
                return oracle._pair_sum(one[:, :, None], two[:, None, :])

            assert np.array_equal(-contract(0, 3),
                                  density.rho2(state, *pairs))
            for k, (route, _) in enumerate(routes):
                assert np.array_equal(contract(ends[k], ends[k + 1]),
                                      route(spec, *pairs)), route


def _scale_engine_matrix(monkeypatch, factor):
    """An engine whose M is `factor` M, seen by density.rho2_factors and so
    by both the sweep's factor columns and the public rho2."""
    original = fock.harmonics

    def scaled(state):
        m, matrix = original(state)
        return m, factor * matrix

    monkeypatch.setattr(density, "harmonics", scaled)


def _dense_pairs(resolution):
    px, py, _ = oracle._plane_points(resolution)
    return px[:, None], py[:, None], px[None, :], py[None, :]


@pytest.mark.parametrize("spec", ROUTE_CASES, ids=_case_id)
def test_sweep_bounds_are_the_norms_of_the_dense_gap(monkeypatch, spec):
    # under an engine off by M x 1.001 the gap G is far above rounding:
    # the gating deviation is ||G||_2 of the dense resolution^4 gap of the
    # public functions, which bounds its sup, and the printed form's is
    # ||G||_F / ||rho2||_F
    _scale_engine_matrix(monkeypatch, 1.001)
    pairs = _dense_pairs(9)
    engine = density.rho2(build_state(spec), *pairs)
    sweep = pair_grid_sweep(spec, resolution=9)
    gap = oracle.reference_rho2(spec, *pairs) - engine
    assert sweep["dev_oracle"] == pytest.approx(np.linalg.norm(gap, 2),
                                                rel=1e-12, abs=1e-300)
    assert sweep["dev_oracle"] >= np.max(np.abs(gap))
    if oracle._pairing_applies(spec):
        printed = oracle.printed_rho2(spec, *pairs) - engine
        scale = np.linalg.norm(engine) or 1.0
        assert sweep["dev_verbatim"] == pytest.approx(
            np.linalg.norm(printed) / scale, rel=1e-12, abs=1e-15)


def test_printed_pairing_gap_of_fermions_is_sqrt_two_thirds():
    # |a1 a2 - b1 b2|^2 against 2|Psi|^2 of one fermion per mode: the
    # relative Frobenius gap is sqrt(2/3), which the Riemann sums of these
    # Gaussian integrands reach to rounding at the default resolution (at
    # 31 they are 1e-10 off)
    sweep = pair_grid_sweep(fermi_fock())
    assert sweep["dev_verbatim"] == pytest.approx(math.sqrt(2.0 / 3.0),
                                                  rel=1e-12)


def _one_nan_point(resolution):
    """A function that puts NaN into the columns of the middle grid
    point of (x, y) factors shaped (k, points)."""
    px, py, _ = oracle._plane_points(resolution)
    mid = px.size // 2

    def poison(factors, x, y):
        at = (np.asarray(x) == px[mid]) & (np.asarray(y) == py[mid])
        factors = np.array(factors, dtype=float)
        factors[:, at] = math.nan
        return factors
    return poison


def _nan_rows():
    """fermi's rows at resolution 31, whose gating rho2 row must be NaN."""
    rows = cross_validate(fermi_fock(), resolution=31)
    row = _row(rows, "rho2-engine-vs-oracle")
    assert math.isnan(row.max_abs_deviation)
    assert row.verdict != "Confirmed"
    assert not all_engine_checks_confirmed(rows)
    return rows


def test_a_nan_engine_pair_fails_the_gating_row(monkeypatch):
    # one grid point's shell harmonics NaN: its pairs are NaN in the
    # folded engine columns and in the public rho2 (max(dev, nan) is dev,
    # so a running Python max would drop it)
    poison, original = _one_nan_point(31), density.shell_harmonics
    monkeypatch.setattr(density, "shell_harmonics",
                        lambda x, y: poison(original(x, y), x, y))
    rows = _nan_rows()
    assert math.isnan(_row(rows, "rho2-printed-pairing").max_abs_deviation)


def test_a_nan_route_factor_fails_the_gating_row(monkeypatch):
    # one grid point's route factor NaN where only the sweep's factor
    # columns see it (the public reference_rho2 keeps its own factors):
    # the fold is skipped and the deviation is NaN, no LinAlgError
    poison = _one_nan_point(31)
    route = oracle.first_quantized_rho2
    original = route.factors
    monkeypatch.setattr(route, "factors", lambda spec, x, y, first:
                        poison(original(spec, x, y, first), x, y))
    _nan_rows()


def _narrow_shell_harmonics(x, y):
    """The engine's h with a Gaussian width of 0.99 instead of 1."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    r2 = x * x + y * y
    gauss = np.exp(-r2 / 0.99 ** 2) / math.pi
    return np.stack([r2 * gauss, (x - y) * (x + y) * gauss,
                     2.0 * x * y * gauss])


def _rho2_of_the_first_point(state, x1, y1, x2, y2):
    """The engine's rho2 with h(x1) for both particles."""
    return density.rho2(state, x1, y1, x1, y1)


_ENGINE_MUTANTS = {
    "matrix-1.001": lambda mp: _scale_engine_matrix(mp, 1.001),
    "width-0.99": lambda mp: mp.setattr(density, "shell_harmonics",
                                        _narrow_shell_harmonics),
    "rho2-first-point-twice": lambda mp: mp.setattr(
        oracle, "rho2", _rho2_of_the_first_point),
}


@pytest.mark.parametrize("mutant", sorted(_ENGINE_MUTANTS))
def test_gating_row_sees_an_engine_mutant(monkeypatch, mutant):
    # also on the density's own scale, at high occupation
    _ENGINE_MUTANTS[mutant](monkeypatch)
    for spec in SHIPPED + (thermal(1e6, 1e6),):
        row = _row(cross_validate(spec, 15), "rho2-engine-vs-oracle")
        assert row.verdict != "Confirmed", spec.kind


def test_a_nan_keeps_the_engine_surface_rows_unconfirmed(monkeypatch):
    # the polar surfaces and the rho1 family grids take their maxima
    # with NaN kept as well
    rho1, rho2 = oracle.rho1, oracle.rho2
    calls = []

    def nan_once(original):
        def evaluate(state, *args):
            values = np.array(original(state, *args))
            calls.append(None)
            if len(calls) == 3:
                values.flat[3] = math.nan
            return values
        return evaluate

    monkeypatch.setattr(oracle, "rho2", nan_once(rho2))
    assert math.isnan(oracle.polar_separability_deviation(
        build_state(fermi_fock())))
    calls.clear()
    monkeypatch.setattr(oracle, "rho1", nan_once(rho1))
    rows = oracle._rows(None, 15)
    row = _row(rows, "one-body-family-identity")
    assert math.isnan(row.max_abs_deviation)
    assert not all_engine_checks_confirmed(rows)


def test_fermi_verdicts(fermi_rows):
    assert _row(fermi_rows, "rho2-engine-vs-oracle").gating
    assert _row(fermi_rows, "rho2-engine-vs-oracle").verdict == "Confirmed"
    assert _row(fermi_rows, "angle-engine-vs-oracle").gating
    assert _row(fermi_rows, "angle-engine-vs-oracle").verdict == "Confirmed"
    # printed fermionic distance law is the correct one
    assert _row(fermi_rows, "distance-printed-form").verdict == "Confirmed"
    assert _row(fermi_rows, "distance-printed-mean").verdict == "Confirmed"
    assert _row(fermi_rows, "distance-maxima").verdict == "Confirmed"
    # the sin^2/cos^2 angle labels are swapped in the printed statement
    swap = _row(fermi_rows, "angle-printed-labels")
    assert swap.verdict == "Typo-suspected"
    assert not swap.gating
    assert _row(fermi_rows, "variance-convention").verdict == \
        "Convention-dependent"
    assert _row(fermi_rows, "diameter-common-value").verdict == \
        "Typo-suspected"
    assert _row(fermi_rows, "polar-separability").verdict == "Confirmed"


def test_bose_verdicts(bose_rows):
    assert _row(bose_rows, "rho2-engine-vs-oracle").verdict == "Confirmed"
    # printed bosonic distance law is missing the leading factor of d
    assert _row(bose_rows, "distance-printed-form").verdict == \
        "Typo-suspected"
    assert _row(bose_rows, "distance-printed-mean").verdict == "Confirmed"
    assert _row(bose_rows, "distance-maxima").verdict == "Confirmed"
    assert _row(bose_rows, "rho2-printed-pairing").verdict == \
        "Typo-suspected"
    assert _row(bose_rows, "angle-printed-labels").verdict == \
        "Typo-suspected"


def test_noon_verdicts(noon_rows):
    assert _row(noon_rows, "two-angle-engine-vs-oracle").gating
    assert _row(noon_rows, "two-angle-engine-vs-oracle").verdict == \
        "Confirmed"
    assert _row(noon_rows, "two-angle-printed-form").verdict == "Confirmed"
    assert _row(noon_rows, "noon-distance-equals-coherent").verdict == \
        "Confirmed"
    # the superposition state really does peak the diameter density at
    # the quoted common value
    assert _row(noon_rows, "diameter-common-value").verdict == "Confirmed"


def test_angle_laws_agree_to_rounding(fermi_rows, bose_rows, noon_rows):
    # both sides are exact quadratures of the same trigonometric law, so
    # what is left is floating-point summation
    assert _row(fermi_rows, "angle-engine-vs-oracle").max_abs_deviation \
        <= 1e-14
    assert _row(bose_rows, "angle-engine-vs-oracle").max_abs_deviation \
        <= 1e-14
    assert _row(noon_rows, "two-angle-engine-vs-oracle").max_abs_deviation \
        <= 1e-15


def test_oracle_fermi_angle_law_at_right_angle():
    # the quadrature is exact for the law (2/pi) sin^2; a short grid keeps
    # the test quick
    grid, folded = oracle_folded_angle_law(fermi_fock(), n_points=9)
    mid = grid.size // 2
    assert grid[mid] == math.pi / 2
    assert abs(folded[mid] - 2.0 / math.pi) <= 1e-15


# what oracle.py takes from the rest of the package, name by name: the
# mode pairs' unit vectors, state descriptors and the engine
# objects under test. A new engine name here could let an oracle route
# lean on the engine it is meant to check; the oracle evaluates the modes
# itself, so it shares no evaluation code with the engine. The sweep
# reaches the engine's factors through the modules density and fock, so
# that it sees them as patched or traced at call time.
_ORACLE_IMPORTS = {
    ".": {"density"},
    ".density": {"rho1", "rho2"},
    ".errors": {"UnsupportedStateError"},
    ".modes": {"DIPOLE_PAIR", "VORTEX_PAIR"},
    ".pairstats": {"angle_distribution", "distance_distribution",
                   "summarize", "two_angle_distribution"},
    ".states": {"StateSpec", "bose_fock", "build_state", "canonical",
                "cothermal", "coherent", "fermi_fock", "noon", "thermal"},
}


def _called_names(tree):
    """The names called in `tree`: bare, or as attributes of the engine
    modules (density.rho2_factors calls rho2_factors)."""
    calls = [node.func for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    return ({func.id for func in calls if isinstance(func, ast.Name)}
            | {func.attr for func in calls
               if isinstance(func, ast.Attribute)
               and isinstance(func.value, ast.Name)
               and func.value.id in _ORACLE_IMPORTS["."]})


def _reachable(funcs, start):
    """Module functions called from `start`, directly or through others,
    and those it holds as values (a route table) and what they reach."""
    seen, todo = set(), [start]
    while todo:
        tree = funcs[todo.pop()]
        held = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id in funcs}
        for name in (_called_names(tree) | held) - seen:
            seen.add(name)
            if name in funcs:
                todo.append(name)
    return seen


def test_oracle_stays_independent_of_engine():
    with open(oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            key = "." * node.level + (node.module or "")
            imported.setdefault(key, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            assert all(a.name in ("math", "numpy") for a in node.names)
    assert imported == _ORACLE_IMPORTS
    funcs = {node.name: node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)}
    # the |Psi|^2 quadratures contract one-particle Gram matrices with the
    # coefficients of the explicit two-particle wavefunction: the Gram
    # helper evaluates the modes at every quadrature node, and the
    # coefficients come from _two_particle_psi itself
    assert "_eval_pair" in _called_names(funcs["_gram"])
    engine = {"rho1", "rho2", "build_state", "angle_distribution",
              "distance_distribution", "two_angle_distribution", "summarize",
              "rho2_factors", "shell_harmonics", "harmonics"}
    # the sweep is where the engine's factors enter, as the object under
    # test
    assert {"rho2_factors", "rho2"} <= _reachable(funcs, "pair_grid_sweep")
    for law in ("oracle_folded_angle_law", "oracle_two_angle_law",
                "wavefunction_norm", "first_quantized_rho2"):
        callees = _reachable(funcs, law)
        assert {"_gram", "_two_particle_psi"} <= callees, law
        assert not callees & engine, law
    # the pair-density routes of the grid sweep contract per-particle
    # factors of amplitudes the oracle evaluates itself
    for route in ("reference_rho2", "printed_rho2"):
        callees = _reachable(funcs, route)
        assert {"_eval_pair", "_pair_sum"} <= callees, route
        assert not callees & engine, route


def test_coherent_and_thermal_verdicts():
    rows_c = cross_validate("coherent", resolution=RES)
    assert _row(rows_c, "angle-uniform").verdict == "Confirmed"
    assert _row(rows_c, "diameter-common-value").verdict == "Confirmed"
    assert _row(rows_c, "rho2-printed-pairing").verdict == \
        "Convention-dependent"
    rows_t = cross_validate("thermal", resolution=RES)
    assert _row(rows_t, "rho2-printed-pairing").verdict == "Confirmed"
    assert _row(rows_t, "angle-derived-form").verdict == "Confirmed"


def _geometric_series_moments(nbar, terms=20000):
    """(E[n], E[n(n-1)]) of the geometric law nbar^n / (1 + nbar)^(n+1),
    summed term by term; up to nbar = 100 the terms past `terms` add
    less than 1e-70."""
    n = np.arange(terms, dtype=float)
    p = (nbar / (1.0 + nbar)) ** n / (1.0 + nbar)
    return math.fsum(p * n), math.fsum(p * n * (n - 1.0))


@pytest.mark.parametrize("nbar", [0.0, 0.5, 1.0, 7.0, 100.0])
def test_thermal_weights_equal_the_direct_series(nbar):
    # the thermal route weights its Fock templates by nbar_a nbar_b and
    # 2 nbar^2, the factorial moments read off the generating function
    mean, factorial = _geometric_series_moments(nbar)
    assert mean == pytest.approx(nbar, rel=1e-13, abs=1e-300)
    assert factorial == pytest.approx(2.0 * nbar ** 2, rel=1e-13,
                                      abs=1e-300)


def test_thermal_row_holds_at_high_occupation():
    # a direct series needs some 10^5 terms to reach E[n(n-1)] within
    # the row's tolerance here; the generating function's weights are
    # exact at any occupation; at the default resolution the row's 2-norm
    # bound adds up rounding on the density's scale of 1e7
    for resolution in (RES, oracle.DEFAULT_RESOLUTION):
        rows = cross_validate(thermal(1e4, 3e3), resolution=resolution)
        row = _row(rows, "rho2-engine-vs-oracle")
        assert row.verdict == "Confirmed", resolution


# states whose pair density peaks far above 1 on the grid: both their
# reference and the engine round at that scale, and ||G||_2 adds up the
# rounding of all n points (thermal(1e4, 3e3) read 1.4e-6 at 61 on the
# absolute scale); on the density's scale the deviation is at most 1e-15
# at 8 and 1.3e-11 at 200, far below the tolerance 1e-6
@pytest.mark.parametrize("resolution", [8, 21, oracle.DEFAULT_RESOLUTION,
                                        200])
@pytest.mark.parametrize("spec", [
    thermal(1e4, 3e3), thermal(1e6, 1e6), thermal(1e8, 3e7),
    coherent(300, 200j), cothermal(100, 1e4), bose_fock(3000, 2000)],
    ids=oracle._label)
def test_gating_row_holds_at_any_scale(spec, resolution):
    rows = cross_validate(spec, resolution)
    assert all_engine_checks_confirmed(rows)
    assert _row(rows, "rho2-engine-vs-oracle").max_abs_deviation < 1e-9


def test_gating_summary(fermi_rows, bose_rows, noon_rows):
    rows = fermi_rows + bose_rows + noon_rows
    assert all_engine_checks_confirmed(rows)
    broken = [dataclasses.replace(r) for r in rows]
    gate = next(r for r in broken if r.gating)
    gate.verdict = "Typo-suspected"
    assert not all_engine_checks_confirmed(broken)
    # non-gating rows never block
    assert all_engine_checks_confirmed(
        [r for r in rows if r.gating] +
        [dataclasses.replace(rows[0], gating=False,
                             verdict="Typo-suspected")])


def test_rows_serializable(fermi_rows):
    payload = json.dumps([r.as_dict() for r in fermi_rows])
    back = json.loads(payload)
    assert back[0]["claim_id"] == fermi_rows[0].claim_id
    keys = {"claim_id", "kind", "printed_form", "resolved_form",
            "max_abs_deviation", "verdict", "gating", "detail"}
    assert set(back[0]) == keys


def test_rows_reproducible():
    first = cross_validate("cothermal", resolution=15)
    second = cross_validate("cothermal", resolution=15)
    assert [r.as_dict() for r in first] == [r.as_dict() for r in second]


# sha256 of the JSON list of every full_report(15) row's fields below, in
# report order; deviations and details are left out, because their last
# digits follow numpy's SIMD dispatch
_REPORT_FIELDS = ("kind", "claim_id", "gating", "verdict", "printed_form",
                  "resolved_form")
_REPORT_DIGEST = \
    "d66ea121516a24f64ffb89d68d509e6d43f3e7d161846f828a8d0dcb932d8f22"


def test_full_report_rows_are_pinned():
    rows = oracle.full_report(resolution=15)
    assert (len(rows), sum(r.gating for r in rows)) == (50, 12)
    pinned = [[getattr(r, key) for key in _REPORT_FIELDS] for r in rows]
    digest = hashlib.sha256(json.dumps(pinned).encode()).hexdigest()
    assert digest == _REPORT_DIGEST


# the same fields of full_report(31), plus the details of the rho2 rows,
# which carry the wavefunction norms and the pair masses (12 decimals),
# the products of the sweep's two factor sums: a block lost or counted
# twice moves them
_TILED_REPORT_DIGEST = \
    "74949d3048269652e904ff0498fe46192c55dff988ccde1ce1c6a471e83639d1"


def test_full_report_rows_are_pinned_across_tiles():
    rows = oracle.full_report(resolution=31)
    pinned = [[getattr(r, key) for key in _REPORT_FIELDS]
              + ([r.detail] if r.claim_id.startswith("rho2-") else [])
              for r in rows]
    digest = hashlib.sha256(json.dumps(pinned).encode()).hexdigest()
    assert digest == _TILED_REPORT_DIGEST


def test_row_labels_name_a_basis_other_than_the_family_default(bose_rows):
    # a spec in the other basis no longer shares its rows' kind with the
    # canonical spec; full_report's labels are pinned above
    rows = cross_validate(bose_fock(basis="dipole"), resolution=RES)
    assert {r.kind for r in rows} == {"bose-fock(dipole)"}
    assert {r.kind for r in bose_rows} == {"bose-fock"}
    labels = {
        bose_fock(basis="vortex"): "bose-fock",
        bose_fock(2, 0): "bose-fock(2,0)",
        bose_fock(2, 0, basis="dipole"): "bose-fock(2,0,dipole)",
        fermi_fock(basis="dipole"): "fermi-fock(dipole)",
        replace(thermal(), basis="dipole"): "thermal(dipole)",
        replace(cothermal(), basis="vortex"): "cothermal(vortex)",
        noon(): "noon",
        replace(coherent(), basis="dipole"): "coherent",
        replace(coherent(), basis="vortex"): "coherent(1i,1,vortex)",
        oracle.TILTED_COHERENT: "coherent(1,0.5i,vortex)",
        # every family names its parameters where they differ
        thermal(2.0, 0.5): "thermal(2,0.5)",
        replace(thermal(2.0, 0.5), basis="dipole"): "thermal(2,0.5,dipole)",
        cothermal(0.6 + 0.4j, 0.3): "cothermal(0.6+0.4i,0.3)",
        cothermal(nbar=0.3): "cothermal(0.7071067811865476,0.3)",
        replace(cothermal(0.6 + 0.4j, 0.3), basis="vortex"):
            "cothermal(0.6+0.4i,0.3,vortex)",
    }
    assert {spec: oracle._label(spec) for spec in labels} == labels
    rows = cross_validate(thermal(2.0, 0.5), resolution=15)
    assert {r.kind for r in rows} == {"thermal(2,0.5)"}


def test_labels_tell_apart_parameters_past_six_digits():
    # each number is its shortest repr that reads back, less a trailing .0
    first, second = thermal(1.0000001, 1.0), thermal(1.0000002, 1.0)
    assert oracle._label(first) == "thermal(1.0000001,1)"
    assert oracle._label(second) == "thermal(1.0000002,1)"
    assert oracle._label(coherent(1.0 + 1e-9j, -0.5j)) == \
        "coherent(1+1e-09i,-0.5i,dipole)"
    assert oracle._label(cothermal(-1e16, 2.5)) == "cothermal(-1e+16,2.5)"


def _rotation_spread(rho2, spec):
    """The largest spread of `rho2` over rotations of a point pair, over
    six pairs, relative to the pair's largest value."""
    pairs = np.random.default_rng(12).normal(scale=0.8, size=(6, 4))
    angles = np.linspace(0.0, math.pi, 13)
    cos, sin = np.cos(angles), np.sin(angles)
    spread = 0.0
    for x1, y1, x2, y2 in pairs:
        values = rho2(spec, cos * x1 - sin * y1, sin * x1 + cos * y1,
                      cos * x2 - sin * y2, sin * x2 + cos * y2)
        spread = max(spread, np.ptp(values) / np.max(np.abs(values)))
    return spread


@pytest.mark.parametrize("spec", [
    bose_fock(1, 1), bose_fock(1, 1, "dipole"), bose_fock(3, 1),
    bose_fock(3, 1, "dipole"), fermi_fock("dipole")],
    ids=["bose-vortex", "bose-dipole", "bose-3-1", "bose-3-1-dipole",
         "fermi-dipole"])
def test_pairing_detail_says_which_pairing_is_rotation_invariant(spec):
    # the sentence of the rho2-printed-pairing row against the rotation
    # spread of the oracle's pair density and of the printed one
    detail = _row(cross_validate(spec, resolution=8),
                  "rho2-printed-pairing").detail
    invariant = {
        "breaks rotation invariance": (True, False),
        "same-label pairing is rotation invariant": (False, True),
        "neither pairing": (False, False),
    }
    said = [flags for words, flags in invariant.items() if words in detail]
    assert len(said) == 1, detail
    assert (bool(_rotation_spread(oracle.reference_rho2, spec) < 1e-12),
            bool(_rotation_spread(oracle.printed_rho2, spec) < 1e-12)) \
        == said[0]
    assert ("one-quantum-per-mode" in detail) == ((spec.n, spec.m) == (1, 1))


def test_one_route_function_names_and_computes_each_route():
    routes = {
        fermi_fock(): "first-quantized",
        fermi_fock(basis="dipole"): "first-quantized",
        bose_fock(1, 1): "first-quantized",
        bose_fock(2, 0): "first-quantized",
        bose_fock(0, 2, basis="dipole"): "first-quantized",
        noon(): "first-quantized",
        bose_fock(3, 1): "permanent-expansion",
        bose_fock(1, 0): "permanent-expansion",
        StateSpec("fermi-fock", n=1, m=0): "permanent-expansion",
        thermal(): "geometric-mixture",
        coherent(): "amplitude-factorization",
        oracle.TILTED_COHERENT: "amplitude-factorization",
        cothermal(): "wick-moments",
    }
    assert {spec: oracle.oracle_route(spec)[0] for spec in routes} == routes
    x = np.array([0.3, -1.1, 0.8])
    for spec in routes:
        np.testing.assert_array_equal(
            oracle.reference_rho2(spec, x, x[::-1], -x, x),
            oracle.oracle_route(spec)[1](spec, x, x[::-1], -x, x))
    # the verify row names the route the sweep took
    row = _row(cross_validate(bose_fock(3, 1), resolution=15),
               "rho2-engine-vs-oracle")
    assert row.resolved_form == "independent permanent-expansion pair density"
    assert row.detail.startswith("route=permanent-expansion; ")
    assert "wavefunction norm" not in row.detail
    assert not hasattr(oracle, "ORACLE_ROUTES")


@pytest.mark.parametrize("occupations", [(1, 0), (0, 1), (0, 0)],
                         ids=lambda nm: "%d-%d" % nm)
def test_fermi_states_with_fewer_fermions(occupations):
    # fewer than two fermions have no pairs: the permanent expansion is
    # exactly 0, like the engine, and no printed law describes the state
    n, m = occupations
    spec = StateSpec("fermi-fock", n=n, m=m)
    assert printed_family(spec) is None
    x = np.linspace(-2.0, 2.0, 9)
    assert not np.any(oracle.reference_rho2(spec, x[:, None], x[:, None],
                                            x[None, :], -x[None, :]))
    with pytest.raises(UnsupportedStateError):
        oracle.first_quantized_rho2(spec, x, x, x, x)
    rows = cross_validate(spec, resolution=15)
    assert {r.kind for r in rows} == {f"fermi-fock({n},{m})"}
    assert all_engine_checks_confirmed(rows)
    assert any(r.gating for r in rows)
    assert not [r.claim_id for r in rows if "printed" in r.claim_id]
    # the closed one-body density is n |phi_a|^2 + m |phi_b|^2
    state = build_state(spec)
    np.testing.assert_allclose(oracle.rho1_closed(spec, x, -0.5 * x),
                               density.rho1(state, x, -0.5 * x),
                               rtol=0, atol=1e-15)


def test_donut_detection_requires_quadrature_phase():
    assert printed_family(coherent()) == "coherent"
    assert printed_family(thermal(1.0, 1.0)) == "thermal"
    assert printed_family(fermi_fock()) == "fermi-fock"
    # equal magnitudes alone give a lobed profile, not a ring
    assert printed_family(coherent(alpha_a=1.0, alpha_b=1.0)) is None
    assert printed_family(thermal(1.0, 0.5)) is None
    assert printed_family(bose_fock(2, 0)) is None
    # a donut, but the paper prints no cothermal law
    assert printed_family(cothermal()) is None


def test_printed_laws_hold_in_the_family_basis():
    # the Bose, coherent and NOON laws describe the family's own basis;
    # in the other one the same numbers are another state
    assert printed_family(bose_fock(basis="dipole")) is None
    assert printed_family(replace(coherent(), basis="vortex")) is None
    assert printed_family(replace(noon(), basis="dipole")) is None
    # the Fermi and equal-occupation thermal states are basis-free
    assert printed_family(fermi_fock(basis="dipole")) == "fermi-fock"
    assert printed_family(replace(thermal(), basis="dipole")) == "thermal"
    rows = cross_validate(bose_fock(basis="dipole"), 15)
    assert all_engine_checks_confirmed(rows)
    assert not {r.claim_id for r in rows} & {"angle-engine-vs-oracle",
                                              "distance-printed-form"}


# ---------------------------------------------------------------------------
# order^2 references for the Gram-matrix quadratures: Psi evaluated at
# every (r, s, angles) node and every plane point pair. The radii are a
# dense Gauss-Legendre rule on [0, EXTENT], independent of the oracle's
# one-node Gauss-Laguerre rule
# ---------------------------------------------------------------------------

_REFERENCE_RADIAL_ORDER = 40

FIRST_QUANTIZED = [fermi_fock(), bose_fock(1, 1), bose_fock(2, 0),
                   bose_fock(0, 2), noon(), bose_fock(2, 0, basis="dipole")]


def _reference_radial_sums(spec, r_jac, f1, g1, f2, g2):
    order = r_jac.size
    shape = np.broadcast(f1[0], f2[0]).shape
    dens = np.empty((order,) + shape)
    rows = np.empty((order, dens[0].size))
    for i in range(order):
        for j in range(order):
            psi = oracle._two_particle_psi(spec, f1[i], g1[i], f2[j], g2[j])
            dens[j] = 2.0 * np.abs(psi) ** 2
        rows[i] = r_jac @ dens.reshape(order, -1)
    return (r_jac @ rows).reshape(shape)


def _reference_radial_rule():
    nodes, weights = gauss_legendre(_REFERENCE_RADIAL_ORDER, 0.0, EXTENT)
    return nodes, weights * nodes


def _reference_folded_angle_law(spec, n_points):
    grid = np.linspace(0.0, math.pi, n_points)
    deltas = np.concatenate([grid, grid + math.pi])
    r_nodes, r_jac = _reference_radial_rule()
    count = oracle.ORACLE_MEAN_ANGLES
    phi = 2.0 * math.pi * np.arange(count) / count
    f1, g1 = oracle._eval_pair(spec, r_nodes[:, None] * np.cos(phi),
                               r_nodes[:, None] * np.sin(phi))
    second = phi[:, None] - deltas[None, :]
    f2, g2 = oracle._eval_pair(spec, r_nodes[:, None, None] * np.cos(second),
                               r_nodes[:, None, None] * np.sin(second))
    raw = _reference_radial_sums(spec, r_jac, f1[:, :, None], g1[:, :, None],
                                 f2, g2).sum(axis=0) * (2.0 * math.pi / count)
    mass = np.trapezoid(raw[:n_points], grid) \
        + np.trapezoid(raw[n_points:], grid + math.pi)
    return grid, (raw[:n_points] + raw[n_points:]) / mass


def _reference_two_angle_law(spec, n_points):
    angles = 2.0 * math.pi * np.arange(n_points) / n_points
    r_nodes, r_jac = _reference_radial_rule()
    f, g = oracle._eval_pair(spec, r_nodes[:, None] * np.cos(angles),
                             r_nodes[:, None] * np.sin(angles))
    joint = _reference_radial_sums(spec, r_jac, f[:, :, None], g[:, :, None],
                                   f[:, None, :], g[:, None, :])
    cell = (2.0 * math.pi / n_points) ** 2
    return angles, joint / (np.sum(joint) * cell)


def _reference_wavefunction_norm(spec, resolution):
    px, py, step = oracle._plane_points(resolution)
    f, g = oracle._eval_pair(spec, px, py)
    psi = oracle._two_particle_psi(spec, f[:, None], g[:, None],
                                   f[None, :], g[None, :])
    return float(np.sum(np.abs(psi) ** 2)) * step ** 4


@pytest.mark.parametrize("spec", FIRST_QUANTIZED,
                         ids=lambda s: f"{s.kind}-{s.n}{s.m}-{s.basis}")
def test_gram_angle_laws_match_node_by_node_reference(spec):
    grid, folded = oracle_folded_angle_law(spec, n_points=13)
    ref_grid, ref_folded = _reference_folded_angle_law(spec, 13)
    assert np.array_equal(grid, ref_grid)
    assert np.max(np.abs(folded - ref_folded)) <= 1e-15
    angles, joint = oracle_two_angle_law(spec, n_points=12)
    ref_angles, ref_joint = _reference_two_angle_law(spec, 12)
    assert np.array_equal(angles, ref_angles)
    assert np.max(np.abs(joint - ref_joint)) <= 1e-15


@pytest.mark.parametrize("n_points", [9, 181, 361])
@pytest.mark.parametrize("spec", FIRST_QUANTIZED,
                         ids=lambda s: f"{s.kind}-{s.n}{s.m}-{s.basis}")
def test_folded_ray_table_matches_node_by_node_reference(spec, n_points):
    # the reference evaluates Psi at every radius pair of every ray
    # phi_i - delta_k; the law takes one Gram per ray from its one radial
    # node (13 points are compared in the test above)
    grid, folded = oracle_folded_angle_law(spec, n_points=n_points)
    ref_grid, ref_folded = _reference_folded_angle_law(spec, n_points)
    assert np.array_equal(grid, ref_grid)
    assert np.max(np.abs(folded - ref_folded)) <= 1e-15


def test_folded_law_evaluates_the_modes_once_per_ray(monkeypatch):
    # one radial node per ray: the mean angles' rays of particle 1, and
    # the rays phi_i - delta_k of particle 2 for the 2 n relative angles
    points = []
    original = oracle._eval_pair

    def counting(spec, x, y):
        points.append(np.broadcast(x, y).size)
        return original(spec, x, y)

    monkeypatch.setattr(oracle, "_eval_pair", counting)
    oracle_folded_angle_law(fermi_fock())
    rays = (2 * oracle.CLAIM_ANGLE_POINTS + 1) * oracle.ORACLE_MEAN_ANGLES
    assert sum(points) == rays == 3615


@pytest.mark.parametrize("spec", [fermi_fock(), bose_fock()],
                         ids=["fermi-fock", "bose-fock"])
def test_folded_law_memory_is_bounded_by_its_rays(spec):
    # the 5 x 722 rays' Gram matrices; the former 64 x 722-ray quadrature
    # peaked at 5.5 MB at once and at 2.2 MB in column chunks
    tracemalloc.start()
    try:
        oracle_folded_angle_law(spec, n_points=oracle.CLAIM_ANGLE_POINTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


@pytest.mark.parametrize("spec", FIRST_QUANTIZED,
                         ids=lambda s: f"{s.kind}-{s.n}{s.m}-{s.basis}")
def test_mean_angle_rule_is_exact_at_its_degree_bound(monkeypatch, spec):
    # |Psi|^2 has degree 4 in the mean angle and the norm's Gram entries
    # degree 2: 5 periodic nodes are exact for both, so larger rules move
    # nothing but rounding. 4 nodes alias the degree-4 harmonic, which
    # NOON (sin^2(2 phi - delta)) and the dipole modes carry; a vortex
    # Fock state is rotation invariant and has none
    def rule():
        return oracle_folded_angle_law(spec)[1], wavefunction_norm(spec)

    law, norm = rule()
    for count in (6, 8, 16, 64):
        monkeypatch.setattr(oracle, "ORACLE_MEAN_ANGLES", count)
        other_law, other_norm = rule()
        assert np.max(np.abs(other_law - law)) <= 2e-15
        assert abs(other_norm - norm) <= 2e-15
    monkeypatch.setattr(oracle, "ORACLE_MEAN_ANGLES", 4)
    aliased = np.max(np.abs(rule()[0] - law))
    if spec.kind == "noon" or spec.basis == "dipole":
        assert aliased > 0.1
    else:
        assert aliased <= 2e-15


@pytest.mark.parametrize("law, n_points", [
    (oracle_folded_angle_law, 1), (oracle_folded_angle_law, 2),
    (oracle_two_angle_law, 0), (oracle_two_angle_law, 1),
    (oracle_two_angle_law, 2)])
def test_angle_laws_reject_degenerate_grids(law, n_points):
    with pytest.raises(ValueError, match="n_points must be >= 3"):
        law(noon(), n_points=n_points)


def test_angle_laws_normalise_exactly_on_the_smallest_grid():
    # three nodes already integrate the order-2 angular harmonics exactly
    grid, folded = oracle_folded_angle_law(fermi_fock(), n_points=3)
    assert np.allclose(folded, 2.0 / math.pi * np.sin(grid) ** 2,
                       rtol=0.0, atol=1e-15)
    angles, joint = oracle_two_angle_law(noon(), n_points=3)
    assert abs(np.sum(joint) * (2.0 * math.pi / 3) ** 2 - 1.0) <= 1e-15
    assert np.all(np.isfinite(joint))


@pytest.mark.parametrize("spec", FIRST_QUANTIZED,
                         ids=lambda s: f"{s.kind}-{s.n}{s.m}-{s.basis}")
def test_gram_norm_matches_point_pair_reference(spec):
    assert abs(wavefunction_norm(spec)
               - _reference_wavefunction_norm(spec, 31)) <= 1e-14


@pytest.mark.parametrize("e", [2.7, math.e * (1.0 + 1e-12)])
def test_norm_checks_see_a_wrong_radial_weight(monkeypatch, e):
    # e / 2 is the ray rule's one radial weight; the angle laws divide it
    # out, so only the norms can see it, and the norm carries its square
    monkeypatch.setattr(oracle, "math",
                        types.SimpleNamespace(**{**vars(math), "e": e}))
    for spec in FIRST_QUANTIZED:
        norm = wavefunction_norm(spec)
        assert abs(norm - 1.0) > 1e-14
        assert abs(norm - _reference_wavefunction_norm(spec, 31)) > 1e-14


@pytest.mark.parametrize("spec", FIRST_QUANTIZED,
                         ids=lambda s: f"{s.kind}-{s.n}{s.m}-{s.basis}")
def test_psi_is_bilinear_in_mode_amplitudes(spec):
    # the Gram route is exact only for Psi = sum_ab C[a, b] u_a(1) u_b(2);
    # a wavefunction of any other form must fail here
    rng = np.random.default_rng(7)
    f1, g1, f2, g2 = (rng.normal(size=50) + 1j * rng.normal(size=50)
                      for _ in range(4))
    psi = oracle._two_particle_psi(spec, f1, g1, f2, g2)
    c = oracle._psi_coefficients(spec)
    rebuilt = np.einsum("ab,an,bn->n", c, np.stack([f1, g1]),
                        np.stack([f2, g2]))
    assert np.max(np.abs(rebuilt - psi)) <= 1e-15 * np.max(np.abs(psi))


def _give_fermions_the_bosonic_sign(monkeypatch):
    original = oracle._two_particle_psi

    def bosonic_sign(spec, f1, g1, f2, g2):
        if spec.kind == "fermi-fock":
            return (f1 * g2 + g1 * f2) / math.sqrt(2.0)
        return original(spec, f1, g1, f2, g2)

    monkeypatch.setattr(oracle, "_two_particle_psi", bosonic_sign)


def test_angle_row_sees_the_exchange_sign(monkeypatch):
    # give fermions the bosonic sign: the oracle law turns cos^2 while the
    # engine keeps sin^2, so the gating row must fail
    _give_fermions_the_bosonic_sign(monkeypatch)
    rows = cross_validate(fermi_fock(), 15)
    row = _row(rows, "angle-engine-vs-oracle")
    assert row.verdict != "Confirmed"
    assert row.max_abs_deviation > 0.5


def test_folded_angle_law_memory_is_bounded():
    tracemalloc.start()
    try:
        oracle_folded_angle_law(fermi_fock())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


# ---------------------------------------------------------------------------
# elementwise references for the separable pair-density routes: the former
# route formulas, one complex array per point pair, on amplitudes from
# modes.mode_eval
# ---------------------------------------------------------------------------

SHIPPED = (fermi_fock(), bose_fock(1, 1), bose_fock(2, 0), coherent(),
           thermal(1.0, 1.0), cothermal(), noon())
ROUTE_SPECS = [replace(spec, basis=basis) for spec in SHIPPED
               for basis in ("vortex", "dipole")] \
    + [bose_fock(2, 1), bose_fock(3, 2, basis="dipole"), thermal(0.4, 2.5)]


def _reference_pair(spec, x, y):
    modes = VORTEX_PAIR if spec.basis == "vortex" else DIPOLE_PAIR
    return tuple(mode_eval(mode, x, y) for mode in modes)


def _reference_fock(cross, same_a, same_b, f1, g1, f2, g2):
    return (cross * np.abs(f1 * g2 + g1 * f2) ** 2
            + same_a * np.abs(f1 * f2) ** 2
            + same_b * np.abs(g1 * g2) ** 2)


def _reference_rho2(spec, x1, y1, x2, y2):
    f1, g1 = _reference_pair(spec, x1, y1)
    f2, g2 = _reference_pair(spec, x2, y2)
    kind, n, m = spec.kind, spec.n, spec.m
    if kind in ("fermi-fock", "noon") or (kind == "bose-fock"
                                          and n + m == 2):
        psi = oracle._two_particle_psi(spec, f1, g1, f2, g2)
        return 2.0 * np.abs(psi) ** 2
    if kind == "bose-fock":
        return _reference_fock(n * m, n * (n - 1), m * (m - 1),
                               f1, g1, f2, g2)
    if kind == "thermal":
        nbar_a, nbar_b = spec.nbar_a, spec.nbar_b
        return _reference_fock(nbar_a * nbar_b, 2.0 * nbar_a ** 2,
                               2.0 * nbar_b ** 2, f1, g1, f2, g2)
    if kind == "coherent":
        amp1 = spec.alpha_a * f1 + spec.alpha_b * g1
        amp2 = spec.alpha_a * f2 + spec.alpha_b * g2
        return np.abs(amp1) ** 2 * np.abs(amp2) ** 2
    assert kind == "cothermal"
    beta_a, beta_b = spec.alpha_a, -1.0j * spec.alpha_a
    nu = spec.nbar_a
    amp1 = beta_a * f1 + beta_b * g1
    amp2 = beta_a * f2 + beta_b * g2
    k11 = nu * (np.abs(f1) ** 2 + np.abs(g1) ** 2)
    k22 = nu * (np.abs(f2) ** 2 + np.abs(g2) ** 2)
    k12 = nu * (np.conj(f1) * f2 + np.conj(g1) * g2)
    dens1 = np.abs(amp1) ** 2
    dens2 = np.abs(amp2) ** 2
    return (dens1 * dens2 + k11 * dens2 + k22 * dens1
            + 2.0 * (k12 * np.conj(amp2) * amp1).real
            + np.abs(k12) ** 2 + k11 * k22)


def _reference_printed_rho2(spec, x1, y1, x2, y2):
    a1, b1 = _reference_pair(spec, x1, y1)
    a2, b2 = _reference_pair(spec, x2, y2)
    if spec.kind == "fermi-fock":
        return np.abs(a1 * a2 - b1 * b2) ** 2
    if spec.kind == "bose-fock":
        n, m = spec.n, spec.m
        return (n * m * np.abs(a1 * a2 + b1 * b2) ** 2
                + n * (n - 1) * np.abs(a1 * a2) ** 2
                + m * (m - 1) * np.abs(b1 * b2) ** 2)
    if spec.kind == "coherent":
        return (np.abs(spec.alpha_a * a1) ** 2
                * np.abs(spec.alpha_b * b2) ** 2)
    assert spec.kind == "thermal"
    nb, f1, f2 = (spec.nbar_a, spec.nbar_b), (a1, b1), (a2, b2)
    return sum(nb[p] * nb[pp] * (
        np.abs(f1[p]) ** 2 * np.abs(f2[pp]) ** 2
        + (np.conj(f1[p]) * f2[p] * np.conj(f2[pp]) * f1[pp]).real)
        for p in range(2) for pp in range(2))


@pytest.mark.parametrize("spec", ROUTE_SPECS,
                         ids=lambda s: f"{s.kind}-{s.n}{s.m}-{s.basis}")
def test_separable_routes_match_elementwise_formulas(spec):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3.0, 3.0, size=(4, 40))
    outer = (pts[0][:, None], pts[1][:, None], pts[2][None, :],
             pts[3][None, :])
    shapes = [outer,
              tuple(pts),                                  # matched pairs
              tuple(float(p[0]) for p in pts),             # scalars
              (pts[0][:, None], 0.3, pts[2][None, :], -0.7)]
    routes = [(oracle.reference_rho2, _reference_rho2)]
    if spec.kind in oracle._PAIR_FORMS:
        routes.append((oracle.printed_rho2, _reference_printed_rho2))
    for route, reference in routes:
        scale = np.max(np.abs(reference(spec, *outer)))
        for args in shapes:
            got = route(spec, *args)
            want = reference(spec, *args)
            assert np.shape(got) == np.shape(want)
            assert np.max(np.abs(got - want)) <= 1e-14 * scale, route


def test_sweep_sees_a_wrong_exchange_sign(monkeypatch):
    _give_fermions_the_bosonic_sign(monkeypatch)
    sweep = pair_grid_sweep(fermi_fock(), resolution=15)
    assert sweep["dev_oracle"] > oracle.CONFIRM_TOL


def test_tilted_row_sees_a_mirrored_engine(monkeypatch):
    # y -> -y flips the sign of the 2xy component of the engine's shell
    # harmonics h; only the tilted state's sin 2theta harmonics carry it
    original = density.shell_harmonics

    def mirrored(x, y):
        h = original(x, y)
        return np.stack([h[0], h[1], -h[2]])

    monkeypatch.setattr(density, "shell_harmonics", mirrored)
    rows = cross_validate(oracle.TILTED_COHERENT, 15)
    assert _row(rows, "rho2-engine-vs-oracle").verdict != "Confirmed"


def test_engine_rows_see_a_wrong_mode_normalisation(monkeypatch):
    # the oracle evaluates its modes itself, so a wrong 1/pi in the
    # engine's shell harmonics cannot cancel out of the engine-vs-oracle
    # rows
    original = density.shell_harmonics
    monkeypatch.setattr(density, "shell_harmonics",
                        lambda x, y: 1.01 * original(x, y))
    for spec in SHIPPED:
        rows = cross_validate(spec, 15)
        assert _row(rows, "rho2-engine-vs-oracle").verdict != "Confirmed"
