"""Command line front end.

Five subcommands: `profile` (one-body density grid), `pairdist` and
`pairangle` (two-particle distance / relative-angle laws, with a joint
two-angle mode for states that have no orientation-free angle law),
`frames` (reproducible single-shot position frames), and `verify`
(engine against the independent reference implementation).

Run configuration merges three layers: built-in defaults, then a JSON
config file given with --config, then explicit flags (flags win). Exit
codes are stable API: 0 success, 1 verification failure, 2 configuration
error, 3 numerical failure, 4 wrong tool for the requested state.
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import pairstats
from .density import density_grid, rho1, rho1_closed
from .errors import (AlgebraInconsistencyError, AnisotropicStateError,
                     EmptyFramesError, NoPairsError, OrderLimitError,
                     PauliViolationError, SamplerMethodError,
                     TruncationError, UnsupportedStateError)
from .io import provenance, write_csv, write_json
from .oracle import CONFIRMED, all_engine_checks_confirmed, full_report
from .sampler import (FrameSet, chi_square_gof, empirical_pair_stats,
                      generate_frames, pair_angles, pair_separations,
                      save_frames)
from .states import KINDS, SpecError, build_state, spec_from_dict, spec_to_dict
from .svgplot import svg_chart, svg_heatmap
from .version import VERSION

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_STATE = 4

_CONFIG_ERRORS = (SpecError, PauliViolationError)
_NUMERIC_ERRORS = (AlgebraInconsistencyError, TruncationError,
                   SamplerMethodError, OrderLimitError, EmptyFramesError,
                   FloatingPointError, np.linalg.LinAlgError)
_STATE_ERRORS = (AnisotropicStateError, NoPairsError, UnsupportedStateError)

_FORMATS = ("csv", "json", "svg")

_STATE_KEYS = ("state", "n", "m", "alpha_x", "alpha_y", "alpha", "nbar",
               "nbar_a", "nbar_b", "cutoff", "basis")
_OUTPUT_KEYS = ("out", "formats", "threads")

# flat key sets a JSON config file may provide, per command
_COMMAND_KEYS = {
    "profile": _STATE_KEYS + _OUTPUT_KEYS + ("step", "extent"),
    "pairdist": _STATE_KEYS + _OUTPUT_KEYS + ("points", "two_angle"),
    "pairangle": _STATE_KEYS + _OUTPUT_KEYS + ("points", "two_angle"),
    "frames": _STATE_KEYS + _OUTPUT_KEYS + ("seed", "count", "method",
                                            "stats", "bins"),
    "verify": _OUTPUT_KEYS + ("resolution",),
}

_COMMAND_DEFAULTS = {
    "profile": {"step": 0.05, "extent": 6.0},
    "pairdist": {"points": None, "two_angle": False},
    "pairangle": {"points": None, "two_angle": False},
    "frames": {"seed": None, "count": 1000, "method": "auto",
               "stats": False, "bins": 64},
    "verify": {"resolution": 61},
}

_DISTRIBUTION_POINTS = {"pairdist": 801, "pairangle": 361}
_TWO_ANGLE_POINTS = 180


@dataclass
class RunConfig:
    """Fully resolved run description; `payload` is what gets hashed into
    provenance, so it deliberately excludes presentation-only knobs
    (output directory, format selection, thread cap)."""
    command: str
    spec: object = None
    seed: int = None
    count: int = 1000
    points: int = 801
    step: float = 0.05
    extent: float = 6.0
    bins: int = 64
    method: str = "auto"
    resolution: int = 61
    threads: int = 1
    two_angle: bool = False
    stats: bool = False
    out: str = "."
    formats: tuple = _FORMATS
    raw: dict = field(default_factory=dict)

    def payload(self):
        data = {"command": self.command}
        if self.spec is not None:
            data["state"] = spec_to_dict(self.spec)
        for key in _COMMAND_KEYS[self.command]:
            if key in _STATE_KEYS or key in _OUTPUT_KEYS:
                continue
            data[key] = getattr(self, key)
        return data

    def prov(self, state=None):
        flags = state.flags if state is not None else ()
        return provenance(config=self.payload(), seed=self.seed, flags=flags)


# ---------------------------------------------------------------------------
# argument parsing and config resolution
# ---------------------------------------------------------------------------


def _add_state_flags(sp):
    grp = sp.add_argument_group("state selection")
    grp.add_argument("--state", choices=KINDS, default=None,
                     help="state family (default fermi-fock)")
    grp.add_argument("--n", type=int, default=None,
                     help="occupation of the first mode (Fock states)")
    grp.add_argument("--m", type=int, default=None,
                     help="occupation of the second mode (Fock states)")
    grp.add_argument("--alpha-x", default=None, metavar="A+BI",
                     help="coherent amplitude on the first dipole mode")
    grp.add_argument("--alpha-y", default=None, metavar="A+BI",
                     help="coherent amplitude on the second dipole mode")
    grp.add_argument("--alpha", default=None, metavar="A+BI",
                     help="cothermal displacement per mode")
    grp.add_argument("--nbar", type=float, default=None,
                     help="cothermal thermal occupancy per mode")
    grp.add_argument("--nbar-a", type=float, default=None,
                     help="thermal occupancy of the first mode")
    grp.add_argument("--nbar-b", type=float, default=None,
                     help="thermal occupancy of the second mode")
    grp.add_argument("--cutoff", type=int, default=None,
                     help="per-mode Fock-space cutoff for indefinite-number states")
    grp.add_argument("--basis", choices=("vortex", "dipole"), default=None,
                     help="mode basis the correlators are expressed in")


def _add_output_flags(sp):
    grp = sp.add_argument_group("output")
    grp.add_argument("--out", default=None, metavar="DIR",
                     help="output directory (default: current directory)")
    grp.add_argument("--formats", default=None, metavar="LIST",
                     help="comma-separated subset of csv,json,svg (default: all)")
    grp.add_argument("--config", default=None, metavar="FILE",
                     help="JSON config file; explicit flags override its entries")
    grp.add_argument("--threads", type=int, default=None, metavar="N",
                     help="frames: generate shards in N threads and format "
                          "frames.csv blocks in N processes; results do not "
                          "depend on it")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vortexcorr",
        description="Spatial one- and two-particle correlations of "
                    "two-mode vortex states. CSV columns and file layouts "
                    "are documented in FORMATS.md.")
    parser.add_argument("--version", action="version",
                        version="vortexcorr " + VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    raw = argparse.RawDescriptionHelpFormatter
    sp = sub.add_parser("profile",
                        help="one-body density grid, radial cut, heatmap",
                        formatter_class=raw, epilog=(
                            "outputs:\n"
                            "  profile_grid.csv        x,y,density\n"
                            "  profile_radial_cut.csv  r,density,closed_form\n"
                            "  profile_summary.json    moments and peaks\n"
                            "  profile_heatmap.svg"))
    _add_state_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--step", type=float, default=None,
                    help="grid spacing (default 0.05)")
    sp.add_argument("--extent", type=float, default=None,
                    help="half-width of the grid box (default 6.0)")

    epilogs = {
        "pairdist": ("outputs:\n"
                     "  pairdist_distribution.csv  d,density[,closed_form]\n"
                     "  pairdist_summary.json      mean, second moment, "
                     "maxima\n"
                     "  pairdist_overlay.svg"),
        "pairangle": ("outputs:\n"
                      "  pairangle_distribution.csv  delta,density"
                      "[,closed_form]\n"
                      "  pairangle_summary.json      mean, second moment, "
                      "maxima\n"
                      "  pairangle_overlay.svg"),
    }
    two_angle_note = ("\nwith --two-angle:\n"
                      "  two_angle_surface.csv  theta_1,theta_2,density"
                      "[,closed_form]\n"
                      "  two_angle_summary.json\n"
                      "  two_angle_heatmap.svg")
    for name, blurb in (("pairdist", "pair-distance distribution"),
                        ("pairangle", "relative-angle distribution")):
        sp = sub.add_parser(name, help=blurb + " with closed-form overlay",
                            formatter_class=raw,
                            epilog=epilogs[name] + two_angle_note)
        _add_state_flags(sp)
        _add_output_flags(sp)
        sp.add_argument("--points", type=int, default=None,
                        help="tabulation grid size")
        sp.add_argument("--two-angle", action="store_true", default=None,
                        help="joint density of both detection angles "
                             "(required for anisotropic states)")

    sp = sub.add_parser("frames",
                        help="reproducible single-shot detection frames",
                        formatter_class=raw, epilog=(
                            "outputs:\n"
                            "  frames.csv  header line, then "
                            "frame_index,x1,y1,x2,y2\n"
                            "with --stats:\n"
                            "  frames_distance_hist.csv  d,density,reference\n"
                            "  frames_angle_hist.csv     delta,density,"
                            "reference\n"
                            "  frames_stats.json         mean, z-score, "
                            "chi-square fits\n"
                            "  frames_distance.svg, frames_angle.svg"))
    _add_state_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--seed", type=int, default=None,
                    help="RNG seed; mandatory, there is no implicit entropy")
    sp.add_argument("--count", type=int, default=None,
                    help="number of frames (default 1000)")
    sp.add_argument("--method", choices=("auto", "ring", "cartesian"),
                    default=None, help="sampling strategy (default auto)")
    sp.add_argument("--stats", action="store_true", default=None,
                    help="also write empirical histograms and fit statistics")
    sp.add_argument("--bins", type=int, default=None,
                    help="histogram bins for --stats (default 64)")

    sp = sub.add_parser("verify",
                        help="cross-check the engine against the independent "
                             "reference implementation",
                        formatter_class=raw, epilog=(
                            "outputs:\n"
                            "  verify_report.json  one row per cross-check "
                            "claim\n"
                            "  stdout table        state, claim, verdict, "
                            "deviation, gating\n"
                            "exit 0 iff every engine-vs-reference row is "
                            "Confirmed"))
    _add_output_flags(sp)
    sp.add_argument("--resolution", type=int, default=None,
                    help="pair-grid points per axis (default 61)")
    return parser


def _load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SpecError("config file must hold a single JSON object")
    return data


def _parse_formats(value):
    if isinstance(value, str):
        items = [v for v in value.replace(" ", "").split(",") if v]
    elif isinstance(value, (list, tuple)):
        items = [str(v) for v in value]
    else:
        raise SpecError(f"cannot parse output formats from {value!r}")
    unknown = sorted(set(items) - set(_FORMATS))
    if unknown:
        raise SpecError("unknown output formats: " + ", ".join(unknown)
                        + " (choose from csv, json, svg)")
    if not items:
        raise SpecError("empty format list")
    return tuple(f for f in _FORMATS if f in items)


def _build_spec(cfg):
    data = {"kind": cfg.get("state") or "fermi-fock"}
    for key in ("n", "m", "cutoff", "basis", "alpha_x", "alpha_y", "alpha",
                "nbar", "nbar_a", "nbar_b"):
        if cfg.get(key) is not None:
            data[key] = cfg[key]
    # canonical parameter defaults for the indefinite-number families
    if data["kind"] == "coherent":
        data.setdefault("alpha_x", "i")
        data.setdefault("alpha_y", "1")
    elif data["kind"] == "cothermal":
        data.setdefault("alpha", math.sqrt(0.5))
        data.setdefault("nbar", 0.5)
    return spec_from_dict(data)


def resolve_config(args):
    """Merge defaults, the optional JSON config file, and explicit flags."""
    command = args.command
    cfg = {"out": ".", "formats": "csv,json,svg", "threads": 1}
    cfg.update(_COMMAND_DEFAULTS[command])

    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        allowed = set(_COMMAND_KEYS[command])
        unknown = sorted(set(file_cfg) - allowed)
        if unknown:
            raise SpecError(
                f"config keys not understood by '{command}': "
                + ", ".join(unknown))
        cfg.update(file_cfg)

    for key in _COMMAND_KEYS[command]:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = flag_value

    if command in _DISTRIBUTION_POINTS and cfg.get("points") is None:
        cfg["points"] = (_TWO_ANGLE_POINTS if cfg.get("two_angle")
                         else _DISTRIBUTION_POINTS[command])

    run = RunConfig(command=command, raw=dict(cfg))
    if command != "verify":
        run.spec = _build_spec(cfg)
    run.out = str(cfg["out"])
    run.formats = _parse_formats(cfg["formats"])
    try:
        run.threads = int(cfg["threads"])
    except (TypeError, ValueError):
        raise SpecError(f"--threads needs an integer, got {cfg['threads']!r}")
    if run.threads < 1:
        raise SpecError("--threads must be >= 1")

    for key, caster in (("seed", int), ("count", int), ("points", int),
                        ("step", float), ("extent", float), ("bins", int),
                        ("method", str), ("resolution", int),
                        ("two_angle", bool), ("stats", bool)):
        if key in cfg and cfg[key] is not None:
            try:
                setattr(run, key, caster(cfg[key]))
            except (TypeError, ValueError):
                raise SpecError(f"bad value for {key}: {cfg[key]!r}")

    if command == "frames":
        if cfg.get("seed") is None:
            raise SpecError("frames requires an explicit --seed "
                            "(reproducibility: no implicit entropy)")
        if run.count < 0:
            raise SpecError("--count must be >= 0")
        if run.bins < 4:
            raise SpecError("--bins must be >= 4")
    if command in ("pairdist", "pairangle") and run.points < 8:
        raise SpecError("--points must be >= 8")
    if command == "profile":
        if run.step <= 0 or run.extent <= 0:
            raise SpecError("--step and --extent must be positive")
    if command == "verify" and run.resolution < 8:
        raise SpecError("--resolution must be >= 8")
    return run


# ---------------------------------------------------------------------------
# closed-form references for overlays
# ---------------------------------------------------------------------------


def _canonical_family(spec):
    """Catalog key of the printed laws when the spec matches the canonical
    configuration those laws describe, else None."""
    if spec.kind in ("fermi-fock", "noon"):
        return spec.kind
    if spec.kind == "bose-fock" and (spec.n, spec.m) == (1, 1):
        return "bose-fock"
    if spec.kind == "coherent":
        a, b = spec.alpha_a, spec.alpha_b
        if (abs(abs(a) - 1.0) < 1e-12
                and (abs(a - 1j * b) < 1e-12 or abs(a + 1j * b) < 1e-12)):
            return "coherent"
    if spec.kind == "thermal" and spec.nbar_a == spec.nbar_b == 1.0:
        return "thermal"
    return None


def _reference_distance(spec):
    fam = _canonical_family(spec)
    if fam in ("fermi-fock", "bose-fock", "coherent", "noon"):
        return fam, pairstats.analytic_distance(fam)
    return None, None


def _reference_angle_closure(spec):
    fam = _canonical_family(spec)
    if fam is None:
        return None
    def closure(delta, _fam=fam):
        return pairstats.closed_form_angle(_fam, delta)
    return closure


def _reference_two_angle_closure(spec):
    fam = _canonical_family(spec)
    if fam in ("noon", "fermi-fock", "coherent"):
        def closure(theta, vartheta, _fam=fam):
            return pairstats.closed_form_two_angle(_fam, theta, vartheta)
        return closure
    return None


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _path(cfg, name):
    out = cfg.out.rstrip("/")
    if out in ("", "."):
        return name
    os.makedirs(out, exist_ok=True)
    return out + "/" + name


def cmd_profile(cfg):
    state = build_state(cfg.spec)
    fld = density_grid(state, extent=cfg.extent, step=cfg.step)
    prov = cfg.prov(state)

    r_axis = np.arange(0.0, cfg.extent + 0.5 * cfg.step, cfg.step)
    cut = rho1(state, r_axis, np.zeros_like(r_axis))
    closed_cut = rho1_closed(cfg.spec, r_axis, np.zeros_like(r_axis))

    if "csv" in cfg.formats:
        rows = ((fld.x[i], fld.y[j], fld.values[i, j])
                for i in range(len(fld.x)) for j in range(len(fld.y)))
        write_csv(_path(cfg, "profile_grid.csv"), ("x", "y", "density"),
                  rows, prov=prov,
                  comments=("one-body density rho1(x, y) on a uniform grid",))
        write_csv(_path(cfg, "profile_radial_cut.csv"),
                  ("r", "density", "closed_form"),
                  zip(r_axis, cut, closed_cut), prov=prov,
                  comments=("cut along the radius at angle 0",))
    if "json" in cfg.formats:
        imax = int(np.argmax(cut))
        write_json(_path(cfg, "profile_summary.json"), {
            "state": spec_to_dict(cfg.spec),
            "grid": {"extent": cfg.extent, "step": cfg.step,
                     "points_per_axis": len(fld.x)},
            "total": fld.total,
            "center_value": float(rho1(state, 0.0, 0.0)),
            "max_value": float(np.max(fld.values)),
            "peak_radius": float(r_axis[imax]),
            "radial_cut_vs_closed_form_sup": float(
                np.max(np.abs(cut - closed_cut))),
            "provenance": prov,
        })
    if "svg" in cfg.formats:
        svg_heatmap(_path(cfg, "profile_heatmap.svg"), fld.x, fld.y,
                    fld.values.T, title="one-body density", prov=prov)
    return EXIT_OK


def _two_angle_outputs(cfg):
    state = build_state(cfg.spec)
    dist = pairstats.two_angle_distribution(state, n_points=cfg.points)
    prov = cfg.prov(state)
    closure = _reference_two_angle_closure(cfg.spec)

    if "csv" in cfg.formats:
        if closure is not None:
            ref = closure(dist.grid[:, None], dist.grid[None, :])
            columns = ("theta_1", "theta_2", "density", "closed_form")
            rows = ((dist.grid[i], dist.grid[j], dist.values[i, j],
                     ref[i, j])
                    for i in range(len(dist.grid))
                    for j in range(len(dist.grid)))
        else:
            columns = ("theta_1", "theta_2", "density")
            rows = ((dist.grid[i], dist.grid[j], dist.values[i, j])
                    for i in range(len(dist.grid))
                    for j in range(len(dist.grid)))
        write_csv(_path(cfg, "two_angle_surface.csv"), columns, rows,
                  prov=prov,
                  comments=("joint density of the two detection angles",))
    if "json" in cfg.formats:
        payload = {
            "state": spec_to_dict(cfg.spec),
            "points": cfg.points,
            "integral": dist.integral(),
            "max_value": float(np.max(dist.values)),
            "min_value": float(np.min(dist.values)),
            "provenance": prov,
        }
        if closure is not None:
            ref = closure(dist.grid[:, None], dist.grid[None, :])
            payload["closed_form_sup_deviation"] = float(
                np.max(np.abs(dist.values - ref)))
        write_json(_path(cfg, "two_angle_summary.json"), payload)
    if "svg" in cfg.formats:
        svg_heatmap(_path(cfg, "two_angle_heatmap.svg"), dist.grid,
                    dist.grid, dist.values.T, title="joint angle density",
                    xlabel="theta 1", ylabel="theta 2", prov=prov)
    return EXIT_OK


def cmd_pairdist(cfg):
    if cfg.two_angle:
        return _two_angle_outputs(cfg)
    state = build_state(cfg.spec)
    dist = pairstats.distance_distribution(state, n_points=cfg.points)
    summary = pairstats.summarize(dist)
    prov = cfg.prov(state)
    fam, ref = _reference_distance(cfg.spec)

    if "csv" in cfg.formats:
        if ref is not None:
            closed = ref.value_at(dist.grid)
            columns = ("d", "density", "closed_form")
            rows = zip(dist.grid, dist.values, closed)
        else:
            columns = ("d", "density")
            rows = zip(dist.grid, dist.values)
        write_csv(_path(cfg, "pairdist_distribution.csv"), columns, rows,
                  prov=prov, comments=("pair-distance density D(d)",))
    if "json" in cfg.formats:
        payload = {
            "state": spec_to_dict(cfg.spec),
            "points": cfg.points,
            "mean": summary.mean,
            "second_moment": summary.second_moment,
            "variance": summary.second_moment - summary.mean ** 2,
            "local_maxima": summary.local_maxima,
            "pair_normalization": dist.normalization,
            # the overlaid Bose closed form carries the restored leading
            # d factor; the flag records that the corrected variant is used
            "bose-form-corrected": fam == "bose-fock",
            "provenance": prov,
        }
        if ref is not None:
            payload["closed_form_sup_deviation"] = float(
                np.max(np.abs(dist.values - ref.value_at(dist.grid))))
        write_json(_path(cfg, "pairdist_summary.json"), payload)
    if "svg" in cfg.formats:
        series = [{"label": "kernel", "x": dist.grid, "y": dist.values}]
        if ref is not None:
            series.append({"label": "closed form", "x": dist.grid,
                           "y": ref.value_at(dist.grid)})
        svg_chart(_path(cfg, "pairdist_overlay.svg"), series,
                  title="pair-distance density", xlabel="d",
                  ylabel="D(d)", prov=prov)
    return EXIT_OK


def cmd_pairangle(cfg):
    if cfg.two_angle:
        return _two_angle_outputs(cfg)
    state = build_state(cfg.spec)
    dist = pairstats.angle_distribution(state, n_points=cfg.points)
    prov = cfg.prov(state)
    closure = _reference_angle_closure(cfg.spec)

    mean = float(np.trapezoid(dist.grid * dist.values, dist.grid))
    second = float(np.trapezoid(dist.grid ** 2 * dist.values, dist.grid))
    spread = float(np.max(dist.values) - np.min(dist.values))
    if spread <= 1e-9 * max(1.0, float(np.max(dist.values))):
        maxima = []
    else:
        v = dist.values
        inner = np.nonzero((v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:]))[0] + 1
        maxima = [float(dist.grid[i]) for i in inner]
        if v[0] > v[1]:
            maxima.insert(0, float(dist.grid[0]))
        if v[-1] > v[-2]:
            maxima.append(float(dist.grid[-1]))

    if "csv" in cfg.formats:
        if closure is not None:
            columns = ("delta", "density", "closed_form")
            rows = zip(dist.grid, dist.values, closure(dist.grid))
        else:
            columns = ("delta", "density")
            rows = zip(dist.grid, dist.values)
        write_csv(_path(cfg, "pairangle_distribution.csv"), columns, rows,
                  prov=prov,
                  comments=("relative-angle density on [0, pi)",))
    if "json" in cfg.formats:
        payload = {
            "state": spec_to_dict(cfg.spec),
            "points": cfg.points,
            "mean": mean,
            "second_moment": second,
            "local_maxima": maxima,
            "max_value": float(np.max(dist.values)),
            "min_value": float(np.min(dist.values)),
            "pair_normalization": dist.normalization,
            "provenance": prov,
        }
        if closure is not None:
            payload["closed_form_sup_deviation"] = float(
                np.max(np.abs(dist.values - closure(dist.grid))))
        write_json(_path(cfg, "pairangle_summary.json"), payload)
    if "svg" in cfg.formats:
        series = [{"label": "quadrature", "x": dist.grid, "y": dist.values}]
        if closure is not None:
            series.append({"label": "closed form", "x": dist.grid,
                           "y": closure(dist.grid)})
        svg_chart(_path(cfg, "pairangle_overlay.svg"), series,
                  title="relative-angle density", xlabel="delta",
                  ylabel="D(delta)", prov=prov)
    return EXIT_OK


def _generate_sharded(spec, count, seed, method, threads):
    """Thread-sharded frame generation.

    The counter RNG keys every draw by absolute frame index, so disjoint
    shards concatenate into exactly the single-threaded result and the
    summed proposal counts reproduce the same acceptance rate.
    """
    if threads <= 1 or count < 2 * threads:
        return generate_frames(spec, count, seed, method=method)
    shard = (count + threads - 1) // threads
    tasks = [(lo, min(shard, count - lo)) for lo in range(0, count, shard)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(
            lambda t: generate_frames(spec, t[1], seed, method=method,
                                      start=t[0]), tasks))
    methods = {p.method for p in parts}
    if len(methods) != 1:
        raise SamplerMethodError(f"shards disagreed on method: {methods}")
    points = np.concatenate([p.points for p in parts])
    proposals = sum(p.meta["proposals"] for p in parts)
    rate = count / proposals if proposals else 1.0
    meta = dict(parts[0].meta)
    meta["proposals"] = proposals
    return FrameSet(spec=parts[0].spec, seed=int(seed), points=points,
                    method=parts[0].method, acceptance_rate=float(rate),
                    meta=meta)


def _write_frame_stats(cfg, state, frames, prov):
    d_hist, a_hist = empirical_pair_stats(frames, bins=cfg.bins)
    distances = pair_separations(frames)
    angles = pair_angles(frames)

    fam, d_ref = _reference_distance(cfg.spec)
    if d_ref is None:
        d_ref = pairstats.distance_distribution(state)
    d_summary = pairstats.summarize(d_ref)

    a_closure = _reference_angle_closure(cfg.spec)
    if a_closure is None:
        a_ref = pairstats.angle_distribution(state)
    else:
        grid = np.linspace(0.0, math.pi, 361)
        a_ref = pairstats.PairDistribution(
            pairstats.PairVariable.REL_ANGLE, grid, a_closure(grid),
            closure=a_closure)

    mean_d = float(np.mean(distances))
    se_d = float(np.std(distances, ddof=1) / math.sqrt(distances.size))
    d_gof = chi_square_gof(distances, d_ref, bins=40)
    a_gof = chi_square_gof(angles, a_ref, bins=40, lo=0.0, hi=math.pi)

    if "csv" in cfg.formats:
        write_csv(_path(cfg, "frames_distance_hist.csv"),
                  ("d", "density", "reference"),
                  zip(d_hist.grid, d_hist.values,
                      d_ref.value_at(d_hist.grid)),
                  prov=prov,
                  comments=("per-frame pair distances, histogram density",))
        write_csv(_path(cfg, "frames_angle_hist.csv"),
                  ("delta", "density", "reference"),
                  zip(a_hist.grid, a_hist.values,
                      a_ref.value_at(a_hist.grid)),
                  prov=prov,
                  comments=("per-frame relative angles folded to [0, pi)",))
    if "json" in cfg.formats:
        write_json(_path(cfg, "frames_stats.json"), {
            "state": spec_to_dict(cfg.spec),
            "count": frames.count,
            "method": frames.method,
            "acceptance_rate": frames.acceptance_rate,
            "mean_distance": mean_d,
            "mean_distance_se": se_d,
            "reference_mean_distance": d_summary.mean,
            "mean_distance_z": (mean_d - d_summary.mean) / se_d,
            "distance_gof": {"statistic": d_gof.statistic, "dof": d_gof.dof,
                             "pvalue": d_gof.pvalue, "bins": d_gof.bins},
            "angle_gof": {"statistic": a_gof.statistic, "dof": a_gof.dof,
                          "pvalue": a_gof.pvalue, "bins": a_gof.bins},
            "provenance": prov,
        })
    if "svg" in cfg.formats:
        svg_chart(_path(cfg, "frames_distance.svg"),
                  [{"label": "frames", "x": d_hist.grid,
                    "y": d_hist.values, "style": "bar"},
                   {"label": "reference", "x": d_hist.grid,
                    "y": d_ref.value_at(d_hist.grid)}],
                  title="empirical pair distance", xlabel="d",
                  ylabel="D(d)", prov=prov)
        svg_chart(_path(cfg, "frames_angle.svg"),
                  [{"label": "frames", "x": a_hist.grid,
                    "y": a_hist.values, "style": "bar"},
                   {"label": "reference", "x": a_hist.grid,
                    "y": a_ref.value_at(a_hist.grid)}],
                  title="empirical relative angle", xlabel="delta",
                  ylabel="D(delta)", prov=prov)


def cmd_frames(cfg):
    frames = _generate_sharded(cfg.spec, cfg.count, cfg.seed, cfg.method,
                               cfg.threads)
    state = build_state(cfg.spec)
    prov = cfg.prov(state)
    save_frames(frames, _path(cfg, "frames.csv"), provenance=prov,
                workers=cfg.threads)
    if cfg.stats:
        _write_frame_stats(cfg, state, frames, prov)
    return EXIT_OK


def cmd_verify(cfg):
    reports = full_report(resolution=cfg.resolution)
    ok = all_engine_checks_confirmed(reports)
    prov = cfg.prov()
    if "json" in cfg.formats:
        write_json(_path(cfg, "verify_report.json"), {
            "resolution": cfg.resolution,
            "all_engine_checks_confirmed": ok,
            "reports": [r.as_dict() for r in reports],
            "provenance": prov,
        })

    widths = (max(len(r.kind) for r in reports),
              max(len(r.claim_id) for r in reports))
    print("%-*s  %-*s  %-21s  %-10s  %s"
          % (widths[0], "state", widths[1], "claim", "verdict", "deviation",
             "gating"))
    for r in reports:
        print("%-*s  %-*s  %-21s  %-10.3e  %s"
              % (widths[0], r.kind, widths[1], r.claim_id, r.verdict,
                 r.max_abs_deviation, "yes" if r.gating else "no"))
    gating = [r for r in reports if r.gating]
    confirmed = sum(1 for r in gating if r.verdict == CONFIRMED)
    print("engine-vs-reference: %d/%d confirmed -> %s"
          % (confirmed, len(gating), "PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_VERIFY


_HANDLERS = {
    "profile": cmd_profile,
    "pairdist": cmd_pairdist,
    "pairangle": cmd_pairangle,
    "frames": cmd_frames,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _HANDLERS[args.command](cfg)
    except _CONFIG_ERRORS as exc:
        print(f"vortexcorr: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"vortexcorr: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _STATE_ERRORS as exc:
        message = f"vortexcorr: wrong tool for this state: {exc}"
        if isinstance(exc, AnisotropicStateError):
            message += " (hint: use --two-angle)"
        print(message, file=sys.stderr)
        return EXIT_STATE
    except _NUMERIC_ERRORS as exc:
        print(f"vortexcorr: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BrokenExecutor as exc:
        print(f"vortexcorr: a worker process died: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry():
    """Console-script hook."""
    sys.exit(main())


if __name__ == "__main__":
    entry()
