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
from dataclasses import asdict, dataclass

import numpy as np

from . import pairstats
from .density import density_grid, rho1
from .errors import (AlgebraInconsistencyError, AnisotropicStateError,
                     EmptyFramesError, NoPairsError, PauliViolationError,
                     SamplerMethodError, UnsupportedStateError)
from .io import provenance, write_csv, write_json
from .oracle import (_CHUNK_TARGET, ANGLE_FORMS, CONFIRMED, DEFAULT_RESOLUTION,
                     DISTANCE_FORMS, TWO_ANGLE_FORMS,
                     all_engine_checks_confirmed, full_report,
                     printed_family, rho1_closed)
from .sampler import (chi_square_gof, empirical_pair_stats, generate_frames,
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
_NUMERIC_ERRORS = (AlgebraInconsistencyError, SamplerMethodError,
                   EmptyFramesError, FloatingPointError,
                   np.linalg.LinAlgError)
_STATE_ERRORS = (AnisotropicStateError, NoPairsError, UnsupportedStateError)

_FORMATS = ("csv", "json", "svg")

_STATE_KEYS = ("state", "n", "m", "alpha_x", "alpha_y", "alpha", "nbar",
               "nbar_a", "nbar_b", "basis")
_OUTPUT_KEYS = ("out", "formats", "threads")

# flat key sets a JSON config file may provide, per command
_COMMAND_KEYS = {
    "profile": _STATE_KEYS + _OUTPUT_KEYS + ("step", "extent"),
    "pairdist": _STATE_KEYS + _OUTPUT_KEYS + ("points", "two_angle"),
    "pairangle": _STATE_KEYS + _OUTPUT_KEYS + ("points", "two_angle"),
    "frames": _STATE_KEYS + _OUTPUT_KEYS + ("seed", "count", "stats",
                                            "bins"),
    "verify": _OUTPUT_KEYS + ("resolution",),
}

_COMMAND_DEFAULTS = {
    "profile": {"step": 0.05, "extent": 6.0},
    "pairdist": {"points": None, "two_angle": False},
    "pairangle": {"points": None, "two_angle": False},
    "frames": {"seed": None, "count": 1000, "stats": False, "bins": 64},
    "verify": {"resolution": DEFAULT_RESOLUTION},
}

_DISTRIBUTION_POINTS = {"pairdist": pairstats.DEFAULT_DISTANCE_POINTS,
                        "pairangle": pairstats.DEFAULT_ANGLE_POINTS}
# --points ceilings, checked before anything is allocated: at them the
# relative-angle law peaks near 0.09 GB and the joint law near 0.2 GB
_MAX_POINTS = 10 ** 6
_MAX_TWO_ANGLE_POINTS = 2048
# --resolution ceiling: past it the pair sweep's chunk is stuck at one
# column of the resolution^2 plane, so its arrays grow as resolution^2
_MAX_RESOLUTION = math.isqrt(_CHUNK_TARGET)
# frames ceilings, checked before anything is allocated: at --count 10^7
# `frames --stats --threads 2` peaks near 0.77 GB; at --bins 10^5 the
# histograms and their charts stay under 0.1 GB (10^6 bins: 0.53 GB)
_MAX_COUNT = 10 ** 7
_MAX_BINS = 10 ** 5
# profile grid points per axis, round(2 extent / step) + 1: at the ceiling
# the grid, its mode amplitudes and the CSV blocks peak near 0.42 GB
_MAX_PROFILE_AXIS = 2048


@dataclass
class RunConfig:
    """Fully resolved run description; `payload` is what gets hashed into
    provenance, so it deliberately excludes presentation-only knobs
    (output directory, format selection, thread cap)."""
    command: str
    spec: object = None
    seed: int = None
    count: int = 1000
    points: int = pairstats.DEFAULT_DISTANCE_POINTS
    step: float = 0.05
    extent: float = 6.0
    bins: int = 64
    resolution: int = DEFAULT_RESOLUTION
    threads: int = 1
    two_angle: bool = False
    stats: bool = False
    out: str = "."
    formats: tuple = _FORMATS

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
                     help="frames: sample frame blocks in N threads; "
                          "results do not depend on it")


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
                     "maxima, bosonic weight\n"
                     "  pairdist_overlay.svg"),
        "pairangle": ("outputs:\n"
                      "  pairangle_distribution.csv  delta,density"
                      "[,closed_form]\n"
                      "  pairangle_summary.json      mean, second moment, "
                      "maxima, bosonic weight\n"
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
                    help="pair-grid points per axis "
                         f"(default {DEFAULT_RESOLUTION})")
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
    for key in ("n", "m", "basis", "alpha_x", "alpha_y", "alpha", "nbar",
                "nbar_a", "nbar_b"):
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
        cfg["points"] = (pairstats.DEFAULT_TWO_ANGLE_POINTS
                         if cfg.get("two_angle")
                         else _DISTRIBUTION_POINTS[command])

    run = RunConfig(command=command)
    if command != "verify":
        run.spec = _build_spec(cfg)
    run.out = str(cfg["out"])
    run.formats = _parse_formats(cfg["formats"])
    try:
        run.threads = int(cfg["threads"])
    except (TypeError, ValueError, OverflowError):
        raise SpecError(f"--threads needs an integer, got {cfg['threads']!r}")
    if run.threads < 1:
        raise SpecError("--threads must be >= 1")

    for key, caster in (("seed", int), ("count", int), ("points", int),
                        ("step", float), ("extent", float), ("bins", int),
                        ("resolution", int),
                        ("two_angle", bool), ("stats", bool)):
        if key in cfg and cfg[key] is not None:
            try:
                setattr(run, key, caster(cfg[key]))
            except (TypeError, ValueError, OverflowError):
                raise SpecError(f"bad value for {key}: {cfg[key]!r}")

    if command == "frames":
        if cfg.get("seed") is None:
            raise SpecError("frames requires an explicit --seed "
                            "(reproducibility: no implicit entropy)")
        if not 0 <= run.seed < 2 ** 64:
            raise SpecError("--seed must lie in [0, 2**64)")
        if not 0 <= run.count <= _MAX_COUNT:
            raise SpecError(f"--count must be between 0 and {_MAX_COUNT}")
        if run.stats and run.count == 0:
            raise SpecError("--stats needs --count >= 1")
        if not 4 <= run.bins <= _MAX_BINS:
            raise SpecError(f"--bins must be between 4 and {_MAX_BINS}")
    if command in ("pairdist", "pairangle"):
        ceiling = _MAX_TWO_ANGLE_POINTS if run.two_angle else _MAX_POINTS
        if not 8 <= run.points <= ceiling:
            raise SpecError(f"--points must be between 8 and {ceiling}")
    if command == "profile":
        if not (0.0 < run.step < math.inf and 0.0 < run.extent < math.inf):
            raise SpecError("--step and --extent must be finite and positive")
        # round(ratio) + 1 points per axis; an overflowing ratio is inf
        if not 2.0 * run.extent / run.step < _MAX_PROFILE_AXIS - 0.5:
            raise SpecError(f"--extent and --step give more than "
                            f"{_MAX_PROFILE_AXIS} grid points per axis")
    if command == "verify" and not 8 <= run.resolution <= _MAX_RESOLUTION:
        raise SpecError(
            f"--resolution must be between 8 and {_MAX_RESOLUTION}")
    return run


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
        # values[i, j] sits at (x[i], y[j]); rows run over j within i
        write_csv(_path(cfg, "profile_grid.csv"), ("x", "y", "density"),
                  (fld.x[:, None], fld.y[None, :], fld.values), prov=prov,
                  comments=("one-body density rho1(x, y) on a uniform grid",))
        write_csv(_path(cfg, "profile_radial_cut.csv"),
                  ("r", "density", "closed_form"), (r_axis, cut, closed_cut),
                  prov=prov, comments=("cut along the radius at angle 0",))
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


def _write_columns(path, comment, prov, **columns):
    """CSV of the named column arrays in order, leaving out those that are
    None (a closed form the state has none of)."""
    columns = {k: v for k, v in columns.items() if v is not None}
    write_csv(path, tuple(columns), tuple(columns.values()), prov=prov,
              comments=(comment,))


def _two_angle_outputs(cfg):
    state = build_state(cfg.spec)
    dist = pairstats.two_angle_distribution(state, n_points=cfg.points)
    prov = cfg.prov(state)
    law = TWO_ANGLE_FORMS.get(printed_family(cfg.spec))
    closed = law(dist.grid[:, None], dist.grid[None, :]) if law else None

    if "csv" in cfg.formats:
        _write_columns(_path(cfg, "two_angle_surface.csv"),
                       "joint density of the two detection angles", prov,
                       theta_1=dist.grid[:, None], theta_2=dist.grid[None, :],
                       density=dist.values, closed_form=closed)
    if "json" in cfg.formats:
        payload = {
            "state": spec_to_dict(cfg.spec),
            "points": cfg.points,
            "integral": dist.integral(),
            "max_value": float(np.max(dist.values)),
            "min_value": float(np.min(dist.values)),
            "provenance": prov,
        }
        if closed is not None:
            payload["closed_form_sup_deviation"] = float(
                np.max(np.abs(dist.values - closed)))
        write_json(_path(cfg, "two_angle_summary.json"), payload)
    if "svg" in cfg.formats:
        svg_heatmap(_path(cfg, "two_angle_heatmap.svg"), dist.grid,
                    dist.grid, dist.values.T, title="joint angle density",
                    xlabel="theta 1", ylabel="theta 2", prov=prov)
    return EXIT_OK


def _overlay_chart(cfg, name, dist, closed, prov, **labels):
    series = [{"label": "kernel", "x": dist.grid, "y": dist.values}]
    if closed is not None:
        series.append({"label": "closed form", "x": dist.grid, "y": closed})
    svg_chart(_path(cfg, name), series, prov=prov, **labels)


def cmd_pairdist(cfg):
    if cfg.two_angle:
        return _two_angle_outputs(cfg)
    state = build_state(cfg.spec)
    dist = pairstats.distance_distribution(state, n_points=cfg.points)
    summary = pairstats.summarize(dist)
    prov = cfg.prov(state)
    fam = printed_family(cfg.spec)
    law = DISTANCE_FORMS.get(fam)
    closed = law(dist.grid) if law else None

    if "csv" in cfg.formats:
        _write_columns(_path(cfg, "pairdist_distribution.csv"),
                       "pair-distance density D(d)", prov, d=dist.grid,
                       density=dist.values, closed_form=closed)
    if "json" in cfg.formats:
        payload = {
            "state": spec_to_dict(cfg.spec),
            "points": cfg.points,
            "mean": summary.mean,
            "second_moment": summary.second_moment,
            "variance": summary.second_moment - summary.mean ** 2,
            "local_maxima": summary.local_maxima,
            "bosonic_weight": summary.meta["bosonic_weight"],
            "pair_normalization": dist.normalization,
            # the overlaid Bose closed form carries the restored leading
            # d factor; the flag records that the corrected form is overlaid
            "bose-form-corrected": fam == "bose-fock",
            "provenance": prov,
        }
        if closed is not None:
            payload["closed_form_sup_deviation"] = float(
                np.max(np.abs(dist.values - closed)))
        write_json(_path(cfg, "pairdist_summary.json"), payload)
    if "svg" in cfg.formats:
        _overlay_chart(cfg, "pairdist_overlay.svg", dist, closed, prov,
                       title="pair-distance density", xlabel="d",
                       ylabel="D(d)")
    return EXIT_OK


def cmd_pairangle(cfg):
    if cfg.two_angle:
        return _two_angle_outputs(cfg)
    state = build_state(cfg.spec)
    dist = pairstats.angle_distribution(state, n_points=cfg.points)
    summary = pairstats.summarize(dist)
    prov = cfg.prov(state)
    law = ANGLE_FORMS.get(printed_family(cfg.spec))
    closed = law(dist.grid) if law else None

    if "csv" in cfg.formats:
        _write_columns(_path(cfg, "pairangle_distribution.csv"),
                       "relative-angle density on [0, pi)", prov,
                       delta=dist.grid, density=dist.values,
                       closed_form=closed)
    if "json" in cfg.formats:
        payload = {
            "state": spec_to_dict(cfg.spec),
            "points": cfg.points,
            "mean": summary.mean,
            "second_moment": summary.second_moment,
            "local_maxima": summary.local_maxima,
            "bosonic_weight": summary.meta["bosonic_weight"],
            "max_value": float(np.max(dist.values)),
            "min_value": float(np.min(dist.values)),
            "pair_normalization": dist.normalization,
            "provenance": prov,
        }
        if closed is not None:
            payload["closed_form_sup_deviation"] = float(
                np.max(np.abs(dist.values - closed)))
        write_json(_path(cfg, "pairangle_summary.json"), payload)
    if "svg" in cfg.formats:
        _overlay_chart(cfg, "pairangle_overlay.svg", dist, closed, prov,
                       title="relative-angle density", xlabel="delta",
                       ylabel="D(delta)")
    return EXIT_OK


def _frame_references(cfg, state):
    """Reference distance and angle laws of --stats. Built before any file
    is written, so a state without an angle law leaves no output behind."""
    d_ref = pairstats.distance_distribution(state)
    a_closure = ANGLE_FORMS.get(printed_family(cfg.spec))
    if a_closure is None:
        return d_ref, pairstats.angle_distribution(state)
    grid = np.linspace(0.0, math.pi, pairstats.DEFAULT_ANGLE_POINTS)
    return d_ref, pairstats.PairDistribution(
        pairstats.PairVariable.REL_ANGLE, grid, a_closure(grid),
        closure=a_closure)


def _mean_se_z(samples, reference):
    """Sample mean, its standard error and its z-score against
    `reference`. One frame has no spread; non-finite statistics are
    written as null."""
    mean = float(np.mean(samples))
    se = (float(np.std(samples, ddof=1) / math.sqrt(samples.size))
          if samples.size > 1 else math.nan)
    return mean, se, (mean - reference) / se if se > 0.0 else math.nan


def _write_frame_stats(cfg, frames, prov, d_ref, a_ref):
    d_hist, a_hist = empirical_pair_stats(frames, bins=cfg.bins)
    distances = d_hist.meta["samples"]
    d_at = d_ref.value_at(d_hist.grid)
    a_at = a_ref.value_at(a_hist.grid)
    d_summary = pairstats.summarize(d_ref)

    mean_d, se_d, z_d = _mean_se_z(distances, d_summary.mean)
    # E[cos 2 delta] = (2w - 1)/2 for every state, so 1/2 + cos 2 delta
    # estimates the bosonic weight w per frame
    weight = d_ref.meta["bosonic_weight"]
    w_hat, se_w, z_w = _mean_se_z(
        0.5 + np.cos(2.0 * a_hist.meta["samples"]), weight)
    d_gof = chi_square_gof(distances, d_ref, bins=40)
    a_gof = chi_square_gof(a_hist.meta["samples"], a_ref, bins=40, lo=0.0,
                           hi=math.pi)

    outputs = (("distance", "d", d_hist, d_at, "pair distance",
                "per-frame pair distances, histogram density"),
               ("angle", "delta", a_hist, a_at, "relative angle",
                "per-frame relative angles folded to [0, pi)"))
    for name, x, hist, at, _, comment in outputs:
        if "csv" in cfg.formats:
            write_csv(_path(cfg, f"frames_{name}_hist.csv"),
                      (x, "density", "reference"),
                      (hist.grid, hist.values, at), prov=prov,
                      comments=(comment,))
    if "json" in cfg.formats:
        write_json(_path(cfg, "frames_stats.json"), {
            "state": spec_to_dict(cfg.spec),
            "count": frames.count,
            "method": frames.method,
            "acceptance_rate": frames.acceptance_rate,
            "mean_distance": mean_d,
            "mean_distance_se": se_d,
            "reference_mean_distance": d_summary.mean,
            "mean_distance_z": z_d,
            "bosonic_weight": weight,
            "bosonic_weight_estimate": w_hat,
            "bosonic_weight_estimate_se": se_w,
            "bosonic_weight_z": z_w,
            "distance_gof": asdict(d_gof),
            "angle_gof": asdict(a_gof),
            "provenance": prov,
        })
    for name, x, hist, at, title, _ in outputs:
        if "svg" in cfg.formats:
            svg_chart(_path(cfg, f"frames_{name}.svg"),
                      [{"label": "frames", "x": hist.grid,
                        "y": hist.values, "style": "bar"},
                       {"label": "reference", "x": hist.grid, "y": at}],
                      title="empirical " + title, xlabel=x,
                      ylabel=f"D({x})", prov=prov)


def cmd_frames(cfg):
    state = build_state(cfg.spec)
    refs = _frame_references(cfg, state) if cfg.stats else None
    frames = generate_frames(state, cfg.count, cfg.seed, threads=cfg.threads)
    prov = cfg.prov(state)
    save_frames(frames, _path(cfg, "frames.csv"), provenance=prov)
    if cfg.stats:
        _write_frame_stats(cfg, frames, prov, *refs)
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


def entry():
    """Console-script hook."""
    sys.exit(main())


if __name__ == "__main__":
    entry()
