"""Command line front end.

Five subcommands: `profile` (one-body density grid), `pairdist` and
`pairangle` (two-particle distance / relative-angle laws, with a joint
two-angle mode, which anisotropic states need), `frames` (reproducible
single-shot position frames), and `verify` (engine against the
independent reference implementation).

Run configuration merges three layers: built-in defaults, then a JSON
config file given with --config, then explicit flags (flags win). Exit
codes are stable API: 0 success, 1 verification failure, 2 configuration
error, 3 numerical failure, 4 wrong tool for the requested state.
"""

import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from . import pairstats
from .density import density_grid, rho1
from .errors import (AlgebraInconsistencyError, AnisotropicStateError,
                     EmptyFramesError, NoPairsError, PauliViolationError,
                     SamplerMethodError, UnsupportedStateError)
from .fock import harmonics, pair_isotropy_defect
from .io import provenance, write_csv, write_json
from .oracle import (ANGLE_FORMS, CONFIRMED, DEFAULT_RESOLUTION,
                     DISTANCE_FORMS, TWO_ANGLE_FORMS,
                     all_engine_checks_confirmed, full_report,
                     printed_family, rho1_closed)
from .sampler import (chi_square_gof, empirical_pair_stats, generate_frames,
                      save_frames)
from .states import (KINDS, SpecError, build_state, spec_from_dict,
                     spec_to_dict, strict_cast)
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

# --points ceilings, checked before anything is allocated: at them the
# relative-angle law peaks near 0.08 GB and the joint law near 0.17 GB
_MAX_POINTS = 10 ** 6
_MAX_TWO_ANGLE_POINTS = 2048
# profile grid points per axis, round(2 extent / step) + 1: at the ceiling
# the grid, filled and written a block at a time, peaks near 0.07 GB
_MAX_PROFILE_AXIS = 2048


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


# ---------------------------------------------------------------------------
# the settings table: parser, config keys, defaults, casting and bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Setting:
    """One row of the settings table. The flag is `name` with dashes;
    {default} in `help` stands for `default`. `group` titles the flag's
    help section, and the command's own settings (None) are what
    provenance hashes. `type` is the config value's JSON type, and int
    and float flags are converted by it (bool: a switch); other casters
    apply as they are. `choices` are listed in the flag's help.
    `bounds` (lo, hi) give the message for a value outside; hi may be None."""
    name: str
    commands: tuple
    help: str
    group: str = None
    type: object = str
    default: object = None
    bounds: tuple = None
    metavar: str = None
    choices: tuple = None

    @property
    def flag(self):
        return "--" + self.name.replace("_", "-")


_STATE = "state selection"
_OUTPUT = "output"
_LAWS = ("pairdist", "pairangle")
_STATEFUL = ("profile",) + _LAWS + ("frames",)
_ALL = _STATEFUL + ("verify",)

SETTINGS = (
    Setting("state", _STATEFUL, "state family (default {default})", _STATE,
            default="fermi-fock", choices=KINDS),
    Setting("n", _STATEFUL, "occupation of the first mode (Fock states)",
            _STATE, int),
    Setting("m", _STATEFUL, "occupation of the second mode (Fock states)",
            _STATE, int),
    Setting("alpha_x", _STATEFUL,
            "coherent amplitude on the first dipole mode", _STATE,
            metavar="A+BI"),
    Setting("alpha_y", _STATEFUL,
            "coherent amplitude on the second dipole mode", _STATE,
            metavar="A+BI"),
    Setting("alpha", _STATEFUL, "cothermal displacement per mode", _STATE,
            metavar="A+BI"),
    Setting("nbar", _STATEFUL, "cothermal thermal occupancy per mode",
            _STATE, float),
    Setting("nbar_a", _STATEFUL, "thermal occupancy of the first mode",
            _STATE, float),
    Setting("nbar_b", _STATEFUL, "thermal occupancy of the second mode",
            _STATE, float),
    Setting("basis", _STATEFUL, "mode basis the correlators are expressed in",
            _STATE, choices=("vortex", "dipole")),
    Setting("out", _ALL, "output directory (default: current directory)",
            _OUTPUT, default=".", metavar="DIR"),
    Setting("formats", _ALL,
            "comma-separated subset of csv,json,svg (default: all)", _OUTPUT,
            _parse_formats, _FORMATS, metavar="LIST"),
    # a flag only: no config file names another one
    Setting("config", _ALL,
            "JSON config file; explicit flags override its entries", _OUTPUT,
            metavar="FILE"),
    Setting("threads", ("frames",),
            "sample frame blocks in N threads; results do not depend on it",
            _OUTPUT, int, 1, (1, None), "N"),
    Setting("step", ("profile",), "grid spacing (default {default})",
            type=float, default=0.05),
    Setting("extent", ("profile",),
            "half-width of the grid box (default {default})", type=float,
            default=6.0),
    # default: the law's own grid size, set with the --points ceiling
    Setting("points", _LAWS, "tabulation grid size", type=int),
    Setting("two_angle", _LAWS, "joint density of both detection angles "
            "(required for anisotropic states)", type=bool, default=False),
    Setting("seed", ("frames",),
            "RNG seed; mandatory, there is no implicit entropy", type=int),
    # frames ceilings, checked before anything is allocated: at --count
    # 10^7 `frames --stats --threads 2` peaks near 0.74 GB; at --bins 10^5
    # the histograms and their charts stay under 0.1 GB (10^6 bins: 0.53 GB)
    Setting("count", ("frames",), "number of frames (default {default})",
            type=int, default=1000, bounds=(0, 10 ** 7)),
    Setting("stats", ("frames",),
            "also write empirical histograms and fit statistics", type=bool,
            default=False),
    Setting("bins", ("frames",),
            "histogram bins for --stats (default {default})", type=int,
            default=64, bounds=(4, 10 ** 5)),
    # the pair sweep's time grows as resolution^2, its memory not at all:
    # on a 2-core VM verify took 0.07-0.1 s at 61, 0.5 s (39 MB RSS) at 200
    Setting("resolution", ("verify",),
            "pair-grid points per axis (default {default})", type=int,
            default=DEFAULT_RESOLUTION, bounds=(8, 200)),
)

# the settings a JSON config file may give, per command
KEYS = {command: tuple(s for s in SETTINGS
                       if command in s.commands and s.name != "config")
        for command in _ALL}


class RunConfig(SimpleNamespace):
    """Fully resolved run: `command`, the state `spec` (None for verify)
    and one attribute per setting outside the state selection. `payload`
    is what gets hashed into provenance, so it leaves out the output
    group's presentation-only knobs."""

    def payload(self):
        data = {"command": self.command}
        if self.spec is not None:
            data["state"] = spec_to_dict(self.spec)
        data.update((s.name, getattr(self, s.name))
                    for s in KEYS[self.command] if s.group is None)
        return data

    def prov(self, state=None):
        flags = state.flags if state is not None else ()
        return provenance(config=self.payload(),
                          seed=getattr(self, "seed", None), flags=flags)


# ---------------------------------------------------------------------------
# reading argv by the settings table, and config resolution
# ---------------------------------------------------------------------------

_PROG = "vortexcorr"
_HELP_TEXT = "show this help and exit"
_TWO_ANGLE_OUTPUTS = ("\nwith --two-angle:\n"
                      "  two_angle_surface.csv  theta_1,theta_2,density"
                      "[,closed_form]\n"
                      "  two_angle_summary.json\n"
                      "  two_angle_heatmap.svg")
# each command's help line, and the outputs its --help lists
_COMMANDS = {
    "profile": ("one-body density grid, radial cut, heatmap",
                "outputs:\n"
                "  profile_grid.csv        x,y,density\n"
                "  profile_radial_cut.csv  r,density,closed_form\n"
                "  profile_summary.json    moments and peaks\n"
                "  profile_heatmap.svg"),
    "pairdist": ("pair-distance distribution with closed-form overlay",
                 "outputs:\n"
                 "  pairdist_distribution.csv  d,density[,closed_form]\n"
                 "  pairdist_summary.json      mean, second moment, "
                 "maxima, bosonic weight\n"
                 "  pairdist_overlay.svg" + _TWO_ANGLE_OUTPUTS),
    "pairangle": ("relative-angle distribution with closed-form overlay",
                  "outputs:\n"
                  "  pairangle_distribution.csv  delta,density"
                  "[,closed_form]\n"
                  "  pairangle_summary.json      mean, second moment, "
                  "maxima, bosonic weight\n"
                  "  pairangle_overlay.svg" + _TWO_ANGLE_OUTPUTS),
    "frames": ("reproducible single-shot detection frames",
               "outputs:\n"
               "  frames.csv  header line, then frame_index,x1,y1,x2,y2\n"
               "with --stats:\n"
               "  frames_distance_hist.csv  d,density,reference\n"
               "  frames_angle_hist.csv     delta,density,reference\n"
               "  frames_stats.json         mean, z-score, chi-square fits\n"
               "  frames_distance.svg, frames_angle.svg"),
    "verify": ("cross-check the engine against the independent reference "
               "implementation",
               "outputs:\n"
               "  verify_report.json  one row per cross-check claim\n"
               "  stdout table        state, claim, verdict, deviation, "
               "gating\n"
               "exit 0 iff every engine-vs-reference row is Confirmed"),
}


def _invocation(setting):
    """The flag of `setting` as help shows it, with its value's name."""
    if setting.type is bool:
        return setting.flag
    value = ("{" + ",".join(setting.choices) + "}" if setting.choices
             else setting.metavar or setting.name.upper())
    return f"{setting.flag} {value}"


def _section(title, rows):
    """A help section: `title`, then one line per (invocation, text) row,
    the texts aligned; a long invocation puts its text on the next line."""
    lines = [title + ":"]
    for left, text in rows:
        lines += (["  " + left, " " * 24 + text] if len(left) > 20
                  else [f"  {left:<20}  {text}"])
    return "\n".join(lines)


def _help(command):
    """The --help text of `command`, or of the program for None."""
    if command is None:
        return "\n\n".join((
            _usage(None),
            "Spatial one- and two-particle correlations of two-mode vortex "
            "states. CSV columns and file layouts are documented in "
            "FORMATS.md.",
            _section("commands", [(c, blurb)
                                  for c, (blurb, _) in _COMMANDS.items()]),
            _section("options", [("-h, --help", _HELP_TEXT),
                                 ("--version", "show the version and exit")])))
    blurb, outputs = _COMMANDS[command]
    groups = {None: [("-h, --help", _HELP_TEXT)]}
    for s in SETTINGS:
        if command in s.commands:
            groups.setdefault(s.group, []).append(
                (_invocation(s), s.help.format(default=s.default)))
    return "\n\n".join((_usage(command), blurb,
                         *(_section(title or "options", rows)
                           for title, rows in groups.items()), outputs))


def _usage(command):
    """The usage line of `command`, or of the program for None."""
    if command is None:
        return (f"usage: {_PROG} [-h] [--version] "
                "{" + ",".join(_COMMANDS) + "} ...")
    return f"usage: {_PROG} {command} [-h] [--flag VALUE | --switch]..."


def _refuse(command, message):
    """A usage error: the usage line and the message on stderr, then exit
    status 2."""
    prog = _PROG if command is None else f"{_PROG} {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_CONFIG)


def _flag(command, token, flags):
    """The one of `flags` that `token` names, in full or by a prefix no
    other flag shares; -h stands for --help."""
    name = "--help" if token == "-h" else token.partition("=")[0]
    if name in flags:
        return name
    hits = [f for f in flags if f.startswith(name)] if (
        name.startswith("--") and len(name) > 2) else []
    if len(hits) > 1:
        _refuse(command, f"ambiguous option: {name} could match "
                + ", ".join(hits))
    if not hits:
        _refuse(command, f"unrecognized arguments: {token}")
    return hits[0]


def _read_argv(argv=None):
    """The command and one attribute per setting of it, None where no
    flag gives it, read from `argv` (default sys.argv[1:]) by the
    settings table. A flag takes its value as the next token, whatever
    it starts with, or after '='; int and float flags are converted by
    int() and float(), and every other check is resolve_config's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0].startswith("-"):
        if _flag(None, argv[0], ("--help", "--version")) == "--version":
            print(f"{_PROG} {VERSION}")
        else:
            print(_help(None))
        raise SystemExit(EXIT_OK)
    if not argv:
        _refuse(None, "the following arguments are required: command")
    command = argv[0]
    if command not in _COMMANDS:
        _refuse(None, f"argument command: invalid choice: {command!r} "
                "(choose from " + ", ".join(map(repr, _COMMANDS)) + ")")
    rows = {s.flag: s for s in SETTINGS if command in s.commands}
    args = SimpleNamespace(command=command,
                           **{s.name: None for s in rows.values()})
    tokens = iter(argv[1:])
    for token in tokens:
        flag = _flag(command, token, (*rows, "--help"))
        if flag == "--help":
            print(_help(command))
            raise SystemExit(EXIT_OK)
        s = rows[flag]
        _, given, value = token.partition("=")
        if s.type is bool:
            if given:
                _refuse(command, f"argument {flag}: ignored explicit "
                        f"argument {value!r}")
            value = True
        elif not given:
            value = next(tokens, None)
            if value is None:
                _refuse(command, f"argument {flag}: expected one argument")
        if s.type in (int, float):
            try:
                value = s.type(value)
            except ValueError:
                _refuse(command, f"argument {flag}: invalid "
                        f"{s.type.__name__} value: {value!r}")
        setattr(args, s.name, value)
    return args


def build_parser():
    """The command line parser, kept for its callers: its parse_args(argv)
    is _read_argv."""
    return SimpleNamespace(parse_args=_read_argv)


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


def _value(setting, value):
    """The setting's value, given by a flag or a config file, or None:
    its default, or the value cast to its type and held to its bounds.
    State entries are left to spec_from_dict."""
    if value is None:
        return setting.default
    if setting.group == _STATE:
        return value
    if setting.type not in (bool, int, float, str):
        return setting.type(value)  # the formats' own messages
    try:
        value = strict_cast(value, setting.type)
    except (TypeError, ValueError, OverflowError):
        raise SpecError(f"bad value for {setting.name}: {value!r}") from None
    if setting.bounds:
        lo, hi = setting.bounds
        if not lo <= value <= (math.inf if hi is None else hi):
            raise SpecError(f"{setting.flag} must be " + (
                f">= {lo}" if hi is None else f"between {lo} and {hi}"))
    return value


def _build_spec(state):
    """The state settings given, over the family's canonical spec."""
    data = {key: value for key, value in state.items() if value is not None}
    return spec_from_dict({"kind": data.pop("state"), **data})


def resolve_config(args):
    """Merge the table's defaults, the optional JSON config file, and
    explicit flags (flags win); then the checks that tie settings
    together or carry their own message."""
    command = args.command
    file_cfg = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_cfg) - {s.name for s in KEYS[command]})
    if unknown:
        raise SpecError(f"config keys not understood by '{command}': "
                        + ", ".join(unknown))

    given = {s: getattr(args, s.name) for s in KEYS[command]}
    given = {s: file_cfg.get(s.name) if value is None else value
             for s, value in given.items()}
    state = {s.name: _value(s, v) for s, v in given.items()
             if s.group == _STATE}
    run = RunConfig(command=command,
                    spec=_build_spec(state) if state else None,
                    **{s.name: _value(s, v) for s, v in given.items()
                       if s.group != _STATE})

    if command == "frames":
        if run.seed is None:
            raise SpecError("frames requires an explicit --seed "
                            "(reproducibility: no implicit entropy)")
        if not 0 <= run.seed < 2 ** 64:
            raise SpecError("--seed must lie in [0, 2**64)")
        if run.stats and run.count == 0:
            raise SpecError("--stats needs --count >= 1")
    if command in _LAWS:
        if run.points is None:
            run.points = (pairstats.DEFAULT_TWO_ANGLE_POINTS if run.two_angle
                          else pairstats.DEFAULT_DISTANCE_POINTS
                          if command == "pairdist"
                          else pairstats.DEFAULT_ANGLE_POINTS)
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
    return run


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _path(cfg, name):
    """Where output `name` goes, or None when --formats leaves out the
    format its suffix names (.csv, .json or .svg)."""
    if name.rsplit(".", 1)[1] not in cfg.formats:
        return None
    out = cfg.out.rstrip("/") or cfg.out[:1]  # "/" and "//" stay the root
    if out in ("", "."):
        return name
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _write(cfg, name, writer, *args, **kwargs):
    """writer(path, *args, **kwargs) for output `name`, as _path decides."""
    path = _path(cfg, name)
    if path is not None:
        writer(path, *args, **kwargs)


def _write_summary(cfg, name, payload, prov):
    """JSON output `name`: `payload` with the run's provenance and, for
    every command that takes a state, the state."""
    state = {} if cfg.spec is None else {"state": spec_to_dict(cfg.spec)}
    _write(cfg, name, write_json, {**payload, **state, "provenance": prov})


def cmd_profile(cfg, state, prov):
    fld = density_grid(state, extent=cfg.extent, step=cfg.step)

    r_axis = np.arange(0.0, cfg.extent + 0.5 * cfg.step, cfg.step)
    cut = rho1(state, r_axis, np.zeros_like(r_axis))
    closed_cut = rho1_closed(cfg.spec, r_axis, np.zeros_like(r_axis))

    # values[i, j] sits at (x[i], y[j]); rows run over j within i
    _write(cfg, "profile_grid.csv", write_csv, ("x", "y", "density"),
           (fld.x[:, None], fld.y[None, :], fld.values), prov=prov,
           comments=("one-body density rho1(x, y) on a uniform grid",))
    _write(cfg, "profile_radial_cut.csv", write_csv,
           ("r", "density", "closed_form"), (r_axis, cut, closed_cut),
           prov=prov, comments=("cut along the radius at angle 0",))
    _write_summary(cfg, "profile_summary.json", {
        "grid": {"extent": cfg.extent, "step": cfg.step,
                 "points_per_axis": len(fld.x)},
        "total": fld.total,
        "center_value": float(rho1(state, 0.0, 0.0)),
        "max_value": float(np.max(fld.values)),
        "peak_radius": float(r_axis[int(np.argmax(cut))]),
        "radial_cut_vs_closed_form_sup": float(
            np.max(np.abs(cut - closed_cut))),
    }, prov)
    _write(cfg, "profile_heatmap.svg", svg_heatmap, fld.x, fld.y,
           fld.values.T, title="one-body density", prov=prov)
    return EXIT_OK


def _write_law(cfg, prov, name, dist, forms, axes, summary, comment,
               **labels):
    """Write one law's files, as --formats asks: its table, `summary`
    with the entries every law shares, and its chart. `axes` maps the
    grid columns to their arrays: one axis for a distribution, with an
    overlay chart, two broadcast ones for a surface, with a heatmap. The
    closed form of the printed family in `forms`, where there is one, is
    evaluated on them, written as the last column, overlaid and measured
    in the summary."""
    law = forms.get(printed_family(cfg.spec))
    closed = law(*axes.values()) if law else None
    surface = len(axes) > 1
    columns = {**axes, "density": dist.values}
    summary["points"] = cfg.points
    if closed is not None:
        columns["closed_form"] = closed
        summary["closed_form_sup_deviation"] = float(
            np.max(np.abs(dist.values - closed)))
    _write(cfg, name + ("_surface.csv" if surface else "_distribution.csv"),
           write_csv, tuple(columns), tuple(columns.values()), prov=prov,
           comments=(comment,))
    _write_summary(cfg, name + "_summary.json", summary, prov)
    if surface:
        _write(cfg, name + "_heatmap.svg", svg_heatmap,
               *(a.ravel() for a in axes.values()), dist.values.T,
               prov=prov, **labels)
    else:
        series = [{"label": "kernel", "x": dist.grid, "y": dist.values}]
        if closed is not None:
            series.append({"label": "closed form", "x": dist.grid,
                           "y": closed})
        _write(cfg, name + "_overlay.svg", svg_chart, series, prov=prov,
               **labels)
    return EXIT_OK


def _two_angle_outputs(cfg, state, prov):
    dist = pairstats.two_angle_distribution(state, n_points=cfg.points)
    return _write_law(
        cfg, prov, "two_angle", dist, TWO_ANGLE_FORMS,
        {"theta_1": dist.grid[:, None], "theta_2": dist.grid[None, :]},
        {"integral": dist.integral(),
         "max_value": float(np.max(dist.values)),
         "min_value": float(np.min(dist.values))},
        "joint density of the two detection angles",
        title="joint angle density", xlabel="theta 1", ylabel="theta 2")


def _moments(dist):
    """The summary entries of a distance or relative-angle law."""
    return {**asdict(pairstats.summarize(dist)),
            "bosonic_weight": dist.meta["bosonic_weight"],
            "pair_normalization": dist.normalization}


def cmd_pairdist(cfg, state, prov):
    dist = pairstats.distance_distribution(state, n_points=cfg.points)
    summary = _moments(dist)
    summary["variance"] = summary["second_moment"] - summary["mean"] ** 2
    # the overlaid Bose closed form carries the restored leading d factor;
    # the flag records that the corrected form is overlaid
    summary["bose-form-corrected"] = printed_family(cfg.spec) == "bose-fock"
    return _write_law(cfg, prov, "pairdist", dist, DISTANCE_FORMS,
                      {"d": dist.grid}, summary, "pair-distance density D(d)",
                      title="pair-distance density", xlabel="d",
                      ylabel="D(d)")


def cmd_pairangle(cfg, state, prov):
    # every state has a folded law; pairangle publishes isotropic ones
    pairstats.require_pairs(harmonics(state)[1])
    defect = pair_isotropy_defect(state)
    if defect > pairstats.ISOTROPY_TOL:
        raise AnisotropicStateError(
            f"pair density is not rotation invariant (defect {defect:.3e}); "
            "use two_angle_distribution instead")
    dist = pairstats.angle_distribution(state, n_points=cfg.points)
    summary = _moments(dist)
    summary.update(max_value=float(np.max(dist.values)),
                   min_value=float(np.min(dist.values)))
    return _write_law(cfg, prov, "pairangle", dist, ANGLE_FORMS,
                      {"delta": dist.grid}, summary,
                      "relative-angle density on [0, pi)",
                      title="relative-angle density", xlabel="delta",
                      ylabel="D(delta)")


def _mean_se_z(samples, reference):
    """Sample mean, its standard error and its z-score against
    `reference`. One frame has no spread; non-finite statistics are
    written as null."""
    mean = float(np.mean(samples))
    se = (float(np.std(samples, ddof=1) / math.sqrt(samples.size))
          if samples.size > 1 else math.nan)
    return mean, se, (mean - reference) / se if se > 0.0 else math.nan


def _write_frame_stats(cfg, state, frames, prov):
    """--stats: the frames' histograms and fits against the engine laws."""
    d_ref = pairstats.distance_distribution(state)
    a_ref = pairstats.angle_distribution(state)
    d_hist, a_hist = empirical_pair_stats(frames, bins=cfg.bins)
    distances = d_hist.meta["samples"]
    d_summary = pairstats.summarize(d_ref)

    mean_d, se_d, z_d = _mean_se_z(distances, d_summary.mean)
    # E[cos 2 delta] = (2w - 1)/2 for every state, so 1/2 + cos 2 delta
    # estimates the bosonic weight w per frame
    weight = d_ref.meta["bosonic_weight"]
    w_hat, se_w, z_w = _mean_se_z(
        0.5 + np.cos(2.0 * a_hist.meta["samples"]), weight)
    d_gof = chi_square_gof(distances, d_ref, bins=40)
    a_gof = chi_square_gof(a_hist.meta["samples"], a_ref, bins=40)

    outputs = (("distance", "d", d_hist, d_ref, "pair distance",
                "per-frame pair distances, histogram density"),
               ("angle", "delta", a_hist, a_ref, "relative angle",
                "per-frame relative angles folded to [0, pi)"))
    for name, x, hist, ref, title, comment in outputs:
        at = ref.value_at(hist.grid)
        _write(cfg, f"frames_{name}_hist.csv", write_csv,
               (x, "density", "reference"), (hist.grid, hist.values, at),
               prov=prov, comments=(comment,))
        _write(cfg, f"frames_{name}.svg", svg_chart,
               [{"label": "frames", "x": hist.grid, "y": hist.values,
                 "style": "bar"},
                {"label": "reference", "x": hist.grid, "y": at}],
               title="empirical " + title, xlabel=x, ylabel=f"D({x})",
               prov=prov)
    _write_summary(cfg, "frames_stats.json", {
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
    }, prov)


def cmd_frames(cfg, state, prov):
    frames = generate_frames(state, cfg.count, cfg.seed, threads=cfg.threads)
    _write(cfg, "frames.csv",
           lambda path: save_frames(frames, path, provenance=prov))
    if cfg.stats:
        _write_frame_stats(cfg, state, frames, prov)
    return EXIT_OK


def cmd_verify(cfg, state, prov):
    reports = full_report(resolution=cfg.resolution)
    ok = all_engine_checks_confirmed(reports)
    _write_summary(cfg, "verify_report.json", {
        "resolution": cfg.resolution,
        "all_engine_checks_confirmed": ok,
        "reports": [r.as_dict() for r in reports],
    }, prov)

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
    args = _read_argv(argv)
    try:
        cfg = resolve_config(args)
        # every command but verify works on one state, built here once;
        # pairdist and pairangle share the --two-angle outputs
        state = None if cfg.spec is None else build_state(cfg.spec)
        handler = (_two_angle_outputs if getattr(cfg, "two_angle", False)
                   else _HANDLERS[args.command])
        return handler(cfg, state, cfg.prov(state))
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
