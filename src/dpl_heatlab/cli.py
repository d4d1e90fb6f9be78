"""Command-line front end: scenario files in, CSV + plot scripts out.

``main`` loads the scenario and resolves the truncation (``--modes`` or
the scenario's default) once, and adds ``times`` and ``truncation`` to
the manifest of the commands that take ``--t`` and ``--modes``.  Each
``_cmd_*`` handler takes (args, scenario, fdm block, truncation),
computes all of its results first and returns its outputs as an ordered
list of (file name, text or writer), its own manifest fields and its
text for stdout (empty but for ``oracle``).  ``main`` hands them to
``_emit``, the one place that creates ``--out``.  A run that exits 2 or
3 writes nothing; output appears only once every result is computed.

Exit codes: 0 success, 2 configuration/usage error (any ValueError),
3 numerical failure (unstable stepping, degenerate peak, arithmetic
overflow, out of memory), 4 output I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import MISSING, asdict, fields, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    _fmt,
    line_profile_y,
    source_peak_distance_sweep,
    trajectory_profile,
    write_field_csv,
    write_profile_csv,
    write_sweep_csv,
)
from .errors import ConfigFormatError, PeakOnBoundary, UnstableConfig
from .model import (
    FIELD_TYPES,
    LINE,
    FdmConfig,
    GridSpec,
    default_peak_grid,
    load_bundled,
    load_scenario_file,
    validate_scenario,
)
from .series import resolve_threads, resolve_truncation, solve_series
from .trajectory import position

_FIELD_PLOT = '''"""Render {csv} as a heat map with the source path overlay."""
import numpy as np
import matplotlib.pyplot as plt

data = np.loadtxt("{csv}", delimiter=",", skiprows=1)
nx, ny = {nx}, {ny}
x = data[:, 0].reshape(nx, ny)
y = data[:, 1].reshape(nx, ny)
T = data[:, 2].reshape(nx, ny)

fig, ax = plt.subplots(figsize=(6.4, max(2.0, 6.4 * {H} / {L})))
mesh = ax.pcolormesh(x, y, T, shading="auto", cmap="inferno")
fig.colorbar(mesh, ax=ax, label="temperature")
phi = np.linspace(0.0, 2.0 * np.pi, 512)
ax.plot({cx} + {A} * np.cos(phi), {cy} + {B} * np.sin(phi),
        "w--", lw=1.0, label="source path")
ax.plot([{x_src}], [{y_src}], "wo", ms=6, mec="k", label="source")
ax.set_xlabel("x")
ax.set_ylabel("y")
ax.set_title("t = {t}")
ax.legend(loc="upper right", fontsize=8)
fig.savefig("{stem}.png", dpi=160, bbox_inches="tight")
'''

_PROFILE_PLOT = '''"""Overlay the profile CSVs written next to this script."""
import numpy as np
import matplotlib.pyplot as plt

files = {files}
fig, ax = plt.subplots(figsize=(6.4, 4.0))
for name in files:
    data = np.loadtxt(name, delimiter=",", skiprows=1)
    ax.plot(data[:, 0], data[:, 1], label=name.rsplit(".", 1)[0])
ax.set_xlabel("{xlabel}")
ax.set_ylabel("temperature")
ax.legend(fontsize=8)
fig.savefig("profiles.png", dpi=160, bbox_inches="tight")
'''

_SWEEP_PLOT = '''"""Plot source-peak distance against truncation."""
import numpy as np
import matplotlib.pyplot as plt

data = np.loadtxt("{csv}", delimiter=",", skiprows=1)
fig, ax = plt.subplots(figsize=(5.4, 4.0))
ax.plot(data[:, 0], data[:, 7], "o-")
ax.set_xlabel("truncation M")
ax.set_ylabel("source-peak distance")
fig.savefig("peak_sweep.png", dpi=160, bbox_inches="tight")
'''


def _read(parse, token: str, flag: str, text: str):
    """parse(token), or a ValueError that names the flag and its value."""
    try:
        return parse(token)
    except ValueError:
        raise ValueError(f"{flag} cannot read {token!r} in {text!r}") from None


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects 'A,B', got {text!r}")
    return _read(int, parts[0], flag, text), _read(int, parts[1], flag, text)


def _parse_list(text: str, flag: str, parse) -> list:
    """parse of each item of a comma-list flag, which lists at least one."""
    items = [p for p in (part.strip() for part in text.split(",")) if p]
    if not items:
        raise ValueError(f"{flag} must list at least one value")
    return [_read(parse, item, flag, text) for item in items]


def _parse_float_token(token: str) -> float:
    """A float, or a multiple of pi: '0.1pi', 'pi' and '-pi' (a bare sign
    before 'pi' is +-1)."""
    token = token.lower()
    if token.endswith("pi"):
        head = token[:-2]
        return float(head + "1" if head in ("", "+", "-") else head) * math.pi
    return float(token)


def _parse_truncation(item: str) -> tuple[int, int]:
    a, b = item.split("x", 1) if "x" in item else (item, item)
    return int(a), int(b)


def _load_scenario_arg(arg: str):
    """An existing path is a scenario file; anything else a bundled name."""
    if Path(arg).exists():
        return load_scenario_file(arg)
    return load_bundled(arg)


def _fdm_flag(f) -> str:
    """The oracle's flag for FdmConfig field f: ``--fdm-`` and its name."""
    return "--fdm-" + f.name.replace("_", "-")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _profile_outputs(profiles, xlabel: str) -> list:
    """Outputs of the (name, profile) pairs and their overlay script."""
    files = [(name, partial(write_profile_csv, prof))
             for name, prof in profiles]
    names = json.dumps([name for name, _ in profiles])
    return files + [("plot_profiles.py",
                     _PROFILE_PLOT.format(files=names, xlabel=xlabel))]


def _emit(args, files, extra: dict) -> None:
    """Create ``--out`` and write each (name, text or writer) in order,
    ``manifest.json`` last.  A writer is called with the file's path.

    Names must be distinct, so that no output overwrites another.
    """
    manifest = {
        "scenario": args.scenario,
        "subcommand": args.command,
        "out_dir": str(Path(args.out)),
        "threads": args.threads,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
        **extra,
    }
    files = [*files, ("manifest.json", _json_text(manifest))]
    counts = Counter(name for name, _content in files)
    clash = [name for name, k in counts.items() if k > 1]
    if clash:
        raise ValueError(f"two outputs would both be named {clash[0]} (file "
                         f"names show values to 6 significant digits)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files:
        if isinstance(content, str):
            (out / name).write_text(content, encoding="utf-8", newline="\n")
        else:
            content(out / name)


def _grid_arg(args, s) -> GridSpec:
    """The ``--grid`` counts, or the scenario's peak-search grid."""
    if args.grid is None:
        return default_peak_grid(s)
    return GridSpec(*_parse_pair(args.grid, "--grid"))


def _profile(s, t, y0, modes, samples):
    """The profile along the cut y = y0, or the closed path if y0 is None."""
    if y0 is None:
        return trajectory_profile(s, t, *modes, samples)
    return line_profile_y(s, t, y0, *modes, samples)


def _cmd_field(args, s, _fdm, modes):
    grid = _grid_arg(args, s)
    traj = s.trajectory
    files = []
    for t in args.t:
        field = solve_series(s, t, *modes).field(grid)
        stem = f"field_t{t:g}"
        x_src, y_src = position(traj, t)
        script = _FIELD_PLOT.format(
            csv=f"{stem}.csv", nx=grid.nx, ny=grid.ny, L=_fmt(s.L),
            H=_fmt(s.H), cx=_fmt(traj.cx), cy=_fmt(traj.cy),
            A=_fmt(traj.A), B=_fmt(traj.B), x_src=_fmt(x_src),
            y_src=_fmt(y_src), t=f"{t:g}", stem=stem)
        files += [(f"{stem}.csv", partial(write_field_csv, field, s)),
                  (f"plot_{stem}.py", script)]
    return files, {"grid": [grid.nx, grid.ny]}, ""


def _cmd_profile(args, s, _fdm, modes):
    if (args.kind == "line-y") != (args.y0 is not None):
        raise ValueError("--y0 is required for --kind line-y and applies "
                         "to no other kind")
    profiles = []
    for t in args.t:
        name = (f"profile_trajectory_t{t:g}.csv" if args.y0 is None
                else f"profile_line_y{args.y0:g}_t{t:g}.csv")
        profiles.append((name, _profile(s, t, args.y0, modes, args.samples)))
    files = _profile_outputs(
        profiles, "central angle" if args.y0 is None else "x")
    return files, {"kind": args.kind, "y0": args.y0,
                   "samples": args.samples}, ""


def _cmd_peak_sweep(args, s, _fdm, _modes):
    if len(args.t) > 1:
        raise ValueError(f"peak-sweep takes one --t, got {len(args.t)}")
    truncations = _parse_list(args.truncations, "--truncations",
                              _parse_truncation)
    grid = _grid_arg(args, s)
    reports = source_peak_distance_sweep(s, args.t[0], truncations, grid)
    files = [("peak_sweep.csv", partial(write_sweep_csv, reports)),
             ("plot_peak_sweep.py", _SWEEP_PLOT.format(csv="peak_sweep.csv"))]
    return files, {"grid": [grid.nx, grid.ny],
                   "truncations": [list(p) for p in truncations]}, ""


def _cmd_oracle(args, s, fdm_cfg, modes):
    # Only the oracle imports fdm, so series-only commands skip its import
    # (about 5.5 ms measured with -X importtime).
    from . import fdm

    merged = asdict(fdm_cfg) if fdm_cfg is not None else {}
    flags = {f.name: getattr(args, f"fdm_{f.name}") for f in fields(FdmConfig)}
    merged.update((name, v) for name, v in flags.items() if v is not None)
    missing = [_fdm_flag(f) for f in fields(FdmConfig)
               if f.default is MISSING and f.name not in merged]
    if missing:
        raise ConfigFormatError(
            f"scenario has no fdm block; supply {', '.join(missing)}")
    fdm_cfg = FdmConfig(**merged)

    # The matched series goes first: its tile temporaries set the peak RSS,
    # and the march's stored fields would otherwise sit beneath them.
    grid = fdm.checked_grid(s, fdm_cfg)
    series_field = fdm.project_gaussian_source_series(
        s, fdm_cfg.resolved_sigma(), grid, fdm_cfg.t_end, modes[0], modes[1])
    stored = fdm.solve_fdm(s, fdm_cfg)
    final = stored[-1]
    report = fdm.deviation_report(final, series_field, s.T0)
    files = [(f"fdm_t{field.t:g}.csv", partial(write_field_csv, field, s))
             for field in stored]
    files += [(f"series_t{final.t:g}.csv",
               partial(write_field_csv, series_field, s)),
              ("report.json", _json_text(report))]
    extra = {"fdm": dict(asdict(fdm_cfg), sigma=fdm_cfg.resolved_sigma())}
    return files, extra, (f"rms_rel={report['rms_rel']:.6g} "
                          f"max_abs={report['max_abs']:.6g}\n")


def _cmd_sweep(args, s, _fdm, modes):
    # A list flag left out sweeps the scenario's own value.
    qs, ts_lag, ws = (
        [default] if text is None
        else _parse_list(text, flag, _parse_float_token)
        for text, flag, default in ((args.tau_q, "--tau-q", s.tau_q),
                                    (args.tau_T, "--tau-T", s.tau_T),
                                    (args.w, "--w", s.trajectory.w)))
    # A closed path is profiled along itself, a line along its own height.
    y0 = s.trajectory.cy if s.trajectory.kind == LINE else None

    summary = ["tau_q,tau_T,w,t,peak\n"]
    profiles = []
    for q in qs:
        for lag_t in ts_lag:
            for w in ws:
                variant = validate_scenario(replace(
                    s, tau_q=q, tau_T=lag_t,
                    trajectory=replace(s.trajectory, w=w)))
                for t in args.t:
                    prof = _profile(variant, t, y0, modes, args.samples)
                    name = f"sweep_q{q:g}_T{lag_t:g}_w{w:g}_t{t:g}.csv"
                    profiles.append((name, prof))
                    summary.append(
                        f"{_fmt(q)},{_fmt(lag_t)},{_fmt(w)},{_fmt(t)},"
                        f"{_fmt(np.max(prof.values))}\n")
    files = _profile_outputs(profiles,
                             "central angle" if y0 is None else "x")
    files.append(("summary.csv", "".join(summary)))
    return files, {"tau_q": qs, "tau_T": ts_lag, "w": ws,
                   "samples": args.samples}, ""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpl-heatlab",
        description="Temperature fields of a plate heated by a moving "
                    "source, via eigenfunction series or finite differences.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_t=True, needs_modes=True):
        p.add_argument("--scenario", required=True,
                       help="config file path or bundled scenario name")
        if needs_t:
            p.add_argument("--t", action="append", type=float, required=True,
                           help="evaluation time (repeatable)")
        if needs_modes:
            p.add_argument("--modes", default=None, metavar="M,N",
                           help="series truncation (default per scenario)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted (>= 0) and recorded in manifest.json "
                            "for compatibility; the solvers run in one "
                            "thread")

    p_field = sub.add_parser("field", help="grid temperature field CSV")
    common(p_field)
    p_field.add_argument("--grid", default=None, metavar="NX,NY",
                         help="sample counts (default peak-search grid)")

    p_profile = sub.add_parser("profile", help="1D temperature profile CSV")
    common(p_profile)
    p_profile.add_argument("--kind", choices=("line-y", "trajectory"),
                           default="line-y")
    p_profile.add_argument("--y0", type=float, default=None,
                           help="cut height for --kind line-y")
    p_profile.add_argument("--samples", type=int, default=201,
                           help="sample count along the cut")

    p_peak = sub.add_parser("peak-sweep",
                            help="source-peak distance vs truncation")
    common(p_peak, needs_modes=False)
    p_peak.add_argument("--grid", default=None, metavar="NX,NY")
    p_peak.add_argument("--truncations", required=True,
                        help="comma list, items 'M' or 'MxN'")

    p_oracle = sub.add_parser("oracle",
                              help="finite-difference run + matched series")
    common(p_oracle, needs_t=False)
    for f in fields(FdmConfig):
        p_oracle.add_argument(_fdm_flag(f), type=FIELD_TYPES[f.type],
                              default=None)

    p_sweep = sub.add_parser("sweep",
                             help="profiles over a lag/velocity grid")
    common(p_sweep)
    p_sweep.add_argument("--tau-q", default=None,
                         help="comma list of flux lags (suffix 'pi' allowed)")
    p_sweep.add_argument("--tau-T", default=None,
                         help="comma list of gradient lags")
    p_sweep.add_argument("--w", default=None,
                         help="comma list of angular rates, e.g. '0.1pi'")
    p_sweep.add_argument("--samples", type=int, default=360)
    return parser


_DISPATCH = {
    "field": _cmd_field,
    "profile": _cmd_profile,
    "peak-sweep": _cmd_peak_sweep,
    "oracle": _cmd_oracle,
    "sweep": _cmd_sweep,
}


@np.errstate(all="ignore")   # non-finite results raise; no float warnings
def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        resolve_threads(args.threads)
        s, fdm_block = _load_scenario_arg(args.scenario)
        extra, modes = {}, None
        if "t" in args:
            extra["times"] = args.t
        if "modes" in args:
            modes = (resolve_truncation(s) if args.modes is None
                     else _parse_pair(args.modes, "--modes"))
            extra["truncation"] = list(modes)
        files, own, stdout = _DISPATCH[args.command](args, s, fdm_block,
                                                     modes)
        _emit(args, files, extra | own)
        sys.stdout.write(stdout)
        return 0
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnstableConfig, PeakOnBoundary) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
