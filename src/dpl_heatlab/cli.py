"""Command-line front end: scenario files in, CSV + plot scripts out.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure
(quadrature not converged, unstable stepping, degenerate peak, arithmetic
overflow), 4 output I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    line_profile_y,
    source_peak_distance_sweep,
    trajectory_profile,
    write_field_csv,
    write_profile_csv,
    write_sweep_csv,
)
from .errors import (
    ConfigFormatError,
    PeakOnBoundary,
    QuadratureNotConverged,
    ScenarioValidationError,
    TrajectoryNotClosed,
    UnstableConfig,
)
from .model import (
    FdmConfig,
    GridSpec,
    bundled_scenario_names,
    default_peak_grid,
    load_bundled,
    load_scenario_file,
    validate_scenario,
)
from .quadrature import QuadratureSpec
from .series import resolve_truncation, temperature
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


def _fmt(x) -> str:
    return repr(float(x))


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects 'A,B', got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_float_token(token: str) -> float:
    token = token.strip().lower()
    if token.endswith("pi"):
        head = token[:-2]
        return (float(head) if head else 1.0) * math.pi
    return float(token)


def _parse_float_list(text: str, flag: str) -> list[float]:
    items = [p for p in (part.strip() for part in text.split(",")) if p]
    if not items:
        raise ValueError(f"{flag} must list at least one value")
    return [_parse_float_token(p) for p in items]


def _parse_truncations(text: str) -> list[tuple[int, int]]:
    items = [p for p in (part.strip() for part in text.split(",")) if p]
    out = []
    for item in items:
        if "x" in item:
            a, b = item.split("x", 1)
            out.append((int(a), int(b)))
        else:
            out.append((int(item), int(item)))
    if not out:
        raise ValueError("truncation list must not be empty")
    return out


def _load_scenario_arg(arg: str):
    path = Path(arg)
    if path.exists():
        return load_scenario_file(path)
    stem = arg[:-4] if arg.endswith(".cfg") else arg
    if stem in bundled_scenario_names():
        return load_bundled(stem)
    raise ConfigFormatError(
        f"scenario {arg!r} is neither a readable file nor a bundled name "
        f"(bundled: {', '.join(bundled_scenario_names())})")


def _quad_from_args(args) -> QuadratureSpec:
    spec = QuadratureSpec()
    if args.quad_abs is not None:
        spec = replace(spec, abs_tol=args.quad_abs)
    if args.quad_rel is not None:
        spec = replace(spec, rel_tol=args.quad_rel)
    return spec


def _prepare_out(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, args, subcommand: str, extra: dict) -> None:
    manifest = {
        "scenario": args.scenario,
        "subcommand": subcommand,
        "out_dir": str(out),
        "quadrature": {"abs_tol": args.quad_abs, "rel_tol": args.quad_rel},
        "threads": args.threads,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
    }
    manifest.update(extra)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_modes(args, s) -> tuple[int, int]:
    if args.modes is None:
        return resolve_truncation(s)
    return _parse_pair(args.modes, "--modes")


def _cmd_field(args) -> int:
    s, _fdm = _load_scenario_arg(args.scenario)
    modes = _resolve_modes(args, s)
    grid = (default_peak_grid(s) if args.grid is None
            else GridSpec(*_parse_pair(args.grid, "--grid")))
    quad = _quad_from_args(args)
    out = _prepare_out(args.out)
    traj = s.trajectory
    for t in args.t:
        field = temperature(s, grid, t, modes[0], modes[1], quad,
                            threads=args.threads)
        stem = f"field_t{t:g}"
        write_field_csv(field, s, out / f"{stem}.csv")
        x_src, y_src = position(traj, t)
        script = _FIELD_PLOT.format(
            csv=f"{stem}.csv", nx=grid.nx, ny=grid.ny, L=_fmt(s.L),
            H=_fmt(s.H), cx=_fmt(traj.cx), cy=_fmt(traj.cy),
            A=_fmt(traj.A), B=_fmt(traj.B), x_src=_fmt(x_src),
            y_src=_fmt(y_src), t=f"{t:g}", stem=stem)
        (out / f"plot_{stem}.py").write_text(script, encoding="utf-8")
    _write_manifest(out, args, "field", {
        "times": args.t, "truncation": list(modes),
        "grid": [grid.nx, grid.ny]})
    return 0


def _cmd_profile(args) -> int:
    s, _fdm = _load_scenario_arg(args.scenario)
    modes = _resolve_modes(args, s)
    quad = _quad_from_args(args)
    out = _prepare_out(args.out)
    files = []
    for t in args.t:
        if args.kind == "line-y":
            if args.y0 is None:
                raise ValueError("--y0 is required for --kind line-y")
            prof = line_profile_y(s, t, args.y0, modes[0], modes[1],
                                  args.samples, quad, threads=args.threads)
            name = f"profile_line_y{args.y0:g}_t{t:g}.csv"
        else:
            prof = trajectory_profile(s, t, modes[0], modes[1],
                                      args.samples, quad,
                                      threads=args.threads)
            name = f"profile_trajectory_t{t:g}.csv"
        write_profile_csv(prof, out / name)
        files.append(name)
    xlabel = "x" if args.kind == "line-y" else "central angle"
    script = _PROFILE_PLOT.format(files=json.dumps(files), xlabel=xlabel)
    (out / "plot_profiles.py").write_text(script, encoding="utf-8")
    _write_manifest(out, args, "profile", {
        "times": args.t, "truncation": list(modes), "kind": args.kind,
        "y0": args.y0, "samples": args.samples})
    return 0


def _cmd_peak_sweep(args) -> int:
    s, _fdm = _load_scenario_arg(args.scenario)
    truncations = _parse_truncations(args.truncations)
    grid = (default_peak_grid(s) if args.grid is None
            else GridSpec(*_parse_pair(args.grid, "--grid")))
    quad = _quad_from_args(args)
    out = _prepare_out(args.out)
    t = args.t[0]
    reports = source_peak_distance_sweep(s, t, truncations, grid,
                                         quad=quad, threads=args.threads)
    write_sweep_csv(reports, out / "peak_sweep.csv")
    (out / "plot_peak_sweep.py").write_text(
        _SWEEP_PLOT.format(csv="peak_sweep.csv"), encoding="utf-8")
    _write_manifest(out, args, "peak-sweep", {
        "times": args.t, "truncations": [list(p) for p in truncations],
        "grid": [grid.nx, grid.ny]})
    return 0


def _cmd_oracle(args) -> int:
    # scipy (sparse LU, Faddeeva) loads only when an oracle runs.
    from . import fdm

    s, fdm_cfg = _load_scenario_arg(args.scenario)
    overrides = {
        "hx": args.fdm_hx, "hy": args.fdm_hy, "dt": args.fdm_dt,
        "sigma": args.fdm_sigma, "t_end": args.fdm_t_end,
        "store_every": args.fdm_store_every,
    }
    if fdm_cfg is None:
        needed = ("hx", "hy", "dt", "t_end")
        if any(overrides[key] is None for key in needed):
            raise ConfigFormatError(
                "scenario has no fdm block; supply --fdm-hx, --fdm-hy, "
                "--fdm-dt and --fdm-t-end")
        fdm_cfg = FdmConfig(hx=overrides["hx"], hy=overrides["hy"],
                            dt=overrides["dt"], t_end=overrides["t_end"],
                            sigma=overrides["sigma"],
                            store_every=overrides["store_every"] or 1)
    else:
        updates = {key: val for key, val in overrides.items()
                   if val is not None}
        fdm_cfg = replace(fdm_cfg, **updates)

    modes = _resolve_modes(args, s)
    quad = _quad_from_args(args)
    out = _prepare_out(args.out)

    fields = fdm.solve_fdm(s, fdm_cfg)
    for field in fields:
        write_field_csv(field, s, out / f"fdm_t{field.t:g}.csv")
    final = fields[-1]
    series_field = fdm.project_gaussian_source_series(
        s, fdm_cfg.resolved_sigma(), final.grid, final.t,
        modes[0], modes[1], quad, threads=args.threads)
    write_field_csv(series_field, s, out / f"series_t{final.t:g}.csv")
    report = fdm.deviation_report(final, series_field, s.T0)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, args, "oracle", {
        "truncation": list(modes),
        "fdm": {"hx": fdm_cfg.hx, "hy": fdm_cfg.hy, "dt": fdm_cfg.dt,
                "sigma": fdm_cfg.resolved_sigma(), "t_end": fdm_cfg.t_end,
                "store_every": fdm_cfg.store_every}})
    print(f"rms_rel={report['rms_rel']:.6g} max_abs={report['max_abs']:.6g}")
    return 0


def _cmd_sweep(args) -> int:
    s, _fdm = _load_scenario_arg(args.scenario)
    modes = _resolve_modes(args, s)
    quad = _quad_from_args(args)
    out = _prepare_out(args.out)
    qs = (_parse_float_list(args.tau_q, "--tau-q")
          if args.tau_q else [s.tau_q])
    ts_lag = (_parse_float_list(args.tau_T, "--tau-T")
              if args.tau_T else [s.tau_T])
    ws = _parse_float_list(args.w, "--w") if args.w else [s.trajectory.w]
    closed = s.trajectory.kind in ("circle", "ellipse")

    rows = []
    files = []
    for q in qs:
        for lag_t in ts_lag:
            for w in ws:
                variant = validate_scenario(replace(
                    s, tau_q=q, tau_T=lag_t,
                    trajectory=replace(s.trajectory, w=w)))
                for t in args.t:
                    if closed:
                        prof = trajectory_profile(
                            variant, t, modes[0], modes[1], args.samples,
                            quad, threads=args.threads)
                    else:
                        prof = line_profile_y(
                            variant, t, variant.trajectory.cy, modes[0],
                            modes[1], args.samples, quad,
                            threads=args.threads)
                    name = f"sweep_q{q:g}_T{lag_t:g}_w{w:g}_t{t:g}.csv"
                    write_profile_csv(prof, out / name)
                    files.append(name)
                    rows.append((q, lag_t, w, t, float(np.max(prof.values))))
    with open(out / "summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tau_q,tau_T,w,t,peak\n")
        for q, lag_t, w, t, peak in rows:
            fh.write(f"{_fmt(q)},{_fmt(lag_t)},{_fmt(w)},{_fmt(t)},"
                     f"{_fmt(peak)}\n")
    xlabel = "central angle" if closed else "x"
    (out / "plot_profiles.py").write_text(
        _PROFILE_PLOT.format(files=json.dumps(files), xlabel=xlabel),
        encoding="utf-8")
    _write_manifest(out, args, "sweep", {
        "times": args.t, "truncation": list(modes),
        "tau_q": qs, "tau_T": ts_lag, "w": ws, "samples": args.samples})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpl-heatlab",
        description="Temperature fields of a plate heated by a moving "
                    "source, via eigenfunction series or finite differences.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_t=True):
        p.add_argument("--scenario", required=True,
                       help="config file path or bundled scenario name")
        if needs_t:
            p.add_argument("--t", action="append", type=float, required=True,
                           help="evaluation time (repeatable)")
        p.add_argument("--modes", default=None, metavar="M,N",
                       help="series truncation (default per scenario)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--quad-abs", type=float, default=None,
                       help="absolute quadrature tolerance (custom paths "
                            "only)")
        p.add_argument("--quad-rel", type=float, default=None,
                       help="relative quadrature tolerance (custom paths "
                            "only)")
        p.add_argument("--threads", type=int, default=None,
                       help="quadrature worker threads, custom paths only "
                            "(0 = auto, default DPL_HEATLAB_THREADS or auto)")

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
    common(p_peak)
    p_peak.add_argument("--grid", default=None, metavar="NX,NY")
    p_peak.add_argument("--truncations", required=True,
                        help="comma list, items 'M' or 'MxN'")

    p_oracle = sub.add_parser("oracle",
                              help="finite-difference run + matched series")
    common(p_oracle, needs_t=False)
    p_oracle.add_argument("--fdm-hx", type=float, default=None)
    p_oracle.add_argument("--fdm-hy", type=float, default=None)
    p_oracle.add_argument("--fdm-dt", type=float, default=None)
    p_oracle.add_argument("--fdm-sigma", type=float, default=None)
    p_oracle.add_argument("--fdm-t-end", type=float, default=None)
    p_oracle.add_argument("--fdm-store-every", type=int, default=None)

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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (ConfigFormatError, ScenarioValidationError, TrajectoryNotClosed,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureNotConverged, UnstableConfig, PeakOnBoundary) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
