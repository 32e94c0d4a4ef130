"""Command-line entry points and CSV emission.

Subcommands: design, sweep-power, sweep-delta, beampattern.
Each reads an optional INI config (an omitted [scenario] key takes its
make_scenario default), applies --seed/--mode/--out overrides, and
emits CSV with a fixed column schema. Rows are ordered by (grid index,
mode) and float cells use repr, so output for a fixed seed is
byte-stable at a fixed BLAS thread count, on any number of CPUs: a
sweep's Monte-Carlo trials run on several threads, but no estimate
depends on the thread that computes it. Threaded OpenBLAS may split
MUSIC's grid products elsewhere, so the last bits of an estimate can
change with the BLAS thread count.

Exit codes: 0 success, 2 configuration error, 3 infeasible design,
4 numerical failure.
"""

import argparse
import csv
import io
import sys

import numpy as np

from . import design, radar
from .arrays import _degree_grid, beampattern
from .config import build_options, build_scenario, load_config
from .errors import ConfigError, InfeasibleError, NumericalError

SWEEP_POWER_HEADER = ["p_max_dbm", "mode", "sum_beampattern_gain_db",
                      "sum_crlb", "rcrlb_deg", "rmse_deg", "min_rate",
                      "degraded_trials"]
SWEEP_DELTA_HEADER = ["delta", "mode", "sum_crlb", "rmse_deg", "min_rate", "r_min",
                      "degraded_trials"]
BEAMPATTERN_HEADER = ["theta_deg", "mode", "gain_db"]


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(header, rows, out_path, metadata=None):
    buf = io.StringIO()
    for key, value in (metadata or []):
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    text = buf.getvalue()
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def read_csv(text):
    """Parse emitted CSV back into (metadata, header, rows of strings)."""
    metadata = []
    lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            metadata.append((key.strip(), value))
        elif line.strip():
            lines.append(line)
    rows = list(csv.reader(lines))
    if not rows:
        raise ValueError("empty CSV")
    return metadata, rows[0], rows[1:]


def _modes(arg):
    modes = [m.strip() for m in arg.split(",") if m.strip()]
    if not modes:
        raise ConfigError("no mode given")
    for m in modes:
        if m not in design.MODES:
            raise ConfigError(f"unknown mode '{m}' (choose from {', '.join(design.MODES)})")
    return modes


def _stage(trace, name):
    """Attribute ``name`` of a stage's SolverTrace as a record cell; blank
    for a stage that did not run."""
    return "" if trace is None else _fmt(getattr(trace, name))


def _designs(cfg, modes, **overrides):
    """(scenario, result) of each mode, all on one scenario built from
    ``cfg`` with ``overrides``."""
    scenario = build_scenario(cfg, **overrides)
    opts = build_options(cfg)
    return [(scenario, design.run(scenario, mode=mode, opts=opts)) for mode in modes]


def cmd_design(args):
    cfg = load_config(args.config)
    mode, *rest = _modes(args.mode)
    if rest:
        raise ConfigError(f"design takes one mode, got '{args.mode}'")
    [(scenario, res)] = _designs(cfg, [mode], seed=args.seed)
    record = {
        "mode": res.mode,
        "sum_crlb": _fmt(res.sum_crlb),
        "rcrlb_deg": _fmt(float(np.rad2deg(res.rcrlb))),
        "min_rate": _fmt(res.rates.min_rate),
        "r_min": _fmt(res.r_min),
        "wall_time_s": _fmt(res.wall_time),
        "sp1_time_s": _fmt(res.stage_times.get("sp1", "")),
        "sp2_time_s": _fmt(res.stage_times.get("sp2", "")),
        "sp1_iterations": _stage(res.traces["sp1"], "iterations"),
        "sp2_iterations": _stage(res.traces["sp2"], "iterations"),
        "rates": ";".join(_fmt(r) for r in res.rates.rate),
        "sp1_termination": _stage(res.traces["sp1"], "termination"),
        "sp2_termination": _stage(res.traces["sp2"], "termination"),
        "flags": ";".join(res.flags),
    }
    record.update((f"{stage}_{name}", _stage(res.traces[stage], name))
                  for stage in ("sp1", "sp2")
                  for name in ("objective_evals", "gradient_evals", "final_grad_norm"))
    # stage II has no line search, so only stage I can fall back
    record["sp1_wolfe_fallbacks"] = _stage(res.traces["sp1"], "wolfe_fallbacks")
    for key, value in record.items():
        print(f"{key}={value}")
    if args.out:
        write_csv(list(record), [list(record.values())], out_path=args.out)
    return 0


def _sweep(args, grid_key, override, header, row):
    """Design and Monte-Carlo evaluate every (grid value, mode); one CSV row each.

    ``override`` names the [scenario] key that the grid value replaces;
    ``row(value, mode, scenario, result, report)`` builds the row.
    Each grid value's scenario is built once and shared by its modes.
    Every design runs before any Monte-Carlo trial, so a typed error
    from any of them ends the command with no trial run and no CSV. The
    trials of all designs then run in one ``radar.monte_carlo_sweep``
    call, which takes only designs of one trial-noise key: those of one
    command share the seed, noise power and sizes, so every one sees the
    same trial noise (common random numbers). The
    ``# full_scans=`` metadata line holds each row's count of trials that
    the coarse MUSIC level could not certify, ``;``-joined in row order.
    """
    cfg = load_config(args.config)
    modes = _modes(args.mode)
    exp = cfg["experiment"]
    cells = [(value, mode, *pair) for value in exp[grid_key]
             for mode, pair in zip(modes, _designs(cfg, modes, seed=args.seed,
                                                   **{override: value}))]
    reports = radar.monte_carlo_sweep([(scenario, res) for _, _, scenario, res in cells],
                                      exp["trials"], grid_deg=exp["music_grid_deg"])
    write_csv(header, [row(*cell, report) for cell, report in zip(cells, reports)],
              out_path=args.out,
              metadata=[("full_scans", ";".join(str(r.full_scans) for r in reports))])
    return 0


def _power_row(p_dbm, mode, scenario, res, report):
    gain = beampattern(res.w, scenario.target_angles).sum()
    return [p_dbm, mode, 10.0 * np.log10(max(gain, 1e-300)),
            res.sum_crlb, float(np.rad2deg(res.rcrlb)),
            float(np.rad2deg(report.rmse)), res.rates.min_rate,
            report.degraded_trials]


def _delta_row(delta, mode, _scenario, res, report):
    return [delta, mode, res.sum_crlb, float(np.rad2deg(report.rmse)),
            res.rates.min_rate, res.r_min, report.degraded_trials]


def cmd_sweep_power(args):
    return _sweep(args, "power_grid_dbm", "power_budget_dbm", SWEEP_POWER_HEADER,
                  _power_row)


def cmd_sweep_delta(args):
    return _sweep(args, "delta_grid", "overload", SWEEP_DELTA_HEADER, _delta_row)


def cmd_beampattern(args):
    cfg = load_config(args.config)
    modes = _modes(args.mode)
    theta_deg = _degree_grid(cfg["experiment"]["grid_deg"])
    traces = {}
    for mode, (scenario, res) in zip(modes, _designs(cfg, modes, seed=args.seed)):
        gains = beampattern(res.w, np.deg2rad(theta_deg))
        traces[mode] = 10.0 * np.log10(np.maximum(gains, 1e-300))
    metadata = [(key, ";".join(_fmt(float(np.rad2deg(a))) for a in angles))
                for key, angles in (("target_angles_deg", scenario.target_angles),
                                    ("user_angles_deg", scenario.user_angles))]
    rows = []
    for i, theta in enumerate(theta_deg):
        for mode in modes:
            rows.append([float(theta), mode, traces[mode][i]])
    write_csv(BEAMPATTERN_HEADER, rows, out_path=args.out, metadata=metadata)
    return 0


def _parser():
    parser = argparse.ArgumentParser(
        prog="isacbeam",
        description="Dual-function beamforming design and radar evaluation")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("design", cmd_design, "run one design and print its record"),
        ("sweep-power", cmd_sweep_power, "design and evaluate over a power grid"),
        ("sweep-delta", cmd_sweep_delta, "design and evaluate over overload factors"),
        ("beampattern", cmd_beampattern, "emit beampattern traces per mode"),
    ]
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="INI config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--mode", default="sgcdf",
                       help="mode name; sweeps and beampattern take a comma-separated list")
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
