"""End-to-end command-line behavior and CSV schemas."""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isacbeam.design
from isacbeam import cli, config, design, radar
from isacbeam.config import _SCHEMA, build_options, build_scenario, load_config
from isacbeam.errors import InfeasibleError
from reference import one_trial_monte_carlo

SMALL_INI = """
[scenario]
num_tx = 8
num_rx = 8
num_users = 2
target_angles_deg = -40.0, 25.0
target_ranges_m = 50.0, 60.0
snapshots = 64
seed = 3

[experiment]
trials = 3
grid_deg = 5.0
music_grid_deg = 0.5
power_grid_dbm = 10.0, 20.0
delta_grid = 0.0, 0.7
"""


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.ini"
    path.write_text(SMALL_INI, encoding="utf-8")
    return str(path)


def _record(capsys):
    out = capsys.readouterr().out
    return dict(line.split("=", 1) for line in out.strip().splitlines())


def test_design_prints_key_value_record(cfg_path, capsys):
    assert cli.main(["design", "--config", cfg_path, "--mode", "sgcdf"]) == 0
    rec = _record(capsys)
    assert list(rec) == ["mode", "sum_crlb", "rcrlb_deg", "min_rate", "r_min",
                        "wall_time_s", "sp1_time_s", "sp2_time_s",
                        "sp1_iterations", "sp2_iterations",
                        "rates", "sp1_termination", "sp2_termination", "flags",
                        "sp1_objective_evals", "sp1_gradient_evals", "sp1_final_grad_norm",
                        "sp2_objective_evals", "sp2_gradient_evals", "sp2_final_grad_norm",
                        "sp1_wolfe_fallbacks"]
    assert rec["mode"] == "sgcdf"
    assert float(rec["sum_crlb"]) > 0
    assert float(rec["min_rate"]) >= float(rec["r_min"]) - 1e-6
    assert int(rec["sp1_iterations"]) >= 0
    assert 0.0 < float(rec["sp1_time_s"]) + float(rec["sp2_time_s"]) \
        <= float(rec["wall_time_s"])
    assert len(rec["rates"].split(";")) == 2
    assert rec["sp1_termination"] in ("grad_tol", "obj_tol", "max_iters",
                                      "linesearch_fail")
    assert rec["sp2_termination"] == "target_met"
    assert rec["flags"] == ""


def test_design_sensing_only_leaves_sp2_blank(cfg_path, capsys):
    assert cli.main(["design", "--config", cfg_path,
                     "--mode", "sensing_only"]) == 0
    rec = _record(capsys)
    assert rec["sp2_iterations"] == ""
    assert rec["sp2_termination"] == ""
    assert int(rec["sp1_iterations"]) >= 1
    for name in ("time_s", "objective_evals", "gradient_evals", "final_grad_norm"):
        assert rec[f"sp2_{name}"] == ""
        assert rec[f"sp1_{name}"] != ""
    assert rec["sp1_wolfe_fallbacks"] != ""


def test_design_record_prints_each_stage_solver_totals(cfg_path, capsys):
    assert cli.main(["design", "--config", cfg_path, "--mode", "sgcdf"]) == 0
    rec = _record(capsys)
    cfg = load_config(cfg_path)
    res = design.run(build_scenario(cfg), "sgcdf", opts=build_options(cfg))
    for stage in ("sp1", "sp2"):
        trace = res.traces[stage]
        evals = int(rec[f"{stage}_objective_evals"])
        # the start point and at least one probe per iteration
        assert evals == trace.objective_evals >= trace.iterations + 1
        assert int(rec[f"{stage}_gradient_evals"]) == trace.gradient_evals <= evals
        assert rec[f"{stage}_final_grad_norm"] == repr(trace.final_grad_norm)
    trace = res.traces["sp1"]
    fallbacks = int(rec["sp1_wolfe_fallbacks"])
    assert fallbacks == sum(not r.wolfe_ok for r in trace.records) <= trace.iterations
    assert all(r.wolfe_ok for r in res.traces["sp2"].records)


def test_design_reports_max_iters_termination(tmp_path, capsys):
    ini = tmp_path / "one_iter.ini"
    ini.write_text(SMALL_INI + "[solver]\neps = 0.0\nmax_iters = 1\n", encoding="utf-8")
    assert cli.main(["design", "--config", str(ini), "--mode", "sensing_only"]) == 0
    rec = _record(capsys)
    assert rec["sp1_iterations"] == "1"
    assert rec["sp1_termination"] == "max_iters"


def test_design_writes_single_row_csv(cfg_path, tmp_path, capsys):
    out = tmp_path / "design.csv"
    assert cli.main(["design", "--config", cfg_path, "--mode", "sgcdf",
                     "--out", str(out)]) == 0
    rec = _record(capsys)
    # the printed record, keys as the header and values as the one row
    meta, header, rows = cli.read_csv(out.read_text(encoding="utf-8"))
    assert meta == []
    assert header == list(rec)
    assert rows == [list(rec.values())]
    assert float(rows[0][header.index("sp2_time_s")]) > 0


def test_design_omnidirectional_leaves_stage_times_blank(cfg_path, capsys):
    assert cli.main(["design", "--config", cfg_path, "--mode", "omnidirectional"]) == 0
    rec = _record(capsys)
    assert float(rec["wall_time_s"]) > 0
    assert rec["sp1_time_s"] == rec["sp2_time_s"] == ""


ROOT = Path(design.__file__).resolve().parents[2]


def _design_flags():
    """The string literals of every value ``design.py`` assigns to a name
    ``flags``; a tuple assigned to a tuple of names is paired element by
    element."""
    tree = ast.parse(Path(design.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for name, value in pairs:
                if isinstance(name, ast.Name) and name.id == "flags":
                    yield from (c.value for c in ast.walk(value)
                                if isinstance(c, ast.Constant) and isinstance(c.value, str))


def test_readme_names_every_record_key_and_flag(cfg_path, capsys):
    assert cli.main(["design", "--config", cfg_path, "--mode", "sgcdf"]) == 0
    keys = list(_record(capsys))
    flags = sorted(set(_design_flags()))
    assert {"zf_infeasible_fallback", "sp2_projection"} <= set(flags)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in keys + flags if f"`{name}`" not in readme] == []
    # and the other way: no snake_case name in README that the code has dropped
    code = "".join(path.read_text(encoding="utf-8") for folder in ("src", "tests", "perfbench")
                   for path in sorted((ROOT / folder).rglob("*.py")))
    named = set(re.findall(r"`([a-z][a-z0-9]*(?:_[a-z0-9]+)+)`", readme))
    assert len(named) > 20
    assert sorted(n for n in named if not re.search(rf"\b{n}\b", code)) == []


def test_design_reports_init_flags(tmp_path, capsys):
    # four antennas cannot zero-force six users: the warm start falls back
    path = tmp_path / "overloaded.ini"
    path.write_text(SMALL_INI.replace("num_tx = 8", "num_tx = 4")
                    .replace("num_users = 2", "num_users = 6"), encoding="utf-8")
    assert cli.main(["design", "--config", str(path), "--mode", "sensing_only"]) == 0
    assert _record(capsys)["flags"] == "zf_infeasible_fallback"


def test_no_dedicated_stream_without_users_exits_2(tmp_path, capsys):
    path = tmp_path / "no_users.ini"
    path.write_text("[scenario]\nnum_users = 0\nnum_tx = 8\nnum_rx = 8\n"
                    "snapshots = 64\n", encoding="utf-8")
    assert cli.main(["design", "--config", str(path),
                     "--mode", "no_dedicated_stream"]) == 2
    assert "needs at least one user" in capsys.readouterr().err


def test_import_loads_no_scipy():
    code = ("import sys, isacbeam.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(isacbeam.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_unknown_mode_exits_2(cfg_path, capsys):
    for mode, message in (("bogus", "unknown mode 'bogus'"), (",", "no mode given"),
                          ("sgcdf,sensing_only", "design takes one mode")):
        assert cli.main(["design", "--config", cfg_path, "--mode", mode]) == 2
        assert f"config error: {message}" in capsys.readouterr().err


def test_bad_config_value_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[solver]\neps = fast\n", encoding="utf-8")
    assert cli.main(["design", "--config", str(bad)]) == 2


def test_missing_config_exits_2(tmp_path, capsys):
    assert cli.main(["design", "--config", str(tmp_path / "nope.ini")]) == 2


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    for command in ("design", "beampattern"):
        assert cli.main([command, "--mode", "omnidirectional", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot write {out}" in err
        assert "Traceback" not in err
    assert not out.parent.exists()


def test_unusable_sizes_exit_2(tmp_path, capsys):
    # too few snapshots for the probe, too few receive antennas for MUSIC
    for old, new in (("snapshots = 64", "snapshots = 9"),
                     ("num_rx = 8", "num_rx = 2")):
        ini = tmp_path / "sizes.ini"
        ini.write_text(SMALL_INI.replace(old, new), encoding="utf-8")
        assert cli.main(["sweep-power", "--config", str(ini),
                         "--out", str(tmp_path / "out.csv")]) == 2
        assert "config error" in capsys.readouterr().err


def test_degenerate_targets_exit_4(tmp_path, capsys):
    ini = tmp_path / "dup.ini"
    ini.write_text(SMALL_INI.replace("target_angles_deg = -40.0, 25.0",
                                     "target_angles_deg = 10.0, 10.0"),
                   encoding="utf-8")
    assert cli.main(["design", "--config", str(ini)]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_infeasible_design_exits_3(cfg_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise InfeasibleError("forced failure", detail={"gap": 1.0})

    monkeypatch.setattr(isacbeam.design, "run", refuse)
    assert cli.main(["design", "--config", cfg_path]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_sweep_runs_no_trial_when_its_last_design_fails(cfg_path, tmp_path, capsys,
                                                       monkeypatch):
    # every design runs before any Monte-Carlo trial: a typed error from
    # the last one leaves no CSV and no trial spent
    designs, trials = [], []
    run, substream = isacbeam.design.run, radar.substream

    def last_refuses(scenario, mode, **kwargs):
        designs.append(mode)
        if len(designs) == 4:
            raise InfeasibleError("forced failure", detail={"gap": 1.0})
        return run(scenario, mode, **kwargs)

    def counting(*args):
        trials.append(args)
        return substream(*args)

    monkeypatch.setattr(isacbeam.design, "run", last_refuses)
    monkeypatch.setattr(radar, "substream", counting)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep-power", "--config", cfg_path, "--mode", "sgcdf,omnidirectional",
                     "--out", str(out)]) == 3
    assert "infeasible" in capsys.readouterr().err
    assert len(designs) == 4 and trials == [] and not out.exists()


@pytest.mark.parametrize("command, values", [("sweep-power", 2), ("sweep-delta", 2),
                                             ("beampattern", 1)])
def test_commands_build_each_scenario_once_for_all_modes(command, values, cfg_path, tmp_path,
                                                        monkeypatch):
    # one scenario per grid value, handed to every mode's design
    built, seen = [], []
    build, run = cli.build_scenario, isacbeam.design.run

    def counting_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def recording_run(scenario, mode, **kwargs):
        seen.append(scenario)
        return run(scenario, mode, **kwargs)

    monkeypatch.setattr(cli, "build_scenario", counting_build)
    monkeypatch.setattr(isacbeam.design, "run", recording_run)
    assert cli.main([command, "--config", cfg_path, "--mode", "sgcdf,omnidirectional",
                     "--out", str(tmp_path / "out.csv")]) == 0
    assert len(built) == values
    assert [id(s) for s in seen] == [id(s) for s in built for _ in range(2)]


def test_sweep_power_schema_and_trends(cfg_path, tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = ["sweep-power", "--config", cfg_path,
            "--mode", "sgcdf,omnidirectional"]
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert cli.main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    _, header, rows = cli.read_csv(out_a.read_text(encoding="utf-8"))
    assert header == cli.SWEEP_POWER_HEADER
    # power-major, mode-minor ordering
    assert [(r[0], r[1]) for r in rows] == [
        ("10.0", "sgcdf"), ("10.0", "omnidirectional"),
        ("20.0", "sgcdf"), ("20.0", "omnidirectional")]
    by_mode = {(r[0], r[1]): r for r in rows}
    for mode in ("sgcdf", "omnidirectional"):
        low, high = by_mode[("10.0", mode)], by_mode[("20.0", mode)]
        assert float(high[2]) > float(low[2])          # gain grows with power
        assert float(high[3]) < float(low[3])          # sum-CRLB shrinks
    assert all(0 <= int(r[-1]) <= 3 for r in rows)     # degraded trials of 3


def test_sweep_delta_schema_and_zero_delta(cfg_path, tmp_path):
    out = tmp_path / "delta.csv"
    assert cli.main(["sweep-delta", "--config", cfg_path,
                     "--mode", "sgcdf", "--out", str(out)]) == 0
    _, header, rows = cli.read_csv(out.read_text(encoding="utf-8"))
    assert header == cli.SWEEP_DELTA_HEADER
    assert [r[0] for r in rows] == ["0.0", "0.7"]
    for row in rows:
        assert float(row[4]) >= float(row[5]) - 1e-6   # min_rate vs r_min
    assert float(rows[0][5]) == 0.0
    assert all(0 <= int(r[-1]) <= 3 for r in rows)     # degraded trials of 3
    assert float(rows[1][2]) >= float(rows[0][2]) * (1.0 - 1e-12)
    # delta = 0 removes the rate constraint entirely
    cfg = load_config(cfg_path)
    unconstrained = design.run(build_scenario(cfg, overload=0.0),
                               "sensing_only", opts=build_options(cfg))
    assert float(rows[0][2]) == unconstrained.sum_crlb


@pytest.mark.parametrize("command", ["sweep-power", "sweep-delta"])
@pytest.mark.parametrize("music_grid", ["0.5", "0.02"])
def test_sweeps_declare_full_scans_in_row_order(command, music_grid, tmp_path):
    # one count of uncertified trials per row, ahead of the header, each
    # the count that the one-trial reference leaves uncertified; at 0.5
    # deg the 8-element grid's coarse stride of 8 steps, 4 deg, is wider
    # than 1 / (4 M_R) rad, and it certifies every trial
    ini = tmp_path / "grid.ini"
    ini.write_text(SMALL_INI.replace("music_grid_deg = 0.5", f"music_grid_deg = {music_grid}"),
                   encoding="utf-8")
    out = tmp_path / "sweep.csv"
    argv = [command, "--config", str(ini), "--mode", "sgcdf,omnidirectional"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    meta, _, rows = cli.read_csv(text)
    cfg = load_config(str(ini))
    exp = cfg["experiment"]
    grid_key, override, header = {
        "sweep-power": ("power_grid_dbm", "power_budget_dbm", cli.SWEEP_POWER_HEADER),
        "sweep-delta": ("delta_grid", "overload", cli.SWEEP_DELTA_HEADER)}[command]
    designs = [(s, design.run(s, mode, opts=build_options(cfg)))
               for s in (build_scenario(cfg, **{override: value}) for value in exp[grid_key])
               for mode in ("sgcdf", "omnidirectional")]
    counts = [r.full_scans for r in radar.monte_carlo_sweep(designs, exp["trials"],
                                                            grid_deg=exp["music_grid_deg"])]
    assert meta == [("full_scans", ";".join(map(str, counts)))] and len(counts) == len(rows)
    # the metadata line is the only addition ahead of the header row
    assert text.startswith(f"# full_scans={meta[0][1]}\n{','.join(header)}\n")
    assert counts == [one_trial_monte_carlo(s, res, exp["trials"], exp["music_grid_deg"])[2].sum()
                      for s, res in designs]


def test_sweep_power_runs_on_a_one_point_music_grid(tmp_path):
    # a MUSIC step above 360 deg leaves the one grid point -90 deg: one
    # coarse column, fewer than the two targets, and no interval, so every
    # trial keeps the whole grid
    ini = tmp_path / "point.ini"
    ini.write_text(SMALL_INI.replace("music_grid_deg = 0.5", "music_grid_deg = 400"),
                   encoding="utf-8")
    out = tmp_path / "point.csv"
    assert cli.main(["sweep-power", "--config", str(ini), "--out", str(out)]) == 0
    meta, _, rows = cli.read_csv(out.read_text(encoding="utf-8"))
    assert meta == [("full_scans", ";".join(["3"] * len(rows)))] and len(rows) == 2


def test_sweep_delta_rejects_out_of_range_grid(tmp_path, capsys):
    ini = tmp_path / "range.ini"
    ini.write_text(SMALL_INI.replace("delta_grid = 0.0, 0.7",
                                     "delta_grid = 0.5, 1.5"),
                   encoding="utf-8")
    assert cli.main(["sweep-delta", "--config", str(ini)]) == 2


@pytest.mark.parametrize("command", ["sweep-power", "sweep-delta"])
@pytest.mark.parametrize("old, new", [
    ("music_grid_deg = 0.5", "music_grid_deg = 0"),
    ("music_grid_deg = 0.5", "music_grid_deg = -0.5"),
    ("trials = 3", "trials = 0"),
])
def test_sweeps_reject_unusable_monte_carlo_settings(command, old, new, tmp_path, capsys):
    ini = tmp_path / "mc.ini"
    ini.write_text(SMALL_INI.replace(old, new), encoding="utf-8")
    assert cli.main([command, "--config", str(ini), "--mode", "omnidirectional"]) == 2
    assert "config error" in capsys.readouterr().err


def test_beampattern_grid_and_metadata(cfg_path, tmp_path, capsys):
    out = tmp_path / "bp.csv"
    args = ["beampattern", "--config", cfg_path, "--mode", "omnidirectional,sensing_only"]
    assert cli.main(args + ["--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert cli.main(args) == 0
    # without --out the same bytes go to stdout
    assert capsys.readouterr().out == text
    meta, header, rows = cli.read_csv(text)
    assert header == cli.BEAMPATTERN_HEADER
    assert dict(meta)["target_angles_deg"] == "-40.0;25.0"
    assert len(dict(meta)["user_angles_deg"].split(";")) == 2
    assert len(rows) == 37 * 2
    assert rows[0][:2] == ["-90.0", "omnidirectional"]
    assert rows[1][:2] == ["-90.0", "sensing_only"]
    assert rows[-1][0] == "90.0"
    thetas = [float(r[0]) for r in rows[::2]]
    assert thetas == list(np.linspace(-90.0, 90.0, 37))
    assert all(np.isfinite(float(r[2])) for r in rows)


@pytest.mark.parametrize("mode", design.MODES)
@pytest.mark.parametrize("key", ["power_budget_dbm", "noise_power_dbm"])
def test_non_finite_powers_exit_2(key, mode, tmp_path, capsys):
    ini = tmp_path / "power.ini"
    ini.write_text(SMALL_INI.replace("seed = 3", f"seed = 3\n{key} = nan"),
                   encoding="utf-8")
    assert cli.main(["design", "--config", str(ini), "--mode", mode]) == 2
    assert f"bad value for '{key}'" in capsys.readouterr().err


def test_non_finite_power_grid_exits_2(tmp_path, capsys):
    ini = tmp_path / "grid.ini"
    ini.write_text(SMALL_INI.replace("power_grid_dbm = 10.0, 20.0",
                                     "power_grid_dbm = 10.0, nan"),
                   encoding="utf-8")
    assert cli.main(["sweep-power", "--config", str(ini), "--mode", "omnidirectional",
                     "--out", str(tmp_path / "out.csv")]) == 2
    assert "bad value for 'power_grid_dbm'" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
def test_bad_solver_tolerance_exits_2(eps, tmp_path, capsys):
    ini = tmp_path / "eps.ini"
    ini.write_text(SMALL_INI + f"\n[solver]\neps = {eps}\n", encoding="utf-8")
    assert cli.main(["design", "--config", str(ini)]) == 2
    assert "bad value for 'eps'" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-1", "nan"])
def test_beampattern_rejects_unusable_grid(step, tmp_path, capsys):
    ini = tmp_path / "bp.ini"
    ini.write_text(SMALL_INI.replace("\ngrid_deg = 5.0", f"\ngrid_deg = {step}"),
                   encoding="utf-8")
    assert cli.main(["beampattern", "--config", str(ini), "--mode", "omnidirectional",
                     "--out", str(tmp_path / "bp.csv")]) == 2
    assert "bad value for 'grid_deg'" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["out = x.csv", "seed = 7"] + [
    pytest.param(f"[solver]\n{key} = 1", id=f"solver-{key}")
    for key in ("c1", "c2", "max_linesearch_evals", "restart_period")])
def test_removed_experiment_keys_exit_2(line, tmp_path, capsys):
    ini = tmp_path / "old.ini"
    ini.write_text(SMALL_INI + line + "\n", encoding="utf-8")
    assert cli.main(["design", "--config", str(ini)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_every_config_key_is_read(tmp_path, monkeypatch):
    read = set()

    class Recording(dict):
        def __init__(self, name, items):
            super().__init__(items)
            self.name = name

        def __getitem__(self, key):
            read.add((self.name, key))
            return super().__getitem__(key)

    load = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path: {
        name: Recording(name, keys) for name, keys in load(path).items()})
    make_scenario = config.sc.make_scenario

    def recording_make_scenario(**kwargs):
        # build_scenario passes the section as **kwargs, past __getitem__
        read.update(("scenario", key) for key in kwargs)
        return make_scenario(**kwargs)

    monkeypatch.setattr(config.sc, "make_scenario", recording_make_scenario)
    ini = tmp_path / "tiny.ini"
    ini.write_text(SMALL_INI.replace("trials = 3", "trials = 1")
                   .replace("power_grid_dbm = 10.0, 20.0", "power_grid_dbm = 10.0")
                   .replace("delta_grid = 0.0, 0.7", "delta_grid = 0.7"),
                   encoding="utf-8")
    out = str(tmp_path / "out.csv")
    for command in ("design", "sweep-power", "sweep-delta", "beampattern"):
        assert cli.main([command, "--config", str(ini), "--out", out]) == 0
    schema = {(section, key) for section, keys in _SCHEMA.items() for key in keys}
    assert schema - read == set()


@pytest.mark.parametrize("command, old, new", [
    ("sweep-power", "target_ranges_m = 50.0, 60.0", "target_ranges_m = 50.0, nan"),
    ("sweep-power", "music_grid_deg = 0.5", "music_grid_deg = inf"),
    ("design", "target_angles_deg = -40.0, 25.0", "target_angles_deg = -40.0, 100.0"),
    ("design", "seed = 3", "seed = 3\nuser_range_max_m = inf"),
    ("design", "seed = 3", "seed = 3\npower_budget_dbm = 4000"),
    ("design", "seed = 3", "seed = 3\npathloss_ref_db = 5000"),
    # (d0/50 m)^270 overflows; pyproject turns a RuntimeWarning into a failure
    ("design", "seed = 3", "seed = 3\npathloss_exponent = -135"),
    ("design", "num_users = 2", "num_users = -1"),
    ("design", "delta_grid = 0.0, 0.7", "delta_grid = 0.0, 0.7\n[solver]\nmax_iters = 0"),
    # a config is invalid whichever subcommand reads it
    ("design", "music_grid_deg = 0.5", "music_grid_deg = 0"),
])
def test_bad_config_values_exit_2_without_traceback(command, old, new, tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text(SMALL_INI.replace(old, new), encoding="utf-8")
    assert cli.main([command, "--config", str(ini), "--mode", "omnidirectional",
                     "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


_TINY = {
    "scenario": {"num_tx": 4, "num_rx": 4, "num_users": 1, "snapshots": 16, "seed": 3,
                 "target_angles_deg": (-40.0, 25.0), "target_ranges_m": (50.0, 60.0)},
    "experiment": {"trials": 1, "grid_deg": 5.0, "music_grid_deg": 0.5,
                   "power_grid_dbm": (20.0,)},
}
_FLOAT_KEYS = [(section, key) for section, keys in _SCHEMA.items()
               for key, (_, default) in keys.items() if isinstance(default, (float, tuple))]
_EXTREMES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "-1e300", "1e300", "1e10",
                     "400", "95", "-135", "180", "1e-9"]),
    st.floats(-1e3, -1e-3).map(repr))


def _ini_text(values):
    def text(v):
        return ", ".join(map(str, v)) if isinstance(v, tuple) else str(v)
    return "".join(f"[{name}]\n" + "".join(f"{k} = {text(v)}\n" for k, v in keys.items())
                   for name, keys in values.items())


@settings(max_examples=60, deadline=None)
@given(slot=st.sampled_from(_FLOAT_KEYS), index=st.integers(0, 1), value=_EXTREMES,
       mode=st.sampled_from(design.MODES))
def test_any_float_value_runs_or_exits_with_a_typed_error(slot, index, value, mode):
    # one float key, or one entry of a float list, set to an extreme value
    section, key = slot
    values = {name: {k: d for k, (_, d) in keys.items()} for name, keys in _SCHEMA.items()}
    for name, overrides in _TINY.items():
        values[name].update(overrides)
    entries = values[section][key]
    if isinstance(entries, tuple):
        i = min(index, len(entries) - 1)
        values[section][key] = entries[:i] + (value,) + entries[i + 1:]
    else:
        values[section][key] = value
    text = _ini_text(values)
    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "tiny.ini")
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in ("design", "sweep-power", "beampattern"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, "--config", ini, "--mode", mode,
                                 "--out", os.path.join(tmp, "out.csv")])
            assert code in (0, 2, 3, 4), (command, text)
