"""INI configuration parsing and scenario/solver building."""

import inspect

import numpy as np
import pytest

from isacbeam.config import (
    _SCHEMA,
    build_options,
    build_scenario,
    load_config,
    parse_config,
)
from isacbeam.errors import ConfigError
from isacbeam.rcg import RcgOptions
from isacbeam.scenario import make_scenario

SMALL = """
[scenario]
num_tx = 8
num_rx = 8
num_users = 2
target_angles_deg = -40.0, 25.0
target_ranges_m = 50.0, 60.0
snapshots = 64
seed = 3
"""


def test_default_config_values():
    cfg = load_config(None)
    assert cfg.get("scenario", "num_tx") == 32
    assert cfg.get("scenario", "noise_power_dbm") == -96.0
    assert cfg.get("scenario", "target_angles_deg") == (-45.0, 30.0, 60.0)
    assert cfg.get("scenario", "overload") == 0.7
    assert cfg.get("solver", "eps") == 3e-4
    assert set(cfg.section("solver")) == {"eps", "max_iters"}
    assert build_options(cfg) == RcgOptions()
    assert cfg.get("experiment", "trials") == 30
    assert cfg.get("experiment", "power_grid_dbm") == (10.0, 15.0, 20.0)


def test_dump_and_parse_roundtrip_custom():
    text = SMALL + """
[solver]
eps = 1e-05
max_iters = 500

[experiment]
trials = 5
delta_grid = 0.0, 0.25, 0.9
"""
    cfg = parse_config(text)
    assert cfg.get("scenario", "num_tx") == 8
    assert cfg.get("scenario", "target_angles_deg") == (-40.0, 25.0)
    assert cfg.get("solver", "eps") == 1e-5
    assert cfg.get("experiment", "delta_grid") == (0.0, 0.25, 0.9)
    # untouched keys keep their defaults
    assert cfg.get("scenario", "rician_k") == 0.1


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigError, match=r"unknown section \[radar\]"):
        parse_config("[radar]\nx = 1\n")


def test_parse_rejects_unknown_key_with_location():
    with pytest.raises(ConfigError, match=r"custom\.ini.*'num_tx_typo'"):
        parse_config("[scenario]\nnum_tx_typo = 4\n", source="custom.ini")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError, match="'eps'"):
        parse_config("[solver]\neps = fast\n")
    with pytest.raises(ConfigError, match="'target_angles_deg'"):
        parse_config("[scenario]\ntarget_angles_deg =\n")


def test_parse_rejects_malformed_text():
    with pytest.raises(ConfigError):
        parse_config("num_tx = 4\n")


def test_load_config_paths(tmp_path):
    assert all(load_config(None).section(s) == {k: d for k, (_, d) in keys.items()}
               for s, keys in _SCHEMA.items())
    path = tmp_path / "exp.ini"
    path.write_text(SMALL, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.get("scenario", "seed") == 3
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.ini")


def test_build_scenario_seed_precedence():
    cfg = parse_config(SMALL)
    assert build_scenario(cfg).seed == 3
    assert build_scenario(cfg, seed=11).seed == 11


def test_default_config_builds_the_default_scenario():
    # build_scenario passes the [scenario] section to make_scenario as keywords
    params = inspect.signature(make_scenario).parameters
    assert {key: p.default for key, p in params.items()} == \
        {key: default for key, (_, default) in _SCHEMA["scenario"].items()}
    built = build_scenario(load_config(None))
    ref = make_scenario()
    assert (built.array, built.targets) == (ref.array, ref.targets)
    assert np.array_equal(built.channel_matrix(), ref.channel_matrix())
    assert (built.noise_power, built.power_budget) == (ref.noise_power, ref.power_budget)
    assert (built.snapshots, built.overload, built.seed) == \
        (ref.snapshots, ref.overload, ref.seed)


def test_build_scenario_applies_overrides():
    cfg = parse_config(SMALL)
    s = build_scenario(cfg, power_budget_dbm=10.0, overload=0.0, num_users=0)
    assert s.power_budget == pytest.approx(1e-2, rel=1e-12)
    assert s.overload == 0.0
    assert s.num_users == 0
    assert s.snapshots == 64


def test_build_scenario_rejects_mismatched_target_lists():
    cfg = parse_config(SMALL.replace("target_ranges_m = 50.0, 60.0",
                                     "target_ranges_m = 50.0"))
    with pytest.raises(ConfigError, match="lengths differ"):
        build_scenario(cfg)


def test_build_scenario_wraps_validation_errors():
    cfg = parse_config(SMALL + "overload = 1.5\n")
    with pytest.raises(ConfigError, match="invalid scenario"):
        build_scenario(cfg)


def test_build_options_defaults_and_restart():
    opts = build_options(load_config(None))
    assert opts.eps == 3e-4
    assert opts.max_iters == 2000


def test_build_options_accepts_zero_tolerance():
    assert build_options(parse_config("[solver]\neps = 0\n")).eps == 0.0


_FLOAT_KEYS = [(section, key) for section, keys in _SCHEMA.items()
               for key, (_, default) in keys.items() if isinstance(default, (float, tuple))]


@pytest.mark.parametrize("section, key", _FLOAT_KEYS)
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_every_float_value_must_be_finite(section, key, bad):
    default = _SCHEMA[section][key][1]
    texts = [bad]
    if isinstance(default, tuple):
        texts.append(f"{default[0]!r}, {bad}")     # one bad entry of a list
    for text in texts:
        with pytest.raises(ConfigError, match=f"bad value for '{key}' in \\[{section}\\]"):
            parse_config(f"[{section}]\n{key} = {text}\n")


_INT_KEYS = [(section, key) for section, keys in _SCHEMA.items()
             for key, (_, default) in keys.items() if isinstance(default, int)]


@pytest.mark.parametrize("section, key", _INT_KEYS)
def test_every_int_value_must_be_an_integer(section, key):
    with pytest.raises(ConfigError, match=f"bad value for '{key}' in \\[{section}\\]"):
        parse_config(f"[{section}]\n{key} = 2.5\n")


@pytest.mark.parametrize("section, key, text", [
    ("experiment", "trials", "0"),
    ("experiment", "grid_deg", "0"),
    ("experiment", "grid_deg", "-0.5"),
    ("experiment", "music_grid_deg", "0"),
    ("experiment", "grid_deg", "0.0005"),
    ("experiment", "grid_deg", "1e-9"),
    ("experiment", "music_grid_deg", "0.0005"),
    ("experiment", "music_grid_deg", "1e-9"),
    ("experiment", "delta_grid", "0.5, 1.5"),
    ("experiment", "delta_grid", "-0.1"),
    ("solver", "eps", "-1e-9"),
    ("solver", "max_iters", "0"),
    # an empty list entry is not skipped
    ("scenario", "target_angles_deg", "-45.0,,30.0"),
    ("experiment", "power_grid_dbm", "10.0,"),
    ("scenario", "target_ranges_m", ", 50"),
])
def test_parse_rejects_out_of_range_values(section, key, text):
    with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
        parse_config(f"[{section}]\n{key} = {text}\n")


def test_parse_accepts_range_edges():
    cfg = parse_config("[experiment]\ntrials = 1\ndelta_grid = 0, 1\n"
                       "grid_deg = 0.001\nmusic_grid_deg = 0.001\n"
                       "[solver]\neps = 0\n")
    assert cfg.get("experiment", "trials") == 1
    assert cfg.get("experiment", "delta_grid") == (0.0, 1.0)
    assert cfg.get("experiment", "grid_deg") == 0.001
    assert cfg.get("experiment", "music_grid_deg") == 0.001


@pytest.mark.parametrize("old, new", [
    ("seed = 3", "seed = 3\npower_budget_dbm = 4000"),
    ("seed = 3", "seed = 3\npathloss_ref_db = 5000"),
    ("num_users = 2", "num_users = -1"),
])
def test_build_scenario_maps_overflow_and_negative_counts(old, new):
    with pytest.raises(ConfigError, match="invalid scenario"):
        build_scenario(parse_config(SMALL.replace(old, new)))


@pytest.mark.parametrize("keys", [
    "user_angle_min_deg = -100.0\n",
    "user_range_min_m = 0.2\nuser_range_max_m = 2.0\n",
])
def test_user_sector_and_annulus_fail_on_every_seed(keys):
    # a draw can land inside such a sector or annulus, so only a check
    # made before the draws fails on every seed
    cfg = parse_config(SMALL.replace("num_tx = 8", "num_tx = 4")
                       .replace("num_rx = 8", "num_rx = 4")
                       .replace("num_users = 2", "num_users = 3") + keys)
    for seed in range(1, 61):
        with pytest.raises(ConfigError, match="invalid scenario"):
            build_scenario(cfg, seed=seed)
