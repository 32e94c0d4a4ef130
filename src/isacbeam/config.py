"""Flat key-value configuration with scenario/solver/experiment sections.

Powers are dBm and angles are degrees in config files; conversion to
watts and radians happens exactly once, when the scenario is built.
Parsing is strict: unknown sections or keys are rejected with their
location, each value's cast checks that it is finite and in range, and
a parsed config dumps back to text that re-parses to an identical
structure.
"""

import configparser
import io
import math
from dataclasses import dataclass

from . import scenario as sc
from .errors import ConfigError
from .rcg import RcgOptions


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _float_list(text):
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(_finite(part) for part in items)


def _checked(cast, ok, rule):
    """Cast that also rejects parsed values failing ``ok``, stating ``rule``."""
    def parse(text):
        value = cast(text)
        if not ok(value):
            raise ValueError(rule)
        return value
    return parse


# angle grid step: 0.001 deg gives at most 180,001 grid points
_grid_step = _checked(_finite, lambda x: x >= 1e-3, "must be at least 0.001 deg")


_SCHEMA = {
    "scenario": {
        "num_tx": (int, sc.DEFAULT_NUM_TX),
        "num_rx": (int, sc.DEFAULT_NUM_RX),
        "num_users": (int, sc.DEFAULT_NUM_USERS),
        "target_angles_deg": (_float_list, sc.DEFAULT_TARGET_ANGLES_DEG),
        "target_ranges_m": (_float_list, sc.DEFAULT_TARGET_RANGES_M),
        "noise_power_dbm": (_finite, sc.DEFAULT_NOISE_POWER_DBM),
        "power_budget_dbm": (_finite, sc.DEFAULT_POWER_BUDGET_DBM),
        "snapshots": (int, sc.DEFAULT_SNAPSHOTS),
        "rician_k": (_finite, sc.DEFAULT_RICIAN_K),
        "overload": (_finite, sc.DEFAULT_OVERLOAD),
        "seed": (int, sc.DEFAULT_SEED),
        "user_range_min_m": (_finite, sc.DEFAULT_USER_RANGE_M[0]),
        "user_range_max_m": (_finite, sc.DEFAULT_USER_RANGE_M[1]),
        "user_angle_min_deg": (_finite, sc.DEFAULT_USER_SECTOR_DEG[0]),
        "user_angle_max_deg": (_finite, sc.DEFAULT_USER_SECTOR_DEG[1]),
        "pathloss_exponent": (_finite, sc.DEFAULT_PATHLOSS_EXPONENT),
        "pathloss_ref_db": (_finite, sc.DEFAULT_PATHLOSS_REF_DB),
        "pathloss_ref_m": (_finite, sc.DEFAULT_PATHLOSS_REF_M),
    },
    "solver": {
        "c1": (_finite, 1e-4),
        "c2": (_finite, 0.4),
        "eps": (_checked(_finite, lambda x: x >= 0, "must be nonnegative"), 1e-3),
        "max_iters": (int, 2000),
        "max_linesearch_evals": (int, 30),
        "restart_period": (int, 0),      # 0 means automatic (column count)
    },
    "experiment": {
        "power_grid_dbm": (_float_list, (10.0, 15.0, 20.0)),
        "delta_grid": (_checked(_float_list, lambda xs: all(0 <= x <= 1 for x in xs),
                                "entries must lie in [0, 1]"), (0.3, 0.5, 0.7)),
        "trials": (_checked(int, lambda n: n >= 1, "must be at least 1"), 30),
        "grid_deg": (_grid_step, 0.1),    # beampattern trace resolution
        "music_grid_deg": (_grid_step, 0.02),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: tuple     # frozen (key, value) pairs per section
    solver: tuple
    experiment: tuple

    def section(self, name):
        return dict(getattr(self, name))

    def get(self, section, key):
        return self.section(section)[key]


def _freeze(values):
    return ExperimentConfig(
        scenario=tuple(sorted(values["scenario"].items())),
        solver=tuple(sorted(values["solver"].items())),
        experiment=tuple(sorted(values["experiment"].items())))


def default_config():
    return _freeze({s: {k: d for k, (_, d) in keys.items()}
                    for s, keys in _SCHEMA.items()})


def parse_config(text, source="<config>"):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    values = {s: {k: d for k, (_, d) in keys.items()} for s, keys in _SCHEMA.items()}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{source}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{source}: unknown key '{key}' in [{section}]")
            cast = _SCHEMA[section][key][0]
            try:
                values[section][key] = cast(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{source}: bad value for '{key}' in [{section}]: {raw!r} ({exc})"
                ) from exc
    return _freeze(values)


def load_config(path=None):
    if path is None:
        return default_config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read(), source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def dump_config(cfg):
    """Config as INI text; parse_config(dump_config(c)) == c."""
    out = io.StringIO()
    for section in ("scenario", "solver", "experiment"):
        out.write(f"[{section}]\n")
        for key, value in getattr(cfg, section):
            if isinstance(value, tuple):
                text = ",".join(repr(v) for v in value)
            else:
                text = repr(value) if isinstance(value, float) else str(value)
            out.write(f"{key} = {text}\n")
        out.write("\n")
    return out.getvalue()


def build_scenario(cfg, seed=None, power_budget_dbm=None, overload=None):
    """Scenario from the config's scenario section, with overrides."""
    s = cfg.section("scenario")
    if seed is None:
        seed = s["seed"]
    if power_budget_dbm is None:
        power_budget_dbm = s["power_budget_dbm"]
    if overload is None:
        overload = s["overload"]
    if len(s["target_angles_deg"]) != len(s["target_ranges_m"]):
        raise ConfigError("target_angles_deg and target_ranges_m lengths differ")
    # the probe needs one snapshot per stream, MUSIC one spare receive antenna
    if s["snapshots"] < s["num_users"] + s["num_tx"]:
        raise ConfigError(f"snapshots = {s['snapshots']} is below num_users + num_tx "
                          f"= {s['num_users'] + s['num_tx']}")
    if s["num_rx"] <= len(s["target_angles_deg"]):
        raise ConfigError(f"num_rx = {s['num_rx']} must exceed the number of targets "
                          f"({len(s['target_angles_deg'])})")
    try:
        return sc.make_scenario(
            num_tx=s["num_tx"], num_rx=s["num_rx"], num_users=s["num_users"],
            target_angles_deg=s["target_angles_deg"],
            target_ranges_m=s["target_ranges_m"],
            noise_power_dbm=s["noise_power_dbm"],
            power_budget_dbm=power_budget_dbm,
            snapshots=s["snapshots"], rician_k=s["rician_k"],
            overload=overload, seed=seed,
            user_range_m=(s["user_range_min_m"], s["user_range_max_m"]),
            user_sector_deg=(s["user_angle_min_deg"], s["user_angle_max_deg"]),
            pathloss_exponent=s["pathloss_exponent"],
            pathloss_ref_db=s["pathloss_ref_db"],
            pathloss_ref_m=s["pathloss_ref_m"])
    except (ValueError, OverflowError) as exc:
        # OverflowError: finite dB values or user ranges too large for a float
        raise ConfigError(f"invalid scenario: {exc}") from exc


def build_options(cfg):
    s = cfg.section("solver")
    try:
        return RcgOptions(
            c1=s["c1"], c2=s["c2"], eps=s["eps"], max_iters=s["max_iters"],
            max_linesearch_evals=s["max_linesearch_evals"],
            restart_period=s["restart_period"] or None)
    except ValueError as exc:
        raise ConfigError(f"invalid solver options: {exc}") from exc
