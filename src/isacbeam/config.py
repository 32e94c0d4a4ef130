"""Flat key-value configuration with scenario/solver/experiment sections.

The [scenario] keys and their defaults are make_scenario's keywords,
read from its signature, so a scenario parameter is declared only
there. Powers are dBm and angles are degrees in config files;
conversion to watts and radians happens exactly once, when the scenario
is built. Parsing is strict: unknown sections or keys are rejected with
their location, and each value's cast checks that it is finite and,
for the solver and experiment keys, in range.
"""

import configparser
import inspect
import math
from types import MappingProxyType

from . import scenario as sc
from .errors import ConfigError
from .radar import MUSIC_GRID_DEG
from .rcg import RcgOptions


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _float_list(text):
    # an empty entry, or an empty value, fails in float
    return tuple(_finite(part) for part in text.split(","))


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
_count = _checked(int, lambda n: n >= 1, "must be at least 1")
_CAST_BY_TYPE = {int: int, float: _finite, tuple: _float_list}


_SCHEMA = {
    # every make_scenario keyword, cast by the type of its default
    "scenario": {key: (_CAST_BY_TYPE[type(p.default)], p.default)
                 for key, p in inspect.signature(sc.make_scenario).parameters.items()},
    "solver": {
        "eps": (_checked(_finite, lambda x: x >= 0, "must be nonnegative"), RcgOptions.eps),
        "max_iters": (_count, RcgOptions.max_iters),
    },
    "experiment": {
        "power_grid_dbm": (_float_list, (10.0, 15.0, 20.0)),
        "delta_grid": (_checked(_float_list, lambda xs: all(0 <= x <= 1 for x in xs),
                                "entries must lie in [0, 1]"), (0.3, 0.5, 0.7)),
        "trials": (_count, 30),
        "grid_deg": (_grid_step, 0.1),    # beampattern trace resolution
        "music_grid_deg": (_grid_step, MUSIC_GRID_DEG),
    },
}


def parse_config(text, source="<config>"):
    """The config in ``text``, a read-only mapping from each section name
    to a read-only mapping of its keys, every key present (an omitted
    one takes its default)."""
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
    return MappingProxyType({name: MappingProxyType(keys) for name, keys in values.items()})


def load_config(path):
    """The config at ``path``, or the defaults when it is None."""
    if path is None:
        return parse_config("", source="<defaults>")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read(), source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def build_scenario(cfg, **overrides):
    """Scenario from the config's scenario section; each override that
    is not None replaces that key's value."""
    s = dict(cfg["scenario"])
    s.update((key, value) for key, value in overrides.items() if value is not None)
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
        return sc.make_scenario(**s)
    except (ValueError, OverflowError) as exc:
        # OverflowError: finite dB values or user ranges too large for a float
        raise ConfigError(f"invalid scenario: {exc}") from exc


def build_options(cfg):
    s = cfg["solver"]
    return RcgOptions(eps=s["eps"], max_iters=s["max_iters"])
