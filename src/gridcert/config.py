"""JSON system configuration: schema validation and loading.

A config document looks like::

    {
      "omega0": 314.159,                  # optional, rad/s (default 2 pi 60)
      "buses": [
        {"id": 1,
         "device": {"kind": "two_axis", "M": 0.2, "D": 1.0, "tau_d": 5.0,
                    "tau_q": 1.0, "X_d": 0.10, "X_q": 0.069,
                    "X_d_prime": 0.05, "X_q_prime": 0.03},
         "spec": {"type": "pv", "P": 1.0, "V": 1.0}},
        ...
      ],
      "lines": [{"from": 1, "to": 2, "b": 40.0}, ...]
    }

Device kinds: two_axis, vsg, fdc, load. Bus spec types: slack (theta, V),
pv (P, V), pq (P, Q); exactly one slack, and V > 0. All values per-unit,
angles in radians; every number must be finite (no Infinity, NaN or 1e400).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .devices import OMEGA0_DEFAULT, ConstantPowerLoad, _real, device_from_dict
from .network import PQ, PV, Line, Network, Slack
from .system import PowerSystem

__all__ = ["ConfigError", "LoadedConfig", "parse_config", "load_config", "fixture_path",
           "apply_load_mode"]


class ConfigError(ValueError):
    """Configuration document violates the schema."""


@dataclass
class LoadedConfig:
    """Parsed configuration: the physical system plus power-flow bus specs."""

    system: PowerSystem
    bus_specs: list
    bus_ids: list


def _get(doc, key, where, types=None):
    if key not in doc:
        raise ConfigError(f"{where}: missing required key '{key}'")
    value = doc[key]
    # a boolean is an int to isinstance, and no key takes one
    if types is not None and (not isinstance(value, types) or isinstance(value, bool)):
        raise ConfigError(f"{where}: key '{key}' has wrong type {type(value).__name__}")
    return value


def _number(doc, key, where, default=None):
    """The finite number under `key`; `default` where the key is absent and has one."""
    value = _get(doc, key, where) if default is None else doc.get(key, default)
    try:
        value = _real(value, key)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: key '{key}' must be finite, got {value}")
    return value


def _parse_spec(doc, where):
    kind = _get(doc, "type", where, str)
    if kind == "pq":
        return PQ(P=_number(doc, "P", where), Q=_number(doc, "Q", where))
    if kind == "slack":
        spec = Slack(theta=_number(doc, "theta", where, 0.0), V=_number(doc, "V", where, 1.0))
    elif kind == "pv":
        spec = PV(P=_number(doc, "P", where), V=_number(doc, "V", where))
    else:
        raise ConfigError(f"{where}: unknown bus spec type {kind!r}")
    if not spec.V > 0:
        raise ConfigError(f"{where}: key 'V' must be positive, got {spec.V}")
    return spec


def parse_config(doc):
    """Validate a config mapping and build the PowerSystem and bus specs."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    buses = _get(doc, "buses", "config", list)
    if not buses:
        raise ConfigError("config: at least one bus required")
    lines_doc = _get(doc, "lines", "config", list) if "lines" in doc else []
    omega0 = _number(doc, "omega0", "config", OMEGA0_DEFAULT)
    if omega0 <= 0:
        raise ConfigError("config: omega0 must be positive")

    index = {}  # bus id -> position
    devices = []
    specs = []
    for k, bus in enumerate(buses):
        where = f"buses[{k}]"
        if not isinstance(bus, dict):
            raise ConfigError(f"{where}: must be an object")
        bus_id = _get(bus, "id", where, int)
        if bus_id in index:
            raise ConfigError(f"{where}: duplicate bus id {bus_id}")
        index[bus_id] = k
        device = _get(bus, "device", where, dict)
        try:
            devices.append(device_from_dict(device))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        specs.append(_parse_spec(_get(bus, "spec", where, dict), f"{where}.spec"))

    n_slack = sum(isinstance(s, Slack) for s in specs)
    if n_slack != 1:
        raise ConfigError(f"config: exactly one slack bus required, got {n_slack}")

    lines = []
    for k, ln in enumerate(lines_doc):
        where = f"lines[{k}]"
        if not isinstance(ln, dict):
            raise ConfigError(f"{where}: must be an object")
        fr = _get(ln, "from", where, int)
        to = _get(ln, "to", where, int)
        for end in (fr, to):
            if end not in index:
                raise ConfigError(f"{where}: unknown bus id {end}")
        b = _get(ln, "b", where)
        try:
            lines.append(Line(from_bus=index[fr], to_bus=index[to], b=_real(b, "b")))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    try:
        net = Network.from_lines(len(index), lines)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc
    return LoadedConfig(system=PowerSystem(net, devices, omega0), bus_specs=specs, bus_ids=list(index))


def load_config(path):
    """Read and parse a JSON config file."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def fixture_path(name):
    """Filesystem path of a bundled fixture config (e.g. 'three_bus.json')."""
    return Path(__file__).parent / "fixtures" / name


def find_load_bus(cfg: LoadedConfig):
    """Index of the unique consumption bus (PQ spec with negative P)."""
    candidates = [i for i, s in enumerate(cfg.bus_specs) if isinstance(s, PQ) and s.P < 0]
    if len(candidates) != 1:
        raise ConfigError(
            f"load-mode switching needs exactly one PQ bus with P < 0, found {len(candidates)}"
        )
    return candidates[0]


def apply_load_mode(cfg: LoadedConfig, mode):
    """Return a config with the consumption bus device set to the requested mode.

    'forming' keeps the configured grid-forming device (vsg/fdc) at the load
    bus; 'following' replaces it with a constant-power load drawing the bus
    spec's (P, Q).
    """
    if mode is None:
        return cfg
    if mode not in ("forming", "following"):
        raise ConfigError(f"unknown load mode {mode!r}; expected 'forming' or 'following'")
    i = find_load_bus(cfg)
    devices = list(cfg.system.devices)
    spec = cfg.bus_specs[i]
    if mode == "following":
        devices[i] = ConstantPowerLoad(P_ref=spec.P, Q_ref=spec.Q)
    else:
        if isinstance(devices[i], ConstantPowerLoad):
            raise ConfigError(
                "grid-forming mode needs an inverter device (vsg/fdc) configured at the load bus"
            )
    system = PowerSystem(cfg.system.net, devices, cfg.system.omega0)
    return LoadedConfig(system=system, bus_specs=list(cfg.bus_specs), bus_ids=list(cfg.bus_ids))
