"""Flat key-value experiment configuration.

Keys use dotted section prefixes (``scenario.ts = 0.01``); '#' starts a
comment.  The parsed configuration is validated eagerly so a bad file
fails before any pipeline stage runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib.resources import files as _pkg_files
from pathlib import Path

from loadsysid.errors import ConfigError
from loadsysid.greybox import FREE_ALL, FREE_DEFAULT
from loadsysid.motor import MotorSpec
from loadsysid.sim import ExternalNoise, NoiseWindow, Scenario

# Seeds of the external-injection and sensor-noise streams, as offsets from
# the configuration's seed (the motor torque noise draws from the seed).
_EXTERNAL_SEED_OFFSET = 1000
_MEASUREMENT_SEED_OFFSET = 500


@dataclass
class ExperimentConfig:
    case_text: str
    scenario: Scenario
    analysis_window: tuple
    motor: MotorSpec
    band_hz: tuple
    segment: int
    info_segment: int
    pe_order_max: int
    pad_factor: int
    ident_init: str
    ident_restarts: int
    ident_burn_in: int
    ident_q: float
    ident_rm: float
    ident_free: tuple
    ident_maxiter: int
    seed: int
    out_dir: str


def _parse_kv(text):
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        values[key] = val
    return values


def _get(values, key, cast, default=None, required=False):
    """Cast and remove ``values[key]``; what is left over once the
    configuration is built is unknown."""
    if key not in values:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = values.pop(key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc


def _window(values, name, duration):
    """A noise window's keys, read whether or not its variance is zero."""
    key = f"scenario.{name}."
    return {"variance": _get(values, key + "variance", float, 0.0),
            "start": _get(values, key + "start", float, 0.0),
            "end": _get(values, key + "end", float, duration),
            "hold_dt": _get(values, key + "hold", float)}


def parse_init(mode):
    """Split an ``ident.init`` value into its mode and value: ("truth",
    None), ("perturbed", percent) or ("explicit", {name: value})."""
    if mode == "truth":
        return "truth", None
    kind, _, arg = mode.partition(":")
    try:
        if kind == "perturbed":
            return "perturbed", float(arg)
        if kind == "explicit":
            values = [float(v) for v in arg.split(",")]
            if len(values) == len(FREE_DEFAULT):
                return "explicit", dict(zip(FREE_DEFAULT, values))
    except ValueError:
        pass
    raise ConfigError(f"bad ident.init mode {mode!r}: expected truth, "
                      f"perturbed:<percent> or explicit:"
                      f"{','.join(FREE_DEFAULT)}")


def resolve_case(name_or_path, base_dir=None):
    """Text of a bundled case, by name, or of a case file."""
    bundled = _pkg_files("loadsysid.cases")
    candidate = bundled.joinpath(f"{name_or_path}.case")
    if candidate.is_file():
        return candidate.read_text()
    path = Path(name_or_path)
    if not path.is_absolute() and base_dir is not None:
        path = Path(base_dir) / path
    if not path.is_file():
        raise ConfigError(f"case file not found: {name_or_path}")
    return path.read_text()


def load_config(text, base_dir=None, seed_override=None):
    values = _parse_kv(text)
    seed = _get(values, "seed", int, 1)
    if seed_override is not None:
        seed = seed_override

    case_text = resolve_case(_get(values, "case", str, "wscc9"), base_dir)

    duration = _get(values, "scenario.duration", float, 20.0)
    ts = _get(values, "scenario.ts", float, 0.01)
    dt = _get(values, "scenario.dt_integration", float, 0.0005)

    internal = _window(values, "internal", duration)
    internal = (NoiseWindow(seed=seed, **internal)
                if internal["variance"] > 0 else None)
    external = _window(values, "external", duration)
    active = external["variance"] > 0
    external.update(
        seed=seed + _EXTERNAL_SEED_OFFSET,
        bus=_get(values, "scenario.external.bus", int, required=active),
        direction_deg=_get(values, "scenario.external.direction_deg",
                           float, 0.0))
    external = ExternalNoise(**external) if active else None
    mvar = tuple(
        _get(values, f"scenario.measurement.{c}", float, 0.0)
        for c in ("v", "theta", "p", "q")
    )
    scenario = Scenario(
        duration=duration,
        dt_integration=dt,
        dt_sample=ts,
        internal=internal,
        external=external,
        measurement_variance=mvar,
        measurement_seed=seed + _MEASUREMENT_SEED_OFFSET,
    )
    band = (
        _get(values, "diagnostics.band_low_hz", float, 0.0),
        _get(values, "diagnostics.band_high_hz", float, 10.0),
    )
    if band[1] > 0.5 / ts + 1e-12:
        raise ConfigError(
            f"diagnostic band edge {band[1]} Hz exceeds the Nyquist "
            f"frequency {0.5 / ts} Hz"
        )
    motor = MotorSpec(
        X=_get(values, "motor.X", float, required=True),
        Xp=_get(values, "motor.Xp", float, required=True),
        Td0p=_get(values, "motor.Td0p", float, required=True),
        Tj=_get(values, "motor.Tj", float, required=True),
        s0=_get(values, "motor.s0", float, None),
    )
    window = (
        _get(values, "analysis.start", float,
             internal.start if internal else 0.0),
        _get(values, "analysis.end", float, duration),
    )
    init_mode = _get(values, "ident.init", str, "perturbed:30")
    parse_init(init_mode)
    free = tuple(
        s.strip() for s in _get(values, "ident.free", str,
                                ",".join(FREE_DEFAULT)).split(",")
        if s.strip()
    )
    unknown = [name for name in free if name not in FREE_ALL]
    if unknown:
        raise ConfigError(f"ident.free names unknown parameters {unknown}; "
                          f"choose from {FREE_ALL}")
    cfg = ExperimentConfig(
        case_text=case_text,
        scenario=scenario,
        analysis_window=window,
        motor=motor,
        band_hz=band,
        segment=_get(values, "diagnostics.segment", int, 64),
        info_segment=_get(values, "diagnostics.info_segment", int, 32),
        pe_order_max=_get(values, "diagnostics.pe_order_max", int, 60),
        pad_factor=_get(values, "diagnostics.pad_factor", int, 4),
        ident_init=init_mode,
        ident_restarts=_get(values, "ident.restarts", int, 2),
        ident_burn_in=_get(values, "ident.burn_in", int, 50),
        ident_q=_get(values, "ident.q", float, 0.002),
        ident_rm=_get(values, "ident.rm", float, 1e-8),
        ident_free=free,
        ident_maxiter=_get(values, "ident.maxiter", int, 300),
        seed=seed,
        out_dir=_get(values, "out", str, "out"),
    )
    if values:
        raise ConfigError(f"unknown configuration keys {sorted(values)}")
    for key, value in (("ident.q", cfg.ident_q), ("ident.rm", cfg.ident_rm),
                       ("ident.burn_in", cfg.ident_burn_in)):
        if not 0 <= value < math.inf:
            raise ConfigError(f"{key} must be finite and non-negative, "
                              f"got {value!r}")
    return cfg


def load_config_file(path, seed_override=None):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    return load_config(p.read_text(), base_dir=p.parent,
                       seed_override=seed_override)


def default_config_text():
    return _pkg_files("loadsysid.cases").joinpath("reference.cfg").read_text()
