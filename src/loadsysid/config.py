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

from loadsysid.errors import CaseValidationError, ConfigError
from loadsysid.greybox import FREE
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


def _get(values, key, cast, default=None, required=False, low=None,
         strict=False):
    """Cast and remove ``values[key]``; what is left over once the
    configuration is built is unknown.  A value read with a lower bound
    ``low`` must be finite and at least ``low``, or above it if ``strict``
    (``low=-math.inf``: finite only)."""
    if key not in values:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = values.pop(key)
    try:
        value = cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
    if low is not None and not (math.isfinite(value) and (
            value > low or (value == low and not strict))):
        bound = "" if low == -math.inf else (
            f" and {'>' if strict else '>='} {low}")
        raise ConfigError(f"{key} must be finite{bound}, got {value!r}")
    return value


def _window(values, name, duration):
    """A noise window's keys, read whether or not its variance is zero."""
    key = f"scenario.{name}."
    return {"variance": _get(values, key + "variance", float, 0.0, low=0.0),
            "start": _get(values, key + "start", float, 0.0),
            "end": _get(values, key + "end", float, duration),
            "hold_dt": _get(values, key + "hold", float, low=0.0,
                            strict=True)}


def parse_init(mode):
    """Split an ``ident.init`` value into its mode and value: ("truth",
    None), ("perturbed", percent) or ("explicit", {name: value})."""
    if mode == "truth":
        return "truth", None
    kind, _, arg = mode.partition(":")
    try:
        if kind == "perturbed" and math.isfinite(float(arg)):
            return "perturbed", float(arg)
        if kind == "explicit":
            values = [float(v) for v in arg.split(",")]
            if len(values) == len(FREE):
                return "explicit", dict(zip(FREE, values))
    except ValueError:
        pass
    raise ConfigError(f"bad ident.init mode {mode!r}: expected truth, "
                      f"perturbed:<percent> or explicit:"
                      f"{','.join(FREE)}")


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
    seed = _get(values, "seed", int, 1, low=0)
    if seed_override is not None:
        seed = _get({"--seed": seed_override}, "--seed", int, low=0)

    case_text = resolve_case(_get(values, "case", str, "wscc9"), base_dir)

    duration, ts, dt = (
        _get(values, f"scenario.{key}", float, default, low=0.0, strict=True)
        for key, default in (("duration", 20.0), ("ts", 0.01),
                             ("dt_integration", 0.0005)))

    internal = _window(values, "internal", duration)
    internal = (NoiseWindow(seed=seed, **internal)
                if internal["variance"] > 0 else None)
    external = _window(values, "external", duration)
    active = external["variance"] > 0
    external.update(
        seed=seed + _EXTERNAL_SEED_OFFSET,
        bus=_get(values, "scenario.external.bus", int, required=active),
        direction_deg=_get(values, "scenario.external.direction_deg",
                           float, 0.0, low=-math.inf))
    external = ExternalNoise(**external) if active else None
    mvar = tuple(
        _get(values, f"scenario.measurement.{c}", float, 0.0, low=0.0)
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
        _get(values, "diagnostics.band_low_hz", float, 0.0, low=0.0),
        _get(values, "diagnostics.band_high_hz", float, 10.0, low=0.0),
    )
    if band[1] > 0.5 / ts + 1e-12:
        raise ConfigError(
            f"diagnostic band edge {band[1]} Hz exceeds the Nyquist "
            f"frequency {0.5 / ts} Hz"
        )
    try:
        motor = MotorSpec(
            X=_get(values, "motor.X", float, required=True),
            Xp=_get(values, "motor.Xp", float, required=True),
            Td0p=_get(values, "motor.Td0p", float, required=True),
            Tj=_get(values, "motor.Tj", float, required=True),
            s0=_get(values, "motor.s0", float, None),
        )
    except CaseValidationError as exc:
        raise ConfigError(f"motor: {exc}") from exc
    window = (
        _get(values, "analysis.start", float,
             internal.start if internal else 0.0, low=0.0),
        _get(values, "analysis.end", float, duration, low=0.0),
    )
    init_mode = _get(values, "ident.init", str, "perturbed:30")
    parse_init(init_mode)
    cfg = ExperimentConfig(
        case_text=case_text,
        scenario=scenario,
        analysis_window=window,
        motor=motor,
        band_hz=band,
        segment=_get(values, "diagnostics.segment", int, 64, low=1),
        info_segment=_get(values, "diagnostics.info_segment", int, 32, low=1),
        pe_order_max=_get(values, "diagnostics.pe_order_max", int, 60, low=1),
        pad_factor=_get(values, "diagnostics.pad_factor", int, 4, low=1),
        ident_init=init_mode,
        ident_restarts=_get(values, "ident.restarts", int, 2, low=1),
        ident_burn_in=_get(values, "ident.burn_in", int, 50, low=0),
        ident_q=_get(values, "ident.q", float, 0.002, low=0.0),
        ident_rm=_get(values, "ident.rm", float, 1e-8, low=0.0),
        ident_maxiter=_get(values, "ident.maxiter", int, 300, low=0),
        seed=seed,
        out_dir=_get(values, "out", str, "out"),
    )
    if values:
        raise ConfigError(f"unknown configuration keys {sorted(values)}")
    return cfg


def load_config_file(path, seed_override=None):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    return load_config(p.read_text(), base_dir=p.parent,
                       seed_override=seed_override)


def default_config_text():
    return _pkg_files("loadsysid.cases").joinpath("reference.cfg").read_text()
