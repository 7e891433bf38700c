from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsysid.errors import CaseValidationError, ToolkitError
from loadsysid.motor import (LoadParameters, MotorSpec, emf_steady_state,
                             motor_pq)
from loadsysid.series import MeasurementSeries, detrend


def _params(**kw):
    base = dict(X=3.679, Xp=0.296, Td0p=0.576, Tj=2.0, s0=0.01)
    base.update(kw)
    return LoadParameters(**base)


def test_parameter_invariants():
    _params()  # valid
    with pytest.raises(CaseValidationError):
        _params(Xp=4.0)
    with pytest.raises(CaseValidationError):
        _params(s0=0.0)
    with pytest.raises(CaseValidationError):
        _params(s0=1.5)
    with pytest.raises(CaseValidationError):
        _params(Td0p=-1.0)
    with pytest.raises(CaseValidationError):
        _params(V0=0.0)
    for name in ("X", "Xp", "Td0p", "Tj", "s0", "V0"):
        with pytest.raises(CaseValidationError):
            _params(**{name: float("nan")})


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(("X", "Xp", "Td0p", "Tj", "s0", "V0", "theta0")),
       value=st.sampled_from((float("nan"), float("inf"), float("-inf"))),
       scale=st.floats(1.0, 1e3))
def test_non_finite_fields_are_rejected(name, value, scale):
    """A NaN or infinite field fails as invalid parameters, in the motor
    spec as in the identified parameters, however large the finite ones."""
    base = dict(X=3.679 * scale, Xp=0.296, Td0p=0.576 * scale,
                Tj=2.0 * scale, s0=0.01)
    with pytest.raises(CaseValidationError):
        LoadParameters(**{**base, name: value})
    if name in base:
        with pytest.raises(CaseValidationError):
            MotorSpec(**{**base, name: value})
    LoadParameters(**base)
    MotorSpec(**base)


def test_steady_state_power_matches_current_formula():
    v = 1.03 * np.exp(0.2j)
    s = 0.013
    e = emf_steady_state(3.679, 0.296, 0.576, s, v)
    i = (v - e) / (1j * 0.296)
    s_drawn = v * np.conj(i)
    p, q = motor_pq(3.679, 0.296, 0.576, s, v)
    assert abs(s_drawn.real - p) < 1e-12
    assert abs(s_drawn.imag - q) < 1e-12
    # lossless stator: torque equals drawn active power
    assert abs((e.real * v.imag - e.imag * v.real) / 0.296 - p) < 1e-12


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.5, 10.0), xp_ratio=st.floats(0.01, 0.9),
       td0p=st.floats(0.01, 10.0), tj=st.floats(0.01, 10.0),
       s0=st.floats(1e-4, 0.5), v0=st.floats(0.5, 1.5),
       theta0=st.floats(-3.0, 3.0), v1=st.floats(0.5, 1.5),
       theta1=st.floats(-3.0, 3.0))
def test_emf_pair_is_the_steady_state_of_the_operating_point(
        x, xp_ratio, td0p, tj, s0, v0, theta0, v1, theta1):
    def expected(p):
        e0 = emf_steady_state(p.X, p.Xp, p.Td0p, p.s0,
                              p.V0 * np.exp(1j * p.theta0))
        return float(e0.real), float(e0.imag)

    p = LoadParameters(X=x, Xp=xp_ratio * x, Td0p=td0p, Tj=tj, s0=s0,
                       V0=v0, theta0=theta0)
    assert (p.Exp0, p.Eyp0) == expected(p)
    moved = replace(p, V0=v1, theta0=theta1)
    assert (moved.Exp0, moved.Eyp0) == expected(moved)
    with pytest.raises(TypeError):
        _params(Exp0=p.Exp0)


def _series(n=100, ts=0.01, offset=0.0):
    rng = np.random.default_rng(5)
    data = rng.standard_normal((n, 4)) + offset
    return MeasurementSeries(ts=ts, time=np.arange(n) * ts, data=data)


def test_series_requires_uniform_grid():
    t = np.array([0.0, 0.01, 0.03])
    with pytest.raises(ToolkitError):
        MeasurementSeries(ts=0.01, time=t, data=np.zeros((3, 4)))


def test_detrend_constant_series_gives_zero_deltas():
    ser = MeasurementSeries(ts=0.01, time=np.arange(10) * 0.01,
                            data=np.full((10, 4), 3.3))
    out = detrend(ser)
    assert out.detrended
    assert np.max(np.abs(out.deltas)) == 0.0


def test_detrend_shift_invariance():
    a = detrend(_series())
    b = detrend(_series(offset=7.5))
    assert np.allclose(a.deltas, b.deltas, atol=1e-12)


def test_detrend_empty_errors():
    ser = MeasurementSeries(ts=0.01, time=np.empty(0), data=np.empty((0, 4)))
    with pytest.raises(ToolkitError):
        detrend(ser)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_detrended_means_are_tiny(seed):
    rng = np.random.default_rng(seed)
    n = 64
    data = rng.standard_normal((n, 4)) * rng.uniform(0.1, 10)
    ser = MeasurementSeries(ts=0.02, time=np.arange(n) * 0.02, data=data)
    out = detrend(ser)
    stds = out.deltas.std(axis=0)
    assert np.all(np.abs(out.deltas.mean(axis=0)) < 1e-12 * np.maximum(stds, 1e-30))


def test_window_selects_half_open_interval():
    ser = _series(n=100)
    win = ser.window(0.2, 0.5)
    assert len(win) == 30
    assert abs(win.time[0] - 0.2) < 1e-12
    assert win.time[-1] < 0.5


def test_current_phasor_definition():
    data = np.array([[1.02, 0.1, 0.9, 0.3]])
    ser = MeasurementSeries(ts=0.01, time=np.array([0.0]), data=data)
    v = ser.voltage_phasor()[0]
    i = ser.current_phasor()[0]
    s = v * np.conj(i)
    assert abs(s.real - 0.9) < 1e-12 and abs(s.imag - 0.3) < 1e-12
