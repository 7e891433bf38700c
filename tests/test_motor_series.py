import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsysid.errors import CaseValidationError, EquilibriumError, ToolkitError
from loadsysid.motor import (
    LoadParameters,
    emf_steady_state,
    motor_pq,
    solve_slip_for_power,
)
from loadsysid.series import MeasurementSeries, detrend


def _params(**kw):
    base = dict(X=3.679, Xp=0.296, Td0p=0.576, Tj=2.0, s0=0.01,
                Exp0=0.9, Eyp0=-0.19)
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


def test_solve_slip_roundtrip():
    v = 1.0127 * np.exp(-0.064j)
    s = solve_slip_for_power(3.679, 0.296, 0.576, 0.9, v)
    p, _ = motor_pq(3.679, 0.296, 0.576, s, v)
    assert abs(p - 0.9) < 1e-10
    assert 0 < s < 1


def test_slip_solve_infeasible_cases():
    v = 1.0 + 0j
    with pytest.raises(EquilibriumError):
        solve_slip_for_power(3.679, 0.296, 0.576, 0.0, v)
    with pytest.raises(EquilibriumError):
        solve_slip_for_power(3.679, 0.296, 0.576, 50.0, v)


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
