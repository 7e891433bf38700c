import math

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsysid.config import default_config_text, load_config
from loadsysid.errors import EquilibriumError, SimulationError, ToolkitError
from loadsysid.network import load_case, solve_power_flow
from loadsysid.pipeline import build_system
from loadsysid.series import detrend
from loadsysid import sim
from loadsysid.sim import (
    ExternalNoise,
    NoiseWindow,
    Scenario,
    _rhs,
    init_equilibrium,
    linear_response,
    linearize_system,
    simulate,
)
from loadsysid.constants import OMEGA_S

from conftest import TRUE_MOTOR
from loops import linear_response_loop, rhs_full_network, simulate_loop


def test_equilibrium_matches_reference_values(wscc_eq):
    p = wscc_eq.params
    assert abs(p.s0 - 0.01) < 1e-12
    assert abs(p.Exp0 - 0.9014) < 1e-2
    assert abs(p.Eyp0 - (-0.1911)) < 1e-2
    # the printed values are reproduced to their full four digits
    assert abs(p.Exp0 - 0.9014) < 1e-4
    assert abs(p.Eyp0 - (-0.1911)) < 1e-4


def test_equilibrium_derivative_norm(wscc_eq):
    dz, _ = _rhs(wscc_eq, wscc_eq.equilibrium_state())
    assert np.linalg.norm(dz) < 1e-9
    assert wscc_eq.deriv_norm < 1e-9


# Perturbation scale per state: rotor angles, speeds, EMF pair, slip.
_STATE_SCALE = np.array([0.2, 0.01, 0.2, 0.01, 0.05, 0.05, 0.005])


@settings(max_examples=60, deadline=None)
@given(dstate=st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7),
       e_int=st.floats(-0.2, 0.2),
       xi=st.floats(-0.2, 0.2),
       angle=st.floats(0.0, 2 * math.pi),
       inject=st.booleans())
def test_reduced_rhs_matches_full_network_solve(wscc_eq, dstate, e_int, xi,
                                                angle, inject):
    z = wscc_eq.equilibrium_state() + _STATE_SCALE * np.array(dstate)
    if inject:   # xi_ext, ext_index, ext_dir
        ext = (xi, wscc_eq.case.bus_index()[8],
               complex(math.cos(angle), math.sin(angle)))
    else:
        ext = (0.0, None, 1.0 + 0j)
    dz_map, v_map = _rhs(wscc_eq, z, e_int, *ext)
    dz_full, v_full = rhs_full_network(wscc_eq, z, e_int, *ext)
    # Per-unit derivatives cancel to zero at equilibrium, so the relative
    # gate is taken against the unit scale of the terms that cancel.
    assert np.max(np.abs(dz_map - dz_full)) <= 1e-12 * max(
        1.0, np.max(np.abs(dz_full)))
    assert np.max(np.abs(v_map - v_full)) <= 1e-12 * np.max(np.abs(v_full))


def test_equilibrium_torque_balance(wscc_eq):
    # electrical torque equals the held mechanical torque at equilibrium
    idx = wscc_eq.case.bus_index()
    v6 = wscc_eq.v_eq[idx[wscc_eq.motor_bus]]
    te = (wscc_eq.exy0.real * v6.imag - wscc_eq.exy0.imag * v6.real) / wscc_eq.params.Xp
    assert abs(te - wscc_eq.tm) < 1e-9


def test_zero_scheduled_load_is_infeasible(wscc_case, wscc_pf):
    from loadsysid.network import Load, NetworkCase

    loads = [ld if ld.kind != "motor" else Load(ld.bus, 0.0, 0.0, "motor")
             for ld in wscc_case.loads]
    case = NetworkCase(wscc_case.buses, wscc_case.branches,
                       wscc_case.generators, loads)
    pf = solve_power_flow(case)
    with pytest.raises(EquilibriumError):
        init_equilibrium(case, pf, TRUE_MOTOR)


def test_zero_noise_hold(wscc_case, wscc_eq):
    ser = simulate(wscc_case, wscc_eq, Scenario(duration=5.0))
    assert len(ser) == 501
    drift = np.max(np.abs(ser.data - ser.data[0]), axis=0)
    assert np.all(drift < 1e-8)


@pytest.mark.parametrize("mvar", [1e-8, (1e-8, 1e-8, 1e-8),
                                  (1e-8, -1e-8, 1e-8, 1e-8)])
def test_scenario_takes_four_measurement_variances(mvar):
    with pytest.raises(ToolkitError):
        Scenario(duration=1.0, measurement_variance=mvar)


def test_simulation_determinism(wscc_case, wscc_eq):
    sc = Scenario(duration=3.0,
                  internal=NoiseWindow(0.002, 1.0, 3.0, seed=11))
    a = simulate(wscc_case, wscc_eq, sc)
    b = simulate(wscc_case, wscc_eq, sc)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.time, b.time)


def test_linearization_against_finite_differences(wscc_case, wscc_eq):
    model = linearize_system(wscc_case, wscc_eq, disturbance_bus=8)
    z0 = wscc_eq.equilibrium_state()
    nx = len(z0)
    a_fd = np.zeros((nx, nx))
    for j in range(nx):
        h = 1e-6 * max(1.0, abs(z0[j]))
        zp, zm = z0.copy(), z0.copy()
        zp[j] += h
        zm[j] -= h
        a_fd[:, j] = (_rhs(wscc_eq, zp)[0] - _rhs(wscc_eq, zm)[0]) / (2 * h)
    assert np.max(np.abs(model.a - a_fd)) < 1e-6


def test_generator_block_reproduces_swing_structure(wscc_case, wscc_eq):
    model = linearize_system(wscc_case, wscc_eq)
    labels = model.state_labels
    for i, bus in enumerate(wscc_eq.dyn_gen_buses):
        g = wscc_case.generator_at(bus)
        r = 2 * i
        # speed row of the angle derivative is the synchronous speed
        row = model.a[r]
        expect = np.zeros(len(labels))
        expect[r + 1] = OMEGA_S
        assert np.allclose(row, expect, atol=1e-12)
        # diagonal damping entry of the speed row
        assert abs(model.a[r + 1, r + 1] + g.damping / g.tj) < 1e-12


def test_stable_eigenvalues(wscc_case, wscc_eq):
    model = linearize_system(wscc_case, wscc_eq)
    assert np.all(model.eigenvalues().real < 0.0)


def test_small_pulse_matches_linear_response(wscc_case, wscc_eq):
    # deterministic one-hold torque pulse of 1e-5 magnitude
    sc = Scenario(duration=2.0,
                  internal=NoiseWindow(0.0, 0.2, 0.21, seed=0,
                                       hold_dt=0.01, value=1e-5))
    ser = simulate(wscc_case, wscc_eq, sc)
    model = linearize_system(wscc_case, wscc_eq)
    n = len(ser)
    d = np.zeros((n, 1))
    k0 = int(round(0.2 / 0.01))
    d[k0, 0] = 1e-5
    lin = linear_response(model, d, 0.01)
    for col, name in ((2, "p"), (3, "q")):
        nl = ser.column(name) - ser.column(name)[0]
        li = lin[:n, col]
        denom = np.linalg.norm(li)
        assert np.linalg.norm(nl - li) / denom < 0.01


def test_linear_nonlinear_consistency(wscc_case, wscc_eq):
    sc = Scenario(duration=5.0,
                  internal=NoiseWindow(0.002, 1.5, 5.0, seed=7, hold_dt=0.0005))
    ser = simulate(wscc_case, wscc_eq, sc)
    rng = np.random.default_rng(7)
    n_sub = int(round(5.0 / 0.0005))
    t = np.arange(n_sub) * 0.0005
    mask = (t >= 1.5 - 1e-12) & (t < 5.0 - 1e-12)
    e = np.zeros(n_sub)
    e[mask] = np.sqrt(0.002 * 0.01 / 0.0005) * rng.standard_normal(int(mask.sum()))
    model = linearize_system(wscc_case, wscc_eq)
    lin = linear_response(model, e[:, None], 0.0005)[::20]
    n = min(len(lin), len(ser))
    for col, name in ((2, "p"), (3, "q")):
        nl = ser.column(name)[:n] - ser.column(name)[0]
        li = lin[:n, col]
        nrmse = np.linalg.norm(nl - li) / np.linalg.norm(nl)
        assert nrmse < 0.05


def test_step_size_convergence(wscc_case, wscc_eq):
    nw = lambda: NoiseWindow(0.002, 1.0, 5.0, seed=7, hold_dt=0.0005)
    s1 = simulate(wscc_case, wscc_eq,
                  Scenario(duration=5.0, dt_integration=0.0005, internal=nw()))
    s2 = simulate(wscc_case, wscc_eq,
                  Scenario(duration=5.0, dt_integration=0.00025, internal=nw()))
    for col in range(4):
        a = s1.data[:, col] - s1.data[0, col]
        b = s2.data[:, col] - s2.data[0, col]
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-6


def test_linear_response_superposition(wscc_case, wscc_eq):
    model = linearize_system(wscc_case, wscc_eq, disturbance_bus=8)
    rng = np.random.default_rng(0)
    d1 = rng.standard_normal((200, 2)) * 1e-3
    d2 = rng.standard_normal((200, 2)) * 1e-3
    r1 = linear_response(model, d1, 0.01)
    r2 = linear_response(model, d2, 0.01)
    r12 = linear_response(model, d1 + d2, 0.01)
    assert np.max(np.abs(r12 - (r1 + r2))) < 1e-12
    assert np.max(np.abs(linear_response(model, 3.0 * d1, 0.01) - 3.0 * r1)) < 1e-12
    assert np.max(np.abs(linear_response(model, 0.0 * d1, 0.01))) == 0.0


@pytest.mark.parametrize("ts, n", [(0.01, 2000), (0.0005, 10000)])
def test_linear_response_matches_loop_oracle(wscc_case, wscc_eq, ts, n):
    model = linearize_system(wscc_case, wscc_eq, disturbance_bus=8)
    d = 1e-3 * np.random.default_rng(1).standard_normal((n, 2))
    got = linear_response(model, d, ts)
    want = linear_response_loop(model, d, ts)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_measurement_noise_is_seeded(wscc_case, wscc_eq):
    sc = Scenario(duration=1.0, measurement_variance=(1e-8, 1e-8, 1e-8, 1e-8),
                  measurement_seed=4)
    a = simulate(wscc_case, wscc_eq, sc)
    b = simulate(wscc_case, wscc_eq, sc)
    assert np.array_equal(a.data, b.data)
    c = simulate(wscc_case, wscc_eq, replace(sc, measurement_seed=5))
    assert not np.array_equal(a.data, c.data)


@pytest.mark.parametrize("scenario", [
    Scenario(duration=2.0, internal=NoiseWindow(0.002, 0.5, 2.0, seed=3,
                                                hold_dt=0.01)),
    Scenario(duration=2.0, external=ExternalNoise(0.002, 0.5, 2.0, seed=4,
                                                  hold_dt=0.01, bus=8)),
    Scenario(duration=2.0, internal=NoiseWindow(0.002, 0.5, 2.0, seed=5)),
    Scenario(duration=2.0, internal=NoiseWindow(0.0, 0.2, 0.5, value=0.05)),
    # 2460 substeps: the last window is 60 substeps, two blocks of the
    # propagation with the second one padded.
    Scenario(duration=1.23, internal=NoiseWindow(0.002, 0.5, 1.23, seed=6,
                                                 hold_dt=0.01)),
    # 2420 substeps: the last window is 20 substeps, shorter than one block.
    Scenario(duration=1.21, internal=NoiseWindow(0.002, 0.5, 1.21, seed=9,
                                                 hold_dt=0.01)),
    # The noise starts at substep 625 and ends at substep 1625, inside the
    # first and the third window.
    Scenario(duration=2.0, internal=NoiseWindow(0.002, 0.3105, 0.8115, seed=7,
                                                hold_dt=0.0025)),
    Scenario(duration=2.0, external=ExternalNoise(0.002, 0.5, 2.0, seed=8,
                                                  bus=8)),
], ids=["torque-hold-10ms", "bus8-hold-10ms", "hold-dt", "pulse",
        "short-last-window", "sub-block-last-window", "noise-mid-window",
        "bus8-hold-dt"])
def test_simulate_matches_substep_loop(wscc_case, wscc_eq, scenario):
    """Solving a window of substeps by fixed-point sweeps moves the record
    by no more than rounding from solving one substep at a time."""
    got = simulate(wscc_case, wscc_eq, scenario).data
    want = simulate_loop(wscc_case, wscc_eq, scenario)
    excursion = want.max(axis=0) - want.min(axis=0)
    assert np.all(excursion > 0)
    assert np.all(np.abs(got - want).max(axis=0) <= 1e-12 * excursion)


def test_simulate_rhs_calls_per_substep(wscc_case, wscc_eq, monkeypatch):
    """``simulate`` reaches ``_rhs`` through the module attribute, and the
    sweeps of a window share one stacked call among its substeps: 27 calls
    for 4000 substeps on this record (25 sweeps in five 800-substep
    windows, the linearization and the sample-time call), 0.00675 per
    substep.  The bound is twice that."""
    calls = [0]
    rhs = sim._rhs

    def counted(*args, **kwargs):
        calls[0] += 1
        return rhs(*args, **kwargs)

    monkeypatch.setattr(sim, "_rhs", counted)
    sc = Scenario(duration=2.0,
                  internal=NoiseWindow(0.002, 0.5, 2.0, seed=1, hold_dt=0.01))
    simulate(wscc_case, wscc_eq, sc)
    n_sub = int(round(sc.duration / sc.dt_integration))
    assert calls[0] <= 0.0135 * n_sub


@pytest.mark.parametrize("value, t_fail", [
    (2.0, 1.1825), (5.0, 0.5955), (-2.0, 0.2105), (-5.0, 0.2045),
])
def test_simulate_fails_where_the_substep_loop_fails(wscc_case, wscc_eq,
                                                     value, t_fail):
    """A torque step that stalls or overspeeds the motor stops the record
    at the substep where the slip leaves (0, 1), as the one-substep loop
    does."""
    sc = Scenario(duration=2.0, internal=NoiseWindow(0.0, 0.2, 2.0,
                                                     value=value))
    with pytest.raises(SimulationError, match="slip left") as oracle:
        simulate_loop(wscc_case, wscc_eq, sc)
    with pytest.raises(SimulationError, match="slip left") as got:
        simulate(wscc_case, wscc_eq, sc)
    assert got.value.t == oracle.value.t
    assert got.value.t == pytest.approx(t_fail, abs=1e-9)


def test_simulate_splits_windows_through_a_large_step(wscc_case, wscc_eq):
    """A 1 pu torque step is too far from the equilibrium for full
    ``WINDOW``-substep windows to converge; split windows, most of them
    shorter than one block of the propagation, carry the record through
    it."""
    sc = Scenario(duration=2.0, internal=NoiseWindow(0.0, 0.2, 2.0, value=1.0))
    series = simulate(wscc_case, wscc_eq, sc)
    want = simulate_loop(wscc_case, wscc_eq, sc)
    excursion = want.max(axis=0) - want.min(axis=0)
    assert series.meta["splits"] > 0
    assert np.all(np.abs(series.data - want).max(axis=0) <= 1e-12 * excursion)


def test_simulate_solver_counters_repeat(wscc_case, wscc_eq):
    sc = Scenario(duration=2.0,
                  internal=NoiseWindow(0.002, 0.5, 2.0, seed=1, hold_dt=0.01))
    keys = ("windows", "sweeps", "splits", "rhs_rows")
    a, b = (simulate(wscc_case, wscc_eq, sc).meta for _ in range(2))
    assert [a[k] for k in keys] == [b[k] for k in keys]
    # A small-disturbance record needs no split.
    n_sub = int(round(sc.duration / sc.dt_integration))
    assert a["splits"] == 0 and a["windows"] == n_sub // sim.WINDOW
    assert a["rhs_rows"] == (2 * sim.WINDOW * a["sweeps"]
                             + n_sub // sc.substeps_per_sample + 1)


@pytest.mark.parametrize("dt, bound", [(0.001, 3.1e-6), (0.0025, 2.5e-5)])
def test_integration_step_error_bound(dt, bound):
    """The README's integration-step table: on the 6 s reference record,
    the largest deviation from the 0.5 ms record, over each channel's
    excursion, measured 1.54e-6 at 1 ms and 1.23e-5 at 2.5 ms.  The
    bounds are twice that."""
    cfg = load_config(default_config_text() + """
scenario.duration = 6.0
scenario.internal.end = 6.0
analysis.end = 6.0
""")
    case, _, eq = build_system(cfg)
    sc = replace(cfg.scenario, measurement_variance=(0.0, 0.0, 0.0, 0.0))
    want = simulate(case, eq, sc).data
    got = simulate(case, eq, replace(sc, dt_integration=dt)).data
    excursion = want.max(axis=0) - want.min(axis=0)
    assert (np.abs(got - want).max(axis=0) / excursion).max() <= bound
