import math

import numpy as np
import pytest
from dataclasses import replace

from loadsysid.constants import OMEGA_S
from loadsysid.errors import FrequencyDomainError, ToolkitError
from loadsysid.freq import (
    FrequencyResponse,
    closed_loop_response,
    generator_frf,
    load_frf,
    load_noise_frf,
    reduce_to_load,
    superposition_decompose,
)
from loadsysid.greybox import NoiseConfig, assemble_continuous
from loadsysid.network import expand_real, load_case, solve_power_flow
from loadsysid.sim import init_equilibrium, linear_response, linearize_system

from conftest import TRUE_MOTOR
from loops import (
    frequency_system,
    generator_frf_loop,
    load_frf_loop,
    load_noise_frf_loop,
    reduce_to_load_loop,
)


@pytest.fixture(scope="module")
def grid():
    return 2.0 * math.pi * np.logspace(math.log10(0.05), 1.0, 30)


@pytest.fixture(scope="module")
def k_and_model(wscc_case, wscc_eq, grid):
    k, kh = reduce_to_load(wscc_case, wscc_eq, grid, disturbance_bus=8)
    model = linearize_system(wscc_case, wscc_eq, disturbance_bus=8)
    return k, kh, model


def _gen_quantities(wscc_case, wscc_eq, bus):
    g = wscc_case.generator_at(bus)
    e_ph = wscc_eq.gen_emag[bus] * np.exp(1j * wscc_eq.gen_delta[bus])
    v_ph = wscc_eq.v_eq[wscc_case.bus_index()[bus]]
    return g, e_ph, v_ph


def test_generator_frf_high_frequency_limit(wscc_case, wscc_eq):
    g, e_ph, v_ph = _gen_quantities(wscc_case, wscc_eq, 2)
    frf = generator_frf(g, e_ph, v_ph, np.array([1e6]))
    d = np.array([[0.0, -1.0], [1.0, 0.0]]) / g.xdp
    assert np.max(np.abs(frf[0] - d)) / np.max(np.abs(d)) < 1e-4


def test_generator_frf_dc_limit(wscc_case, wscc_eq):
    g, e_ph, v_ph = _gen_quantities(wscc_case, wscc_eq, 3)
    ex, ey = e_ph.real, e_ph.imag
    k_delta = (ex * v_ph.real + ey * v_ph.imag) / g.xdp
    a = np.array([[0.0, OMEGA_S], [-k_delta / g.tj, -g.damping / g.tj]])
    b = np.array([[0.0, 0.0], [-ey / (g.xdp * g.tj), ex / (g.xdp * g.tj)]])
    c = np.array([[ex / g.xdp, 0.0], [ey / g.xdp, 0.0]])
    d = np.array([[0.0, -1.0], [1.0, 0.0]]) / g.xdp
    dc_direct = c @ np.linalg.solve(-a, b) + d
    frf = generator_frf(g, e_ph, v_ph, np.array([1e-9]))
    assert np.max(np.abs(frf[0] - dc_direct)) < 1e-8


def test_generator_frf_against_nonlinear_fd_oracle(wscc_case, wscc_eq):
    """Independent oracle: finite differences of the generator's own
    nonlinear swing and injection equations."""
    g, e_ph, v_ph = _gen_quantities(wscc_case, wscc_eq, 2)
    e_mag = abs(e_ph)
    delta0 = float(np.angle(e_ph))

    def inj(delta, v):
        e = e_mag * np.exp(1j * delta)
        return (e - v) / (1j * g.xdp)

    def pe(delta, v):
        return float(np.real(e_mag * np.exp(1j * delta) * np.conj(inj(delta, v))))

    pm = pe(delta0, v_ph)
    h = 1e-7

    def f(state, v):
        delta, w = state
        return np.array([
            OMEGA_S * w,
            (pm - pe(delta, v) - g.damping * w) / g.tj,
        ])

    x0 = np.array([delta0, 0.0])
    a_fd = np.zeros((2, 2))
    for j in range(2):
        dx = np.zeros(2)
        dx[j] = h
        a_fd[:, j] = (f(x0 + dx, v_ph) - f(x0 - dx, v_ph)) / (2 * h)
    b_fd = np.zeros((2, 2))
    c_fd = np.zeros((2, 2))
    d_fd = np.zeros((2, 2))
    for j, dv in enumerate((h, 1j * h)):
        b_fd[:, j] = (f(x0, v_ph + dv) - f(x0, v_ph - dv)) / (2 * h)
        di = (inj(delta0, v_ph + dv) - inj(delta0, v_ph - dv)) / (2 * h)
        d_fd[:, j] = (di.real, di.imag)
    di_dd = (inj(delta0 + h, v_ph) - inj(delta0 - h, v_ph)) / (2 * h)
    c_fd[:, 0] = (di_dd.real, di_dd.imag)

    omega = np.array([0.5, 3.0, 20.0])
    frf = generator_frf(g, e_ph, v_ph, omega)
    for i, w in enumerate(omega):
        oracle = c_fd @ np.linalg.solve(1j * w * np.eye(2) - a_fd, b_fd) + d_fd
        assert np.max(np.abs(frf[i] - oracle)) < 1e-6


def test_reduction_passive_network_limit(wscc_case, wscc_eq):
    """With the generator dynamics removed, the reduction is the constant
    Kron complement of the machine-folded admittance matrix."""
    eq_passive = replace(wscc_eq, dyn_gen_buses=[])
    grid_small = np.array([1e-6, 1.0])
    k, _ = reduce_to_load(wscc_case, eq_passive, grid_small)
    idx = wscc_case.bus_index()
    m = idx[6]
    y = wscc_eq.y_dyn.copy()
    y[m, m] -= 1.0 / (1j * wscc_eq.params.Xp)
    yr = expand_real(y)
    keep = [2 * m, 2 * m + 1]
    drop = [i for i in range(18) if i not in keep]
    schur = yr[np.ix_(keep, keep)] - yr[np.ix_(keep, drop)] @ np.linalg.solve(
        yr[np.ix_(drop, drop)], yr[np.ix_(drop, keep)])
    for i in range(len(grid_small)):
        assert np.max(np.abs(k.values[i] - (-schur))) < 1e-9


def test_reduction_full_inverse_oracle(wscc_case, wscc_eq, k_and_model):
    """K evaluated via the Schur elimination equals the load block of the
    inverted full frequency-domain system."""
    k, _, _ = k_and_model
    idx = wscc_case.bus_index()
    m = idx[6]
    sl = [2 * m, 2 * m + 1]
    mats = frequency_system(wscc_eq, k.omega)
    y_motor = expand_real(np.array([[1.0 / (1j * wscc_eq.params.Xp)]]))
    for i in range(0, len(k.omega), 5):
        mat = mats[i].copy()
        mat[np.ix_(sl, sl)] -= y_motor
        inv_block = np.linalg.inv(mat)[np.ix_(sl, sl)]
        k_oracle = -np.linalg.inv(inv_block)
        assert np.max(np.abs(k.values[i] - k_oracle)) < 1e-9


def _max_rel_dev(got, want):
    """Largest deviation per grid point over that point's largest entry."""
    dev = np.abs(got - want).max(axis=(1, 2))
    return float(np.max(dev / np.abs(want).max(axis=(1, 2))))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_responses_match_loops(wscc_case, wscc_eq, seed):
    """The once-per-grid reduction and the stacked solves agree with the
    per-frequency elimination on the full system."""
    rng = np.random.default_rng(seed)
    omega = np.unique(np.concatenate([
        rng.uniform(-80.0, 80.0, 40),
        rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-9, -3, 4),
        [0.0],
    ]))
    bus, angle = [5, 7, 8][seed], rng.uniform(0.0, 360.0)
    k, kh = reduce_to_load(wscc_case, wscc_eq, omega, disturbance_bus=bus,
                           direction_deg=angle)
    k_loop, kh_loop = reduce_to_load_loop(wscc_case, wscc_eq, omega,
                                          disturbance_bus=bus,
                                          direction_deg=angle)
    assert _max_rel_dev(k.values, k_loop) < 1e-12
    assert _max_rel_dev(kh.values, kh_loop) < 1e-12
    for gen_bus in wscc_eq.dyn_gen_buses:
        args = _gen_quantities(wscc_case, wscc_eq, gen_bus) + (omega,)
        assert _max_rel_dev(generator_frf(*args), generator_frf_loop(*args)) < 1e-12
    params = wscc_eq.params
    assert _max_rel_dev(load_frf(params, omega).values,
                        load_frf_loop(params, omega)) < 1e-12
    noise = NoiseConfig()
    assert _max_rel_dev(load_noise_frf(params, omega, noise).values,
                        load_noise_frf_loop(params, omega, noise)) < 1e-12


def test_undamped_generator_fails_at_its_frequency(wscc_case, wscc_eq):
    """A singular generator response is a typed failure at the first grid
    point where it occurs, from the generator and from the reduction."""
    g, e_ph, v_ph = _gen_quantities(wscc_case, wscc_eq, 2)
    k_delta = (e_ph.real * v_ph.real + e_ph.imag * v_ph.imag) / g.xdp
    w_n = math.sqrt(OMEGA_S * k_delta / g.tj)
    omega = np.array([0.5 * w_n, w_n, 1.5 * w_n])
    undamped = replace(g, damping=0.0)
    with pytest.raises(FrequencyDomainError) as info:
        generator_frf(undamped, e_ph, v_ph, omega)
    assert info.value.omega == w_n
    case = replace(wscc_case, generators=[
        undamped if gen.bus == 2 else gen for gen in wscc_case.generators])
    with pytest.raises(FrequencyDomainError) as info:
        reduce_to_load(case, wscc_eq, omega)
    assert info.value.omega == w_n


def test_reduction_matches_linear_model_transfers(wscc_case, wscc_eq, k_and_model):
    """Under each disturbance alone, the linear model's voltage and current
    transfers must satisfy the feedback and feedforward relations."""
    k, kh, model = k_and_model
    iv = [model.output("vx"), model.output("vy")]
    ii = [model.output("ix"), model.output("iy")]
    nx = model.a.shape[0]

    def transfer(col, rows, w):
        x = np.linalg.solve(1j * w * np.eye(nx) - model.a, model.b[:, col])
        return model.c[rows] @ x + model.d[rows, col]

    for i, w in enumerate(k.omega):
        tv = transfer(0, iv, w)
        ti = transfer(0, ii, w)
        assert np.max(np.abs(k.values[i] @ tv - ti)) < 1e-9 * max(
            1.0, np.max(np.abs(ti)))
        tv_e = transfer(1, iv, w)
        ti_e = transfer(1, ii, w)
        pred = k.values[i] @ tv_e + kh.values[i][:, 0]
        assert np.max(np.abs(pred - ti_e)) < 1e-9 * max(1.0, np.max(np.abs(ti_e)))


def test_reduction_invariant_to_bus_relabeling(wscc_case, wscc_eq, grid):
    from loadsysid.network import Branch, Bus, Generator, Load, NetworkCase
    from loadsysid.sim import init_equilibrium as init_eq

    relabel = {i: i + 40 for i in range(1, 10)}
    case2 = NetworkCase(
        buses=[Bus(relabel[b.id], b.kind, b.vset) for b in wscc_case.buses],
        branches=[Branch(relabel[b.from_bus], relabel[b.to_bus], b.r, b.x, b.b)
                  for b in wscc_case.branches],
        generators=[Generator(relabel[g.bus], g.tj, g.xdp, g.damping, g.pset)
                    for g in wscc_case.generators],
        loads=[Load(relabel[ld.bus], ld.p, ld.q, ld.kind)
               for ld in wscc_case.loads],
    )
    pf2 = solve_power_flow(case2)
    eq2 = init_eq(case2, pf2, TRUE_MOTOR)
    k1, _ = reduce_to_load(wscc_case, wscc_eq, grid)
    k2, _ = reduce_to_load(case2, eq2, grid)
    assert np.max(np.abs(k1.values - k2.values)) < 1e-9


def test_conjugate_symmetry_on_symmetric_grid(wscc_case, wscc_eq):
    pos = np.array([0.5, 2.0, 9.0])
    grid_sym = np.concatenate([-pos[::-1], pos])
    # The value at -w is the conjugate of the value at +w.
    k, _ = reduce_to_load(wscc_case, wscc_eq, grid_sym)
    assert np.allclose(k.values[::-1], np.conj(k.values), atol=1e-10)
    g = load_frf(wscc_eq.params, grid_sym)
    assert np.allclose(g.values[::-1], np.conj(g.values), atol=1e-10)


def test_load_frf_feedthrough_limit(wscc_eq):
    from loadsysid.freq import _output_conversion

    params = wscc_eq.params
    cont = assemble_continuous(params, NoiseConfig())
    w_v, w_y, w_u = _output_conversion(params)
    expected = (w_y @ cont.d + w_u) @ w_v
    frf = load_frf(params, np.array([1e6]))
    assert np.max(np.abs(frf.values[0] - expected)) < 1e-4 * np.max(np.abs(expected))


def test_load_frf_against_spectral_estimate(wscc_eq):
    """H1 estimate from an open-loop record driving the voltage directly."""
    from loadsysid.diagnostics import estimate_spectrum
    from loadsysid.freq import _output_conversion
    from loadsysid.greybox import discretize_zoh, propagate
    from scipy.signal import lfilter

    params = wscc_eq.params
    cont = assemble_continuous(params, NoiseConfig())
    w_v, w_y, w_u = _output_conversion(params)
    ts = 0.001
    cont_rect = replace(cont, b=cont.b @ w_v, d=cont.d @ w_v)
    disc = discretize_zoh(cont_rect, ts)
    rng = np.random.default_rng(8)
    n = 600000
    u_raw = rng.standard_normal((n, 2))
    u = np.column_stack([
        lfilter([0.5], [1, -0.5], u_raw[:, 0]),
        lfilter([0.5], [1, -0.5], u_raw[:, 1]),
    ]) * 1e-3
    y_pq = propagate(disc.ad, disc.bd, disc.cd, disc.dd, u)
    i_rect = (w_y @ y_pq.T + (w_u @ w_v) @ u.T).T
    spec = estimate_spectrum(np.column_stack([u, i_rect]), ts,
                             segment_len=32768)
    mask = (spec.omega >= 2 * math.pi * 0.1) & (spec.omega <= 2 * math.pi * 10)
    om = spec.omega[mask]
    g_true = load_frf(params, om)
    worst = 0.0
    for b, mats in enumerate(spec.matrices[mask]):
        phi_uu = mats[:2, :2]
        phi_iu = mats[2:, :2]
        g_hat = phi_iu @ np.linalg.inv(phi_uu)
        err = np.abs(np.abs(g_hat) - np.abs(g_true.values[b])).max()
        worst = max(worst, err / np.abs(g_true.values[b]).max())
    assert worst < 0.02


def test_closed_loop_response_limits(wscc_case, wscc_eq, k_and_model, grid):
    k, kh, _ = k_and_model
    g = load_frf(wscc_eq.params, grid)
    h = load_noise_frf(wscc_eq.params, grid)
    only_int = closed_loop_response(k, kh, g, h, 1.0, 0.0, grid)
    assert np.max(np.abs(only_int.values - k.values)) < 1e-12
    only_ext = closed_loop_response(k, kh, g, h, 0.0, 1.0, grid)
    assert np.max(np.abs(only_ext.values - g.values)) < 1e-12


def test_closed_loop_response_against_superposition_oracle(
        wscc_case, wscc_eq, k_and_model, grid):
    """Explicitly form the four per-source responses and take their matrix
    ratio; the weighted combination must agree."""
    k, kh, _ = k_and_model
    g = load_frf(wscc_eq.params, grid)
    h = load_noise_frf(wscc_eq.params, grid)
    eff = closed_loop_response(k, kh, g, h, 2.0, 0.5, grid)
    for i in range(0, len(grid), 7):
        ki, gi = k.values[i], g.values[i]
        v_int = np.linalg.solve(ki - gi, h.values[i][:, 0])
        i_int = ki @ v_int
        v_ext = np.linalg.solve(gi - ki, kh.values[i][:, 0])
        i_ext = gi @ v_ext
        t_oracle = np.column_stack([i_int, i_ext]) @ np.linalg.inv(
            np.column_stack([v_int, v_ext]))
        assert np.max(np.abs(eff.values[i] - t_oracle)) < 1e-10


def test_superposition_decompose(wscc_case, wscc_eq, k_and_model):
    _, _, model = k_and_model
    rng = np.random.default_rng(2)
    n = 400
    xi_i = 0.01 * rng.standard_normal(n)
    xi_h = 0.01 * rng.standard_normal(n)
    parts = superposition_decompose(model, xi_i, xi_h, 0.01)
    v_sum = parts["v_int"] + parts["v_ext"]
    i_sum = parts["i_int"] + parts["i_ext"]
    assert np.linalg.norm(v_sum - parts["v_combined"]) < 1e-10 * max(
        np.linalg.norm(parts["v_combined"]), 1e-30)
    assert np.linalg.norm(i_sum - parts["i_combined"]) < 1e-10 * max(
        np.linalg.norm(parts["i_combined"]), 1e-30)
    zero = superposition_decompose(model, np.zeros(10), np.zeros(10), 0.01)
    for key in ("v_int", "i_int", "v_ext", "i_ext"):
        assert np.max(np.abs(zero[key])) == 0.0


def test_internal_path_tracks_network_response(wscc_case, wscc_eq, k_and_model):
    """The empirical internal-only transfer lands on the network response
    at high-coherence bins."""
    from loadsysid.diagnostics import estimate_spectrum

    _, _, model = k_and_model
    rng = np.random.default_rng(9)
    n = 60000
    xi = math.sqrt(0.002) * rng.standard_normal(n)
    parts = superposition_decompose(model, xi, np.zeros(n), 0.01)
    d = np.column_stack([parts["v_int"], parts["i_int"]])
    spec = estimate_spectrum(d, 0.01, segment_len=512)
    keep = (spec.omega > 2 * math.pi * 0.3) & (spec.omega < 2 * math.pi * 10)
    om = spec.omega[keep]
    k, _ = reduce_to_load(wscc_case, wscc_eq, om)
    checked = 0
    for b, mats in enumerate(spec.matrices[keep]):
        phi_vv = mats[:2, :2]
        phi_iv = mats[2:, :2]
        phi_ii = mats[2:, 2:]
        ev, vec = np.linalg.eigh(phi_vv)
        v = vec[:, -1]
        s_pow = float(np.real(np.conj(v) @ phi_vv @ v))
        coh = np.mean([
            abs(phi_iv[ch] @ v) ** 2 / (np.real(phi_ii[ch, ch]) * s_pow)
            for ch in range(2)
        ])
        if coh <= 0.95:
            continue
        t_hat = (phi_iv @ v) / s_pow
        t_k = k.values[b] @ v
        assert np.linalg.norm(np.abs(t_hat) - np.abs(t_k)) / np.linalg.norm(
            np.abs(t_k)) < 0.10
        checked += 1
    assert checked > 5


def test_singular_difference_raises(wscc_case, wscc_eq, k_and_model, grid):
    k, kh, _ = k_and_model
    h = load_noise_frf(wscc_eq.params, grid)
    g_equal_k = FrequencyResponse(grid, k.values.copy())
    with pytest.raises((FrequencyDomainError, ToolkitError)):
        closed_loop_response(k, kh, g_equal_k, h, 1.0, 1.0, grid)
