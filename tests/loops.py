"""Slow reference implementations that the tests hold the fast paths to.

The per-sample loops are the straightforward recursions that
``greybox.propagate`` replaces in ``predict`` and ``sim.linear_response``.
``simulate_discrete_loop`` propagates the discrete stochastic model (input,
disturbance and measurement noise) and makes the records on which the
predictor tests check the innovations.  ``solve_dare_loop`` is the
one-model doubling iteration with three solves per step that
``greybox.riccati_predictors`` replaces with one stacked solve per step.  ``rhs_full_network`` is the
simulator right-hand side solved on the whole network, which ``sim._rhs``
replaces with the reduced network map, and ``simulate_loop`` is
``sim.simulate``'s step solved one substep at a time, which
``sim.simulate`` replaces with fixed-point sweeps over windows of
substeps.  The frequency loops solve one frequency at a time:
``reduce_to_load_loop`` eliminates everything but the motor bus from the
full system of ``frequency_system``, which ``freq.reduce_to_load``
replaces with one constant Kron reduction and one stacked solve.
``identify_lbfgsb`` is the L-BFGS-B search with forward-difference
gradients and a 1e6 penalty value that ``greybox.identify``'s bounded
Levenberg-Marquardt search replaces.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.optimize import minimize

from loadsysid.constants import OMEGA_S
from loadsysid.errors import (
    CaseValidationError,
    RiccatiError,
    SimulationError,
    UnstablePredictorError,
)
from loadsysid.greybox import (
    FREE,
    _penalty_cause,
    _scaled_box,
    _series_arrays,
    evaluate_candidates,
    van_loan,
)
from loadsysid.network import expand_real


def identify_lbfgsb(series, init, noise, burn_in, maxiter, method):
    """One start of ``greybox.identify`` from the init, searched by
    L-BFGS-B in the scaled parameters with forward-difference gradients
    (scipy hands the points of each gradient to ``workers``, which scores
    them as one stack).  A candidate without a usable criterion scores 1e6.
    Returns the lowest criterion scored."""
    u, y, operating_point = _series_arrays(series)
    init = replace(init, **operating_point)
    scale, lo, hi = _scaled_box(init)
    scored = []

    def batch(fun, xs):
        params = []
        for x in xs:
            try:
                params.append(replace(init, **dict(zip(FREE, x * scale))))
            except CaseValidationError as exc:
                params.append(exc)
        results = evaluate_candidates(params, noise, u, y, series.ts,
                                      burn_in, output_error=method == "tm")
        values = [1e6 if _penalty_cause(r) else r[0] for r in results]
        scored.extend(values)
        return values

    x0 = np.clip(np.ones(len(FREE)), lo, hi)
    minimize(lambda x: batch(None, [x])[0], x0, method="L-BFGS-B",
             bounds=list(zip(lo, hi)),
             options={"maxiter": maxiter, "eps": 1e-6, "ftol": 1e-14,
                      "gtol": 1e-10, "workers": batch})
    return min(scored)


def propagate_loop(a, b, c, d, w, x0=None):
    """y_k = C x_k + D w_k, x_{k+1} = A x_k + B w_k from x_0 = ``x0``
    (zero when not given)."""
    w = np.asarray(w, dtype=float)
    x = np.zeros(a.shape[0]) if x0 is None else np.asarray(x0, dtype=float)
    y = np.empty((len(w), c.shape[0]))
    for k in range(len(w)):
        y[k] = c @ x + d @ w[k]
        x = a @ x + b @ w[k]
    return y


def predict_loop(kd, disc, u, y):
    """One-step-ahead predictions and innovations of the model ``disc``
    with the gain ``kd``, one sample at a time in innovation form:
    eps = y - C x - D u, then x+ = A x + B u + K eps + B_ramp du."""
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(u)
    x = np.zeros(disc.ad.shape[0])
    yhat = np.empty((n, 2))
    for k in range(n):
        yhat[k] = disc.cd @ x + disc.dd @ u[k]
        du = (u[k + 1] - u[k]) if k + 1 < n else np.zeros_like(u[k])
        x = (disc.ad @ x + disc.bd @ u[k] + kd @ (y[k] - yhat[k])
             + disc.bd_ramp @ du)
    return yhat, y - yhat


def simulate_discrete_loop(disc, u, e=None, v=None):
    """The discrete stochastic model under zero-order-hold inputs (the
    ramp matrix unused) propagated one sample at a time."""
    u = np.asarray(u, dtype=float)
    n = len(u)
    x = np.zeros(disc.ad.shape[0])
    y = np.empty((n, disc.cd.shape[0]))
    for k in range(n):
        ek = e[k] if e is not None else np.zeros(disc.gd.shape[1])
        y[k] = disc.cd @ x + disc.dd @ u[k]
        if v is not None:
            y[k] += v[k]
        x = disc.ad @ x + disc.bd @ u[k] + disc.gd @ ek
    return y


def dare_step(p, ad, cd, nbar, rbar, qbar):
    """One fixed-point application of the Riccati map."""
    s = cd @ p @ cd.T + rbar
    k = np.linalg.solve(s.T, (ad @ p @ cd.T + nbar).T).T
    return ad @ p @ ad.T - k @ (ad @ p @ cd.T + nbar).T + qbar


def solve_dare_loop(disc, noise, tol=1e-12, max_iter=120):
    """Gain, Riccati solution and predictor matrix (kd, p, ad - kd cd) of
    one discrete model: the structure-preserving doubling iteration with
    three solves per step, the input noise folded in by its own branch.
    Raises ``RiccatiError`` or ``UnstablePredictorError`` like the
    solver."""
    ad, cd, gd = disc.ad, disc.cd, disc.gd
    nbar = np.zeros(cd.shape[::-1])
    rbar = noise.rm * np.eye(cd.shape[0])
    qbar = noise.q * gd @ gd.T
    if any(v > 0 for v in noise.input_variance):
        siu = np.diag(noise.input_variance)
        nbar = nbar + disc.bd @ siu @ disc.dd.T
        rbar = rbar + disc.dd @ siu @ disc.dd.T
        qbar = qbar + disc.bd @ siu @ disc.bd.T
    if np.linalg.cond(rbar) > 1e14:
        raise RiccatiError("effective measurement covariance is singular")
    rbar_inv = np.linalg.inv(rbar)
    a_k = (ad - nbar @ rbar_inv @ cd).T.copy()
    g_k = cd.T @ rbar_inv @ cd
    h_k = qbar - nbar @ rbar_inv @ nbar.T
    eye = np.eye(ad.shape[0])
    converged = False
    for _ in range(max_iter):
        try:
            w_inv_a = np.linalg.solve(eye + g_k @ h_k, a_k)
        except np.linalg.LinAlgError as exc:
            raise RiccatiError(f"doubling iteration broke down: {exc}") \
                from exc
        h_next = h_k + a_k.T @ np.linalg.solve(eye + h_k @ g_k, h_k @ a_k)
        g_next = g_k + a_k @ np.linalg.solve(eye + g_k @ h_k, g_k @ a_k.T)
        a_next = a_k @ w_inv_a
        step = np.linalg.norm(h_next - h_k)
        h_k, g_k, a_k = h_next, g_next, a_next
        if step <= tol * max(1.0, np.linalg.norm(h_k)):
            converged = True
            break
    p = 0.5 * (h_k + h_k.T)
    residual = float(np.linalg.norm(
        p - dare_step(p, ad, cd, nbar, rbar, qbar)))
    if not converged or residual > 1e-9:
        raise RiccatiError(
            f"Riccati iteration did not converge ({residual:.3e})")
    s = cd @ p @ cd.T + rbar
    kd = np.linalg.solve(s.T, (ad @ p @ cd.T + nbar).T).T
    ad_k = ad - kd @ cd
    rho = float(np.max(np.abs(np.linalg.eigvals(ad_k))))
    if rho >= 1.0:
        raise UnstablePredictorError(f"predictor spectral radius {rho:.6f}")
    if np.min(np.linalg.eigvalsh(p)) < -1e-10 * max(1.0, np.linalg.norm(p)):
        raise RiccatiError("Riccati solution is not positive semidefinite")
    return kd, p, ad_k


def linear_response_loop(model, disturbance, ts):
    """Exact ZOH propagation of a linearized model, one sample at a time."""
    d = np.asarray(disturbance, dtype=float)
    ad, w0, _ = van_loan(model.a, ts)
    bd = w0 @ model.b
    x = np.zeros(model.a.shape[0])
    out = np.empty((len(d), model.c.shape[0]))
    for k in range(len(d)):
        out[k] = model.c @ x + model.d @ d[k]
        x = ad @ x + bd @ d[k]
    return out


def rhs_full_network(eq, z, e_int=0.0, xi_ext=0.0, ext_index=None,
                     ext_dir=1.0 + 0j):
    """State derivative and read-bus voltages (dynamic generators in case
    order, motor last) from the bus injection vector of every source and
    one solve on the full dynamic admittance matrix."""
    case, p = eq.case, eq.params
    idx = case.bus_index()
    b = np.zeros(case.n, dtype=complex)
    slack = eq.slack_gen_bus
    b[idx[slack]] += (eq.gen_emag[slack] * np.exp(1j * eq.gen_delta[slack])
                      / (1j * case.generator_at(slack).xdp))
    for i, bus in enumerate(eq.dyn_gen_buses):
        b[idx[bus]] += (eq.gen_emag[bus] * np.exp(1j * z[2 * i])
                        / (1j * case.generator_at(bus).xdp))
    b[idx[eq.motor_bus]] += (z[-3] + 1j * z[-2]) / (1j * p.Xp)
    if ext_index is not None:
        b[ext_index] += xi_ext * ext_dir
    v = np.linalg.solve(eq.y_dyn, b)

    dz = np.empty_like(z)
    for i, bus in enumerate(eq.dyn_gen_buses):
        g = case.generator_at(bus)
        delta, w = z[2 * i], z[2 * i + 1]
        e = eq.gen_emag[bus]
        vb = v[idx[bus]]
        pe = (e * math.sin(delta) * vb.real - e * math.cos(delta) * vb.imag) / g.xdp
        dz[2 * i] = OMEGA_S * w
        dz[2 * i + 1] = (eq.net.pm[i] - pe - g.damping * w) / g.tj
    exp_, eyp, s = z[-3], z[-2], z[-1]
    v6 = v[idx[eq.motor_bus]]
    te = (exp_ * v6.imag - eyp * v6.real) / p.Xp
    k_emf = 1.0 / (p.Xp * p.Td0p)
    dz[-3] = k_emf * (-p.X * exp_ + (p.X - p.Xp) * v6.real) + s * OMEGA_S * eyp
    dz[-2] = k_emf * (-p.X * eyp + (p.X - p.Xp) * v6.imag) - s * OMEGA_S * exp_
    dz[-1] = (eq.tm + e_int - te) / p.Tj
    read = [idx[bus] for bus in eq.dyn_gen_buses] + [idx[eq.motor_bus]]
    return dz, v[read]


def generator_frf_loop(gen, e_phasor, v_phasor, omega):
    """Voltage-to-injected-current transfer of one classical generator,
    one frequency at a time."""
    ex, ey = e_phasor.real, e_phasor.imag
    k_delta = (ex * v_phasor.real + ey * v_phasor.imag) / gen.xdp
    a = np.array([[0.0, OMEGA_S], [-k_delta / gen.tj, -gen.damping / gen.tj]])
    b = np.array([[0.0, 0.0],
                  [-ey / (gen.xdp * gen.tj), ex / (gen.xdp * gen.tj)]])
    c = np.array([[ex / gen.xdp, 0.0], [ey / gen.xdp, 0.0]])
    d = np.array([[0.0, -1.0], [1.0, 0.0]]) / gen.xdp
    out = np.empty((len(omega), 2, 2), dtype=complex)
    for i, w in enumerate(omega):
        out[i] = c @ np.linalg.solve(1j * w * np.eye(2) - a, b) + d
    return out


def frequency_system(eq, omega):
    """Real-expanded network matrix with generator responses folded, one
    (2n, 2n) complex matrix per frequency."""
    case = eq.case
    idx = case.bus_index()
    mats = np.repeat(expand_real(eq.y_dyn)[None, :, :].astype(complex),
                     len(omega), axis=0)
    for bus in eq.dyn_gen_buses:
        g = case.generator_at(bus)
        k = idx[bus]
        e_ph = eq.gen_emag[bus] * np.exp(1j * eq.gen_delta[bus])
        frf = generator_frf_loop(g, e_ph, eq.v_eq[k], omega)
        # y_dyn already carries the reactance feedthrough -1/(j xdp).
        d_part = expand_real(np.array([[-1.0 / (1j * g.xdp)]]))
        sl = slice(2 * k, 2 * k + 2)
        for i in range(len(omega)):
            mats[i, sl, sl] -= frf[i] - d_part
    return mats


def reduce_to_load_loop(case, eq, omega, disturbance_bus=None,
                        direction_deg=0.0):
    """K and the injection path Kh by eliminating every variable except the
    motor-bus pair from the full frequency system, one frequency at a
    time."""
    idx = case.bus_index()
    m = idx[eq.motor_bus]
    mats = frequency_system(eq, omega)
    y_motor = expand_real(np.array([[1.0 / (1j * eq.params.Xp)]]))
    sl = slice(2 * m, 2 * m + 2)
    keep = [2 * m, 2 * m + 1]
    drop = [i for i in range(mats.shape[1]) if i not in keep]
    k_vals = np.empty((len(omega), 2, 2), dtype=complex)
    kh_vals = np.empty((len(omega), 2, 1), dtype=complex)
    u_dir = np.zeros(2 * case.n)
    if disturbance_bus is not None:
        h = idx[disturbance_bus]
        phi = math.radians(direction_deg)
        u_dir[2 * h], u_dir[2 * h + 1] = math.cos(phi), math.sin(phi)
    u_dir = u_dir[drop]
    for i in range(len(omega)):
        mat = mats[i].copy()
        mat[sl, sl] -= y_motor
        m_kd = mat[np.ix_(keep, drop)]
        m_dd = mat[np.ix_(drop, drop)]
        k_vals[i] = -(mat[np.ix_(keep, keep)]
                      - m_kd @ np.linalg.solve(m_dd, mat[np.ix_(drop, keep)]))
        kh_vals[i] = (-m_kd @ np.linalg.solve(m_dd, u_dir))[:, None]
    return k_vals, kh_vals


def load_frf_loop(params, omega):
    """The load model's voltage-to-drawn-current response, one frequency
    at a time."""
    from loadsysid.freq import _output_conversion
    from loadsysid.greybox import NoiseConfig, assemble_continuous

    cont = assemble_continuous(params, NoiseConfig())
    w_v, w_y, w_u = _output_conversion(params)
    out = np.empty((len(omega), 2, 2), dtype=complex)
    for i, w in enumerate(omega):
        g_pq = cont.c @ np.linalg.solve(1j * w * np.eye(3) - cont.a,
                                        cont.b) + cont.d
        out[i] = (w_y @ g_pq + w_u) @ w_v
    return out


def load_noise_frf_loop(params, omega, noise):
    """Internal-disturbance-to-drawn-current response, one frequency at a
    time."""
    from loadsysid.freq import _output_conversion
    from loadsysid.greybox import assemble_continuous

    cont = assemble_continuous(params, noise)
    _, w_y, _ = _output_conversion(params)
    out = np.empty((len(omega), 2, cont.g.shape[1]), dtype=complex)
    for i, w in enumerate(omega):
        out[i] = w_y @ cont.c @ np.linalg.solve(1j * w * np.eye(3) - cont.a,
                                                cont.g)
    return out


def simulate_loop(case, eq, scenario):
    """``sim.simulate``'s sampled (V, theta, P, Q) record, noise-free, from
    the integrating-factor trapezoidal step solved one substep at a time,
    with the remainder evaluated afresh at every step start.  A step whose
    corrector does not converge in 25 iterations, or that leaves the slip
    outside (0, 1), raises ``SimulationError`` at the step's end time."""
    from loadsysid.sim import _noise_sequence, _rhs, linearize_system

    dt = scenario.dt_integration
    n_sub = int(round(scenario.duration / dt))
    n_per = scenario.substeps_per_sample
    e_int = np.zeros(n_sub + 1)
    xi_ext = np.zeros(n_sub + 1)
    ext_index, ext_dir = None, 1.0 + 0j
    for noise, seq in ((scenario.internal, e_int), (scenario.external, xi_ext)):
        if noise is not None and (noise.variance > 0 or noise.value is not None):
            seq[:-1] = _noise_sequence(np.random.default_rng(noise.seed), n_sub,
                                       dt, scenario.dt_sample, noise)
    if scenario.external is not None:
        ext_index = case.bus_index()[scenario.external.bus]
        phi = math.radians(scenario.external.direction_deg)
        ext_dir = complex(math.cos(phi), math.sin(phi))
    jac = linearize_system(
        case, eq,
        disturbance_bus=scenario.external.bus if scenario.external else None,
        direction_deg=scenario.external.direction_deg if scenario.external else 0.0,
    ).a
    e_h, w0, w1s = van_loan(jac, dt)
    phi_b = w1s / dt
    phi_a = w0 - phi_b
    z_eq = eq.equilibrium_state()
    p = eq.params

    def remainder(z, e_i, xi):
        dz, v = _rhs(eq, z, e_i, xi, ext_index, ext_dir)
        return dz - jac @ (z - z_eq), v

    def sample(z, v):
        v6, exy = v[-1], z[-3] + 1j * z[-2]
        return (abs(v6), np.angle(v6),
                (exy.real * v6.imag - exy.imag * v6.real) / p.Xp,
                (abs(v6) ** 2 - v6.real * exy.real - v6.imag * exy.imag) / p.Xp)

    z = z_eq.copy()
    data = [sample(z, remainder(z, e_int[0], xi_ext[0])[1])]
    for k in range(n_sub):
        e_i, xi = e_int[k], xi_ext[k]
        g0, _ = remainder(z, e_i, xi)
        base = z_eq + e_h @ (z - z_eq) + phi_a @ g0
        z_new = base + phi_b @ g0
        for _ in range(25):
            g1, _ = remainder(z_new, e_i, xi)
            z_next = base + phi_b @ g1
            done = np.max(np.abs(z_next - z_new)) < 1e-13 * (
                1.0 + np.max(np.abs(z_new)))
            z_new = z_next
            if done:
                break
        else:
            raise SimulationError(
                f"corrector did not converge at t={(k + 1) * dt:.4f}s",
                t=(k + 1) * dt)
        z = z_new
        if not (0.0 < z[-1] < 1.0):
            raise SimulationError(f"slip left (0, 1) at t={(k + 1) * dt:.4f}s",
                                  t=(k + 1) * dt)
        if (k + 1) % n_per == 0:
            data.append(sample(z, remainder(z, e_int[k + 1], xi_ext[k + 1])[1]))
    return np.array(data)
