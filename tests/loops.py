"""Slow reference implementations that the tests hold the fast paths to.

The per-sample loops are the straightforward recursions that
``greybox.propagate`` replaces in ``predict``, ``simulate_discrete`` and
``sim.linear_response``.  ``rhs_full_network`` is the simulator right-hand
side solved on the whole network, which ``sim._rhs`` replaces with the
reduced network map.
"""

import math

import numpy as np

from loadsysid.constants import OMEGA_S
from loadsysid.greybox import van_loan


def propagate_loop(a, b, c, d, w):
    """y_k = C x_k + D w_k, x_{k+1} = A x_k + B w_k from x_0 = 0."""
    w = np.asarray(w, dtype=float)
    x = np.zeros(a.shape[0])
    y = np.empty((len(w), c.shape[0]))
    for k in range(len(w)):
        y[k] = c @ x + d @ w[k]
        x = a @ x + b @ w[k]
    return y


def predict_loop(pred, disc, u, y):
    """One-step-ahead predictions and innovations, one sample at a time."""
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(u)
    ramp = disc.bd_ramp if disc is not None else None
    x = np.zeros(pred.ad_k.shape[0])
    yhat = np.empty((n, 2))
    for k in range(n):
        yhat[k] = pred.cd @ x + pred.dd @ u[k]
        x = pred.ad_k @ x + pred.bd_k @ u[k] + pred.kd @ y[k]
        if ramp is not None:
            du = (u[k + 1] - u[k]) if k + 1 < n else np.zeros_like(u[k])
            x = x + ramp @ du
    return yhat, y - yhat


def simulate_discrete_loop(disc, u, e=None, v=None):
    """The discrete stochastic model propagated one sample at a time."""
    u = np.asarray(u, dtype=float)
    n = len(u)
    x = np.zeros(disc.ad.shape[0])
    y = np.empty((n, disc.cd.shape[0]))
    for k in range(n):
        ek = e[k] if e is not None else np.zeros(disc.gd.shape[1])
        y[k] = disc.cd @ x + disc.dd @ u[k] + disc.hd @ ek
        if v is not None:
            y[k] += v[k]
        x = disc.ad @ x + disc.bd @ u[k] + disc.gd @ ek
    return y


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
