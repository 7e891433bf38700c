"""Per-sample reference loops for the discrete LTI propagation.

These are the straightforward recursions that ``greybox.propagate``
replaces in ``predict``, ``simulate_discrete`` and ``sim.linear_response``;
the tests compare the block kernel against them.
"""

import numpy as np

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
