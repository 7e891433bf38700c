#!/usr/bin/env python3
"""Scalar closed-loop study of the identification bias bound.

Simulates a first-order plant in a feedback loop driven by an AR internal
disturbance, white sensor noise and a filtered reference, fits a rich FIR
model by least squares with a deliberately wrong noise model, and compares
the per-frequency empirical bias against the bound computed from the
analytic spectra.  Prints one line per frequency decade plus the verdict.
"""

import argparse
import math

import numpy as np

from loadsysid.diagnostics import bias_bound
from loadsysid.freq import FrequencyResponse


# Plant, loop and noise of the study: a first-order plant g0/(z - a0)
# under proportional feedback kappa, an AR(c0) internal disturbance of
# variance l1, sensor noise h2 * e2 with var(e2) = l2, and a reference of
# standard deviation sd through the same AR filter.
A0, G0, C0 = 0.7, 0.5, 0.8
KAPPA, L1, L2, H2, SD = 0.5, 1.0, 4.0, 0.1, 10.0
BURN = 1000   # samples dropped from the start of each record
ORDER = 50    # FIR order of the fitted model


def simulate_loop(seed, n):
    """Input and measured output of one closed-loop record of ``n``
    samples, the first ``BURN`` of them dropped."""
    rng = np.random.default_rng(seed)
    e1 = math.sqrt(L1) * rng.standard_normal(n)
    e2 = math.sqrt(L2) * rng.standard_normal(n)
    d = SD * rng.standard_normal(n)
    y_meas = np.zeros(n)
    u = np.zeros(n)
    x = w1 = wd = y_prev = 0.0
    for k in range(n):
        u[k] = KAPPA * (wd - y_prev)
        w1 = C0 * w1 + e1[k]
        y_plant = x + w1
        y_meas[k] = y_plant + H2 * e2[k]
        x = A0 * x + G0 * u[k]
        wd = C0 * wd + d[k]
        y_prev = y_plant
    return u[BURN:], y_meas[BURN:]


def fir_fit(u, y, m=ORDER):
    """Least-squares FIR coefficients b_0 .. b_m of y on u."""
    rows = len(u) - m
    xmat = np.zeros((rows, m + 1))
    for i in range(m + 1):
        xmat[:, i] = u[m - i:len(u) - i]
    coef, *_ = np.linalg.lstsq(xmat, y[m:], rcond=None)
    return coef


def run(n=60000, n_mc=6, seed0=100):
    coefs = np.mean([fir_fit(*simulate_loop(seed0 + s, n))
                     for s in range(n_mc)], axis=0)

    nf = 200
    om = np.linspace(0.02, math.pi * 0.98, nf)
    z = np.exp(1j * om)
    g_true = G0 / (z - A0)
    h1 = z / (z - C0)
    s_fun = 1.0 / (1.0 + KAPPA * g_true / z)
    t_e = -KAPPA * (1.0 / z) * h1 * s_fun
    phi_u = np.abs(t_e) ** 2 * (L1 + SD**2)
    phi_ue = np.abs(t_e) ** 2 * L1

    h0 = FrequencyResponse(om, np.stack([h1, np.full(nf, H2 + 0j)],
                                        axis=-1)[:, None, :])
    htheta = FrequencyResponse(om, np.stack(
        [np.ones(nf, complex), np.zeros(nf, complex)], axis=-1)[:, None, :])
    _, bound = bias_bound(h0, htheta, np.diag([L1, L2]),
                          (om, phi_u[:, None, None].astype(complex)),
                          (om, phi_ue[:, None, None].astype(complex)))

    ghat = np.array([np.sum(coefs * zz ** (-np.arange(ORDER + 1)))
                     for zz in z])
    emp = np.abs(ghat - g_true)

    phi_y = (np.abs(g_true) ** 2 * phi_u
             + 2 * np.real(g_true * (h1 * L1 * np.conj(t_e)))
             + np.abs(h1) ** 2 * L1 + H2**2 * L2)
    phi_yu = g_true * phi_u + h1 * L1 * np.conj(t_e)
    coh = np.abs(phi_yu) ** 2 / (phi_y * phi_u)
    mask = coh > 0.9

    print(" norm.freq   coherence   |bias|      bound    within")
    for b in range(0, nf, 20):
        print(f"  {om[b]:8.3f}   {coh[b]:9.3f}  {emp[b]:9.5f}  "
              f"{bound[b]:9.5f}   {'yes' if emp[b] <= bound[b] else 'NO'}")
    viol = int(np.sum(emp[mask] > bound[mask]))
    print(f"\ncoherent bins: {int(mask.sum())}, violations: {viol}")
    return viol


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=60000)
    ap.add_argument("--replicates", type=int, default=6)
    args = ap.parse_args()
    raise SystemExit(1 if run(n=args.samples, n_mc=args.replicates) else 0)


if __name__ == "__main__":
    main()
