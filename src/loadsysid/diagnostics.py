"""Identification-experiment diagnostics.

Spectrum estimation uses an averaged modified cross-periodogram; the
convention is the two-sided spectral density over angular frequency, so a
white sequence of variance s^2 sampled at Ts has the flat density
s^2 Ts / (2 pi).  All matrix estimates are Hermitian by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from loadsysid.errors import SpectrumError, ToolkitError

# A band bin is informative when its min/max eigenvalue ratio clears this.
EIG_RATIO_FLOOR = 1e-6
# A persistent-excitation order holds while its condition number stays
# below the reciprocal of this.
SINGULARITY_THRESHOLD = 1e-10
# Shortest zero padding of a response-filtered record, in seconds.
MIN_PAD_SECONDS = 60.0
# Loop-consistency NRMSE above which a record is feedforward-dominant.
NRMSE_THRESHOLD = 0.15


@dataclass
class SpectrumEstimate:
    omega: np.ndarray            # rad/s, non-negative half-axis
    matrices: np.ndarray         # (n_freq, c, c) complex Hermitian

    def hermitian_defect(self):
        return float(np.max(np.abs(self.matrices - np.conj(
            np.transpose(self.matrices, (0, 2, 1))))))

    def band(self, f_lo, f_hi):
        mask = (self.omega >= 2 * math.pi * f_lo - 1e-12) & (
            self.omega <= 2 * math.pi * f_hi + 1e-12)
        return self.omega[mask], self.matrices[mask]


def estimate_spectrum(signals, ts, segment_len=256):
    """Averaged cross-periodogram estimate of the spectral density matrix.

    ``signals`` is (N, channels); segments overlap by half and carry a
    periodic Hann window, the standard choice for averaged periodograms.
    Requires at least two segments of data.
    """
    x = np.asarray(signals, dtype=float)
    n, c = x.shape
    if n < 2 * segment_len:
        raise SpectrumError(
            f"series of length {n} is shorter than two segments of {segment_len}"
        )
    w = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(segment_len) / segment_len)
    u_norm = float(np.sum(w**2))
    hop = max(1, round(segment_len / 2))
    starts = range(0, n - segment_len + 1, hop)
    n_freq = segment_len // 2 + 1
    acc = np.zeros((n_freq, c, c), dtype=complex)
    count = 0
    for s in starts:
        seg = x[s:s + segment_len]
        seg = (seg - seg.mean(axis=0)) * w[:, None]
        spec = np.fft.rfft(seg, axis=0)
        acc += np.einsum("fi,fj->fij", spec, np.conj(spec))
        count += 1
    scale = ts / (2.0 * math.pi * u_norm * count)
    mats = acc * scale
    mats = 0.5 * (mats + np.conj(np.transpose(mats, (0, 2, 1))))
    omega = 2.0 * math.pi * np.fft.rfftfreq(segment_len, d=ts)
    return SpectrumEstimate(omega=omega, matrices=mats)


@dataclass
class InformativenessReport:
    omega: np.ndarray
    eig_ratio: np.ndarray
    floor: float
    band_hz: tuple
    informative: bool


def informativeness_test(spectrum, band_hz=(0.0, 10.0)):
    """Joint input-output spectrum positivity check.

    Reports the min/max eigenvalue ratio per bin over the band; the verdict
    is positive when every bin's ratio clears ``EIG_RATIO_FLOOR``.
    """
    if spectrum.hermitian_defect() > 1e-9 * max(
        1e-300, float(np.max(np.abs(spectrum.matrices)))
    ):
        raise SpectrumError("spectrum estimate is not Hermitian")
    omega, mats = spectrum.band(*band_hz)
    if len(omega) == 0:
        raise SpectrumError("no spectrum bins inside the requested band")
    ratios = np.empty(len(omega))
    for i, m in enumerate(mats):
        ev = np.linalg.eigvalsh(m)
        ratios[i] = max(ev[0], 0.0) / ev[-1] if ev[-1] > 0 else 0.0
    return InformativenessReport(
        omega=omega,
        eig_ratio=ratios,
        floor=EIG_RATIO_FLOOR,
        band_hz=tuple(band_hz),
        informative=bool(np.all(ratios > EIG_RATIO_FLOOR)),
    )


@dataclass
class PEReport:
    orders: np.ndarray
    conditions: np.ndarray
    verified_order: int
    threshold: float


def sample_autocovariance(u, max_lag):
    """Biased sample autocovariance blocks R(tau), tau = 0..max_lag, of an
    (N, channels) record."""
    u = np.asarray(u, dtype=float)
    n, c = u.shape
    u = u - u.mean(axis=0)
    r = np.empty((max_lag + 1, c, c))
    for tau in range(max_lag + 1):
        r[tau] = (u[tau:].T @ u[: n - tau]) / n
    return r


def persistent_excitation_order(u, n_max):
    """Largest verified persistent-excitation order of a record.

    Builds the block-Toeplitz autocovariance matrix of order ``n_max`` of
    the (N, channels) record ``u``, whose leading principal blocks are the
    matrices of the lower orders, and accepts an order while its condition
    number stays below the reciprocal of ``SINGULARITY_THRESHOLD``.  Orders
    are verified incrementally so the result is monotone by construction.
    """
    n = len(u)
    if n_max > n // 3:
        raise ToolkitError(
            f"order {n_max} unreliable for a record of {n} samples"
        )
    r = sample_autocovariance(u, n_max - 1)
    c = r.shape[1]
    # Block (i, j) is r[i - j] on and below the diagonal, r[j - i].T above.
    lag = np.subtract.outer(np.arange(n_max), np.arange(n_max))
    blocks = r[np.abs(lag)]
    blocks = np.where((lag >= 0)[:, :, None, None], blocks,
                      blocks.swapaxes(2, 3))
    big = blocks.swapaxes(1, 2).reshape(n_max * c, n_max * c)
    orders = np.arange(1, n_max + 1)
    conds = np.empty(n_max)
    verified = 0
    cond_cap = 1.0 / SINGULARITY_THRESHOLD
    for ni in orders:
        conds[ni - 1] = np.linalg.cond(big[:ni * c, :ni * c])
        if conds[ni - 1] < cond_cap and verified == ni - 1:
            verified = ni
    return PEReport(
        orders=orders,
        conditions=conds,
        verified_order=int(verified),
        threshold=SINGULARITY_THRESHOLD,
    )


def bias_bound(h_true, h_model, lambda0, phi_u, phi_u_noise):
    """Per-frequency upper bound on the identification bias.

    Evaluates sbar(H0 - Htheta) sqrt(sbar(L0)/smin(Phi_u))
    sqrt(sbar(Phi_u^e)/smin(Phi_u)) on the shared grid.  ``phi_u`` and
    ``phi_u_noise`` are (omega, matrices) pairs on that grid.  All
    quantities must use one spectral convention; only their ratios enter.
    """
    omega, mats_u = phi_u
    _, mats_e = phi_u_noise
    sbar_lam = float(np.linalg.svd(lambda0, compute_uv=False)[0])
    dh = h_true.interp(omega) - h_model.interp(omega)
    out = np.empty(len(omega))
    for i in range(len(omega)):
        smin_u = float(np.linalg.svd(mats_u[i], compute_uv=False)[-1])
        if smin_u <= 0.0:
            raise SpectrumError(f"singular input spectrum at bin {i}")
        sbar_e = float(np.linalg.svd(mats_e[i], compute_uv=False)[0])
        sbar_dh = float(np.linalg.svd(dh[i], compute_uv=False)[0])
        out[i] = sbar_dh * math.sqrt(sbar_lam / smin_u) * math.sqrt(
            sbar_e / smin_u)
    return omega, out


@dataclass
class PitfallReport:
    """Comparison of the measured voltage-to-current relation against the
    network response and the load's own response.  ``i_measured`` and
    ``i_network`` hold the rectangular current deltas and the
    network-response-filtered voltage deltas for overlay plots."""

    cw_nrmse: float
    cw_nrmse_load: float
    omega: np.ndarray
    coherence: np.ndarray
    dist_network: np.ndarray
    dist_load: np.ndarray
    feedforward_dominant: bool
    time: np.ndarray
    i_measured: np.ndarray
    i_network: np.ndarray


def rect_deltas(series):
    """Rectangular voltage and drawn-current deltas of a record."""
    v = series.voltage_phasor()
    i = series.current_phasor()
    out = np.column_stack([v.real, v.imag, i.real, i.imag])
    return out - out.mean(axis=0)


def filtered_current(resp_eval, v_rect, ts, pad_factor=4):
    """Response-filtered voltage record via zero-padded convolution.

    ``resp_eval`` maps an angular-frequency grid to (n, 2, 2) response
    values; it is evaluated exactly on the padded FFT grid, which keeps the
    sharp network resonances resolved.  Zero padding realizes plain (not
    circular) convolution, valid because the record starts at rest; the
    floor ``MIN_PAD_SECONDS`` on the pad length keeps slow-mode tails from
    wrapping into short records.
    """
    n = len(v_rect)
    n_pad = max(pad_factor * n, int(round(MIN_PAD_SECONDS / ts)))
    omega = 2.0 * math.pi * np.fft.rfftfreq(n_pad, d=ts)
    omega_eval = np.where(omega <= 0.0, 1e-9, omega)
    values = resp_eval(omega_eval)
    vf = np.fft.rfft(v_rect, n=n_pad, axis=0)
    pred = np.fft.irfft(np.einsum("fij,fj->fi", values, vf), n=n_pad, axis=0)
    return pred[:n]


def _coherence_weighted_nrmse(i_meas, i_pred, ts, segment_len):
    spec = estimate_spectrum(np.column_stack([i_meas, i_pred]), ts,
                             segment_len=segment_len)
    num = den = 0.0
    for b in range(1, len(spec.omega)):
        m = spec.matrices[b]
        for ch in range(2):
            pii = float(np.real(m[ch, ch]))
            ppp = float(np.real(m[2 + ch, 2 + ch]))
            pip = m[ch, 2 + ch]
            coh = abs(pip) ** 2 / (pii * ppp) if pii * ppp > 0 else 0.0
            resid = max(float(np.real(pii - pip - np.conj(pip) + ppp)), 0.0)
            num += coh * resid
            den += coh * pii
    return math.sqrt(num / den) if den > 0 else math.inf


def pitfall_metrics(series, case, eq, segment_len=128, pad_factor=4):
    """Does the measured record follow the network response or the load?

    Filters the measured voltage deltas through the equivalent network
    response and reports the coherence-weighted NRMSE against the measured
    current deltas, alongside per-bin distances of the empirical
    directional transfer to the network response and to the load response.
    """
    from loadsysid.freq import load_frf, reduce_to_load

    d = rect_deltas(series)
    n = len(d)
    if n < 2 * segment_len:
        raise SpectrumError("record too short for the requested segment")
    v_rect, i_rect = d[:, :2], d[:, 2:]

    def k_eval(omega):
        return reduce_to_load(case, eq, omega)[0].values

    def g_eval(omega):
        return load_frf(eq.params, omega).values

    i_net = filtered_current(k_eval, v_rect, series.ts, pad_factor)
    i_load = filtered_current(g_eval, v_rect, series.ts, pad_factor)
    cw_k = _coherence_weighted_nrmse(i_rect, i_net, series.ts, segment_len)
    cw_g = _coherence_weighted_nrmse(i_rect, i_load, series.ts, segment_len)

    # Directional comparison per Welch bin, with both candidate responses
    # evaluated exactly at the bin frequencies.
    spec = estimate_spectrum(d, series.ts, segment_len=segment_len)
    keep = (spec.omega > 0) & (spec.omega <= math.pi / series.ts)
    omega = spec.omega[keep]
    mats = spec.matrices[keep]
    kv = k_eval(omega)
    gv = g_eval(omega)
    coh = np.empty(len(omega))
    dist_k = np.empty(len(omega))
    dist_g = np.empty(len(omega))
    for b in range(len(omega)):
        phi_vv = mats[b][:2, :2]
        phi_iv = mats[b][2:, :2]
        phi_ii = mats[b][2:, 2:]
        ev, vec = np.linalg.eigh(phi_vv)
        vdir = vec[:, -1]
        s_pow = float(np.real(np.conj(vdir) @ phi_vv @ vdir))
        t_hat = (phi_iv @ vdir) / s_pow
        cohs = []
        for ch in range(2):
            num = abs(phi_iv[ch] @ vdir) ** 2
            den = float(np.real(phi_ii[ch, ch])) * s_pow
            cohs.append(num / den if den > 0 else 0.0)
        coh[b] = float(np.mean(cohs))
        dist_k[b] = float(np.linalg.norm(t_hat - kv[b] @ vdir))
        dist_g[b] = float(np.linalg.norm(t_hat - gv[b] @ vdir))
    return PitfallReport(
        cw_nrmse=cw_k,
        cw_nrmse_load=cw_g,
        omega=omega,
        coherence=coh,
        dist_network=dist_k,
        dist_load=dist_g,
        feedforward_dominant=bool(cw_k > NRMSE_THRESHOLD),
        time=series.time.copy(),
        i_measured=i_rect,
        i_network=i_net,
    )
