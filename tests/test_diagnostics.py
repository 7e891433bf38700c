import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsysid.diagnostics import (
    bias_bound,
    estimate_spectrum,
    informativeness_test,
    persistent_excitation_order,
    sample_autocovariance,
)
from loadsysid.errors import SpectrumError, ToolkitError
from loadsysid.freq import FrequencyResponse


def test_white_noise_density_convention():
    rng = np.random.default_rng(0)
    ts = 0.01
    x = rng.standard_normal((200000, 1)) * 1.7
    spec = estimate_spectrum(x, ts, segment_len=256)
    mid = np.real(spec.matrices[20:100, 0, 0]).mean()
    expect = 1.7**2 * ts / (2 * math.pi)
    assert abs(mid / expect - 1.0) < 0.10


def test_estimator_matches_scipy_csd():
    from scipy.signal import csd

    rng = np.random.default_rng(1)
    ts = 0.02
    x = rng.standard_normal((8192, 2))
    x[:, 1] = 0.4 * x[:, 0] + 0.6 * x[:, 1]
    spec = estimate_spectrum(x, ts, segment_len=256)
    f, pxy = csd(x[:, 0], x[:, 1], fs=1.0 / ts, nperseg=256, noverlap=128,
                 window="hann", detrend="constant", return_onesided=True,
                 scaling="density")
    # conventions: ours is two-sided per rad/s with X Y*; scipy is one-sided
    # (doubled interior bins) per Hz with X* Y
    ours = spec.matrices[:, 0, 1] * (2.0 * math.pi) * 2.0
    assert np.max(np.abs(ours[2:-2] - np.conj(pxy[2:-2]))) < 1e-3 * np.max(np.abs(pxy))


def test_identical_channels_are_rank_one():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(6000)
    spec = estimate_spectrum(np.column_stack([x, x]), 0.01, segment_len=128)
    for m in spec.matrices[1:]:
        ev = np.linalg.eigvalsh(m)
        assert ev[0] < 1e-10 * max(ev[-1], 1e-300)


def test_sinusoid_concentrates_at_its_bin():
    ts = 0.01
    n = 8192
    seg = 256
    k_bin = 16
    f0 = k_bin / (seg * ts)
    t = np.arange(n) * ts
    x = np.sin(2 * math.pi * f0 * t)
    spec = estimate_spectrum(x[:, None], ts, segment_len=seg)
    power = np.real(spec.matrices[:, 0, 0])
    around = power[k_bin - 1:k_bin + 2].sum()
    assert around / power.sum() > 0.9


def test_short_record_rejected():
    with pytest.raises(SpectrumError):
        estimate_spectrum(np.zeros((100, 1)), 0.01, segment_len=128)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_spectra_hermitian_psd(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1024, 3))
    x[:, 2] = 0.5 * x[:, 0] + 0.1 * rng.standard_normal(1024)
    spec = estimate_spectrum(x, 0.01, segment_len=128)
    assert spec.hermitian_defect() < 1e-12 * max(np.abs(spec.matrices).max(), 1e-30)
    for m in spec.matrices:
        ev = np.linalg.eigvalsh(m)
        assert ev[0] > -1e-10 * max(ev[-1], 1e-300)
        assert np.all(np.abs(np.imag(np.diag(m))) < 1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       c=st.integers(min_value=2, max_value=8),
       segment_len=st.sampled_from([16, 31, 64, 128]),
       data=st.data())
def test_sub_blocks_equal_the_separate_estimate(seed, c, segment_len, data):
    """Every sub-block of two or more channels of a multi-channel estimate
    is the estimate of those channels alone, bit for bit.  (A single
    channel is not: numpy sums an (L, 1) segment for its mean pairwise, and
    wider segments row by row.)"""
    idx = sorted(data.draw(st.sets(st.integers(0, c - 1), min_size=2)))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2 * segment_len, 8 * segment_len))
    x = rng.standard_normal((n, c)) * rng.uniform(0.01, 10.0, c) + rng.normal(
        size=c)
    full = estimate_spectrum(x, 0.01, segment_len=segment_len)
    alone = estimate_spectrum(np.column_stack([x[:, j] for j in idx]), 0.01,
                              segment_len=segment_len)
    assert np.array_equal(full.omega, alone.omega)
    assert np.array_equal(full.matrices[:, idx][:, :, idx], alone.matrices)


def test_informativeness_copied_channel_fails():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((4000, 1))
    z = np.column_stack([u, u])
    spec = estimate_spectrum(z, 0.01, segment_len=128)
    rep = informativeness_test(spec, band_hz=(0, 10))
    assert not rep.informative
    assert np.max(rep.eig_ratio) < 1e-6


def test_informativeness_independent_channels_pass():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((20000, 2))
    spec = estimate_spectrum(z, 0.01, segment_len=128)
    rep = informativeness_test(spec, band_hz=(0, 10))
    assert rep.informative
    assert np.min(rep.eig_ratio) > 0.1


def test_informativeness_rejects_non_hermitian():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4000, 2))
    spec = estimate_spectrum(z, 0.01, segment_len=128)
    spec.matrices[3, 0, 1] += 1.0
    with pytest.raises(SpectrumError):
        informativeness_test(spec)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_informativeness_verdict_invariant_to_diagonal_scaling(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((8000, 3))
    scales = rng.uniform(0.5, 2.0, size=3)
    rep1 = informativeness_test(
        estimate_spectrum(z, 0.01, segment_len=128), band_hz=(0, 10))
    rep2 = informativeness_test(
        estimate_spectrum(z * scales, 0.01, segment_len=128), band_hz=(0, 10))
    assert rep1.informative == rep2.informative


def test_pe_constant_signal_has_order_one():
    u = np.full((600, 1), 2.5)
    u = u + 1e-13  # exactly constant records stay order 1 after demeaning
    rep = persistent_excitation_order(u, 5)
    assert rep.verified_order <= 1


def test_pe_white_record_clears_order_fifty():
    rng = np.random.default_rng(6)
    u = rng.standard_normal((5000, 1))
    rep = persistent_excitation_order(u, 55)
    assert rep.verified_order >= 50


def test_pe_order_cap_errors():
    with pytest.raises(ToolkitError):
        persistent_excitation_order(np.zeros((90, 1)), 60)


def test_pe_monotone_verification():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((3000, 2))
    rep = persistent_excitation_order(u, 20)
    cap = 1.0 / rep.threshold
    for order in range(1, rep.verified_order + 1):
        assert rep.conditions[order - 1] < cap


def test_autocovariance_matches_direct_sum():
    rng = np.random.default_rng(8)
    u = rng.standard_normal((500, 2))
    r = sample_autocovariance(u, 3)
    centered = u - u.mean(axis=0)
    for tau in range(4):
        direct = np.zeros((2, 2))
        for k in range(500 - tau):
            direct += np.outer(centered[k + tau], centered[k])
        direct /= 500
        assert np.allclose(r[tau], direct, atol=1e-12)


def _flat_frf(grid, values):
    vals = np.repeat(np.asarray(values, complex)[None, :, :], len(grid), axis=0)
    return FrequencyResponse(grid, vals)


def test_bias_bound_zero_cases():
    grid = np.linspace(0.1, 10, 16)
    h0 = _flat_frf(grid, [[0.8 + 0.1j]])
    lam = np.array([[0.04]])
    phi_u = (grid, np.full((16, 1, 1), 2.0, dtype=complex))
    phi_ue = (grid, np.full((16, 1, 1), 0.5, dtype=complex))
    omega, bound = bias_bound(h0, h0, lam, phi_u, phi_ue)
    assert np.max(bound) == 0.0
    h1 = _flat_frf(grid, [[1.0 + 0j]])
    phi_zero = (grid, np.zeros((16, 1, 1), dtype=complex))
    _, bound2 = bias_bound(h0, h1, lam, phi_u, phi_zero)
    assert np.max(bound2) == 0.0


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0))
def test_bias_bound_homogeneity(alpha):
    # the bound carries a square root of each noise-side factor: scaling
    # the disturbance covariance alone by alpha^2 scales the bound by
    # alpha, and scaling the noise-driven input spectrum too adds another
    # alpha (scaling the disturbance scales both quantities)
    grid = np.linspace(0.5, 5, 8)
    h0 = _flat_frf(grid, [[0.9 + 0.2j]])
    h1 = _flat_frf(grid, [[1.0 + 0j]])
    lam = np.array([[0.04]])
    phi_u = (grid, np.full((8, 1, 1), 2.0, dtype=complex))
    phi_ue = (grid, np.full((8, 1, 1), 0.5, dtype=complex))
    _, b1 = bias_bound(h0, h1, lam, phi_u, phi_ue)
    _, b_lam = bias_bound(h0, h1, alpha**2 * lam, phi_u, phi_ue)
    assert np.allclose(b_lam, alpha * b1, rtol=1e-12)
    _, b_both = bias_bound(h0, h1, alpha**2 * lam,
                           phi_u, (grid, alpha**2 * phi_ue[1]))
    assert np.allclose(b_both, alpha**2 * b1, rtol=1e-12)


def test_bias_bound_singular_input_spectrum():
    grid = np.linspace(0.5, 5, 4)
    h0 = _flat_frf(grid, [[0.9 + 0.2j]])
    h1 = _flat_frf(grid, [[1.0 + 0j]])
    phi_u = (grid, np.zeros((4, 1, 1), dtype=complex))
    phi_ue = (grid, np.full((4, 1, 1), 0.5, dtype=complex))
    with pytest.raises(SpectrumError):
        bias_bound(h0, h1, np.array([[0.04]]), phi_u, phi_ue)
