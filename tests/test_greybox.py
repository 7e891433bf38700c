import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsysid.constants import OMEGA_S
from loadsysid.errors import (
    IdentificationError,
    RiccatiError,
    ToolkitError,
    UnstablePredictorError,
)
from loadsysid.greybox import (
    BLOCK,
    FD_STEP,
    FREE,
    NOISE_CHANNELS,
    PENALTY_CAUSES,
    GreyBoxContinuous,
    GreyBoxDiscrete,
    NoiseConfig,
    _scoring,
    _series_arrays,
    assemble_continuous,
    discretize_zoh,
    evaluate_candidate,
    evaluate_candidates,
    fit_percent,
    identify,
    identify_output_error,
    loss,
    lti_operator,
    noise_channel_matrices,
    predict,
    propagate,
    propagate_from,
    riccati_predictors,
    solve_dare,
)
from loadsysid.motor import LoadParameters

from loops import (
    dare_step,
    predict_loop,
    propagate_loop,
    simulate_discrete_loop,
    solve_dare_loop,
)


def _params(**kw):
    base = dict(X=3.679, Xp=0.296, Td0p=0.576, Tj=2.0, s0=0.01,
                V0=1.01265, theta0=-0.06436)
    base.update(kw)
    return LoadParameters(**base)


# ---------------------------------------------------------------- assembly

def test_structural_entries_of_the_state_matrix():
    p = _params()
    cont = assemble_continuous(p, NoiseConfig())
    # slip couplings carry the equilibrium values scaled by the synchronous
    # speed; the printed pattern is recovered after dividing it out
    assert abs(cont.a[0, 1] / OMEGA_S - p.s0) < 1e-14
    assert abs(cont.a[0, 2] / OMEGA_S - p.Eyp0) < 1e-14
    assert abs(cont.a[1, 0] / OMEGA_S + p.s0) < 1e-14
    assert abs(cont.a[1, 2] / OMEGA_S + p.Exp0) < 1e-14
    assert abs(cont.a[2, 2]) == 0.0
    assert abs(cont.a[0, 0] + p.X / (p.Xp * p.Td0p)) < 1e-12
    # slip never appears directly in the outputs
    assert np.all(cont.c[:, 2] == 0.0)


def test_noise_channel_patterns():
    p = _params()
    g = noise_channel_matrices(NoiseConfig(channel="torque"), p)
    assert np.allclose(g.ravel(), [0, 0, 1.0 / p.Tj])
    g2 = noise_channel_matrices(NoiseConfig(channel="emf-wrong"), p)
    assert np.allclose(g2.ravel(), [0, 1.0 / p.Td0p, 0])


@pytest.mark.parametrize("kwargs, message", [
    ({"q": -1e-3}, "variances"),
    ({"q": float("inf")}, "variances"),
    ({"rm": float("nan")}, "variances"),
    ({"input_variance": (0.0, -1e-9)}, "variances"),
    ({"channel": "voltage"}, "unknown noise channel 'voltage'"),
])
def test_noise_config_rejects_bad_variances_and_channels(kwargs, message):
    with pytest.raises(ToolkitError, match=message):
        NoiseConfig(**kwargs)


def test_assembly_against_symbolic_linearization():
    """Independent oracle: symbolic differentiation of the nonlinear motor
    model."""
    sympy = pytest.importorskip("sympy")
    sp = sympy

    X, Xp, Td0p, Tj, ws = sp.symbols("X Xp Td0p Tj ws", positive=True)
    ex, ey, s, v, th = sp.symbols("ex ey s v th", real=True)
    vx, vy = v * sp.cos(th), v * sp.sin(th)
    dex = (-X * ex + (X - Xp) * vx) / (Xp * Td0p) + s * ws * ey
    dey = (-X * ey + (X - Xp) * vy) / (Xp * Td0p) - s * ws * ex
    te = (ex * vy - ey * vx) / Xp
    ds = -te / Tj  # constant torque drops out of the jacobians
    p_out = te
    q_out = (v**2 - vx * ex - vy * ey) / Xp

    states = (ex, ey, s)
    inputs = (v, th)
    f_vec = sp.Matrix([dex, dey, ds])
    g_vec = sp.Matrix([p_out, q_out])
    a_sym = f_vec.jacobian(states)
    b_sym = f_vec.jacobian(inputs)
    c_sym = g_vec.jacobian(states)
    d_sym = g_vec.jacobian(inputs)

    for params in (_params(V0=1.0, theta0=0.0), _params()):
        subs = {
            X: params.X, Xp: params.Xp, Td0p: params.Td0p, Tj: params.Tj,
            ws: OMEGA_S, ex: params.Exp0, ey: params.Eyp0, s: params.s0,
            v: params.V0, th: params.theta0,
        }
        cont = assemble_continuous(params, NoiseConfig())
        for sym, ours in ((a_sym, cont.a), (b_sym, cont.b),
                          (c_sym, cont.c), (d_sym, cont.d)):
            oracle = np.array(sym.subs(subs).evalf(), dtype=float)
            assert np.max(np.abs(oracle - ours)) < 1e-10


# ----------------------------------------------------------- discretization

def test_zoh_integrator_case():
    cont = assemble_continuous(_params(), NoiseConfig())
    cont_zero = replace(cont, a=np.zeros((3, 3)))
    disc = discretize_zoh(cont_zero, 0.02)
    assert np.allclose(disc.ad, np.eye(3), atol=1e-15)
    assert np.allclose(disc.bd, cont.b * 0.02, atol=1e-15)
    assert np.allclose(disc.gd, cont.g * 0.02, atol=1e-15)


def test_zoh_scalar_series_oracle():
    a, ts = -2.0, 0.01
    acc, term = 0.0, 1.0
    for k in range(21):
        acc += term
        term *= a * ts / (k + 1)
    cont = assemble_continuous(_params(), NoiseConfig())
    cont_s = replace(cont, a=np.diag([a, a, a]))
    disc = discretize_zoh(cont_s, ts)
    assert abs(disc.ad[0, 0] - acc) < 1e-14


def test_zoh_semigroup_property():
    cont = assemble_continuous(_params(), NoiseConfig())
    d1 = discretize_zoh(cont, 0.01)
    d2 = discretize_zoh(cont, 0.02)
    assert np.max(np.abs(d1.ad @ d1.ad - d2.ad)) < 1e-10


def test_zoh_input_matrix_against_quadrature():
    from scipy.linalg import expm

    cont = assemble_continuous(_params(), NoiseConfig())
    ts = 0.01
    disc = discretize_zoh(cont, ts)
    n_q = 2000  # Simpson quadrature of the convolution integral
    taus = np.linspace(0.0, ts, 2 * n_q + 1)
    w = np.ones(len(taus))
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    acc = np.zeros((3, 2))
    for tau, wk in zip(taus, w):
        acc += wk * expm(cont.a * tau) @ cont.b
    acc *= (ts / (2 * n_q)) / 3.0
    assert np.max(np.abs(disc.bd - acc)) < 1e-9


def test_foh_ramp_matrix_and_total():
    from scipy.linalg import expm

    cont = assemble_continuous(_params(), NoiseConfig())
    ts = 0.01
    f = discretize_zoh(cont, ts)
    # quadrature oracle for the ramp weight
    n_q = 2000
    taus = np.linspace(0.0, ts, 2 * n_q + 1)
    w = np.ones(len(taus))
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    acc = np.zeros((3, 2))
    for tau, wk in zip(taus, w):
        acc += wk * (tau / ts) * expm(cont.a * (ts - tau)) @ cont.b
    acc *= (ts / (2 * n_q)) / 3.0
    assert np.max(np.abs(f.bd_ramp - acc)) < 1e-9


def test_zoh_rejects_bad_period():
    cont = assemble_continuous(_params(), NoiseConfig())
    with pytest.raises(ToolkitError):
        discretize_zoh(cont, 0.0)
    with pytest.raises(ToolkitError):
        discretize_zoh(cont, -0.1)


def test_discrete_stepping_matches_continuous_integration():
    from scipy.integrate import solve_ivp

    cont = assemble_continuous(_params(), NoiseConfig())
    ts = 0.01
    disc = discretize_zoh(cont, ts)
    rng = np.random.default_rng(4)
    u = 1e-3 * rng.standard_normal((20, 2))
    x_disc = np.zeros(3)
    x_cont = np.zeros(3)
    for k in range(20):
        x_disc = disc.ad @ x_disc + disc.bd @ u[k]
        sol = solve_ivp(lambda t, x: cont.a @ x + cont.b @ u[k],
                        (0.0, ts), x_cont, rtol=1e-12, atol=1e-14)
        x_cont = sol.y[:, -1]
    assert np.max(np.abs(x_disc - x_cont)) < 1e-9


# ------------------------------------------------------------------- Riccati

def test_scalar_dare_closed_form():
    # p = a^2 p - (a p c)^2/(c^2 p + r) + q reduces to p^2 - p/4 - 1 = 0
    disc = GreyBoxDiscrete(
        ad=np.array([[0.5]]), bd=np.zeros((1, 2)), cd=np.array([[1.0]]),
        dd=np.zeros((1, 2)), gd=np.array([[1.0]]), bd_ramp=np.zeros((1, 2)),
    )
    # One output: the measurement floor rm I takes its size from cd.
    noise = NoiseConfig(q=1.0, rm=1.0)
    pred = solve_dare(disc, noise)
    root = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0
    assert abs(pred.p[0, 0] - root) < 1e-12
    kd_expect = 0.5 * root / (root + 1.0)
    assert abs(pred.kd[0, 0] - kd_expect) < 1e-12


def test_dare_zero_process_noise():
    cont = assemble_continuous(_params(), NoiseConfig())
    disc = discretize_zoh(cont, 0.01)
    noise = NoiseConfig(q=0.0, rm=1e-6)
    pred = solve_dare(disc, noise)
    assert np.max(np.abs(pred.p)) < 1e-15
    assert np.max(np.abs(pred.kd)) < 1e-12


def test_dare_against_fixed_point_iteration():
    cont = assemble_continuous(_params(), NoiseConfig())
    disc = discretize_zoh(cont, 0.01)
    noise = NoiseConfig()
    pred = solve_dare(disc, noise)
    nbar = np.zeros((3, 2))
    rbar = noise.rm * np.eye(2)
    qbar = noise.q * disc.gd @ disc.gd.T
    p = np.eye(3)
    for _ in range(3000):
        p_next = dare_step(p, disc.ad, disc.cd, nbar, rbar, qbar)
        if np.max(np.abs(p_next - p)) < 1e-16:
            p = p_next
            break
        p = p_next
    assert np.max(np.abs(p - pred.p)) < 1e-10
    assert pred.residual < 1e-9
    assert np.max(np.abs(np.linalg.eigvals(disc.ad - pred.kd @ disc.cd))) < 1.0
    ev = np.linalg.eigvalsh(pred.p)
    assert ev[0] > 0.0  # positive definite for the noise-driven model
    # the printed update form is also satisfied at the solution
    printed = disc.ad @ pred.p @ disc.ad.T - pred.kd @ (
        disc.ad @ pred.p @ disc.cd.T + nbar).T + qbar
    assert np.max(np.abs(printed - pred.p)) < 1e-12


def _random_params(rng, truth):
    """A candidate drawn around ``truth``, as the optimizer may propose."""
    draw = {
        "X": truth.X * rng.uniform(0.2, 5),
        "Td0p": truth.Td0p * rng.uniform(0.2, 5),
        "Tj": truth.Tj * rng.uniform(0.2, 5),
        "s0": float(np.clip(truth.s0 * rng.uniform(0.2, 5), 1e-4, 0.5)),
    }
    draw["Xp"] = min(truth.Xp * rng.uniform(0.2, 5), draw["X"] * 0.9)
    return replace(truth, **draw)


def _stacked_discrete(params_list, noise, ts=0.01):
    conts = [assemble_continuous(p, noise) for p in params_list]
    cont = GreyBoxContinuous(**{name: np.stack([vars(c)[name] for c in conts])
                                for name in vars(conts[0])})
    return discretize_zoh(cont, ts)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_riccati_stack_matches_doubling_oracle(seed):
    """Each slice of the stacked one-solve doubling against the per-model
    three-solve doubling: the same failure type from the same slices, and
    P and K S = A P C' + N to 1e-12.  K = (A P C' + N) S^-1 itself carries
    the rounding of P amplified by cond(S) (measured: at most 1.3 cond(S)
    eps over 3000 draws), so its bound grows with cond(S)."""
    rng = np.random.default_rng(seed)
    noise = NoiseConfig(
        channel=NOISE_CHANNELS[rng.integers(2)], rm=1e-8,
        input_variance=tuple(rng.choice([0.0, 1e-9, 1e-7], size=2)))
    cands = [_random_params(rng, _params()) for _ in range(4)]
    disc = _stacked_discrete(cands, noise)
    pred, failures = riccati_predictors(disc, noise)
    for j in range(len(cands)):
        one = GreyBoxDiscrete(**{
            k: v[j] if isinstance(v, np.ndarray) else v
            for k, v in vars(disc).items()})
        try:
            kd, p, _ = solve_dare_loop(one, noise)
        except RiccatiError as exc:
            assert type(failures[j]) is type(exc), (j, failures[j], exc)
            continue
        assert failures[j] is None
        s = pred.innovation_cov[j]
        assert _rel_dev(pred.p[j], p) < 1e-12
        assert _rel_dev(pred.kd[j] @ s, kd @ s) < 1e-12
        assert _rel_dev(pred.kd[j], kd) < 1e-12 + 1e-15 * np.linalg.cond(s)
        single = solve_dare(one, noise)
        assert np.array_equal(single.p, pred.p[j])
        assert np.array_equal(single.kd, pred.kd[j])


def test_measurement_floor_is_each_outputs_variance():
    """``rm`` adds rm I to the innovation covariance, not rm on every
    entry (which would make the 2x2 floor singular)."""
    cont = assemble_continuous(_params(), NoiseConfig())
    disc = discretize_zoh(cont, 0.01)
    pred = solve_dare(disc, NoiseConfig(rm=1e-8))
    assert pred.residual <= 1e-9
    floor = pred.innovation_cov - disc.cd @ pred.p @ disc.cd.T
    assert np.allclose(floor, 1e-8 * np.eye(2), rtol=0.0, atol=1e-18)


def test_dare_singular_floor_rejected():
    cont = assemble_continuous(_params(), NoiseConfig())
    disc = discretize_zoh(cont, 0.01)
    with pytest.raises((RiccatiError, ToolkitError)):
        noise = NoiseConfig(rm=0.0)
        solve_dare(disc, noise)


# ----------------------------------------------------------------- predictor

def _zoh(disc):
    """``disc`` with a zero ramp: the model of zero-order-hold inputs, which
    ``simulate_discrete_loop`` propagates."""
    return replace(disc, bd_ramp=np.zeros_like(disc.bd))


def test_open_loop_predictor_equals_simulation():
    cont = assemble_continuous(_params(), NoiseConfig())
    disc = _zoh(discretize_zoh(cont, 0.01))
    rng = np.random.default_rng(0)
    u = 1e-3 * rng.standard_normal((120, 2))
    y_sim = simulate_discrete_loop(disc, u)
    yhat, eps = predict(np.zeros((3, 2)), disc, u,
                        y_sim + rng.standard_normal((120, 2)))
    assert np.max(np.abs(yhat - y_sim)) < 1e-14


def test_predict_zero_series():
    cont = assemble_continuous(_params(), NoiseConfig())
    disc = _zoh(discretize_zoh(cont, 0.01))
    pred = solve_dare(disc, NoiseConfig())
    yhat, eps = predict(pred.kd, disc, np.zeros((50, 2)), np.zeros((50, 2)))
    assert np.max(np.abs(yhat)) == 0.0
    assert np.max(np.abs(eps)) == 0.0


def test_innovations_white_on_matched_synthetic_data():
    cont = assemble_continuous(_params(), NoiseConfig())
    disc = _zoh(discretize_zoh(cont, 0.01))
    noise = NoiseConfig()
    pred = solve_dare(disc, noise)
    rng = np.random.default_rng(12)
    n = 4000
    from scipy.signal import lfilter

    u = 1e-3 * np.column_stack([
        lfilter([0.2], [1, -0.8], rng.standard_normal(n)),
        lfilter([0.2], [1, -0.8], rng.standard_normal(n)),
    ])
    e = np.sqrt(noise.q) * rng.standard_normal((n, 1))
    v = np.sqrt(noise.rm) * rng.standard_normal((n, 2))
    y = simulate_discrete_loop(disc, u, e=e, v=v)
    _, eps = predict(pred.kd, disc, u, y)
    band = 2.0 / np.sqrt(n - 200)
    for ch in range(2):
        x = eps[200:, ch] - eps[200:, ch].mean()
        ac = np.correlate(x, x, "full")[len(x) - 1:len(x) + 21] / np.dot(x, x)
        inside = np.sum(np.abs(ac[1:21]) <= band)
        assert inside >= 18


def _rel_dev(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31),
       st.one_of(st.floats(0.0, 0.99), st.floats(0.99, 0.9999)),
       st.integers(min_value=1, max_value=700))
def test_propagate_matches_loop_oracle(seed, radius, n):
    rng = np.random.default_rng(seed)
    nx, nw, ny = (int(v) for v in rng.integers(1, 9, size=3))
    a = rng.standard_normal((nx, nx))
    a *= radius / np.max(np.abs(np.linalg.eigvals(a)))
    b = rng.standard_normal((nx, nw))
    c = rng.standard_normal((ny, nx))
    d = rng.standard_normal((ny, nw))
    w = rng.standard_normal((n, nw))
    got = propagate(a, b, c, d, w)
    assert got.shape == (n, ny)
    assert _rel_dev(got, propagate_loop(a, b, c, d, w)) < 1e-12
    # A stack of three systems driven by the one record, and one system
    # driven by a stack of two records.
    a3 = a * np.array([1.0, 0.5, -0.9])[:, None, None]
    b3 = b + 0.1 * rng.standard_normal((3, nx, nw))
    got3 = propagate(a3, b3, c, d, w)
    assert got3.shape == (3, n, ny)
    for i in range(3):
        assert _rel_dev(got3[i], propagate_loop(a3[i], b3[i], c, d, w)) < 1e-12
    w2 = np.stack([w, rng.standard_normal((n, nw))])
    got2 = propagate(a, b, c, d, w2)
    for i in range(2):
        assert _rel_dev(got2[i], propagate_loop(a, b, c, d, w2[i])) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31),
       st.one_of(st.floats(0.0, 0.99), st.floats(0.99, 0.9999)),
       st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]))
def test_propagate_from_matches_loop_oracle(seed, radius, n):
    """The block recursion from a nonzero start state, on records shorter
    than, equal to and longer than one block, for one system and a stack."""
    rng = np.random.default_rng(seed)
    nx, nw, ny = (int(v) for v in rng.integers(1, 9, size=3))
    a = rng.standard_normal((nx, nx))
    a *= radius / np.max(np.abs(np.linalg.eigvals(a)))
    b = rng.standard_normal((nx, nw))
    c = rng.standard_normal((ny, nx))
    d = rng.standard_normal((ny, nw))
    w = rng.standard_normal((n, nw))
    x0 = rng.standard_normal(nx)
    op = lti_operator(a, b, c, d, BLOCK)
    got = propagate_from(op, x0, w)
    assert got.shape == (n, ny)
    assert _rel_dev(got, propagate_loop(a, b, c, d, w, x0)) < 1e-12
    # A stack of three systems, each from its own start state.
    a3 = a * np.array([1.0, 0.5, -0.9])[:, None, None]
    x3 = rng.standard_normal((3, nx))
    got3 = propagate_from(lti_operator(a3, b, c, d, BLOCK), x3, w)
    assert got3.shape == (3, n, ny)
    for i in range(3):
        assert _rel_dev(got3[i], propagate_loop(a3[i], b, c, d, w, x3[i])) < 1e-12
    # From a zero start it is ``propagate``, bit for bit.
    assert np.array_equal(propagate_from(op, np.zeros(nx), w),
                          propagate(a, b, c, d, w))
    assert np.array_equal(
        propagate_from(lti_operator(a3, b, c, d, BLOCK), np.zeros(nx), w),
        propagate(a3, b, c, d, w))


def test_propagate_empty_record():
    out = propagate(np.eye(3), np.ones((3, 2)), np.ones((2, 3)),
                    np.ones((2, 2)), np.empty((0, 2)))
    assert out.shape == (0, 2)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_predictor_and_simulation_match_loop_oracles(seed):
    rng = np.random.default_rng(seed)
    noise = NoiseConfig()
    cont = assemble_continuous(_random_params(rng, _params()), noise)
    disc = discretize_zoh(cont, 0.01)
    n = 450
    u = 1e-3 * rng.standard_normal((n, 2))
    e = rng.standard_normal((n, 1))
    v = 1e-4 * rng.standard_normal((n, 2))
    y = simulate_discrete_loop(disc, u, e=e, v=v)
    try:
        kd = solve_dare(disc, noise).kd
    except RiccatiError:
        kd = np.zeros((3, 2))
    for hold in (disc, _zoh(disc)):
        yhat, eps = predict(kd, hold, u, y)
        yhat_ref, eps_ref = predict_loop(kd, hold, u, y)
        assert _rel_dev(yhat, yhat_ref) < 1e-12
        assert np.max(np.abs(eps - eps_ref)) <= 1e-12 * np.max(np.abs(y))


# ----------------------------------------------------------------------- loss

def test_loss_trivial_values():
    assert loss(np.zeros((5, 2))) == 0.0
    assert loss(np.array([[3.0, 4.0]])) == 25.0
    with pytest.raises(ToolkitError):
        loss(np.empty((0, 2)))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_loss_matches_accumulation_oracle(seed):
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((1000, 2))
    acc = 0.0
    for row in eps:
        acc += row[0] ** 2 + row[1] ** 2
    assert abs(loss(eps) - acc / 1000.0) < 1e-12


def test_fit_percent_perfect_and_mean():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((100, 2))
    assert np.allclose(fit_percent(y, y), [100.0, 100.0])
    flat = np.tile(y.mean(axis=0), (100, 1))
    assert np.allclose(fit_percent(y, flat), [0.0, 0.0], atol=1e-9)


# ----------------------------------------------------------- identification

def _noise_free_series(params, n=400, seed=3):
    """Deterministic record generated by the identification model itself:
    exactly detrended deltas around the true operating point, first-order
    hold on the input path, no disturbances."""
    from loadsysid.series import MeasurementSeries
    from scipy.signal import lfilter

    noise = NoiseConfig(q=0.0)
    cont = assemble_continuous(params, noise)
    disc = discretize_zoh(cont, 0.01)
    rng = np.random.default_rng(seed)
    u = 2e-3 * np.column_stack([
        lfilter([0.3], [1, -0.7], rng.standard_normal(n)),
        lfilter([0.3], [1, -0.7], rng.standard_normal(n)),
    ])
    u = u - u.mean(axis=0)
    x = np.zeros(3)
    y = np.empty((n, 2))
    for k in range(n):
        y[k] = disc.cd @ x + disc.dd @ u[k]
        du = u[k + 1] - u[k] if k + 1 < n else np.zeros(2)
        x = disc.ad @ x + disc.bd @ u[k] + disc.bd_ramp @ du
    deltas = np.column_stack([u, y])
    means = np.array([params.V0, params.theta0, 0.45, 0.34])
    return MeasurementSeries(
        ts=0.01, time=np.arange(n) * 0.01, data=deltas + means[None, :],
        detrended=True, deltas=deltas, means=means,
    )


def test_identify_is_a_fixed_point_on_noise_free_data():
    truth = _params()
    win = _noise_free_series(truth)
    noise = NoiseConfig(q=0.0)
    res = identify(win, truth, noise=noise, n_restarts=1, burn_in=0)
    assert res.quad_loss < 1e-12
    for name in ("X", "Xp", "Td0p", "Tj", "s0"):
        assert abs(getattr(res.params, name) / getattr(truth, name) - 1) < 1e-6


def test_output_error_recovers_truth_on_open_loop_data():
    truth = _params()
    win = _noise_free_series(truth, seed=4)
    init = replace(truth, X=truth.X * 1.05, Td0p=truth.Td0p * 0.95)
    res = identify_output_error(win, init, n_restarts=1, burn_in=0)
    assert res.quad_loss < 1e-10
    for name in ("X", "Xp", "Td0p", "Tj", "s0"):
        assert abs(getattr(res.params, name) / getattr(truth, name) - 1) < 1e-3


def test_identify_objective_never_worsens():
    truth = _params()
    win = _noise_free_series(truth, seed=5)
    init = replace(truth, X=truth.X * 1.3, Tj=truth.Tj * 0.8)
    res = identify(win, init, noise=NoiseConfig(q=0.0),
                   n_restarts=1, burn_in=0)
    assert res.loss <= res.initial_loss + 1e-15


def test_converged_is_the_chosen_starts_optimizer_status():
    truth = _params()
    win = _noise_free_series(truth, seed=5)
    init = replace(truth, X=truth.X * 1.3, Tj=truth.Tj * 0.8)
    res = identify(win, init, noise=NoiseConfig(q=0.0),
                   n_restarts=1, burn_in=0, maxiter=1)
    # One iteration improves the criterion but stops at the iteration limit.
    assert res.loss < res.initial_loss
    assert res.meta["chosen_start"] == 0
    assert res.starts[0]["nit"] == 1
    assert res.starts[0]["status"] == "iteration limit"
    assert not res.converged


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_identify_recovers_the_truth_from_a_perturbed_init(seed):
    """Noise-free data from the model itself, with the innovation
    covariance fixed (zero process noise): the search from a 30 % perturbed
    init converges on the truth in at most 20 iterations."""
    from conftest import perturbed_init

    truth = _params()
    win = _noise_free_series(truth, seed=seed)
    res = identify(win, perturbed_init(truth, seed),
                   noise=NoiseConfig(q=0.0), n_restarts=1,
                   burn_in=0)
    assert res.converged and res.starts[0]["nit"] <= 20
    for name in ("X", "Xp", "Td0p", "Tj", "s0"):
        assert abs(getattr(res.params, name) / getattr(truth, name) - 1) < 1e-6


def test_identify_failure_reports_diagnostics():
    truth = _params()
    win = _noise_free_series(truth, seed=6)
    # A zero measurement floor makes every candidate's Riccati equation
    # singular.
    with pytest.raises(IdentificationError,
                       match=r"start 1 start point penalised \(riccati\)"
                       ) as err:
        identify(win, truth, noise=NoiseConfig(rm=0.0), n_restarts=2,
                 burn_in=0)
    assert [s["status"] for s in err.value.diagnostics] == [
        "start point penalised (riccati)"] * 2


def test_identify_starts_from_the_init_clipped_into_the_box():
    """s0 = 0.6 lies above its box (1e-4, 0.5): the search starts at
    s0 = 0.5, and ``initial_loss`` is the criterion there."""
    truth = _params()
    win = _noise_free_series(truth, seed=5)
    init = replace(truth, s0=0.6)
    res = identify(win, init, n_restarts=1, burn_in=0, maxiter=5)

    def criterion(s0):
        return evaluate_candidate(replace(init, s0=s0), NoiseConfig(),
                                  *_series_arrays(win)[:2], win.ts, 0)[0]

    assert res.initial_loss == pytest.approx(criterion(0.5), rel=1e-9)
    assert res.initial_loss != pytest.approx(criterion(0.6), rel=1e-3)
    assert res.loss <= res.initial_loss
    assert 1e-4 <= res.params.s0 <= 0.5
    for name in ("X", "Xp", "Td0p", "Tj"):
        v0 = getattr(init, name)
        assert v0 / 10 <= getattr(res.params, name) <= v0 * 10


def test_gradient_step_size_robustness():
    truth = _params()
    win = _noise_free_series(truth, seed=7)
    u = np.column_stack([win.delta("v"), win.delta("theta")])
    y = np.column_stack([win.delta("p"), win.delta("q")])
    noise = NoiseConfig()
    point = np.array([truth.X * 1.1, truth.Xp * 0.93, truth.Td0p * 1.2,
                      truth.Tj * 1.05, truth.s0 * 0.9])
    names = ("X", "Xp", "Td0p", "Tj", "s0")

    def f(vec):
        p = replace(truth, **dict(zip(names, vec)))
        crit, _, _, _, _ = evaluate_candidate(p, noise, u, y, win.ts, 20)
        return crit

    def grad(h_rel):
        g = np.empty(5)
        f0 = f(point)
        for j in range(5):
            dp = point.copy()
            dp[j] += h_rel * abs(point[j])
            g[j] = (f(dp) - f0) / (h_rel * abs(point[j]))
        return g

    g1, g2 = grad(1e-6), grad(1e-7)
    assert np.linalg.norm(g1 - g2) <= 0.01 * np.linalg.norm(g1)


def test_candidate_stack_matches_scalar_evaluation():
    """One stack holding a valid candidate, one whose model has NaN
    entries, one whose pem-b predictor is unstable (radius 1.00008) and
    one whose open-loop model grows at 36/s, so that its output-error
    predictions overflow on this 20 s record.  Every slice gives the scalar
    evaluation's value or failure type, without a floating-point warning."""
    import warnings

    truth = _params()
    win = _noise_free_series(truth, n=2000, seed=3)
    u = np.column_stack([win.delta("v"), win.delta("theta")])
    y = np.column_stack([win.delta("p"), win.delta("q")])
    nan_model = replace(truth)
    object.__setattr__(nan_model, "Tj", np.nan)  # past the validation
    cands = [
        replace(truth, X=1.1 * truth.X, Tj=0.9 * truth.Tj),
        nan_model,
        replace(truth, X=10.826, Td0p=0.133, Tj=7.817, s0=0.049, Xp=0.897),
        replace(truth, X=0.623, Xp=0.0345, Td0p=3.405, Tj=0.284, s0=0.0674),
    ]
    noise = NoiseConfig(channel="emf-wrong", rm=1e-8,
                        input_variance=(1e-9, 1e-9))
    kinds = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for output_error in (False, True):
            stack = evaluate_candidates(cands, noise, u, y, win.ts, 50,
                                        output_error=output_error)
            for p, got in zip(cands, stack):
                try:
                    want = evaluate_candidate(p, noise, u, y, win.ts, 50,
                                              output_error=output_error)
                except ToolkitError as exc:
                    assert type(got) is type(exc)
                    kinds[type(exc)] = True
                    continue
                if not np.isfinite(want[0]):
                    assert not np.isfinite(got[0])
                    kinds["non-finite"] = True
                    continue
                assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])
                assert abs(got[1] - want[1]) <= 1e-12 * abs(want[1])
                assert np.array_equal(got[2], want[2])
    assert set(kinds) == {ToolkitError, UnstablePredictorError,
                          "non-finite"}


def test_batched_gradient_matches_serial_differences():
    """scipy hands every forward-difference point of a gradient to
    ``workers`` at once; scored as one stack they give the serial
    gradient, also at a point on an upper bound, where scipy steps
    backwards."""
    from scipy.optimize._numdiff import approx_derivative

    truth = _params()
    win = _noise_free_series(truth, seed=5)
    u = np.column_stack([win.delta("v"), win.delta("theta")])
    y = np.column_stack([win.delta("p"), win.delta("q")])
    noise = NoiseConfig()
    names = ("X", "Xp", "Td0p", "Tj", "s0")
    scale = np.array([getattr(truth, n) for n in names])

    def params(x):
        return replace(truth, **dict(zip(names, x * scale)))

    def f(x):
        return evaluate_candidate(params(x), noise, u, y, win.ts, 20)[0]

    def batch(fun, xs):
        return [r[0] for r in evaluate_candidates(
            [params(x) for x in xs], noise, u, y, win.ts, 20)]

    lb, ub = np.full(5, 0.5), np.array([2.0, 2.0, 1.3, 2.0, 2.0])
    for x0 in (np.array([1.1, 0.93, 1.2, 1.05, 0.9]),
               np.array([1.1, 0.93, 1.3, 1.05, 0.9])):   # Td0p at its bound
        kw = dict(method="2-point", abs_step=1e-6, bounds=(lb, ub))
        serial = approx_derivative(f, x0, **kw)
        stacked = approx_derivative(f, x0, workers=batch, **kw)
        assert _rel_dev(stacked, serial) <= 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.booleans())
def test_stacked_jacobian_matches_central_differences(seed, output_error):
    """On a random candidate whose predictor is stable, one stack of
    forward-difference points gives each column of the whitened innovation
    Jacobian and of dS as the central difference at the column's midpoint
    x + h/2 e_j.  The gradient's chain rule, fed central differences at x,
    gives the central difference of the criterion there.  Deviations are
    normwise relative."""
    truth = _params()
    win = _noise_free_series(truth, seed=3)
    u, y, _ = _series_arrays(win)
    noise = NoiseConfig(rm=1e-8)
    base = _random_params(np.random.default_rng(seed), truth)
    scale = np.array([getattr(base, n) for n in FREE])
    eye = np.eye(len(FREE))
    step = 1e-5

    def evaluate(xs):
        out = evaluate_candidates(
            [replace(base, **dict(zip(FREE, x * scale)))
             for x in xs], noise, u, y, win.ts, 20, output_error=output_error)
        if any(isinstance(r, Exception) for r in out):
            return None
        return [(r[0], r[3][20:], r[4]) for r in out]

    def central(at):
        """Half the central step of (criterion, innovations, S) about
        1 + at e_j, per parameter j."""
        plus = evaluate(list(1.0 + (at + step) * eye))
        minus = evaluate(list(1.0 + (at - step) * eye))
        if plus is None or minus is None:
            return None
        return [tuple(None if p is None else (p - m) / 2
                      for p, m in zip(pj, mj)) for pj, mj in zip(plus, minus)]

    stack = evaluate([np.ones(5)] + list(1.0 + FD_STEP * eye))
    mid, at_x = central(FD_STEP / 2), central(0.0)
    if stack is None or mid is None or at_x is None:
        return
    _, _, jac, ds = _scoring(stack[0], stack[1:], np.full(5, FD_STEP))
    _, e0, s0 = stack[0]
    white = np.eye(2) if s0 is None else np.linalg.inv(np.linalg.cholesky(s0))
    jac_mid = (np.array([c[1] for c in mid]) @ white.T).reshape(5, -1).T / (
        step * np.sqrt(len(e0)))

    def rel(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    assert rel(jac, jac_mid) <= 1e-6
    if not output_error:
        assert rel(ds, np.array([c[2] for c in mid]) / step) <= 1e-6
    # Points one central half-step from x, for the chain rule at x.
    virtual = [(None, e0 + c[1], None if s0 is None else s0 + c[2])
               for c in at_x]
    g_x, _, _, _ = _scoring(stack[0], virtual, np.full(5, step))
    assert rel(g_x, np.array([c[0] for c in at_x]) / step) <= 1e-6


def _recording_chains(monkeypatch):
    """Sizes of the ``evaluate_candidates`` stacks that ``identify`` scores
    from now on, without the candidates that failed validation and are
    handed over as their error; scoring one candidate outside them
    fails."""
    import loadsysid.greybox as greybox

    sizes = []
    score = greybox.evaluate_candidates

    def recording(params_list, *args, **kwargs):
        sizes.append(sum(not isinstance(p, Exception) for p in params_list))
        return score(params_list, *args, **kwargs)

    def rescoring(*args, **kwargs):
        raise AssertionError("identify scored a candidate outside the map")

    monkeypatch.setattr(greybox, "evaluate_candidates", recording)
    monkeypatch.setattr(greybox, "evaluate_candidate", rescoring)
    return sizes


def test_identify_scores_each_gradient_as_one_stack(monkeypatch):
    """The first chain is the start point and its five difference points;
    then each iteration scores the four damped trial steps and, at the new
    point, its five difference points."""
    sizes = _recording_chains(monkeypatch)
    truth = _params()
    win = _noise_free_series(truth, seed=5)
    init = replace(truth, X=truth.X * 1.3, Tj=truth.Tj * 0.8)
    res = identify(win, init, noise=NoiseConfig(q=0.0),
                   n_restarts=1, burn_in=0, maxiter=5)
    assert sum(res.meta["penalties"].values()) == 0
    assert sizes[:2] == [1 + 5, 4] and set(sizes[2:]) == {5, 4}
    assert len(sizes) == res.starts[0]["chains"]
    # A candidate that fails parameter validation never reaches the stack;
    # every other one is scored once.
    assert res.meta["n_eval"] == (sum(sizes)
                                  + res.meta["penalties"]["invalid_parameters"])


def test_penalised_difference_point_steps_backwards(monkeypatch):
    """With Xp just below X the forward Xp difference point has Xp > X and
    fails validation: that coordinate's backward point is scored in one
    extra chain, and the start proceeds."""
    sizes = _recording_chains(monkeypatch)
    truth = _params()
    win = _noise_free_series(truth, seed=5)
    init = replace(truth, Xp=truth.X * (1 - 1e-7))
    res = identify(win, init, n_restarts=1, burn_in=0, maxiter=3)
    # The first chain holds the start and four valid difference points.
    assert sizes[:3] == [5, 1, 4]
    assert res.meta["penalties"]["invalid_parameters"] >= 1
    assert res.starts[0]["ok"] and res.starts[0]["nit"] >= 1
    assert res.loss < res.initial_loss


def test_output_error_overflow_is_a_counted_penalty():
    """On a 200 s record the random second start (seed 2) is an open-loop
    model whose predictions overflow: the start fails under the
    ``non_finite`` cause, and no floating-point warning escapes."""
    import warnings

    truth = _params()
    win = _noise_free_series(truth, n=20000, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = identify_output_error(win, truth, n_restarts=2, seed=2,
                                    burn_in=0, maxiter=3)
    assert res.meta["penalties"]["non_finite"] > 0
    assert not res.starts[1]["ok"] and res.starts[0]["ok"]


def test_penalty_counts_repeat_and_name_their_causes():
    truth = _params()
    win = _noise_free_series(truth, seed=6)
    # X just above Xp: X's default box reaches below Xp's, and those
    # candidates fail validation.
    init = replace(truth, X=1.2 * truth.Xp)
    runs = [identify(win, init, n_restarts=2, seed=1, burn_in=0,
                     maxiter=20).meta for _ in range(2)]
    assert runs[0]["penalties"] == runs[1]["penalties"]
    assert runs[0]["n_eval"] == runs[1]["n_eval"]
    assert tuple(runs[0]["penalties"]) == PENALTY_CAUSES
    assert 0 < runs[0]["penalties"]["invalid_parameters"] < runs[0]["n_eval"]


def test_equilibrium_consistent_parameters_have_no_offset(wscc_eq):
    cont = assemble_continuous(wscc_eq.params, NoiseConfig())
    disc = discretize_zoh(cont, 0.01)
    y = simulate_discrete_loop(disc, np.zeros((40, 2)))
    assert np.max(np.abs(y)) == 0.0


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_predictor_stays_stable_over_random_candidates(seed):
    rng = np.random.default_rng(seed)
    cont = assemble_continuous(_random_params(rng, _params()), NoiseConfig())
    disc = discretize_zoh(cont, 0.01)
    try:
        pred = solve_dare(disc, NoiseConfig())
    except RiccatiError:
        return
    assert np.max(np.abs(np.linalg.eigvals(disc.ad - pred.kd @ disc.cd))) < 1.0
