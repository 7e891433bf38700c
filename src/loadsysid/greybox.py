"""Grey-box load model, innovation predictor and parameter estimation.

The continuous model has states (dE'x, dE'y, ds), inputs (dV, dtheta) and
outputs (dP, dQ); every matrix entry is an explicit function of the physical
parameters, obtained by linearizing the third-order motor model at the
operating point, and discretized exactly with a first-order-hold input
ramp.  The one-step predictor is the discrete model plus its steady-state
Kalman gain (zero gain and the mean squared prediction error for the
output-error baseline), and identification minimizes the Gaussian
prediction-error criterion over the five motor constants with a bounded
Levenberg-Marquardt search on the Fisher-scoring Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import expm

from loadsysid.constants import OMEGA_S
from loadsysid.errors import (
    CaseValidationError,
    IdentificationError,
    RiccatiError,
    ToolkitError,
    UnstablePredictorError,
)
from loadsysid.motor import LoadParameters

# The free parameters.  ``LoadParameters`` derives the equilibrium EMF pair
# from them and the operating point; untied, the pair would open a flat
# escape direction in which the optimizer shrinks the deterministic path
# and inflates the noise gain.
FREE = ("X", "Xp", "Td0p", "Tj", "s0")

NOISE_CHANNELS = ("torque", "emf-wrong")


def __getattr__(name):
    # Nothing here calls ``minimize``; perfbench traces it by name.  ROADMAP
    # item 3's benchmark PR deletes this lazy alias with that trace target.
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Why a candidate has no usable criterion, which makes it a rejected step;
# counted in ``IdentResult.meta["penalties"]``.
PENALTY_CAUSES = ("invalid_parameters", "unstable_predictor", "riccati",
                  "non_finite")


@dataclass
class GreyBoxContinuous:
    """Continuous model; every matrix may carry one leading candidate axis
    (a stack of models of equal shape)."""

    a: np.ndarray  # 3x3
    b: np.ndarray  # 3x2
    c: np.ndarray  # 2x3
    d: np.ndarray  # 2x2
    g: np.ndarray  # 3x1 disturbance input

    def __post_init__(self):
        shapes = tuple(m.shape[-2:] for m in (self.a, self.b, self.c, self.d))
        if shapes != ((3, 3), (3, 2), (2, 3), (2, 2)):
            raise ToolkitError(f"bad grey-box dimensions {shapes}")
        # A NaN or infinite entry makes its matrix's sum non-finite.
        if not math.isfinite(sum(float(m.sum()) for m in (
                self.a, self.b, self.c, self.d, self.g))):
            raise ToolkitError("non-finite grey-box matrix entry")


@dataclass
class GreyBoxDiscrete:
    """Sampled model.  ``bd`` is the total input matrix of a held input and
    the state update adds bd_ramp (u(k+1) - u(k)), the first-order-hold
    correction for smooth intersample inputs; a zero ramp makes it the
    zero-order-hold model.  As for ``GreyBoxContinuous``, the matrices may
    carry a leading candidate axis."""

    ad: np.ndarray
    bd: np.ndarray
    cd: np.ndarray
    dd: np.ndarray
    gd: np.ndarray
    bd_ramp: np.ndarray


@dataclass
class NoiseConfig:
    """Disturbance and measurement noise: a channel and three variances.

    ``channel`` selects the pattern of the scalar disturbance input, whose
    variance is ``q``: "torque" enters the slip equation scaled by 1/Tj,
    "emf-wrong" enters the EMF-y equation scaled by 1/T'd0 (a deliberately
    misplaced channel).  Neither has a feedthrough to the outputs.  ``rm``
    is the variance of each output's measurement noise, a conditioning
    floor kept far below the innovation variances so it does not distort
    their relative weighting.
    """

    q: float = 0.002
    rm: float = 1e-10
    channel: str = "torque"
    # Measurement-noise variances of the two input channels (dV, dtheta).
    # Input noise reaches the state through Bd and the outputs through Dd;
    # the gain solver folds both paths into the noise model, so noised
    # inputs do not bias the estimate.
    input_variance: tuple = (0.0, 0.0)

    def __post_init__(self):
        self.input_variance = tuple(np.broadcast_to(
            np.asarray(self.input_variance, dtype=float), (2,)))
        if not all(0.0 <= v < math.inf
                   for v in (self.q, self.rm, *self.input_variance)):
            raise ToolkitError("noise variances must be finite and "
                               "non-negative")
        if self.channel not in NOISE_CHANNELS:
            raise ToolkitError(f"unknown noise channel {self.channel!r}")


@dataclass
class InnovationPredictor:
    """Steady-state Kalman gain of a discrete model, with the Riccati
    solution, its residual and the innovation covariance; stacked like its
    discrete model (``residual`` is then one value per candidate)."""

    kd: np.ndarray
    p: np.ndarray
    residual: float
    innovation_cov: np.ndarray


def _take(stack, index):
    """The candidates ``index`` (an int or an index array) of a stacked
    model or gain; ``np.newaxis`` makes one model a stack of one."""
    return type(stack)(**{
        name: value[index] if isinstance(value, np.ndarray) else value
        for name, value in vars(stack).items()})


@dataclass
class IdentResult:
    """Estimation outcome.  ``loss`` is the minimized criterion (Gaussian
    likelihood rate for the innovation predictor, quadratic output error
    for the baseline); ``quad_loss`` is always the mean squared innovation
    norm at the estimate.  ``converged`` says whether the start the
    estimate came from (``meta["chosen_start"]``) stopped on the relative
    decrease or the step size rather than on the damping or iteration
    limit."""

    params: LoadParameters
    loss: float
    initial_loss: float
    quad_loss: float
    trace: list
    fit: dict
    converged: bool
    at_bound: list
    starts: list
    meta: dict = field(default_factory=dict)
    # One-step predictions of (dP, dQ) at the estimate over the whole record.
    predictions: np.ndarray | None = field(default=None, repr=False,
                                           compare=False)


def noise_channel_matrices(noise, params):
    """Disturbance input pattern G (3x1)."""
    g = np.zeros((3, 1))
    if noise.channel == "torque":
        g[2, 0] = 1.0 / params.Tj
    else:
        g[1, 0] = 1.0 / params.Td0p
    return g


def assemble_continuous(params, noise):
    """Continuous grey-box matrices at the operating point of ``params``."""
    X, Xp, Td0p, Tj = params.X, params.Xp, params.Td0p, params.Tj
    s0, ex0, ey0 = params.s0, params.Exp0, params.Eyp0
    v0, th0 = params.V0, params.theta0
    ct, st = math.cos(th0), math.sin(th0)
    k_emf = 1.0 / (Xp * Td0p)

    a = np.array([
        [-X * k_emf, s0 * OMEGA_S, ey0 * OMEGA_S],
        [-s0 * OMEGA_S, -X * k_emf, -ex0 * OMEGA_S],
        [-v0 * st / (Xp * Tj), v0 * ct / (Xp * Tj), 0.0],
    ])
    kb = (X - Xp) * k_emf
    b = np.array([
        [kb * ct, -kb * v0 * st],
        [kb * st, kb * v0 * ct],
        [-(ex0 * st - ey0 * ct) / (Xp * Tj), -v0 * (ex0 * ct + ey0 * st) / (Xp * Tj)],
    ])
    c = np.array([
        [v0 * st / Xp, -v0 * ct / Xp, 0.0],
        [-v0 * ct / Xp, -v0 * st / Xp, 0.0],
    ])
    d = np.array([
        [(ex0 * st - ey0 * ct) / Xp, v0 * (ex0 * ct + ey0 * st) / Xp],
        [(2.0 * v0 - ex0 * ct - ey0 * st) / Xp,
         v0 * (ex0 * st - ey0 * ct) / Xp],
    ])
    return GreyBoxContinuous(a=a, b=b, c=c, d=d,
                             g=noise_channel_matrices(noise, params))


def van_loan(a, ts):
    """Exact hold weights of x' = A x + f(t) over one period ``ts``.

    Returns e^{A ts}, W0 = int_0^ts e^{A(ts-s)} ds and W1s = int_0^ts
    e^{A(ts-s)} s ds from one exponential of a triple block matrix (Van
    Loan, IEEE TAC 1978), all robust to singular A.  A held input f adds
    W0 f to the state; an input ramping from f0 to f1 adds
    (W0 - W1s/ts) f0 + (W1s/ts) f1.  ``a`` may be a stack (..., n, n);
    each slice gets its own exponential.
    """
    if ts <= 0:
        raise ToolkitError(f"sample period must be positive, got {ts}")
    nx = a.shape[-1]
    eye = np.eye(nx)
    m = np.zeros(a.shape[:-2] + (3 * nx, 3 * nx))
    m[..., :nx, :nx] = a * ts
    m[..., :nx, nx:2 * nx] = eye * ts
    m[..., nx:2 * nx, 2 * nx:] = eye * ts
    phi = expm(m)
    return (phi[..., :nx, :nx], phi[..., :nx, nx:2 * nx],
            phi[..., :nx, 2 * nx:])


def discretize_zoh(cont, ts):
    """Exact discretization (``van_loan``): the zero-order-hold matrices
    plus the first-order-hold ramp matrix of the deterministic input path
    (``bd_ramp``).  The disturbance path is zero-order hold, matching how
    the disturbance is realized.
    """
    ad, w0, w1s = van_loan(cont.a, ts)
    return GreyBoxDiscrete(
        ad=ad,
        bd=w0 @ cont.b,
        cd=cont.c.copy(),
        dd=cont.d.copy(),
        gd=w0 @ cont.g,
        bd_ramp=(w1s / ts) @ cont.b,
    )


def _t(m):
    return m.swapaxes(-1, -2)


def _sq(m):
    """Squared Frobenius norm of each matrix of a stack."""
    flat = m.reshape(m.shape[:-2] + (m.shape[-2] * m.shape[-1],))
    return np.vecdot(flat, flat)


def _solve_each(m, rhs):
    """``np.linalg.solve`` over a stack; a singular slice gets NaN instead
    of failing the whole stack."""
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for i in range(len(m)):
            try:
                out[i] = np.linalg.solve(m[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return out


# Relative step at which the doubling iteration stops, and its step cap.
DARE_TOL = 1e-12
DARE_MAX_ITER = 120


def riccati_predictors(disc, noise):
    """Steady-state Kalman gains of a stack of discrete models.

    Returns ``(pred, failures)``: ``pred`` stacks the gains and
    ``failures`` holds, per candidate, None or the typed error it failed
    with (its slice of ``pred`` is then meaningless).  The disturbance and
    the input measurement noise enter as one stacked [Gd, Bd] / [0, Dd]
    channel (the disturbance has no feedthrough); their cross covariance is
    absorbed into the transformed filter Riccati equation, which the
    structure-preserving doubling iteration solves.
    Each doubling step is one solve with I + G H (G and H are symmetric,
    so (I + H G)^-1 H = H (I + G H)^-1), and a slice stops iterating once
    it has converged.
    """
    ad, cd = disc.ad, disc.cd
    k, nx = ad.shape[0], ad.shape[-1]
    failures = [None] * k
    wcov = np.diag([noise.q, *noise.input_variance])
    gb = np.concatenate([disc.gd, disc.bd], axis=-1)
    hb = np.concatenate([np.zeros(disc.dd.shape[:-1] + (1,)), disc.dd],
                        axis=-1)
    gw = gb @ wcov
    nbar = gw @ _t(hb)
    rbar = noise.rm * np.eye(cd.shape[-2]) + hb @ wcov @ _t(hb)
    qbar = gw @ _t(gb)

    with np.errstate(all="ignore"):
        lam = np.abs(np.linalg.eigvalsh(rbar))
        singular = ~(lam[:, 0] > 1e-14 * lam[:, -1])
        idx = np.flatnonzero(~singular)
        for i in np.flatnonzero(singular):
            failures[i] = RiccatiError("effective measurement covariance is "
                                       "singular; raise the Rm floor")
        rbar_inv = np.linalg.inv(np.where(singular[:, None, None],
                                          np.eye(rbar.shape[-1]), rbar))
        nr = nbar @ rbar_inv
        a = _t(ad - nr @ cd)[idx]
        g = (_t(cd) @ rbar_inv @ cd)[idx]
        h = (qbar - nr @ _t(nbar))[idx]
        h_done = np.full((k, nx, nx), np.nan)
        eye = np.eye(nx)
        for _ in range(DARE_MAX_ITER):
            if not idx.size:
                break
            xy = _solve_each(eye + g @ h,
                             np.concatenate([a, g @ _t(a)], axis=-1))
            change = _t(a) @ (h @ xy[..., :nx])
            step = _sq(change)
            h = h + change
            axy = a @ xy
            a, g = axy[..., :nx], g + axy[..., nx:]
            stop = ~(step > DARE_TOL * DARE_TOL * np.maximum(1.0, _sq(h)))
            if stop.any():
                for i in idx[stop & ~np.isfinite(step)]:
                    failures[i] = RiccatiError("doubling iteration broke down")
                h_done[idx[stop]] = h[stop]
                idx, a, g, h = idx[~stop], a[~stop], g[~stop], h[~stop]
        for i in idx:
            failures[i] = RiccatiError(
                f"Riccati iteration did not converge in {DARE_MAX_ITER} steps")

        p = 0.5 * (h_done + _t(h_done))
        s = cd @ p @ _t(cd) + rbar
        cross = ad @ p @ _t(cd) + nbar
        kd = _t(_solve_each(_t(s), _t(cross)))
        residual = np.sqrt(_sq(p - (ad @ p @ _t(ad) - kd @ _t(cross) + qbar)))
        ad_k = ad - kd @ cd
        good = residual <= 1e-9
        rho = np.full(k, np.inf)
        p_min = np.zeros(k)
        if good.any():
            rho[good] = np.abs(np.linalg.eigvals(ad_k[good])).max(axis=-1)
            p_min[good] = np.linalg.eigvalsh(p[good])[:, 0]
    for i in range(k):
        if failures[i] is not None:
            continue
        if not good[i]:
            failures[i] = RiccatiError(
                "Riccati iteration did not converge "
                f"(residual {residual[i]:.3e})")
        elif rho[i] >= 1.0:
            failures[i] = UnstablePredictorError(
                f"predictor spectral radius {rho[i]:.6f} is not stable")
        elif p_min[i] < -1e-10 * max(1.0, math.sqrt(_sq(p[i]))):
            failures[i] = RiccatiError(
                "Riccati solution is not positive semidefinite")
    pred = InnovationPredictor(kd=kd, p=p, residual=residual,
                               innovation_cov=s)
    return pred, failures


def solve_dare(disc, noise):
    """Stabilizing solution of the steady-state Riccati equation of one
    discrete model and its Kalman predictor: ``riccati_predictors`` on a
    stack of one.  Raises the candidate's typed error."""
    pred, failures = riccati_predictors(_take(disc, np.newaxis), noise)
    if failures[0] is not None:
        raise failures[0]
    pred = _take(pred, 0)
    return replace(pred, residual=float(pred.residual))


# Samples per block of ``propagate``: long enough that the per-block Python
# step is amortized, short enough that the block-Toeplitz matmul stays cheap.
BLOCK = 32


def lti_operator(a, b, c, d, blk):
    """Maps of x_{k+1} = A x_k + B w_k, y_k = C x_k + D w_k over ``blk``
    samples.

    The stacked outputs of a block are ``toeplitz @ w + free @ x_0`` for the
    stacked inputs ``w``: ``toeplitz`` is block lower triangular in the
    Markov parameters D, CB, CAB, ... and ``free`` stacks C A^i.  The state
    after the block is ``a_blk @ x_0 + reach @ w``.  The leading m blocks of
    ``toeplitz`` and ``free`` are the maps over m < blk samples.  The
    matrices may carry broadcasting leading axes (a stack of systems).
    """
    nx, nw, ny = a.shape[-1], b.shape[-1], c.shape[-2]
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2], c.shape[:-2],
                               d.shape[:-2])
    # A^0 .. A^L by doubling.
    powers = np.empty(a.shape[:-2] + (blk + 1, nx, nx))
    powers[..., 0, :, :] = np.eye(nx)
    done = 1
    while done <= blk:
        step = min(done, blk + 1 - done)
        powers[..., done:done + step, :, :] = (
            powers[..., :step, :, :]
            @ (powers[..., done - 1, :, :] @ a)[..., None, :, :])
        done += step
    obs = c[..., None, :, :] @ powers[..., :blk, :, :]  # C A^i, (L, ny, nx)
    # [0 .. 0, D, CB, CAB, ...]: block (i, j) of the Toeplitz matrix is
    # entry blk - 1 + i - j, read through a strided view.
    seq = np.zeros(lead + (2 * blk - 1, ny, nw))
    seq[..., blk - 1, :, :] = d
    seq[..., blk:, :, :] = obs[..., :-1, :, :] @ b[..., None, :, :]
    st = seq.strides
    toeplitz = np.ndarray(
        lead + (blk, ny, blk, nw), buffer=seq, offset=(blk - 1) * st[-3],
        strides=st[:-3] + (st[-3], st[-2], -st[-3], st[-1]),
    ).reshape(lead + (blk * ny, blk * nw))
    reach = np.moveaxis(powers[..., blk - 1::-1, :, :] @ b[..., None, :, :],
                        -3, -2)
    return (toeplitz, obs.reshape(obs.shape[:-3] + (blk * ny, nx)),
            reach.reshape(reach.shape[:-3] + (nx, blk * nw)),
            powers[..., blk, :, :])


def propagate(a, b, c, d, w):
    """Zero-state response of a discrete LTI system: ``propagate_from`` from
    x_0 = 0 over blocks of ``BLOCK`` samples (fewer for a shorter record)."""
    w = np.asarray(w, dtype=float)
    op = lti_operator(a, b, c, d, max(1, min(BLOCK, w.shape[-2])))
    return propagate_from(op, np.zeros(a.shape[-1]), w)


def propagate_from(op, x0, w):
    """Response of a discrete LTI system from the state ``x0``.

    Returns the (N, ny) record y_k = C x_k + D w_k of x_{k+1} = A x_k + B w_k
    driven by the (N, nw) record ``w``, where ``op`` is the system's
    ``lti_operator`` over blocks of L samples.  Inside a block the forced
    response is one matmul with the block-Toeplitz matrix; the block-start
    states s_j follow s_{j+1} = A^L s_j + (reachability matrix) w_j from
    s_0 = x0 in a loop of N/L steps, and their free response C A^i s_j is
    one more matmul.  A record shorter than a block reads the leading
    slices of the maps.  ``op``, ``x0`` and ``w`` may carry broadcasting
    leading axes (a stack of systems gives a stack of records), and the
    loop steps all of them.
    """
    toeplitz, free, reach, a_blk = op
    n, nw = w.shape[-2:]
    blk = toeplitz.shape[-1] // nw
    ny = free.shape[-2] // blk
    if n < blk:
        out = (toeplitz[..., :n * ny, :n * nw]
               @ w.reshape(w.shape[:-2] + (n * nw, 1))
               + free[..., :n * ny, :] @ x0[..., None])
        return out.reshape(out.shape[:-2] + (n, ny))
    nb = -(-n // blk)
    wb = np.zeros(w.shape[:-2] + (nb, blk * nw))
    wb.reshape(w.shape[:-2] + (nb * blk, nw))[..., :n, :] = w
    out = wb @ _t(toeplitz)
    # Block index first, so that each step of the loop reads one slab.
    drive = np.moveaxis(wb @ _t(reach), -2, 0)[..., None]
    nx = x0.shape[-1]
    starts = np.empty(drive.shape[:1] + np.broadcast_shapes(
        drive.shape[1:-2], a_blk.shape[:-2], x0.shape[:-1]) + (nx, 1))
    starts[0] = x0[..., None]
    for j in range(nb - 1):
        starts[j + 1] = a_blk @ starts[j] + drive[j]
    out = out + np.moveaxis(starts[..., 0], 0, -2) @ _t(free)
    return out.reshape(out.shape[:-2] + (nb * blk, ny))[..., :n, :]


def predict(kd, disc, u, y):
    """One-step-ahead predictions and innovations of the discrete model
    ``disc`` with the gain ``kd``, from zero initial state.

    ``u`` and ``y`` are (N, 2) arrays of input and output deltas.  The
    predictor is one ``propagate`` call on A - K C with B - K D on u, K on
    y and the ramp matrix on the input increment u(k+1) - u(k) (zero on the
    last sample).  A zero gain gives the pure simulation of the model.  A
    stacked model and gain give stacked predictions and innovations of the
    one record.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    du = np.zeros_like(u)
    du[:-1] = np.diff(u, axis=0)
    b = np.concatenate([disc.bd - kd @ disc.dd, kd, disc.bd_ramp], axis=-1)
    d = np.zeros(disc.dd.shape[:-1] + (b.shape[-1],))
    d[..., :u.shape[1]] = disc.dd
    yhat = propagate(disc.ad - kd @ disc.cd, b, disc.cd, d,
                     np.hstack([u, y, du]))
    return yhat, y - yhat


def loss(innovations):
    """Mean squared two-norm of the per-sample innovations (one value per
    record of a stack)."""
    eps = np.asarray(innovations, dtype=float)
    if eps.size == 0:
        raise ToolkitError("empty innovation sequence")
    out = np.mean(np.sum(eps**2, axis=-1), axis=-1)
    return float(out) if eps.ndim == 2 else out


def fit_percent(y, yhat):
    """Normalized fit per channel: 100 (1 - ||y - yhat|| / ||y - mean(y)||)."""
    y = np.asarray(y, float)
    yhat = np.asarray(yhat, float)
    out = []
    for j in range(y.shape[1]):
        den = np.linalg.norm(y[:, j] - y[:, j].mean())
        out.append(100.0 * (1.0 - np.linalg.norm(y[:, j] - yhat[:, j]) / den))
    return np.array(out)


def _series_arrays(series):
    """Input and output deltas, (N, 2) each, of a detrended record and the
    operating point (V0, theta0) that its means give the model."""
    if not getattr(series, "detrended", False):
        raise ToolkitError("identification requires a detrended series")
    u = np.column_stack([series.delta("v"), series.delta("theta")])
    y = np.column_stack([series.delta("p"), series.delta("q")])
    return u, y, {"V0": float(series.means[0]),
                  "theta0": float(series.means[1])}


def gaussian_criterion(eps, s):
    """Innovation-form Gaussian negative log-likelihood rate (constants
    dropped) of innovations ``eps`` (..., N, ny) under the model-implied
    innovation covariance ``s``: trace(S^-1 E'E)/N + log det S, the mean of
    eps' S^-1 eps plus log det S.  The log-det term charges a model for
    claiming a larger innovation floor than its predictions achieve, which
    pins the noise-path parameters that the plain quadratic loss leaves
    free.  Returns the criterion and the sign of det S (not positive: S is
    not positive definite and the criterion is meaningless)."""
    sign, logdet = np.linalg.slogdet(s)
    quad = np.trace(_solve_each(s, _t(eps) @ eps), axis1=-2, axis2=-1)
    return quad / eps.shape[-2] + logdet, sign


def evaluate_candidates(params_list, noise, u, y, ts, burn_in,
                        output_error=False):
    """Assemble, discretize, solve the gain and run the predictor for a
    list of candidates as one stacked chain.

    Returns one entry per candidate: either (criterion, quadratic loss,
    predictions, innovations, innovation covariance S; None for the
    output-error baseline) or the typed error the candidate failed with
    (``UnstablePredictorError``, ``RiccatiError``, ``ToolkitError`` for a
    non-finite continuous model).  The criterion is the Gaussian likelihood
    rate for the innovation predictor and the plain quadratic loss for the
    output-error baseline, which has no stochastic model.  A candidate
    whose predictions overflow gets a non-finite criterion, without a
    floating-point warning.  A ``CaseValidationError`` in ``params_list``
    (a candidate that is no valid ``LoadParameters``) is its own result.
    """
    out = [None] * len(params_list)
    conts, index = [], []
    for i, params in enumerate(params_list):
        if isinstance(params, CaseValidationError):
            out[i] = params
            continue
        try:
            conts.append(assemble_continuous(params, noise))
            index.append(i)
        except ToolkitError as exc:
            out[i] = exc
    if not conts:
        return out
    cont = GreyBoxContinuous(**{name: np.array([vars(c)[name] for c in conts])
                                for name in vars(conts[0])})
    disc = discretize_zoh(cont, ts)
    if output_error:
        kd, s, ok = np.zeros(_t(disc.cd).shape), None, np.arange(len(conts))
    else:
        pred, failures = riccati_predictors(disc, noise)
        for i, exc in zip(index, failures):
            out[i] = exc
        ok = np.array([j for j, exc in enumerate(failures) if exc is None],
                      dtype=int)
        if not ok.size:
            return out
        kd, s = pred.kd, pred.innovation_cov
        if ok.size < len(conts):
            disc, kd, s = _take(disc, ok), kd[ok], s[ok]
    with np.errstate(over="ignore", invalid="ignore"):
        yhat, eps = predict(kd, disc, u, y)
        quad = loss(eps[:, burn_in:])
        if output_error:
            crit, sign = quad, np.ones_like(quad)
        else:
            crit, sign = gaussian_criterion(eps[:, burn_in:], s)
    for j, i in enumerate(ok):
        out[index[i]] = (
            (float(crit[j]), float(quad[j]), yhat[j], eps[j],
             None if s is None else s[j])
            if sign[j] > 0 else
            RiccatiError("innovation covariance is not positive definite"))
    return out


def evaluate_candidate(params, noise, u, y, ts, burn_in, output_error=False):
    """``evaluate_candidates`` for one candidate; raises its typed error."""
    result, = evaluate_candidates([params], noise, u, y, ts, burn_in,
                                  output_error=output_error)
    if isinstance(result, Exception):
        raise result
    return result


def _penalty_cause(result):
    """Why an ``evaluate_candidates`` result has no usable criterion (a
    ``PENALTY_CAUSES`` name), or None if it has one."""
    if isinstance(result, CaseValidationError):
        return "invalid_parameters"
    if isinstance(result, UnstablePredictorError):
        return "unstable_predictor"
    if isinstance(result, RiccatiError):
        return "riccati"
    if isinstance(result, Exception) or not np.isfinite(result[0]):
        return "non_finite"
    return None


def _scaled_box(init):
    """Scale and search box ``(scale, lo, hi)`` of the free parameters.
    Each parameter is divided by its initial value, so the start is all
    ones and the box positive: a decade either way of the start, and the
    slip within [1e-4, 0.5]."""
    p0 = np.array([getattr(init, name) for name in FREE])
    slip = np.array([name == "s0" for name in FREE])
    return (p0, np.where(slip, 1e-4 / p0, (p0 / 10.0) / p0),
            np.where(slip, 0.5 / p0, (p0 * 10.0) / p0))


# Forward-difference step of the Jacobian, in the scaled parameters (each
# free parameter divided by its initial value, so the start is all ones).
FD_STEP = 1e-6
# The k trial steps of an iteration take these multiples of the damping
# lam: DAMPING_START on a start's first iteration, then the damping of the
# last accepted trial, kept above DAMPING_MIN so that H + lam diag H stays
# regular.
DAMPING_LADDER = 10.0 ** np.arange(-2.0, 2.0)
DAMPING_START = 0.1
DAMPING_MIN = 1e-10
# Stopping rule of a start: a relative decrease of the criterion or a
# largest scaled step below these, or no decrease above MAX_DAMPING.
FTOL = 1e-10
XTOL = 1e-10
MAX_DAMPING = 1e10


def _scoring(here, diffs, d):
    """Gradient g and Fisher-scoring Hessian H of the criterion, with the
    Jacobian J of the innovations whitened by the point's own innovation
    covariance S and divided by sqrt(N), and dS.  ``here`` = (criterion,
    innovations, S) is the evaluation of a point and ``diffs`` those of its
    difference points at steps ``d`` (one per parameter).  g follows by the
    chain rule, and H = 2 J'J + [tr(S^-1 dS_i S^-1 dS_j)] is twice the
    Fisher information.  S is None for the output-error criterion, the
    plain mean squared innovation: J is then unwhitened, dS is None and H
    is the exact Gauss-Newton Hessian."""
    _, e0, s0 = here
    n = math.sqrt(e0.shape[0])
    white = np.eye(e0.shape[-1]) if s0 is None else np.linalg.inv(
        np.linalg.cholesky(s0))
    jac = ((np.array([r[1] for r in diffs]) - e0) @ white.T).reshape(
        len(d), -1).T / (d * n)
    g = 2.0 * jac.T @ (e0 @ white.T).ravel() / n
    h = 2.0 * jac.T @ jac
    ds = None
    if s0 is not None:
        ds = (np.array([r[2] for r in diffs]) - s0) / d[:, None, None]
        m = np.linalg.solve(s0, ds)
        c = np.linalg.solve(s0, e0.T @ e0) / e0.shape[0]
        g += np.trace(m, axis1=-2, axis2=-1) - np.einsum("iab,ba->i", m, c)
        h += np.einsum("iab,jba->ij", m, m)
    return g, h, jac, ds


def _levenberg_marquardt(score, x, lo, hi, maxiter):
    """Bounded Levenberg-Marquardt search on the Fisher-scoring Hessian
    (Ljung, System Identification, 2nd ed., sec. 10.2; More, LNM 630).

    ``score(xs)`` evaluates a list of scaled parameter vectors as one
    stacked chain and returns, per vector, (criterion, innovations, S) or
    the name of its penalty cause.  Each iteration scores the point's
    forward-difference points (a point on its upper bound steps backwards;
    a penalised point is retried on the other side in one more chain, and
    a coordinate penalised on both sides is held) and then ``k`` damped
    steps -(H + lam diag H)^-1 g (``_scoring``), one per damping of
    ``DAMPING_LADDER``, clipped into the box.  The steps solve only over
    the coordinates not held at a bound by the gradient, and the lowest
    trial below the point's criterion is taken; if there is none, the same
    point tries the next ``k`` dampings above.

    Returns the start's report: ``status`` (the stopping rule, or why the
    start point has no criterion), ``converged`` (stopped on the relative
    decrease or the step), ``nit`` (trial rounds), ``chains`` (``score``
    calls), ``rejected`` (rounds without a decrease) and ``trace`` (the
    criterion at the start point and at each accepted iterate).
    """
    report = {"nit": 0, "chains": 0, "rejected": 0, "trace": [],
              "converged": False}

    def chain(xs):
        report["chains"] += 1
        return score(xs)

    here, lam = None, DAMPING_START
    while True:
        sign = np.where(x + FD_STEP <= hi, 1.0, -1.0)
        diffs = chain([x] * (here is None) + list(x + np.diag(FD_STEP * sign)))
        if here is None:
            here = diffs.pop(0)
            if isinstance(here, str):
                return dict(report, status=f"start point penalised ({here})")
            report["trace"].append(here[0])
        redo = [j for j, r in enumerate(diffs) if isinstance(r, str)]
        if redo:
            sign[redo] *= -1.0
            back = np.diag(FD_STEP * sign)[redo]
            for j, r in zip(redo, chain(list(x + back))):
                diffs[j] = r
        usable = np.array([not isinstance(r, str) for r in diffs])
        g = np.zeros(len(x))
        h = np.zeros((len(x), len(x)))
        if usable.any():
            g[usable], h[np.ix_(usable, usable)], _, _ = _scoring(
                here, [r for r in diffs if not isinstance(r, str)],
                FD_STEP * sign[usable])
        free = ((np.diag(h) > 0) & ~((x <= lo) & (g > 0))
                & ~((x >= hi) & (g < 0)))
        hf = h[np.ix_(free, free)]
        while True:
            if report["nit"] >= maxiter:
                return dict(report, status="iteration limit")
            lams = lam * DAMPING_LADDER
            steps = np.zeros((len(lams), len(x)))
            steps[:, free] = -np.linalg.solve(
                hf + lams[:, None, None] * np.diag(np.diag(hf)), g[free])
            trials = np.clip(x + steps, lo, hi)
            moves = np.abs(trials - x).max(axis=1)
            if moves.max() < XTOL:
                return dict(report, converged=True,
                            status=f"largest scaled step < {XTOL:g}")
            results = chain(list(trials))
            report["nit"] += 1
            crit = [np.inf if isinstance(r, str) else r[0] for r in results]
            i = int(np.argmin(crit))
            if crit[i] < here[0]:
                break
            report["rejected"] += 1
            if lams[-1] > MAX_DAMPING:
                return dict(report, status="no decrease at damping "
                            f"> {MAX_DAMPING:g}")
            lam = 10.0 * lams[-1] / DAMPING_LADDER[0]
        decrease = here[0] - crit[i]
        tol = FTOL * max(abs(here[0]), np.finfo(float).tiny)
        x, here, lam = trials[i], results[i], max(lams[i], DAMPING_MIN)
        report["trace"].append(here[0])
        if decrease <= tol:
            return dict(report, converged=True,
                        status=f"relative decrease <= {FTOL:g}")
        if moves[i] < XTOL:
            return dict(report, converged=True,
                        status=f"largest scaled step < {XTOL:g}")


def identify(series, init, noise=None, n_restarts=2, burn_in=50, seed=0,
             maxiter=300, method="pem-a"):
    """Prediction-error estimate of the motor constants ``FREE``, with the
    EMF pair tied to them.

    Each start runs ``_levenberg_marquardt`` in the scaled parameters,
    bounded by ``_scaled_box``.  Each candidate re-runs the full assemble
    / discretize / gain / predict chain, and the candidates of one search
    step (the difference points of a Jacobian, the damped trial steps) run
    through it as one stack (``evaluate_candidates``).  Every candidate is
    scored once: ``meta["n_eval"]`` counts them and ``meta["penalties"]``
    those without a usable criterion by cause (``PENALTY_CAUSES``), each a
    rejected step.  The estimate is the best-scoring candidate that any
    start evaluated, sometimes a difference point rather than the last
    iterate, and the result is built from that candidate's evaluation.
    ``initial_loss`` is the criterion at the first start clipped into the
    box (inf if that point has none).  ``converged`` and ``trace`` are the
    chosen start's.  With ``method="tm"`` the gain is forced to zero: the
    output-error baseline.
    """
    u, y, operating_point = _series_arrays(series)
    ts = series.ts
    init = replace(init, **operating_point)
    noise = noise if noise is not None else NoiseConfig()
    output_error = method == "tm"

    scale, lo, hi = _scaled_box(init)

    n_eval = 0
    penalties = dict.fromkeys(PENALTY_CAUSES, 0)
    # Per start: (criterion, x, params, quadratic loss, predictions) of its
    # best candidate, or None.
    best = []

    def score(xs):
        """(criterion, innovations after the burn-in, S) of each candidate
        in ``xs``, scored as one stack, in list order; a candidate without
        a usable criterion gives its penalty cause instead."""
        nonlocal n_eval
        params = []
        for x in xs:
            try:
                params.append(replace(init, **dict(zip(FREE, x * scale))))
            except CaseValidationError as exc:
                params.append(exc)
        results = evaluate_candidates(params, noise, u, y, ts, burn_in,
                                      output_error=output_error)
        out = []
        for x, p, result in zip(xs, params, results):
            cause = _penalty_cause(result)
            if cause is not None:
                penalties[cause] += 1
                out.append(cause)
                continue
            crit, quad, yhat, eps, s = result
            if best[-1] is None or crit < best[-1][0]:
                # A copy: a view would pin the whole candidate stack.
                best[-1] = (crit, x, p, quad, yhat.copy())
            out.append((crit, eps[burn_in:], s))
        n_eval += len(xs)
        return out

    rng = np.random.default_rng(seed)
    starts = [np.ones(len(FREE))]
    for _ in range(max(0, n_restarts - 1)):
        draw = np.empty(len(FREE))
        for j, (lo_s, hi_s) in enumerate(zip(lo, hi)):
            draw[j] = math.exp(rng.uniform(math.log(lo_s), math.log(hi_s)))
        starts.append(draw)

    chosen, reports = None, []
    for i, x0 in enumerate(starts):
        best.append(None)
        report = _levenberg_marquardt(score, np.clip(x0, lo, hi), lo, hi,
                                      maxiter)
        ok = best[i] is not None
        reports.append(dict(report, start=i, ok=ok,
                            loss=best[i][0] if ok else None))
        if ok and (chosen is None or best[i][0] < best[chosen][0]):
            chosen = i

    if chosen is None:
        raise IdentificationError(
            "every identification start failed: " + "; ".join(
                f"start {r['start']} {r['status']}" for r in reports),
            diagnostics=reports)

    crit, x_best, p_est, quad, yhat = best[chosen]
    at_bound = [
        name
        for name, xv, lo_s, hi_s in zip(FREE, x_best, lo, hi)
        if xv - lo_s < 1e-6 * (hi_s - lo_s) or hi_s - xv < 1e-6 * (hi_s - lo_s)
    ]
    fit = {ch: float(v) for ch, v
           in zip(("p", "q"), fit_percent(y[burn_in:], yhat[burn_in:]))}
    return IdentResult(
        params=p_est,
        loss=crit,
        initial_loss=(reports[0]["trace"] or [math.inf])[0],
        quad_loss=quad,
        trace=reports[chosen]["trace"],
        fit=fit,
        converged=reports[chosen]["converged"],
        at_bound=at_bound,
        starts=reports,
        predictions=yhat,
        meta={
            "n_eval": n_eval,
            "penalties": penalties,
            "chosen_start": chosen,
        },
    )


def identify_output_error(series, init, **kwargs):
    """Output-error baseline: ``identify`` with the gain forced to zero."""
    return identify(series, init, method="tm", **kwargs)
