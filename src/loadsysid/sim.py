"""Nonlinear time-domain simulation of the closed-loop system and its
exact linearization.

The generators away from the slack bus keep classical second-order dynamics
(constant EMF magnitude behind the transient reactance); the slack machine
is held as an infinite bus, which pins the angle reference and makes every
mode of the bundled case strictly stable.  The motor contributes the three
states of the third-order load model.  The network is algebraic and, with
motor and generator reactances folded into the admittance matrix, linear in
the bus voltages.  The dynamics read only the voltages at the dynamic
generators and the motor, so the network is reduced once per equilibrium to
the rows of its inverse at those buses (a Kron reduction); each
right-hand-side evaluation and the linearization then take the voltages
from that map with a few vector operations.  The right-hand side takes one
state or a stack of them, and the simulator solves the integration steps
of a window of substeps together, so that one stacked evaluation serves a
whole window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from loadsysid.constants import OMEGA_S
from loadsysid.errors import EquilibriumError, SimulationError, ToolkitError
from loadsysid.greybox import (BLOCK, lti_operator, propagate,
                               propagate_from, van_loan)
from loadsysid.motor import (
    LoadParameters,
    motor_pq,
    solve_slip_for_power,
)
from loadsysid.network import build_admittance
from loadsysid.series import MeasurementSeries


@dataclass(frozen=True)
class NoiseWindow:
    """White disturbance active on [start, end), variance at the sample grid.

    Values are drawn once per hold interval and held constant over it; the
    hold interval defaults to the integration substep.  Pinning ``hold_dt``
    freezes the disturbance as a function of time across integrator
    settings.  A non-None ``value`` replaces the random draw with that
    constant over the window (deterministic pulses for tests).
    """

    variance: float
    start: float
    end: float
    seed: int = 0
    hold_dt: float | None = None
    value: float | None = None


@dataclass(frozen=True)
class ExternalNoise(NoiseWindow):
    """Random current injection at a bus, along a fixed direction."""

    bus: int = 0
    direction_deg: float = 0.0


@dataclass(frozen=True)
class Scenario:
    """Simulation run description.  ``measurement_variance`` holds the
    variances of the white noise added to the sampled (v, theta, p, q)
    channels of the record; the default leaves the records noise-free."""

    duration: float
    dt_integration: float = 0.0005
    dt_sample: float = 0.01
    internal: NoiseWindow | None = None
    external: ExternalNoise | None = None
    measurement_variance: tuple = (0.0, 0.0, 0.0, 0.0)
    measurement_seed: int = 0

    def __post_init__(self):
        ratio = self.dt_sample / self.dt_integration
        if abs(ratio - round(ratio)) > 1e-9:
            raise ToolkitError(
                "dt_sample must be an integer multiple of dt_integration"
            )
        if (np.shape(self.measurement_variance) != (4,)
                or min(self.measurement_variance) < 0):
            raise ToolkitError(
                "measurement variance must be four non-negative values")
        for noise in (self.internal, self.external):
            if noise is None:
                continue
            if noise.variance < 0:
                raise ToolkitError("noise variance must be non-negative")
            if not (0.0 <= noise.start <= noise.end <= self.duration + 1e-12):
                raise ToolkitError("noise window must lie within [0, duration]")
            hold = noise.hold_dt if noise.hold_dt is not None else self.dt_integration
            per = hold / self.dt_integration
            if abs(per - round(per)) > 1e-9 or hold < self.dt_integration - 1e-12:
                raise ToolkitError(
                    "noise hold_dt must be an integer multiple of dt_integration")

    @property
    def substeps_per_sample(self):
        return int(round(self.dt_sample / self.dt_integration))


@dataclass(frozen=True)
class ReducedNetwork:
    """The network as the dynamics read it: the rows of ``y_dyn``'s inverse
    at the read buses (the dynamic generators in case order, then the
    motor), split by the sources that drive them, plus the dynamic
    generators' constants as arrays.

    The read-bus voltages are ``v_slack + z_gen @ exp(j delta) + z_mot * E'
    + z[:, k] * xi`` for a current ``xi`` injected at bus index ``k``; a
    dynamic generator's electrical power is ``k_pe * Im(exp(j delta) v*)``
    at its bus voltage ``v``.  The inverse of ``z``'s block at the read
    buses is the network's Kron reduction onto them, which the frequency
    domain uses.
    """

    z: np.ndarray                     # complex (n_read, n): rows of y_dyn^-1
    v_slack: np.ndarray               # complex (n_read,): slack EMF's part
    z_gen: np.ndarray                 # complex (n_read, n_gen): per e^{j delta}
    z_mot: np.ndarray                 # complex (n_read,): per motor EMF phasor
    k_pe: np.ndarray                  # EMF magnitude over transient reactance
    tj: np.ndarray
    damping: np.ndarray
    pm: np.ndarray                    # mechanical powers


@dataclass
class SystemEquilibrium:
    """Operating point of the full dynamic model.

    Holds everything the simulator, the linearizer and the frequency-domain
    reduction need: the network reduced to the buses the dynamics read
    (``net``), the full dynamic admittance matrix it was reduced from
    (loads, machine reactances and the static remainder at the motor bus
    folded in), generator EMFs, the motor state and the balancing torque.
    """

    case: object
    params: LoadParameters            # motor parameters at the operating point
    motor_bus: int
    gen_emag: dict                    # bus id -> EMF magnitude
    gen_delta: dict                   # bus id -> rotor angle, rad
    dyn_gen_buses: list               # non-slack generator bus ids, case order
    slack_gen_bus: int
    tm: float                         # motor mechanical torque
    exy0: complex                     # motor EMF phasor at equilibrium
    remainder_shunt: complex          # static part folded at the motor bus
    y_dyn: np.ndarray                 # complex (n, n)
    v_eq: np.ndarray                  # complex bus voltages at equilibrium
    net: ReducedNetwork
    deriv_norm: float = 0.0

    @property
    def n_states(self):
        return 2 * len(self.dyn_gen_buses) + 3

    def state_labels(self):
        labels = []
        for bus in self.dyn_gen_buses:
            labels += [f"delta_g{bus}", f"omega_g{bus}"]
        labels += ["emf_x", "emf_y", "slip"]
        return labels

    def equilibrium_state(self):
        z = []
        for bus in self.dyn_gen_buses:
            z += [self.gen_delta[bus], 0.0]
        z += [self.exy0.real, self.exy0.imag, self.params.s0]
        return np.array(z)


def init_equilibrium(case, pf, motor_spec):
    """Construct the exact equilibrium of the dynamic model.

    When ``motor_spec`` carries a slip, the motor runs at that slip and the
    static remainder at its bus absorbs the difference to the scheduled
    power; otherwise the slip is solved so the motor carries the full
    scheduled active power.  Either way the mechanical torques are balanced
    against the self-consistently solved network voltages, so the state
    derivatives vanish to machine precision.
    """
    idx = case.bus_index()
    motors = case.motor_loads()
    if len(motors) != 1:
        raise EquilibriumError(f"expected exactly one motor load, found {len(motors)}")
    motor = motors[0]
    m = idx[motor.bus]
    if motor.p <= 0.0:
        raise EquilibriumError("motor bus has no scheduled active power to carry")

    v_pf = pf.v_complex()
    v6 = v_pf[m]
    X, Xp, Td0p = motor_spec.X, motor_spec.Xp, motor_spec.Td0p
    s0 = getattr(motor_spec, "s0", None)
    if s0 is None:
        s0 = solve_slip_for_power(X, Xp, Td0p, motor.p, v6)
    p_m, q_m = motor_pq(X, Xp, Td0p, s0, v6)

    # Static remainder keeps the power-flow bus power consistent with the
    # motor share; it becomes a constant shunt like every other static load.
    p_rem = motor.p - p_m
    q_rem = motor.q - q_m
    y_rem = (p_rem - 1j * q_rem) / abs(v6) ** 2

    # Dynamic admittance matrix: branch network + folded static loads +
    # machine transient reactances + the remainder shunt.
    y = build_admittance(case, pf)
    y[m, m] += y_rem
    for g in case.generators:
        y[idx[g.bus], idx[g.bus]] += 1.0 / (1j * g.xdp)
    y[m, m] += 1.0 / (1j * Xp)

    # Generator internal EMFs from the power-flow currents.
    gen_emag, gen_delta = {}, {}
    for g in case.generators:
        k = idx[g.bus]
        s_g = pf.p_inj[k] + 1j * pf.q_inj[k]
        i_g = np.conj(s_g / v_pf[k])
        e_ph = v_pf[k] + 1j * g.xdp * i_g
        gen_emag[g.bus] = abs(e_ph)
        gen_delta[g.bus] = float(np.angle(e_ph))

    # Exact equilibrium voltages: fold the motor EMF coupling E' = kap * V6
    # into the matrix and solve the remaining constant injections.
    kap = (X - Xp) / (X + 1j * s0 * OMEGA_S * Td0p * Xp)
    y_aug = y.copy()
    y_aug[m, m] -= kap / (1j * Xp)
    b = np.zeros(case.n, dtype=complex)
    for g in case.generators:
        k = idx[g.bus]
        b[k] += gen_emag[g.bus] * np.exp(1j * gen_delta[g.bus]) / (1j * g.xdp)
    try:
        v_eq = np.linalg.solve(y_aug, b)
    except np.linalg.LinAlgError as exc:
        raise EquilibriumError(f"degenerate network at equilibrium: {exc}") from exc

    v6_eq = v_eq[m]
    exy0 = kap * v6_eq
    tm = (exy0.real * v6_eq.imag - exy0.imag * v6_eq.real) / Xp

    # Kron reduction to the read buses: the rows of y^-1 there.
    slack_bus = case.slack_bus().id
    dyn = [g for g in case.generators if g.bus != slack_bus]
    read = [idx[g.bus] for g in dyn] + [m]
    try:
        z_read = np.linalg.inv(y)[read]
    except np.linalg.LinAlgError as exc:
        raise EquilibriumError(f"singular dynamic admittance matrix: {exc}") from exc
    g_sl = case.generator_at(slack_bus)
    e_sl = gen_emag[slack_bus] * np.exp(1j * gen_delta[slack_bus])
    xdp = np.array([g.xdp for g in dyn])
    e_gen = np.array([gen_emag[g.bus] for g in dyn])
    e_ph = e_gen * np.exp(1j * np.array([gen_delta[g.bus] for g in dyn]))
    i_g = (e_ph - v_eq[read[:-1]]) / (1j * xdp)
    net = ReducedNetwork(
        z=z_read,
        v_slack=z_read[:, idx[slack_bus]] * (e_sl / (1j * g_sl.xdp)),
        z_gen=z_read[:, read[:-1]] * (e_gen / (1j * xdp)),
        z_mot=z_read[:, m] / (1j * Xp),
        k_pe=e_gen / xdp,
        tj=np.array([g.tj for g in dyn]),
        damping=np.array([g.damping for g in dyn]),
        pm=(e_ph * i_g.conj()).real,
    )

    params = LoadParameters(
        X=X,
        Xp=Xp,
        Td0p=Td0p,
        Tj=motor_spec.Tj,
        s0=float(s0),
        Exp0=float(exy0.real),
        Eyp0=float(exy0.imag),
        Pz=0.0,
        Qz=0.0,
        V0=float(abs(v6_eq)),
        theta0=float(np.angle(v6_eq)),
    )

    eq = SystemEquilibrium(
        case=case,
        params=params,
        motor_bus=motor.bus,
        gen_emag=gen_emag,
        gen_delta=gen_delta,
        dyn_gen_buses=[g.bus for g in dyn],
        slack_gen_bus=slack_bus,
        tm=float(tm),
        exy0=exy0,
        remainder_shunt=complex(y_rem),
        y_dyn=y,
        v_eq=v_eq,
        net=net,
    )
    eq.deriv_norm = float(np.linalg.norm(_rhs(eq, eq.equilibrium_state(), 0.0, 0.0)[0]))
    if eq.deriv_norm > 1e-9:
        raise EquilibriumError(
            f"equilibrium residual {eq.deriv_norm:.3e} exceeds 1e-9"
        )
    return eq


def _rhs(eq, z, e_int=0.0, xi_ext=0.0, ext_index=None, ext_dir=1.0 + 0j):
    """State derivative and the read-bus voltages (dynamic generators in
    case order, motor last).

    ``z`` is one state ``(nx,)`` or a stack of states ``(n, nx)``; the
    disturbances are scalars or one value per state.  The derivative has
    the shape of ``z``, the voltages ``(n_read,)`` or ``(n, n_read)``.
    """
    net, p = eq.net, eq.params
    rot = np.exp(1j * z[..., :-3:2])
    w = z[..., 1:-3:2]
    exp_, eyp, s = z[..., -3], z[..., -2], z[..., -1]
    emf = exp_ + 1j * eyp
    v = net.v_slack + rot @ net.z_gen.T + np.multiply.outer(emf, net.z_mot)
    if ext_index is not None:
        v += np.multiply.outer(np.multiply(xi_ext, ext_dir),
                               net.z[:, ext_index])
    pe = net.k_pe * (rot * v[..., :-1].conj()).imag
    v6 = v[..., -1]
    te = (exp_ * v6.imag - eyp * v6.real) / p.Xp
    k_emf = 1.0 / (p.Xp * p.Td0p)
    dz = np.empty_like(z)
    dz[..., :-3:2] = OMEGA_S * w
    dz[..., 1:-3:2] = (net.pm - pe - net.damping * w) / net.tj
    dz[..., -3] = (k_emf * (-p.X * exp_ + (p.X - p.Xp) * v6.real)
                   + s * OMEGA_S * eyp)
    dz[..., -2] = (k_emf * (-p.X * eyp + (p.X - p.Xp) * v6.imag)
                   - s * OMEGA_S * exp_)
    dz[..., -1] = (eq.tm + e_int - te) / p.Tj
    return dz, v


@dataclass
class LinearModel:
    """Continuous state-space linearization of the full system."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    state_labels: list
    output_labels: list

    def output(self, name):
        return self.output_labels.index(name)

    def eigenvalues(self):
        return np.linalg.eigvals(self.a)


OUTPUT_LABELS = ["v", "theta", "p", "q", "vx", "vy", "ix", "iy"]


def linearize_system(case, eq, disturbance_bus=None, direction_deg=0.0):
    """Analytic linearization at the equilibrium.

    States follow ``eq.state_labels()``.  Inputs are the motor torque noise
    and, when a disturbance bus is given, the external current injection.  Outputs are the motor-bus quantities
    (v, theta, p, q) plus the rectangular voltage and current deltas.

    Every state derivative and output depends on a read-bus voltage ``v``
    as ``Re(w v)`` for a complex weight ``w``, so its voltage part is
    ``Re(w dv/dz)`` with ``dv/dz`` taken from the reduced network.
    """
    net, p = eq.net, eq.params
    nx = eq.n_states
    ng = len(eq.dyn_gen_buses)
    rx, ry, rs = nx - 3, nx - 2, nx - 1

    z0 = eq.equilibrium_state()
    _, v0 = _rhs(eq, z0)
    rot = np.exp(1j * z0[:-3:2])
    exy = eq.exy0
    exp_, eyp, s0 = exy.real, exy.imag, z0[-1]
    v6 = v0[-1]

    # Read-bus voltages versus the states.
    dv_dz = np.zeros((ng + 1, nx), dtype=complex)
    dv_dz[:, :-3:2] = net.z_gen * (1j * rot)
    dv_dz[:, rx] = net.z_mot
    dv_dz[:, ry] = 1j * net.z_mot

    # Direct state part and voltage weights of the state derivative.
    df_dz = np.zeros((nx, nx))
    w_f = np.zeros((nx, ng + 1), dtype=complex)
    for i in range(ng):
        r = 2 * i + 1
        kt = net.k_pe[i] / net.tj[i]
        df_dz[2 * i, r] = OMEGA_S
        df_dz[r, 2 * i] = -kt * (rot[i] * v0[i].conjugate()).real
        df_dz[r, r] = -net.damping[i] / net.tj[i]
        w_f[r, i] = -1j * kt * rot[i].conjugate()
    k_emf = 1.0 / (p.Xp * p.Td0p)
    df_dz[rx, rx] = -p.X * k_emf
    df_dz[rx, ry] = s0 * OMEGA_S
    df_dz[rx, rs] = OMEGA_S * eyp
    df_dz[ry, rx] = -s0 * OMEGA_S
    df_dz[ry, ry] = -p.X * k_emf
    df_dz[ry, rs] = -OMEGA_S * exp_
    df_dz[rs, rx] = -v6.imag / (p.Xp * p.Tj)
    df_dz[rs, ry] = v6.real / (p.Xp * p.Tj)
    w_f[rx, -1] = (p.X - p.Xp) * k_emf
    w_f[ry, -1] = -1j * (p.X - p.Xp) * k_emf
    w_f[rs, -1] = 1j * exy.conjugate() / (p.Xp * p.Tj)

    a = df_dz + (w_f @ dv_dz).real

    # Outputs at the motor bus: direct state part and motor-voltage weights.
    vx, vy = v6.real, v6.imag
    vm = abs(v6)
    dg_dz = np.zeros((len(OUTPUT_LABELS), nx))
    dg_dz[2, rx], dg_dz[2, ry] = vy / p.Xp, -vx / p.Xp
    dg_dz[3, rx], dg_dz[3, ry] = -vx / p.Xp, -vy / p.Xp
    dg_dz[6, ry] = -1.0 / p.Xp
    dg_dz[7, rx] = 1.0 / p.Xp
    w_g = np.array([
        v6.conjugate() / vm,
        -1j * v6.conjugate() / vm**2,
        -1j * exy.conjugate() / p.Xp,
        (2 * v6 - exy).conjugate() / p.Xp,
        1.0,
        -1j,
        -1j / p.Xp,
        -1.0 / p.Xp,
    ])

    c = dg_dz + (w_g[:, None] * dv_dz[-1]).real

    b_cols = [np.zeros(nx)]
    b_cols[0][rs] = 1.0 / p.Tj
    d_cols = [np.zeros(len(OUTPUT_LABELS))]
    if disturbance_bus is not None:
        phi = math.radians(direction_deg)
        dv_dxi = net.z[:, case.bus_index()[disturbance_bus]] * complex(
            math.cos(phi), math.sin(phi))
        b_cols.append((w_f @ dv_dxi).real)
        d_cols.append((w_g * dv_dxi[-1]).real)

    return LinearModel(
        a=a,
        b=np.column_stack(b_cols),
        c=c,
        d=np.column_stack(d_cols),
        state_labels=eq.state_labels(),
        output_labels=list(OUTPUT_LABELS),
    )


def linear_response(model, disturbance, ts):
    """Exact ZOH propagation from the equilibrium; returns the (N, ny)
    delta-output record."""
    d = np.atleast_2d(np.asarray(disturbance, dtype=float))
    if d.shape[1] != model.b.shape[1]:
        raise ToolkitError(
            f"disturbance has {d.shape[1]} channels, model expects {model.b.shape[1]}"
        )
    ad, w0, _ = van_loan(model.a, ts)
    return propagate(ad, w0 @ model.b, model.c, model.d, d)


def _noise_sequence(rng, n_sub, dt, ts, window):
    """Per-substep white sequence whose sample-grid variance matches; the
    hold is a whole number of substeps (``Scenario`` checks it)."""
    hold = window.hold_dt if window.hold_dt is not None else dt
    per = int(round(hold / dt))
    n_hold = -(-n_sub // per)
    scale = math.sqrt(window.variance * ts / hold)
    t_hold = np.arange(n_hold) * hold
    mask = (t_hold >= window.start - 1e-12) & (t_hold < window.end - 1e-12)
    values = np.zeros(n_hold)
    if window.value is not None:
        values[mask] = window.value
    else:
        values[mask] = scale * rng.standard_normal(int(mask.sum()))
    return np.repeat(values, per)[:n_sub]


# Substeps per window of ``simulate``.  A sweep makes one stacked ``_rhs``
# and one ``propagate_from`` call whatever the window length, and on a
# small disturbance the sweeps per window grow little with it: 4.5 at 40
# substeps, 5.8 at 800.  800 is 40 samples at the reference settings.
WINDOW = 800
# Sweeps a window of more than one substep gets before it is cut short.  A
# one-substep window is the corrector: its first sweep is the predictor,
# then it gets 25 corrector iterations.
SWEEPS = 8
CORRECTOR_ITERATIONS = 25


def simulate(case, eq, scenario):
    """Nonlinear simulation sampled at the scenario's sample period.

    Integration uses an integrating-factor trapezoidal step: the dynamics
    are split into the exact linear propagation of the equilibrium Jacobian
    plus a trapezoidal correction for the nonlinear remainder
    ``g(z, d) = f(z, d) - J (z - z_eq)``, so the step is exact for the
    linearized system and second order in the remainder.  Disturbances are
    held constant over each integration substep.

    The steps of a window of ``WINDOW`` substeps are solved together by
    fixed-point sweeps (waveform relaxation).  A sweep evaluates ``g`` at
    the start and end state of every step of the window in one stacked
    ``_rhs`` call, each with its step's held disturbance ``d_k``, and
    propagates ``x_{k+1} = e^{Jh} x_k + phi_a g(z_k, d_k) + phi_b
    g(z_{k+1}, d_k)`` from the window's start state with one
    ``propagate_from`` call on an operator over blocks of ``BLOCK``
    substeps, built once per record.  A window has converged when every
    substep moved by less than 1e-13 (1 + |z|) in the last sweep.  A
    window that has not after ``SWEEPS`` sweeps is split: it keeps its
    converged leading substeps, and the next window is twice that long, at
    most ``WINDOW`` and at least one substep.  A one-substep window is the
    single step's predictor and corrector, with the corrector's
    25-iteration cap.  A step that does not converge there, or that leaves
    the slip outside (0, 1), raises ``SimulationError`` at its end time.
    The sample-time voltages come from one stacked ``_rhs`` call on the
    sample states.  ``meta`` counts the windows solved, the sweeps, the
    splits and the states passed to ``_rhs``.
    """
    dt = scenario.dt_integration
    n_sub = int(round(scenario.duration / dt))
    n_per = scenario.substeps_per_sample

    def _active(noise):
        return noise is not None and (noise.variance > 0 or noise.value is not None)

    # Per-substep values plus the one after the record's end, which the
    # final sample reads.
    e_int = np.zeros(n_sub + 1)
    if _active(scenario.internal):
        rng = np.random.default_rng(scenario.internal.seed)
        e_int[:-1] = _noise_sequence(rng, n_sub, dt, scenario.dt_sample,
                                     scenario.internal)
    xi_ext = np.zeros(n_sub + 1)
    ext_index, ext_dir = None, 1.0 + 0j
    if _active(scenario.external):
        rng = np.random.default_rng(scenario.external.seed)
        xi_ext[:-1] = _noise_sequence(rng, n_sub, dt, scenario.dt_sample,
                                      scenario.external)
        ext_index = case.bus_index()[scenario.external.bus]
        phi = math.radians(scenario.external.direction_deg)
        ext_dir = complex(math.cos(phi), math.sin(phi))

    model = linearize_system(
        case, eq,
        disturbance_bus=scenario.external.bus if scenario.external else None,
        direction_deg=scenario.external.direction_deg if scenario.external else 0.0,
    )
    jac = model.a
    e_h, w0, w1s = van_loan(jac, dt)
    phi_b = w1s / dt           # weight of the remainder at the step end
    phi_a = w0 - phi_b         # weight at the step start
    nx = jac.shape[0]
    # A window's states x_1..x_m are the outputs y_k = e_h x_k + F_k of
    # x_{k+1} = e_h x_k + F_k from its start state x_0.
    op = lti_operator(e_h, np.eye(nx), e_h, np.eye(nx), BLOCK)

    z_eq = eq.equilibrium_state()
    n_samples = n_sub // n_per + 1
    samples = np.empty((n_samples, nx))
    samples[0] = z_eq
    x0 = np.zeros(nx)          # deviation from z_eq at the window start
    k = 0
    size = WINDOW
    windows = sweeps = splits = rhs_rows = 0
    while k < n_sub:
        m = min(size, n_sub - k)
        e2 = np.tile(e_int[k:k + m], 2)
        xi2 = np.tile(xi_ext[k:k + m], 2)
        x = np.broadcast_to(x0, (m, nx))      # x_1 .. x_m
        for _ in range(SWEEPS if m > 1 else 1 + CORRECTOR_ITERATIONS):
            xs = np.concatenate((x0[None], x[:-1], x))
            zs = z_eq + xs
            g = _rhs(eq, zs, e2, xi2, ext_index, ext_dir)[0] - xs @ jac.T
            f = g[:m] @ phi_a.T + g[m:] @ phi_b.T
            x_new = propagate_from(op, x0, f)
            sweeps += 1
            rhs_rows += 2 * m
            done = (abs(x_new - x).max(axis=1)
                    < 1e-13 * (1.0 + abs(zs[m:]).max(axis=1)))
            x = x_new
            if done.all():
                break
        else:
            if m == 1:
                raise SimulationError(
                    f"corrector did not converge at t={(k + 1) * dt:.4f}s",
                    t=(k + 1) * dt,
                )
            # Substep j depends only on substeps 0..j, so the converged
            # leading substeps are the solution of a window that short.
            m = int(done.argmin())
            splits += 1
        size = min(WINDOW, max(1, 2 * m))
        if m == 0:
            continue
        slip = z_eq[-1] + x[:m, -1]
        bad = np.flatnonzero(~((0.0 < slip) & (slip < 1.0)))
        if bad.size:
            t = (k + 1 + int(bad[0])) * dt
            raise SimulationError(f"slip left (0, 1) at t={t:.4f}s", t=t)
        first = -(-(k + 1) // n_per)
        rows = np.arange(first * n_per, k + m + 1, n_per)
        samples[first:first + len(rows)] = z_eq + x[rows - k - 1]
        x0 = x[m - 1]
        windows += 1
        k += m

    # Sample with the disturbance value active from each sample instant on,
    # matching the zero-order-hold convention of the linear model.
    v = _rhs(eq, samples, e_int[::n_per], xi_ext[::n_per], ext_index,
             ext_dir)[1]
    rhs_rows += n_samples
    p = eq.params
    v6 = v[:, -1]
    exy = samples[:, -3] + 1j * samples[:, -2]
    data = np.column_stack((
        abs(v6),
        np.angle(v6),
        (exy.real * v6.imag - exy.imag * v6.real) / p.Xp,
        (abs(v6) ** 2 - v6.real * exy.real - v6.imag * exy.imag) / p.Xp,
    ))
    time = np.arange(n_samples) * n_per * dt

    mvar = np.asarray(scenario.measurement_variance, float)
    if np.any(mvar > 0):
        rng = np.random.default_rng(scenario.measurement_seed)
        data = data + np.sqrt(mvar)[None, :] * rng.standard_normal(data.shape)

    meta = {
        "duration": scenario.duration,
        "seed_internal": scenario.internal.seed if scenario.internal else None,
        "seed_external": scenario.external.seed if scenario.external else None,
        "measurement_variance": tuple(mvar.tolist()),
        "windows": windows,
        "sweeps": sweeps,
        "splits": splits,
        "rhs_rows": rhs_rows,
    }
    return MeasurementSeries(ts=scenario.dt_sample, time=time, data=data, meta=meta)
