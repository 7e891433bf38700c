"""Analytic closed-loop structure in the frequency domain.

Builds the equivalent network response seen from the identified load: the
2x2 transfer K(jw) from load-bus voltage deltas to load current deltas with
every other bus, generator and static load eliminated, and the companion
path from an external current injection.  Sign convention: load current is
the current drawn by the identified load, so K and the load's own response
G share one axis and the feedback relations between them hold as stated.

All responses are sampled on frequency grids; nothing is kept symbolic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from loadsysid.constants import OMEGA_S
from loadsysid.errors import FrequencyDomainError, ToolkitError
from loadsysid.greybox import assemble_continuous, NoiseConfig
from loadsysid.network import expand_real
from loadsysid.sim import linear_response


@dataclass
class FrequencyResponse:
    """Complex matrix function sampled on an ascending angular grid."""

    omega: np.ndarray          # rad/s
    values: np.ndarray         # (n_omega, p, q) complex

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if len(self.omega) != self.values.shape[0]:
            raise ToolkitError("grid and value counts differ")
        if np.any(np.diff(self.omega) <= 0):
            raise ToolkitError("frequency grid must be strictly ascending")
        if not np.all(np.isfinite(self.values)):
            raise ToolkitError("non-finite frequency response value")

    def interp(self, omega):
        """Entrywise linear interpolation onto a new grid."""
        omega = np.asarray(omega, dtype=float)
        out = np.empty((len(omega),) + self.values.shape[1:], dtype=complex)
        for i in range(self.values.shape[1]):
            for j in range(self.values.shape[2]):
                re = np.interp(omega, self.omega, self.values[:, i, j].real)
                im = np.interp(omega, self.omega, self.values[:, i, j].imag)
                out[:, i, j] = re + 1j * im
        return out


def _solve_grid(mats, rhs, omega, what):
    """``np.linalg.solve`` over a stack of per-frequency matrices.  A
    singular matrix raises a FrequencyDomainError at the first grid point
    where it occurs."""
    try:
        return np.linalg.solve(mats, rhs)
    except np.linalg.LinAlgError as exc:
        for w, mat in zip(omega, mats):
            try:
                np.linalg.inv(mat)
            except np.linalg.LinAlgError:
                raise FrequencyDomainError(
                    f"singular {what} at omega={w}", omega=float(w)) from exc
        raise


def _resolvent(a, omega_grid):
    """The stack of ``j w I - A`` over the grid."""
    return 1j * omega_grid[:, None, None] * np.eye(len(a)) - a


def generator_frf(gen, e_phasor, v_phasor, omega):
    """Voltage-to-injected-current transfer of one classical generator.

    ``gen`` carries (tj, xdp, damping); ``e_phasor`` is the constant internal
    EMF and ``v_phasor`` the equilibrium bus voltage.  The result maps
    (dVx, dVy) to the generator's injected current deltas per frequency.
    """
    ex, ey = e_phasor.real, e_phasor.imag
    k_delta = (ex * v_phasor.real + ey * v_phasor.imag) / gen.xdp
    a = np.array([[0.0, OMEGA_S], [-k_delta / gen.tj, -gen.damping / gen.tj]])
    b = np.array([[0.0, 0.0],
                  [-ey / (gen.xdp * gen.tj), ex / (gen.xdp * gen.tj)]])
    c = np.array([[ex / gen.xdp, 0.0], [ey / gen.xdp, 0.0]])
    d = np.array([[0.0, -1.0], [1.0, 0.0]]) / gen.xdp
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    m = _resolvent(a, omega)
    singular = np.abs(np.linalg.det(m)) < 1e-12
    if singular.any():
        w = float(omega[singular.argmax()])
        raise FrequencyDomainError(
            f"generator response singular at omega={w}", omega=w
        )
    return c @ np.linalg.solve(m, b) + d


def reduce_to_load(case, eq, omega_grid, disturbance_bus=None,
                   direction_deg=0.0):
    """Equivalent network response and external-disturbance path.

    The network is frequency independent, so its Kron reduction onto the
    dynamic generators' buses and the motor bus is taken once, from the
    simulator's reduced map: the inverse of that map's block at those
    buses.  The identified motor's own admittance is removed (K describes
    everything except the load under identification), the generator
    responses are added in the real-expanded coordinates, and the
    generator block is eliminated in one stacked solve over the grid.
    This yields the 2x2 feedback response K and, when a disturbance bus is
    named, the 2x1 injection path.  The slack machine is an infinite bus:
    constant EMF, its reactance is in ``y_dyn`` and it injects no delta
    current.
    """
    idx = case.bus_index()
    omega_grid = np.asarray(omega_grid, dtype=float)
    n_gen = len(eq.dyn_gen_buses)
    rows = list(range(n_gen)) + [-1]          # the map's rows, motor last
    cols = [idx[bus] for bus in eq.dyn_gen_buses + [eq.motor_bus]]
    try:
        y_red = np.linalg.inv(eq.net.z[np.ix_(rows, cols)])
    except np.linalg.LinAlgError as exc:
        raise FrequencyDomainError(
            f"singular reduced network at omega={omega_grid[0]}",
            omega=float(omega_grid[0])) from exc
    # An injection enters the reduced network as the current that sets the
    # same voltages at the kept buses; at the motor bus itself it would not
    # pass through the network.
    u = np.zeros((n_gen + 1, 1), dtype=complex)
    if disturbance_bus is not None and disturbance_bus != eq.motor_bus:
        phi = math.radians(direction_deg)
        u[:, 0] = y_red @ eq.net.z[rows, idx[disturbance_bus]] * complex(
            math.cos(phi), math.sin(phi))
    y_red[-1, -1] -= 1.0 / (1j * eq.params.Xp)
    red = expand_real(y_red)
    u = expand_real(u)[:, :1]

    # y_dyn already carries each generator's reactance feedthrough on its
    # diagonal; only the state-driven part of its response is added.
    m_gg = np.repeat(red[None, :-2, :-2].astype(complex), len(omega_grid),
                     axis=0)
    for i, bus in enumerate(eq.dyn_gen_buses):
        g = case.generator_at(bus)
        e_ph = eq.gen_emag[bus] * np.exp(1j * eq.gen_delta[bus])
        frf = generator_frf(g, e_ph, eq.v_eq[idx[bus]], omega_grid)
        d_part = expand_real(np.array([[-1.0 / (1j * g.xdp)]]))
        m_gg[:, 2 * i:2 * i + 2, 2 * i:2 * i + 2] -= frf - d_part
    x_gen = _solve_grid(m_gg, np.hstack([red[:-2, -2:], u[:-2]]), omega_grid,
                        "elimination block")
    m_kg = red[-2:, :-2]
    k = FrequencyResponse(omega_grid, m_kg @ x_gen[:, :, :2] - red[-2:, -2:])
    kh = None
    if disturbance_bus is not None:
        kh = FrequencyResponse(omega_grid, u[-2:] - m_kg @ x_gen[:, :, 2:])
    return k, kh


def _output_conversion(params):
    """Matrices converting the (dV, dtheta) / (dP, dQ) model coordinates to
    rectangular voltage and drawn-current deltas at the operating point."""
    v0, th0 = params.V0, params.theta0
    ct, st = math.cos(th0), math.sin(th0)
    w_v = np.array([[ct, st], [-st / v0, ct / v0]])           # (dVx,dVy)->(dV,dth)
    v = v0 * np.exp(1j * th0)
    # Power the motor draws at the operating point.
    s0 = complex(
        (params.Exp0 * v.imag - params.Eyp0 * v.real) / params.Xp,
        (abs(v) ** 2 - v.real * params.Exp0 - v.imag * params.Eyp0) / params.Xp)
    i0 = np.conj(s0 / v)
    w_y = np.array([[ct, st], [st, -ct]]) / v0                # (dP,dQ)->(dIx,dIy)
    w_u = np.column_stack([
        [-i0.real / v0, -i0.imag / v0],
        [-i0.imag, i0.real],
    ])
    return w_v, w_y, w_u


def load_frf(params, omega_grid):
    """Voltage-to-drawn-current response of the load model itself.

    Assembles the grey-box model at ``params`` and converts it from the
    (dV, dtheta) / (dP, dQ) coordinates to rectangular voltage and current
    deltas, so the result lives on the same axes as the network response.
    """
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    cont = assemble_continuous(params, NoiseConfig())
    w_v, w_y, w_u = _output_conversion(params)
    g_pq = cont.c @ _solve_grid(_resolvent(cont.a, omega_grid), cont.b,
                                omega_grid, "load model") + cont.d
    return FrequencyResponse(omega_grid, (w_y @ g_pq + w_u) @ w_v)


def load_noise_frf(params, omega_grid, noise=None):
    """Response from the internal disturbance to the drawn current."""
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    noise = noise if noise is not None else NoiseConfig()
    cont = assemble_continuous(params, noise)
    _, w_y, _ = _output_conversion(params)
    h_pq = cont.c @ _solve_grid(_resolvent(cont.a, omega_grid), cont.g,
                                omega_grid, "load model")
    return FrequencyResponse(omega_grid, w_y @ h_pq)


def closed_loop_response(k, kh, g_load, h_int, spec_int, spec_ext, omega_grid):
    """Effective voltage-to-current relation with both sources active.

    Per frequency the two basis responses are formed: the internal path
    excites the difference (K - G)^-1 H and the external path the
    feedforward (G - K)^-1 Kh; the returned matrix acts as K on the first
    direction and as G on the second.  With only one source active it
    degenerates to exactly K or exactly G.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    spec_int = np.broadcast_to(np.asarray(spec_int, dtype=float), omega_grid.shape)
    spec_ext = np.broadcast_to(np.asarray(spec_ext, dtype=float), omega_grid.shape)
    k_v = k.interp(omega_grid)
    g_v = g_load.interp(omega_grid)
    h_v = h_int.interp(omega_grid) if h_int is not None else None
    kh_v = kh.interp(omega_grid) if kh is not None else None
    out = np.empty((len(omega_grid), 2, 2), dtype=complex)
    for i, w in enumerate(omega_grid):
        ki, gi = k_v[i], g_v[i]
        wi, we = math.sqrt(spec_int[i]), math.sqrt(spec_ext[i])
        if wi == 0.0 and we == 0.0:
            raise ToolkitError("both disturbance spectra vanish")
        if wi == 0.0:
            out[i] = gi
            continue
        if we == 0.0:
            out[i] = ki
            continue
        diff = ki - gi
        try:
            a = np.linalg.solve(diff, h_v[i][:, 0]) * wi
            b_vec = np.linalg.solve(gi - ki, kh_v[i][:, 0]) * we
        except np.linalg.LinAlgError as exc:
            raise FrequencyDomainError(
                f"singular feedback difference at omega={w}", omega=w
            ) from exc
        basis = np.column_stack([a, b_vec])
        if abs(np.linalg.det(basis)) < 1e-300:
            raise FrequencyDomainError(
                f"disturbance directions collinear at omega={w}", omega=w
            )
        image = np.column_stack([ki @ a, gi @ b_vec])
        out[i] = image @ np.linalg.inv(basis)
    return FrequencyResponse(omega_grid, out)


def superposition_decompose(model, xi_int, xi_ext, ts):
    """Responses of the linear system to each disturbance alone.

    Returns rectangular voltage and current delta series for the internal
    path, the external path, and the combined run; the sums reproduce the
    combined responses to machine precision by linearity.
    """
    if model.b.shape[1] < 2:
        raise ToolkitError("model must carry both disturbance inputs")
    xi_int = np.asarray(xi_int, dtype=float)
    xi_ext = np.asarray(xi_ext, dtype=float)
    n = max(len(xi_int), len(xi_ext))
    d_int = np.zeros((n, 2))
    d_int[: len(xi_int), 0] = xi_int
    d_ext = np.zeros((n, 2))
    d_ext[: len(xi_ext), 1] = xi_ext
    iv = [model.output("vx"), model.output("vy")]
    ii = [model.output("ix"), model.output("iy")]
    resp_i = linear_response(model, d_int, ts)
    resp_e = linear_response(model, d_ext, ts)
    resp_c = linear_response(model, d_int + d_ext, ts)
    return {
        "v_int": resp_i[:, iv], "i_int": resp_i[:, ii],
        "v_ext": resp_e[:, iv], "i_ext": resp_e[:, ii],
        "v_combined": resp_c[:, iv], "i_combined": resp_c[:, ii],
    }
