"""Third-order induction motor load model.

States are the transient EMF pair (E'x, E'y) behind the transient reactance
and the per-unit slip s.  The stator is algebraic with resistance neglected,
so the current drawn from the bus is I = (V - E')/(jX').  In the
synchronously rotating frame the EMF dynamics are

    dE'/dt = [-X E' + (X - X') V] / (X' T'd0) - j s * OMEGA_S * E'
    Tj ds/dt = Tm - Te,   Te = (E'x Vy - E'y Vx) / X'

with time in seconds and all electrical quantities per-unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from loadsysid.constants import OMEGA_S
from loadsysid.errors import CaseValidationError, EquilibriumError


def _check_constants(X, Xp, Td0p, Tj, s0):
    """Reject motor constants outside the model's domain; each check is
    written so that NaN fails it.  ``s0`` None leaves the slip unchecked."""
    if not X > Xp > 0.0:
        raise CaseValidationError(f"need X > Xp > 0, got X={X}, Xp={Xp}")
    if not (Td0p > 0.0 and Tj > 0.0):
        raise CaseValidationError(
            f"time constants must be positive, got Td0p={Td0p}, Tj={Tj}")
    if s0 is not None and not 0.0 < s0 < 1.0:
        raise CaseValidationError(f"slip must lie in (0, 1), got {s0}")


@dataclass(frozen=True)
class LoadParameters:
    """Physical parameter vector of the identifiable load.

    X, Xp are the open-circuit and transient reactances, Td0p the
    open-circuit transient time constant (s), Tj the motor acceleration
    time constant (s), s0 the equilibrium slip, (Exp0, Eyp0) the
    equilibrium transient EMF and (V0, theta0) the operating voltage
    phasor.
    """

    X: float
    Xp: float
    Td0p: float
    Tj: float
    s0: float
    Exp0: float
    Eyp0: float
    V0: float = 1.0
    theta0: float = 0.0

    def __post_init__(self):
        _check_constants(self.X, self.Xp, self.Td0p, self.Tj, self.s0)
        if not self.V0 > 0.0:
            raise CaseValidationError("operating voltage must be positive")


@dataclass(frozen=True)
class MotorSpec:
    """Partial parameter set used to initialize the equilibrium.

    With ``s0`` given, the motor runs at that slip; when ``s0`` is None the
    slip is solved from the scheduled active power of the motor bus.
    """

    X: float
    Xp: float
    Td0p: float
    Tj: float
    s0: float | None = None

    def __post_init__(self):
        _check_constants(self.X, self.Xp, self.Td0p, self.Tj, self.s0)


def emf_steady_state(X, Xp, Td0p, s, v):
    """Equilibrium transient EMF phasor at slip s and bus voltage phasor v."""
    return (X - Xp) * v / (X + 1j * s * OMEGA_S * Td0p * Xp)


def motor_pq(X, Xp, Td0p, s, v):
    """Steady-state (P, Q) drawn at slip s and voltage phasor v."""
    alpha = s * OMEGA_S * Td0p
    vm2 = abs(v) ** 2
    den = X**2 + (alpha * Xp) ** 2
    p = vm2 * alpha * (X - Xp) / den
    q = vm2 * (X + alpha**2 * Xp) / den
    return p, q


def peak_power_slip(X, Xp, Td0p):
    """Slip of maximum steady-state active power (stability boundary)."""
    return X / (Xp * OMEGA_S * Td0p)


def solve_slip_for_power(X, Xp, Td0p, p_target, v):
    """Stable-branch slip at which the motor draws p_target.

    Raises EquilibriumError when no slip in (0, peak) carries the load.
    """
    if p_target <= 0.0:
        raise EquilibriumError(
            f"motor cannot carry non-positive active power {p_target}"
        )
    s_peak = min(peak_power_slip(X, Xp, Td0p), 1.0 - 1e-9)
    p_peak, _ = motor_pq(X, Xp, Td0p, s_peak, v)
    if p_target >= p_peak:
        raise EquilibriumError(
            f"scheduled power {p_target:.4f} exceeds motor peak {p_peak:.4f}"
        )
    from scipy.optimize import brentq  # kept off the start-up path
    return brentq(
        lambda s: motor_pq(X, Xp, Td0p, s, v)[0] - p_target,
        1e-12,
        s_peak,
        xtol=1e-14,
        rtol=1e-15,
    )
