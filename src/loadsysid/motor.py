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

import math
from dataclasses import dataclass, field

import numpy as np

from loadsysid.constants import OMEGA_S
from loadsysid.errors import CaseValidationError


def _check_constants(X, Xp, Td0p, Tj, s0):
    """Reject motor constants outside the model's domain; each check is
    written so that NaN fails it."""
    if not all(map(math.isfinite, (X, Xp, Td0p, Tj, s0))):
        raise CaseValidationError("motor constants must be finite, got "
                                  f"{(X, Xp, Td0p, Tj, s0)}")
    if not X > Xp > 0.0:
        raise CaseValidationError(f"need X > Xp > 0, got X={X}, Xp={Xp}")
    if not (Td0p > 0.0 and Tj > 0.0):
        raise CaseValidationError(
            f"time constants must be positive, got Td0p={Td0p}, Tj={Tj}")
    if not 0.0 < s0 < 1.0:
        raise CaseValidationError(f"slip must lie in (0, 1), got {s0}")


@dataclass(frozen=True)
class LoadParameters:
    """Physical parameter vector of the identifiable load.

    X, Xp are the open-circuit and transient reactances, Td0p the
    open-circuit transient time constant (s), Tj the motor acceleration
    time constant (s), s0 the equilibrium slip and (V0, theta0) the
    operating voltage phasor.  The equilibrium transient EMF (Exp0, Eyp0)
    is not a parameter: it is derived from the others, so ``replace`` with
    a new operating point reties it.
    """

    X: float
    Xp: float
    Td0p: float
    Tj: float
    s0: float
    V0: float = 1.0
    theta0: float = 0.0
    Exp0: float = field(init=False)
    Eyp0: float = field(init=False)

    def __post_init__(self):
        _check_constants(self.X, self.Xp, self.Td0p, self.Tj, self.s0)
        if not (0.0 < self.V0 < math.inf and math.isfinite(self.theta0)):
            raise CaseValidationError("need 0 < V0 < inf and a finite theta0, "
                                      f"got {self.V0}, {self.theta0}")
        e0 = emf_steady_state(self.X, self.Xp, self.Td0p, self.s0,
                              self.V0 * np.exp(1j * self.theta0))
        object.__setattr__(self, "Exp0", float(e0.real))
        object.__setattr__(self, "Eyp0", float(e0.imag))


@dataclass(frozen=True)
class MotorSpec:
    """Motor constants and the slip at which the motor runs at the
    equilibrium."""

    X: float
    Xp: float
    Td0p: float
    Tj: float
    s0: float

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
