"""Exception hierarchy shared by all toolkit modules."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific failures."""


class CaseParseError(ToolkitError):
    """Case text violates the schema; carries line and field context."""


class CaseValidationError(ToolkitError):
    """Parsed case is structurally invalid (dangling references etc.)."""


class PowerFlowError(ToolkitError):
    """Newton iteration failed to converge; carries the final mismatch."""

    def __init__(self, message, mismatch=None):
        super().__init__(message)
        self.mismatch = mismatch


class EquilibriumError(ToolkitError):
    """No physical equilibrium for the requested loading."""


class SimulationError(ToolkitError):
    """Time-domain simulation failed; carries the simulation time."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class FrequencyDomainError(ToolkitError):
    """Singular elimination or evaluation at a named frequency."""

    def __init__(self, message, omega=None):
        super().__init__(message)
        self.omega = omega


class SpectrumError(ToolkitError):
    """Spectral estimation preconditions violated."""


class RiccatiError(ToolkitError):
    """Riccati solve failed or is ill-conditioned."""


class UnstablePredictorError(RiccatiError):
    """The Riccati gain leaves the predictor A - K C with spectral radius
    at or above one."""


class IdentificationError(ToolkitError):
    """All identification starts failed; carries per-start diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class ConfigError(ToolkitError):
    """Experiment configuration is invalid or incomplete."""
