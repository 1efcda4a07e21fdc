"""Exception hierarchy and structured physics warnings."""

from __future__ import annotations

import warnings


class TunnelKitError(Exception):
    """Base class for all errors raised by this package."""


class PhysicsDomainError(TunnelKitError, ValueError):
    """An operation was called outside its physical domain of validity;
    ``field`` names the offending constructor field, such as ``sigma_p``."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class AboveBarrierError(PhysicsDomainError):
    """Momentum outside the tunneling window of a closed-form amplitude."""


class TotalReflectionError(PhysicsDomainError):
    """T = 0: transmission phase is undefined."""


class DelayUndefinedError(PhysicsDomainError):
    """Phase derivative requested across a zero of the detection amplitude."""


class NumericsError(TunnelKitError):
    """A numerical routine failed to reach its requested accuracy.

    ``diagnostics`` holds whatever the failing routine knew (worst panel,
    error estimates, iteration counts).
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(TunnelKitError):
    """Invalid scenario configuration; ``path`` names the offending field."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class RegimeWarning(UserWarning):
    """A physics-regime assumption is violated but the result stays evaluable.

    Structured so the CLI can copy warnings into the run manifest verbatim.
    """

    def __init__(self, code: str, message: str, context: dict | None = None):
        self.code = code
        self.context = context or {}
        super().__init__(message)

    def payload(self) -> dict:
        return {"code": self.code, "message": str(self.args[0] if self.args else ""),
                "context": self.context}


def warn_regime(code: str, message: str, **context) -> None:
    warnings.warn(RegimeWarning(code, message, context), stacklevel=3)
