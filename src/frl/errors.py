"""Exception taxonomy shared across the package."""


class FrlError(Exception):
    """Base class for all package errors."""


class ValidationError(FrlError, ValueError):
    """A table, spec, or log violates a structural invariant."""


class ConfigurationError(FrlError, ValueError):
    """A config, preset, or intervention table entry is missing or malformed."""


class DomainError(FrlError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class ShapeError(FrlError, ValueError):
    """An array argument has the wrong shape."""


class NumericError(FrlError, ArithmeticError):
    """Non-convergence, NaN/Inf values, or division by a zero probability."""


class StateError(FrlError, RuntimeError):
    """An API was called out of order (e.g. backward before forward)."""


class DataError(FrlError, ValueError):
    """Logged data is unusable (e.g. zero behavior propensity on a taken action)."""


class SelectionError(FrlError, RuntimeError):
    """No candidate survives the model-selection constraints."""
