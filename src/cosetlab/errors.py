"""Shared exception types."""


class CosetLabError(Exception):
    """Base class for all package-specific errors."""


class CapExceededError(CosetLabError):
    """A configured enumeration or state-space cap would be exceeded."""


class ExpurgationError(CosetLabError):
    """Expurgated ensemble construction failed or its parameters are invalid."""


class DecodeFailure(CosetLabError):
    """The received syndrome lies outside the image of the encoding map, or its
    coset carries zero posterior mass given the side information."""


class EmptyCosetError(CosetLabError):
    """The constraint set has no solution carrying positive probability mass."""


class ConfigError(CosetLabError):
    """A configuration field is missing or malformed (names the field)."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
