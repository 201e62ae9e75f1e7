"""Exception types shared across the package."""


class ScopddError(Exception):
    """Base class for all package errors."""


class StructureError(ScopddError):
    """A diagram operation violated the variable order or node invariants."""


class ParseError(ScopddError):
    """Bad input text; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CapacityError(ScopddError):
    """An enumeration exceeded its fixed cap."""
