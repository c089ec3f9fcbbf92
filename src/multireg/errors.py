"""Exception types shared across the library."""


class MultiregError(Exception):
    """Base class for all library errors."""


class RingMismatchError(MultiregError):
    """Operands live over different rings."""


class InhomogeneousError(MultiregError):
    """An element or matrix entry fails its required homogeneity."""


class NotSaturatedError(MultiregError):
    """The truncation criterion for regularity needs a module with no
    irrelevant-ideal torsion; the caller should fall back to the local
    cohomology check."""


class BoxTooSmall(MultiregError):
    """The degree box does not contain the corners that the vanishing
    check needs."""

    def __init__(self, message, missing=()):
        super().__init__(message)
        self.missing = tuple(missing)


class ParseError(MultiregError):
    """Input text rejected, with position information."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col
