"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so raising the right class
matters more than the message wording.
"""


class MccwsError(Exception):
    """Base class for all package errors."""


class ConfigError(MccwsError):
    """Invalid configuration: bad flag values, unknown criteria, mismatched vocab."""


class DataError(MccwsError):
    """Invalid input data: unreadable files, bad encodings, empty corpus files."""


class DivergenceError(MccwsError):
    """Training produced a non-finite loss."""
