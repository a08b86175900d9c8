"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` (kebab-case) so the
command line layer can emit structured diagnostics without string matching.
"""

from __future__ import annotations


class BnmargError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class ArgumentError(BnmargError):
    """A caller broke an operation precondition (overlapping sets, bad value)."""

    code = "argument"


class UnknownNodeError(BnmargError):
    """An identifier does not name a node of the graph or network."""

    code = "unknown-node"


class CycleError(BnmargError):
    """The directed graph contains a cycle (or a self loop)."""

    code = "cycle"

    def __init__(self, message: str, cycle=()):
        super().__init__(message)
        self.cycle = tuple(cycle)


class InvalidAssignmentError(BnmargError):
    """A (partial) assignment names unknown nodes or out-of-range states."""

    code = "invalid-assignment"


class CapacityError(BnmargError):
    """A table or enumeration would exceed the configured size cap."""

    code = "capacity"


class InternalConsistencyError(BnmargError):
    """An internal structural guarantee failed; indicates a bug upstream."""

    code = "internal"


class ParameterError(BnmargError):
    """A generator parameter is out of range or unreachable."""

    code = "parameter"


class DomainError(BnmargError):
    """A statistic is undefined for the given inputs (e.g. zero truth)."""

    code = "domain"


class ClassificationError(BnmargError):
    """A record cannot be scored against the supplied models."""

    code = "classification"


class DataFormatError(BnmargError):
    """A dataset file or record violates the dataset format contract."""

    code = "data-format"


class NetworkFormatError(BnmargError):
    """Base class for network file defects; carries a source position."""

    code = "format"

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.line = line
        self.col = col


class NetworkSyntaxError(NetworkFormatError):
    code = "syntax"


class EmptyDocumentError(NetworkFormatError):
    code = "empty-document"


class NumberFormatError(NetworkFormatError):
    code = "bad-number"


class DuplicateVariableError(NetworkFormatError):
    code = "duplicate-variable"


class DuplicateStateError(NetworkFormatError):
    code = "duplicate-state"


class StateCountError(NetworkFormatError):
    code = "state-count"


class UnresolvedParentError(NetworkFormatError):
    code = "unresolved-parent"


class DuplicateParentError(NetworkFormatError):
    code = "duplicate-parent"


class CptLengthError(NetworkFormatError):
    code = "cpt-length"


class CptValueError(NetworkFormatError):
    code = "cpt-value-range"


class CptRowSumError(NetworkFormatError):
    code = "cpt-row-sum"


class NetworkCycleError(NetworkFormatError):
    """A parsed network's parent relations form a directed cycle."""

    code = "cycle"

    def __init__(self, message: str, cycle=(), line: int = 0, col: int = 0):
        super().__init__(message, line, col)
        self.cycle = tuple(cycle)
