"""Exception types shared across the toolkit.

CLI exit codes: 0 PASS, 1 verification FAIL (an ordinary result, never an
exception), 2 any other GraphckError or a file error, 3 ResourceLimit, 4 any
other exception (internal error).
"""


class GraphckError(Exception):
    """Base class for all toolkit errors."""


class ContractViolation(GraphckError):
    """A documented precondition of an operation was violated."""


class ResourceLimit(GraphckError):
    """A configurable size bound was exceeded."""


class DslError(GraphckError):
    """Syntax or semantic error in the graph DSL."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} at line {line}" + (f", column {column}" if column else "")
        super().__init__(message)
