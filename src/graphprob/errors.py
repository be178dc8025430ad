"""Domain error types shared across the package.

The command line maps ``DomainError`` and its subclasses to exit status 1;
anything else escaping a handler is a genuine bug.
"""

from __future__ import annotations


class DomainError(Exception):
    """Invalid input or violated precondition in a graph-algebra operation."""

    code = "domain-error"
    # Attributes that follow code and message in the JSON payload, in order.
    payload_fields: tuple[str, ...] = ()

    def payload(self) -> dict:
        fields = {name: getattr(self, name) for name in self.payload_fields}
        return {"code": self.code, "message": str(self), **fields}


class GraphSyntaxError(DomainError):
    """Malformed graph description text."""

    code = "graph-syntax"
    payload_fields = ("line", "column")

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class BackendMismatchError(DomainError):
    """Operands built over different graphs or different backends."""

    code = "backend-mismatch"


class DepthError(DomainError):
    """A truncated path-space evaluation would need a longer basis.

    Raised before the work starts, instead of silently truncating;
    ``required`` is the work's degree bound, a depth that is enough.
    """

    code = "depth-insufficient"
    payload_fields = ("required", "depth")

    def __init__(self, required: int, depth: int):
        super().__init__(
            f"truncation depth {depth} insufficient, need at least {required}"
        )
        self.required = required
        self.depth = depth


class ArityBoundError(DomainError):
    """A non-crossing partition enumeration exceeds its size limit."""

    code = "arity-bound"
